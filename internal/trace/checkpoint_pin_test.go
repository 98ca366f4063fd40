package trace

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bebop/internal/core"
	"bebop/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/checkpoint_state.golden after a checkpointVersion bump")

// TestCheckpointStatePinned pins what a side-file holds: the sha256 of
// the state of every point a warming pass builds for gcc and hmmer
// under Baseline_6_60 and EOLE_4_60/Medium, beside checkpointVersion.
// Side-files are told apart by that version alone, so a change to
// warming, or to what any component's AppendState writes, fails here
// until the version is bumped; otherwise side-files built before the
// change would be reused and answer differently from a fresh build.
// -update rewrites the golden, and only once the version differs from
// the one it records.
//
// Each Baseline_6_60 point must also encode in under a quarter of the
// 552,875 bytes its tables take dense: warming leaves most of them
// mostly zero, and the codec masks those.
func TestCheckpointStatePinned(t *testing.T) {
	const baselineDense = 552_875
	var got strings.Builder
	fmt.Fprintf(&got, "checkpointVersion %d\n", checkpointVersion)
	for _, mk := range []core.ConfigFactory{core.Baseline(), core.EOLEBeBoP("Medium", core.MediumConfig())} {
		for _, bench := range []string{"gcc", "hmmer"} {
			prof, _ := workload.ProfileByName(bench)
			points, name, err := core.BuildCheckpoints(workload.ProfileSource{Prof: prof}, mk, 5_000, 20_000)
			if err != nil {
				t.Fatal(err)
			}
			for _, ck := range points {
				fmt.Fprintf(&got, "%s %s %d %x\n", name, bench, ck.InstOffset, sha256.Sum256(ck.State))
				if name == "Baseline_6_60" && len(ck.State) >= baselineDense/4 {
					t.Errorf("%s point at %d encodes in %d bytes, want under %d", bench, ck.InstOffset, len(ck.State), baselineDense/4)
				}
			}
		}
	}
	path := filepath.Join("testdata", "checkpoint_state.golden")
	want, err := os.ReadFile(path)
	if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	var version int
	fmt.Sscanf(string(want), "checkpointVersion %d", &version)
	switch {
	case string(want) == got.String():
	case version == checkpointVersion:
		t.Fatalf("warmed state changed: bump checkpointVersion, then rerun with -update.\ngolden:\n%s\nnow:\n%s", want, got.String())
	case *update:
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("checkpointVersion is %d but %s records %d: rerun with -update", checkpointVersion, path, version)
	}
}
