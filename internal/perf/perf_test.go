package perf

import (
	"testing"

	"bebop/internal/workload"
)

func TestPinnedSetIsValid(t *testing.T) {
	for _, name := range PinnedWorkloads() {
		if _, ok := workload.ProfileByName(name); !ok {
			t.Errorf("pinned workload %q is not in the workload catalog", name)
		}
	}
}
