package main

import (
	"testing"

	"bebop/sim"
)

func TestListLine(t *testing.T) {
	for _, c := range []struct {
		info sim.WorkloadInfo
		want string
	}{
		{sim.WorkloadInfo{Name: "gzip", Kind: "synthetic", Suite: "CPU2000", INT: true, PaperIPC: 0.845},
			"gzip         CPU2000  INT paper-IPC=0.845"},
		{sim.WorkloadInfo{Name: "swim", Kind: "synthetic", Suite: "CPU2000", PaperIPC: 1.745},
			"swim         CPU2000  FP  paper-IPC=1.745"},
		{sim.WorkloadInfo{Name: "gcc-10k", Kind: "trace", Path: "traces/gcc-10k.bbt"},
			"gcc-10k      trace    traces/gcc-10k.bbt"},
		{sim.WorkloadInfo{Name: "probe/tage-history/4", Kind: "probe", Axis: "period", Pressure: 4},
			"probe/tage-history/4 probe    period=4"},
	} {
		if got := listLine(c.info); got != c.want {
			t.Errorf("listLine(%+v)\n got %q\nwant %q", c.info, got, c.want)
		}
	}
}
