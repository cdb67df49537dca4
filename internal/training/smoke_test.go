package training

import (
	"testing"

	"laermoe/internal/model"
	"laermoe/internal/topology"
)

// TestSmokeEndToEnd runs a short simulation of every system on the default
// cluster and checks the headline relationships the paper reports: LAER is
// the fastest real system and its All-to-All share is far below the static
// baseline's.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-cluster simulation")
	}
	topo := topology.Default()
	times := map[System]float64{}
	for _, sys := range []System{SystemLAER, SystemFSDPEP, SystemMegatron, SystemFlexMoE} {
		run, _, err := Run(RunConfig{
			System:     sys,
			Arch:       model.Mixtral8x7B,
			Topo:       topo,
			Iterations: 6,
			Warmup:     2,
			Seed:       7,
		})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		times[sys] = run.MeanIterationTime()
		bd := run.MeanBreakdown()
		t.Logf("%-10s iter=%.2fs tput=%.0f tok/s breakdown: %v imb=%.2f",
			sys, run.MeanIterationTime(), run.Throughput(), bd,
			meanOf(run.MeanPerLayerImbalance()))
	}
	if times[SystemLAER] >= times[SystemFSDPEP] {
		t.Errorf("LAER (%.2fs) not faster than FSDP+EP (%.2fs)", times[SystemLAER], times[SystemFSDPEP])
	}
	if times[SystemLAER] >= times[SystemFlexMoE] {
		t.Errorf("LAER (%.2fs) not faster than FlexMoE (%.2fs)", times[SystemLAER], times[SystemFlexMoE])
	}
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
