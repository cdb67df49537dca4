package training

import (
	"testing"

	"laermoe/internal/model"
	"laermoe/internal/topology"
)

func TestSmokeE16K4(t *testing.T) {
	topo := topology.Default()
	for _, sys := range []System{SystemLAER, SystemFSDPEP, SystemMegatron, SystemFlexMoE} {
		run, _, err := Run(RunConfig{
			System: sys, Arch: model.Mixtral8x7BE16, Topo: topo,
			Iterations: 6, Warmup: 2, Seed: 7,
		})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		t.Logf("%-10s iter=%.2fs breakdown: %v imb=%.2f", sys, run.MeanIterationTime(),
			run.MeanBreakdown(), meanOf(run.MeanPerLayerImbalance()))
	}
}
