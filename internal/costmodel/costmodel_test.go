package costmodel

import (
	"math"
	"testing"

	"laermoe/internal/model"
	"laermoe/internal/topology"
)

func defaultModel() *Model {
	return New(model.Mixtral8x7B, topology.Default(), 8192)
}

func TestVolumes(t *testing.T) {
	cm := defaultModel()
	if got := cm.TokenCommBytes(); got != 8192 {
		t.Errorf("V_comm = %g bytes, want 8192 (H=4096 bf16)", got)
	}
	if got := cm.TokenExpertFLOPs(); got != 6*4096*14336 {
		t.Errorf("V_comp = %g, want 6*H*H'", got)
	}
}

func TestComputeTimesScaleLinearly(t *testing.T) {
	cm := defaultModel()
	one := cm.ExpertComputeTime(0, 1000)
	two := cm.ExpertComputeTime(0, 2000)
	if math.Abs(two-2*one)/two > 1e-9 {
		t.Errorf("expert compute not linear: %g vs 2*%g", two, one)
	}
	if cm.ExpertComputeTime(0, 0) != 0 {
		t.Error("zero assignments should cost zero")
	}
}

func TestStragglerSlowdownAppliesToCompute(t *testing.T) {
	topo := topology.Default()
	if err := topo.SetSlowdown(5, 2.0); err != nil {
		t.Fatal(err)
	}
	cm := New(model.Mixtral8x7B, topo, 8192)
	fast := cm.ExpertComputeTime(0, 1000)
	slow := cm.ExpertComputeTime(5, 1000)
	if math.Abs(slow-2*fast)/slow > 1e-9 {
		t.Errorf("straggler compute %g, want 2x %g", slow, fast)
	}
}

func TestAttentionTPDividesFLOPs(t *testing.T) {
	cm := defaultModel()
	full := cm.AttentionComputeTime(0, 4096, 1)
	tp4 := cm.AttentionComputeTime(0, 4096, 4)
	if math.Abs(full-4*tp4)/full > 1e-9 {
		t.Errorf("TP=4 attention %g, want quarter of %g", tp4, full)
	}
}

// TestOverlapThreshold reproduces the Eq. 1 analysis: on the paper's
// cluster the threshold is in the same regime the paper reports (S ~ 17K
// theoretically, 16K empirically sufficient) — i.e. between 8K and 24K for
// e8k2 — and a 16K micro-batch satisfies the empirical condition while 4K
// does not.
func TestOverlapThreshold(t *testing.T) {
	cm := defaultModel()
	th := cm.OverlapThresholdTokens()
	if th < 8192 || th > 24576 {
		t.Errorf("overlap threshold = %.0f tokens, want within [8192, 24576]", th)
	}
	if !cm.OverlapSatisfied(16384) {
		t.Errorf("S=16K should satisfy the overlap condition (threshold %.0f)", th)
	}
	if cm.OverlapSatisfied(4096) {
		t.Errorf("S=4K should not satisfy the overlap condition (threshold %.0f)", th)
	}
}

// TestOverlapThresholdScalesWithCapacityAndTopK checks Eq. 1's structure:
// the threshold is proportional to C and inversely proportional to K, so
// e16k4 (C=4, K=4) matches e8k2 (C=2, K=2).
func TestOverlapThresholdScalesWithCapacityAndTopK(t *testing.T) {
	topo := topology.Default()
	e8 := New(model.Mixtral8x7B, topo, 8192).OverlapThresholdTokens()
	e16 := New(model.Mixtral8x7BE16, topo, 8192).OverlapThresholdTokens()
	if math.Abs(e8-e16)/e8 > 1e-9 {
		t.Errorf("e8k2 threshold %.0f != e16k4 threshold %.0f (C/K ratio equal)", e8, e16)
	}
}

// TestFSEPvsFSDPCommRatio reproduces the paper's Sec. 3.1 example: with
// P_fsep=32, P_ep=4, P_fsdp=8 the communication-volume ratio
// V_fsep/V_fsdp = (P_fsep-1)*P_fsdp / (P_fsep*(P_fsdp-1)) ≈ 1.107.
func TestFSEPvsFSDPCommRatio(t *testing.T) {
	cm := defaultModel()
	vFSEP := cm.PrefetchBytesPerDevice()
	vFSDP := cm.FSDPAllGatherBytes(8)
	ratio := vFSEP / vFSDP
	want := (32.0 - 1) * 8 / (32 * (8 - 1))
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("V_fsep/V_fsdp = %.4f, want %.4f", ratio, want)
	}
	if want > 1.2 {
		t.Errorf("paper example ratio should be ~1.1, computed %g", want)
	}
}

func TestPrefetchBytesFormula(t *testing.T) {
	cm := defaultModel()
	n := 32.0
	want := 2 * (n - 1) / n * float64(model.Mixtral8x7B.ExpertBytes())
	if got := cm.PrefetchBytesPerDevice(); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("V_fsep = %g, want C*(N-1)/N*Ψ = %g", got, want)
	}
	if cm.FSDPAllGatherBytes(1) != 0 {
		t.Error("FSDP group of 1 moves no bytes")
	}
}

// TestUnshardVolumesMatchFormula builds one FSEP unshard chunk by chunk:
// every expert is split into N equal chunks with chunk k held by device k,
// and every device restores C experts, receiving chunk k of each from
// device k. Each device's send volume must equal V_fsep =
// C*(N-1)/N*Ψ_expert (Sec. 3.1), and so must its receive volume — the
// gradient reshard is the same traffic transposed.
func TestUnshardVolumesMatchFormula(t *testing.T) {
	cm := defaultModel()
	n, c := cm.Topo.N(), cm.Arch.ExpertCapacity
	chunk := float64(cm.Arch.ExpertBytes()) / float64(n)
	bytes := make([][]float64, n) // bytes[src][dst]
	for k := range bytes {
		bytes[k] = make([]float64, n)
	}
	for d := 0; d < n; d++ {
		for r := 0; r < c; r++ {
			for k := 0; k < n; k++ {
				if k != d {
					bytes[k][d] += chunk
				}
			}
		}
	}
	want := cm.PrefetchBytesPerDevice()
	for d := 0; d < n; d++ {
		var send, recv float64
		for k := 0; k < n; k++ {
			send += bytes[d][k]
			recv += bytes[k][d]
		}
		if math.Abs(send-want)/want > 1e-9 {
			t.Errorf("device %d unshard send %g, want C*(N-1)/N*Ψ = %g", d, send, want)
		}
		if math.Abs(recv-want)/want > 1e-9 {
			t.Errorf("device %d unshard receive %g, want %g", d, recv, want)
		}
	}
}

func TestExpertMigrationBytes(t *testing.T) {
	cm := defaultModel()
	if got, want := cm.ExpertMigrationBytes(), 6*float64(model.Mixtral8x7B.ExpertBytes()); got != want {
		t.Errorf("migration bytes = %g, want 6x expert size %g", got, want)
	}
}

func TestGateComputeHasKernelFloor(t *testing.T) {
	cm := defaultModel()
	if cm.GateComputeTime(0, 1) <= 0 {
		t.Error("gate time should include a kernel floor")
	}
	if cm.GateComputeTime(0, 0) != 0 {
		t.Error("zero tokens should cost zero")
	}
}
