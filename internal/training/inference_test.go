package training

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"laermoe/internal/faults"
	"laermoe/internal/forecast"
	"laermoe/internal/model"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// inferenceCfg is a fast inference-workload configuration: per-request
// sampling costs O(requests x layers), so the fixture caps the mean
// arrivals per device and trims the layer count.
func inferenceCfg(policy ReplanPolicy, arrival trace.ArrivalShape) OnlineConfig {
	arch := *model.Mixtral8x7B
	arch.Layers = 8
	return OnlineConfig{
		Policy:   policy,
		Workload: WorkloadInference,
		Arrival:  arrival,
		Arch:     &arch,
		Topo:     topology.Default(),
		Epochs:   3, IterationsPerEpoch: 4,
		GlobalBatchTokens:    1 << 19,
		ForceTokensPerDevice: 256,
		Seed:                 1,
	}
}

// TestOnlineInferenceAllPolicies: every registered policy must run the
// inference workload unchanged and report request latencies.
func TestOnlineInferenceAllPolicies(t *testing.T) {
	for _, policy := range ReplanPolicies() {
		for _, arrival := range trace.ArrivalShapes() {
			rep, err := RunOnline(inferenceCfg(policy, arrival))
			if err != nil {
				t.Fatalf("%s/%s: %v", policy, arrival, err)
			}
			if rep.Workload != WorkloadInference || rep.Arrival != arrival {
				t.Fatalf("%s/%s: report labeled %s/%s", policy, arrival, rep.Workload, rep.Arrival)
			}
			if rep.DecodeP50 <= 0 || rep.DecodeP99 < rep.DecodeP50 {
				t.Errorf("%s/%s: implausible run latencies p50=%g p99=%g",
					policy, arrival, rep.DecodeP50, rep.DecodeP99)
			}
			for _, ep := range rep.Epochs {
				if ep.Requests <= 0 {
					t.Errorf("%s/%s: epoch %d served no requests", policy, arrival, ep.Epoch)
				}
				if ep.DecodeP50 <= 0 || ep.DecodeP99 < ep.DecodeP50 {
					t.Errorf("%s/%s: epoch %d implausible latencies p50=%g p99=%g",
						policy, arrival, ep.Epoch, ep.DecodeP50, ep.DecodeP99)
				}
			}
		}
	}
}

// TestOnlineInferenceDeterminism: the inference workload must be
// byte-identical at any Parallelism, like the training workload.
func TestOnlineInferenceDeterminism(t *testing.T) {
	for _, arrival := range trace.ArrivalShapes() {
		cfg := inferenceCfg(ReplanWarm, arrival)
		cfg.Parallelism = 1
		serial, err := RunOnline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Parallelism = 8
		parallel, err := RunOnline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripWallClock(serial), stripWallClock(parallel)) {
			t.Errorf("%s: inference run differs between Parallelism 1 and 8", arrival)
		}
	}
}

// TestOnlineInferenceRejectsFaults: fault schedules are a training-run
// feature; the inference workload must refuse them up front.
func TestOnlineInferenceRejectsFaults(t *testing.T) {
	cfg := inferenceCfg(ReplanWarm, trace.ArrivalDiurnal)
	cfg.Faults = faults.Schedule{{Epoch: 1, Iter: 0, Kind: faults.NodeFail, Node: 1}}
	if _, err := RunOnline(cfg); err == nil {
		t.Fatal("fault schedule accepted for the inference workload")
	}
}

// TestResolveUnknownNames: every name list must fail fast on an unknown
// name, naming it and the valid set.
func TestResolveUnknownNames(t *testing.T) {
	_, policyErr := ResolvePolicy("bogus")
	for _, c := range []struct {
		what, valid string
		err         error
	}{
		{"policy", fmt.Sprint(ReplanPolicies()), policyErr},
		{"workload", fmt.Sprint(Workloads()), ResolveWorkload("bogus")},
		{"predictor", fmt.Sprint(forecast.Kinds()), ResolvePredictor("bogus")},
		{"drift model", fmt.Sprint(trace.DriftModels()), ResolveDrift("bogus")},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), `"bogus"`) || !strings.Contains(c.err.Error(), c.valid) {
			t.Errorf("unknown %s: got error %v, want one naming \"bogus\" and %s", c.what, c.err, c.valid)
		}
	}
	if _, err := RunOnline(inferenceCfg("bogus", trace.ArrivalDiurnal)); err == nil {
		t.Error("unknown policy accepted by RunOnline")
	}
	cfg := inferenceCfg(ReplanWarm, "bogus")
	if _, err := RunOnline(cfg); err == nil {
		t.Error("unknown arrival shape accepted by RunOnline")
	}
	cfg = onlineCfg(ReplanWarm, trace.DriftStabilizing)
	cfg.Workload = "bogus"
	if _, err := RunOnline(cfg); err == nil {
		t.Error("unknown workload accepted by RunOnline")
	}
}
