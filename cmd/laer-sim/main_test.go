package main

import (
	"strings"
	"testing"
)

// base is a valid classic-mode flag set; tests mutate one knob at a time.
func base() simFlags {
	return simFlags{
		model: "mixtral-8x7b-e8k2", systems: "laer,fsdp+ep",
		nodes: 4, gpus: 8, straggler: -1,
		iters: 12, warmup: 3,
		epochs: 0, epochIters: 6,
		policies: "warm", drift: "stabilizing", predictor: "trend",
		workload: "training", arrival: "diurnal",
	}
}

// Regression tests for the fail-fast flag validation: these combinations
// used to surface only deep inside the cluster setup or RunOnline after
// setup work (with exit code 1 instead of the usage code 2), or — for
// -warmup >= -iters — were silently absorbed by the metrics fallback,
// which folds warmup iterations back into the averages without warning.
func TestValidateFlags(t *testing.T) {
	ok := func(mut func(*simFlags)) {
		t.Helper()
		f := base()
		mut(&f)
		if err := validateFlags(f); err != nil {
			t.Errorf("valid flags rejected: %v", err)
		}
	}
	bad := func(wantSub string, mut func(*simFlags)) {
		t.Helper()
		f := base()
		mut(&f)
		err := validateFlags(f)
		if err == nil {
			t.Errorf("invalid flags accepted (want error containing %q)", wantSub)
			return
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("error %q does not mention %q", err, wantSub)
		}
	}

	// Classic mode defaults; online-only names are ignored there.
	ok(func(f *simFlags) { f.policies, f.drift, f.predictor = "whatever", "whatever", "whatever" })
	// Warmup must leave a measured window.
	bad("-warmup", func(f *simFlags) { f.warmup = 12 })
	bad("-warmup", func(f *simFlags) { f.warmup = 20 })
	bad("-iters", func(f *simFlags) { f.iters = 0 })
	bad("-warmup", func(f *simFlags) { f.warmup = -1 })
	ok(func(f *simFlags) { f.warmup = 11 })
	// The simulator reads Warmup 0 as its default of 3, so a zero warmup
	// would silently exclude three iterations (or, at -iters 1, fail only
	// at run time).
	bad("default of 3", func(f *simFlags) { f.warmup = 0 })
	bad("-warmup 0", func(f *simFlags) { f.iters, f.warmup = 1, 0 })
	ok(func(f *simFlags) { f.iters, f.warmup = 2, 1 })

	// Cluster shape and model resolve before any setup work.
	bad("-nodes", func(f *simFlags) { f.nodes = 0 })
	bad("-nodes", func(f *simFlags) { f.gpus = -8 })
	bad("unknown model", func(f *simFlags) { f.model = "gpt-17" })
	bad("-straggler", func(f *simFlags) { f.straggler = 32 })
	bad("-straggler", func(f *simFlags) { f.straggler = -2 })
	ok(func(f *simFlags) { f.straggler = 31 })

	// Classic mode validates the system list.
	bad("unknown system", func(f *simFlags) { f.systems = "laer,oracle" })
	bad("no system", func(f *simFlags) { f.systems = " , " })

	// Online mode.
	online := func(f *simFlags) {
		f.epochs = 5
		f.policies = "predictive,warm,scratch,static"
		f.drift, f.predictor = "migration", "trend"
	}
	ok(online)
	ok(func(f *simFlags) { online(f); f.policies, f.drift, f.predictor = " warm , static ", "none", "last" })
	bad("-epochs", func(f *simFlags) { f.epochs = -1 })
	bad("-epoch-iters", func(f *simFlags) { online(f); f.epochIters = 1 })
	bad("drift model", func(f *simFlags) { online(f); f.drift = "sideways" })
	bad("-drift-rate", func(f *simFlags) { online(f); f.driftRate = 1.5 })
	bad("-drift-rate", func(f *simFlags) { online(f); f.driftRate = -0.1 })
	bad("-confidence", func(f *simFlags) { online(f); f.confidence = -1 })
	ok(func(f *simFlags) { online(f); f.confidence = 0.4 })
	bad("predictor", func(f *simFlags) { online(f); f.predictor = "oracle" })
	bad("replan policy", func(f *simFlags) { online(f); f.policies = "warm,oracle" })
	bad("no policy", func(f *simFlags) { online(f); f.policies = " , " })

	// Workload and arrival resolve through the registry; the inference
	// workload is online-only and incompatible with fault injection.
	inference := func(f *simFlags) { online(f); f.workload = "inference" }
	ok(inference)
	ok(func(f *simFlags) { inference(f); f.arrival = "bursty" })
	bad("-workload", func(f *simFlags) { f.workload = "inference" }) // classic mode
	bad("-workload", func(f *simFlags) { online(f); f.workload = "batch" })
	bad("-arrival", func(f *simFlags) { inference(f); f.arrival = "tsunami" })
	bad("-workload=inference", func(f *simFlags) { inference(f); f.elastic = true })
	bad("-workload=inference", func(f *simFlags) { inference(f); f.faultSchedule = "2:fail:1" })

	// -force-tokens must not silently read as unset.
	bad("-force-tokens", func(f *simFlags) { online(f); f.forceTokens = -2048 })
	bad("-force-tokens", func(f *simFlags) { f.forceTokens = -1 })
	ok(func(f *simFlags) { online(f); f.forceTokens = 2048 })

	// Elastic mode: online only, explicit schedules checked against the
	// cluster shape and the run horizon.
	elastic := func(f *simFlags) { online(f); f.elastic = true }
	ok(elastic)
	ok(func(f *simFlags) { elastic(f); f.faultSchedule = "2:fail:1,4:join:1" })
	ok(func(f *simFlags) { elastic(f); f.faultSchedule = "2.3:degrade:9:degraded" })
	bad("-elastic", func(f *simFlags) { f.elastic = true })
	bad("online mode", func(f *simFlags) { f.faultSchedule = "2:fail:1" })
	bad("-fault-schedule", func(f *simFlags) { online(f); f.faultSchedule = "2:fail:1" })
	bad("-fault-schedule", func(f *simFlags) { elastic(f); f.faultSchedule = "not-a-schedule" })
	bad("-fault-schedule", func(f *simFlags) { elastic(f); f.faultSchedule = "9:fail:1" })   // beyond -epochs
	bad("-fault-schedule", func(f *simFlags) { elastic(f); f.faultSchedule = "2.6:fail:1" }) // beyond -epoch-iters
	bad("-fault-schedule", func(f *simFlags) { elastic(f); f.faultSchedule = "2:fail:99" })  // no such node
	bad("-fault-schedule", func(f *simFlags) { elastic(f); f.faultSchedule = "2:join:1" })   // joining an alive node
}
