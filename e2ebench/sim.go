package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"

	"laermoe"
	"laermoe/internal/executor"
	"laermoe/internal/model"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/internal/training"
)

// The sim-online call: synthetic-e512 on 16x8 devices, predictive policy,
// the default stabilizing drift, 512 tokens per device in one micro-batch
// per iteration (as the scale experiment runs it), 5 epochs of 2
// iterations. At this size cold solves, warm replans and boundary replans
// on trusted forecasts all run.
const (
	simModel  = "synthetic-e512"
	simNodes  = 16
	simGPUs   = 8
	simEpochs = 5
	simIters  = 2
	simTokens = 512
	simBatch  = simNodes * simGPUs * simTokens

	simSetupRepeats = 5
	// simQualityCalls is how many timed calls imbalance and sim_step_ms
	// average over: a fixed set, so both are deterministic per seed.
	simQualityCalls = 16
	simTracedCalls  = 3
)

func simOptions(seed int64) (laermoe.OnlineOptions, error) {
	cluster, err := laermoe.NewCluster(laermoe.ClusterSpec{Nodes: simNodes, GPUsPerNode: simGPUs})
	if err != nil {
		return laermoe.OnlineOptions{}, err
	}
	return laermoe.OnlineOptions{
		Spec: laermoe.OnlineSessionSpec{
			Model: simModel, Policy: laermoe.PolicyPredictive,
			IterationsPerEpoch: simIters, ForceTokensPerDevice: simTokens,
			GlobalBatchTokens: simBatch, Seed: seed,
		},
		Cluster: cluster,
		Epochs:  simEpochs,
	}, nil
}

func simulate(seed int64) (*laermoe.OnlineReport, error) {
	opts, err := simOptions(seed)
	if err != nil {
		return nil, err
	}
	return laermoe.SimulateOnline(opts)
}

// wallClockFree drops the measured planner wall time, the one report
// field that is not a function of the seed.
func wallClockFree(r *laermoe.OnlineReport) *laermoe.OnlineReport {
	c := *r
	c.Epochs = append([]laermoe.OnlineEpochReport(nil), r.Epochs...)
	for i := range c.Epochs {
		c.Epochs[i].PlannerTime = 0
	}
	return &c
}

func runSim(o options) (*result, error) {
	res := newResult()
	repeats := simSetupRepeats
	if o.trace {
		repeats = 1
	}
	// Set-up: everything before the first timed call, one warm-up call
	// included, repeated on its own seeds. Each starts from a heap returned
	// to the OS, as the first call of a fresh process does; otherwise how
	// much memory the background scavenger happened to release sets its
	// page-fault cost.
	var setups []float64
	for k := 0; k < repeats; k++ {
		debug.FreeOSMemory()
		start := time.Now()
		if _, err := simulate(deriveSeed(o.seed, -1-k)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Printf("setup: median %.4fs over %d repeats %v\n", median(setups), len(setups), setups)
	if o.trace {
		return simTraced(o, res)
	}

	// The first call's seed re-driven stage by stage: its TotalStepTime is
	// checked against the call's, and its final planner state is the
	// checkpoint recovery_s restores.
	rd, err := redrive(deriveSeed(o.seed, 0), nil, -1, -1)
	if err != nil {
		return nil, err
	}
	redrivenTotal := rd.total
	ck, err := newCheckpoint(rd)
	if err != nil {
		return nil, err
	}

	// Calls one at a time, each on its own seed, until their wall time adds
	// up to --seconds; throughput and CPU are taken over the calls alone.
	// After each call, outside its timing, comes one recovery: the planner
	// rebuilt from the checkpoint (decode, build, restore), as a restarted
	// daemon rebuilds a session from its compacted journal. A restore takes
	// about 0.1 s, so a block of them samples one second of a shared host's
	// speed, which drifts over seconds; interleaved, they sample the whole
	// phase as the calls do. Each restore starts from a collected heap with
	// the collector off until it ends, so neither the call's garbage nor a
	// collection landing in it sets its time.
	var lat, restores []float64
	var reports []*laermoe.OnlineReport
	var busy, cpu time.Duration
	failed := 0
	correct := true
	steal := readSteal()
	start := time.Now()
	for k := 0; busy < time.Duration(o.seconds*float64(time.Second)); k++ {
		cpu0, t0 := selfCPU(), time.Now()
		rep, err := simulate(deriveSeed(o.seed, k))
		d := time.Since(t0)
		busy += d
		cpu += selfCPU() - cpu0
		if err != nil {
			fmt.Println("call failed:", err)
			failed++
			lat = append(lat, missMs)
		} else {
			lat = append(lat, ms(d))
		}
		reports = append(reports, rep)

		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		t0 = time.Now()
		p, err := ck.restore()
		restores = append(restores, time.Since(t0).Seconds())
		debug.SetGCPercent(gcPercent)
		if err != nil {
			return nil, err
		}
		if p.StateDigest() != ck.digest {
			fmt.Println("CHECK FAILED: restored planner state digest differs")
			correct = false
		}
	}
	sum := summarize(lat)
	fmt.Printf("calls: %d in %.2fs (%.2fs with the restores between them): %s, host steal %.1f%%\n",
		len(lat), busy.Seconds(), time.Since(start).Seconds(), sum, 100*steal.since())
	fmt.Printf("recovery: median %.4fs over %d checkpoint restores\n", median(restores), len(restores))
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}

	imb, step, n := 0.0, 0.0, 0
	for _, rep := range reports[:min(simQualityCalls, len(reports))] {
		if rep == nil {
			continue
		}
		for _, e := range rep.Epochs {
			imb += e.Imbalance / float64(len(rep.Epochs))
		}
		step += 1e3 * rep.TotalStepTime / float64(simEpochs*simIters)
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("no successful SimulateOnline call")
	}

	// Output checks, outside the timed calls: the first report must equal
	// a Parallelism 1 run of its seed, and the stage-by-stage re-drive must
	// reproduce its TotalStepTime bit for bit.
	opts, err := simOptions(deriveSeed(o.seed, 0))
	if err != nil {
		return nil, err
	}
	opts.Parallelism = 1
	serial, err := laermoe.SimulateOnline(opts)
	if err != nil {
		return nil, err
	}
	if reports[0] == nil || !reflect.DeepEqual(wallClockFree(reports[0]), wallClockFree(serial)) {
		fmt.Println("CHECK FAILED: first report differs from the Parallelism 1 run of its seed")
		correct = false
	}
	if reports[0] == nil || redrivenTotal != reports[0].TotalStepTime {
		fmt.Println("CHECK FAILED: re-drive TotalStepTime differs from SimulateOnline")
		correct = false
	}

	res.Correct = correct && failed == 0
	res.Attempted, res.Failed = len(lat), failed
	res.put("latency_p50_ms", sum.p50)
	res.put("latency_tail_ms", sum.tail)
	res.put("throughput_per_s", float64(len(lat)-failed)/busy.Seconds())
	res.put("cpu_ms_per_op", ms(cpu)/float64(len(lat)))
	res.put("setup_s", median(setups))
	res.put("rss_mb", rss)
	res.put("recovery_s", median(restores))
	res.put("imbalance", imb/float64(n))
	res.put("sim_step_ms", step/float64(n))
	return res, nil
}

// checkpoint is a planner state as a restarted daemon finds it in a
// compacted journal: the exported state, JSON-encoded, and its digest.
type checkpoint struct {
	cfg    training.OnlineConfig
	state  []byte
	digest uint64
}

func newCheckpoint(rd *redriven) (*checkpoint, error) {
	st, err := rd.core.ExportState()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	return &checkpoint{cfg: rd.cfg, state: b, digest: rd.core.StateDigest()}, nil
}

// restore rebuilds the planner from the checkpoint as the daemon's replay
// does: decode the state, build a planner, restore the state into it.
func (c *checkpoint) restore() (*training.OnlinePlanner, error) {
	var st training.PlannerState
	if err := json.Unmarshal(c.state, &st); err != nil {
		return nil, err
	}
	p, err := training.NewOnlinePlanner(c.cfg)
	if err != nil {
		return nil, err
	}
	return p, p.RestoreState(&st)
}

// redriven is the outcome of one stage-by-stage re-drive.
type redriven struct {
	cfg   training.OnlineConfig
	core  *training.OnlinePlanner
	total float64

	incremental, solves, replans, decisions, predicted int
}

// redrive replays SimulateOnline's loop (training.RunOnline, fault-free
// training workload) through the exported calls of each layer, with a
// span around each: planner set-up, trace synthesis, planning, dispatch
// and the executor.
func redrive(seed int64, tr *tracer, op, root int) (*redriven, error) {
	arch, err := model.ByName(simModel)
	if err != nil {
		return nil, err
	}
	cfg := training.OnlineConfig{
		Policy: training.ReplanPredictive, Arch: arch, Topo: topology.New(simNodes, simGPUs),
		Epochs: simEpochs, IterationsPerEpoch: simIters,
		Drift:                trace.DriftConfig{Model: trace.DriftStabilizing},
		ForceTokensPerDevice: simTokens, GlobalBatchTokens: simBatch, Seed: seed,
	}
	spec, err := training.ResolvePolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("training.setup", op, root)
	core, err := training.NewOnlinePlanner(cfg)
	var gen *trace.Generator
	if err == nil {
		gen, err = training.ObservationGenerator(trace.GeneratorConfig{
			Devices: core.Devices(), Experts: arch.Experts, Layers: arch.Layers,
			TokensPerDevice: core.Setup().TokensPerDev, TopK: arch.TopK, Seed: seed,
		})
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rd := &redriven{cfg: cfg, core: core}
	count := func(ds []training.LayerDecision) {
		for _, d := range ds {
			rd.decisions++
			if d.Action != training.ActionKeep {
				rd.replans++
			}
		}
	}
	plans := make([]executor.LayerPlan, arch.Layers)
	denv := training.DispatchEnv{Topo: core.Topo(), Capacity: arch.ExpertCapacity}
	var routing []*trace.RoutingMatrix
	for e := 0; e < simEpochs; e++ {
		if e > 0 {
			sp = tr.begin("trace.synth", op, root)
			err = gen.ApplyDrift(cfg.Drift)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		sp = tr.begin("training.plan", op, root)
		bdec, err := core.PlanBoundary()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		count(bdec)
		epochTime := 0.0
		for it := 0; it < simIters; it++ {
			sp = tr.begin("trace.synth", op, root)
			routing = gen.StepInto(routing)
			tr.end(sp)
			layouts := core.Layouts()
			denv.Restored = core.StaticRestored()
			sp = tr.begin("planner.dispatch", op, root)
			for l := range plans {
				denv.Routing, denv.Layout = routing[l], layouts[l]
				d, derr := spec.Dispatch(&denv)
				if derr != nil {
					tr.end(sp)
					return nil, derr
				}
				plans[l] = executor.LayerPlan{Layout: layouts[l], Dispatch: d,
					ExtraRelayoutTime: core.MigrationCharge(it, l) + core.TakeFaultCharge(l)}
			}
			tr.end(sp)
			sp = tr.begin("executor.iteration", op, root)
			iter, err := executor.RunIteration(core.Setup().ExecConfig, plans)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			epochTime += iter.Time
			if it == 0 && spec.Replans {
				sp = tr.begin("training.plan", op, root)
				odec, err := core.Observe(routing)
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				count(odec)
			}
		}
		sp = tr.begin("training.plan", op, root)
		s := core.Summarize()
		tr.end(sp)
		rd.incremental += s.IncrementalSolves
		rd.solves += s.IncrementalSolves + s.FullSolves
		rd.predicted += s.PredictedLayers
		rd.total += epochTime
	}
	return rd, nil
}

// simTraced times simTracedCalls real calls (the root spans) and re-drives
// each one's seed stage by stage (the children); a root's self time is
// what SimulateOnline spends outside the stages.
func simTraced(o options, res *result) (*result, error) {
	tr := newTracer()
	correct := true
	inc, solves, replans, decisions, predicted := 0, 0, 0, 0, 0
	for k := 0; k < simTracedCalls; k++ {
		seed := deriveSeed(o.seed, k)
		root := tr.begin("laermoe.SimulateOnline", k, -1)
		rep, err := simulate(seed)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		rd, err := redrive(seed, tr, k, root)
		if err != nil {
			return nil, err
		}
		if rd.total != rep.TotalStepTime {
			fmt.Printf("CHECK FAILED: call %d re-drive TotalStepTime %v, SimulateOnline %v\n", k, rd.total, rep.TotalStepTime)
			correct = false
		}
		inc += rd.incremental
		solves += rd.solves
		replans += rd.replans
		decisions += rd.decisions
		predicted += rd.predicted
	}
	ops := float64(simTracedCalls)
	per := func(name string) float64 {
		d, _ := tr.sum(name, nil)
		return ms(d) / ops
	}
	resid := ms(tr.selfTime("laermoe.SimulateOnline", nil)) / ops
	var rows []layerRow
	for _, name := range []string{"laermoe.SimulateOnline", "training.setup", "trace.synth", "training.plan", "planner.dispatch", "executor.iteration"} {
		rows = append(rows, layerRow{name: name + "_ms", ms: []float64{per(name)}})
	}
	rows = append(rows, layerRow{name: "laermoe.residual_ms", ms: []float64{resid}})
	printTable([]string{"all"}, []int{simTracedCalls}, rows)
	spans := float64(len(tr.spans)) / ops
	cost := spanCost()
	overhead := ms(cost) * spans
	fmt.Printf("tracing overhead: %.1f spans/op x %s = %.4fms/op (%.3f%% of a call)\n",
		spans, cost, overhead, 100*overhead/per("laermoe.SimulateOnline"))
	path, err := tr.write(filepath.Join(o.workDir, "spans"), fmt.Sprintf("sim-online-seed%d.jsonl", o.seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)

	res.Correct = correct
	res.Attempted = simTracedCalls
	for _, name := range perLayer {
		res.put(name, 0) // serve layers: not on this workload's path
	}
	res.put("training.plan_ms", per("training.plan"))
	res.put("planner.incremental_share", float64(inc)/float64(max(solves, 1)))
	res.put("planner.replan_share", float64(replans)/float64(max(decisions, 1)))
	res.put("training.setup_ms", per("training.setup"))
	res.put("trace.synth_ms", per("trace.synth"))
	res.put("planner.dispatch_ms", per("planner.dispatch"))
	res.put("executor.iteration_ms", per("executor.iteration"))
	res.put("training.predicted_layers", float64(predicted)/ops)
	res.put("laermoe.residual_ms", resid)
	return res, nil
}
