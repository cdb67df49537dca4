package training

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"laermoe/internal/comm"
	"laermoe/internal/forecast"
	"laermoe/internal/model"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/session"
)

// onlineCfg is a fast online configuration: one micro-batch per iteration.
func onlineCfg(policy ReplanPolicy, drift trace.DriftModel) OnlineConfig {
	return OnlineConfig{
		Policy: policy,
		Arch:   model.Mixtral8x7B,
		Topo:   topology.Default(),
		Epochs: 4, IterationsPerEpoch: 4,
		Drift:             trace.DriftConfig{Model: drift},
		GlobalBatchTokens: 1 << 19,
		Seed:              1,
	}
}

// TestOnlineWarmBeatsStatic is the engine's acceptance property: over a
// multi-epoch drifting trace, warm-start replanning must finish the same
// work in strictly less cumulative step time than the never-replanned
// static baseline — under every drift model.
func TestOnlineWarmBeatsStatic(t *testing.T) {
	for _, drift := range []trace.DriftModel{trace.DriftStabilizing, trace.DriftBursty, trace.DriftMigration} {
		static, err := RunOnline(onlineCfg(ReplanStatic, drift))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := RunOnline(onlineCfg(ReplanWarm, drift))
		if err != nil {
			t.Fatal(err)
		}
		if warm.TotalStepTime >= static.TotalStepTime {
			t.Errorf("drift %s: warm cumulative %.1fs not below static %.1fs",
				drift, warm.TotalStepTime, static.TotalStepTime)
		}
		if warm.TotalMigrations == 0 {
			t.Errorf("drift %s: warm policy never migrated a replica", drift)
		}
	}
}

// TestOnlineWarmMigratesLessThanScratch: the warm start's point is cheaper
// adaptation — fewer replica moves for comparable layouts.
func TestOnlineWarmMigratesLessThanScratch(t *testing.T) {
	scratch, err := RunOnline(onlineCfg(ReplanScratch, trace.DriftMigration))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunOnline(onlineCfg(ReplanWarm, trace.DriftMigration))
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalMigrations >= scratch.TotalMigrations {
		t.Fatalf("warm moved %d replicas, scratch %d — warm must migrate less",
			warm.TotalMigrations, scratch.TotalMigrations)
	}
	if warm.TotalStepTime > 1.15*scratch.TotalStepTime {
		t.Fatalf("warm step time %.1fs more than 15%% above scratch %.1fs",
			warm.TotalStepTime, scratch.TotalStepTime)
	}
}

// TestOnlineMigrationChargeFavorsWarm: when relocation moves optimizer
// state over the wire, scratch replanning pays for its churn while the
// warm policy's keep-versus-migrate score suppresses unprofitable moves.
func TestOnlineMigrationChargeFavorsWarm(t *testing.T) {
	charge := RelocationCostPerReplica(model.Mixtral8x7B, topology.Default())
	if charge <= 0 {
		t.Fatal("relocation cost must be positive")
	}
	cfgW := onlineCfg(ReplanWarm, trace.DriftMigration)
	cfgW.MigrationCostPerReplica = charge
	cfgS := onlineCfg(ReplanScratch, trace.DriftMigration)
	cfgS.MigrationCostPerReplica = charge
	warm, err := RunOnline(cfgW)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := RunOnline(cfgS)
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalStepTime >= scratch.TotalStepTime {
		t.Fatalf("with migration charged, warm %.1fs must beat scratch %.1fs",
			warm.TotalStepTime, scratch.TotalStepTime)
	}
	var warmMig, scratchMig float64
	for _, e := range warm.Epochs {
		warmMig += e.MigrationTime
	}
	for _, e := range scratch.Epochs {
		scratchMig += e.MigrationTime
	}
	if warmMig >= scratchMig {
		t.Fatalf("warm charged %.1fs of migration, scratch %.1fs", warmMig, scratchMig)
	}
}

// stripWallClock zeroes the only non-simulated (wall-clock) field so
// reports can be compared exactly.
func stripWallClock(r *OnlineReport) *OnlineReport {
	c := *r
	c.Epochs = append([]OnlineEpoch(nil), r.Epochs...)
	for i := range c.Epochs {
		c.Epochs[i].PlannerTime = 0
	}
	return &c
}

// TestOnlineDeterminism pins the online report across repeated runs and
// across Parallelism settings.
func TestOnlineDeterminism(t *testing.T) {
	for _, policy := range ReplanPolicies() {
		base := onlineCfg(policy, trace.DriftMigration)
		first, err := RunOnline(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 3, 16} {
			cfg := base
			cfg.Parallelism = par
			got, err := RunOnline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripWallClock(first), stripWallClock(got)) {
				t.Fatalf("policy %s: report differs at parallelism %d", policy, par)
			}
		}
	}
}

// TestOnlineDeterminismAtScale pins the online report at a scale-study
// shape — a synthetic large-E pool where most experts hold exactly one
// replica, the regime the scale experiment runs in — across repeated runs
// and Parallelism settings. This covers both the per-layer trace streams
// (generation fans across workers) and the warm solver's scratch reuse at
// a shape where the fast paths (single-replica routing, scheme dedup)
// actually engage.
func TestOnlineDeterminismAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-shape online run")
	}
	arch := *model.SyntheticE512
	arch.Layers = 4
	base := OnlineConfig{
		Policy: ReplanWarm,
		Arch:   &arch,
		Topo:   topology.New(16, 8),
		Epochs: 3, IterationsPerEpoch: 3,
		Drift:                trace.DriftConfig{Model: trace.DriftMigration, Rate: 0.3},
		ForceTokensPerDevice: 1024,
		GlobalBatchTokens:    16 * 8 * 1024,
		Seed:                 1,
	}
	first, err := RunOnline(base)
	if err != nil {
		t.Fatal(err)
	}
	if first.TotalMigrations == 0 {
		t.Fatal("scale-shape warm run never migrated — fixture lost its point")
	}
	for _, par := range []int{1, 8} {
		cfg := base
		cfg.Parallelism = par
		got, err := RunOnline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripWallClock(first), stripWallClock(got)) {
			t.Fatalf("scale-shape report differs at parallelism %d", par)
		}
	}
}

func TestOnlineReportShape(t *testing.T) {
	rep, err := RunOnline(onlineCfg(ReplanWarm, trace.DriftStabilizing))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 4 {
		t.Fatalf("got %d epoch reports, want 4", len(rep.Epochs))
	}
	if rep.Epochs[0].Migrations == 0 {
		t.Fatal("first epoch must replan away from static EP")
	}
	var total float64
	for i, e := range rep.Epochs {
		if e.Epoch != i {
			t.Fatalf("epoch %d reported index %d", i, e.Epoch)
		}
		if e.StepTime <= 0 || e.IterationTime <= 0 || e.Throughput <= 0 {
			t.Fatalf("epoch %d has non-positive timings: %+v", i, e)
		}
		if e.Imbalance < 1 {
			t.Fatalf("epoch %d imbalance %.3f below 1", i, e.Imbalance)
		}
		total += e.StepTime
	}
	if total != rep.TotalStepTime {
		t.Fatalf("TotalStepTime %.3f != epoch sum %.3f", rep.TotalStepTime, total)
	}
	if rep.MeanThroughput <= 0 {
		t.Fatal("non-positive mean throughput")
	}

	static, err := RunOnline(onlineCfg(ReplanStatic, trace.DriftStabilizing))
	if err != nil {
		t.Fatal(err)
	}
	if static.TotalMigrations != 0 {
		t.Fatalf("static policy migrated %d replicas", static.TotalMigrations)
	}
	for _, e := range static.Epochs {
		if e.PlannerTime != 0 || e.MigrationTime != 0 {
			t.Fatal("static policy must not plan or migrate")
		}
	}
}

func TestOnlineConfigValidation(t *testing.T) {
	bad := func(mut func(*OnlineConfig)) error {
		cfg := onlineCfg(ReplanWarm, trace.DriftStabilizing)
		mut(&cfg)
		_, err := RunOnline(cfg)
		return err
	}
	if err := bad(func(c *OnlineConfig) { c.Policy = "oracle" }); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := bad(func(c *OnlineConfig) { c.Drift.Model = "sideways" }); err == nil {
		t.Fatal("unknown drift model accepted")
	}
	if err := bad(func(c *OnlineConfig) { c.Epochs = -1 }); err == nil {
		t.Fatal("negative epochs accepted")
	}
	if err := bad(func(c *OnlineConfig) { c.IterationsPerEpoch = 1 }); err == nil {
		t.Fatal("single-iteration epochs accepted (no room to observe)")
	}
	if err := bad(func(c *OnlineConfig) { c.MigrationCostPerReplica = -1 }); err == nil {
		t.Fatal("negative migration cost accepted")
	}
	if err := bad(func(c *OnlineConfig) {
		c.Policy = ReplanPredictive
		c.ConfidenceThreshold = -1
	}); err == nil {
		t.Fatal("negative confidence threshold accepted")
	}
	if err := bad(func(c *OnlineConfig) {
		c.Policy = ReplanPredictive
		c.Predictor = "oracle"
	}); err == nil {
		t.Fatal("unknown predictor accepted")
	}
}

// TestSpecConfig pins the one session.Spec translation: a zero spec takes
// every engine default (the model included), an inference spec its
// default arrival, and a bad model name or fault schedule fails.
func TestSpecConfig(t *testing.T) {
	topo := topology.Default()
	cfg, err := SpecConfig(session.Spec{}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Arch.Name != model.Default || cfg.Topo != topo || cfg.Policy != ReplanWarm ||
		cfg.Workload != WorkloadTraining || cfg.Arrival != "" || cfg.Predictor != forecast.KindTrend ||
		cfg.IterationsPerEpoch != 6 || len(cfg.Faults) != 0 {
		t.Fatalf("zero spec translated to %+v", cfg)
	}
	cfg, err = SpecConfig(session.Spec{Workload: "inference", Seed: 9, FaultSchedule: "1:fail:1"}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Arrival != trace.ArrivalDiurnal || cfg.Seed != 9 || len(cfg.Faults) != 1 {
		t.Fatalf("inference spec translated to %+v", cfg)
	}
	for _, bad := range []session.Spec{{Model: "nope"}, {FaultSchedule: "bogus"}} {
		if _, err := SpecConfig(bad, topo); err == nil {
			t.Errorf("spec %+v accepted", bad)
		}
	}
}

// predictiveCfg is the lag-recovery acceptance scenario: long enough for
// the predictor to earn trust (errors measured at epochs 1-2, forecasts
// acted on from epoch 3), with relocation charged at the NVLink-domain
// rate — expensive enough that churn costs real time, cheap enough that
// adapting at all stays profitable at this epoch length.
func predictiveCfg(policy ReplanPolicy, drift trace.DriftModel, rate float64) OnlineConfig {
	topo := topology.Default()
	cfg := OnlineConfig{
		Policy: policy,
		Arch:   model.Mixtral8x7B,
		Topo:   topo,
		Epochs: 10, IterationsPerEpoch: 8,
		Drift:             trace.DriftConfig{Model: drift, Rate: rate},
		GlobalBatchTokens: 1 << 19,
		Seed:              1,
	}
	cfg.MigrationCostPerReplica = RelocationCostPerReplica(model.Mixtral8x7B, topo) * topo.InterBW / topo.IntraBW
	return cfg
}

// TestOnlinePredictiveRecoversLag is the tentpole acceptance property: on
// the forecastable drift models, with relocation charged, the predictive
// policy must remove at least half of the per-epoch observation-lag
// penalty the warm policy pays. On the stabilizing drift that lag removal
// also wins the run outright; on slow migration the boundary replans move
// more replicas (the hot set rotates, so anticipating it relocates
// earlier and occasionally twice), which cancels the lag savings in total
// time — so there the end-to-end requirement is "never materially worse",
// while the lag metric itself must still collapse. (Calibrated against
// the per-layer-stream trace process across seeds; the old shared-stream
// trace happened to hand migration a strict win at this rate.)
func TestOnlinePredictiveRecoversLag(t *testing.T) {
	for _, sc := range []struct {
		drift      trace.DriftModel
		rate       float64
		strictWin  bool
		totalSlack float64 // allowed TotalStepTime ratio vs warm when not strict
	}{
		{trace.DriftStabilizing, 0, true, 0},
		{trace.DriftMigration, 0.15, false, 1.01},
	} {
		warm, err := RunOnline(predictiveCfg(ReplanWarm, sc.drift, sc.rate))
		if err != nil {
			t.Fatal(err)
		}
		pred, err := RunOnline(predictiveCfg(ReplanPredictive, sc.drift, sc.rate))
		if err != nil {
			t.Fatal(err)
		}
		warmLag, predLag := warm.ObservationLag, pred.ObservationLag
		if warmLag <= 0 {
			t.Fatalf("drift %s: warm shows no observation lag (%.3fs) — scenario lost its point", sc.drift, warmLag)
		}
		if predLag > 0.5*warmLag {
			t.Errorf("drift %s: predictive lag %.3fs recovers less than half of warm's %.3fs",
				sc.drift, predLag, warmLag)
		}
		if sc.strictWin {
			if pred.TotalStepTime >= warm.TotalStepTime {
				t.Errorf("drift %s: predictive total %.2fs not below warm %.2fs",
					sc.drift, pred.TotalStepTime, warm.TotalStepTime)
			}
		} else if pred.TotalStepTime > sc.totalSlack*warm.TotalStepTime {
			t.Errorf("drift %s: predictive total %.2fs materially worse than warm %.2fs",
				sc.drift, pred.TotalStepTime, warm.TotalStepTime)
		}
		acted := 0
		for _, e := range pred.Epochs {
			acted += e.PredictedLayers
		}
		if acted == 0 {
			t.Errorf("drift %s: predictive never acted on a forecast", sc.drift)
		}
		if pred.MeanForecastError <= 0 {
			t.Errorf("drift %s: no forecast error reported", sc.drift)
		}
		if pred.Predictor != forecast.KindTrend {
			t.Errorf("drift %s: default predictor %q, want trend", sc.drift, pred.Predictor)
		}
	}
}

// TestOnlinePredictiveNeverWorseOnBursty: bursty hot-set replacement is
// unforecastable, so the confidence fallback must keep the predictive
// policy at warm-start behaviour — never behind it.
func TestOnlinePredictiveNeverWorseOnBursty(t *testing.T) {
	warm, err := RunOnline(predictiveCfg(ReplanWarm, trace.DriftBursty, 0))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := RunOnline(predictiveCfg(ReplanPredictive, trace.DriftBursty, 0))
	if err != nil {
		t.Fatal(err)
	}
	if pred.TotalStepTime > warm.TotalStepTime*(1+1e-9) {
		t.Fatalf("bursty: predictive total %.3fs worse than warm %.3fs",
			pred.TotalStepTime, warm.TotalStepTime)
	}
	// The fallback engages: forecasts are made (and measured) but high
	// errors keep the trust streak broken.
	if pred.MeanForecastError < DefaultConfidenceThreshold {
		t.Fatalf("bursty forecast error %.3f unexpectedly below the confidence threshold",
			pred.MeanForecastError)
	}
}

// TestOnlinePredictorQualityOrdering: on the smooth stabilizing drift the
// deliberately lagging EMA must trail both one-step forecasters by a wide
// margin, while the trend fit stays competitive with the persistence
// (last-value) forecast — the ordering the predictor-selection guidance
// in the README rests on. With independent per-layer trace streams both
// one-step forecasters sit at the within-epoch noise floor (~0.08), so
// which of the two lands first is seed noise; their gap to the EMA is
// structural (>25% across seeds) and is what the test pins.
func TestOnlinePredictorQualityOrdering(t *testing.T) {
	errs := map[forecast.Kind]float64{}
	for _, kind := range forecast.Kinds() {
		cfg := predictiveCfg(ReplanPredictive, trace.DriftStabilizing, 0)
		cfg.Predictor = kind
		rep, err := RunOnline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		errs[kind] = rep.MeanForecastError
		if errs[kind] <= 0 {
			t.Fatalf("%s: no forecast error measured", kind)
		}
	}
	trend, last, ema := errs[forecast.KindTrend], errs[forecast.KindLast], errs[forecast.KindEMA]
	worst := trend
	if last > worst {
		worst = last
	}
	if ema <= 1.25*worst {
		t.Fatalf("ema error %.4f not clearly behind one-step forecasters (trend %.4f, last %.4f)",
			ema, trend, last)
	}
	if trend > 1.15*last {
		t.Fatalf("trend error %.4f more than 15%% above persistence %.4f — trend lost its skill", trend, last)
	}
}

// TestOnlineSlowDriftEventuallyReplans guards against the baseline
// ratchet: when per-epoch drift stays below the warm threshold, the
// reference loads must hold still while drift accumulates, so the policy
// still fires once the cumulative movement crosses the threshold — it
// must not silently degrade to the static policy.
func TestOnlineSlowDriftEventuallyReplans(t *testing.T) {
	// At drift rate 0.05 no single epoch moves any expert's load past the
	// 0.5 threshold, so only a held-still baseline lets the cumulative
	// drift fire (a ratcheting baseline replans 0 replicas here).
	cfg := onlineCfg(ReplanWarm, trace.DriftMigration)
	cfg.Epochs = 10
	cfg.Drift.Rate = 0.05
	cfg.MigrationThreshold = 0.5
	rep, err := RunOnline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	later := 0
	for _, e := range rep.Epochs[1:] {
		later += e.Migrations
	}
	if later < 50 {
		t.Fatalf("slow drift barely replanned after epoch 0: %d replicas moved (baseline ratchet?)", later)
	}
}

// TestNewOnlinePlannerHoldsOneLayout bounds what building an online
// planner allocates at a layout-dominated shape (synthetic-e4096 on 128x8
// GPUs, one layer, where one E x N layout is 32 MiB): the planner holds
// the layout in force and nothing sized like a second one, such as a
// classic run's scheduler it never calls.
func TestNewOnlinePlannerHoldsOneLayout(t *testing.T) {
	arch := *model.SyntheticE4096
	arch.Layers = 1
	topo := topology.New(128, 8)
	layout := uint64(arch.Experts) * uint64(topo.N()) * 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := NewOnlinePlanner(OnlineConfig{Policy: ReplanWarm, Arch: &arch, Topo: topo, Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(p)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewOnlinePlanner allocated %.1f MiB (one layout is %d MiB)", float64(got)/(1<<20), layout>>20)
	if limit := layout * 3 / 2; got >= limit {
		t.Errorf("NewOnlinePlanner allocated %.1f MiB, want under 1.5 layouts (%.0f MiB)", float64(got)/(1<<20), float64(limit)/(1<<20))
	}
}

// TestRunOnlineAllocBytes bounds the bytes one RunOnline call allocates at
// a small training shape (synthetic-e512 on 16x8 GPUs, two layers, eight
// iterations): the lite-routing policies route traffic, not single
// assignments, so an iteration allocates each layer's N x N pair counts
// instead of an assignment slice. It reads 9 to 18 MiB (the high end with
// cold pools); 42 to 44 MiB when every layer materialized its assignments.
func TestRunOnlineAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not pinned under the race detector")
	}
	arch := *model.SyntheticE512
	arch.Layers = 2
	cfg := OnlineConfig{
		Policy: ReplanWarm, Arch: &arch, Topo: topology.New(16, 8),
		Epochs: 2, IterationsPerEpoch: 4,
		Drift:                trace.DriftConfig{Model: trace.DriftStabilizing},
		ForceTokensPerDevice: 512, GlobalBatchTokens: 16 * 8 * 512,
		Seed: 1, Parallelism: 1,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := RunOnline(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("RunOnline allocated %.1f MiB", got)
	if got > 24 {
		t.Errorf("RunOnline allocated %.1f MiB, want at most 24 MiB", got)
	}
}

// TestDispatchEnvRecyclesNoDispatch: routing a second layer through the
// same env leaves the first layer's dispatch as a fresh env routes it, for
// every policy and both forms, so a caller may hold one dispatch per layer
// until the iteration runs.
func TestDispatchEnvRecyclesNoDispatch(t *testing.T) {
	topo := topology.New(2, 4)
	gen, err := ObservationGenerator(trace.GeneratorConfig{
		Devices: topo.N(), Experts: 16, Layers: 2, TokensPerDevice: 256, TopK: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	routing := gen.StepInto(nil)
	layout, err := planner.StaticEP(16, topo.N(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cm := comm.New(topo)
	for _, policy := range ReplanPolicies() {
		spec, err := ResolvePolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		for _, assignments := range []bool{false, true} {
			route := func(env *DispatchEnv, r *trace.RoutingMatrix) *planner.Dispatch {
				env.Routing, env.Layout = r, layout
				d, err := spec.Dispatch(env)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			a2a := func(d *planner.Dispatch) uint64 { return math.Float64bits(cm.AllToAll(d.PairTokens(nil), 4096)) }
			// Copy the fresh dispatch's results before the shared env
			// routes anything: a router that recycled one buffer would
			// otherwise make fresh and first alias the same counts.
			fresh := route(&DispatchEnv{Topo: topo, Capacity: 2, Assignments: assignments}, routing[0])
			loads, pairs, bits := slices.Clone(fresh.Loads()), slices.Clone(fresh.PairTokens(nil)), a2a(fresh)
			shared := DispatchEnv{Topo: topo, Capacity: 2, Assignments: assignments}
			first := route(&shared, routing[0])
			route(&shared, routing[1])
			if !reflect.DeepEqual(first.Loads(), loads) || !reflect.DeepEqual(first.PairTokens(nil), pairs) || a2a(first) != bits {
				t.Errorf("%s (assignments %v): routing a second layer through the env changed the first layer's dispatch", policy, assignments)
			}
		}
	}
}
