// Package executor builds per-iteration execution timelines for the
// simulated cluster: the forward/backward task graph of every transformer
// layer across the four CUDA-style streams of Fig. 5, including parameter
// prefetching, token All-to-All, expert computation, gradient resharding,
// tensor-parallel collectives and the fine-grained communication
// scheduling optimizations of Sec. 3.1 (relaxed prefetching, prefetch
// launch after the dispatcher's All-to-All, delayed gradient
// synchronization).
//
// The same builder serves every evaluated system; they differ only in the
// parameter paradigm (FSEP / FSDP+EP / resident a la Megatron), the
// attention TP degree, and the per-layer expert layout and token dispatch
// supplied by their scheduler.
package executor

import (
	"fmt"
	"math"
	"sync"

	"laermoe/internal/comm"
	"laermoe/internal/costmodel"
	"laermoe/internal/metrics"
	"laermoe/internal/model"
	"laermoe/internal/planner"
	"laermoe/internal/sim"
	"laermoe/internal/topology"
)

// enginePool recycles discrete-event engines across iterations: a multi-
// iteration run re-simulates the same graph shape thousands of times, and
// a reset engine rebuilds it without re-growing its task arena and queues.
var enginePool = sync.Pool{New: func() interface{} { return new(sim.Engine) }}

// Paradigm selects how expert parameters are stored and restored.
type Paradigm int

const (
	// ParadigmFSEP fully shards every expert across all devices and
	// restores arbitrary layouts with regular All-to-All (the paper).
	ParadigmFSEP Paradigm = iota
	// ParadigmFSDPEP shards experts within FSDP groups and restores the
	// fixed EP layout with all-gather (the FSDP+EP baseline).
	ParadigmFSDPEP
	// ParadigmResident keeps expert parameters resident (Megatron): no
	// prefetch, gradients all-reduced across expert-data-parallel ranks.
	ParadigmResident
)

func (p Paradigm) String() string {
	switch p {
	case ParadigmFSEP:
		return "fsep"
	case ParadigmFSDPEP:
		return "fsdp+ep"
	case ParadigmResident:
		return "resident"
	}
	return fmt.Sprintf("paradigm(%d)", int(p))
}

// CommOpts are the Fig. 5 communication-scheduling switches.
type CommOpts struct {
	// RelaxedPrefetch prefetches layer L+1's experts during layer L's
	// expert computation instead of during attention (Fig. 5b).
	RelaxedPrefetch bool
	// ScheduledPrefetch launches the prefetch only after the token
	// dispatcher's All-to-All has concluded, avoiding channel contention
	// (Fig. 5c).
	ScheduledPrefetch bool
	// DelayedGradSync defers gradient reshard/synchronization to the next
	// expert layer's backward computation (Fig. 5e).
	DelayedGradSync bool
}

// AllCommOpts enables every optimization (the shipped configuration).
func AllCommOpts() CommOpts {
	return CommOpts{RelaxedPrefetch: true, ScheduledPrefetch: true, DelayedGradSync: true}
}

// Config describes one system's execution parameters.
type Config struct {
	Arch *model.Config
	Topo *topology.Topology

	Paradigm Paradigm
	TPDegree int // attention tensor-parallel degree (1 for fully sharded systems)

	// TokensPerDevice is the MoE-source tokens per device per micro-batch
	// (S in the paper's notation).
	TokensPerDevice int
	MicroBatches    int
	ContextLen      int
	Ckpt            bool // recompute expert forward during backward

	Comm CommOpts

	// Fixed overheads (seconds), modelling kernel launches, token
	// rearrangement and host interactions.
	DispatcherOverhead float64 // TD decision per layer per micro-batch
	LayerFixedOverhead float64 // memory ops per layer per micro-batch
	OptimizerStepTime  float64 // once per iteration

	// ContentionFactor inflates communication that shares the wire with a
	// concurrent All-to-All (the "A2A slowdown" of Fig. 5a/b/d); 1.0
	// disables contention modelling.
	ContentionFactor float64

	// TPEfficiencyLoss is the attention GEMM efficiency penalty per
	// doubling of TP (smaller per-device matrices reduce MFU).
	TPEfficiencyLoss float64
}

// Defaults fills unset tunables with calibrated values.
func (c Config) Defaults() Config {
	if c.TPDegree == 0 {
		c.TPDegree = 1
	}
	if c.MicroBatches == 0 {
		c.MicroBatches = 1
	}
	if c.ContextLen == 0 {
		c.ContextLen = 8192
	}
	if c.DispatcherOverhead == 0 {
		c.DispatcherOverhead = 0.25e-3
	}
	if c.LayerFixedOverhead == 0 {
		c.LayerFixedOverhead = 0.4e-3
	}
	if c.OptimizerStepTime == 0 {
		c.OptimizerStepTime = 30e-3
	}
	if c.ContentionFactor == 0 {
		c.ContentionFactor = 1.5
	}
	if c.TPEfficiencyLoss == 0 {
		c.TPEfficiencyLoss = 0.25
	}
	return c
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	if c.Arch == nil || c.Topo == nil {
		return fmt.Errorf("executor: nil architecture or topology")
	}
	n := c.Topo.N()
	if c.TPDegree < 1 || n%c.TPDegree != 0 {
		return fmt.Errorf("executor: TP degree %d does not divide %d devices", c.TPDegree, n)
	}
	if c.Paradigm == ParadigmFSDPEP || c.Paradigm == ParadigmResident {
		pep := c.Arch.Experts / c.Arch.ExpertCapacity
		if n%pep != 0 {
			return fmt.Errorf("executor: EP size %d does not divide %d devices", pep, n)
		}
	}
	if c.TokensPerDevice <= 0 || c.MicroBatches <= 0 {
		return fmt.Errorf("executor: non-positive batch shape")
	}
	return nil
}

// LayerPlan is the per-layer strategy in force for one iteration: the
// expert layout and the token dispatch for one micro-batch.
type LayerPlan struct {
	Layout   *planner.Layout
	Dispatch *planner.Dispatch
	// ExtraRelayoutTime charges explicit migration cost (non-FSEP
	// re-layout schemes such as SmartMoE move optimizer state over the
	// wire); exposed once on the iteration's critical path.
	ExtraRelayoutTime float64
}

// RunIteration builds and simulates one training iteration under the given
// per-layer plans and returns its metrics.
func RunIteration(cfg Config, layers []LayerPlan) (*metrics.Iteration, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(layers) != cfg.Arch.Layers {
		return nil, fmt.Errorf("executor: %d layer plans for %d layers", len(layers), cfg.Arch.Layers)
	}
	b := newBuilder(cfg)
	b.prepare(layers)
	for mb := 0; mb < cfg.MicroBatches; mb++ {
		b.forward(layers)
		b.backward(layers, mb == cfg.MicroBatches-1)
	}
	b.finish(layers)
	res, err := b.eng.Run()
	if err != nil {
		return nil, err
	}
	it := &metrics.Iteration{
		Time:              res.Makespan(),
		Breakdown:         metrics.FromResult(res),
		PerLayerImbalance: perLayerImbalance(layers, cfg.Topo.NumAvailable()),
	}
	// The metrics are fully extracted; the engine (and the Result viewing
	// its task arena) can be recycled.
	enginePool.Put(b.eng)
	return it, nil
}

// perLayerImbalance computes the Fig. 10b series: per layer, the maximum
// per-device received token count relative to the perfectly balanced
// count. n is the number of live devices — under an elastic topology the
// balanced reference spreads the tokens over the surviving cluster only.
func perLayerImbalance(layers []LayerPlan, n int) []float64 {
	out := make([]float64, len(layers))
	var buf []int
	for l, lp := range layers {
		buf = lp.Dispatch.AppendReceivedLoads(buf[:0])
		loads := buf
		total, maxLoad := 0, 0
		for _, v := range loads {
			total += v
			if v > maxLoad {
				maxLoad = v
			}
		}
		if total == 0 {
			out[l] = 1
			continue
		}
		out[l] = float64(maxLoad) / (float64(total) / float64(n))
	}
	return out
}

// builder incrementally constructs the iteration task graph.
type builder struct {
	cfg  Config
	eng  *sim.Engine
	cm   *costmodel.Model
	comm *comm.Model
	n    int
	all  []int

	// lastS1 tracks each device's most recent compute-stream task, used
	// as the data dependency for the next layer.
	lastS1 []sim.TaskID

	// tpGroups are the consecutive attention TP groups (nil without TP).
	tpGroups [][]int

	// Per-layer ID scratch, reused across layers and micro-batches.
	attn, td, experts []sim.TaskID
	peReady, paReady  []sim.TaskID
	nextPE            []sim.TaskID
	groupDeps         [][]sim.TaskID
	groupDepArena     []sim.TaskID
	times             []float64
	loads             []int

	// Per-layer state no micro-batch changes, computed once per iteration
	// by prepare: the base token All-to-All time (the four exchanges of a
	// micro-batch differ only by a2aFactor), priced from one scan of the
	// dispatch into the reused volume matrix vol, and the per-device task
	// names.
	vol   *comm.VolumeMatrix
	a2a   []float64
	names []layerNames
}

// layerNames are the names of one layer's per-device tasks.
type layerNames struct {
	fwdAttn, gate, mem, td, fwdExpert string
	bwdExpert, bwdGate, bwdAttn       string
}

func newBuilder(cfg Config) *builder {
	n := cfg.Topo.N()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	eng := enginePool.Get().(*sim.Engine)
	eng.Reset(n)
	b := &builder{
		cfg:     cfg,
		eng:     eng,
		cm:      costmodel.New(cfg.Arch, cfg.Topo, cfg.ContextLen),
		comm:    comm.New(cfg.Topo),
		n:       n,
		all:     all,
		lastS1:  make([]sim.TaskID, n),
		attn:    make([]sim.TaskID, n),
		td:      make([]sim.TaskID, n),
		experts: make([]sim.TaskID, n),
		peReady: make([]sim.TaskID, n),
		paReady: make([]sim.TaskID, n),
		nextPE:  make([]sim.TaskID, n),
		vol:     comm.NewVolumeMatrix(n),
	}
	for i := range b.lastS1 {
		b.lastS1[i] = sim.NoTask
	}
	if cfg.TPDegree > 1 {
		b.tpGroups = consecutiveGroups(n, cfg.TPDegree)
	}
	return b
}

// tpGroupDeps packs one dependency per group member into reusable
// dependency lists for a TP collective.
func (b *builder) tpGroupDeps(g []int, ids []sim.TaskID) [][]sim.TaskID {
	if cap(b.groupDeps) < len(g) {
		b.groupDeps = make([][]sim.TaskID, len(g))
		b.groupDepArena = make([]sim.TaskID, len(g))
	}
	deps := b.groupDeps[:len(g)]
	arena := b.groupDepArena[:len(g)]
	for i, dev := range g {
		arena[i] = ids[dev]
		deps[i] = arena[i : i+1]
	}
	return deps
}

// contended reports whether prefetch traffic shares the wire with token
// All-to-All under the configured scheduling.
func (b *builder) prefetchContended() bool {
	return b.cfg.Paradigm != ParadigmResident && !b.cfg.Comm.ScheduledPrefetch
}

func (b *builder) gradSyncContended() bool {
	return b.cfg.Paradigm != ParadigmResident && !b.cfg.Comm.DelayedGradSync
}

// a2aFactor is the contention multiplier applied to token All-to-All.
func (b *builder) a2aFactor(backward bool) float64 {
	f := 1.0
	if b.prefetchContended() {
		f = b.cfg.ContentionFactor
	}
	if backward && b.gradSyncContended() {
		f = math.Max(f, b.cfg.ContentionFactor)
	}
	return f
}

// attnTime returns the per-device attention compute time including the TP
// efficiency penalty.
func (b *builder) attnTime(dev int, backward bool) float64 {
	tp := b.cfg.TPDegree
	tokens := b.cfg.TokensPerDevice * tp // tokens per TP group micro-batch
	t := b.cm.AttentionComputeTime(dev, tokens, tp)
	if tp > 1 {
		t *= 1 + b.cfg.TPEfficiencyLoss*math.Log2(float64(tp))
	}
	if backward {
		t *= costmodel.BackwardFactor
	}
	return t
}

// tpAllReduceTime returns the duration of one TP all-reduce of the layer
// activation within a TP group (intra-node ring).
func (b *builder) tpAllReduceTime(group []int) float64 {
	bytes := float64(b.cfg.TokensPerDevice*b.cfg.TPDegree) * float64(b.cfg.Arch.TokenBytes())
	return b.comm.AllReduce(group, bytes)
}

// consecutiveGroups splits n devices into consecutive groups of size tp.
func consecutiveGroups(n, tp int) [][]int {
	var out [][]int
	for start := 0; start < n; start += tp {
		g := make([]int, tp)
		for i := range g {
			g[i] = start + i
		}
		out = append(out, g)
	}
	return out
}

// fsdpGroups returns the FSDP sharding groups of the FSDP+EP paradigm:
// devices with the same EP rank across EP groups.
func (b *builder) fsdpGroups() [][]int {
	pep := b.cfg.Arch.Experts / b.cfg.Arch.ExpertCapacity
	out := make([][]int, pep)
	for d := 0; d < b.n; d++ {
		r := d % pep
		out[r] = append(out[r], d)
	}
	return out
}

// expertPrefetchTime returns the duration of restoring C experts per
// device under the configured paradigm (0 for resident parameters).
func (b *builder) expertPrefetchTime() float64 {
	c := float64(b.cfg.Arch.ExpertCapacity)
	bytes := float64(b.cfg.Arch.ExpertBytes())
	switch b.cfg.Paradigm {
	case ParadigmFSEP:
		// Regular All-to-All: every pair exchanges C chunks of 1/N.
		return b.comm.UniformAllToAll(b.all, c*bytes/float64(b.n))
	case ParadigmFSDPEP:
		groups := b.fsdpGroups()
		worst := 0.0
		for _, g := range groups {
			t := b.comm.AllGather(g, c*bytes/float64(len(g)))
			if t > worst {
				worst = t
			}
		}
		return worst
	default:
		return 0
	}
}

// attnPrefetchTime returns the all-gather time of the next layer's
// non-expert parameters (fully sharded paradigms only).
func (b *builder) attnPrefetchTime() float64 {
	if b.cfg.Paradigm == ParadigmResident {
		return 0
	}
	bytes := float64(b.cfg.Arch.NonExpertLayerParams() * model.BytesPerParam)
	return b.comm.AllGather(b.all, bytes/float64(b.n))
}

// gradSyncTime returns the per-layer expert gradient reshard/reduction
// time under the paradigm.
func (b *builder) gradSyncTime() float64 {
	c := float64(b.cfg.Arch.ExpertCapacity)
	bytes := float64(b.cfg.Arch.ExpertBytes()) // bf16 grads match param size
	switch b.cfg.Paradigm {
	case ParadigmFSEP:
		return b.comm.UniformAllToAll(b.all, c*bytes/float64(b.n))
	case ParadigmFSDPEP:
		groups := b.fsdpGroups()
		worst := 0.0
		for _, g := range groups {
			t := b.comm.ReduceScatter(g, c*bytes)
			if t > worst {
				worst = t
			}
		}
		return worst
	case ParadigmResident:
		// Ring reduce-scatter across the expert replicas (ZeRO-1 style),
		// bucketed per layer on the last micro-batch.
		pep := b.cfg.Arch.Experts / b.cfg.Arch.ExpertCapacity
		replicas := b.n / pep
		if replicas < 2 {
			return 0
		}
		group := make([]int, replicas)
		for i := range group {
			group[i] = i * pep // one member per EP group; same link classes
		}
		return b.comm.ReduceScatter(group, c*bytes)
	}
	return 0
}

// nonExpertGradSyncTime returns the per-layer non-expert gradient
// reduction time.
func (b *builder) nonExpertGradSyncTime() float64 {
	bytes := float64(b.cfg.Arch.NonExpertLayerParams() * model.BytesPerParam)
	switch b.cfg.Paradigm {
	case ParadigmResident:
		dp := b.n / b.cfg.TPDegree
		if dp < 2 {
			return 0
		}
		group := make([]int, dp)
		for i := range group {
			group[i] = i * b.cfg.TPDegree
		}
		return b.comm.ReduceScatter(group, bytes/float64(b.cfg.TPDegree))
	default:
		return b.comm.ReduceScatter(b.all, bytes)
	}
}

// prepare computes the per-layer state of the iteration: each layer's
// base token All-to-All time, from one scan of its dispatch into the
// builder's volume matrix, and its task names.
func (b *builder) prepare(layers []LayerPlan) {
	b.a2a = make([]float64, len(layers))
	b.names = make([]layerNames, len(layers))
	tokenBytes := b.cm.TokenCommBytes()
	for l, lp := range layers {
		lp.Dispatch.FillVolumeMatrix(b.vol, tokenBytes)
		b.a2a[l] = b.comm.AllToAll(b.vol)
		b.names[l] = layerNames{
			fwdAttn: fmt.Sprintf("F_A%d", l), gate: fmt.Sprintf("G%d", l),
			mem: fmt.Sprintf("mem%d", l), td: fmt.Sprintf("TD%d", l),
			fwdExpert: fmt.Sprintf("F_M%d", l), bwdExpert: fmt.Sprintf("B_M%d", l),
			bwdGate: fmt.Sprintf("B_G%d", l), bwdAttn: fmt.Sprintf("B_A%d", l),
		}
	}
}

// dispatchDuration returns the token All-to-All time of layer l's
// dispatch (or combine — volumes are symmetric in size).
func (b *builder) dispatchDuration(l int, backward bool) float64 {
	return b.a2a[l] * b.a2aFactor(backward)
}

// expertTime returns per-device expert compute durations for one layer,
// in a buffer reused across calls.
func (b *builder) expertTimes(lp LayerPlan, backward bool) []float64 {
	b.loads = lp.Dispatch.AppendReceivedLoads(b.loads[:0])
	loads := b.loads
	if b.times == nil {
		b.times = make([]float64, b.n)
	}
	out := b.times
	factor := 1.0
	if backward {
		factor = costmodel.BackwardFactor
		if b.cfg.Ckpt {
			factor += 1 // recompute forward
		}
	}
	for dev, l := range loads {
		out[dev] = b.cm.ExpertComputeTime(dev, l) * factor
	}
	return out
}

// collectiveAll adds an all-device collective with per-device deps.
func (b *builder) collectiveAll(name string, stream sim.Stream, cat sim.Category, dur float64, deps []sim.TaskID) []sim.TaskID {
	return b.eng.Collective1(name, b.all, stream, cat, dur, deps)
}

// forward appends one micro-batch's forward pass.
func (b *builder) forward(layers []LayerPlan) {
	cfg := b.cfg
	prefetchTimeE := b.expertPrefetchTime()
	prefetchTimeA := b.attnPrefetchTime()
	if b.prefetchContended() {
		prefetchTimeE *= cfg.ContentionFactor
	}

	// peReady[dev] is the prefetch task that must complete before the
	// layer's expert computation on dev; paReady likewise for attention.
	peReady, paReady := b.peReady, b.paReady
	for i := range peReady {
		peReady[i], paReady[i] = sim.NoTask, sim.NoTask
	}

	// Initial prefetch of layer 0 (enqueued first on S2; depends only on
	// previous stream work).
	if cfg.Paradigm != ParadigmResident {
		pa := b.collectiveAll("PA0", sim.StreamPrefetch, sim.CatPrefetch, prefetchTimeA, nil)
		pe := b.collectiveAll("PE0", sim.StreamPrefetch, sim.CatPrefetch, prefetchTimeE, nil)
		copy(paReady, pa)
		copy(peReady, pe)
	}

	for l, lp := range layers {
		names := &b.names[l]
		// Attention (S1) after previous layer's output and PA_l.
		attn := b.attn
		for dev := 0; dev < b.n; dev++ {
			attn[dev] = b.eng.Compute(names.fwdAttn, dev, sim.StreamCompute, sim.CatAttention,
				b.attnTime(dev, false), b.lastS1[dev], paReady[dev])
		}
		if cfg.TPDegree > 1 {
			for _, g := range b.tpGroups {
				// One all-reduce after attention plus the TP->EP activation
				// re-sharding of heterogeneous parallel folding.
				ids := b.eng.Collective(fmt.Sprintf("AR_A%d", l), g, sim.StreamCompute, sim.CatTPComm,
					2*b.tpAllReduceTime(g), b.tpGroupDeps(g, attn))
				for i, dev := range g {
					attn[dev] = ids[i]
				}
			}
		}

		// Gate, dispatcher decision, and fixed memory ops (S1).
		td := b.td
		for dev := 0; dev < b.n; dev++ {
			gate := b.eng.Compute(names.gate, dev, sim.StreamCompute, sim.CatGate,
				b.cm.GateComputeTime(dev, cfg.TokensPerDevice), attn[dev])
			fixed := b.eng.Compute(names.mem, dev, sim.StreamCompute, sim.CatOther,
				cfg.LayerFixedOverhead, gate)
			td[dev] = b.eng.Compute(names.td, dev, sim.StreamCompute, sim.CatDispatcher,
				cfg.DispatcherOverhead, fixed)
		}

		// Token dispatch All-to-All (S3).
		dispatch := b.collectiveAll(fmt.Sprintf("A2Ad%d", l), sim.StreamA2A, sim.CatA2A,
			b.dispatchDuration(l, false), td)

		// Prefetch of the next layer (S2) per the scheduling mode.
		if cfg.Paradigm != ParadigmResident && l+1 < len(layers) {
			var peDeps, paDeps []sim.TaskID
			switch {
			case !cfg.Comm.RelaxedPrefetch:
				// Default FSDP: prefetch the next unit while computing the
				// current one — experts of l+1 load during attention of
				// l+1, i.e. after layer l completes. Modelled by making
				// the prefetch depend on this layer's dispatch decision
				// completing its combine (set below after combine).
				peDeps, paDeps = nil, nil // filled after combine
			case cfg.Comm.ScheduledPrefetch:
				peDeps, paDeps = dispatch, dispatch
			default:
				peDeps, paDeps = td, td
			}
			if cfg.Comm.RelaxedPrefetch {
				pe := b.collectiveAll(fmt.Sprintf("PE%d", l+1), sim.StreamPrefetch, sim.CatPrefetch, prefetchTimeE, peDeps)
				pa := b.collectiveAll(fmt.Sprintf("PA%d", l+1), sim.StreamPrefetch, sim.CatPrefetch, prefetchTimeA, paDeps)
				copy(peReady, pe)
				copy(paReady, pa)
			}
		}

		// Expert computation (S1): needs dispatched tokens and expert
		// parameters.
		times := b.expertTimes(lp, false)
		experts := b.experts
		for dev := 0; dev < b.n; dev++ {
			experts[dev] = b.eng.Compute(names.fwdExpert, dev, sim.StreamCompute, sim.CatExpert,
				times[dev], dispatch[dev], peReady[dev])
		}

		// Combine All-to-All (S3).
		combine := b.collectiveAll(fmt.Sprintf("A2Ac%d", l), sim.StreamA2A, sim.CatA2A,
			b.dispatchDuration(l, false), experts)
		copy(b.lastS1, combine)

		// Default (non-relaxed) prefetch: issue now, to be consumed by
		// layer l+1 — it overlaps only layer l+1's attention (Fig. 5a).
		if cfg.Paradigm != ParadigmResident && !cfg.Comm.RelaxedPrefetch && l+1 < len(layers) {
			pe := b.collectiveAll(fmt.Sprintf("PE%d", l+1), sim.StreamPrefetch, sim.CatPrefetch, prefetchTimeE, combine)
			pa := b.collectiveAll(fmt.Sprintf("PA%d", l+1), sim.StreamPrefetch, sim.CatPrefetch, prefetchTimeA, combine)
			copy(peReady, pe)
			copy(paReady, pa)
		}
		if cfg.Paradigm == ParadigmResident {
			// Parameters resident: nothing to prefetch.
			for i := range peReady {
				peReady[i], paReady[i] = sim.NoTask, sim.NoTask
			}
		}
	}
}

// backward appends one micro-batch's backward pass. syncGrads controls
// whether gradient synchronization runs (the resident paradigm only syncs
// on the last micro-batch; fully sharded paradigms reshard every time).
func (b *builder) backward(layers []LayerPlan, lastMicroBatch bool) {
	cfg := b.cfg
	prefetchTimeE := b.expertPrefetchTime()
	if b.prefetchContended() {
		prefetchTimeE *= cfg.ContentionFactor
	}
	syncTime := b.gradSyncTime()
	nonExpertSync := b.nonExpertGradSyncTime()
	if b.gradSyncContended() {
		syncTime *= cfg.ContentionFactor
	}

	syncEveryMB := cfg.Paradigm != ParadigmResident
	doSync := syncEveryMB || lastMicroBatch

	// Pending gradient syncs deferred to the next layer's backward
	// (Fig. 5e): pendingSync[dev] holds the dependency gate.
	type pending struct {
		name string
		time float64
		cat  sim.Category
	}
	var pendingSyncs []pending

	peReady := b.peReady
	for i := range peReady {
		peReady[i] = sim.NoTask
	}
	if cfg.Paradigm != ParadigmResident {
		// Re-unshard the last layer's experts for backward.
		pe := b.collectiveAll(fmt.Sprintf("PEb%d", len(layers)-1), sim.StreamPrefetch, sim.CatPrefetch,
			prefetchTimeE, b.lastS1)
		copy(peReady, pe)
	}

	flushPending := func(deps []sim.TaskID) {
		for _, p := range pendingSyncs {
			b.collectiveAll(p.name, sim.StreamGrad, p.cat, p.time, deps)
		}
		pendingSyncs = nil
	}

	for l := len(layers) - 1; l >= 0; l-- {
		lp, names := layers[l], &b.names[l]

		// Gradient All-to-All reversing the combine (S3).
		gradIn := b.collectiveAll(fmt.Sprintf("B_A2Ac%d", l), sim.StreamA2A, sim.CatA2A,
			b.dispatchDuration(l, true), b.lastS1)

		// Deferred gradient syncs from layer l+1 launch alongside this
		// layer's expert backward (Fig. 5e).
		if cfg.Comm.DelayedGradSync {
			flushPending(gradIn)
		}

		// Prefetch experts of layer l-1 for its upcoming backward (S2).
		nextPE := b.nextPE
		for i := range nextPE {
			nextPE[i] = sim.NoTask
		}
		if cfg.Paradigm != ParadigmResident && l > 0 {
			var deps []sim.TaskID
			if cfg.Comm.ScheduledPrefetch {
				deps = gradIn
			} else {
				deps = b.lastS1
			}
			pe := b.collectiveAll(fmt.Sprintf("PEb%d", l-1), sim.StreamPrefetch, sim.CatPrefetch, prefetchTimeE, deps)
			copy(nextPE, pe)
		}

		// Expert backward (S1).
		times := b.expertTimes(lp, true)
		experts := b.experts
		for dev := 0; dev < b.n; dev++ {
			experts[dev] = b.eng.Compute(names.bwdExpert, dev, sim.StreamCompute, sim.CatExpert,
				times[dev], gradIn[dev], peReady[dev])
		}

		// Expert gradient reshard/synchronization (S4).
		if doSync {
			if cfg.Comm.DelayedGradSync {
				pendingSyncs = append(pendingSyncs, pending{fmt.Sprintf("Sy_M%d", l), syncTime, sim.CatGradSync})
			} else {
				b.collectiveAll(fmt.Sprintf("Sy_M%d", l), sim.StreamGrad, sim.CatGradSync, syncTime, experts)
			}
		}

		// Gradient All-to-All reversing the dispatch (S3).
		gradOut := b.collectiveAll(fmt.Sprintf("B_A2Ad%d", l), sim.StreamA2A, sim.CatA2A,
			b.dispatchDuration(l, true), experts)

		// Gate and attention backward (S1).
		attn := b.attn
		for dev := 0; dev < b.n; dev++ {
			gate := b.eng.Compute(names.bwdGate, dev, sim.StreamCompute, sim.CatGate,
				b.cm.GateComputeTime(dev, cfg.TokensPerDevice), gradOut[dev])
			attn[dev] = b.eng.Compute(names.bwdAttn, dev, sim.StreamCompute, sim.CatAttention,
				b.attnTime(dev, true), gate)
		}
		if cfg.TPDegree > 1 {
			for _, g := range b.tpGroups {
				// Two all-reduces in backward (input and weight grads) plus
				// the EP->TP activation-gradient re-sharding.
				ids := b.eng.Collective(fmt.Sprintf("B_AR_A%d", l), g, sim.StreamCompute, sim.CatTPComm,
					3*b.tpAllReduceTime(g), b.tpGroupDeps(g, attn))
				for i, dev := range g {
					attn[dev] = ids[i]
				}
			}
		}
		copy(b.lastS1, attn)

		// Non-expert gradient sync for this layer (S4, small).
		if doSync {
			if cfg.Comm.DelayedGradSync {
				pendingSyncs = append(pendingSyncs, pending{fmt.Sprintf("Sy_A%d", l), nonExpertSync, sim.CatGradSync})
			} else {
				b.collectiveAll(fmt.Sprintf("Sy_A%d", l), sim.StreamGrad, sim.CatGradSync, nonExpertSync, attn)
			}
		}

		copy(peReady, nextPE)
	}
	// Remaining deferred syncs run after the first layer's backward.
	flushPending(b.lastS1)
}

// finish appends the optimizer step and any explicit re-layout cost.
func (b *builder) finish(layers []LayerPlan) {
	extra := 0.0
	for _, lp := range layers {
		extra += lp.ExtraRelayoutTime
	}
	for dev := 0; dev < b.n; dev++ {
		id := b.eng.Compute("optimizer", dev, sim.StreamCompute, sim.CatOther,
			b.cfg.OptimizerStepTime+extra, b.lastS1[dev])
		b.lastS1[dev] = id
	}
}
