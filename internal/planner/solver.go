package planner

import (
	"fmt"
	"math/rand"
	"slices"

	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// SolverOptions configures the expert layout tuner (Alg. 2).
type SolverOptions struct {
	// Epsilon is |ε|: the size of the candidate replica-scheme set. The
	// first two candidates are the priority-queue proportional allocation
	// and the even allocation; further candidates are random perturbations
	// of set members. The paper fixes |ε|=2 in its evaluation (Sec. 5.4).
	Epsilon int

	// DisablePQ and DisableEven drop the corresponding base scheme from
	// the candidate set — the incomplete solvers of the Fig. 12 ablation
	// ('no_pq' and 'no_even').
	DisablePQ   bool
	DisableEven bool

	Seed int64
}

// DefaultSolverOptions matches the evaluated configuration: |ε| = 2.
func DefaultSolverOptions() SolverOptions { return SolverOptions{Epsilon: 2} }

// Solution is the outcome of one Alg. 2 run.
type Solution struct {
	Layout *Layout
	// Candidates is the number of replica schemes evaluated.
	Candidates int

	// Migrations counts the replicas the chosen layout restores onto
	// devices that did not host them in the warm start's previous layout,
	// and MigrationTime the seconds charged for moving them (both 0 for
	// cold solves).
	Migrations    int
	MigrationTime float64

	// A drift-tracked keep leaves the cost unscored: params, r and topo
	// are set until Cost scores it.
	cost   float64
	params *CostParams
	r      *trace.RoutingMatrix
	topo   *topology.Topology
}

// Cost returns the Eq. 2 cost of the solved layout under the routing
// matrix the solve saw, scoring it on first use when the solve did not
// need it. Not safe for concurrent first calls, and the routing matrix
// (and the solver's Params) must still hold what the solve saw.
func (s *Solution) Cost() float64 {
	if s.params != nil {
		sc := routePool.Get().(*routeScratch)
		s.cost = evalLayoutCost(s.r, s.Layout, s.topo, *s.params, sc)
		routePool.Put(sc)
		s.params = nil
	}
	return s.cost
}

// Solver runs the expert layout tuner.
type Solver struct {
	Topo   *topology.Topology
	C      int
	Params CostParams
	Opts   SolverOptions
	rng    *rand.Rand
	donors []int // perturb scratch
	warm   warmScratch
}

// warmScratch is the reusable working set of SolveWarm: every
// intermediate the incremental re-solve needs, sized once per shape, so
// steady-state warm solves stop allocating. Candidate layouts rotate
// through a small free list (see Recycle).
type warmScratch struct {
	loads       []float64
	moved       []bool
	movedIdx    []int
	movedLoads  []float64
	deviceLoads []float64
	deviceCount []int
	dl          []float64 // per-candidate working copies
	dc          []int
	place       []int
	scheme      []int
	schemeAlt   []int
	heap        loadHeap
	order       []int
	ps          placeScratch
	route       routeScratch // replica lists and scored loads of `built` (the keep-path cache)
	routeCand   routeScratch // the candidate being scored, swapped into route when it leads
	built       *Layout      // layout route currently describes
	base        *Layout      // kept-expert placements
	cands       []*Layout    // candidate views handed to scoring
	spare       []*Layout    // recycled layout buffers
}

func (w *warmScratch) resize(e, n int) {
	if cap(w.loads) < e {
		w.loads = make([]float64, e)
		w.moved = make([]bool, e)
		w.movedIdx = make([]int, 0, e)
		w.movedLoads = make([]float64, 0, e)
		w.place = make([]int, e)
		w.scheme = make([]int, e)
		w.schemeAlt = make([]int, e)
		w.heap = make(loadHeap, e)
		w.order = make([]int, e)
	}
	w.loads = w.loads[:e]
	w.moved = w.moved[:e]
	w.place = w.place[:e]
	if cap(w.deviceLoads) < n {
		w.deviceLoads = make([]float64, n)
		w.deviceCount = make([]int, n)
		w.dl = make([]float64, n)
		w.dc = make([]int, n)
	}
	w.deviceLoads = w.deviceLoads[:n]
	w.deviceCount = w.deviceCount[:n]
	w.dl = w.dl[:n]
	w.dc = w.dc[:n]
	if w.base == nil || w.base.E != e || w.base.N != n {
		w.base = NewLayout(e, n)
	}
}

// promote makes routeCand, just scored for l, the keep-path cache. The
// two scratches swap, so the best layout scored so far always survives
// the next candidate's scoring walk.
func (w *warmScratch) promote(l *Layout) {
	w.route, w.routeCand = w.routeCand, w.route
	w.built = l
}

// scored returns the per-device loads of the lite routing of the layout
// the last scored solve returned, under the matrix it solved: the
// by-product of that solve's own scoring walk. A tracked keep scores
// nothing and leaves them as they were. Read-only, and overwritten by the
// next solve.
func (s *Solver) scored() []int { return s.warm.route.loads }

// getLayout hands out a recycled layout buffer of the right shape, or a
// fresh one when none is available. A reissued buffer is about to be
// rewritten, so any replica-list cache keyed on its pointer is dropped.
func (s *Solver) getLayout(e, n int) *Layout {
	for i := len(s.warm.spare) - 1; i >= 0; i-- {
		l := s.warm.spare[i]
		if l.E == e && l.N == n {
			s.warm.spare = append(s.warm.spare[:i], s.warm.spare[i+1:]...)
			if s.warm.built == l {
				s.warm.built = nil
			}
			return l
		}
	}
	return NewLayout(e, n)
}

// Recycle returns a layout buffer to the solver for reuse by future warm
// solves. Callers that retain a Solution's layout across epochs call this
// when they drop it (installing a successor); the solver then reaches
// steady-state warm solving without allocating candidate layouts. The
// layout must no longer be referenced anywhere — in particular it must not
// be (or alias) the Prev of a future SolveWarm call. nil is ignored.
func (s *Solver) Recycle(l *Layout) {
	if l == nil || len(s.warm.spare) >= 4 {
		return
	}
	s.warm.spare = append(s.warm.spare, l)
}

// NewSolver builds a solver for the topology and capacity.
func NewSolver(topo *topology.Topology, c int, params CostParams, opts SolverOptions) *Solver {
	if opts.Epsilon <= 0 {
		opts.Epsilon = 2
	}
	return &Solver{Topo: topo, C: c, Params: params, Opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Solve implements Alg. 2: build the candidate replica-scheme set, run
// expert relocation (Alg. 1) on each, score with the Eq. 2 cost model, and
// return the best strategy.
//
// Scoring is incremental: each candidate layout is evaluated by streaming
// the lite-routing assignments through the cost accumulators
// (evalLayoutCost), so no candidate ever materializes a Dispatch.
// Candidates are scored in order on the solver's own route scratches, and
// the winner's scoring walk is left as the keep-path cache; duplicate
// replica schemes (perturbation is not guaranteed to produce fresh ones)
// are scored once.
func (s *Solver) Solve(r *trace.RoutingMatrix) (*Solution, error) {
	n := s.Topo.N()
	if r.N != n {
		return nil, fmt.Errorf("planner: routing matrix for %d devices, topology has %d", r.N, n)
	}
	expertLoad := r.ExpertLoads()

	// The replica-slot budget counts live devices only; on a fully
	// available cluster this is exactly the N*C of Alg. 4.
	slots := s.Topo.NumAvailable() * s.C
	var set [][]int
	if !s.Opts.DisablePQ {
		pq, err := allocateReplicas(nil, expertLoad, slots, nil)
		if err != nil {
			return nil, err
		}
		set = append(set, pq)
	}
	if !s.Opts.DisableEven {
		even, err := allocateEven(nil, expertLoad, slots, nil)
		if err != nil {
			return nil, err
		}
		set = append(set, even)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("planner: both base replica schemes disabled")
	}
	for len(set) < s.Opts.Epsilon {
		base := set[s.rng.Intn(len(set))]
		set = append(set, s.perturb(base))
	}

	// The first strictly cheapest candidate wins, so a duplicate scheme,
	// which would score exactly as its first occurrence did, is skipped.
	w := &s.warm
	var best *Layout
	bestCost := 0.0
	for i, reps := range set {
		if slices.ContainsFunc(set[:i], func(o []int) bool { return slices.Equal(o, reps) }) {
			continue
		}
		layout, err := ExpertRelocation(reps, expertLoad, s.Topo, s.C)
		if err != nil {
			return nil, err
		}
		if cost := evalLayoutCost(r, layout, s.Topo, s.Params, &w.routeCand); best == nil || cost < bestCost {
			best, bestCost = layout, cost
			w.promote(layout)
		}
	}
	return &Solution{
		Layout:     best,
		Candidates: len(set),
		cost:       bestCost,
	}, nil
}

// DefaultWarmThreshold is the relative per-expert load change above which
// a warm-started solve re-places an expert.
const DefaultWarmThreshold = 0.2

// WarmStart configures SolveWarm's incremental re-solve.
type WarmStart struct {
	// Prev is the layout currently in force.
	Prev *Layout
	// PrevLoads are the per-expert loads Prev was planned for. An empty
	// (or nil) vector marks every expert as moved, i.e. a full incremental
	// re-place.
	PrevLoads []float64
	// Threshold is the relative load change past which an expert is
	// re-placed. 0 selects DefaultWarmThreshold; a negative value
	// re-places every expert whose load changed at all (the zero value
	// means "default", so an exact 0 threshold cannot).
	Threshold float64
	// MigrationCost is the time charged per replica restored onto a device
	// that did not host it in Prev (seconds). 0 models FSEP's free
	// re-layout; relocation schemes that move optimizer state pay
	// costmodel.ExpertMigrationBytes()/interBW per move.
	MigrationCost float64
	// ForecastError marks the routing matrix as a *forecast* with the
	// given relative error (the predictor's realized-vs-predicted L1 error
	// on the previous window). The keep-versus-migrate score discounts the
	// predicted improvement by 1/(1+ForecastError) before weighing it
	// against the migration charge, so a shaky forecast must promise
	// proportionally more to justify moving replicas. 0 (an observed
	// matrix, or a perfect forecast) reproduces the undiscounted score;
	// negative values are clamped to 0.
	ForecastError float64
}

// SolveWarm incrementally re-solves a layout from a previous epoch's
// solution: experts whose load moved past the threshold are re-placed
// (their freed slots re-allocated by the Alg. 4 priority queue and by the
// even scheme — the cold solve's candidate set restricted to the moved
// experts — then placed with the Alg. 1 greedy starting from the kept
// placements); every other expert keeps its devices. The incremental
// candidates compete against keeping Prev unchanged, scored by Eq. 2 cost
// plus MigrationCost per moved replica, so a marginal improvement never
// pays for a large migration.
//
// A nil Prev falls back to the cold Solve. Unlike Solve, SolveWarm draws
// no randomness, so it is deterministic for any Epsilon setting. Every
// intermediate lives in a per-solver scratch arena (see Recycle for the
// candidate-layout free list), so steady-state warm solves allocate only
// the returned Solution; consequently a Solver must not run concurrent
// SolveWarm calls.
func (s *Solver) SolveWarm(r *trace.RoutingMatrix, warm WarmStart) (*Solution, error) {
	return s.solveWarm(r, warm, nil)
}

// solveWarm is SolveWarm carried by a drift tracker when tr is non-nil.
// The caller guarantees tr is bound to exactly this warm start (Prev,
// PrevLoads, Threshold); Layer is the caller that keeps it so. The solve
// then folds the routing in as a delta, skips the load re-scan and the
// moved-set sweep, and, when nothing crossed the threshold, returns the
// keep verdict without scoring the layer (Solution.Cost scores it if
// asked). The result is bit-identical to the untracked path (see
// driftTracker).
func (s *Solver) solveWarm(r *trace.RoutingMatrix, warm WarmStart, tr *driftTracker) (*Solution, error) {
	if warm.Prev == nil {
		return s.Solve(r)
	}
	n := s.Topo.N()
	if r.N != n {
		return nil, fmt.Errorf("planner: routing matrix for %d devices, topology has %d", r.N, n)
	}
	if warm.Prev.E != r.E || warm.Prev.N != n {
		return nil, fmt.Errorf("planner: warm-start layout %dx%d does not match routing %dx%d", warm.Prev.E, warm.Prev.N, r.E, n)
	}
	thr := normalizeWarmThreshold(warm.Threshold)
	w := &s.warm
	w.resize(r.E, n)

	// With a drift tracker the load re-scan and the moved-set sweep
	// collapse into one delta fold — amortized O(changed cells) — and a
	// below-threshold epoch returns the keep verdict unscored, never
	// touching the O(N·E) cost evaluation at all.
	var loads []float64
	moved := w.moved
	anyMoved := false
	if tr != nil {
		// A bound tracker's layout is Prev, which the cache describes.
		if err := tr.update(r, &w.route); err != nil {
			return nil, err
		}
		loads = tr.loads
		if tr.canKeep() {
			return &Solution{
				Layout:     warm.Prev,
				Candidates: 1,
				params:     &s.Params,
				r:          r,
				topo:       s.Topo,
			}, nil
		}
		copy(moved, tr.over) // SolveWarm's moved[] without the re-scan
		anyMoved = true
	} else {
		loads = r.ExpertLoadsInto(w.loads)
		switch {
		case len(warm.PrevLoads) == 0:
			for j := range moved {
				moved[j] = true
			}
			anyMoved = true
		case len(warm.PrevLoads) != r.E:
			return nil, fmt.Errorf("planner: %d previous loads for %d experts", len(warm.PrevLoads), r.E)
		default:
			for j := range moved {
				moved[j] = drifted(loads[j], warm.PrevLoads[j], thr)
				anyMoved = anyMoved || moved[j]
			}
		}
	}

	// Score keeping Prev. Its replica lists persist in the scratch across
	// solves: every scored solve leaves the cache on the layout it
	// returned, so once the caller installs that layout the O(E*N) rebuild
	// is skipped. The cache is keyed on the layout pointer and dropped
	// whenever that buffer is reissued for rewriting, so it can never
	// describe stale contents — provided callers treat returned layouts
	// as immutable (they must anyway).
	if w.built != warm.Prev {
		w.route.buildReplicas(warm.Prev, s.Topo)
		w.built = warm.Prev
	}
	keepCost := evalBuiltLayoutCost(r, warm.Prev, s.Topo, s.Params, &w.route)
	if !anyMoved {
		return &Solution{
			Layout:     warm.Prev,
			Candidates: 1,
			cost:       keepCost,
		}, nil
	}

	cands, err := s.incrementalLayouts(warm.Prev, loads, moved)
	if err != nil {
		return nil, err
	}

	// Keep wins ties (a re-layout that buys nothing should not churn),
	// then candidate order. A candidate's score is its cost with the
	// improvement over keeping discounted by forecast confidence, plus the
	// migration charge: with a perfectly trusted matrix (ForecastError 0)
	// this is exactly cost + MigrationCost*moves. A leading candidate's
	// scoring walk becomes the cache.
	discount := 1.0
	if warm.ForecastError > 0 {
		discount = 1 / (1 + warm.ForecastError)
	}
	best, bestCost, bestMoves, bestScore := warm.Prev, keepCost, 0, keepCost
	for _, cand := range cands {
		cost := evalLayoutCost(r, cand, s.Topo, s.Params, &w.routeCand)
		// Candidates differ from Prev only on the re-placed experts (kept
		// rows are copied verbatim), so counting moves there suffices.
		moves := migrationMovesRows(warm.Prev, cand, w.movedIdx)
		score := keepCost - (keepCost-cost)*discount + warm.MigrationCost*float64(moves)
		if score < bestScore {
			best, bestCost, bestMoves, bestScore = cand, cost, moves, score
			w.promote(cand)
		}
	}
	// Losing candidate buffers go straight back to the free list; the
	// winner (when it is not Prev itself) transfers to the caller.
	for _, cand := range cands {
		if cand != best {
			s.Recycle(cand)
		}
	}
	return &Solution{
		Layout:        best,
		Candidates:    1 + len(cands),
		Migrations:    bestMoves,
		MigrationTime: warm.MigrationCost * float64(bestMoves),
		cost:          bestCost,
	}, nil
}

// incrementalLayouts keeps the placements of unmoved experts and re-places
// the moved ones into the freed slots, once per base replica scheme (the
// priority-queue and even allocations of Alg. 2, restricted to the moved
// experts — mirroring the cold solve's candidate set). When the kept
// replicas leave fewer slots than moved experts (their replica mass
// collapsed onto the keep set), every expert is marked moved in place and
// the placement retried once; with every expert moved and still too few
// slots it returns (nil, nil). SolverOptions.DisablePQ and DisableEven
// drop the corresponding scheme here too. Candidate layouts come from the
// solver's free list; the caller owns handing them back.
func (s *Solver) incrementalLayouts(prev *Layout, loads []float64, moved []bool) ([]*Layout, error) {
	e, n := prev.E, prev.N
	w := &s.warm
	base := w.base
	base.Zero()
	deviceLoads := w.deviceLoads
	deviceCount := w.deviceCount
	for d := 0; d < n; d++ {
		deviceLoads[d] = 0
		deviceCount[d] = 0
	}
	kept := 0
	movedIdx := w.movedIdx[:0]
	for j := 0; j < e; j++ {
		if moved[j] {
			movedIdx = append(movedIdx, j)
			continue
		}
		reps := 0
		for d, v := range prev.A[j] {
			if v == 0 {
				continue
			}
			base.A[j][d] = v
			deviceCount[d] += v
			reps += v
		}
		kept += reps
		if reps > 0 {
			avg := loads[j] / float64(reps)
			for d, v := range prev.A[j] {
				deviceLoads[d] += avg * float64(v)
			}
		}
	}
	w.movedIdx = movedIdx
	slots := s.Topo.NumAvailable()*s.C - kept
	if slots < len(movedIdx) {
		if len(movedIdx) == e {
			return nil, nil
		}
		for j := range moved {
			moved[j] = true
		}
		return s.incrementalLayouts(prev, loads, moved)
	}
	movedLoads := w.movedLoads[:0]
	for _, j := range movedIdx {
		movedLoads = append(movedLoads, loads[j])
	}
	w.movedLoads = movedLoads

	if s.Opts.DisablePQ && s.Opts.DisableEven {
		return nil, fmt.Errorf("planner: both base replica schemes disabled")
	}

	const (
		schemePQ = iota
		schemeEven
	)
	out := w.cands[:0]
	place := w.place
	var firstReps []int
	for scheme := schemePQ; scheme <= schemeEven; scheme++ {
		if (scheme == schemePQ && s.Opts.DisablePQ) || (scheme == schemeEven && s.Opts.DisableEven) {
			continue
		}
		reps := w.scheme[:len(movedIdx)]
		if firstReps != nil {
			reps = w.schemeAlt[:len(movedIdx)]
		}
		var err error
		if scheme == schemePQ {
			reps, err = allocateReplicas(reps, movedLoads, slots, w.heap)
		} else {
			reps, err = allocateEven(reps, movedLoads, slots, w.order)
		}
		if err != nil {
			return nil, err
		}
		// The two base schemes frequently coincide at large E (every moved
		// expert gets exactly one slot); placing and scoring the duplicate
		// would change nothing — the first occurrence already wins ties.
		if firstReps != nil && slices.Equal(firstReps, reps) {
			continue
		}
		for j := range place {
			place[j] = 0
		}
		for k, j := range movedIdx {
			place[j] = reps[k]
		}
		cand := s.getLayout(e, n)
		cand.CopyFrom(base)
		copy(w.dl, deviceLoads)
		copy(w.dc, deviceCount)
		if err := placeReplicas(cand, place, loads, w.dl, w.dc, s.Topo, s.C, &w.ps); err != nil {
			return nil, err
		}
		out = append(out, cand)
		firstReps = reps
	}
	w.cands = out
	return out, nil
}

// perturb moves one replica from a random multi-replica expert to a random
// other expert, preserving the total slot count and the one-replica
// minimum (Alg. 2 lines 5-7).
func (s *Solver) perturb(reps []int) []int {
	out := append([]int(nil), reps...)
	donors := s.donors[:0]
	for j, v := range out {
		if v > 1 {
			donors = append(donors, j)
		}
	}
	s.donors = donors
	if len(donors) == 0 {
		return out
	}
	from := donors[s.rng.Intn(len(donors))]
	to := s.rng.Intn(len(out))
	for to == from && len(out) > 1 {
		to = s.rng.Intn(len(out))
	}
	out[from]--
	out[to]++
	return out
}
