package planner

import (
	"fmt"

	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// Planner is the asynchronous per-layer planning loop of Fig. 7: while
// layer L of iteration t executes, the CPU-side tuner combines the freshly
// observed routing of layer L with an exponential moving average of its
// history and solves the expert re-layout strategy that layer L will use
// in iteration t+1. The synchronous token dispatcher (lite routing) then
// maps each iteration's actual routing onto whatever layout is current.
type Planner struct {
	Layers int
	solver *Solver

	// HistoryAlpha is the EMA smoothing factor applied to observed routing
	// matrices before solving; 1.0 plans purely from the last iteration.
	HistoryAlpha float64

	ema     [][][]float64 // raw EMA values per layer [n][e]
	layouts []*Layout     // layout in force per layer
}

// New builds a planner with an initial static-EP layout per layer, the
// state a training run starts from before any routing has been observed.
func New(topo *topology.Topology, layers, e, c int, params CostParams, opts SolverOptions, historyAlpha float64) (*Planner, error) {
	if layers <= 0 {
		return nil, fmt.Errorf("planner: layer count %d must be positive", layers)
	}
	if historyAlpha <= 0 || historyAlpha > 1 {
		return nil, fmt.Errorf("planner: history alpha %g out of (0,1]", historyAlpha)
	}
	initial, err := StaticEP(e, topo.N(), c)
	if err != nil {
		return nil, err
	}
	p := &Planner{
		Layers:       layers,
		solver:       NewSolver(topo, c, params, opts),
		HistoryAlpha: historyAlpha,
		layouts:      make([]*Layout, layers),
		ema:          make([][][]float64, layers),
	}
	for l := range p.layouts {
		p.layouts[l] = initial
	}
	return p, nil
}

// Layout returns the layout currently in force for a layer.
func (p *Planner) Layout(layer int) *Layout { return p.layouts[layer] }

// Dispatch runs the synchronous token dispatcher for a layer's observed
// routing against the layout currently in force, in the traffic form: the
// executor reads nothing else.
func (p *Planner) Dispatch(layer int, r *trace.RoutingMatrix) *Dispatch {
	return LiteTraffic(r, p.layouts[layer], p.solver.Topo)
}

// Observe folds the observed routing of one layer into its history and
// solves the re-layout strategy for the next iteration of that layer. The
// returned solution is informational; the planner installs its layout.
func (p *Planner) Observe(layer int, r *trace.RoutingMatrix) (*Solution, error) {
	if layer < 0 || layer >= p.Layers {
		return nil, fmt.Errorf("planner: layer %d out of range [0,%d)", layer, p.Layers)
	}
	if p.ema[layer] == nil {
		p.ema[layer] = make([][]float64, r.N)
		for i := range p.ema[layer] {
			p.ema[layer][i] = make([]float64, r.E)
			for j := range p.ema[layer][i] {
				p.ema[layer][i][j] = float64(r.R[i][j])
			}
		}
	} else {
		a := p.HistoryAlpha
		for i := 0; i < r.N; i++ {
			for j := 0; j < r.E; j++ {
				p.ema[layer][i][j] = a*float64(r.R[i][j]) + (1-a)*p.ema[layer][i][j]
			}
		}
	}
	predicted := trace.NewRoutingMatrix(r.N, r.E)
	for i := 0; i < r.N; i++ {
		for j := 0; j < r.E; j++ {
			predicted.R[i][j] = int(p.ema[layer][i][j] + 0.5)
		}
	}
	sol, err := p.solver.Solve(predicted)
	if err != nil {
		return nil, err
	}
	p.layouts[layer] = sol.Layout
	return sol, nil
}
