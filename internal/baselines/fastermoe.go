package baselines

import (
	"time"

	"laermoe/internal/comm"
	"laermoe/internal/executor"
	"laermoe/internal/model"
	"laermoe/internal/planner"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

// FasterMoE reproduces the "shadowing" policy of FasterMoE (He et al.,
// PPoPP 2022): each iteration, experts whose load exceeds HotThreshold
// times the mean are broadcast to every device, their tokens are then
// computed locally (no token All-to-All for them), and their gradients are
// all-reduced across the cluster. The policy removes hot-expert tail
// latency but pays explicit, skewed parameter traffic proportional to the
// number of shadows — the drawback Sec. 6 highlights.
type FasterMoE struct {
	Topo *topology.Topology
	Arch *model.Config
	// HotThreshold marks expert j hot when load_j > HotThreshold * mean.
	HotThreshold float64

	comm        *comm.Model
	static      *planner.Layout
	plannerTime float64
}

// NewFasterMoE builds the scheduler over the static EP baseline layout.
func NewFasterMoE(topo *topology.Topology, arch *model.Config, hotThreshold float64) (*FasterMoE, error) {
	static, err := planner.StaticEP(arch.Experts, topo.N(), arch.ExpertCapacity)
	if err != nil {
		return nil, err
	}
	return &FasterMoE{
		Topo: topo, Arch: arch, HotThreshold: hotThreshold,
		comm: comm.New(topo), static: static,
	}, nil
}

// PlannerTime implements Scheduler.
func (f *FasterMoE) PlannerTime() float64 { return f.plannerTime }

// Plan implements Scheduler.
func (f *FasterMoE) Plan(routing []*trace.RoutingMatrix) ([]executor.LayerPlan, error) {
	plans := make([]executor.LayerPlan, len(routing))
	start := time.Now()
	n := f.Topo.N()
	c := f.Arch.ExpertCapacity
	pep := f.Arch.Experts / c
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	expertBytes := float64(f.Arch.ExpertBytes())

	for li, r := range routing {
		loads := r.ExpertLoads()
		mean := 0.0
		for _, v := range loads {
			mean += v
		}
		mean /= float64(len(loads))
		hot := make(map[int]bool)
		for j, v := range loads {
			if v > f.HotThreshold*mean {
				hot[j] = true
			}
		}

		layout := f.static.Clone()
		var as []planner.Assignment
		for i := 0; i < r.N; i++ {
			groupStart := (i / pep) * pep
			for j := 0; j < r.E; j++ {
				if r.R[i][j] == 0 {
					continue
				}
				dst := groupStart + j/c
				if hot[j] {
					dst = i // shadowed: compute locally
					layout.A[j][i] = max(layout.A[j][i], 1)
				}
				as = append(as, planner.Assignment{
					Src: i, Expert: j, Dst: dst, Tokens: r.R[i][j],
				})
			}
		}

		// Shadowing cost: broadcast each hot expert's parameters to every
		// device and all-reduce its gradients back (forward + backward).
		extra := 0.0
		for range hot {
			extra += f.comm.Broadcast(all, expertBytes) + f.comm.AllReduce(all, expertBytes)
		}
		plans[li] = executor.LayerPlan{Layout: layout, Dispatch: planner.NewDispatch(r.N, r.E, as), ExtraRelayoutTime: extra}
	}
	f.plannerTime = time.Since(start).Seconds()
	return plans, nil
}
