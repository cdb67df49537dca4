package experiments

import (
	"fmt"
	"strings"

	"laermoe/internal/faults"
	"laermoe/internal/model"
	"laermoe/internal/trace"
	"laermoe/internal/training"
)

// ResilienceCell is one policy's run under one fault schedule.
type ResilienceCell struct {
	Schedule string
	Policy   training.ReplanPolicy

	TotalStepTime float64
	Throughput    float64
	Migrations    int

	// Restored/RestoreTime sum the checkpoint re-read volume and charge
	// over every fault event of the run.
	Restored    int
	RestoreTime float64
	// AddedStepTime, FaultImbalance and EpochsToRecover describe the first
	// failure epoch: the step-time it added over the previous epoch, the
	// imbalance the policy ran at while absorbing it, and how many epochs
	// the policy needed to return to within 10% of the pre-fault imbalance
	// (-1 = not within the run).
	AddedStepTime   float64
	FaultImbalance  float64
	EpochsToRecover int
}

// ResilienceResult is the elasticity experiment: fault-injected node
// loss/join absorbed by re-layout (the adaptive policies) versus the
// static-EP baseline, which must checkpoint-restore the whole layer.
type ResilienceResult struct {
	Table *Table
	Cells []ResilienceCell
}

// resilienceSchedules returns the evaluated fault scenarios. Quick mode
// keeps the loss+rejoin cycle only — the schedule the acceptance golden
// pins.
func resilienceSchedules(quick bool) []string {
	if quick {
		return []string{"2:fail:1,4:join:1"}
	}
	return []string{
		"2:fail:1",            // permanent node loss
		"2:fail:1,4:join:1",   // preemption/repair cycle
		"2.3:fail:2,4:join:2", // mid-epoch loss, the planner reacts inside the window
	}
}

// resiliencePolicies returns the compared recovery mechanisms. Static EP
// is always included — it is the baseline the re-layout policies must
// beat; quick mode drops the predictive arm.
func resiliencePolicies(quick bool) []training.ReplanPolicy {
	if quick {
		return []training.ReplanPolicy{training.ReplanWarm, training.ReplanStatic}
	}
	return []training.ReplanPolicy{training.ReplanPredictive, training.ReplanWarm, training.ReplanStatic}
}

// Resilience runs the elastic-cluster experiment: every policy absorbs the
// same deterministic fault schedules on the same drifting trace, paying
// the modeled checkpoint-restore charge for expert state no surviving
// device holds. The adaptive policies repair by re-layout (re-placing only
// the lost replicas); the static baseline re-reads every slot of the layer
// — the recovery-cost gap is the experiment's headline.
func Resilience(opts Options) (*ResilienceResult, error) {
	opts = opts.withDefaults()
	schedules := resilienceSchedules(opts.Quick)
	policies := resiliencePolicies(opts.Quick)

	type cellCfg struct {
		schedule string
		policy   training.ReplanPolicy
	}
	var cells []cellCfg
	for _, s := range schedules {
		for _, p := range policies {
			cells = append(cells, cellCfg{schedule: s, policy: p})
		}
	}

	runs := make([]ResilienceCell, len(cells))
	err := forEach(opts.Workers(), len(cells), func(i int) error {
		c := cells[i]
		sched, err := faults.Parse(c.schedule)
		if err != nil {
			return fmt.Errorf("resilience %q: %w", c.schedule, err)
		}
		rep, err := training.RunOnline(training.OnlineConfig{
			Policy: c.policy,
			Arch:   model.Mixtral8x7B,
			Topo:   opts.Topo,
			Epochs: 6, IterationsPerEpoch: 6,
			Drift:             trace.DriftConfig{Model: trace.DriftStabilizing},
			Faults:            sched,
			GlobalBatchTokens: 1 << 19,
			Parallelism:       1, // the cells themselves fan out
			Seed:              opts.Seed,
		})
		if err != nil {
			return fmt.Errorf("resilience %q/%s: %w", c.schedule, c.policy, err)
		}
		cell := ResilienceCell{
			Schedule:        c.schedule,
			Policy:          c.policy,
			TotalStepTime:   rep.TotalStepTime,
			Throughput:      rep.MeanThroughput,
			Migrations:      rep.TotalMigrations,
			EpochsToRecover: -1,
		}
		for _, r := range rep.Recoveries {
			cell.Restored += r.Restored
			cell.RestoreTime += r.RestoreTime
		}
		// The first failure epoch carries the recovery story; join epochs
		// only widen the cluster again.
		for _, r := range rep.Recoveries {
			if strings.Contains(strings.Join(r.Events, ","), ":fail:") {
				cell.AddedStepTime = r.AddedStepTime
				cell.FaultImbalance = rep.Epochs[r.Epoch].Imbalance
				cell.EpochsToRecover = r.EpochsToRecover
				break
			}
		}
		runs[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "resilience",
		Title: "Elastic clusters: fault-injected node loss/join, re-layout recovery vs static-EP checkpoint restore",
		Header: []string{"fault schedule", "policy", "total step (s)", "tokens/s",
			"restored", "restore (s)", "added step (s)", "fault imb", "recovered (epochs)", "migrations"},
	}
	for _, cell := range runs {
		recovered := fmt.Sprintf("%d", cell.EpochsToRecover)
		if cell.EpochsToRecover < 0 {
			recovered = "never"
		}
		t.AddRow(cell.Schedule, string(cell.Policy),
			f1(cell.TotalStepTime), f0(cell.Throughput),
			fmt.Sprintf("%d", cell.Restored), f2(cell.RestoreTime),
			f2(cell.AddedStepTime), f2(cell.FaultImbalance),
			recovered, fmt.Sprintf("%d", cell.Migrations))
	}
	t.Notes = append(t.Notes,
		"restore charged per replica re-read from the sharded checkpoint (storage fabric, not the training interconnect)",
		"adaptive policies repair by re-layout and re-read only orphaned experts; static EP re-reads every slot of the layer")
	return &ResilienceResult{Table: t, Cells: runs}, nil
}
