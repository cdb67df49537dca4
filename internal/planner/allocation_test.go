package planner

import (
	"testing"
	"testing/quick"
)

func TestReplicaAllocationBasics(t *testing.T) {
	loads := []float64{100, 10, 10, 10}
	reps, err := ReplicaAllocation(loads, 4, 2) // 8 slots
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for j, r := range reps {
		if r < 1 {
			t.Errorf("expert %d has %d replicas, want >= 1", j, r)
		}
		total += r
	}
	if total != 8 {
		t.Errorf("total replicas %d, want 8", total)
	}
	if reps[0] < reps[1] || reps[0] < reps[2] || reps[0] < reps[3] {
		t.Errorf("hot expert under-replicated: %v", reps)
	}
	// With a 10:1 load ratio and 8 slots, the hot expert should take the
	// lion's share: 100/5 = 20 still beats 10/1 = 10, so it gets 5.
	if reps[0] != 5 {
		t.Errorf("hot expert replicas = %d, want 5", reps[0])
	}
}

// TestReplicaAllocationMinimizesMaxAverage checks the priority-queue
// property: no single replica reassignment can reduce the maximum
// per-replica average load (the greedy is locally optimal).
func TestReplicaAllocationMinimizesMaxAverage(t *testing.T) {
	loads := []float64{73, 19, 42, 8, 55, 31, 27, 12}
	reps, err := ReplicaAllocation(loads, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	maxAvg := func(rs []int) float64 {
		worst := 0.0
		for j, r := range rs {
			if avg := loads[j] / float64(r); avg > worst {
				worst = avg
			}
		}
		return worst
	}
	base := maxAvg(reps)
	for from := range reps {
		if reps[from] <= 1 {
			continue
		}
		for to := range reps {
			if to == from {
				continue
			}
			trial := append([]int(nil), reps...)
			trial[from]--
			trial[to]++
			if maxAvg(trial) < base-1e-9 {
				t.Errorf("moving a replica %d->%d improves max average (%v)", from, to, reps)
			}
		}
	}
}

// TestReplicaAllocationInvariants: property-based — all slots used, every
// expert covered, deterministic.
func TestReplicaAllocationInvariants(t *testing.T) {
	f := func(raw []uint16, nRaw, cRaw uint8) bool {
		e := len(raw)
		if e == 0 || e > 64 {
			return true
		}
		n := int(nRaw%32) + 1
		c := int(cRaw%4) + 1
		if n*c < e {
			return true
		}
		loads := make([]float64, e)
		for i, v := range raw {
			loads[i] = float64(v)
		}
		a, err := ReplicaAllocation(loads, n, c)
		if err != nil {
			return false
		}
		b, err := ReplicaAllocation(loads, n, c)
		if err != nil {
			return false
		}
		total := 0
		for j := range a {
			if a[j] < 1 || a[j] != b[j] {
				return false
			}
			total += a[j]
		}
		return total == n*c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestEvenAllocation(t *testing.T) {
	loads := []float64{5, 50, 20, 1}
	reps, err := EvenAllocation(loads, 4, 2) // 8 slots over 4 experts
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range reps {
		if r != 2 {
			t.Errorf("expert %d: %d replicas, want 2", j, r)
		}
	}
	// Indivisible: 3 devices x 2 slots = 6 slots over 4 experts -> the two
	// hottest experts get the remainder.
	reps, err = EvenAllocation(loads, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reps[1] != 2 || reps[2] != 2 || reps[0] != 1 || reps[3] != 1 {
		t.Errorf("remainder not given to hottest experts: %v", reps)
	}
}

func TestAllocationErrors(t *testing.T) {
	if _, err := ReplicaAllocation(nil, 4, 2); err == nil {
		t.Error("empty loads accepted")
	}
	if _, err := ReplicaAllocation(make([]float64, 10), 2, 2); err == nil {
		t.Error("insufficient slots accepted")
	}
	if _, err := EvenAllocation(nil, 4, 2); err == nil {
		t.Error("empty loads accepted by even allocation")
	}
	if _, err := EvenAllocation(make([]float64, 10), 2, 2); err == nil {
		t.Error("insufficient slots accepted by even allocation")
	}
}

func TestArgsortDesc(t *testing.T) {
	got := argsortDesc(nil, []float64{3, 9, 1, 9})
	// Ties break on the lower index.
	want := []int{1, 3, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("argsortDesc = %v, want %v", got, want)
		}
	}
}
