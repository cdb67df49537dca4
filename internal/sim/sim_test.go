package sim

import (
	"math"
	"testing"
)

func run(t *testing.T, e *Engine) *Result {
	t.Helper()
	r, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestStreamsAreInOrder(t *testing.T) {
	e := NewEngine(1)
	a := e.Compute(0, StreamCompute, CatOther, 1.0)
	b := e.Compute(0, StreamCompute, CatOther, 2.0)
	r := run(t, e)
	as, ae := r.TaskWindow(a)
	bs, be := r.TaskWindow(b)
	if as != 0 || ae != 1 || bs != 1 || be != 3 {
		t.Errorf("in-order stream violated: a=[%g,%g] b=[%g,%g]", as, ae, bs, be)
	}
}

func TestStreamsOverlap(t *testing.T) {
	e := NewEngine(1)
	e.Compute(0, StreamCompute, CatExpert, 5.0)
	e.Compute(0, StreamPrefetch, CatPrefetch, 3.0)
	r := run(t, e)
	if r.Makespan() != 5.0 {
		t.Errorf("makespan = %g, want 5 (streams overlap)", r.Makespan())
	}
}

func TestDependenciesAcrossStreams(t *testing.T) {
	e := NewEngine(1)
	a := e.Compute(0, StreamCompute, CatOther, 2.0)
	b := e.Compute(0, StreamPrefetch, CatPrefetch, 1.0, a)
	r := run(t, e)
	bs, be := r.TaskWindow(b)
	if bs != 2.0 || be != 3.0 {
		t.Errorf("dependent task ran at [%g,%g], want [2,3]", bs, be)
	}
}

func TestCollectiveSynchronizesMembers(t *testing.T) {
	e := NewEngine(2)
	// Device 0 is busy until t=4, device 1 until t=1.
	a0 := e.Compute(0, StreamCompute, CatExpert, 4.0)
	a1 := e.Compute(1, StreamCompute, CatExpert, 1.0)
	ids := e.Collective([]int{0, 1}, StreamA2A, CatA2A, 2.0, []TaskID{a0, a1})
	r := run(t, e)
	s0, e0 := r.TaskWindow(ids[0])
	s1, e1 := r.TaskWindow(ids[1])
	if s0 != 4 || s1 != 4 || e0 != 6 || e1 != 6 {
		t.Errorf("collective not synchronized: [%g,%g] and [%g,%g]", s0, e0, s1, e1)
	}
	// The early device is measured as waiting inside the collective:
	// exposed time on device 1 = end - ready = 6 - 1 = 5.
	if got := r.CategoryTime(1, CatA2A); math.Abs(got-5) > 1e-12 {
		t.Errorf("device 1 a2a exposure = %g, want 5 (wait + transfer)", got)
	}
	if got := r.CategoryTime(0, CatA2A); math.Abs(got-2) > 1e-12 {
		t.Errorf("device 0 a2a exposure = %g, want 2", got)
	}
	if got := r.MeanCategoryTime(CatA2A); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("mean a2a exposure = %g, want 3.5", got)
	}
}

// TestImbalanceBecomesA2AWait is the Fig. 1b mechanism in miniature:
// overloaded expert computation on one rank shows up as All-to-All time on
// every other rank.
func TestImbalanceBecomesA2AWait(t *testing.T) {
	build := func(loads []float64) float64 {
		e := NewEngine(len(loads))
		deps := make([]TaskID, len(loads))
		devs := make([]int, len(loads))
		for d, l := range loads {
			deps[d] = e.Compute(d, StreamCompute, CatExpert, l)
			devs[d] = d
		}
		e.Collective(devs, StreamA2A, CatA2A, 0.1, deps)
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.MeanCategoryTime(CatA2A)
	}
	balanced := build([]float64{1, 1, 1, 1})
	imbalanced := build([]float64{2.5, 0.5, 0.5, 0.5})
	if imbalanced <= balanced*2 {
		t.Errorf("imbalance should inflate measured a2a time: %g vs %g", imbalanced, balanced)
	}
}

// TestDeadlockDetection: a task at the head of its stream that depends on
// a task enqueued behind it on the same stream can never run; Run must
// report the deadlock instead of hanging.
func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	p := e.addTask(0, StreamCompute, CatOther, 1, -1, nil)
	// Forward reference: patch a dependency on the not-yet-enqueued q into
	// the arena.
	e.depArena = append(e.depArena, TaskID(1))
	e.tasks[p].depOff = len(e.depArena) - 1
	e.tasks[p].depCnt = 1
	e.addTask(0, StreamCompute, CatOther, 1, -1, nil)
	if _, err := e.Run(); err == nil {
		t.Error("deadlocked graph completed successfully")
	}
}

// TestCrossCollectiveDeadlock: two collectives enqueued in opposite order
// on two devices' streams block each other and must be reported.
func TestCrossCollectiveDeadlock(t *testing.T) {
	e := NewEngine(2)
	// Device 0 stream order: A then B. Device 1 stream order: B then A.
	ci := len(e.collectives)
	e.collectives = append(e.collectives, collective{duration: 1})
	a0 := e.addTask(0, StreamA2A, CatA2A, 1, ci, nil)
	cj := len(e.collectives)
	e.collectives = append(e.collectives, collective{duration: 1})
	b1 := e.addTask(1, StreamA2A, CatA2A, 1, cj, nil)
	b0 := e.addTask(0, StreamA2A, CatA2A, 1, cj, nil)
	a1 := e.addTask(1, StreamA2A, CatA2A, 1, ci, nil)
	e.collectives[ci].members = []TaskID{a0, a1}
	e.collectives[cj].members = []TaskID{b0, b1}
	if _, err := e.Run(); err == nil {
		t.Error("conflicting collective order completed successfully")
	}
}

func TestCollectiveSubsetLeavesOthersFree(t *testing.T) {
	e := NewEngine(3)
	e.Collective([]int{0, 1}, StreamA2A, CatA2A, 2.0, nil)
	free := e.Compute(2, StreamCompute, CatExpert, 1.0)
	r := run(t, e)
	if _, end := r.TaskWindow(free); end != 1.0 {
		t.Errorf("non-member device blocked by collective: end=%g", end)
	}
}

func TestZeroDurationTasks(t *testing.T) {
	e := NewEngine(1)
	a := e.Compute(0, StreamCompute, CatOther, 0)
	b := e.Compute(0, StreamCompute, CatOther, 1, a)
	r := run(t, e)
	if _, end := r.TaskWindow(b); end != 1 {
		t.Errorf("end = %g, want 1", end)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { NewEngine(0) },
		func() { NewEngine(1).Compute(5, StreamCompute, CatOther, 1) },
		func() { NewEngine(1).Compute(0, StreamCompute, CatOther, -1) },
		func() { NewEngine(1).Compute(0, StreamCompute, CatOther, 1, TaskID(42)) },
		func() { NewEngine(1).Collective(nil, StreamA2A, CatA2A, 1, nil) },
		func() {
			e := NewEngine(2)
			e.Collective([]int{0, 1}, StreamA2A, CatA2A, 1, []TaskID{NoTask})
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCategoryAndStreamStrings(t *testing.T) {
	for c := Category(0); c < NumCategories; c++ {
		if c.String() == "" {
			t.Errorf("category %d has empty name", c)
		}
	}
	for s := Stream(0); s < NumStreams; s++ {
		if s.String() == "" {
			t.Errorf("stream %d has empty name", s)
		}
	}
}
