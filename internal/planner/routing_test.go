package planner

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"laermoe/internal/comm"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
)

func matrixFrom(rows [][]int) *trace.RoutingMatrix {
	m := trace.NewRoutingMatrix(len(rows), len(rows[0]))
	for i := range rows {
		copy(m.R[i], rows[i])
	}
	return m
}

// TestLiteRoutingConservation: the dispatch must route exactly R[i][j]
// tokens for every (device, expert) and only to replica hosts (Alg. 3).
func TestLiteRoutingConservation(t *testing.T) {
	topo := topology.New(2, 2)
	layout := NewLayout(3, 4)
	layout.A[0][0], layout.A[0][2] = 1, 1 // expert 0 on both nodes
	layout.A[1][1] = 1                    // expert 1 only on node 0
	layout.A[2][3] = 1                    // expert 2 only on node 1
	r := matrixFrom([][]int{
		{10, 5, 3},
		{7, 0, 2},
		{4, 9, 1},
		{8, 8, 8},
	})
	d := LiteRouting(r, layout, topo)
	if err := d.Validate(r, layout); err != nil {
		t.Fatalf("lite routing violates conservation: %v", err)
	}
}

// TestLiteRoutingPrefersIntraNode: with a replica on every node, no token
// crosses a node boundary except where the source device's node lacks one.
func TestLiteRoutingPrefersIntraNode(t *testing.T) {
	topo := topology.New(2, 2)
	layout := NewLayout(2, 4)
	layout.A[0][0], layout.A[0][2] = 1, 1 // expert 0: replica on each node
	layout.A[1][1], layout.A[1][3] = 1, 1 // expert 1: replica on each node
	r := matrixFrom([][]int{
		{10, 10},
		{10, 10},
		{10, 10},
		{10, 10},
	})
	d := LiteRouting(r, layout, topo)
	if got := d.CrossNodeTokens(topo); got != 0 {
		t.Errorf("%d tokens crossed nodes despite intra-node replicas", got)
	}
}

// TestLiteRoutingFallsBackToGlobal: an expert with no intra-node replica
// splits its tokens across all global replicas evenly.
func TestLiteRoutingFallsBackToGlobal(t *testing.T) {
	topo := topology.New(2, 2)
	layout := NewLayout(1, 4)
	layout.A[0][2], layout.A[0][3] = 1, 1 // both replicas on node 1
	r := matrixFrom([][]int{{100}, {0}, {0}, {0}})
	d := LiteRouting(r, layout, topo)
	loads := d.Loads()
	if loads[2] != 50 || loads[3] != 50 {
		t.Errorf("global fallback split = %v, want 50/50 on devices 2,3", loads)
	}
}

// TestLiteRoutingEvenSplit: tokens split across intra-node replicas within
// one token of each other.
func TestLiteRoutingEvenSplit(t *testing.T) {
	topo := topology.New(1, 4)
	layout := NewLayout(1, 4)
	layout.A[0][0], layout.A[0][1], layout.A[0][2] = 1, 1, 1
	r := matrixFrom([][]int{{100}, {0}, {0}, {0}})
	d := LiteRouting(r, layout, topo)
	loads := d.Loads()
	for dev := 0; dev < 3; dev++ {
		if loads[dev] < 33 || loads[dev] > 34 {
			t.Errorf("device %d load %d, want 33 or 34", dev, loads[dev])
		}
	}
	if loads[3] != 0 {
		t.Errorf("non-replica device received %d tokens", loads[3])
	}
}

// TestLiteRoutingPropertyConservation: property-based conservation over
// random matrices and layouts.
func TestLiteRoutingPropertyConservation(t *testing.T) {
	topo := topology.New(2, 4)
	f := func(cells []uint8, layoutBits uint32) bool {
		const n, e = 8, 4
		r := trace.NewRoutingMatrix(n, e)
		for i := 0; i < n; i++ {
			for j := 0; j < e; j++ {
				idx := i*e + j
				if idx < len(cells) {
					r.R[i][j] = int(cells[idx])
				}
			}
		}
		layout := NewLayout(e, n)
		for j := 0; j < e; j++ {
			any := false
			for d := 0; d < n; d++ {
				if layoutBits>>(uint(j*n+d)%31)&1 == 1 {
					layout.A[j][d] = 1
					any = true
				}
			}
			if !any {
				layout.A[j][j%n] = 1
			}
		}
		d := LiteRouting(r, layout, topo)
		// The closed-form assignment count sizes the slice exactly.
		return d.Validate(r, layout) == nil && len(d.Assignments) == cap(d.Assignments)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestScoredImbalanceMatchesDispatch pins the imbalance a planning step
// reads off the solver's scoring walk to the materialized reference:
// LoadImbalance of the device loads evalLayoutCost leaves in its scratch
// equals max/mean of LiteRouting's received loads, for randomized
// routings and layouts and for the all-zero routing, where both report
// the perfect-balance convention 1.
func TestScoredImbalanceMatchesDispatch(t *testing.T) {
	topo := topology.New(2, 4)
	f := func(cells []uint8, layoutBits uint32) bool {
		const n, e = 8, 4
		r := trace.NewRoutingMatrix(n, e)
		for i := 0; i < n; i++ {
			for j := 0; j < e; j++ {
				idx := i*e + j
				if idx < len(cells) {
					r.R[i][j] = int(cells[idx])
				}
			}
		}
		layout := NewLayout(e, n)
		for j := 0; j < e; j++ {
			any := false
			for d := 0; d < n; d++ {
				if layoutBits>>(uint(j*n+d)%31)&1 == 1 {
					layout.A[j][d] = 1
					any = true
				}
			}
			if !any {
				layout.A[j][j%n] = 1
			}
		}
		loads := LiteRouting(r, layout, topo).Loads()
		sum, maxLoad := 0.0, loads[0]
		for _, v := range loads {
			sum += float64(v)
			if v > maxLoad {
				maxLoad = v
			}
		}
		want := 1.0
		if mean := sum / float64(len(loads)); mean != 0 {
			want = float64(maxLoad) / mean
		}
		var sc routeScratch
		evalLayoutCost(r, layout, topo, testParams(), &sc)
		return LoadImbalance(sc.loads, topo.NumAvailable()) == want
	}
	if !f(nil, 0) {
		t.Error("the all-zero routing does not read 1")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEPRouting(t *testing.T) {
	r := matrixFrom([][]int{
		{10, 0, 0, 5},
		{0, 8, 0, 0},
		{1, 1, 1, 1},
		{0, 0, 0, 9},
	})
	d, err := EPRouting(r, 2) // E=4, C=2 -> P_ep=2, groups {0,1} {2,3}
	if err != nil {
		t.Fatal(err)
	}
	layout, err := StaticEP(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(r, layout); err != nil {
		t.Fatalf("EP routing invalid: %v", err)
	}
	// Device 0's expert-3 tokens go to device 1 (owner of experts 2,3 in
	// group 0).
	found := false
	for _, a := range d.Assignments {
		if a.Src == 0 && a.Expert == 3 {
			found = true
			if a.Dst != 1 {
				t.Errorf("expert 3 from device 0 routed to %d, want 1", a.Dst)
			}
		}
		if a.Src >= 2 && a.Dst < 2 {
			t.Errorf("assignment %+v escapes its EP group", a)
		}
	}
	if !found {
		t.Error("expected assignment missing")
	}
	if _, err := EPRouting(r, 3); err == nil {
		t.Error("non-divisible capacity accepted")
	}
}

func TestNaiveReplicaRouting(t *testing.T) {
	topo := topology.New(1, 4)
	layout := NewLayout(1, 4)
	layout.A[0][1], layout.A[0][3] = 1, 1
	r := matrixFrom([][]int{{10}, {10}, {10}, {10}})
	d := NaiveReplicaRouting(r, layout)
	loads := d.Loads()
	if loads[1] != 40 || loads[3] != 0 {
		t.Errorf("naive routing loads = %v, want all 40 on device 1", loads)
	}
	// Lite routing spreads the same workload.
	lite := LiteRouting(r, layout, topo)
	ll := lite.Loads()
	if ll[1] != 20 || ll[3] != 20 {
		t.Errorf("lite routing loads = %v, want 20/20", ll)
	}
}

func TestDispatchHelpers(t *testing.T) {
	d := NewDispatch(2, 1, []Assignment{
		{Src: 0, Expert: 0, Dst: 1, Tokens: 5},
		{Src: 1, Expert: 0, Dst: 1, Tokens: 3},
	})
	if got := d.Loads(); !slices.Equal(got, []int{0, 8}) {
		t.Errorf("Loads = %v", got)
	}
	buf := []int32{0, 0, 7, 0} // stale counts from a previous dispatch
	got := d.PairTokens(buf)
	if !slices.Equal(got, []int32{0, 5, 0, 3}) || &got[0] != &buf[0] {
		t.Errorf("PairTokens = %v, want [0 5 0 3] summed into the caller's buffer", got)
	}
	if got := d.PairTokens(buf[:1]); !slices.Equal(got, []int32{0, 5, 0, 3}) {
		t.Errorf("PairTokens into a short buffer = %v", got)
	}
	if got := d.CrossNodeTokens(topology.New(2, 1)); got != 5 {
		t.Errorf("CrossNodeTokens = %d, want 5", got)
	}
}

// TestLiteTrafficMatchesLiteRouting: on generated routings and layouts,
// over clusters with a removed node and non-nominal link classes, the
// traffic form carries exactly what LiteRouting's assignments sum to
// (received loads, per-(src, dst) counts, cross-node tokens), so the
// All-to-All prices the same bits from either form. Validate and CommCost
// reject it. Past int32, LiteTraffic and the assignment form's PairTokens
// panic at the same load.
func TestLiteTrafficMatchesLiteRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nodes := 2 + rng.Intn(3)
		topo := topology.New(nodes, 1+rng.Intn(8))
		n := topo.N()
		if trial%2 == 0 {
			if err := topo.RemoveNode(rng.Intn(nodes)); err != nil {
				t.Fatal(err)
			}
		}
		var live []int
		for d := 0; d < n; d++ {
			if topo.Available(d) {
				live = append(live, d)
			}
		}
		if trial%3 == 0 {
			for _, d := range live {
				if rng.Intn(3) == 0 {
					if err := topo.SetDeviceClassByName(d, []string{"slowlink", "crippled"}[rng.Intn(2)]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		e := 1 + rng.Intn(24)
		r := trace.NewRoutingMatrix(n, e)
		for i := range r.R {
			for j := range r.R[i] {
				if rng.Intn(3) > 0 {
					r.R[i][j] = rng.Intn(1 << rng.Intn(12))
				}
			}
		}
		layout := NewLayout(e, n)
		for j := 0; j < e; j++ {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				layout.A[j][live[rng.Intn(len(live))]]++
			}
		}

		lite := LiteRouting(r, layout, topo)
		traffic := LiteTraffic(r, layout, topo)
		if lite.Traffic() || !traffic.Traffic() || traffic.Assignments != nil {
			t.Fatalf("trial %d: forms mixed up", trial)
		}
		pairs, loads := make([]int, n*n), make([]int, n)
		for _, a := range lite.Assignments {
			pairs[a.Src*n+a.Dst] += a.Tokens
			loads[a.Dst] += a.Tokens
		}
		stale := slices.Repeat([]int32{7}, n*n) // counts from a previous dispatch
		litePairs := lite.PairTokens(stale)
		for i, c := range traffic.PairTokens(nil) {
			if int(c) != pairs[i] || int(litePairs[i]) != pairs[i] {
				t.Fatalf("trial %d: pair %d->%d carries %d tokens (traffic) and %d (PairTokens), assignments sum to %d", trial, i/n, i%n, c, litePairs[i], pairs[i])
			}
		}
		if !slices.Equal(traffic.Loads(), loads) || !slices.Equal(lite.Loads(), loads) {
			t.Fatalf("trial %d: loads %v (traffic) and %v (assignments), assignments sum to %v", trial, traffic.Loads(), lite.Loads(), loads)
		}
		if got, want := traffic.CrossNodeTokens(topo), lite.CrossNodeTokens(topo); got != want {
			t.Fatalf("trial %d: traffic crosses %d tokens, assignments %d", trial, got, want)
		}

		tokenBytes := float64(1 + rng.Intn(1<<14))
		cm := comm.New(topo)
		if a, b := cm.AllToAll(litePairs, tokenBytes), cm.AllToAll(traffic.PairTokens(nil), tokenBytes); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: All-to-All %v from assignments, %v from traffic", trial, a, b)
		}
		if traffic.Validate(r, layout) == nil {
			t.Fatalf("trial %d: Validate accepted a traffic-form dispatch", trial)
		}
	}

	topo := topology.New(1, 2)
	layout := NewLayout(1, 2)
	layout.A[0][1] = 1
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	small := matrixFrom([][]int{{1}, {2}})
	mustPanic("CommCost of a traffic dispatch", func() { CommCost(LiteTraffic(small, layout, topo), topo, testParams()) })
	// Device 1 receives every token: MaxInt32 of them still fit, one more
	// does not, in either form.
	edge := matrixFrom([][]int{{math.MaxInt32 - 1}, {1}})
	if got := LiteRouting(edge, layout, topo).PairTokens(nil); !slices.Equal(got, LiteTraffic(edge, layout, topo).PairTokens(nil)) {
		t.Errorf("pair counts at MaxInt32 tokens: %v from assignments, want the traffic form's", got)
	}
	past := matrixFrom([][]int{{math.MaxInt32}, {1}})
	mustPanic("LiteTraffic past int32", func() { LiteTraffic(past, layout, topo) })
	mustPanic("PairTokens past int32", func() { LiteRouting(past, layout, topo).PairTokens(nil) })
}
