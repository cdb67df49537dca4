package planner

import (
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
	loads := d.ReceivedLoads()
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
	loads := d.ReceivedLoads()
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

// TestLiteImbalanceMatchesDispatch pins the streaming imbalance to the
// materialized reference: max/mean of LiteRouting's received loads, for
// randomized routings and layouts (including all-zero routing, where both
// report the perfect-balance convention 1).
func TestLiteImbalanceMatchesDispatch(t *testing.T) {
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
		loads := LiteRouting(r, layout, topo).ReceivedLoads()
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
		return LiteImbalance(r, layout, topo) == want
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
	loads := d.ReceivedLoads()
	if loads[1] != 40 || loads[3] != 0 {
		t.Errorf("naive routing loads = %v, want all 40 on device 1", loads)
	}
	// Lite routing spreads the same workload.
	lite := LiteRouting(r, layout, topo)
	ll := lite.ReceivedLoads()
	if ll[1] != 20 || ll[3] != 20 {
		t.Errorf("lite routing loads = %v, want 20/20", ll)
	}
}

func TestDispatchHelpers(t *testing.T) {
	d := &Dispatch{N: 2, E: 1, Assignments: []Assignment{
		{Src: 0, Expert: 0, Dst: 1, Tokens: 5},
		{Src: 1, Expert: 0, Dst: 1, Tokens: 3},
	}}
	if got := d.SentLoads(); got[0] != 5 || got[1] != 3 {
		t.Errorf("SentLoads = %v", got)
	}
	if got := d.ReceivedLoads(); got[1] != 8 || got[0] != 0 {
		t.Errorf("ReceivedLoads = %v", got)
	}
	vol := comm.NewVolumeMatrix(2)
	vol.Bytes[1][0] = 7 // stale volume from a previous dispatch
	d.FillVolumeMatrix(vol, 100)
	if vol.Bytes[0][1] != 500 || vol.Bytes[1][1] != 0 || vol.Bytes[1][0] != 0 {
		t.Errorf("FillVolumeMatrix wrong: %v", vol.Bytes)
	}
}
