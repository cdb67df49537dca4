package comm

import (
	"math"
	"testing"

	"laermoe/internal/topology"
)

func modelAndTopo() (*Model, *topology.Topology) {
	topo := topology.Default()
	return New(topo), topo
}

// counts returns the row-major pair counts of an n-device exchange that
// moves one token along each listed (src, dst) pair.
func counts(n int, pairs ...[2]int) []int32 {
	c := make([]int32, n*n)
	for _, p := range pairs {
		c[p[0]*n+p[1]]++
	}
	return c
}

func TestAllToAllZeroVolume(t *testing.T) {
	m, topo := modelAndTopo()
	if got := m.AllToAll(counts(topo.N()), 1e9); got != 0 {
		t.Errorf("empty All-to-All time = %g, want 0", got)
	}
}

func TestAllToAllIgnoresSelfTransfers(t *testing.T) {
	m, topo := modelAndTopo()
	self := counts(topo.N())
	self[3*topo.N()+3] = 1 << 30 // local copy, no wire time
	if got := m.AllToAll(self, 1e3); got != 0 {
		t.Errorf("self-transfer costed %g, want 0", got)
	}
	// Nor does a self-transfer count as a message next to a real send.
	one := counts(topo.N(), [2]int{3, 8})
	both := counts(topo.N(), [2]int{3, 8}, [2]int{3, 3})
	if a, b := m.AllToAll(one, 1e9), m.AllToAll(both, 1e9); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("a self-transfer moved the All-to-All from %v to %v", a, b)
	}
}

func TestAllToAllLinkClasses(t *testing.T) {
	m, topo := modelAndTopo()
	bytes := 1e9
	intra := counts(topo.N(), [2]int{0, 1})
	inter := counts(topo.N(), [2]int{0, 8})
	ti, tx := m.AllToAll(intra, bytes), m.AllToAll(inter, bytes)
	if ti >= tx {
		t.Errorf("intra transfer (%g) not faster than inter (%g)", ti, tx)
	}
	wantIntra := bytes/topology.DefaultIntraBW + topo.Latency
	if math.Abs(ti-wantIntra)/wantIntra > 1e-9 {
		t.Errorf("intra time = %g, want %g", ti, wantIntra)
	}
	// A pair's bytes are its count times the token size: 4000 tokens of
	// 250000 bytes price the same bits as one token of 1e9.
	intra[1] = 4000
	if got := m.AllToAll(intra, 250000); math.Float64bits(got) != math.Float64bits(ti) {
		t.Errorf("4000 x 250000 bytes = %v, 1 x 1e9 bytes = %v", got, ti)
	}
}

func TestAllToAllSerializesSends(t *testing.T) {
	m, topo := modelAndTopo()
	one := counts(topo.N(), [2]int{0, 8})
	two := counts(topo.N(), [2]int{0, 8}, [2]int{0, 16})
	t1, t2 := m.AllToAll(one, 1e9), m.AllToAll(two, 1e9)
	if t2 < 1.9*t1-topo.Latency*4 {
		t.Errorf("two sends (%g) should take ~2x one send (%g)", t2, t1)
	}
}

func TestAllToAllBottleneckDevice(t *testing.T) {
	m, topo := modelAndTopo()
	// Device 0 receives from everyone: completion is gated by its ingress.
	incast, spread := counts(topo.N()), counts(topo.N())
	for src := 1; src < topo.N(); src++ {
		incast[src*topo.N()]++
		spread[src*topo.N()+(src+1)%topo.N()]++
	}
	if m.AllToAll(incast, 1e9) <= m.AllToAll(spread, 1e9) {
		t.Error("incast pattern should be slower than spread pattern")
	}
}

func TestAllGatherReduceScatterRelations(t *testing.T) {
	m, topo := modelAndTopo()
	group := topo.NodeDevices(0)
	shard := 1e8
	ag := m.AllGather(group, shard)
	rs := m.ReduceScatter(group, shard*float64(len(group)))
	if math.Abs(ag-rs)/ag > 1e-9 {
		t.Errorf("ring AG (%g) and RS of the same total (%g) should match", ag, rs)
	}
	ar := m.AllReduce(group, shard*float64(len(group)))
	if math.Abs(ar-(ag+rs))/ar > 1e-9 {
		t.Errorf("AllReduce (%g) should equal RS+AG (%g)", ar, ag+rs)
	}
}

func TestCollectivesDegenerateCases(t *testing.T) {
	m, topo := modelAndTopo()
	single := []int{0}
	if m.AllGather(single, 1e9) != 0 || m.ReduceScatter(single, 1e9) != 0 ||
		m.AllReduce(single, 1e9) != 0 || m.Broadcast(single, 1e9) != 0 {
		t.Error("single-member collectives should be free")
	}
	if m.AllGather(topo.NodeDevices(0), 0) != 0 {
		t.Error("zero-byte all-gather should be free")
	}
	if m.P2P(2, 2, 1e9) != 0 {
		t.Error("self P2P should be free")
	}
}

func TestCrossNodeGroupsAreSlower(t *testing.T) {
	m, topo := modelAndTopo()
	intra := topo.NodeDevices(0)
	cross := []int{0, 8, 16, 24, 1, 9, 17, 25}
	if m.AllGather(intra, 1e8) >= m.AllGather(cross, 1e8) {
		t.Error("cross-node all-gather should be slower than intra-node")
	}
	if m.AllReduce(intra, 1e8) >= m.AllReduce(cross, 1e8) {
		t.Error("cross-node all-reduce should be slower than intra-node")
	}
}

func TestBroadcastRounds(t *testing.T) {
	m, topo := modelAndTopo()
	g2 := []int{0, 1}
	g8 := topo.NodeDevices(0)
	b2, b8 := m.Broadcast(g2, 1e8), m.Broadcast(g8, 1e8)
	if math.Abs(b8/b2-3) > 1e-6 { // log2(8)=3 rounds vs 1 round
		t.Errorf("broadcast rounds ratio = %g, want 3", b8/b2)
	}
}

func TestP2P(t *testing.T) {
	m, topo := modelAndTopo()
	want := 1e9/topo.InterBW + topo.Latency
	if got := m.P2P(0, 8, 1e9); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("P2P = %g, want %g", got, want)
	}
}

func TestUniformAllToAll(t *testing.T) {
	m, topo := modelAndTopo()
	group := make([]int, topo.N())
	for i := range group {
		group[i] = i
	}
	got := m.UniformAllToAll(group, 1e6)
	// Per device: 7 intra peers + 24 inter peers.
	want := 7*1e6/topo.IntraBW + 24*1e6/topo.InterBW + 31*topo.Latency
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("uniform All-to-All = %g, want %g", got, want)
	}
	if m.UniformAllToAll(group[:1], 1e6) != 0 {
		t.Error("single-member uniform All-to-All should be free")
	}
}

func TestAllToAllDimensionMismatchPanics(t *testing.T) {
	m, _ := modelAndTopo()
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	m.AllToAll(counts(4), 1)
}
