package serve

import (
	"context"
	"net/http"
	"testing"

	"laermoe/internal/trace"
	"laermoe/internal/training"
)

// benchObservations builds the steady-state pair the observe benchmarks
// cycle through: one generated epoch and a successor that differs by two
// token moves per layer — the converged regime the retained-matrix reuse
// and the sparse wire exist for.
func benchObservations(b testing.TB, sess *session) (obsA, obsB [][][]int) {
	b.Helper()
	info := sess.snapshot()
	gen, err := training.ObservationGenerator(trace.GeneratorConfig{
		Devices: info.Devices, Experts: info.Experts, Layers: info.Layers,
		TokensPerDevice: info.TokensPerDevice, TopK: info.TopK,
		Seed: info.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	routing := gen.Step()
	obsA = make([][][]int, len(routing))
	obsB = make([][][]int, len(routing))
	for l, m := range routing {
		obsA[l] = make([][]int, len(m.R))
		obsB[l] = make([][]int, len(m.R))
		for d, row := range m.R {
			obsA[l][d] = append([]int(nil), row...)
			obsB[l][d] = append([]int(nil), row...)
		}
		// Two deterministic token moves distinguish B from A.
		n, e := len(m.R), len(m.R[0])
		for k := 0; k < 2; k++ {
			d, x := (l+k)%n, (l+3*k)%e
			if obsB[l][d][x] > 0 {
				obsB[l][d][x]--
				obsB[l][(d+1)%n][x]++
			}
		}
	}
	return obsA, obsB
}

func benchSession(b *testing.B) *session {
	b.Helper()
	sess, err := newSession("bench", 1, quickSpec("warm"), nil)
	if err != nil {
		b.Fatal(err)
	}
	sess.metrics = newRecorder()
	return sess
}

// BenchmarkObserveDense pins the steady-state dense observe path: the
// session reuses its retained routing matrices across observes, so the
// per-request cost must not include L fresh matrix allocations (the
// pre-reuse path allocated one NewRoutingMatrix per layer per request).
// The allocs/op column is the regression gate.
func BenchmarkObserveDense(b *testing.B) {
	sess := benchSession(b)
	obsA, obsB := benchObservations(b, sess)
	if _, err := sess.observe(ObserveRequest{Routing: obsA}); err != nil {
		b.Fatal(err)
	}
	obs := [2][][][]int{obsB, obsA}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.observe(ObserveRequest{Routing: obs[i%2]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveDelta is the same steady state over the sparse wire:
// two token moves per layer arrive as routing_delta and are applied onto
// the retained matrices in place.
func BenchmarkObserveDelta(b *testing.B) {
	sess := benchSession(b)
	obsA, obsB := benchObservations(b, sess)
	if _, err := sess.observe(ObserveRequest{Routing: obsA}); err != nil {
		b.Fatal(err)
	}
	aToB := make([]*trace.WireDelta, len(obsA))
	bToA := make([]*trace.WireDelta, len(obsA))
	for l := range obsA {
		m := trace.NewRoutingMatrix(len(obsA[l]), len(obsA[l][0]))
		for d, row := range obsA[l] {
			copy(m.R[d], row)
		}
		aToB[l] = trace.WireDiff(m, obsB[l])
		for d, row := range obsB[l] {
			copy(m.R[d], row)
		}
		bToA[l] = trace.WireDiff(m, obsA[l])
	}
	deltas := [2][]*trace.WireDelta{aToB, bToA}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.observe(ObserveRequest{Epoch: 1 + i, RoutingDelta: deltas[i%2]}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalReplay times a daemon boot over a journal directory: New
// replays every journaled session, then Shutdown closes the store. The
// directory is built once, outside the timer — three sessions, each one
// epoch past a state checkpoint — and a boot leaves it as it found it, so
// every op replays the same bytes.
func BenchmarkJournalReplay(b *testing.B) {
	opts := Options{JournalDir: b.TempDir(), SnapshotEvery: 2}
	srv, c := newTestServer(b, opts)
	drift := trace.DriftConfig{Model: trace.DriftMigration}
	policies := []string{"warm", "predictive", "static"}
	for _, policy := range policies {
		var info SessionInfo
		c.do("POST", "/v1/sessions", quickSpec(policy), http.StatusCreated, &info)
		for _, obs := range observationStream(b, info, 3, 4, drift) {
			c.do("POST", "/v1/sessions/"+info.ID+"/observe", ObserveRequest{Routing: obs}, http.StatusOK, nil)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if got := s.metrics.sessionsReplayed.Load(); got != uint64(len(policies)) {
			b.Fatalf("boot replayed %d sessions, want %d", got, len(policies))
		}
		if err := s.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestObserveReusesRetainedMatrices is the alloc pin in test form: a
// steady-state dense observe must run without per-layer matrix
// allocation churn. The pre-reuse path allocated 3 slices per layer per
// request just to stage the observation (96 allocations at 32 layers)
// before the solver even ran; the bound catches that class of regression
// while leaving room for the decision/response allocations that scale
// with layers.
func TestObserveReusesRetainedMatrices(t *testing.T) {
	sess, err := newSession("alloc-pin", 1, quickSpec("warm"), nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.metrics = newRecorder()
	obsA, obsB := benchObservations(t, sess)
	if _, err := sess.observe(ObserveRequest{Routing: obsA}); err != nil {
		t.Fatal(err)
	}
	obs := [2][][][]int{obsB, obsA}
	i := 0
	perOp := testing.AllocsPerRun(20, func() {
		if _, err := sess.observe(ObserveRequest{Routing: obs[i%2]}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	layers := len(obsA)
	// The old path staged every observation through layers fresh
	// NewRoutingMatrix calls (3 allocations each). Planning itself
	// allocates per-layer decisions and the response; 6 per layer plus
	// slack holds comfortably post-reuse and fails pre-reuse.
	if limit := float64(6*layers + 64); perOp > limit {
		t.Fatalf("steady-state dense observe allocates %.0f/op, want <= %.0f (retained-matrix reuse lost?)", perOp, limit)
	}
}
