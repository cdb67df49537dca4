package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"laermoe/internal/model"
	"laermoe/internal/topology"
	"laermoe/internal/trace"
	"laermoe/internal/training"
	sessionspec "laermoe/session"
)

// testClient wraps an httptest server with JSON helpers.
type testClient struct {
	t    testing.TB
	base string
	c    *http.Client
}

func newTestServer(t testing.TB, opts Options) (*Server, *testClient) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, &testClient{t: t, base: hs.URL, c: hs.Client()}
}

// do sends a JSON request and decodes a JSON response, asserting the
// status code.
func (tc *testClient) do(method, path string, body any, wantStatus int, out any) {
	tc.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			tc.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, tc.base+path, rd)
	if err != nil {
		tc.t.Fatal(err)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		tc.t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		tc.t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, resp.StatusCode, wantStatus, buf.String())
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			tc.t.Fatalf("%s %s: decoding %q: %v", method, path, buf.String(), err)
		}
	}
}

// quickSpec is a fast planning session on the paper's evaluation model:
// one micro-batch per iteration keeps the reference RunOnline cheap.
func quickSpec(policy string) SessionSpec {
	return SessionSpec{Spec: sessionspec.Spec{
		Policy:             policy,
		IterationsPerEpoch: 4,
		GlobalBatchTokens:  1 << 19,
		Seed:               7,
	}}
}

// refConfig is the training.OnlineConfig equivalent of quickSpec — the
// reference run the daemon's decisions must match byte for byte.
func refConfig(policy string, epochs int, drift trace.DriftModel) training.OnlineConfig {
	return training.OnlineConfig{
		Policy: training.ReplanPolicy(policy),
		Arch:   model.Mixtral8x7B,
		Topo:   topology.Default(),
		Epochs: epochs, IterationsPerEpoch: 4,
		Drift:             trace.DriftConfig{Model: drift},
		GlobalBatchTokens: 1 << 19,
		Seed:              7,
	}
}

// observationStream replays the online engine's trace process (via
// training.ObservationGenerator, the single source of its constants) and
// returns each epoch's first iteration's routing (the observation) as
// wire matrices.
func observationStream(t testing.TB, info SessionInfo, epochs, itersPerEpoch int, drift trace.DriftConfig) [][][][]int {
	t.Helper()
	gen, err := training.ObservationGenerator(trace.GeneratorConfig{
		Devices: info.Devices, Experts: info.Experts, Layers: info.Layers,
		TokensPerDevice: info.TokensPerDevice, TopK: info.TopK,
		Seed: info.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][][][]int, epochs)
	for e := 0; e < epochs; e++ {
		if e > 0 {
			if err := gen.ApplyDrift(drift); err != nil {
				t.Fatal(err)
			}
		}
		for it := 0; it < itersPerEpoch; it++ {
			routing := gen.Step()
			if it != 0 {
				continue
			}
			obs := make([][][]int, len(routing))
			for l, m := range routing {
				rows := make([][]int, m.N)
				for d := range rows {
					rows[d] = append([]int(nil), m.R[d]...)
				}
				obs[l] = rows
			}
			out[e] = obs
		}
	}
	return out
}

// TestDecisionsMatchRunOnline is the service's acceptance property: a
// session fed the observation stream of an online run returns, for every
// epoch, decisions byte-identical to the decisions training.RunOnline
// reports for that run — for every policy, including the predictive one
// whose forecasters accumulate state across requests.
func TestDecisionsMatchRunOnline(t *testing.T) {
	const epochs = 4
	drift := trace.DriftConfig{Model: trace.DriftMigration}
	for _, policy := range []string{"static", "scratch", "warm", "predictive"} {
		t.Run(policy, func(t *testing.T) {
			ref, err := training.RunOnline(refConfig(policy, epochs, drift.Model))
			if err != nil {
				t.Fatal(err)
			}
			_, tc := newTestServer(t, Options{})
			var info SessionInfo
			tc.do("POST", "/v1/sessions", quickSpec(policy), http.StatusCreated, &info)
			stream := observationStream(t, info, epochs, 4, drift)
			for e := 0; e < epochs; e++ {
				var resp ObserveResponse
				tc.do("POST", "/v1/sessions/"+info.ID+"/observe",
					ObserveRequest{Routing: stream[e]}, http.StatusOK, &resp)
				if resp.Epoch != e {
					t.Fatalf("epoch %d reported as %d", e, resp.Epoch)
				}
				assertSameJSON(t, fmt.Sprintf("epoch %d boundary", e), resp.Boundary, ref.Epochs[e].BoundaryDecisions)
				assertSameJSON(t, fmt.Sprintf("epoch %d observation", e), resp.Observation, ref.Epochs[e].ObservationDecisions)
				if resp.Summary.Migrations != ref.Epochs[e].Migrations {
					t.Fatalf("epoch %d: %d migrations, reference %d", e, resp.Summary.Migrations, ref.Epochs[e].Migrations)
				}
				if resp.Summary.MigrationTime != ref.Epochs[e].MigrationTime ||
					resp.Summary.BoundaryMigrationTime != ref.Epochs[e].BoundaryMigrationTime {
					t.Fatalf("epoch %d: migration time mismatch", e)
				}
				if resp.Summary.ForecastError != ref.Epochs[e].ForecastError ||
					resp.Summary.PredictedLayers != ref.Epochs[e].PredictedLayers ||
					resp.Summary.CorrectedLayers != ref.Epochs[e].CorrectedLayers {
					t.Fatalf("epoch %d: forecast summary mismatch", e)
				}
			}
			var after SessionInfo
			tc.do("GET", "/v1/sessions/"+info.ID, nil, http.StatusOK, &after)
			if after.Epochs != epochs {
				t.Fatalf("session served %d epochs, want %d", after.Epochs, epochs)
			}
		})
	}
}

func assertSameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: decisions differ from training.RunOnline\n got: %s\nwant: %s", what, g, w)
	}
}

// TestInferenceWorkloadSession: an inference-workload session resolves
// its workload and arrival shape through the registry, reports them in
// its info, and plans the routing decode-request traffic realizes like
// any other observation.
func TestInferenceWorkloadSession(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	spec := quickSpec("warm")
	spec.Workload = "inference"
	spec.GlobalBatchTokens = 0
	spec.ForceTokensPerDevice = 256
	var info SessionInfo
	tc.do("POST", "/v1/sessions", spec, http.StatusCreated, &info)
	if info.Workload != "inference" || info.Arrival != "diurnal" {
		t.Fatalf("session workload/arrival = %q/%q, want inference/diurnal", info.Workload, info.Arrival)
	}
	gen, err := trace.NewRequestGenerator(trace.RequestConfig{
		GeneratorConfig: trace.GeneratorConfig{
			Devices: info.Devices, Experts: info.Experts, Layers: info.Layers,
			TokensPerDevice: info.TokensPerDevice, TopK: info.TopK, Seed: info.Seed,
		},
		Arrival: trace.ArrivalShape(info.Arrival),
	})
	if err != nil {
		t.Fatal(err)
	}
	routing, batch := gen.Step()
	if batch.Requests() == 0 {
		t.Fatal("request generator produced no traffic")
	}
	obs := make([][][]int, len(routing))
	for l, m := range routing {
		obs[l] = m.R
	}
	var resp ObserveResponse
	tc.do("POST", "/v1/sessions/"+info.ID+"/observe", ObserveRequest{Routing: obs}, http.StatusOK, &resp)
	if len(resp.Observation) != info.Layers {
		t.Fatalf("got %d layer decisions, want %d", len(resp.Observation), info.Layers)
	}
	// A training session's info must not claim an arrival shape.
	var plain SessionInfo
	tc.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &plain)
	if plain.Workload != "training" || plain.Arrival != "" {
		t.Fatalf("training session workload/arrival = %q/%q", plain.Workload, plain.Arrival)
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var a, b SessionInfo
	tc.do("POST", "/v1/sessions", SessionSpec{}, http.StatusCreated, &a)
	tc.do("POST", "/v1/sessions", quickSpec("predictive"), http.StatusCreated, &b)
	if a.ID == b.ID {
		t.Fatalf("duplicate session id %s", a.ID)
	}
	if a.Policy != "warm" || a.Model != "mixtral-8x7b-e8k2" || a.Devices != 32 {
		t.Fatalf("default spec resolved to %+v", a)
	}
	if b.Predictor != "trend" {
		t.Fatalf("predictive session predictor %q, want trend", b.Predictor)
	}
	if a.TokensPerDevice <= 0 || a.Layers <= 0 || a.Experts <= 0 {
		t.Fatalf("session shape not reported: %+v", a)
	}

	var list struct {
		Sessions []SessionInfo `json:"sessions"`
	}
	tc.do("GET", "/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 2 || list.Sessions[0].ID != a.ID || list.Sessions[1].ID != b.ID {
		t.Fatalf("listing %+v, want [%s %s] in open order", list.Sessions, a.ID, b.ID)
	}

	var got SessionInfo
	tc.do("GET", "/v1/sessions/"+a.ID, nil, http.StatusOK, &got)
	if got.ID != a.ID {
		t.Fatalf("got session %s, want %s", got.ID, a.ID)
	}
	tc.do("DELETE", "/v1/sessions/"+a.ID, nil, http.StatusOK, nil)
	tc.do("GET", "/v1/sessions/"+a.ID, nil, http.StatusNotFound, nil)
	tc.do("DELETE", "/v1/sessions/"+a.ID, nil, http.StatusNotFound, nil)
}

func TestOpenSessionValidation(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	// Each rejection must name the offending field (second column), so the
	// 400 tells the client what to fix, not just that something is wrong.
	cases := []struct {
		spec SessionSpec
		want string
	}{
		{SessionSpec{Spec: sessionspec.Spec{Model: "no-such-model"}}, "no-such-model"},
		{SessionSpec{Spec: sessionspec.Spec{Policy: "oracle"}}, "oracle"},
		{SessionSpec{Spec: sessionspec.Spec{Workload: "batch"}}, "batch"},
		{SessionSpec{Spec: sessionspec.Spec{Arrival: "tsunami"}}, "tsunami"},
		{SessionSpec{Spec: sessionspec.Spec{FaultSchedule: "1:fail:1"}}, "topology"},
		{SessionSpec{Spec: sessionspec.Spec{IterationsPerEpoch: 1}}, "iterations_per_epoch"},
		{SessionSpec{Spec: sessionspec.Spec{MigrationCostPerReplica: -1}}, "migration_cost_per_replica"},
		{SessionSpec{Spec: sessionspec.Spec{ConfidenceThreshold: -0.1}}, "confidence_threshold"},
		{SessionSpec{Nodes: -4}, "nodes"},
		{SessionSpec{GPUsPerNode: -2}, "gpus_per_node"},
		// Positive but past the layout-cell bound: the first would exhaust
		// memory building the planner, the second wraps the device count
		// to 0.
		{SessionSpec{Nodes: 1 << 16, GPUsPerNode: 1 << 16}, "gpus_per_node"},
		{SessionSpec{Nodes: 1 << 32, GPUsPerNode: 1 << 32}, "nodes"},
		{SessionSpec{Spec: sessionspec.Spec{Policy: "predictive", Predictor: "crystal-ball"}}, "crystal-ball"},
	}
	for i, c := range cases {
		var eb errorBody
		tc.do("POST", "/v1/sessions", c.spec, http.StatusBadRequest, &eb)
		if !strings.Contains(eb.Error, c.want) {
			t.Fatalf("case %d: error %q does not name %q", i, eb.Error, c.want)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(tc.base+"/v1/sessions", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: status %d, want 400", resp.StatusCode)
	}
}

func TestObserveValidation(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	tc.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)

	good := observationStream(t, info, 1, 4, trace.DriftConfig{Model: trace.DriftNone})[0]

	tc.do("POST", "/v1/sessions/nope/observe", ObserveRequest{Routing: good}, http.StatusNotFound, nil)

	short := good[:info.Layers-1]
	tc.do("POST", "/v1/sessions/"+info.ID+"/observe", ObserveRequest{Routing: short}, http.StatusBadRequest, nil)

	badDevices := make([][][]int, info.Layers)
	copy(badDevices, good)
	badDevices[0] = good[0][:info.Devices-1]
	tc.do("POST", "/v1/sessions/"+info.ID+"/observe", ObserveRequest{Routing: badDevices}, http.StatusBadRequest, nil)

	badExperts := make([][][]int, info.Layers)
	copy(badExperts, good)
	row := append([]int(nil), good[0][0]...)
	badExperts[0] = append([][]int{row[:info.Experts-1]}, good[0][1:]...)
	tc.do("POST", "/v1/sessions/"+info.ID+"/observe", ObserveRequest{Routing: badExperts}, http.StatusBadRequest, nil)

	negative := make([][][]int, info.Layers)
	copy(negative, good)
	negRow := append([]int(nil), good[0][0]...)
	negRow[0] = -1
	negative[0] = append([][]int{negRow}, good[0][1:]...)
	tc.do("POST", "/v1/sessions/"+info.ID+"/observe", ObserveRequest{Routing: negative}, http.StatusBadRequest, nil)

	resp, err := http.Post(tc.base+"/v1/sessions/"+info.ID+"/observe", "application/json", strings.NewReader("]["))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed observation: status %d, want 400", resp.StatusCode)
	}

	// The failed attempts must not have advanced the session's epoch.
	var after SessionInfo
	tc.do("GET", "/v1/sessions/"+info.ID, nil, http.StatusOK, &after)
	if after.Epochs != 0 {
		t.Fatalf("failed observations advanced the session to epoch %d", after.Epochs)
	}
}

func TestSessionLimit(t *testing.T) {
	_, tc := newTestServer(t, Options{MaxSessions: 1})
	var info SessionInfo
	tc.do("POST", "/v1/sessions", SessionSpec{}, http.StatusCreated, &info)
	tc.do("POST", "/v1/sessions", SessionSpec{}, http.StatusTooManyRequests, nil)
	tc.do("DELETE", "/v1/sessions/"+info.ID, nil, http.StatusOK, nil)
	tc.do("POST", "/v1/sessions", SessionSpec{}, http.StatusCreated, nil)
}

func TestHealthzAndMetrics(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var health map[string]string
	tc.do("GET", "/healthz", nil, http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz %v", health)
	}

	var info SessionInfo
	tc.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	stream := observationStream(t, info, 2, 4, trace.DriftConfig{Model: trace.DriftMigration})
	for _, obs := range stream {
		tc.do("POST", "/v1/sessions/"+info.ID+"/observe", ObserveRequest{Routing: obs}, http.StatusOK, nil)
	}

	resp, err := http.Get(tc.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, w := range []string{
		"laer_serve_sessions_active 1",
		"laer_serve_epochs_observed_total 2",
		"laer_serve_solve_latency_seconds{quantile=\"0.5\"}",
		"laer_serve_solve_latency_seconds{quantile=\"0.99\"}",
		"laer_serve_solve_latency_seconds_count 2",
		"laer_serve_replan_rate",
		"laer_serve_predicted_imbalance",
		"laer_serve_migrations_total",
		"laer_serve_layer_decisions_total",
	} {
		if !strings.Contains(text, w) {
			t.Fatalf("metrics missing %q in:\n%s", w, text)
		}
	}
	// The first epoch replans every layer away from static EP, so the
	// counters cannot be zero.
	if strings.Contains(text, "laer_serve_replans_total 0\n") ||
		strings.Contains(text, "laer_serve_migrations_total 0\n") {
		t.Fatalf("replan/migration counters stayed zero:\n%s", text)
	}
}

// TestConcurrentSessions streams several sessions at once through one
// daemon — under -race this is the data-race check for the shared worker
// pool and the metrics recorder — and then verifies that concurrency did
// not leak between sessions: a session planned alongside others returns
// the same decisions as one planned alone.
func TestConcurrentSessions(t *testing.T) {
	const epochs = 2
	drift := trace.DriftConfig{Model: trace.DriftMigration}

	_, ref := newTestServer(t, Options{})
	var refInfo SessionInfo
	ref.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &refInfo)
	stream := observationStream(t, refInfo, epochs, 4, drift)
	want := make([]ObserveResponse, epochs)
	for e := range stream {
		ref.do("POST", "/v1/sessions/"+refInfo.ID+"/observe", ObserveRequest{Routing: stream[e]}, http.StatusOK, &want[e])
	}

	_, tc := newTestServer(t, Options{Parallelism: 4})
	const owners = 4
	infos := make([]SessionInfo, owners)
	for i := range infos {
		tc.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &infos[i])
	}
	var wg sync.WaitGroup
	failures := make([]error, owners)
	for i := 0; i < owners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				body, err := json.Marshal(ObserveRequest{Routing: stream[e]})
				if err != nil {
					failures[i] = err
					return
				}
				resp, err := http.Post(tc.base+"/v1/sessions/"+infos[i].ID+"/observe", "application/json", bytes.NewReader(body))
				if err != nil {
					failures[i] = err
					return
				}
				var got ObserveResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					failures[i] = err
					return
				}
				g, _ := json.Marshal(got.Observation)
				w, _ := json.Marshal(want[e].Observation)
				if !bytes.Equal(g, w) {
					failures[i] = fmt.Errorf("session %s epoch %d: decisions differ under concurrency", infos[i].ID, e)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range failures {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestGracefulShutdown runs a real TCP daemon, serves one session, then
// drains it: in-flight work completes, new work is refused, the listener
// closes, and Shutdown returns cleanly.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	tc := &testClient{t: t, base: base, c: http.DefaultClient}
	var info SessionInfo
	tc.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	obs := observationStream(t, info, 1, 4, trace.DriftConfig{Model: trace.DriftNone})[0]
	tc.do("POST", "/v1/sessions/"+info.ID+"/observe", ObserveRequest{Routing: obs}, http.StatusOK, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestDrainingRefusesNewWork exercises the handler-level draining path
// directly (the real-TCP test above closes the listener before a client
// could observe the 503s).
func TestDrainingRefusesNewWork(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, req := range []*http.Request{
		httptest.NewRequest("GET", "/healthz", nil),
		httptest.NewRequest("POST", "/v1/sessions", strings.NewReader("{}")),
		httptest.NewRequest("POST", "/v1/sessions/s-1/observe", strings.NewReader("{}")),
	} {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s while draining: status %d, want 503", req.Method, req.URL.Path, rw.Code)
		}
	}
}

// TestFailedSessionRefusesObservations: a solve error leaves the planner
// state partially advanced, so the session must poison itself rather than
// serve diverging decisions on retry.
func TestFailedSessionRefusesObservations(t *testing.T) {
	sess, err := newSession("s-1", 1, SessionSpec{Spec: sessionspec.Spec{IterationsPerEpoch: 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.failed = errors.New("mid-fanout solve failure")
	if _, err := sess.observe(ObserveRequest{}); err == nil || !strings.Contains(err.Error(), "must be reopened") {
		t.Fatalf("poisoned session served an observation (err %v)", err)
	}
}

func TestRecorderRing(t *testing.T) {
	r := newRing(4)
	for i := 1; i <= 3; i++ {
		r.add(float64(i))
	}
	if got := r.values(); len(got) != 3 {
		t.Fatalf("partial ring has %d values", len(got))
	}
	for i := 4; i <= 9; i++ {
		r.add(float64(i))
	}
	got := r.values()
	if len(got) != 4 {
		t.Fatalf("full ring has %d values", len(got))
	}
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if sum != 6+7+8+9 {
		t.Fatalf("ring kept %v, want the last four samples", got)
	}
}
