// Package serve is the laer-serve planning daemon: a long-running
// HTTP/JSON service wrapping the online re-layout decision core
// (training.OnlinePlanner) behind concurrent client sessions.
//
// A client opens a session (cluster shape, policy, drift-tracking
// configuration), then POSTs one observation per training epoch — the
// per-layer expert-load routing matrices its first iteration realized —
// and receives the re-layout decision: keep, warm replan, scratch replan
// or predictive replan per layer, with the migration cost and the
// predicted imbalance of the layout left in force. Each session owns its
// per-layer warm-start solvers (with their scratch arenas) and load
// forecasters, so steady-state request handling is allocation-free on the
// solve path; sessions fan their per-layer solves across one shared
// par.Pool so concurrent sessions never oversubscribe the machine.
//
// Because sessions run the same decision core as training.RunOnline, a
// session fed the observation stream of an online run returns decisions
// byte-identical to that run's report — examples/serve replays exactly
// that equivalence against a live daemon.
//
// Sessions are elastic: POST /v1/sessions/{id}/topology applies node
// loss/join and degradation events (faults.Event) to a live session and
// returns the forced re-layout decision — byte-identical to what
// training.RunOnline records for the same events, for the same reason.
// With Options.SessionTTL set, sessions idle past the TTL are evicted and
// subsequent requests against them return 404.
//
// Sessions are durable: with Options.JournalDir set, every session is
// event-sourced to an append-only journal (see internal/journal and this
// package's journal.go) and a restarted daemon replays each journal back
// to byte-identical planner state, verifying the journaled decisions as
// it goes. Decisions can also be streamed: GET /v1/sessions/{id}/stream
// is a Server-Sent Events feed of every decision in planning order (see
// stream.go).
//
//	POST   /v1/sessions               open a session (SessionSpec -> SessionInfo)
//	GET    /v1/sessions               list open sessions
//	GET    /v1/sessions/{id}          inspect one session
//	DELETE /v1/sessions/{id}          close a session
//	POST   /v1/sessions/{id}/observe  plan one epoch (ObserveRequest -> ObserveResponse)
//	POST   /v1/sessions/{id}/topology apply fault events (TopologyUpdateRequest -> TopologyUpdateResponse)
//	GET    /v1/sessions/{id}/stream   SSE feed of the session's decisions
//	GET    /healthz                   liveness (503 while draining)
//	GET    /metrics                   Prometheus text metrics
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"laermoe/internal/journal"
	"laermoe/internal/par"
)

// Options configures a Server.
type Options struct {
	// Addr is the listen address (default "127.0.0.1:8080"; use port 0
	// for an ephemeral port, reported by Addr after Start).
	Addr string

	// Parallelism bounds the worker pool shared by every session's
	// per-layer solves and by the per-session fan-out of boot replay: 0
	// uses all CPUs.
	Parallelism int

	// MaxSessions caps concurrently open sessions (default 64); opening
	// beyond the cap returns 429.
	MaxSessions int

	// SessionTTL evicts sessions idle for longer than this duration —
	// their solver arenas and forecaster state are the daemon's dominant
	// memory, and an abandoned client must not pin them forever. Requests
	// against an evicted session return 404, exactly like a closed one.
	// 0 (the default) disables eviction.
	SessionTTL time.Duration

	// JournalDir enables durable sessions: every session's events and
	// decisions are journaled there and replayed on the next boot (empty
	// disables journaling). FsyncInterval is the journal's group-commit
	// cadence (0 = journal.DefaultFsyncInterval, negative = fsync every
	// append). SnapshotEvery is the planner-state checkpoint cadence in
	// epochs (default 16).
	JournalDir    string
	FsyncInterval time.Duration
	SnapshotEvery int

	// StreamHeartbeat is the SSE idle-connection keepalive cadence
	// (default 15s).
	StreamHeartbeat time.Duration

	// Log receives operational messages (nil logs nothing).
	Log *log.Logger
}

// maxBodyBytes caps request bodies: a 64-layer observation for the
// large-E synthetic shapes fits comfortably in 64 MiB.
const maxBodyBytes = 64 << 20

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:8080"
	}
	if o.MaxSessions == 0 {
		o.MaxSessions = 64
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 16
	}
	if o.StreamHeartbeat == 0 {
		o.StreamHeartbeat = 15 * time.Second
	}
	return o
}

// Server is the planning daemon. Build with New, run with Start (or mount
// Handler in a test server), stop with Shutdown.
type Server struct {
	opts    Options
	pool    *par.Pool
	metrics *recorder
	store   *journal.Store // nil when journaling is off

	mu       sync.Mutex
	sessions map[string]*session
	seq      uint64

	draining atomic.Bool
	solves   sync.WaitGroup // in-flight planning solves, drained on shutdown

	janitorStop chan struct{}
	janitorOnce sync.Once

	// streamStop ends every open SSE stream at shutdown — they would
	// otherwise hold connections open and wedge the HTTP drain.
	streamStop chan struct{}
	streamOnce sync.Once

	hs *http.Server
	ln net.Listener
}

// New builds a server (not yet listening). With JournalDir set it opens
// the journal store and replays every journaled session before returning,
// so the server is consistent the moment it starts accepting requests.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:       opts,
		pool:       par.NewPool(opts.Parallelism),
		metrics:    newRecorder(),
		sessions:   make(map[string]*session),
		streamStop: make(chan struct{}),
	}
	if opts.JournalDir != "" {
		st, err := journal.Open(journal.Options{Dir: opts.JournalDir, FsyncInterval: opts.FsyncInterval})
		if err != nil {
			return nil, err
		}
		s.store = st
		if err := s.replayJournal(); err != nil {
			st.Close()
			return nil, fmt.Errorf("serve: replaying journal: %w", err)
		}
	}
	s.hs = &http.Server{Handler: s.Handler()}
	// The eviction loop starts with the server object, not the listener,
	// so TTLs work for handlers mounted under a test server too; Shutdown
	// stops it.
	s.startJanitor()
	return s, nil
}

// Handler returns the service's HTTP handler (also usable under
// httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/sessions", s.handleOpenSession)
	mux.HandleFunc("GET /v1/sessions", s.handleListSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleCloseSession)
	mux.HandleFunc("POST /v1/sessions/{id}/observe", s.handleObserve)
	mux.HandleFunc("POST /v1/sessions/{id}/topology", s.handleTopology)
	mux.HandleFunc("GET /v1/sessions/{id}/stream", s.handleStream)
	return mux
}

// startJanitor launches the idle-session eviction loop (no-op without a
// SessionTTL). It scans at a quarter of the TTL so an idle session is
// evicted within ~1.25 TTLs of its last request.
func (s *Server) startJanitor() {
	if s.opts.SessionTTL <= 0 {
		return
	}
	s.janitorStop = make(chan struct{})
	interval := s.opts.SessionTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.janitorStop:
				return
			case <-t.C:
				s.evictIdle(time.Now())
			}
		}
	}()
}

func (s *Server) stopJanitor() {
	if s.janitorStop != nil {
		s.janitorOnce.Do(func() { close(s.janitorStop) })
	}
}

// evictIdle removes every session idle past the TTL. The idle check is
// lock-free (an atomic clock on each session), so a slow solve holding a
// session's mutex cannot stall the scan; the delete re-checks membership,
// racing DELETE handlers safely.
func (s *Server) evictIdle(now time.Time) {
	s.mu.Lock()
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	for _, sess := range open {
		idle := sess.idleSince(now)
		if idle <= s.opts.SessionTTL {
			continue
		}
		s.mu.Lock()
		cur, ok := s.sessions[sess.id]
		if ok && cur == sess {
			delete(s.sessions, sess.id)
		} else {
			ok = false
		}
		s.mu.Unlock()
		if ok {
			s.dropSession(sess, "evicted")
			s.metrics.sessionEvicted()
			s.logf("session %s evicted after %s idle", sess.id, idle.Round(time.Millisecond))
		}
	}
}

// dropSession tears down a session removed from the table: its SSE
// subscribers learn why, and its journal is deleted — a closed or evicted
// session must not resurrect on the next boot.
func (s *Server) dropSession(sess *session, reason string) {
	sess.closeSubscribers(reason)
	if s.store != nil {
		if err := s.store.Remove(sess.id); err != nil {
			s.metrics.journalError()
			s.logf("session %s: removing journal: %v", sess.id, err)
		}
	}
}

// Start binds the listen address and serves in a background goroutine.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.logf("listening on %s", ln.Addr())
	go func() {
		if err := s.hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.logf("serve error: %v", err)
		}
	}()
	return nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the daemon: new sessions and observations are refused
// (healthz reports draining), open SSE streams are ended, in-flight
// solves and HTTP requests complete, the journal store syncs and closes,
// then the listener closes. The context bounds the drain — a solve that
// outlives it is abandoned rather than hanging the shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopJanitor()
	// SSE handlers hold their connections open indefinitely; end them
	// before the HTTP drain or hs.Shutdown would wait on them forever.
	s.streamOnce.Do(func() { close(s.streamStop) })
	err := s.hs.Shutdown(ctx)
	// Belt and braces: hs.Shutdown already waits for in-flight requests,
	// and every solve runs inside one, so this normally returns at once —
	// but it pins the invariant the CI smoke asserts (no solve survives a
	// clean shutdown), bounded by the same deadline as the HTTP drain.
	done := make(chan struct{})
	go func() {
		s.solves.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	if s.store != nil {
		// After the drain no handler appends; Close syncs every journal,
		// making everything acknowledged durable.
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.logf("drained: %d sessions open at shutdown", s.sessionCount())
	return err
}

func (s *Server) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log.Printf(format, args...)
	}
}

// --- handlers ---

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w)
}

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var spec SessionSpec
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding session spec: %v", err)
		return
	}
	s.mu.Lock()
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, "session limit reached (%d open)", s.opts.MaxSessions)
		return
	}
	s.seq++
	seq := s.seq
	id := fmt.Sprintf("s-%d", seq)
	s.mu.Unlock()

	// Building the planning core (memory fit, per-layer solvers) runs
	// outside the server lock: a heavyweight spec must not block the
	// other sessions' requests. The cap is re-checked at insert time —
	// the early check is only a fast path, so concurrent opens cannot
	// overshoot MaxSessions, and a drain that started meanwhile wins.
	sess, err := newSession(id, seq, spec, s.pool)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess.attach(s)
	// The journal opens before the session is visible, so no observe can
	// land ahead of the open record. A journal failure degrades the
	// session to non-durable instead of refusing it.
	if s.store != nil {
		if jw, jerr := s.store.Create(id); jerr != nil {
			s.metrics.journalError()
			s.logf("session %s: creating journal: %v (session will not be durable)", id, jerr)
		} else {
			sess.mu.Lock()
			sess.jw = jw
			sess.journalLocked(journal.KindOpen, openRecord{Seq: seq, Spec: spec})
			sess.mu.Unlock()
		}
	}
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		s.dropSession(sess, "closed")
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		s.dropSession(sess, "closed")
		writeError(w, http.StatusTooManyRequests, "session limit reached (%d open)", s.opts.MaxSessions)
		return
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.metrics.sessionOpened()
	s.logf("session %s opened: %s policy=%s %dx%d", id, sess.info.Model, sess.info.Policy, sess.info.Layers, sess.info.Experts)
	writeJSON(w, http.StatusCreated, sess.snapshot())
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	open := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		open = append(open, sess)
	}
	s.mu.Unlock()
	sort.Slice(open, func(i, j int) bool { return open[i].seq < open[j].seq })
	infos := make([]SessionInfo, len(open))
	for i, sess := range open {
		infos[i] = sess.snapshot()
	}
	writeJSON(w, http.StatusOK, map[string][]SessionInfo{"sessions": infos})
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return nil, false
	}
	return sess, true
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.touch()
	writeJSON(w, http.StatusOK, sess.snapshot())
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	s.dropSession(sess, "closed")
	s.metrics.sessionClosed()
	s.logf("session %s closed after %d epochs", id, sess.snapshot().Epochs)
	writeJSON(w, http.StatusOK, map[string]string{"closed": id})
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.touch()
	var req ObserveRequest
	// The counting reader sits inside the byte cap so the payload-bytes
	// metric reports what the decoder actually consumed — the wire cost a
	// delta client is saving. Decode and structural validation both run
	// before the session mutex: another request's solve never serializes a
	// herd's JSON parsing behind it.
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, maxBodyBytes)}
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding observation: %v", err)
		return
	}
	if err := sess.validateObserve(req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.solves.Add(1)
	resp, err := func() (*ObserveResponse, error) {
		// Done must run even if the request goroutine panics (net/http
		// recovers handler panics per connection; panics on the shared
		// pool's helpers are recovered by Pool.ForEach and surface as
		// errors here); a leaked Add would wedge every future Shutdown.
		defer s.solves.Done()
		return sess.observe(req)
	}()
	if err != nil {
		switch {
		case errors.Is(err, errDeltaResync):
			// Not a failure: the delta could not be sequenced (first
			// observe, epoch gap, or a topology change invalidated the
			// base). 409 tells the client to repost dense.
			s.metrics.deltaResynced()
			writeError(w, http.StatusConflict, "%v", err)
		case errors.As(err, &clientError{}):
			writeError(w, http.StatusBadRequest, "%v", err)
		default:
			// The observation passed validation, so a solve failure is ours.
			writeError(w, http.StatusInternalServerError, "planning epoch: %v", err)
		}
		return
	}
	s.metrics.observeServed(resp, body.n, req.RoutingDelta != nil)
	writeJSON(w, http.StatusOK, resp)
}

// countingReader counts the bytes a decoder pulls through it, feeding the
// observe payload-bytes metric.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.touch()
	var req TopologyUpdateRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding topology update: %v", err)
		return
	}
	s.solves.Add(1)
	resp, err := func() (*TopologyUpdateResponse, error) {
		defer s.solves.Done()
		return sess.applyTopology(req)
	}()
	if err != nil {
		switch {
		case errors.As(err, &clientError{}):
			writeError(w, http.StatusBadRequest, "%v", err)
		default:
			// The events passed validation, so a repair failure (or an
			// already poisoned session) is ours.
			writeError(w, http.StatusInternalServerError, "applying topology update: %v", err)
		}
		return
	}
	s.metrics.topologyServed(resp, len(req.Events))
	s.logf("session %s topology update: %d events, %d/%d devices available",
		sess.id, len(req.Events), resp.AvailableDevices, sess.snapshot().Devices)
	writeJSON(w, http.StatusOK, resp)
}

// ListenAndServe runs a server until ctx is cancelled, then drains it
// within drainTimeout. It is the implementation behind laermoe.Serve and
// cmd/laer-serve; onReady (optional) receives the bound address.
func ListenAndServe(ctx context.Context, opts Options, drainTimeout time.Duration, onReady func(addr string)) error {
	s, err := New(opts)
	if err != nil {
		return err
	}
	if err := s.Start(); err != nil {
		return err
	}
	if onReady != nil {
		onReady(s.Addr())
	}
	<-ctx.Done()
	if drainTimeout <= 0 {
		drainTimeout = 10 * time.Second
	}
	shctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return s.Shutdown(shctx)
}
