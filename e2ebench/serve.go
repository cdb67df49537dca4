package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"laermoe/internal/journal"
	"laermoe/internal/serve"
	"laermoe/internal/stats"
	"laermoe/internal/trace"
	"laermoe/internal/training"
	sessionspec "laermoe/session"
)

// serveWorkload is one traffic mix against the daemon.
type serveWorkload struct {
	name     string
	sessions int
	// delta: after the dense join observe, sessions post ~2 KB
	// routing_delta bodies of a converged fleet (two token-conserving
	// moves per layer per epoch); otherwise every epoch is a dense
	// migration-drift observation.
	delta bool
	// tick (herd) makes every session's next observe due at the same
	// instant; rate (drift) paces observes uniformly at a fixed aggregate
	// rate.
	tick time.Duration
	rate float64
	// setups is how many times set-up joins a fresh fleet; the median is
	// reported. A join is a sub-second single shot (about 0.4 s for the
	// herd, 0.07 s for drift), so each workload repeats it for about two
	// seconds.
	setups int
}

var (
	herdWorkload = serveWorkload{name: "serve-herd", sessions: 64, delta: true, tick: 250 * time.Millisecond, setups: 5}
	// 120/s is about 40% of the closed-loop capacity measured at the parent
	// (about 300/s on two vCPUs). At 160/s, half the capacity, minutes-long
	// slow spells of a shared host pushed the run-to-run spread of the p99
	// past 30%: each op's service time then exceeds the 6 ms pacing
	// interval often enough that delays chain. Even at 120/s the p99 spread
	// 23-50% over sets of ten seeds, so BENCHMARK.json does not list it.
	driftWorkload = serveWorkload{name: "serve-drift", sessions: 16, rate: 120, setups: 25}
)

const (
	// Every session runs the default model on the default 4x8 cluster.
	itersPerEpoch   = 4
	tokensPerDevice = 2048

	// Recovery is a single shot of about a second, so it is repeated and
	// its median reported.
	recoveryRepeats = 5

	// herdClosedEpochs bounds the closed-loop phase's pre-generated delta
	// epochs per herd session (about twice the ~155 the parent reaches in a
	// 30-second run). A session that runs out leaves the loop, which then
	// ends early; throughput stays ops over elapsed time.
	herdClosedEpochs = 300

	// driftEpochs is the length of a drift session's dense stream, which
	// the run cycles through (about 35 KB a body).
	driftEpochs = 64

	// tracedEpochs is how many epochs per session the traced run re-drives:
	// one compaction cadence, so every session compacts once.
	tracedEpochs = snapshotEvery

	// stepSessions is how many sessions sim_step_ms simulates an iteration
	// for: one executor iteration of the default spec (32 micro-batches of
	// 32 layers) costs about a third of a second.
	stepSessions = 2

	// missMs is the latency a failed op counts as: a miss of any limit.
	missMs = 1e12
)

// senders is the number of connections and sending goroutines: at most
// two, so the numbers measure the daemon and not the load generator's
// scheduler on a two-vCPU host.
func senders() int {
	return min(2, runtime.NumCPU())
}

// stream is one session's pre-marshaled request bodies, epoch by epoch.
type stream struct {
	bodies [][]byte
	// cyclic streams (dense) wrap past their end back to epoch 1; delta
	// streams end, because a delta only applies to its predecessor.
	cyclic bool
}

func (s *stream) body(e int) []byte {
	if e < len(s.bodies) {
		return s.bodies[e]
	}
	if !s.cyclic {
		return nil
	}
	return s.bodies[1+(e-1)%(len(s.bodies)-1)]
}

func sessionSpec(seed int64, i int) serve.SessionSpec {
	return serve.SessionSpec{Spec: sessionspec.Spec{
		IterationsPerEpoch:   itersPerEpoch,
		ForceTokensPerDevice: tokensPerDevice,
		Seed:                 deriveSeed(seed, i),
	}}
}

// makeStream generates session i's observation stream from its own seed:
// trace synthesis runs here, before any timed phase, and is traced as
// trace.synth (generator set-up as training.setup).
func makeStream(w serveWorkload, seed int64, i, epochs int, tr *tracer) (*stream, error) {
	streamSeed := deriveSeed(seed, 1<<20+i)
	sp := tr.begin("training.setup", -1, -1)
	gen, err := training.ObservationGenerator(trace.GeneratorConfig{
		Devices: 32, Experts: 8, Layers: 32,
		TokensPerDevice: tokensPerDevice, TopK: 2,
		Seed: streamSeed, Parallelism: 1,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	s := &stream{bodies: make([][]byte, 0, epochs), cyclic: !w.delta}
	var routing []*trace.RoutingMatrix
	rows := make([][][]int, 32)
	for e := 0; e < epochs; e++ {
		if w.delta && e > 0 {
			break
		}
		sp = tr.begin("trace.synth", -1, -1)
		if e > 0 {
			err = gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftMigration})
		}
		routing = gen.StepInto(routing)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for l, m := range routing {
			rows[l] = m.R
		}
		b, err := json.Marshal(serve.ObserveRequest{Routing: rows})
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	if !w.delta {
		return s, nil
	}
	// The converged fleet: each epoch moves two tokens per layer between
	// devices (laer-bench's -stationary model), posted as routing_delta.
	prev := routing
	cur := make([][][]int, len(prev))
	for l, m := range prev {
		cur[l] = make([][]int, m.N)
		for d, row := range m.R {
			cur[l][d] = append([]int(nil), row...)
		}
	}
	rng := rand.New(rand.NewSource(streamSeed))
	deltas := make([]*trace.WireDelta, len(cur))
	for e := 1; e < epochs; e++ {
		for l, layer := range cur {
			devices, experts := len(layer), len(layer[0])
			for moved := 0; moved < 2; {
				d, x := rng.Intn(devices), rng.Intn(experts)
				if layer[d][x] == 0 {
					continue
				}
				d2 := (d + 1 + rng.Intn(devices-1)) % devices
				layer[d][x]--
				layer[d2][x]++
				moved++
			}
			deltas[l] = trace.WireDiff(prev[l], layer)
			deltas[l].Apply(prev[l])
		}
		b, err := json.Marshal(serve.ObserveRequest{Epoch: e, RoutingDelta: deltas})
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	return s, nil
}

// daemon is one laer-serve process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{}
	done    bool
}

// startDaemon execs laer-serve on an ephemeral port with journaling into
// dir and returns once it prints its listening line — after it has
// replayed every journal in dir.
func startDaemon(bin, dir string, maxSessions int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-journal-dir", dir,
		"-max-sessions", strconv.Itoa(maxSessions), "-quiet")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	rd := bufio.NewReader(out)
	line, err := rd.ReadString('\n')
	go func() {
		io.Copy(io.Discard, rd)
		close(d.drained)
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "laer-serve listening on ")
	if err != nil || !ok {
		d.kill()
		return nil, fmt.Errorf("laer-serve did not report its address (read %q: %v)", line, err)
	}
	d.addr = addr
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if d.done {
		return nil
	}
	d.done = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	<-d.drained
	return d.cmd.Wait()
}

// kill ends the daemon on error paths.
func (d *daemon) kill() {
	if d.done {
		return
	}
	d.done = true
	d.cmd.Process.Kill()
	<-d.drained
	d.cmd.Wait()
}

func newClient() *http.Client {
	n := senders()
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// forEach runs fn(0..n-1) on k goroutines and returns the first error.
func forEach(n, k int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// op is one observe: its schedule, its timing and the raw response,
// decoded only after the phase ends.
type op struct {
	sess, epoch int
	due         time.Time // zero in the closed loop
	sent, recv  time.Time
	status      int
	resp        []byte
	err         error
}

func (o *op) ok() bool { return o.err == nil && o.status/100 == 2 }

// sessionState sequences one session's observes: epoch e is posted only
// after epoch e-1 returned, because the daemon plans a session's epochs
// in order.
type sessionState struct {
	mu    sync.Mutex
	cond  *sync.Cond
	acked int
	busy  bool
}

// serveRun is one run's state against the daemon.
type serveRun struct {
	o       options
	w       serveWorkload
	dir     string
	client  *http.Client
	streams []*stream
	specs   []serve.SessionSpec

	d    *daemon
	jdir string
	ids  []string
	st   []*sessionState
	ops  [][]*op // per session, in epoch order
}

func (r *serveRun) base() string { return "http://" + r.d.addr }

func (r *serveRun) do(o *op) {
	body := r.streams[o.sess].body(o.epoch)
	o.sent = time.Now()
	o.status, o.resp, o.err = post(r.client, r.base()+"/v1/sessions/"+r.ids[o.sess]+"/observe", body)
	o.recv = time.Now()
}

// join is one set-up: exec a daemon on a fresh journal, open the fleet,
// post every session's first dense observe. It returns the elapsed time.
func (r *serveRun) join(k int) (time.Duration, error) {
	start := time.Now()
	r.jdir = filepath.Join(r.dir, fmt.Sprintf("journal-%d", k))
	d, err := startDaemon(r.o.serveBin, r.jdir, r.w.sessions)
	if err != nil {
		return 0, err
	}
	r.d = d
	r.client.Transport.(*http.Transport).CloseIdleConnections()
	r.ids = make([]string, r.w.sessions)
	err = forEach(r.w.sessions, senders(), func(i int) error {
		b, err := json.Marshal(r.specs[i])
		if err != nil {
			return err
		}
		status, resp, err := post(r.client, r.base()+"/v1/sessions", b)
		if err != nil {
			return err
		}
		if status != http.StatusCreated {
			return fmt.Errorf("opening session: status %d: %s", status, resp)
		}
		var info serve.SessionInfo
		if err := json.Unmarshal(resp, &info); err != nil {
			return err
		}
		r.ids[i] = info.ID
		return nil
	})
	if err != nil {
		return 0, err
	}
	r.st = make([]*sessionState, r.w.sessions)
	r.ops = make([][]*op, r.w.sessions)
	err = forEach(r.w.sessions, senders(), func(i int) error {
		o := &op{sess: i, epoch: 0}
		r.do(o)
		if !o.ok() {
			return fmt.Errorf("join observe of session %s: status %d: %v %s", r.ids[i], o.status, o.err, o.resp)
		}
		r.ops[i] = append(r.ops[i], o)
		st := &sessionState{acked: 1}
		st.cond = sync.NewCond(&st.mu)
		r.st[i] = st
		return nil
	})
	return time.Since(start), err
}

// openLoopOps schedules the open-loop phase: the herd fires every
// session's next epoch at each tick; drift paces observes uniformly,
// round-robin over sessions.
func (r *serveRun) openLoopOps(seconds float64, start time.Time) []*op {
	var ops []*op
	if r.w.tick > 0 {
		epochs := int(seconds * float64(time.Second) / float64(r.w.tick))
		for e := 1; e <= epochs; e++ {
			due := start.Add(time.Duration(e-1) * r.w.tick)
			for s := 0; s < r.w.sessions; s++ {
				ops = append(ops, &op{sess: s, epoch: e, due: due})
			}
		}
		return ops
	}
	n := int(seconds * r.w.rate)
	for k := 0; k < n; k++ {
		ops = append(ops, &op{
			sess: k % r.w.sessions, epoch: 1 + k/r.w.sessions,
			due: start.Add(time.Duration(float64(k) / r.w.rate * float64(time.Second))),
		})
	}
	return ops
}

// openLoop sends the scheduled ops in due order from senders()
// goroutines. Each op is timed from its due time, so queueing behind a
// burst or a stall counts.
func (r *serveRun) openLoop(ops []*op) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ops) {
					return
				}
				o := ops[k]
				if d := time.Until(o.due); d > 0 {
					time.Sleep(d)
				}
				st := r.st[o.sess]
				st.mu.Lock()
				for st.acked < o.epoch {
					st.cond.Wait()
				}
				st.mu.Unlock()
				r.do(o)
				st.mu.Lock()
				st.acked = o.epoch + 1
				st.cond.Broadcast()
				st.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, o := range ops {
		r.ops[o.sess] = append(r.ops[o.sess], o)
	}
}

// closedLoop keeps senders() connections busy until the deadline, each
// posting some session's next observe as soon as its last one returns.
func (r *serveRun) closedLoop(deadline time.Time) []*op {
	var ctr atomic.Int64
	var mu sync.Mutex
	var all []*op
	var wg sync.WaitGroup
	for w := 0; w < senders(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idle := 0
			for time.Now().Before(deadline) && idle < r.w.sessions {
				i := int(ctr.Add(1)-1) % r.w.sessions
				st := r.st[i]
				st.mu.Lock()
				e := st.acked
				// A session stops one compaction cadence short of its
				// stream's end, leaving room for the pre-recovery top-up.
				if st.busy || r.streams[i].body(e+snapshotEvery) == nil {
					st.mu.Unlock()
					idle++
					continue
				}
				idle = 0
				st.busy = true
				st.mu.Unlock()
				o := &op{sess: i, epoch: e}
				r.do(o)
				st.mu.Lock()
				st.acked, st.busy = e+1, false
				st.mu.Unlock()
				mu.Lock()
				all = append(all, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(all, func(a, b int) bool { return all[a].epoch < all[b].epoch })
	for _, o := range all {
		r.ops[o.sess] = append(r.ops[o.sess], o)
	}
	return all
}

// advanceToCompaction posts, one at a time, each session's next epochs
// until it is one observe short of its next journal compaction, and
// returns how many observes that took.
func (r *serveRun) advanceToCompaction() (int, error) {
	n := 0
	for i, st := range r.st {
		for st.acked%snapshotEvery != snapshotEvery-1 {
			o := &op{sess: i, epoch: st.acked}
			if r.streams[i].body(o.epoch) == nil {
				return n, fmt.Errorf("session %d has no input for epoch %d", i, o.epoch)
			}
			r.do(o)
			n++
			r.ops[i] = append(r.ops[i], o)
			if !o.ok() {
				return n, fmt.Errorf("observe of session %s epoch %d: status %d: %v %s", r.ids[i], o.epoch, o.status, o.err, o.resp)
			}
			st.acked++
		}
	}
	return n, nil
}

// restart SIGTERMs the daemon, execs a new one on the same journal and
// checks that every session is listed at its epoch; it returns the time
// from SIGTERM to the check passing.
func (r *serveRun) restart() (time.Duration, error) {
	start := time.Now()
	if err := r.d.stop(); err != nil {
		return 0, fmt.Errorf("draining laer-serve: %w", err)
	}
	d, err := startDaemon(r.o.serveBin, r.jdir, r.w.sessions)
	if err != nil {
		return 0, err
	}
	r.d = d
	r.client.Transport.(*http.Transport).CloseIdleConnections()
	status, b, err := getURL(r.client, r.base()+"/v1/sessions")
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("listing sessions: status %d", status)
	}
	elapsed := time.Since(start)
	var list struct {
		Sessions []serve.SessionInfo `json:"sessions"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		return 0, err
	}
	at := make(map[string]int, len(list.Sessions))
	for _, info := range list.Sessions {
		at[info.ID] = info.Epochs
	}
	for i, id := range r.ids {
		if got, ok := at[id]; !ok || got != r.st[i].acked {
			return 0, fmt.Errorf("after restart session %s is listed at epoch %d (present %v), want %d", id, got, ok, r.st[i].acked)
		}
	}
	return elapsed, nil
}

func getURL(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// servedDecision is the decision part of a served response, as raw bytes.
type servedDecision struct {
	Epoch       int             `json:"epoch"`
	Boundary    json.RawMessage `json:"boundary"`
	Observation json.RawMessage `json:"observation"`
	Summary     json.RawMessage `json:"summary"`
}

// sameDecision reports whether a served response carries exactly the
// decision the mirror computed (solve_seconds aside).
func sameDecision(served []byte, want *serve.ObserveResponse) error {
	var got servedDecision
	if err := json.Unmarshal(served, &got); err != nil {
		return fmt.Errorf("decoding served response: %w", err)
	}
	if got.Epoch != want.Epoch {
		return fmt.Errorf("served epoch %d, want %d", got.Epoch, want.Epoch)
	}
	for _, part := range []struct {
		name string
		got  json.RawMessage
		want any
	}{
		{"boundary", got.Boundary, want.Boundary},
		{"observation", got.Observation, want.Observation},
		{"summary", got.Summary, want.Summary},
	} {
		b, err := json.Marshal(part.want)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, part.got) {
			return fmt.Errorf("epoch %d %s differs from the in-process planner:\n served %s\n   want %s", want.Epoch, part.name, part.got, b)
		}
	}
	return nil
}

// verify replays every session's posted sequence through a reference
// mirror and byte-compares every served decision. After the join and
// open-loop epochs (openEpochs[i] of them) it simulates one iteration on
// the layouts of the first stepSessions mirrors: the run's sim_step_ms.
// It returns that step time and the mirrors. Untraced, sessions are
// checked on senders() goroutines.
func (r *serveRun) verify(openEpochs []int, store *journal.Store, tr *tracer) (float64, []*mirror, error) {
	mirrors := make([]*mirror, r.w.sessions)
	steps := make([]float64, min(stepSessions, r.w.sessions))
	workers := senders()
	if tr != nil {
		workers = 1
	}
	err := forEach(r.w.sessions, workers, func(i int) error {
		seq, _ := strconv.ParseUint(strings.TrimPrefix(r.ids[i], "s-"), 10, 64)
		sp := tr.begin("training.setup", -1, -1)
		m, err := newMirror(r.ids[i], seq, r.specs[i], store)
		tr.end(sp)
		if err != nil {
			return err
		}
		mirrors[i] = m
		for _, o := range r.ops[i] {
			if !o.ok() {
				return fmt.Errorf("session %s epoch %d failed: status %d: %v %s", r.ids[i], o.epoch, o.status, o.err, o.resp)
			}
			body := r.streams[i].body(o.epoch)
			if tr != nil && o.epoch == 0 {
				// The join's dense body, the only dense decode a delta
				// session makes, timed on its own as serve.join_decode.
				sp := tr.begin("serve.join_decode", -1, -1)
				err := json.Unmarshal(body, new(serve.ObserveRequest))
				tr.end(sp)
				if err != nil {
					return err
				}
			}
			want, err := m.observe(body, nil, -1, -1)
			if err != nil {
				return fmt.Errorf("session %s: %w", r.ids[i], err)
			}
			if err := sameDecision(o.resp, want); err != nil {
				return fmt.Errorf("session %s: %w", r.ids[i], err)
			}
			if i < len(steps) && m.epochs == openEpochs[i] {
				if steps[i], err = m.stepTime(tr); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return 1e3 * stats.Mean(steps), mirrors, nil
}

// imbalanceOf averages mean_predicted_imbalance over the given responses.
func imbalanceOf(ops []*op) (float64, error) {
	sum := 0.0
	for _, o := range ops {
		var resp struct {
			Summary training.EpochSummary `json:"summary"`
		}
		if err := json.Unmarshal(o.resp, &resp); err != nil {
			return 0, err
		}
		sum += resp.Summary.MeanPredictedImbalance
	}
	return sum / float64(len(ops)), nil
}

func runServe(o options, w serveWorkload, dir string) (*result, error) {
	r := &serveRun{o: o, w: w, dir: dir, client: newClient()}
	openSeconds, closedSeconds := o.seconds*0.7, o.seconds*0.3
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Inputs: one stream per session, every body pre-marshaled. Dense
	// streams cycle through driftEpochs bodies; delta streams cover every
	// epoch the run can reach.
	epochs := driftEpochs
	if w.tick > 0 {
		epochs = 1 + int(openSeconds*float64(time.Second)/float64(w.tick)) + herdClosedEpochs + snapshotEvery
	}
	genStart := time.Now()
	r.streams = make([]*stream, w.sessions)
	r.specs = make([]serve.SessionSpec, w.sessions)
	for i := range r.streams {
		r.specs[i] = sessionSpec(o.seed, i)
		s, err := makeStream(w, o.seed, i, epochs, tr)
		if err != nil {
			return nil, err
		}
		r.streams[i] = s
	}
	fmt.Printf("inputs: %d sessions x %d epochs generated in %.2fs\n", w.sessions, epochs, time.Since(genStart).Seconds())
	defer func() {
		if r.d != nil {
			r.d.kill()
		}
	}()

	// Set-up, repeated on fresh daemons and journals; the last fleet stays.
	repeats := w.setups
	if o.trace {
		repeats = 1
	}
	var setups []float64
	for k := 0; k < repeats; k++ {
		if k > 0 {
			if err := r.d.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(r.jdir)
		}
		t, err := r.join(k)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t.Seconds())
	}
	fmt.Printf("setup: %d sessions joined, median %.4fs over %d repeats %v\n", w.sessions, median(setups), len(setups), setups)

	// Open loop. The load generator's own garbage collector stays off
	// through the timed phases, so it takes no CPU from the daemon.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	cpu0, err := procCPU(r.d.pid())
	if err != nil {
		return nil, err
	}
	steal := readSteal()
	start := time.Now().Add(20 * time.Millisecond)
	openOps := r.openLoopOps(openSeconds, start)
	r.openLoop(openOps)
	openSteal := steal.since()
	openEpochs := make([]int, w.sessions)
	for i := range openEpochs {
		openEpochs[i] = len(r.ops[i])
	}
	lat := make([]float64, len(openOps))
	queue := make([]float64, len(openOps))
	late, lateOf := 0, 0
	failed := 0
	nextDue := make(map[[2]int]time.Time, len(openOps))
	for _, op := range openOps {
		nextDue[[2]int{op.sess, op.epoch}] = op.due
	}
	for k, op := range openOps {
		queue[k] = ms(op.sent.Sub(op.due))
		lat[k] = ms(op.recv.Sub(op.due))
		if !op.ok() {
			lat[k] = missMs
			failed++
		}
		if due, ok := nextDue[[2]int{op.sess, op.epoch + 1}]; ok {
			lateOf++
			if op.recv.After(due) {
				late++
			}
		}
	}
	sum := summarize(lat)
	fmt.Printf("open loop: %d observes over %.1fs: %s\n", len(openOps), openSeconds, sum)
	fmt.Printf("open loop validity: generator lateness p99 %.3fms max %.3fms, host steal %.1f%%, decisions late for the next due %d/%d (%.2f%%)\n",
		stats.Percentile(queue, 99), stats.Max(queue), 100*openSteal, late, lateOf, 100*float64(late)/float64(max(lateOf, 1)))
	printEpochClasses(openOps)

	res := newResult()
	if o.trace {
		debug.SetGCPercent(gcPercent)
		res.put("serve.queue_ms", stats.Mean(queue))
		return r.traced(res, tr, openEpochs, w.sessions+len(openOps), failed)
	}

	// Closed loop.
	steal = readSteal()
	cstart := time.Now()
	closedOps := r.closedLoop(cstart.Add(time.Duration(closedSeconds * float64(time.Second))))
	celapsed := time.Since(cstart)
	cpu1, err := procCPU(r.d.pid())
	if err != nil {
		return nil, err
	}
	closedOK := 0
	for _, op := range closedOps {
		if op.ok() {
			closedOK++
		} else {
			failed++
		}
	}
	fmt.Printf("closed loop: %d observes in %.2fs on %d connections (%.1f/s), host steal %.1f%%\n",
		len(closedOps), celapsed.Seconds(), senders(), float64(closedOK)/celapsed.Seconds(), 100*steal.since())
	debug.SetGCPercent(gcPercent)
	rss, err := peakRSSMiB(strconv.Itoa(r.d.pid()))
	if err != nil {
		return nil, err
	}

	// Recovery, repeated: a clean SIGTERM leaves no torn tail, so every
	// restart replays the same journal. Every session is first advanced,
	// untimed, to the last epoch before its next compaction, so a restart
	// always replays one checkpoint plus snapshotEvery-1 epochs per
	// session, however far the closed loop got.
	topUp, err := r.advanceToCompaction()
	if err != nil {
		return nil, err
	}
	var recs []float64
	for k := 0; k < recoveryRepeats; k++ {
		t, err := r.restart()
		if err != nil {
			return nil, err
		}
		recs = append(recs, t.Seconds())
	}
	if err := r.d.stop(); err != nil {
		return nil, err
	}
	fmt.Printf("recovery: median %.4fs over %d restarts %v\n", median(recs), len(recs), recs)

	// Output checks, outside every timed phase.
	var joinAndOpen []*op
	for i := range r.ops {
		joinAndOpen = append(joinAndOpen, r.ops[i][:openEpochs[i]]...)
	}
	imb, err := imbalanceOf(joinAndOpen)
	if err != nil {
		return nil, err
	}
	correct := true
	checkStart := time.Now()
	stepMs, _, err := r.verify(openEpochs, nil, nil)
	if err != nil {
		fmt.Println("CHECK FAILED:", err)
		correct = false
	}
	fmt.Printf("checks: every served decision byte-compared in %.2fs\n", time.Since(checkStart).Seconds())

	attempted := w.sessions + len(openOps) + len(closedOps) + topUp
	res.Correct = correct && failed == 0
	res.Attempted, res.Failed = attempted, failed
	res.put("latency_p50_ms", sum.p50)
	res.put("latency_tail_ms", sum.tail)
	res.put("throughput_per_s", float64(closedOK)/celapsed.Seconds())
	res.put("cpu_ms_per_op", ms(cpu1-cpu0)/float64(len(openOps)+len(closedOps)))
	res.put("setup_s", median(setups))
	res.put("rss_mb", rss)
	res.put("recovery_s", median(recs))
	res.put("imbalance", imb)
	res.put("sim_step_ms", stepMs)
	return res, nil
}

// traced re-drives tracedEpochs more epochs per session, one observe in
// flight: each gets an unloaded HTTP round trip (the root span) and then
// goes through the mirror's seams, whose spans are the root's children.
func (r *serveRun) traced(res *result, tr *tracer, openEpochs []int, attempted, failed int) (*result, error) {
	store, err := journal.Open(journal.Options{Dir: filepath.Join(r.dir, "mirror-journal")})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	correct := true
	_, mirrors, err := r.verify(openEpochs, store, tr)
	if err != nil {
		fmt.Println("CHECK FAILED:", err)
		return nil, err
	}

	var bodyBytes, recordBytes int64
	inc, solves, replans, decisions, predicted := 0, 0, 0, 0, 0
	opEpoch := []int{}
	for round := 0; round < tracedEpochs; round++ {
		for i, m := range mirrors {
			e := r.st[i].acked
			id := len(opEpoch)
			opEpoch = append(opEpoch, e)
			o := &op{sess: i, epoch: e}
			body := r.streams[i].body(e)
			if body == nil {
				return nil, fmt.Errorf("session %d has no input for epoch %d", i, e)
			}
			r.do(o)
			if !o.ok() {
				failed++
				correct = false
				fmt.Printf("CHECK FAILED: traced observe %s epoch %d: status %d %v\n", r.ids[i], e, o.status, o.err)
				continue
			}
			r.st[i].acked = e + 1
			root := tr.add("serve.http", id, -1, o.sent, o.recv)
			want, err := m.observe(body, tr, id, root)
			if err != nil {
				return nil, err
			}
			if err := sameDecision(o.resp, want); err != nil {
				fmt.Println("CHECK FAILED:", err)
				correct = false
			}
			bodyBytes += int64(len(body))
			recordBytes += m.appended
			inc += want.Summary.IncrementalSolves
			solves += want.Summary.IncrementalSolves + want.Summary.FullSolves
			predicted += want.Summary.PredictedLayers
			for _, d := range append(append([]training.LayerDecision(nil), want.Boundary...), want.Observation...) {
				decisions++
				if d.Action != training.ActionKeep {
					replans++
				}
			}
		}
	}
	n := len(opEpoch)

	// Recovery seam: read every session journal back, then restart once
	// and check every session is listed at its epoch.
	if err := r.d.stop(); err != nil {
		return nil, err
	}
	if err := r.sameJournals(store.Dir()); err != nil {
		fmt.Println("CHECK FAILED:", err)
		correct = false
	}
	rstore, err := journal.Open(journal.Options{Dir: r.jdir})
	if err != nil {
		return nil, err
	}
	for _, id := range r.ids {
		sp := tr.begin("journal.replay_read", -1, -1)
		_, err := rstore.Read(id)
		tr.end(sp)
		if err != nil {
			rstore.Close()
			return nil, err
		}
	}
	if err := rstore.Close(); err != nil {
		return nil, err
	}
	if _, err := r.restart(); err != nil {
		fmt.Println("CHECK FAILED:", err)
		correct = false
	}
	if err := r.d.stop(); err != nil {
		return nil, err
	}

	all := func(int) bool { return true }
	compacting := func(op int) bool { return op >= 0 && opEpoch[op]%snapshotEvery == snapshotEvery-1 }
	other := func(op int) bool { return op >= 0 && opEpoch[op]%snapshotEvery != snapshotEvery-1 }
	per := func(name string, keep func(int) bool) float64 {
		d, _ := tr.sum(name, keep)
		c := 0
		for op := range opEpoch {
			if keep(op) {
				c++
			}
		}
		return ms(d) / float64(max(c, 1))
	}
	perCall := func(name string) float64 {
		d, c := tr.sum(name, nil)
		return ms(d) / float64(max(c, 1))
	}
	classes := []func(int) bool{all, compacting, other}
	counts := make([]int, len(classes))
	for k, keep := range classes {
		for op := range opEpoch {
			if keep(op) {
				counts[k]++
			}
		}
	}
	var rows []layerRow
	for _, name := range []string{"serve.http", "serve.decode", "trace.apply", "training.plan", "journal.append", "journal.rewrite", "serve.encode", "journal.sync"} {
		row := layerRow{name: name + "_ms"}
		for _, keep := range classes {
			row.ms = append(row.ms, per(name, keep))
		}
		rows = append(rows, row)
	}
	resid := layerRow{name: "serve.residual_ms"}
	for k, keep := range classes {
		resid.ms = append(resid.ms, ms(tr.selfTime("serve.http", keep))/float64(max(counts[k], 1)))
	}
	rows = append(rows, resid)
	printTable([]string{"all", "compacting", "other"}, counts, rows)

	spansPerOp := 0
	for _, s := range tr.spans {
		if s.Op >= 0 {
			spansPerOp++
		}
	}
	cost := spanCost()
	overhead := ms(cost) * float64(spansPerOp) / float64(max(n, 1))
	http := per("serve.http", all)
	fmt.Printf("tracing overhead: %.1f spans/op x %s = %.4fms/op (%.2f%% of serve.http_ms)\n",
		float64(spansPerOp)/float64(max(n, 1)), cost, overhead, 100*overhead/http)
	path, err := tr.write(filepath.Join(r.o.workDir, "spans"), fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.o.seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)

	joinDecode, joins := tr.sum("serve.join_decode", nil)
	replayRead, _ := tr.sum("journal.replay_read", nil)
	rewrite, rewrites := tr.sum("journal.rewrite", nil)
	synth, syntheses := tr.sum("trace.synth", nil)
	setup, _ := tr.sum("training.setup", nil)
	res.Correct = correct && failed == 0
	res.Attempted, res.Failed = attempted+n, failed
	res.put("serve.http_ms", http)
	res.put("serve.decode_ms", per("serve.decode", all))
	res.put("serve.join_decode_ms", ms(joinDecode)/float64(max(joins, 1)))
	res.put("serve.body_kb", float64(bodyBytes)/1024/float64(n))
	res.put("trace.apply_ms", per("trace.apply", all))
	res.put("training.plan_ms", per("training.plan", all))
	res.put("planner.incremental_share", float64(inc)/float64(max(solves, 1)))
	res.put("planner.replan_share", float64(replans)/float64(max(decisions, 1)))
	res.put("journal.append_ms", per("journal.append", all))
	res.put("journal.record_kb", float64(recordBytes)/1024/float64(n))
	res.put("journal.rewrite_ms", ms(rewrite)/float64(max(rewrites, 1)))
	res.put("journal.sync_ms", per("journal.sync", all))
	res.put("serve.encode_ms", per("serve.encode", all))
	res.put("serve.residual_ms", resid.ms[0])
	res.put("journal.replay_read_ms", ms(replayRead))
	res.put("training.setup_ms", ms(setup)/float64(r.w.sessions))
	res.put("trace.synth_ms", ms(synth)/float64(max(syntheses, 1)))
	res.put("planner.dispatch_ms", perCall("planner.dispatch"))
	res.put("executor.iteration_ms", perCall("executor.iteration"))
	res.put("training.predicted_layers", float64(predicted))
	res.put("laermoe.residual_ms", 0)
	return res, nil
}

// sameJournals byte-compares every session's mirror journal in dir with
// the stopped daemon's. Journal records carry no wall-clock field, so a
// mirror that journals and compacts as the daemon does writes the same
// file; a difference means the mirror's journal timings no longer measure
// the daemon's journal.
func (r *serveRun) sameJournals(dir string) error {
	for _, id := range r.ids {
		want, err := os.ReadFile(filepath.Join(r.jdir, id+".jnl"))
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(dir, id+".jnl"))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			line := 1 + bytes.Count(want[:commonPrefix(got, want)], []byte("\n"))
			return fmt.Errorf("session %s: the mirror's journal (%d bytes) differs from the daemon's (%d bytes) at line %d", id, len(got), len(want), line)
		}
	}
	return nil
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// printEpochClasses splits open-loop latency by compaction epochs (every
// 16th observe of a session rewrites its journal) versus the rest, so the
// tail's source is visible in every run.
func printEpochClasses(ops []*op) {
	var comp, rest []float64
	for _, o := range ops {
		l := ms(o.recv.Sub(o.due))
		if o.epoch%snapshotEvery == snapshotEvery-1 {
			comp = append(comp, l)
		} else {
			rest = append(rest, l)
		}
	}
	if len(comp) > 0 {
		fmt.Printf("open loop by epoch: compacting epochs %s; other epochs %s\n", summarize(comp), summarize(rest))
	}
}
