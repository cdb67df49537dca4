// laer-bench is the load harness for the laer-serve planning daemon: it
// drives N concurrent drifting planning sessions — each posting per-epoch
// expert-load observations and consuming re-layout decisions — and
// reports observe-latency percentiles, planning throughput and, with
// journaling enabled, the cost of a full journal-replay restart.
//
//	laer-bench                           # self-host a daemon, 64 sessions x 5 epochs
//	laer-bench -quick                    # CI-sized: 500 sessions x 3 epochs, small tokens
//	laer-bench -fleet1k -slo-p99 10ms    # scale scenario: 1000 paced sessions, p99 gate
//	laer-bench -fleet1k -herd -delta -stationary  # simultaneous 1k herd on the sparse wire
//	laer-bench -addr HOST:PORT           # drive an already-running laer-serve
//	laer-bench -journal-dir d -quick \
//	           -slo-p99 500ms -report r.json
//
// Every session replays the same pre-generated observation stream (trace
// generation at production token counts costs far more than the solves
// being measured; one shared, pre-marshaled stream keeps the harness out
// of its own way). The stream is drifting by default; -stationary models
// a converged fleet whose routing moves only a couple of tokens per layer
// per epoch — the regime the sparse wire protocol exists for. With
// -delta, every epoch after the first is posted as routing_delta against
// the session's retained matrix instead of the dense routing; with
// -herd, sessions fire each epoch simultaneously instead of staggered
// across the interval, measuring the daemon under the synchronized
// thundering herd. With -slo-p99 the run exits 1 when the observe p99
// exceeds the budget, when a replanning fleet reports zero incremental
// solves (the drift-delta fast path must carry the steady state), or
// when a -delta run lands zero delta observes — the CI daemon-smoke
// gate. Self-hosted runs always journal (into a temp directory unless
// -journal-dir names one) and end by restarting the daemon against the
// journal and timing the replay back to full session state.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"laermoe/internal/serve"
	"laermoe/internal/stats"
	"laermoe/internal/trace"
	"laermoe/internal/training"
	sessionspec "laermoe/session"
)

type config struct {
	addr            string
	sessions        int
	epochs          int
	model           string
	policy          string
	workload        string
	arrival         string
	drift           string
	seed            int64
	parallelism     int
	itersPerEpoch   int
	tokensPerDevice int
	epochInterval   time.Duration
	journalDir      string
	reportPath      string
	sloP99          time.Duration
	herd            bool
	delta           bool
	stationary      bool
}

// report is the machine-readable result, written to -report as JSON.
type report struct {
	Sessions          int     `json:"sessions"`
	Epochs            int     `json:"epochs"`
	Observes          int     `json:"observes"`
	ElapsedSeconds    float64 `json:"elapsed_s"`
	ObserveP50Millis  float64 `json:"observe_p50_ms"`
	ObserveP99Millis  float64 `json:"observe_p99_ms"`
	ObservesPerSecond float64 `json:"observes_per_second"`
	Cores             int     `json:"cores"`
	SessionsPerCore   float64 `json:"sessions_per_core"`
	EpochIntervalSecs float64 `json:"epoch_interval_s,omitempty"`
	Herd              bool    `json:"herd,omitempty"`
	Stationary        bool    `json:"stationary,omitempty"`

	// Wire accounting: the bytes actually posted across every observe,
	// against what the same epochs would have cost dense. In -delta mode
	// the reduction is the sparse wire protocol's payoff; without it the
	// two are equal and the reduction is 1.
	DeltaObserves       int     `json:"delta_observes"`
	ObservePayloadBytes int64   `json:"observe_payload_bytes"`
	DensePayloadBytes   int64   `json:"dense_payload_bytes"`
	PayloadReduction    float64 `json:"payload_reduction"`
	// SteadyPayloadReduction is the per-epoch ratio with the mandatory
	// dense first epoch excluded: what each additional epoch costs on the
	// sparse wire versus dense. A short run's whole-run PayloadReduction
	// is dominated by epoch zero; this is the steady-state number.
	SteadyPayloadReduction float64 `json:"steady_payload_reduction,omitempty"`

	// IncrementalSolves and FullSolves total the per-layer solve-path
	// counters across every observe response: how often the daemon's warm
	// solver ran through the drift tracker's amortized path versus a full
	// matrix re-score. The SLO gate requires the fast path to engage.
	IncrementalSolves int `json:"incremental_solves"`
	FullSolves        int `json:"full_solves"`

	// Replay fields are set in self-host mode with -journal-dir: the
	// daemon is restarted against its journal and the boot replay timed.
	ReplaySessions int     `json:"replay_sessions,omitempty"`
	ReplaySeconds  float64 `json:"replay_seconds,omitempty"`

	SLOP99Millis float64 `json:"slo_p99_ms,omitempty"`
	SLOOK        bool    `json:"slo_ok"`
}

func main() { os.Exit(realMain()) }

// realMain carries main's body so deferred cleanups (the self-hosted
// temp journal directory) run before the process exits — os.Exit in main
// proper would leak them on every gate-failure path.
func realMain() int {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "daemon address (empty = self-host an in-process daemon)")
	flag.IntVar(&cfg.sessions, "sessions", 64, "concurrent planning sessions")
	flag.IntVar(&cfg.epochs, "epochs", 5, "epochs each session observes")
	flag.StringVar(&cfg.model, "model", "mixtral-8x7b-e8k2", "model configuration")
	flag.StringVar(&cfg.policy, "policy", "warm", "replan policy the sessions run")
	flag.StringVar(&cfg.workload, "workload", "training", "session workload: training (drifting epoch stream) or inference (decode-request traffic)")
	flag.StringVar(&cfg.arrival, "arrival", "diurnal", "inference arrival shape (diurnal or bursty; ignored for training)")
	flag.StringVar(&cfg.drift, "drift", "migration", "epoch-boundary drift model")
	flag.Int64Var(&cfg.seed, "seed", 42, "random seed (sessions and trace stream)")
	flag.IntVar(&cfg.parallelism, "parallelism", 0, "self-hosted daemon's solve worker budget (0 = all CPUs)")
	flag.IntVar(&cfg.itersPerEpoch, "epoch-iters", 4, "planning horizon (iterations per epoch)")
	flag.IntVar(&cfg.tokensPerDevice, "tokens-per-device", 2048, "tokens per device in the synthetic observations")
	flag.DurationVar(&cfg.epochInterval, "epoch-interval", 0, "pace each session to one observe per interval, starts staggered across sessions (0 = flat out)")
	flag.StringVar(&cfg.journalDir, "journal-dir", "", "self-hosted daemon's journal directory (timed replay restart at the end)")
	flag.StringVar(&cfg.reportPath, "report", "", "write the machine-readable report JSON here")
	flag.DurationVar(&cfg.sloP99, "slo-p99", 0, "fail (exit 1) if observe p99 exceeds this (0 = no gate)")
	flag.BoolVar(&cfg.herd, "herd", false, "fire every session's epoch simultaneously instead of staggered across the interval")
	flag.BoolVar(&cfg.delta, "delta", false, "post epochs after the first as routing_delta against the session's retained matrix")
	flag.BoolVar(&cfg.stationary, "stationary", false, "converged-fleet stream: a couple of token moves per layer per epoch instead of drift")
	quick := flag.Bool("quick", false, "CI-sized run: 500 paced sessions x 3 epochs, 512 tokens per device")
	fleet1k := flag.Bool("fleet1k", false, "scale scenario: 1000 paced sessions x 3 epochs, 512 tokens per device")
	flag.Parse()
	if *quick {
		cfg.sessions, cfg.epochs, cfg.tokensPerDevice = 500, 3, 512
		cfg.epochInterval = 5 * time.Second
	}
	if *fleet1k {
		cfg.sessions, cfg.epochs, cfg.tokensPerDevice = 1000, 3, 512
		cfg.epochInterval = 5 * time.Second
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "laer-bench:", err)
		fmt.Fprintln(os.Stderr, "run 'laer-bench -h' for usage")
		return 2
	}
	// Self-hosted runs always journal, so the replay-restart leg is part
	// of every run; an unset -journal-dir gets a temp directory, removed
	// on every exit path (including gate failures).
	if cfg.addr == "" && cfg.journalDir == "" {
		dir, err := os.MkdirTemp("", "laer-bench-jnl-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "laer-bench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.journalDir = dir
	}

	rep, err := run(cfg, log.New(os.Stdout, "", 0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "laer-bench:", err)
		return 1
	}
	if cfg.reportPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "laer-bench:", err)
			return 1
		}
		if err := os.WriteFile(cfg.reportPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "laer-bench:", err)
			return 1
		}
	}
	if !rep.SLOOK {
		fmt.Fprintf(os.Stderr, "laer-bench: SLO BREACH: observe p99 %.1fms (budget %.1fms), %d incremental / %d full solves\n",
			rep.ObserveP99Millis, rep.SLOP99Millis, rep.IncrementalSolves, rep.FullSolves)
		return 1
	}
	return 0
}

func (c config) validate() error {
	if _, err := training.ResolvePolicy(training.ReplanPolicy(c.policy)); err != nil {
		return fmt.Errorf("-policy: %w", err)
	}
	if err := training.ResolveWorkload(training.Workload(c.workload)); err != nil {
		return fmt.Errorf("-workload: %w", err)
	}
	if err := trace.ArrivalShape(c.arrival).Validate(); err != nil {
		return fmt.Errorf("-arrival: %w", err)
	}
	if c.sessions < 1 {
		return fmt.Errorf("-sessions %d must be at least 1", c.sessions)
	}
	if c.epochs < 1 {
		return fmt.Errorf("-epochs %d must be at least 1", c.epochs)
	}
	if c.itersPerEpoch < 2 {
		return fmt.Errorf("-epoch-iters %d must be at least 2", c.itersPerEpoch)
	}
	if c.tokensPerDevice < 1 {
		return fmt.Errorf("-tokens-per-device %d must be positive", c.tokensPerDevice)
	}
	if c.parallelism < 0 {
		return fmt.Errorf("-parallelism %d must not be negative", c.parallelism)
	}
	if c.sloP99 < 0 {
		return fmt.Errorf("-slo-p99 %s must not be negative", c.sloP99)
	}
	if c.epochInterval < 0 {
		return fmt.Errorf("-epoch-interval %s must not be negative", c.epochInterval)
	}
	if c.addr != "" && c.journalDir != "" {
		return fmt.Errorf("-journal-dir only applies to the self-hosted daemon (drop -addr)")
	}
	if c.delta && c.epochs < 2 {
		return fmt.Errorf("-delta needs at least 2 epochs (the first is always posted dense)")
	}
	if c.stationary && c.workload == string(training.WorkloadInference) {
		return fmt.Errorf("-stationary models a converged training fleet; the inference stream's movement comes from -arrival")
	}
	return nil
}

// run executes the benchmark and returns the report.
func run(cfg config, out *log.Logger) (*report, error) {
	// Self-host unless pointed at a live daemon.
	var daemon *serve.Server
	addr := cfg.addr
	if addr == "" {
		s, err := serve.New(serve.Options{
			Addr:        "127.0.0.1:0",
			Parallelism: cfg.parallelism,
			MaxSessions: cfg.sessions + 4,
			JournalDir:  cfg.journalDir,
		})
		if err != nil {
			return nil, err
		}
		if err := s.Start(); err != nil {
			return nil, err
		}
		daemon = s
		addr = s.Addr()
		out.Printf("self-hosted daemon on %s", addr)
	}
	base := "http://" + addr
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.sessions + 8,
		MaxIdleConnsPerHost: cfg.sessions + 8,
	}}

	// One probe session resolves the cluster shape, then the shared
	// observation stream is generated and marshaled once — every session
	// replays the same drifting epochs, so the harness spends its time in
	// the daemon's solves, not in trace synthesis.
	spec := serve.SessionSpec{Spec: sessionspec.Spec{
		Model: cfg.model, Policy: cfg.policy,
		Workload:             cfg.workload,
		IterationsPerEpoch:   cfg.itersPerEpoch,
		ForceTokensPerDevice: cfg.tokensPerDevice,
		Seed:                 cfg.seed,
	}}
	if cfg.workload == string(training.WorkloadInference) {
		spec.Arrival = cfg.arrival
	}
	probe, err := openSession(client, base, spec)
	if err != nil {
		return nil, err
	}
	bodies, err := observationBodies(probe, cfg)
	if err != nil {
		return nil, err
	}
	workload := cfg.workload
	if workload == string(training.WorkloadInference) {
		workload += "/" + cfg.arrival
	}
	out.Printf("%d sessions x %d epochs on %s (%d layers x %d experts, %d tokens/device, policy %s, workload %s)",
		cfg.sessions, cfg.epochs, probe.Model, probe.Layers, probe.Experts, probe.TokensPerDevice, cfg.policy, workload)

	// Open the fleet (the probe is session one).
	ids := make([]string, cfg.sessions)
	ids[0] = probe.ID
	var openErr error
	var openMu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	for i := 1; i < cfg.sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			info, err := openSession(client, base, spec)
			openMu.Lock()
			defer openMu.Unlock()
			if err != nil && openErr == nil {
				openErr = err
				return
			}
			if err == nil {
				ids[i] = info.ID
			}
		}(i)
	}
	wg.Wait()
	if openErr != nil {
		return nil, fmt.Errorf("opening sessions: %w", openErr)
	}

	// Drive: one goroutine per session, all epochs in order, wall-clock
	// around each observe. With -epoch-interval each session observes on
	// its own schedule — starts staggered uniformly across the interval
	// (so the harness measures whether the daemon keeps up with the
	// offered load), or, with -herd, all at once (so it measures the
	// queueing delay of a synchronized thundering herd). In -delta mode
	// every epoch after the first posts the pre-marshaled sparse body.
	lats := make([][]float64, cfg.sessions)
	errs := make([]error, cfg.sessions)
	incSolves := make([]int, cfg.sessions)
	fullSolves := make([]int, cfg.sessions)
	deltaObs := make([]int, cfg.sessions)
	payload := make([]int64, cfg.sessions)
	start := time.Now()
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			offset := time.Duration(i) * cfg.epochInterval / time.Duration(cfg.sessions)
			if cfg.herd {
				offset = 0
			}
			lat := make([]float64, 0, cfg.epochs)
			for e := 0; e < cfg.epochs; e++ {
				if cfg.epochInterval > 0 {
					due := start.Add(offset + time.Duration(e)*cfg.epochInterval)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				body := bodies.dense[e]
				if cfg.delta && e > 0 {
					body = bodies.delta[e]
					deltaObs[i]++
				}
				payload[i] += int64(len(body))
				t0 := time.Now()
				inc, full, err := postObserve(client, base, ids[i], body)
				if err != nil {
					errs[i] = fmt.Errorf("session %s epoch %d: %w", ids[i], e, err)
					return
				}
				lat = append(lat, time.Since(t0).Seconds())
				incSolves[i] += inc
				fullSolves[i] += full
			}
			lats[i] = lat
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	all := make([]float64, 0, cfg.sessions*cfg.epochs)
	for _, lat := range lats {
		all = append(all, lat...)
	}
	totalInc, totalFull, totalDelta := 0, 0, 0
	var totalPayload, densePayload int64
	for i := range incSolves {
		totalInc += incSolves[i]
		totalFull += fullSolves[i]
		totalDelta += deltaObs[i]
		totalPayload += payload[i]
	}
	for e := 0; e < cfg.epochs; e++ {
		densePayload += int64(cfg.sessions * len(bodies.dense[e]))
	}
	cores := runtime.NumCPU()
	rep := &report{
		Sessions:            cfg.sessions,
		Epochs:              cfg.epochs,
		Observes:            len(all),
		ElapsedSeconds:      elapsed.Seconds(),
		ObserveP50Millis:    1e3 * stats.Percentile(all, 50),
		ObserveP99Millis:    1e3 * stats.Percentile(all, 99),
		ObservesPerSecond:   float64(len(all)) / elapsed.Seconds(),
		IncrementalSolves:   totalInc,
		FullSolves:          totalFull,
		Cores:               cores,
		SessionsPerCore:     float64(cfg.sessions) / float64(cores),
		EpochIntervalSecs:   cfg.epochInterval.Seconds(),
		Herd:                cfg.herd,
		Stationary:          cfg.stationary,
		DeltaObserves:       totalDelta,
		ObservePayloadBytes: totalPayload,
		DensePayloadBytes:   densePayload,
		PayloadReduction:    float64(densePayload) / float64(totalPayload),
		SLOOK:               true,
	}
	out.Printf("%d observes in %s: p50 %.1fms p99 %.1fms, %.1f observes/s (%d sessions on %d cores, %.1f/core), %d incremental / %d full solves",
		rep.Observes, elapsed.Round(time.Millisecond), rep.ObserveP50Millis, rep.ObserveP99Millis,
		rep.ObservesPerSecond, rep.Sessions, rep.Cores, rep.SessionsPerCore, rep.IncrementalSolves, rep.FullSolves)
	if cfg.delta {
		var denseSteady, deltaSteady int64
		for e := 1; e < cfg.epochs; e++ {
			denseSteady += int64(len(bodies.dense[e]))
			deltaSteady += int64(len(bodies.delta[e]))
		}
		rep.SteadyPayloadReduction = float64(denseSteady) / float64(deltaSteady)
	}
	out.Printf("wire: %d delta observes, %s posted vs %s dense (%.1fx payload reduction, %.1fx steady-state)",
		rep.DeltaObserves, formatBytes(totalPayload), formatBytes(densePayload), rep.PayloadReduction, rep.SteadyPayloadReduction)

	// Recovery leg: restart the self-hosted daemon against its journal
	// and time the replay back to full session state.
	if daemon != nil {
		if err := shutdown(daemon); err != nil {
			return nil, fmt.Errorf("draining daemon: %w", err)
		}
		if cfg.journalDir != "" {
			t0 := time.Now()
			s2, err := serve.New(serve.Options{
				Addr:        "127.0.0.1:0",
				Parallelism: cfg.parallelism,
				MaxSessions: cfg.sessions + 4,
				JournalDir:  cfg.journalDir,
			})
			if err != nil {
				return nil, fmt.Errorf("replay restart: %w", err)
			}
			rep.ReplaySeconds = time.Since(t0).Seconds()
			if err := s2.Start(); err != nil {
				return nil, err
			}
			restored, err := countSessions(s2.Addr(), cfg.epochs)
			if err != nil {
				return nil, err
			}
			rep.ReplaySessions = restored
			if err := shutdown(s2); err != nil {
				return nil, fmt.Errorf("draining replayed daemon: %w", err)
			}
			if restored != cfg.sessions {
				return nil, fmt.Errorf("replay restored %d of %d sessions", restored, cfg.sessions)
			}
			out.Printf("journal replay: %d sessions back in %.2fs", restored, rep.ReplaySeconds)
		}
	}

	if cfg.sloP99 > 0 {
		rep.SLOP99Millis = 1e3 * cfg.sloP99.Seconds()
		rep.SLOOK = rep.ObserveP99Millis <= rep.SLOP99Millis
		// The gate also asserts the drift-delta fast path engaged: any
		// replanning fleet observing more than one epoch must report
		// tracker-amortized solves, or the p99 it measured is the slow
		// path's. Whether the policy replans comes from the registry, so
		// dispatch-time baselines (static, llep, score-balance) are exempt
		// without this gate naming them.
		replans := false
		if pspec, err := training.ResolvePolicy(training.ReplanPolicy(cfg.policy)); err == nil {
			replans = pspec.Replans
		}
		if cfg.epochs >= 2 && replans && rep.IncrementalSolves == 0 {
			rep.SLOOK = false
		}
		// And a -delta run that never actually posted a delta measured
		// the dense wire, not the sparse one.
		if cfg.delta && rep.DeltaObserves == 0 {
			rep.SLOOK = false
		}
	}
	return rep, nil
}

// observationSet is the shared, pre-marshaled epoch stream: every epoch
// in its dense wire form, plus (in -delta mode) the sparse form for
// every epoch after the first.
type observationSet struct {
	dense [][]byte
	delta [][]byte // delta[0] is nil: the first observe is always dense
}

// observationBodies pre-marshals one epoch stream shared by all
// sessions. One generator step per epoch suffices: the harness measures
// planning load, not engine byte-identity, and a single observation per
// epoch is exactly what the daemon solves on. The stream drifts through
// the generator's drift model by default; -stationary instead holds the
// fleet converged, moving only a couple of tokens per layer per epoch —
// the generator redraws its per-device noise every step, so consecutive
// dense steps differ almost everywhere and would hide the sparse wire's
// payoff.
func observationBodies(info *serve.SessionInfo, cfg config) (*observationSet, error) {
	var rows [][][][]int
	var err error
	if cfg.workload == string(training.WorkloadInference) {
		rows, err = inferenceRows(info, cfg)
	} else {
		rows, err = trainingRows(info, cfg)
	}
	if err != nil {
		return nil, err
	}

	set := &observationSet{
		dense: make([][]byte, cfg.epochs),
		delta: make([][]byte, cfg.epochs),
	}
	for e := 0; e < cfg.epochs; e++ {
		b, err := json.Marshal(serve.ObserveRequest{Routing: rows[e]})
		if err != nil {
			return nil, err
		}
		set.dense[e] = b
		if cfg.delta && e > 0 {
			deltas := make([]*trace.WireDelta, len(rows[e]))
			for l := range rows[e] {
				deltas[l] = trace.WireDiff(matrixOf(rows[e-1][l]), rows[e][l])
			}
			db, err := json.Marshal(serve.ObserveRequest{Epoch: e, RoutingDelta: deltas})
			if err != nil {
				return nil, err
			}
			set.delta[e] = db
		}
	}
	return set, nil
}

// trainingRows generates the training-workload epoch stream: the online
// engine's observation generator, drifting (or -stationary perturbed)
// between epochs.
func trainingRows(info *serve.SessionInfo, cfg config) ([][][][]int, error) {
	gen, err := training.ObservationGenerator(trace.GeneratorConfig{
		Devices: info.Devices, Experts: info.Experts, Layers: info.Layers,
		TokensPerDevice: info.TokensPerDevice, TopK: info.TopK,
		Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	rows := make([][][][]int, cfg.epochs)
	for e := 0; e < cfg.epochs; e++ {
		if cfg.stationary && e > 0 {
			rows[e] = copyRows(rows[e-1])
			perturbRows(rows[e], cfg.seed+int64(e))
			continue
		}
		if e > 0 {
			if err := gen.ApplyDrift(trace.DriftConfig{Model: trace.DriftModel(cfg.drift)}); err != nil {
				return nil, err
			}
		}
		routing := gen.Step()
		obs := make([][][]int, len(routing))
		for l, m := range routing {
			obs[l] = m.R
		}
		rows[e] = copyRows(obs)
	}
	return rows, nil
}

// inferenceRows generates the inference-workload epoch stream: each epoch
// is the routing one step of decode-request traffic realizes under the
// configured arrival shape, so the daemon plans on the same matrices the
// online engine's inference workload dispatches.
func inferenceRows(info *serve.SessionInfo, cfg config) ([][][][]int, error) {
	gen, err := trace.NewRequestGenerator(trace.RequestConfig{
		GeneratorConfig: trace.GeneratorConfig{
			Devices: info.Devices, Experts: info.Experts, Layers: info.Layers,
			TokensPerDevice: info.TokensPerDevice, TopK: info.TopK,
			Seed: cfg.seed,
		},
		Arrival: trace.ArrivalShape(cfg.arrival),
	})
	if err != nil {
		return nil, err
	}
	rows := make([][][][]int, cfg.epochs)
	for e := 0; e < cfg.epochs; e++ {
		routing, _ := gen.Step()
		obs := make([][][]int, len(routing))
		for l, m := range routing {
			obs[l] = m.R
		}
		rows[e] = copyRows(obs)
	}
	return rows, nil
}

// copyRows deep-copies one epoch's observation so stationary epochs can
// be derived from their predecessor (and so no epoch aliases the
// generator's live matrices).
func copyRows(obs [][][]int) [][][]int {
	out := make([][][]int, len(obs))
	for l, rows := range obs {
		out[l] = make([][]int, len(rows))
		for d, row := range rows {
			out[l][d] = append([]int(nil), row...)
		}
	}
	return out
}

// perturbRows applies the stationary regime's epoch-to-epoch movement:
// two token-conserving moves per layer (one token of one expert hops to
// another device), seeded so every run is reproducible.
func perturbRows(obs [][][]int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, rows := range obs {
		devices, experts := len(rows), len(rows[0])
		for moved := 0; moved < 2; {
			d, x := rng.Intn(devices), rng.Intn(experts)
			if rows[d][x] == 0 {
				continue
			}
			d2 := rng.Intn(devices)
			if d2 == d {
				d2 = (d2 + 1) % devices
			}
			rows[d][x]--
			rows[d2][x]++
			moved++
		}
	}
}

// matrixOf wraps one layer's rows in a RoutingMatrix for diffing.
func matrixOf(rows [][]int) *trace.RoutingMatrix {
	m := trace.NewRoutingMatrix(len(rows), len(rows[0]))
	for d, row := range rows {
		copy(m.R[d], row)
	}
	return m
}

// formatBytes renders a byte count human-readably for the run log.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func openSession(client *http.Client, base string, spec serve.SessionSpec) (*serve.SessionInfo, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("opening session: status %d: %s", resp.StatusCode, data)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// postObserve posts one epoch's observation and returns the solve-path
// counters from the decision summary.
func postObserve(client *http.Client, base, id string, body []byte) (incSolves, fullSolves int, err error) {
	resp, err := client.Post(base+"/v1/sessions/"+id+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return 0, 0, fmt.Errorf("observe status %d: %s", resp.StatusCode, data)
	}
	var dec struct {
		Summary struct {
			IncrementalSolves int `json:"incremental_solves"`
			FullSolves        int `json:"full_solves"`
		} `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		return 0, 0, fmt.Errorf("decoding observe response: %w", err)
	}
	return dec.Summary.IncrementalSolves, dec.Summary.FullSolves, nil
}

// countSessions verifies the restored fleet: every session present and at
// the expected epoch.
func countSessions(addr string, wantEpochs int) (int, error) {
	resp, err := http.Get("http://" + addr + "/v1/sessions")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var list struct {
		Sessions []serve.SessionInfo `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return 0, err
	}
	for _, info := range list.Sessions {
		if info.Epochs != wantEpochs {
			return 0, fmt.Errorf("restored session %s is at epoch %d, want %d", info.ID, info.Epochs, wantEpochs)
		}
	}
	return len(list.Sessions), nil
}

func shutdown(s *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}
