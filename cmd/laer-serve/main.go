// laer-serve runs the re-layout planning service: a long-lived HTTP/JSON
// daemon where clients open planning sessions (cluster shape, replan
// policy, predictor), POST per-epoch expert-load observations and receive
// re-layout decisions — keep, warm replan or predictive replan per layer,
// with migration cost and predicted imbalance. Decisions are byte-identical
// to what laermoe.SimulateOnline reports for the same observation stream.
//
// Usage:
//
//	laer-serve -addr 127.0.0.1:8080
//	curl -s localhost:8080/healthz
//	curl -s -XPOST localhost:8080/v1/sessions -d '{"policy":"warm"}'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drain the daemon gracefully: in-flight solves complete
// (bounded by -drain) before the process exits 0.
//
// With -journal-dir, sessions are durable: every observation and decision
// is event-sourced to an append-only journal, and a restarted daemon
// replays each session back to byte-identical planner state before it
// accepts requests.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"laermoe"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (use port 0 for an ephemeral port)")
		parallelism = flag.Int("parallelism", 0, "worker budget shared by all sessions' solves and boot replay (0 = all CPUs)")
		maxSessions = flag.Int("max-sessions", 64, "maximum concurrently open sessions")
		sessionTTL  = flag.Duration("session-ttl", 0, "evict sessions idle longer than this (0 = never)")
		journalDir  = flag.String("journal-dir", "", "event-source sessions to this directory and replay them on boot (empty = no durability)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		quiet       = flag.Bool("quiet", false, "suppress per-request logging (the listening line is always printed)")
	)
	flag.Parse()

	// Flag validation fails fast with usage exit code 2, like the other
	// tools.
	if err := validateFlags(*addr, *parallelism, *maxSessions, *sessionTTL, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "laer-serve:", err)
		fmt.Fprintln(os.Stderr, "run 'laer-serve -h' for usage")
		os.Exit(2)
	}

	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "laer-serve: ", log.LstdFlags)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := laermoe.Serve(ctx, laermoe.ServeOptions{
		Addr:         *addr,
		Parallelism:  *parallelism,
		MaxSessions:  *maxSessions,
		SessionTTL:   *sessionTTL,
		JournalDir:   *journalDir,
		DrainTimeout: *drain,
		Log:          logger,
		OnReady: func(bound string) {
			// The one line the daemon-smoke CI job (and any wrapper script)
			// parses to learn the ephemeral port; stdout, unconditionally.
			fmt.Printf("laer-serve listening on %s\n", bound)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "laer-serve:", err)
		os.Exit(1)
	}
}

func validateFlags(addr string, parallelism, maxSessions int, sessionTTL, drain time.Duration) error {
	if addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if parallelism < 0 {
		return fmt.Errorf("-parallelism %d must not be negative", parallelism)
	}
	if maxSessions < 1 {
		return fmt.Errorf("-max-sessions %d must be at least 1", maxSessions)
	}
	if sessionTTL < 0 {
		return fmt.Errorf("-session-ttl %s must not be negative (0 disables eviction)", sessionTTL)
	}
	if drain <= 0 {
		return fmt.Errorf("-drain %s must be positive", drain)
	}
	return nil
}
