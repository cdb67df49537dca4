// Package faults models fault injection for elastic-cluster simulations: a
// deterministic, seedable stream of membership and degradation events the
// online engine applies to its topology at epoch boundaries (or mid-epoch).
//
// Events come in three kinds: a node fails (its devices leave the
// placement/capacity universe), a node joins (a previously failed or
// reserve node comes back online), and a device degrades to a named
// heterogeneity class (reduced FLOPS and/or link bandwidth). The schedule
// is plain data — the same schedule drives training.RunOnline, the
// resilience experiment, laer-sim -elastic and a laer-serve topology
// update, which is what lets their decisions be compared byte for byte.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"laermoe/internal/topology"
)

// Kind names one fault-event type.
type Kind string

const (
	// NodeFail removes a node: its devices stop being placement targets
	// and capacity, and every expert replica they hosted is lost.
	NodeFail Kind = "fail"
	// NodeJoin brings a previously removed (or reserve) node back online.
	NodeJoin Kind = "join"
	// Degrade assigns one device a named heterogeneity class
	// (topology.ClassByName) — reduced compute and/or link bandwidth.
	Degrade Kind = "degrade"
)

// Event is one scheduled fault. Epoch is the drift window it fires in;
// Iter the iteration within that window (0 = the epoch boundary, before
// any planning; k > 0 = mid-epoch, before iteration k executes). Node
// addresses fail/join events, Device and Class degrade events.
type Event struct {
	Epoch int  `json:"epoch"`
	Iter  int  `json:"iter,omitempty"`
	Kind  Kind `json:"kind"`

	Node int `json:"node,omitempty"`

	Device int    `json:"device,omitempty"`
	Class  string `json:"class,omitempty"`
}

// String renders the event in the schedule's wire syntax.
func (e Event) String() string {
	when := strconv.Itoa(e.Epoch)
	if e.Iter > 0 {
		when += "." + strconv.Itoa(e.Iter)
	}
	if e.Kind == Degrade {
		return fmt.Sprintf("%s:%s:%d:%s", when, e.Kind, e.Device, e.Class)
	}
	return fmt.Sprintf("%s:%s:%d", when, e.Kind, e.Node)
}

// Apply executes the event against a topology.
func (e Event) Apply(topo *topology.Topology) error {
	switch e.Kind {
	case NodeFail:
		return topo.RemoveNode(e.Node)
	case NodeJoin:
		return topo.AddNode(e.Node)
	case Degrade:
		return topo.SetDeviceClassByName(e.Device, e.Class)
	}
	return fmt.Errorf("faults: unknown event kind %q", e.Kind)
}

// Schedule is a fault-event stream, kept sorted by (Epoch, Iter) with the
// original order preserved within one firing point.
type Schedule []Event

// Parse decodes the compact schedule syntax: comma-separated events of the
// form epoch[.iter]:kind:arg, e.g.
//
//	"2:fail:1,4:join:1,3:degrade:9:degraded,2.3:fail:0"
//
// fail/join take a node index, degrade a device index plus a class name
// from topology.DeviceClasses. An empty string is the empty schedule.
func Parse(s string) (Schedule, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out Schedule
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		parts := strings.Split(tok, ":")
		if len(parts) < 3 {
			return nil, fmt.Errorf("faults: event %q is not epoch[.iter]:kind:arg", tok)
		}
		var ev Event
		when := parts[0]
		if at, iter, ok := strings.Cut(when, "."); ok {
			it, err := strconv.Atoi(iter)
			if err != nil || it < 0 {
				return nil, fmt.Errorf("faults: event %q has bad iteration %q", tok, iter)
			}
			ev.Iter = it
			when = at
		}
		ep, err := strconv.Atoi(when)
		if err != nil || ep < 0 {
			return nil, fmt.Errorf("faults: event %q has bad epoch %q", tok, parts[0])
		}
		ev.Epoch = ep
		ev.Kind = Kind(parts[1])
		switch ev.Kind {
		case NodeFail, NodeJoin:
			if len(parts) != 3 {
				return nil, fmt.Errorf("faults: event %q wants epoch[.iter]:%s:node", tok, ev.Kind)
			}
			node, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("faults: event %q has bad node %q", tok, parts[2])
			}
			ev.Node = node
		case Degrade:
			if len(parts) != 4 {
				return nil, fmt.Errorf("faults: event %q wants epoch[.iter]:degrade:device:class", tok)
			}
			dev, err := strconv.Atoi(parts[2])
			if err != nil {
				return nil, fmt.Errorf("faults: event %q has bad device %q", tok, parts[2])
			}
			ev.Device = dev
			ev.Class = parts[3]
		default:
			return nil, fmt.Errorf("faults: event %q has unknown kind %q (want fail, join or degrade)", tok, parts[1])
		}
		out = append(out, ev)
	}
	out.sort()
	return out, nil
}

// String renders the schedule in Parse's syntax.
func (s Schedule) String() string {
	toks := make([]string, len(s))
	for i, ev := range s {
		toks[i] = ev.String()
	}
	return strings.Join(toks, ",")
}

// sort orders events by firing point, stably.
func (s Schedule) sort() {
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Epoch != s[j].Epoch {
			return s[i].Epoch < s[j].Epoch
		}
		return s[i].Iter < s[j].Iter
	})
}

// Validate checks every event against the cluster shape and the class
// catalog, and dry-runs the membership transitions so a fail of an
// already-failed node (or a join of an alive one) is caught before a run
// starts instead of mid-simulation.
func (s Schedule) Validate(topo *topology.Topology) error {
	if len(s) == 0 {
		return nil
	}
	dry := topo.Clone()
	for i := 1; i < len(s); i++ {
		a, b := s[i-1], s[i]
		if b.Epoch < a.Epoch || (b.Epoch == a.Epoch && b.Iter < a.Iter) {
			return fmt.Errorf("faults: schedule not sorted at event %d (%s after %s)", i, b, a)
		}
	}
	for i, ev := range s {
		switch ev.Kind {
		case NodeFail, NodeJoin, Degrade:
		default:
			return fmt.Errorf("faults: event %d has unknown kind %q", i, ev.Kind)
		}
		if ev.Kind == Degrade {
			if _, err := topology.ClassByName(ev.Class); err != nil {
				return fmt.Errorf("faults: event %d: %v", i, err)
			}
		}
		if err := ev.Apply(dry); err != nil {
			return fmt.Errorf("faults: event %d (%s): %v", i, ev, err)
		}
	}
	return nil
}

// ValidateRun is Validate plus the run horizon: every event must fire
// inside epochs x itersPerEpoch, so a schedule that would silently never
// fire is rejected before the run starts.
func (s Schedule) ValidateRun(topo *topology.Topology, epochs, itersPerEpoch int) error {
	if err := s.Validate(topo); err != nil {
		return err
	}
	if m := s.MaxEpoch(); m >= epochs {
		return fmt.Errorf("faults: schedule reaches epoch %d but the run has %d epochs", m, epochs)
	}
	for _, ev := range s {
		if ev.Iter >= itersPerEpoch {
			return fmt.Errorf("faults: event %q fires at iteration %d but epochs have %d iterations", ev, ev.Iter, itersPerEpoch)
		}
	}
	return nil
}

// At returns the events firing at the given (epoch, iteration) point, in
// schedule order. Iteration 0 is the epoch boundary.
func (s Schedule) At(epoch, iter int) []Event {
	var out []Event
	for _, ev := range s {
		if ev.Epoch == epoch && ev.Iter == iter {
			out = append(out, ev)
		}
	}
	return out
}

// MaxEpoch returns the last epoch with a scheduled event (-1 when empty).
func (s Schedule) MaxEpoch() int {
	m := -1
	for _, ev := range s {
		if ev.Epoch > m {
			m = ev.Epoch
		}
	}
	return m
}

// SynthConfig parameterizes Synthesize.
type SynthConfig struct {
	// Epochs is the horizon events are drawn over; Nodes the cluster's
	// node count (node 0 is never failed, so the cluster always keeps
	// compute).
	Epochs int
	Nodes  int

	// FailProb is the per-epoch probability of a node failure (default
	// 0.25). A failed node rejoins two epochs later when the horizon
	// allows, modelling a preemption/repair cycle.
	FailProb float64

	Seed int64
}

// Synthesize draws a deterministic random fail/rejoin schedule: the same
// config always yields the same schedule, so synthetic fault sweeps are
// reproducible end to end.
func Synthesize(cfg SynthConfig) (Schedule, error) {
	if cfg.Epochs < 1 || cfg.Nodes < 2 {
		return nil, fmt.Errorf("faults: synthesis needs at least 1 epoch and 2 nodes")
	}
	p := cfg.FailProb
	if p == 0 {
		p = 0.25
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out Schedule
	down := make(map[int]bool)
	rejoins := make(map[int][]int)
	for e := 1; e < cfg.Epochs; e++ {
		for _, node := range rejoins[e] {
			down[node] = false
		}
		if rng.Float64() >= p {
			continue
		}
		node := 1 + rng.Intn(cfg.Nodes-1)
		if down[node] {
			continue
		}
		out = append(out, Event{Epoch: e, Kind: NodeFail, Node: node})
		down[node] = true
		if rejoin := e + 2; rejoin < cfg.Epochs {
			out = append(out, Event{Epoch: rejoin, Kind: NodeJoin, Node: node})
			rejoins[rejoin] = append(rejoins[rejoin], node)
		}
	}
	out.sort()
	return out, nil
}
