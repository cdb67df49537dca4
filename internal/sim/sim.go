// Package sim is a discrete-event simulator for multi-GPU execution
// timelines. Each device owns a set of in-order streams (mirroring CUDA
// streams: work on one stream executes in enqueue order; work on different
// streams overlaps). Tasks can depend on tasks anywhere (mirroring CUDA
// events), and collectives synchronize a group of devices: every member
// starts at the latest member's ready time and all members finish together.
//
// That last property is what converts expert-load imbalance into the
// "All-to-All" tail latency the paper measures (Fig. 1b, Fig. 10a): a rank
// that finished its expert GEMMs early is measured as spending the waiting
// time inside the collective.
package sim

import (
	"errors"
	"fmt"
)

// Stream identifies one of the per-device in-order queues, matching the
// four streams of the paper's Fig. 5.
type Stream int

const (
	// StreamCompute (S1) runs forward/backward computation.
	StreamCompute Stream = iota
	// StreamPrefetch (S2) runs parameter prefetch communication (P).
	StreamPrefetch
	// StreamA2A (S3) runs token dispatch/combine All-to-All (A2A).
	StreamA2A
	// StreamGrad (S4) runs gradient reshard/synchronization (Sy).
	StreamGrad

	// NumStreams is the number of per-device streams.
	NumStreams
)

func (s Stream) String() string {
	switch s {
	case StreamCompute:
		return "S1/compute"
	case StreamPrefetch:
		return "S2/prefetch"
	case StreamA2A:
		return "S3/a2a"
	case StreamGrad:
		return "S4/grad"
	}
	return fmt.Sprintf("stream(%d)", int(s))
}

// Category labels tasks for time-breakdown reporting.
type Category int

const (
	CatAttention Category = iota
	CatGate
	CatDispatcher // token-dispatch decision (lite routing kernel)
	CatExpert     // expert MLP computation
	CatA2A        // token All-to-All (dispatch and combine)
	CatPrefetch   // parameter prefetch (FSEP unshard / FSDP all-gather)
	CatGradSync   // gradient reshard + reduction
	CatTPComm     // tensor-parallel all-reduce
	CatOther      // memory ops, optimizer, misc

	NumCategories
)

func (c Category) String() string {
	switch c {
	case CatAttention:
		return "attention"
	case CatGate:
		return "gate"
	case CatDispatcher:
		return "dispatcher"
	case CatExpert:
		return "expert"
	case CatA2A:
		return "a2a"
	case CatPrefetch:
		return "prefetch"
	case CatGradSync:
		return "gradsync"
	case CatTPComm:
		return "tpcomm"
	case CatOther:
		return "other"
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// TaskID identifies a task within one Engine.
type TaskID int

// NoTask is the zero value sentinel for "no dependency".
const NoTask TaskID = -1

type task struct {
	id       TaskID
	device   int
	stream   Stream
	category Category
	duration float64
	// Dependencies live in the engine's shared arena at
	// depArena[depOff : depOff+depCnt], so enqueueing a task performs no
	// per-task slice allocation.
	depOff, depCnt int
	collective     int // -1 for plain tasks

	// Filled in by Run.
	ready     float64 // max(stream cursor, dep finish) at schedule time
	start     float64
	end       float64
	scheduled bool
}

type collective struct {
	members  []TaskID
	duration float64
}

// Engine accumulates a task graph and computes its schedule. An Engine can
// be reused across iterations via Reset, which keeps every internal buffer
// (task arena, per-stream queues, scheduling scratch) at capacity so
// steady-state graph construction allocates nothing.
type Engine struct {
	devices     int
	tasks       []task
	depArena    []TaskID
	collectives []collective
	queues      [][]TaskID // per device*stream, enqueue order

	// Scheduling scratch, reused across Run calls.
	heads     []int
	cursor    []float64
	collReady []int
	collMax   []float64
	marked    []bool
}

// resizeZero returns *s resized to n elements, all zero, reusing capacity.
func resizeZero[T int | float64 | bool](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
		return *s
	}
	*s = (*s)[:n]
	var zero T
	for i := range *s {
		(*s)[i] = zero
	}
	return *s
}

// NewEngine returns an engine for the given device count.
func NewEngine(devices int) *Engine {
	if devices <= 0 {
		panic("sim: device count must be positive")
	}
	return &Engine{
		devices: devices,
		queues:  make([][]TaskID, devices*int(NumStreams)),
	}
}

// Reset clears the engine for a fresh task graph over the given device
// count, retaining the capacity of every internal buffer. Results returned
// by earlier Run calls share storage with the engine and are invalidated.
func (e *Engine) Reset(devices int) {
	if devices <= 0 {
		panic("sim: device count must be positive")
	}
	e.devices = devices
	e.tasks = e.tasks[:0]
	e.depArena = e.depArena[:0]
	e.collectives = e.collectives[:0]
	nq := devices * int(NumStreams)
	if cap(e.queues) < nq {
		e.queues = append(e.queues[:cap(e.queues)], make([][]TaskID, nq-cap(e.queues))...)
	}
	e.queues = e.queues[:nq]
	for i := range e.queues {
		e.queues[i] = e.queues[i][:0]
	}
}

// Devices returns the configured device count.
func (e *Engine) Devices() int { return e.devices }

func (e *Engine) queueIndex(device int, stream Stream) int {
	return device*int(NumStreams) + int(stream)
}

func (e *Engine) addTask(device int, stream Stream, cat Category, dur float64, coll int, deps []TaskID) TaskID {
	id := TaskID(len(e.tasks))
	if device < 0 || device >= e.devices {
		panic(fmt.Sprintf("sim: task %d: device %d out of range", id, device))
	}
	if dur < 0 {
		panic(fmt.Sprintf("sim: task %d: negative duration %g", id, dur))
	}
	off := len(e.depArena)
	for _, d := range deps {
		if d == NoTask {
			continue
		}
		if int(d) < 0 || int(d) >= len(e.tasks) {
			panic(fmt.Sprintf("sim: task %d: dependency %d does not exist", id, d))
		}
		e.depArena = append(e.depArena, d)
	}
	e.tasks = append(e.tasks, task{
		id: id, device: device, stream: stream, category: cat,
		duration: dur, depOff: off, depCnt: len(e.depArena) - off, collective: coll,
	})
	qi := e.queueIndex(device, stream)
	e.queues[qi] = append(e.queues[qi], id)
	return id
}

// Compute enqueues a plain task on one device's stream and returns its ID.
func (e *Engine) Compute(device int, stream Stream, cat Category, dur float64, deps ...TaskID) TaskID {
	return e.addTask(device, stream, cat, dur, -1, deps)
}

// Collective enqueues one synchronized operation across the given devices
// on the given stream. deps[i] (which may be NoTask) gates member i; nil
// deps gates none. All members start at the latest member's ready time
// and end together after dur. The returned slice holds one member TaskID
// per device, in the order of the devices argument.
func (e *Engine) Collective(devices []int, stream Stream, cat Category, dur float64, deps []TaskID) []TaskID {
	if len(devices) == 0 {
		panic("sim: collective with no members")
	}
	if deps != nil && len(deps) != len(devices) {
		panic(fmt.Sprintf("sim: collective has %d deps for %d members", len(deps), len(devices)))
	}
	ci := len(e.collectives)
	e.collectives = append(e.collectives, collective{duration: dur})
	ids := make([]TaskID, len(devices))
	for i, dev := range devices {
		var d []TaskID
		if deps != nil {
			d = deps[i : i+1] // addTask skips NoTask
		}
		ids[i] = e.addTask(dev, stream, cat, dur, ci, d)
	}
	e.collectives[ci].members = ids
	return ids
}

// Run schedules every task and returns the timing result. It fails if the
// graph deadlocks (a dependency cycle, or collectives whose member order
// conflicts across streams).
func (e *Engine) Run() (*Result, error) {
	heads := resizeZero(&e.heads, len(e.queues))   // next unscheduled index per queue
	cursor := resizeZero(&e.cursor, len(e.queues)) // stream available time
	remaining := len(e.tasks)

	// collReady[c] counts members whose predecessors are satisfied.
	collReady := resizeZero(&e.collReady, len(e.collectives))
	collMax := resizeZero(&e.collMax, len(e.collectives))

	marked := resizeZero(&e.marked, len(e.tasks)) // member counted into collReady

	depsDone := func(t *task) (float64, bool) {
		latest := 0.0
		for _, d := range e.depArena[t.depOff : t.depOff+t.depCnt] {
			dt := &e.tasks[d]
			if !dt.scheduled {
				return 0, false
			}
			if dt.end > latest {
				latest = dt.end
			}
		}
		return latest, true
	}

	for remaining > 0 {
		progress := false
		for qi := range e.queues {
			for heads[qi] < len(e.queues[qi]) {
				t := &e.tasks[e.queues[qi][heads[qi]]]
				depEnd, ok := depsDone(t)
				if !ok {
					break
				}
				ready := cursor[qi]
				if depEnd > ready {
					ready = depEnd
				}
				if t.collective < 0 {
					t.ready = ready
					t.start = ready
					t.end = ready + t.duration
					t.scheduled = true
					cursor[qi] = t.end
					heads[qi]++
					remaining--
					progress = true
					continue
				}
				// Collective member: record readiness, schedule the whole
				// group only once every member is at the head of its
				// stream with dependencies satisfied.
				c := t.collective
				if !marked[t.id] {
					marked[t.id] = true
					t.ready = ready
					collReady[c]++
					if ready > collMax[c] {
						collMax[c] = ready
					}
				}
				if collReady[c] < len(e.collectives[c].members) {
					break // head blocked until peers are ready
				}
				start := collMax[c]
				for _, mid := range e.collectives[c].members {
					mt := &e.tasks[mid]
					mt.start = start
					mt.end = start + e.collectives[c].duration
					mt.scheduled = true
					mqi := e.queueIndex(mt.device, mt.stream)
					cursor[mqi] = mt.end
					heads[mqi]++
					remaining--
				}
				progress = true
				// This queue's head advanced (possibly along with others);
				// re-examine it from the top.
			}
		}
		if !progress {
			return nil, errors.New("sim: deadlock — dependency cycle or conflicting collective ordering")
		}
	}

	return e.buildResult(), nil
}

// Result exposes the computed schedule. A Result returned by a reused
// engine shares task storage with it and is invalidated by the next Reset.
type Result struct {
	devices  int
	makespan float64
	tasks    []task
	// exposed[dev*NumCategories+cat]: measured wall time attributed to the
	// category on the device, where collective members are charged
	// end-ready (their transfer plus any waiting for stragglers), matching
	// how profilers attribute time to communication ops.
	exposed []float64
}

func (e *Engine) buildResult() *Result {
	r := &Result{
		devices: e.devices,
		tasks:   e.tasks,
		exposed: make([]float64, e.devices*int(NumCategories)),
	}
	for i := range e.tasks {
		t := &e.tasks[i]
		if t.end > r.makespan {
			r.makespan = t.end
		}
		span := t.end - t.ready
		if t.collective < 0 {
			span = t.duration
		}
		r.exposed[t.device*int(NumCategories)+int(t.category)] += span
	}
	return r
}

// Makespan returns the finish time of the last task.
func (r *Result) Makespan() float64 { return r.makespan }

// CategoryTime returns the measured time attributed to cat on device dev.
func (r *Result) CategoryTime(dev int, cat Category) float64 {
	return r.exposed[dev*int(NumCategories)+int(cat)]
}

// MeanCategoryTime returns the category time averaged across devices, the
// quantity reported in the paper's breakdowns ("averaged across all ranks").
func (r *Result) MeanCategoryTime(cat Category) float64 {
	s := 0.0
	for d := 0; d < r.devices; d++ {
		s += r.exposed[d*int(NumCategories)+int(cat)]
	}
	return s / float64(r.devices)
}

// TaskWindow returns the scheduled [start, end] of a task.
func (r *Result) TaskWindow(id TaskID) (start, end float64) {
	t := r.tasks[id]
	return t.start, t.end
}
