// SSE decision streaming: GET /v1/sessions/{id}/stream pushes every
// decision a session issues, in planning order, as Server-Sent Events.
//
// Events are published under the session mutex — the same lock that
// serializes planning — so a subscriber's event order is exactly the
// session's epoch order. Each subscriber owns a bounded channel; a
// consumer that falls behind it is disconnected (with a final "closed"
// event naming the reason) rather than allowed to backpressure the
// planning path, and the drop is counted in /metrics.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Event names pushed on the stream. Every event's data is the same JSON
// the corresponding REST response carries.
const (
	// eventSession is the stream hello: the session's current SessionInfo.
	eventSession = "session"
	// eventDecision carries one epoch's ObserveResponse.
	eventDecision = "decision"
	// eventTopology carries one TopologyUpdateResponse.
	eventTopology = "topology"
	// eventClosed is the stream's last word when the server ends it:
	// {"reason": "overflow" | "closed" | "evicted"}.
	eventClosed = "closed"
	// eventShutdown announces a draining daemon.
	eventShutdown = "shutdown"
)

// streamBuffer bounds each SSE subscriber's event queue: a consumer that
// falls that far behind is disconnected rather than allowed to slow
// planning.
const streamBuffer = 32

// streamEvent is one marshaled SSE frame awaiting delivery.
type streamEvent struct {
	name string
	data []byte
}

// subscriber is one SSE consumer's send side. The channel is bounded;
// publishLocked never blocks on it.
type subscriber struct {
	ch       chan streamEvent
	quit     chan struct{}
	quitOnce sync.Once
	reason   string // set before quit closes; read only after <-quit
}

// stop ends the subscription once, recording why. Safe to call from the
// publisher (overflow) and the close/evict paths concurrently.
func (sub *subscriber) stop(reason string) {
	sub.quitOnce.Do(func() {
		sub.reason = reason
		close(sub.quit)
	})
}

// subscribe registers a new SSE consumer on the session. On a session
// whose subscribers were already closed it returns one stopped with the
// same reason: a stream that looked the session up just before a close or
// eviction still ends with a "closed" event, not heartbeats forever.
func (s *session) subscribe(buffer int) *subscriber {
	sub := &subscriber{
		ch:   make(chan streamEvent, buffer),
		quit: make(chan struct{}),
	}
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if s.subsClosed != "" {
		sub.stop(s.subsClosed)
		return sub
	}
	if s.subs == nil {
		s.subs = make(map[*subscriber]struct{})
	}
	s.subs[sub] = struct{}{}
	return sub
}

func (s *session) unsubscribe(sub *subscriber) {
	s.subMu.Lock()
	delete(s.subs, sub)
	s.subMu.Unlock()
}

// publishLocked fans one event out to the session's subscribers. Caller
// holds s.mu, which is what makes delivery order planning order. The
// payload is marshaled once, not per subscriber. A subscriber whose
// buffer is full is dropped on the spot: the planning path never waits
// for a slow consumer.
func (s *session) publishLocked(name string, v any) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if len(s.subs) == 0 {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		if s.logf != nil {
			s.logf("session %s: marshaling %s event: %v", s.id, name, err)
		}
		return
	}
	delivered := 0
	for sub := range s.subs {
		select {
		case sub.ch <- streamEvent{name: name, data: data}:
			delivered++
		default:
			delete(s.subs, sub)
			sub.stop("overflow")
			if s.metrics != nil {
				s.metrics.streamDropped()
			}
			if s.logf != nil {
				s.logf("session %s: SSE subscriber dropped (buffer of %d full)", s.id, cap(sub.ch))
			}
		}
	}
	if delivered > 0 && s.metrics != nil {
		s.metrics.streamDelivered(delivered)
	}
}

// closeSubscribers ends every subscription with the given reason — the
// session close/evict path — and records the reason for late subscribers.
func (s *session) closeSubscribers(reason string) {
	s.subMu.Lock()
	s.subsClosed = reason
	for sub := range s.subs {
		sub.stop(reason)
		delete(s.subs, sub)
	}
	s.subMu.Unlock()
}

// writeSSE emits one SSE frame. Data is compact JSON (no newlines), so a
// single data: line suffices.
func writeSSE(w io.Writer, name string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
}

// handleStream serves GET /v1/sessions/{id}/stream: an SSE feed of the
// session's decisions. The stream opens with a "session" hello carrying
// the current SessionInfo, then one "decision" event per observed epoch
// and one "topology" event per topology update, in planning order.
// Comment-line heartbeats keep idle connections alive. The stream ends
// with a "closed" event when the session goes away (or this consumer
// fell behind), and a "shutdown" event when the daemon drains.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	sess, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sess.touch()
	sub := sess.subscribe(streamBuffer)
	defer sess.unsubscribe(sub)
	s.metrics.streamOpened()
	defer s.metrics.streamClosed()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	hello, _ := json.Marshal(sess.snapshot())
	writeSSE(w, eventSession, hello)
	fl.Flush()

	heartbeat := time.NewTicker(s.opts.StreamHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev := <-sub.ch:
			writeSSE(w, ev.name, ev.data)
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-sub.quit:
			// Deliver what was already queued before announcing the end,
			// so a dropped-but-draining consumer still sees a prefix of
			// the decision sequence, never a gap.
			for {
				select {
				case ev := <-sub.ch:
					writeSSE(w, ev.name, ev.data)
					continue
				default:
				}
				break
			}
			writeSSE(w, eventClosed, []byte(fmt.Sprintf(`{"reason":%q}`, sub.reason)))
			fl.Flush()
			return
		case <-s.streamStop:
			writeSSE(w, eventShutdown, []byte(`{"reason":"draining"}`))
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}
