package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"laermoe/internal/faults"
	"laermoe/internal/trace"
	sessionspec "laermoe/session"
)

// sseFrame is one parsed SSE frame; comment frames (heartbeats) come back
// with name ":".
type sseFrame struct {
	name string
	data string
}

// readFrame parses the next SSE frame off the stream.
func readFrame(rd *bufio.Reader) (sseFrame, error) {
	var fr sseFrame
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return fr, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if fr.name != "" {
				return fr, nil
			}
		case strings.HasPrefix(line, ": "):
			fr.name = ":"
			fr.data = line[2:]
		case strings.HasPrefix(line, "event: "):
			fr.name = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			fr.data = line[len("data: "):]
		}
	}
}

// openStream subscribes to a session's SSE feed and consumes the
// "session" hello frame.
func openStream(t *testing.T, tc *testClient, id string) (*bufio.Reader, func()) {
	t.Helper()
	resp, err := tc.c.Get(tc.base + "/v1/sessions/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("stream content type %q", ct)
	}
	rd := bufio.NewReader(resp.Body)
	hello, err := readFrame(rd)
	if err != nil {
		t.Fatal(err)
	}
	if hello.name != eventSession {
		t.Fatalf("first frame is %q, want %q", hello.name, eventSession)
	}
	var info SessionInfo
	if err := json.Unmarshal([]byte(hello.data), &info); err != nil {
		t.Fatalf("decoding hello frame %q: %v", hello.data, err)
	}
	if info.ID != id {
		t.Fatalf("hello frame for session %q, want %q", info.ID, id)
	}
	return rd, func() { resp.Body.Close() }
}

// TestStreamDeliversDecisionsInOrder: concurrent observes against one
// session serialize, and a subscriber sees every decision exactly once,
// in epoch order, with the same decision bytes the POST responses
// carried.
func TestStreamDeliversDecisionsInOrder(t *testing.T) {
	const epochs = 4
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	tc.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	stream := observationStream(t, info, epochs, 4, trace.DriftConfig{Model: trace.DriftMigration})

	rd, closeStream := openStream(t, tc, info.ID)
	defer closeStream()

	// Fire all epochs concurrently: the session mutex decides their
	// order, and the stream must reflect exactly that order.
	responses := make([]*ObserveResponse, epochs)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for e := 0; e < epochs; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			var resp ObserveResponse
			tc.do("POST", "/v1/sessions/"+info.ID+"/observe",
				ObserveRequest{Routing: stream[e]}, http.StatusOK, &resp)
			mu.Lock()
			responses[resp.Epoch] = &resp
			mu.Unlock()
		}(e)
	}
	wg.Wait()

	for e := 0; e < epochs; e++ {
		fr, err := readFrame(rd)
		if err != nil {
			t.Fatal(err)
		}
		if fr.name != eventDecision {
			t.Fatalf("frame %d is %q, want %q", e, fr.name, eventDecision)
		}
		var got ObserveResponse
		if err := json.Unmarshal([]byte(fr.data), &got); err != nil {
			t.Fatal(err)
		}
		if got.Epoch != e {
			t.Fatalf("frame %d carries epoch %d: stream order is not planning order", e, got.Epoch)
		}
		assertSameJSON(t, fmt.Sprintf("stream epoch %d", e), streamFingerprint(&got), streamFingerprint(responses[e]))
	}
}

// streamFingerprint strips the wall-clock field so stream and POST views
// of one decision compare on the reproducible bytes.
func streamFingerprint(resp *ObserveResponse) decisionRecord {
	return decisionRecord{
		Epoch:       resp.Epoch,
		Boundary:    resp.Boundary,
		Observation: resp.Observation,
		Summary:     resp.Summary,
	}
}

// TestStreamTopologyEvent: topology updates are pushed too.
func TestStreamTopologyEvent(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	tc.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	rd, closeStream := openStream(t, tc, info.ID)
	defer closeStream()

	var tresp TopologyUpdateResponse
	tc.do("POST", "/v1/sessions/"+info.ID+"/topology",
		TopologyUpdateRequest{Events: []faults.Event{{Kind: faults.NodeFail, Node: 1}}},
		http.StatusOK, &tresp)

	fr, err := readFrame(rd)
	if err != nil {
		t.Fatal(err)
	}
	if fr.name != eventTopology {
		t.Fatalf("frame is %q, want %q", fr.name, eventTopology)
	}
	var got TopologyUpdateResponse
	if err := json.Unmarshal([]byte(fr.data), &got); err != nil {
		t.Fatal(err)
	}
	if got.AvailableDevices != tresp.AvailableDevices {
		t.Fatalf("streamed topology decision reports %d devices, POST reported %d",
			got.AvailableDevices, tresp.AvailableDevices)
	}
}

// TestStreamHeartbeat: an idle stream stays alive via comment frames.
func TestStreamHeartbeat(t *testing.T) {
	_, tc := newTestServer(t, Options{StreamHeartbeat: 20 * time.Millisecond})
	var info SessionInfo
	tc.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	rd, closeStream := openStream(t, tc, info.ID)
	defer closeStream()
	fr, err := readFrame(rd)
	if err != nil {
		t.Fatal(err)
	}
	if fr.name != ":" || fr.data != "heartbeat" {
		t.Fatalf("idle stream's next frame is %+v, want a heartbeat comment", fr)
	}
}

// TestStreamClosedOnSessionClose: deleting a streamed session ends the
// stream with a "closed" frame naming the reason.
func TestStreamClosedOnSessionClose(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	var info SessionInfo
	tc.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	rd, closeStream := openStream(t, tc, info.ID)
	defer closeStream()
	tc.do("DELETE", "/v1/sessions/"+info.ID, nil, http.StatusOK, nil)
	fr, err := readFrame(rd)
	if err != nil {
		t.Fatal(err)
	}
	if fr.name != eventClosed || !strings.Contains(fr.data, "closed") {
		t.Fatalf("frame after session close: %+v", fr)
	}
	if _, err := readFrame(rd); err == nil {
		t.Fatal("stream stayed open after the closed frame")
	}
}

// TestStreamShutdown: draining the daemon ends every open stream with a
// "shutdown" frame instead of wedging the HTTP drain.
func TestStreamShutdown(t *testing.T) {
	s, tc := newTestServer(t, Options{})
	var info SessionInfo
	tc.do("POST", "/v1/sessions", quickSpec("warm"), http.StatusCreated, &info)
	rd, closeStream := openStream(t, tc, info.ID)
	defer closeStream()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	fr, err := readFrame(rd)
	if err != nil {
		t.Fatal(err)
	}
	if fr.name != eventShutdown {
		t.Fatalf("frame after shutdown: %+v", fr)
	}
}

// TestStreamUnknownSession: streaming a session that doesn't exist is a
// 404 like every other session route.
func TestStreamUnknownSession(t *testing.T) {
	_, tc := newTestServer(t, Options{})
	tc.do("GET", "/v1/sessions/nope/stream", nil, http.StatusNotFound, nil)
}

// TestSlowSubscriberDropped: a subscriber whose buffer fills is
// disconnected by the publisher — planning never blocks on a consumer —
// and the drop is counted. Exercised at the session level where the
// backpressure point is deterministic.
func TestSlowSubscriberDropped(t *testing.T) {
	sess, err := newSession("s-1", 1, SessionSpec{Spec: sessionspec.Spec{IterationsPerEpoch: 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	metrics := newRecorder()
	sess.metrics = metrics
	sub := sess.subscribe(1)
	sess.mu.Lock()
	sess.publishLocked(eventDecision, map[string]int{"epoch": 0})
	sess.publishLocked(eventDecision, map[string]int{"epoch": 1}) // buffer full: drop
	sess.mu.Unlock()
	select {
	case <-sub.quit:
	default:
		t.Fatal("overflowed subscriber was not stopped")
	}
	if sub.reason != "overflow" {
		t.Fatalf("stop reason %q, want overflow", sub.reason)
	}
	dropped, delivered := metrics.streamsDropped.Load(), metrics.streamEvents.Load()
	if dropped != 1 {
		t.Fatalf("streamsDropped = %d, want 1", dropped)
	}
	if delivered != 1 {
		t.Fatalf("streamEvents = %d, want 1 (the buffered event)", delivered)
	}
	// The dropped subscriber is gone: further publishes don't see it.
	sess.mu.Lock()
	sess.publishLocked(eventDecision, map[string]int{"epoch": 2})
	sess.mu.Unlock()
	if len(sub.ch) != 1 {
		t.Fatalf("dropped subscriber still receiving (%d queued)", len(sub.ch))
	}
}

// TestSubscribeAfterCloseIsStopped: a stream handler that looked its
// session up just before a DELETE or eviction subscribes after
// closeSubscribers ran. Nothing will ever publish to or stop that
// subscriber, so subscribe must hand it back already stopped with the
// close reason — the client gets the hello and then "closed".
func TestSubscribeAfterCloseIsStopped(t *testing.T) {
	sess, err := newSession("s-1", 1, SessionSpec{Spec: sessionspec.Spec{IterationsPerEpoch: 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess.closeSubscribers("closed")
	sub := sess.subscribe(streamBuffer)
	select {
	case <-sub.quit:
	default:
		t.Fatal("subscriber to a closed session was left open")
	}
	if sub.reason != "closed" {
		t.Fatalf("stop reason %q, want closed", sub.reason)
	}
}
