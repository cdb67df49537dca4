package trace

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	g := mustGen(t, baseConfig())
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want [][]*RoutingMatrix
	for it := 0; it < 3; it++ {
		ms := g.Step()
		want = append(want, ms)
		for l, m := range ms {
			if err := w.Write(it, l, m); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d iterations, want %d", len(got), len(want))
	}
	for it := range want {
		if len(got[it]) != len(want[it]) {
			t.Fatalf("iter %d: %d layers, want %d", it, len(got[it]), len(want[it]))
		}
		for l := range want[it] {
			for i := 0; i < want[it][l].N; i++ {
				for j := 0; j < want[it][l].E; j++ {
					if got[it][l].R[i][j] != want[it][l].R[i][j] {
						t.Fatalf("iter %d layer %d mismatch at (%d,%d)", it, l, i, j)
					}
				}
			}
		}
	}
}

func TestReaderStreaming(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m := NewRoutingMatrix(2, 2)
	m.R[0][0] = 3
	if err := w.Write(0, 0, m); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if rec.Iteration != 0 || rec.Layer != 0 || rec.R[0][0] != 3 {
		t.Errorf("unexpected record %+v", rec)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReadAllRejectsOutOfOrderLayers(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m := NewRoutingMatrix(1, 1)
	if err := w.Write(0, 1, m); err != nil { // layer 1 before layer 0
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(&buf); err == nil {
		t.Error("ReadAll accepted out-of-order layers")
	}
}

func TestReaderRejectsCorruptRecord(t *testing.T) {
	r := NewReader(strings.NewReader(`{"iter":0,"layer":0,"n":3,"e":1,"r":[[1]]}`))
	if _, err := r.Next(); err == nil {
		t.Error("corrupt record (row count mismatch) accepted")
	}
}

func TestWriterRejectsInvalidMatrix(t *testing.T) {
	w := NewWriter(io.Discard)
	m := NewRoutingMatrix(1, 1)
	m.R[0][0] = -5
	if err := w.Write(0, 0, m); err == nil {
		t.Error("Write accepted invalid matrix")
	}
}

// TestReadAllRejectsNonContiguousIterations: records must stay
// iteration-major — both forward jumps and regressions to an earlier
// iteration are corrupt, not mergeable.
func TestReadAllRejectsNonContiguousIterations(t *testing.T) {
	rec := func(iter, layer int) string {
		return fmt.Sprintf(`{"iter":%d,"layer":%d,"n":1,"e":1,"r":[[3]]}`, iter, layer) + "\n"
	}
	cases := map[string]string{
		"forward jump":   rec(0, 0) + rec(2, 0),
		"starts past 0":  rec(1, 0),
		"backward merge": rec(0, 0) + rec(0, 1) + rec(1, 0) + rec(1, 1) + rec(0, 2),
	}
	for name, stream := range cases {
		if _, err := ReadAll(strings.NewReader(stream)); err == nil {
			t.Errorf("%s: corrupt stream accepted", name)
		}
	}
	// The writer's own order still round-trips.
	ok := rec(0, 0) + rec(0, 1) + rec(1, 0) + rec(1, 1)
	iters, err := ReadAll(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 2 || len(iters[0]) != 2 || len(iters[1]) != 2 {
		t.Fatalf("valid stream mis-grouped: %d iterations", len(iters))
	}
}
