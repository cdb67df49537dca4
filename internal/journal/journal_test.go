package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T, interval time.Duration) *Store {
	t.Helper()
	st, err := Open(Options{Dir: t.TempDir(), FsyncInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

type payload struct {
	Epoch int    `json:"epoch"`
	Note  string `json:"note,omitempty"`
}

func TestAppendReadRoundTrip(t *testing.T) {
	st := openTest(t, -1) // strict mode: every append durable
	w, err := st.Create("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindOpen, payload{Note: "spec"}); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if err := w.Append(KindObserve, payload{Epoch: e}); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(KindDecision, payload{Epoch: e}); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Seq(); got != 7 {
		t.Fatalf("writer seq %d, want 7", got)
	}
	recs, err := st.Read("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("read %d records, want 7", len(recs))
	}
	if recs[0].Kind != KindOpen || recs[1].Kind != KindObserve || recs[2].Kind != KindDecision {
		t.Fatalf("record kinds %v %v %v", recs[0].Kind, recs[1].Kind, recs[2].Kind)
	}
	var p payload
	if err := recs[5].Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Epoch != 2 {
		t.Fatalf("record 5 decoded epoch %d, want 2", p.Epoch)
	}
	for i, r := range recs {
		if r.Seq != uint64(i)+1 {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestBatchedSyncAndClose(t *testing.T) {
	st := openTest(t, time.Millisecond)
	w, err := st.Create("s-1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(KindObserve, payload{Epoch: i}); err != nil {
			t.Fatal(err)
		}
	}
	// The batched append is visible to readers immediately (page cache),
	// durable within an interval; Close is the shutdown barrier.
	recs, err := st.Read("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("read %d records, want 10", len(recs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindObserve, payload{}); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestConcurrentAppendsAcrossSessions(t *testing.T) {
	st := openTest(t, time.Millisecond)
	const sessions, records = 8, 50
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		w, err := st.Create(fmt.Sprintf("s-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, w *Writer) {
			defer wg.Done()
			for r := 0; r < records; r++ {
				if err := w.Append(KindObserve, payload{Epoch: r}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != sessions {
		t.Fatalf("listed %d journals, want %d", len(ids), sessions)
	}
	for i := 0; i < sessions; i++ {
		recs, err := st.Read(fmt.Sprintf("s-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != records {
			t.Fatalf("session %d has %d records, want %d", i, len(recs), records)
		}
		for r, rec := range recs {
			var p payload
			if err := rec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if p.Epoch != r {
				t.Fatalf("session %d record %d carries epoch %d (order lost)", i, r, p.Epoch)
			}
		}
	}
}

func TestTornTailIsFencedOffAndTruncated(t *testing.T) {
	st := openTest(t, -1)
	w, err := st.Create("s-1")
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		if err := w.Append(KindObserve, payload{Epoch: e}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-write: a partial final line.
	path := filepath.Join(st.Dir(), "s-1.jnl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"n":5,"k":"observe","p":{"epo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := st.Read("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("torn journal read %d records, want 4", len(recs))
	}

	// OpenAppend truncates the tail and resumes the sequence.
	w2, recs2, err := st.OpenAppend("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 4 || w2.Seq() != 4 {
		t.Fatalf("reopened with %d records, seq %d", len(recs2), w2.Seq())
	}
	if err := w2.Append(KindObserve, payload{Epoch: 4}); err != nil {
		t.Fatal(err)
	}
	recs3, err := st.Read("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs3) != 5 || recs3[4].Seq != 5 {
		t.Fatalf("after reopen+append: %d records, tail seq %d", len(recs3), recs3[len(recs3)-1].Seq)
	}
}

func TestCorruptMiddleFencesRest(t *testing.T) {
	st := openTest(t, -1)
	path := filepath.Join(st.Dir(), "s-1.jnl")
	lines := []string{
		`{"n":1,"k":"open","p":{"epoch":0}}`,
		`{"n":2,"k":"observe","p":{"epoch":0}}`,
		`garbage line`,
		`{"n":4,"k":"observe","p":{"epoch":1}}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Read("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records past corruption, want 2", len(recs))
	}
}

func TestRemove(t *testing.T) {
	st := openTest(t, -1)
	w, err := st.Create("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindOpen, payload{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("s-1"); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("removed journal still listed: %v", ids)
	}
	// Removing a session that never journaled is not an error.
	if err := st.Remove("s-2"); err != nil {
		t.Fatal(err)
	}
	// The removed writer is closed.
	if err := w.Append(KindObserve, payload{}); err == nil {
		t.Fatal("append to removed journal succeeded")
	}
}

func TestInvalidIDs(t *testing.T) {
	st := openTest(t, -1)
	for _, id := range []string{"", "../evil", "a/b", `a\b`, "."} {
		if _, err := st.Create(id); err == nil {
			t.Fatalf("Create(%q) accepted", id)
		}
		if _, err := st.Read(id); err == nil {
			t.Fatalf("Read(%q) accepted", id)
		}
		if _, _, err := st.OpenAppend(id); err == nil {
			t.Fatalf("OpenAppend(%q) accepted", id)
		}
		if err := st.Remove(id); err == nil {
			t.Fatalf("Remove(%q) accepted", id)
		}
	}
}

func TestCreateTruncatesLeftover(t *testing.T) {
	st := openTest(t, -1)
	w, err := st.Create("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindOpen, payload{Note: "old"}); err != nil {
		t.Fatal(err)
	}
	w2, err := st.Create("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(KindOpen, payload{Note: "new"}); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Read("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recreated journal has %d records, want 1", len(recs))
	}
	var p payload
	if err := recs[0].Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Note != "new" {
		t.Fatalf("recreated journal kept %q", p.Note)
	}
}
