package journal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenRejectsBadDirectories(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("empty directory accepted")
	}
	// A regular file where the directory should be must fail, not wedge.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: blocker}); err == nil {
		t.Fatal("file-as-directory accepted")
	}
}

// TestStrictModeSyncsInline: a negative interval disables the batcher and
// every Append fsyncs before returning.
func TestStrictModeSyncsInline(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Create("s-1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(KindObserve, map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := st.Read("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	var v int
	if err := (Record{Seq: 1, Kind: KindOpen}).Decode(&v); err == nil {
		t.Fatal("payload-less record decoded")
	}
	rec := Record{Seq: 1, Kind: KindOpen, Payload: []byte(`{"a":1}`)}
	if err := rec.Decode(&v); err == nil {
		t.Fatal("object decoded into int")
	}
	if err := rec.Decode(&map[string]int{}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenAppendMissingSession(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, err := st.OpenAppend("ghost"); err == nil {
		t.Fatal("OpenAppend on a missing journal succeeded")
	}
}

// TestReopenDisplacesOldWriter: registering a second writer for the same
// id closes the first; the displaced writer refuses further appends.
func TestReopenDisplacesOldWriter(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	old, err := st.Create("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Append(KindOpen, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := old.Sync(); err != nil {
		t.Fatal(err)
	}
	fresh, recs, err := st.OpenAppend("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("reopen read %d records, want 1", len(recs))
	}
	if err := old.Append(KindObserve, nil); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("displaced writer appended (err %v)", err)
	}
	if err := fresh.Append(KindObserve, nil); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Seq(); got != 2 {
		t.Fatalf("fresh writer at seq %d, want 2", got)
	}
}

func TestClosedStoreRefusesWriters(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Create("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("s-2"); err == nil {
		t.Fatal("closed store handed out a writer")
	}
	if _, _, err := st.OpenAppend("s-1"); err == nil {
		t.Fatal("closed store reopened a journal for appending")
	}
	if _, err := st.Rewrite("s-1", []RewriteRecord{{Kind: KindOpen, Payload: map[string]int{"a": 1}}}); err == nil {
		t.Fatal("closed store handed out a rewritten journal's writer")
	}
	if err := w.Append(KindObserve, nil); err == nil {
		t.Fatal("append on a closed store's writer succeeded")
	}
}

func TestAppendRejectsUnmarshalablePayload(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w, err := st.Create("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindObserve, make(chan int)); err == nil {
		t.Fatal("channel payload marshaled")
	}
	// A marshal failure must not poison the writer.
	if err := w.Append(KindObserve, map[string]int{"ok": 1}); err != nil {
		t.Fatal(err)
	}
}
