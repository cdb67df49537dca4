package journal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestRewriteReplacesHistory: Rewrite atomically replaces a journal's
// contents with a renumbered record set, the returned writer appends past
// it, and the old writer is dead — compaction's contract.
func TestRewriteReplacesHistory(t *testing.T) {
	st := openTest(t, -1)
	old, err := st.Create("s-1")
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 6; e++ {
		if err := old.Append(KindObserve, payload{Epoch: e}); err != nil {
			t.Fatal(err)
		}
	}

	w, err := st.Rewrite("s-1", []RewriteRecord{
		{Kind: KindOpen, Payload: payload{Note: "spec"}},
		{Kind: KindState, Payload: payload{Epoch: 5, Note: "checkpoint"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Seq(); got != 2 {
		t.Fatalf("rewritten writer seq %d, want 2", got)
	}
	if err := w.Append(KindObserve, payload{Epoch: 6}); err != nil {
		t.Fatal(err)
	}

	recs, err := st.Read("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("rewritten journal has %d records, want 3", len(recs))
	}
	wantKinds := []Kind{KindOpen, KindState, KindObserve}
	for i, r := range recs {
		if r.Seq != uint64(i)+1 {
			t.Fatalf("record %d has seq %d, want %d (rewrite must renumber)", i, r.Seq, i+1)
		}
		if r.Kind != wantKinds[i] {
			t.Fatalf("record %d kind %q, want %q", i, r.Kind, wantKinds[i])
		}
	}
	var p payload
	if err := recs[1].Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Epoch != 5 || p.Note != "checkpoint" {
		t.Fatalf("state record decoded %+v", p)
	}

	// The pre-rewrite writer must not be able to corrupt the new file.
	if err := old.Append(KindObserve, payload{Epoch: 99}); err == nil {
		t.Error("append on the replaced writer did not fail")
	}
	if recs, err = st.Read("s-1"); err != nil || len(recs) != 3 {
		t.Fatalf("journal after dead-writer append: %d records, err %v", len(recs), err)
	}
}

// TestRewriteLeavesNoTemp: the temp file is renamed on success and
// removed on failure, and List never reports it as a session.
func TestRewriteLeavesNoTemp(t *testing.T) {
	st := openTest(t, -1)
	if _, err := st.Create("s-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rewrite("s-1", nil); err == nil {
		t.Fatal("empty rewrite not rejected")
	}
	if _, err := st.Rewrite("s-1", []RewriteRecord{
		{Kind: KindOpen, Payload: payload{Note: "spec"}},
	}); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(st.Dir(), "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
	// A stray temp file from a crashed rewrite is not a session.
	if err := os.WriteFile(filepath.Join(st.Dir(), "s-2.jnl.tmp"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "s-1" {
		t.Fatalf("List = %v, want [s-1]", ids)
	}

	// A rewrite that fails after the temp file exists (a payload
	// json.Marshal rejects) removes it and leaves the old journal intact.
	path := filepath.Join(st.Dir(), "s-1.jnl")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rewrite("s-1", []RewriteRecord{
		{Kind: KindOpen, Payload: payload{Note: "spec"}},
		{Kind: KindState, Payload: math.NaN()},
	}); err == nil {
		t.Fatal("unmarshalable rewrite payload accepted")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("failed rewrite changed the journal:\n got: %s\nwant: %s", after, before)
	}
	if recs, err := st.Read("s-1"); err != nil || len(recs) != 1 {
		t.Fatalf("journal after failed rewrite: %d records, err %v", len(recs), err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed rewrite left its temp file (stat err %v)", err)
	}
}

// TestOpenRemovesCrashedRewriteTemps: a crash between Rewrite's temp write
// and its rename leaves <id>.jnl.tmp behind. The rename is the commit
// point, so Open deletes every temp file — beside a live journal or
// orphaned — and leaves the journals themselves untouched.
func TestOpenRemovesCrashedRewriteTemps(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindOpen, payload{Note: "spec"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a.jnl")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	temps := []string{filepath.Join(dir, "a.jnl.tmp"), filepath.Join(dir, "b.jnl.tmp")}
	for _, tmp := range temps {
		if err := os.WriteFile(tmp, []byte(`{"n":1,"k":"open","p":{}}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err = Open(Options{Dir: dir, FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, tmp := range temps {
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("%s survived Open (stat err %v)", filepath.Base(tmp), err)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("Open changed a.jnl:\n got: %s\nwant: %s", after, before)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("List = %v, want [a]", ids)
	}
}

// TestRewriteUnknownSession: rewriting a session with no journal creates
// it (compaction may race eviction; the store-level call is just a file
// replace), but an invalid id is still rejected.
func TestRewriteRejectsBadID(t *testing.T) {
	st := openTest(t, -1)
	if _, err := st.Rewrite("../evil", []RewriteRecord{{Kind: KindOpen, Payload: payload{}}}); err == nil {
		t.Fatal("path-traversal id not rejected")
	}
}
