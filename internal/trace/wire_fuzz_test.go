package trace

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// FuzzWireDeltaRoundTrip pins the wire contract of WireDiff, the function
// the daemon journals dense posts with: for any pair of same-shape
// matrices, WireDiff → JSON → decode → Check+Apply onto prev reproduces
// next exactly, the delta carries exactly the changed cells, and the
// decoded delta revalidates clean against the shape.
func FuzzWireDeltaRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(8))
	f.Add(int64(7), uint8(1), uint8(1), uint8(0))
	f.Add(int64(42), uint8(9), uint8(6), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, eRaw, edits uint8) {
		n := int(nRaw)%12 + 1
		e := int(eRaw)%12 + 1
		rng := rand.New(rand.NewSource(seed))
		prev := NewRoutingMatrix(n, e)
		for i := 0; i < n; i++ {
			for j := 0; j < e; j++ {
				prev.R[i][j] = rng.Intn(50)
			}
		}
		next := prev.Clone()
		for k := 0; k < int(edits); k++ {
			i, j := rng.Intn(n), rng.Intn(e)
			next.R[i][j] = rng.Intn(50)
		}
		w := WireDiff(prev, next.R)
		if got, want := w.Cells(), changedCells(prev, next); got != want {
			t.Fatalf("wire carries %d cells, %d changed", got, want)
		}
		blob, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var decoded WireDelta
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if err := decoded.Validate(n, e); err != nil {
			t.Fatalf("decoded delta fails Validate: %v", err)
		}
		got := prev.Clone()
		if err := decoded.Check(got); err != nil {
			t.Fatalf("Check: %v", err)
		}
		decoded.Apply(got)
		for i := 0; i < n; i++ {
			for j := 0; j < e; j++ {
				if got.R[i][j] != next.R[i][j] {
					t.Fatalf("cell (%d,%d) = %d after round-trip apply, want %d", i, j, got.R[i][j], next.R[i][j])
				}
			}
		}
	})
}

// changedCells counts the cells on which two same-shape matrices differ.
func changedCells(a, b *RoutingMatrix) int {
	c := 0
	for i := range a.R {
		for j, v := range a.R[i] {
			if v != b.R[i][j] {
				c++
			}
		}
	}
	return c
}
