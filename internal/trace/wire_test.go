package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

func wireTestMatrices(t *testing.T) (prev, next *RoutingMatrix) {
	t.Helper()
	prev = NewRoutingMatrix(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			prev.R[i][j] = 10*i + j + 1
		}
	}
	next = prev.Clone()
	// Token-conserving sparse move plus an independent bump.
	next.R[0][1] -= 1
	next.R[2][1] += 1
	next.R[3][0] += 5
	return prev, next
}

func TestWireRoundTripMatchesDense(t *testing.T) {
	prev, next := wireTestMatrices(t)
	w := WireDiff(prev, next.R)
	if got := w.Cells(); got != 3 {
		t.Fatalf("Cells() = %d, want 3", got)
	}
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if want := `{"experts":[{"e":0,"c":[3,5]},{"e":1,"c":[0,-1,2,1]}]}`; string(blob) != want {
		t.Fatalf("wire form %s, want %s", blob, want)
	}
	var decoded WireDelta
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := decoded.Validate(next.N, next.E); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got := prev.Clone()
	if err := decoded.Check(got); err != nil {
		t.Fatalf("Check: %v", err)
	}
	decoded.Apply(got)
	for i := 0; i < next.N; i++ {
		for j := 0; j < next.E; j++ {
			if got.R[i][j] != next.R[i][j] {
				t.Fatalf("cell (%d,%d) = %d after apply, want %d", i, j, got.R[i][j], next.R[i][j])
			}
		}
	}
}

func TestWireEmptyDelta(t *testing.T) {
	m := NewRoutingMatrix(2, 2)
	w := WireDiff(m, m.R)
	if w.Cells() != 0 {
		t.Fatalf("self-diff has %d cells, want 0", w.Cells())
	}
	blob, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if string(blob) != "{}" {
		t.Fatalf("empty delta serializes to %s, want {}", blob)
	}
	if err := w.Check(m); err != nil {
		t.Fatalf("Check on empty delta: %v", err)
	}
}

func TestWireValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		w    WireDelta
		want string
	}{
		{"expert out of range", WireDelta{Experts: []WireExpertDelta{{Expert: 3, Cells: []int{0, 1}}}}, "out of range"},
		{"negative expert", WireDelta{Experts: []WireExpertDelta{{Expert: -1, Cells: []int{0, 1}}}}, "out of range"},
		{"experts not ascending", WireDelta{Experts: []WireExpertDelta{{Expert: 1, Cells: []int{0, 1}}, {Expert: 0, Cells: []int{0, 1}}}}, "ascending"},
		{"duplicate expert", WireDelta{Experts: []WireExpertDelta{{Expert: 1, Cells: []int{0, 1}}, {Expert: 1, Cells: []int{1, 1}}}}, "ascending"},
		{"odd cell count", WireDelta{Experts: []WireExpertDelta{{Expert: 0, Cells: []int{0, 1, 1}}}}, "even count"},
		{"empty cells", WireDelta{Experts: []WireExpertDelta{{Expert: 0, Cells: nil}}}, "even count"},
		{"device out of range", WireDelta{Experts: []WireExpertDelta{{Expert: 0, Cells: []int{2, 1}}}}, "out of range"},
		{"negative device", WireDelta{Experts: []WireExpertDelta{{Expert: 0, Cells: []int{-1, 1}}}}, "out of range"},
		{"devices not ascending", WireDelta{Experts: []WireExpertDelta{{Expert: 0, Cells: []int{1, 1, 0, 1}}}}, "ascending"},
		{"duplicate device", WireDelta{Experts: []WireExpertDelta{{Expert: 0, Cells: []int{1, 1, 1, 2}}}}, "ascending"},
		{"zero diff", WireDelta{Experts: []WireExpertDelta{{Expert: 0, Cells: []int{0, 0}}}}, "zero diff"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.w.Validate(2, 3)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestWireCheckRejectsNegativeResult(t *testing.T) {
	m := NewRoutingMatrix(2, 2)
	m.R[1][0] = 3
	w := WireDelta{Experts: []WireExpertDelta{{Expert: 0, Cells: []int{1, -4}}}}
	err := w.Check(m)
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("Check = %v, want negative-cell error", err)
	}
	// The boundary case — driving a cell exactly to zero — is fine.
	ok := WireDelta{Experts: []WireExpertDelta{{Expert: 0, Cells: []int{1, -3}}}}
	if err := ok.Check(m); err != nil {
		t.Fatalf("Check on exact-zero delta: %v", err)
	}
}
