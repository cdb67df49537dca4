package viz

import (
	"bytes"
	"strings"
	"testing"
)

func TestBarScaling(t *testing.T) {
	full := Bar("x", 10, 10, 20, "s")
	half := Bar("x", 5, 10, 20, "s")
	if strings.Count(full, "█") != 20 {
		t.Errorf("full bar has %d cells, want 20", strings.Count(full, "█"))
	}
	if strings.Count(half, "█") != 10 {
		t.Errorf("half bar has %d cells, want 10", strings.Count(half, "█"))
	}
	if got := Bar("x", 20, 10, 20, ""); strings.Count(got, "█") != 20 {
		t.Error("overflow bar should clamp to width")
	}
	if got := Bar("x", 1, 0, 20, ""); strings.Count(got, "█") != 0 {
		t.Error("zero max should render no cells")
	}
}

func TestBarChart(t *testing.T) {
	var buf bytes.Buffer
	BarChart(&buf, []string{"a", "b"}, []float64{1, 2}, 10, "u")
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("chart has %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], "a") || !strings.Contains(lines[1], "b") {
		t.Error("labels missing")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline has %d runes, want 4", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline endpoints wrong: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty series should render empty")
	}
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat series should render minimum blocks: %q", flat)
		}
	}
}

func TestTable(t *testing.T) {
	var buf bytes.Buffer
	Table(&buf, [][]string{{"name", "value"}, {"alpha", "1"}, {"b", "22"}})
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + separator + 2 rows
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[1], "-----") {
		t.Errorf("separator missing: %q", lines[1])
	}
	// Columns aligned: "value" column starts at same offset in all rows.
	idx := strings.Index(lines[0], "value")
	if strings.Index(lines[2], "1") != idx {
		t.Errorf("columns misaligned:\n%s", out)
	}
	Table(&buf, nil) // must not panic
}
