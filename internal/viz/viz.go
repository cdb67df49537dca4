// Package viz renders the small ASCII visualisations used by the command
// line tools and examples: horizontal bar charts, sparklines and aligned
// tables.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Bar renders one labelled horizontal bar scaled so that maxValue fills
// width cells.
func Bar(label string, value, maxValue float64, width int, unit string) string {
	if width <= 0 {
		width = 40
	}
	n := 0
	if maxValue > 0 {
		n = int(math.Round(value / maxValue * float64(width)))
	}
	if n > width {
		n = width
	}
	if n < 0 {
		n = 0
	}
	return fmt.Sprintf("%-22s %-*s %8.3g%s", label, width, strings.Repeat("█", n), value, unit)
}

// BarChart writes one bar per (label, value) pair, auto-scaled to the
// largest value.
func BarChart(w io.Writer, labels []string, values []float64, width int, unit string) {
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	for i, label := range labels {
		fmt.Fprintln(w, Bar(label, values[i], maxV, width, unit))
	}
}

// sparkRunes are the eight block heights of a sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as a compact one-line chart.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// Table writes rows with aligned columns; the first row is treated as the
// header and underlined.
func Table(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for c, cell := range row {
			if c >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	writeRow := func(row []string) {
		var b strings.Builder
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[c], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	writeRow(rows[0])
	var sep []string
	for _, width := range widths[:len(rows[0])] {
		sep = append(sep, strings.Repeat("-", width))
	}
	writeRow(sep)
	for _, row := range rows[1:] {
		writeRow(row)
	}
}
