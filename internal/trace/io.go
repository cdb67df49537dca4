package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Record is one serialized routing matrix: a single (iteration, layer) cell
// of a trace. Traces are stored as JSON lines, one Record per line, so they
// can be streamed and concatenated.
type Record struct {
	Iteration int     `json:"iter"`
	Layer     int     `json:"layer"`
	N         int     `json:"n"`
	E         int     `json:"e"`
	R         [][]int `json:"r"`
}

// Writer streams Records to an io.Writer as JSON lines.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewWriter wraps w for trace writing.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Write appends one routing matrix for the given iteration and layer.
func (tw *Writer) Write(iter, layer int, m *RoutingMatrix) error {
	if iter < 0 || layer < 0 {
		return fmt.Errorf("trace: negative iteration %d or layer %d", iter, layer)
	}
	if err := m.Validate(); err != nil {
		return err
	}
	return tw.enc.Encode(Record{Iteration: iter, Layer: layer, N: m.N, E: m.E, R: m.R})
}

// Flush flushes buffered output; call before closing the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader streams Records back from an io.Reader.
type Reader struct {
	dec *json.Decoder
}

// NewReader wraps r for trace reading.
func NewReader(r io.Reader) *Reader {
	return &Reader{dec: json.NewDecoder(bufio.NewReader(r))}
}

// Next returns the next record, or io.EOF at end of stream.
func (tr *Reader) Next() (*Record, error) {
	var rec Record
	if err := tr.dec.Decode(&rec); err != nil {
		return nil, err
	}
	if rec.Iteration < 0 || rec.Layer < 0 {
		return nil, fmt.Errorf("trace: record has negative iteration %d or layer %d",
			rec.Iteration, rec.Layer)
	}
	if len(rec.R) != rec.N {
		return nil, fmt.Errorf("trace: record iter=%d layer=%d has %d rows, want %d",
			rec.Iteration, rec.Layer, len(rec.R), rec.N)
	}
	return &rec, nil
}

// Matrix converts the record back to a RoutingMatrix.
func (rec *Record) Matrix() (*RoutingMatrix, error) {
	m := &RoutingMatrix{N: rec.N, E: rec.E, R: rec.R}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadAll loads a full trace into memory, grouped as [iteration][layer].
// Records must be written iteration-major with contiguous layers (the
// format produced by Writer in the obvious loop order).
func ReadAll(r io.Reader) ([][]*RoutingMatrix, error) {
	tr := NewReader(r)
	var out [][]*RoutingMatrix
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		// Iterations must arrive in the Writer's iteration-major order:
		// each record either continues the current iteration or starts the
		// next one. A forward jump would let one corrupt record allocate
		// an unbounded grouping slice; a backward record would silently
		// merge into an earlier iteration and skew its layer count.
		switch {
		case rec.Iteration == len(out):
			out = append(out, nil)
		case len(out) > 0 && rec.Iteration == len(out)-1:
			// continuing the current iteration
		default:
			return nil, fmt.Errorf("trace: iteration %d after iteration %d (records must be contiguous, iteration-major)",
				rec.Iteration, len(out)-1)
		}
		m, err := rec.Matrix()
		if err != nil {
			return nil, err
		}
		if rec.Layer != len(out[rec.Iteration]) {
			return nil, fmt.Errorf("trace: out-of-order layer %d at iteration %d (expected %d)",
				rec.Layer, rec.Iteration, len(out[rec.Iteration]))
		}
		out[rec.Iteration] = append(out[rec.Iteration], m)
	}
	return out, nil
}
