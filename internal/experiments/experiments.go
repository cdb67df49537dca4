// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5 and appendices) from the simulator. Each experiment
// returns structured results plus a formatted Table so that the command
// line tool (cmd/laer-exp) and the benchmark harness (bench_test.go at the
// repository root) print identical artifacts.
//
// Absolute numbers differ from the paper — the substrate is a simulator,
// not the authors' A100 testbed — but the shapes under test (who wins, by
// roughly what factor, where crossovers fall) are asserted in this
// package's tests and recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"

	"laermoe/internal/topology"
	"laermoe/internal/viz"
)

// Options configures an experiment run.
type Options struct {
	// Topo is the simulated cluster (nil → the paper's 4x8 A100 cluster).
	Topo *topology.Topology
	// Iterations and Warmup control each simulated training run
	// (0 → 10 and 2).
	Iterations int
	Warmup     int
	// Quick trims sweep dimensions for fast smoke runs.
	Quick bool
	Seed  int64
	// Parallelism bounds the worker pool that fans independent sweep
	// cells across CPUs: 0 uses GOMAXPROCS, 1 forces serial execution,
	// n > 1 uses n workers. Output is byte-identical at any setting.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.Topo == nil {
		o.Topo = topology.Default()
	}
	if o.Iterations == 0 {
		o.Iterations = 10
	}
	if o.Warmup == 0 {
		o.Warmup = 2
	}
	return o
}

// Dataset models the evaluation corpora: routing concentration differs
// between them, which is how the paper's per-dataset spread arises.
type Dataset struct {
	Name string
	Skew float64
	Seed int64
}

// Datasets returns the evaluated corpora.
func Datasets() []Dataset {
	return []Dataset{
		{Name: "wikitext", Skew: 1.15, Seed: 101},
		{Name: "c4", Skew: 0.95, Seed: 707},
	}
}

// Table is a formatted experiment artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	rows := append([][]string{t.Header}, t.Rows...)
	viz.Table(w, rows)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// experiment is one registered id: run renders its tables.
type experiment struct {
	id  string
	run func(Options) ([]*Table, error)
}

// tables adapts an experiment that can fail to the registry: pick selects
// the tables of its result.
func tables[R any](run func(Options) (R, error), pick func(R) []*Table) func(Options) ([]*Table, error) {
	return func(opts Options) ([]*Table, error) {
		r, err := run(opts)
		if err != nil {
			return nil, err
		}
		return pick(r), nil
	}
}

// registry is the one registration site of every experiment, in listing
// order: IDs reads it and Run dispatches through it.
var registry = []experiment{
	{"tab2", func(o Options) ([]*Table, error) { return []*Table{Table2(o)}, nil }},
	{"fig1a", tables(Fig1a, func(r *Fig1aResult) []*Table { return []*Table{r.Table} })},
	{"fig1b", tables(Fig1b, func(r *Fig1bResult) []*Table { return []*Table{r.Table} })},
	{"fig2", func(o Options) ([]*Table, error) { return []*Table{Fig2(o).Table}, nil }},
	{"fig8", tables(Fig8, func(r *Fig8Result) []*Table { return []*Table{r.Table} })},
	{"fig9", tables(Fig9, func(r *Fig9Result) []*Table { return []*Table{r.Table, r.ErrorTable} })},
	{"fig10a", tables(Fig10a, func(r *Fig10aResult) []*Table { return []*Table{r.Table} })},
	{"fig10b", tables(Fig10b, func(r *Fig10bResult) []*Table { return []*Table{r.Table} })},
	{"tab3", tables(Table3, func(r *Table3Result) []*Table { return []*Table{r.Table} })},
	{"fig11", tables(Fig11, func(r *Fig11Result) []*Table { return []*Table{r.Table} })},
	{"fig12", tables(Fig12, func(r *Fig12Result) []*Table { return []*Table{r.Table} })},
	{"tab4", tables(Table4, func(r *Table4Result) []*Table { return []*Table{r.Table} })},
	{"eq1", func(o Options) ([]*Table, error) { return []*Table{Eq1(o).Table}, nil }},
	{"forecast", tables(Forecast, func(r *ForecastResult) []*Table { return []*Table{r.Table} })},
	{"scale", tables(Scale, func(r *ScaleResult) []*Table { return []*Table{r.Table} })},
	{"resilience", tables(Resilience, func(r *ResilienceResult) []*Table { return []*Table{r.Table} })},
	{"inference", tables(Inference, func(r *InferenceResult) []*Table { return []*Table{r.Table} })},
}

// IDs lists every runnable experiment id.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Run dispatches an experiment by id and returns its tables.
func Run(id string, opts Options) ([]*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(opts)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
}
