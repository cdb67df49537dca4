package trace

import (
	"fmt"
	"math"
	"math/rand"

	"laermoe/internal/par"
)

// ArrivalShape names a request-arrival traffic shape for the inference
// workload.
type ArrivalShape string

const (
	// ArrivalDiurnal modulates the arrival rate sinusoidally around the
	// mean — the day/night cycle of a serving fleet, compressed so one
	// period spans ArrivalPeriod iterations.
	ArrivalDiurnal ArrivalShape = "diurnal"
	// ArrivalBursty runs below the mean most of the time and spikes to a
	// multiple of it in short burst episodes (flash-crowd traffic).
	ArrivalBursty ArrivalShape = "bursty"
)

// ArrivalShapes lists every arrival shape accepted by NewRequestGenerator.
func ArrivalShapes() []ArrivalShape { return []ArrivalShape{ArrivalDiurnal, ArrivalBursty} }

// Arrival-process constants. They are fixed rather than configurable so
// every consumer of an arrival shape means the same traffic.
const (
	// ArrivalPeriod is the diurnal cycle length in iterations.
	ArrivalPeriod = 24
	// arrivalDiurnalAmp is the sinusoidal modulation depth of the diurnal
	// shape: the rate swings between (1±amp) x mean.
	arrivalDiurnalAmp = 0.6
	// arrivalBurstyBase, arrivalBurstyPeak: the bursty shape idles at
	// base x mean and spikes to peak x mean during a burst episode.
	arrivalBurstyBase = 0.7
	arrivalBurstyPeak = 2.5
	// arrivalBurstEnter/arrivalBurstExit are the per-iteration transition
	// probabilities of the burst state machine (mean episode length
	// 1/exit = 2.5 iterations, duty cycle ~20%).
	arrivalBurstEnter = 0.10
	arrivalBurstExit  = 0.40
)

// Validate reports whether the shape names a known arrival process.
func (s ArrivalShape) Validate() error {
	switch s {
	case ArrivalDiurnal, ArrivalBursty:
		return nil
	}
	return fmt.Errorf("trace: unknown arrival shape %q (have %v)", s, ArrivalShapes())
}

// RequestConfig parameterizes a request-level inference trace. The
// embedded GeneratorConfig supplies the expert-popularity process
// (per-layer AR(1) logit streams, aux compression, device noise) exactly
// as in training; TokensPerDevice is reinterpreted as the *mean* decode
// requests arriving per device per iteration, around which the arrival
// process modulates.
type RequestConfig struct {
	GeneratorConfig
	// Arrival selects the traffic shape ("" = diurnal).
	Arrival ArrivalShape
}

// RequestBatch is one iteration of decode traffic: the per-device request
// counts the arrival process drew, and every request's top-k expert
// choices per layer. Choices are what the latency objective consumes —
// a request's decode latency is the sum over layers of the slowest of
// its k experts' queue-drain times.
type RequestBatch struct {
	// TopK is the choices per request per layer.
	TopK int
	// PerDevice[i] is the number of requests that arrived at device i
	// this iteration; Offsets is its prefix sum (len devices+1), so
	// device i's requests are the global indices Offsets[i]..Offsets[i+1].
	PerDevice []int
	Offsets   []int
	// Choices[l] holds layer l's expert choices, flat and device-grouped:
	// request r of device i chose Choices[l][(Offsets[i]+r)*TopK+k] as
	// its k-th expert. The k choices of one request are distinct.
	Choices [][]int32
}

// Requests is the total request count of the batch.
func (b *RequestBatch) Requests() int {
	if len(b.Offsets) == 0 {
		return 0
	}
	return b.Offsets[len(b.Offsets)-1]
}

// RequestGenerator produces one iteration of request-level decode traffic
// per Step: a Poisson arrival draw per device (rate modulated by the
// configured shape), per-request top-k expert choices sampled from the
// same per-layer popularity process the training Generator evolves, and
// the aggregated per-layer RoutingMatrix views the planner already
// consumes. Arrival counts come from one dedicated RNG stream advanced
// before the per-layer fan-out, and each layer samples choices only from
// its own stream — so, like Generator, the trace is byte-identical at any
// Parallelism.
type RequestGenerator struct {
	gen     *Generator
	arrival ArrivalShape
	arr     *rand.Rand
	burst   bool
	iter    int

	batch RequestBatch
}

// arrivalStream is the layerSeed index of the arrival RNG stream — far
// past any real layer index so the stream never collides with a layer's.
const arrivalStream = 1 << 30

// NewRequestGenerator builds a request-level trace generator.
func NewRequestGenerator(cfg RequestConfig) (*RequestGenerator, error) {
	if cfg.Arrival == "" {
		cfg.Arrival = ArrivalDiurnal
	}
	if err := cfg.Arrival.Validate(); err != nil {
		return nil, err
	}
	gen, err := NewGenerator(cfg.GeneratorConfig)
	if err != nil {
		return nil, err
	}
	g := &RequestGenerator{
		gen:     gen,
		arrival: cfg.Arrival,
		arr:     rand.New(rand.NewSource(layerSeed(gen.cfg.Seed, arrivalStream))),
	}
	n := gen.cfg.Devices
	g.batch = RequestBatch{
		TopK:      gen.cfg.TopK,
		PerDevice: make([]int, n),
		Offsets:   make([]int, n+1),
		Choices:   make([][]int32, gen.cfg.Layers),
	}
	return g, nil
}

// Config returns the (defaulted) underlying generator configuration.
func (g *RequestGenerator) Config() GeneratorConfig { return g.gen.Config() }

// Arrival returns the configured traffic shape.
func (g *RequestGenerator) Arrival() ArrivalShape { return g.arrival }

// ApplyDrift applies an epoch-boundary drift step to the popularity
// process, exactly as Generator.ApplyDrift.
func (g *RequestGenerator) ApplyDrift(cfg DriftConfig) error { return g.gen.ApplyDrift(cfg) }

// rate returns this iteration's arrival rate per device, as a multiple of
// the configured mean. It consumes only the arrival stream.
func (g *RequestGenerator) rate() float64 {
	switch g.arrival {
	case ArrivalBursty:
		if g.burst {
			if g.arr.Float64() < arrivalBurstExit {
				g.burst = false
			}
		} else if g.arr.Float64() < arrivalBurstEnter {
			g.burst = true
		}
		if g.burst {
			return arrivalBurstyPeak
		}
		return arrivalBurstyBase
	default: // diurnal
		return 1 + arrivalDiurnalAmp*math.Sin(2*math.Pi*float64(g.iter)/ArrivalPeriod)
	}
}

// poisson draws a Poisson(lambda) variate from rng: Knuth's product
// method for small rates, a rounded-normal approximation for large ones.
// Both branches consume a bounded number of draws and are deterministic
// for a given stream position.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		limit := math.Exp(-lambda)
		p, k := 1.0, 0
		for p > limit {
			p *= rng.Float64()
			k++
		}
		return k - 1
	}
	v := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
	if v < 0 {
		v = 0
	}
	return v
}

// StepInto advances one decode iteration: it draws the per-device arrival
// counts, samples every request's top-k expert choices per layer, and
// writes the aggregated routing matrices into dst (grown or replaced as
// in Generator.StepInto). The returned batch is owned by the generator
// and overwritten by the next Step.
func (g *RequestGenerator) StepInto(dst []*RoutingMatrix) ([]*RoutingMatrix, *RequestBatch) {
	cfg := g.gen.cfg
	n, e, L, K := cfg.Devices, cfg.Experts, cfg.Layers, cfg.TopK

	// Arrivals first, serially, from the dedicated stream: the layer
	// fan-out below depends only on these fixed counts.
	lambda := g.rate() * float64(cfg.TokensPerDevice)
	total := 0
	for i := 0; i < n; i++ {
		g.batch.Offsets[i] = total
		c := poisson(g.arr, lambda)
		g.batch.PerDevice[i] = c
		total += c
	}
	g.batch.Offsets[n] = total
	g.iter++
	g.gen.iter++

	if cap(dst) < L {
		grown := make([]*RoutingMatrix, L)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:L]

	sample := func(l int) {
		g.gen.evolveLayer(l)
		m := dst[l]
		if m == nil || m.N != n || m.E != e {
			m = NewRoutingMatrix(n, e)
			dst[l] = m
		}
		if need := total * K; cap(g.batch.Choices[l]) < need {
			g.batch.Choices[l] = make([]int32, need)
		}
		choices := g.batch.Choices[l][:total*K]
		g.batch.Choices[l] = choices

		sc := genScratchPool.Get().(*genScratch)
		sc.resize(e)
		g.gen.compressedInto(sc.base, l)
		rng := g.gen.layers[l].rng
		for i := 0; i < n; i++ {
			row := m.R[i]
			for j := range row {
				row[j] = 0
			}
			if g.batch.PerDevice[i] == 0 {
				continue
			}
			// The device's perturbed routing distribution, as in training
			// synthesis, turned into a CDF for inversion sampling.
			for j := range sc.probs {
				sc.probs[j] = sc.base[j] + rng.NormFloat64()*deviceNoise
			}
			softmaxInto(sc.probs, sc.probs)
			cum := 0.0
			for j := range sc.probs {
				cum += sc.probs[j]
				sc.probs[j] = cum
			}
			base := g.batch.Offsets[i] * K
			for r := 0; r < g.batch.PerDevice[i]; r++ {
				reqBase := base + r*K
				for k := 0; k < K; k++ {
					j := sampleDistinct(rng, sc.probs, choices[reqBase:reqBase+k])
					choices[reqBase+k] = int32(j)
					row[j]++
				}
			}
		}
		genScratchPool.Put(sc)
	}

	workers := par.Workers(cfg.Parallelism)
	if workers <= 1 {
		for l := 0; l < L; l++ {
			sample(l)
		}
	} else {
		_ = par.ForEach(workers, L, func(l int) error {
			sample(l)
			return nil
		})
	}
	return dst, &g.batch
}

// Step is StepInto with freshly allocated matrices.
func (g *RequestGenerator) Step() ([]*RoutingMatrix, *RequestBatch) {
	return g.StepInto(make([]*RoutingMatrix, g.gen.cfg.Layers))
}

// sampleDistinct draws one expert index by CDF inversion, rejecting
// indices already present in taken (a request's k choices are distinct).
// After a bounded number of rejections it falls back to scanning forward
// from the last draw, which terminates because len(taken) < len(cdf).
func sampleDistinct(rng *rand.Rand, cdf []float64, taken []int32) int {
	j := 0
	for attempt := 0; attempt < 16; attempt++ {
		j = invertCDF(cdf, rng.Float64())
		if !contains(taken, int32(j)) {
			return j
		}
	}
	for contains(taken, int32(j)) {
		j = (j + 1) % len(cdf)
	}
	return j
}

// invertCDF returns the smallest index with cdf[index] >= u (binary
// search; cdf is nondecreasing with cdf[len-1] ~= 1).
func invertCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
