// Package model catalogs the MoE model architectures evaluated in the
// paper (Table 2) and provides parameter-count and FLOPs accounting used by
// the cost model and the memory planner.
//
// All six evaluated configurations are reproduced: Mixtral-8x7B,
// Mixtral-8x22B and Qwen-8x7B, each in the standard e8k2 form (8 experts,
// top-2) and the expanded e16k4 form (16 experts, top-4, same parameter
// count and compute per layer).
package model

import (
	"fmt"
	"sort"
)

// BytesPerParam is the storage size of one bf16 parameter.
const BytesPerParam = 2

// Config describes one MoE transformer architecture.
type Config struct {
	Name string

	// Transformer shape.
	Layers       int // number of transformer layers
	HiddenDim    int // H
	Intermediate int // H' (per-expert SwiGLU intermediate dimension)
	Heads        int // attention query heads
	KVHeads      int // grouped-query KV heads
	HeadDim      int // per-head dimension
	VocabSize    int

	// MoE shape.
	Experts int // E, experts per MoE layer
	TopK    int // K, experts activated per token

	// ExpertCapacity is C: the number of complete experts each device
	// restores under FSEP (Sec. 5.1: C=2 for e8k2, C=4 for e16k4).
	ExpertCapacity int
}

// Validate reports whether the configuration is internally consistent.
func (c *Config) Validate() error {
	switch {
	case c.Layers <= 0 || c.HiddenDim <= 0 || c.Intermediate <= 0:
		return fmt.Errorf("model %s: non-positive transformer dimensions", c.Name)
	case c.Experts <= 0 || c.TopK <= 0:
		return fmt.Errorf("model %s: non-positive MoE dimensions", c.Name)
	case c.TopK > c.Experts:
		return fmt.Errorf("model %s: top-k %d exceeds expert count %d", c.Name, c.TopK, c.Experts)
	case c.Heads <= 0 || c.KVHeads <= 0 || c.Heads%c.KVHeads != 0:
		return fmt.Errorf("model %s: heads %d not divisible by kv heads %d", c.Name, c.Heads, c.KVHeads)
	case c.ExpertCapacity <= 0:
		return fmt.Errorf("model %s: non-positive expert capacity", c.Name)
	}
	return nil
}

// ExpertParams returns the parameter count of one expert: a SwiGLU MLP with
// gate, up and down projections (3 * H * H').
func (c *Config) ExpertParams() int64 {
	return 3 * int64(c.HiddenDim) * int64(c.Intermediate)
}

// AttentionParams returns the parameter count of one attention block under
// grouped-query attention: Q and O projections of H x (heads*headDim) plus
// K and V projections of H x (kvHeads*headDim).
func (c *Config) AttentionParams() int64 {
	h := int64(c.HiddenDim)
	qo := 2 * h * int64(c.Heads) * int64(c.HeadDim)
	kv := 2 * h * int64(c.KVHeads) * int64(c.HeadDim)
	return qo + kv
}

// RouterParams returns the gating-network parameter count of one MoE layer.
func (c *Config) RouterParams() int64 {
	return int64(c.HiddenDim) * int64(c.Experts)
}

// LayerParams returns the parameter count of one transformer layer
// (attention + router + all experts; norms are negligible and ignored).
func (c *Config) LayerParams() int64 {
	return c.AttentionParams() + c.RouterParams() + int64(c.Experts)*c.ExpertParams()
}

// NonExpertLayerParams returns Ψ_other: the per-layer parameters excluding
// the experts (Sec. 3.1 memory analysis).
func (c *Config) NonExpertLayerParams() int64 {
	return c.AttentionParams() + c.RouterParams()
}

// EmbeddingParams returns the input + output embedding parameter count.
func (c *Config) EmbeddingParams() int64 {
	return 2 * int64(c.VocabSize) * int64(c.HiddenDim)
}

// TotalParams returns Ψ_all: the full model parameter count.
func (c *Config) TotalParams() int64 {
	return int64(c.Layers)*c.LayerParams() + c.EmbeddingParams()
}

// ActivatedParams returns the parameters touched per token (attention +
// router + top-K experts per layer, plus embeddings).
func (c *Config) ActivatedParams() int64 {
	perLayer := c.AttentionParams() + c.RouterParams() + int64(c.TopK)*c.ExpertParams()
	return int64(c.Layers)*perLayer + c.EmbeddingParams()
}

// ExpertBytes returns Ψ_expert in bytes (bf16).
func (c *Config) ExpertBytes() int64 { return c.ExpertParams() * BytesPerParam }

// ExpertFLOPsPerToken returns the forward FLOPs of one expert on one token:
// 6*H*H' for a SwiGLU MLP (three H x H' GEMMs, 2 FLOPs per MAC), as used in
// the paper's overlap analysis (Sec. 3.1).
func (c *Config) ExpertFLOPsPerToken() float64 {
	return 6 * float64(c.HiddenDim) * float64(c.Intermediate)
}

// AttentionFLOPsPerToken returns the forward FLOPs of the attention block
// on one token at the given context length: 2 FLOPs per parameter for the
// projections plus 4*H*ctx for the score/value contractions.
func (c *Config) AttentionFLOPsPerToken(contextLen int) float64 {
	return 2*float64(c.AttentionParams()) + 4*float64(c.HiddenDim)*float64(contextLen)
}

// TokenBytes returns the size of one token's hidden state in bytes (the
// All-to-All payload per token per hop).
func (c *Config) TokenBytes() int64 { return int64(c.HiddenDim) * BytesPerParam }

// String renders a Table-2 style row.
func (c *Config) String() string {
	return fmt.Sprintf("%s: %d layers, %.2fB params, %.2fB activated, E&K=%d&%d",
		c.Name, c.Layers, float64(c.TotalParams())/1e9, float64(c.ActivatedParams())/1e9,
		c.Experts, c.TopK)
}

// catalog holds the evaluated configurations keyed by canonical name.
var catalog = map[string]*Config{}

func register(c *Config) *Config {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	catalog[c.Name] = c
	return c
}

// Preset configurations (Table 2). The e16k4 variants double the expert
// count and top-k while halving the per-expert intermediate dimension,
// keeping parameters and compute per layer unchanged; layer counts follow
// the paper's memory-constrained reductions.
var (
	Mixtral8x7B = register(&Config{
		Name: "mixtral-8x7b-e8k2", Layers: 32, HiddenDim: 4096, Intermediate: 14336,
		Heads: 32, KVHeads: 8, HeadDim: 128, VocabSize: 32000,
		Experts: 8, TopK: 2, ExpertCapacity: 2,
	})
	Mixtral8x7BE16 = register(&Config{
		Name: "mixtral-8x7b-e16k4", Layers: 24, HiddenDim: 4096, Intermediate: 7168,
		Heads: 32, KVHeads: 8, HeadDim: 128, VocabSize: 32000,
		Experts: 16, TopK: 4, ExpertCapacity: 4,
	})
	Mixtral8x22B = register(&Config{
		Name: "mixtral-8x22b-e8k2", Layers: 18, HiddenDim: 6144, Intermediate: 16384,
		Heads: 48, KVHeads: 8, HeadDim: 128, VocabSize: 32000,
		Experts: 8, TopK: 2, ExpertCapacity: 2,
	})
	Mixtral8x22BE16 = register(&Config{
		Name: "mixtral-8x22b-e16k4", Layers: 14, HiddenDim: 6144, Intermediate: 8192,
		Heads: 48, KVHeads: 8, HeadDim: 128, VocabSize: 32000,
		Experts: 16, TopK: 4, ExpertCapacity: 4,
	})
	// Qwen-8x7B is the paper's transformation of Mixtral-8x7B into the
	// Qwen architecture; dimensions match Mixtral-8x7B (46.69B vs 46.70B
	// in Table 2 — the 0.01B delta comes from attention biases, which are
	// below the resolution of this cost model and ignored).
	Qwen8x7B = register(&Config{
		Name: "qwen-8x7b-e8k2", Layers: 32, HiddenDim: 4096, Intermediate: 14336,
		Heads: 32, KVHeads: 8, HeadDim: 128, VocabSize: 32000,
		Experts: 8, TopK: 2, ExpertCapacity: 2,
	})
	Qwen8x7BE16 = register(&Config{
		Name: "qwen-8x7b-e16k4", Layers: 24, HiddenDim: 4096, Intermediate: 7168,
		Heads: 32, KVHeads: 8, HeadDim: 128, VocabSize: 32000,
		Experts: 16, TopK: 4, ExpertCapacity: 4,
	})

	// Synthetic large-E configurations for the production-scale online
	// re-layout study (the `scale` experiment): fine-grained small experts
	// in the regime of Least-Loaded Expert Parallelism-style deployments,
	// where the expert pool rivals the device count and per-expert state
	// is small enough that re-layout is a placement problem, not a
	// parameter-traffic problem. EP group sizes (E/C) are chosen so static
	// EP tiles the 128-, 512- and 1024-GPU clusters exactly. At these
	// shapes N*C == E, so every expert holds exactly one replica and the
	// planner's lever is placement alone — which is the lever that matters
	// at this granularity: wider experts or more capacity mostly add
	// policy-independent parameter traffic that buries the routing signal.
	SyntheticE512 = register(&Config{
		Name: "synthetic-e512", Layers: 8, HiddenDim: 1024, Intermediate: 2048,
		Heads: 16, KVHeads: 4, HeadDim: 64, VocabSize: 32000,
		Experts: 512, TopK: 2, ExpertCapacity: 4,
	})
	SyntheticE2048 = register(&Config{
		Name: "synthetic-e2048", Layers: 64, HiddenDim: 1024, Intermediate: 2048,
		Heads: 16, KVHeads: 4, HeadDim: 64, VocabSize: 32000,
		Experts: 2048, TopK: 2, ExpertCapacity: 4,
	})
	SyntheticE4096 = register(&Config{
		Name: "synthetic-e4096", Layers: 64, HiddenDim: 1024, Intermediate: 2048,
		Heads: 16, KVHeads: 4, HeadDim: 64, VocabSize: 32000,
		Experts: 4096, TopK: 2, ExpertCapacity: 4,
	})
	// The N=4096/E=16384 frontier cell: a 16k-expert pool on a 4096-GPU
	// cluster (512 nodes x 8). A single dense routing matrix at this shape
	// is 4096x16384 cells, so the layer count is kept minimal — the cell
	// exists to measure the planner's amortized drift-delta path where the
	// full re-score is hundreds of milliseconds per layer, not to model a
	// deep network.
	SyntheticE16384 = register(&Config{
		Name: "synthetic-e16384", Layers: 2, HiddenDim: 1024, Intermediate: 2048,
		Heads: 16, KVHeads: 4, HeadDim: 64, VocabSize: 32000,
		Experts: 16384, TopK: 2, ExpertCapacity: 4,
	})
)

// Default is the catalog name every entry point falls back to when no
// model is given: the paper's Mixtral-8x7B.
const Default = "mixtral-8x7b-e8k2"

// ByName returns the preset configuration with the given canonical name.
func ByName(name string) (*Config, error) {
	c, ok := catalog[name]
	if !ok {
		return nil, fmt.Errorf("model: unknown configuration %q (have %v)", name, Names())
	}
	return c, nil
}

// Names returns the canonical names of all preset configurations, sorted.
func Names() []string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns the preset configurations in the order used by the paper's
// Figure 8: the e8k2 series followed by the e16k4 series.
func All() []*Config {
	return []*Config{
		Mixtral8x7B, Mixtral8x22B, Qwen8x7B,
		Mixtral8x7BE16, Mixtral8x22BE16, Qwen8x7BE16,
	}
}
