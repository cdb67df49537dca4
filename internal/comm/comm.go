// Package comm models the latency of the collective communication
// operations used by MoE training on a given cluster topology: All-to-All
// (token dispatch/combine and FSEP shard exchange), AllGather and
// ReduceScatter (FSDP parameter/gradient traffic), AllReduce (tensor
// parallelism), broadcast and point-to-point transfers.
//
// The model is alpha-beta per link class: a transfer of b bytes between
// devices i and j costs Latency + b/bw(i,j); a device's sends (and,
// independently, receives) serialize on its NIC. A collective completes
// when its slowest participant finishes — the property that turns expert
// load imbalance into All-to-All tail latency (Fig. 1b).
package comm

import (
	"fmt"

	"laermoe/internal/topology"
)

// Model computes collective latencies over a topology.
type Model struct {
	Topo *topology.Topology
}

// New returns a communication model over the given topology.
func New(t *topology.Topology) *Model { return &Model{Topo: t} }

// AllToAll returns the completion time of an irregular All-to-All that
// moves counts[i*N+k] tokens of bytesPerToken bytes each from device i to
// device k. Per device, send time is the sum over destinations of
// bytes/bw(i,k) (sends serialize on the NIC), and likewise for receives;
// the collective finishes when the slowest device finishes either side.
// Self-transfers (i==k) are local copies and ignored.
func (m *Model) AllToAll(counts []int32, bytesPerToken float64) float64 {
	n := m.Topo.N()
	if len(counts) != n*n {
		panic(fmt.Sprintf("comm: %d pair counts on a %d-device topology", len(counts), n))
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		var send, recv float64
		msgs := 0
		for k := 0; k < n; k++ {
			if k == i {
				continue
			}
			if c := counts[i*n+k]; c > 0 {
				send += float64(c) * bytesPerToken / m.Topo.Bandwidth(i, k)
				msgs++
			}
			if c := counts[k*n+i]; c > 0 {
				recv += float64(c) * bytesPerToken / m.Topo.Bandwidth(k, i)
			}
		}
		t := max(send, recv)
		if t > 0 {
			t += m.Topo.Latency * float64(max(1, msgs))
		}
		worst = max(worst, t)
	}
	return worst
}

// UniformAllToAll returns the time of a regular All-to-All where every
// device sends bytesPerPair to every other device in the group.
func (m *Model) UniformAllToAll(group []int, bytesPerPair float64) float64 {
	if len(group) < 2 || bytesPerPair <= 0 {
		return 0
	}
	worst := 0.0
	for _, i := range group {
		send := 0.0
		for _, k := range group {
			if k == i {
				continue
			}
			send += bytesPerPair / m.Topo.Bandwidth(i, k)
		}
		send += m.Topo.Latency * float64(len(group)-1)
		if send > worst {
			worst = send
		}
	}
	return worst
}

// AllGather returns the ring all-gather time for a group where each device
// contributes shardBytes and ends with the full group's data: each device
// moves (P-1) shards over the bottleneck link of the ring.
func (m *Model) AllGather(group []int, shardBytes float64) float64 {
	p := len(group)
	if p < 2 || shardBytes <= 0 {
		return 0
	}
	bw := m.Topo.MinBandwidth(group)
	steps := float64(p - 1)
	return steps*(shardBytes/bw) + steps*m.Topo.Latency
}

// ReduceScatter returns the ring reduce-scatter time for a group where the
// full buffer is fullBytes and each device ends with fullBytes/P reduced.
func (m *Model) ReduceScatter(group []int, fullBytes float64) float64 {
	p := len(group)
	if p < 2 || fullBytes <= 0 {
		return 0
	}
	bw := m.Topo.MinBandwidth(group)
	steps := float64(p - 1)
	return steps*(fullBytes/float64(p)/bw) + steps*m.Topo.Latency
}

// AllReduce returns the ring all-reduce time (reduce-scatter + all-gather).
func (m *Model) AllReduce(group []int, fullBytes float64) float64 {
	p := len(group)
	if p < 2 || fullBytes <= 0 {
		return 0
	}
	return m.ReduceScatter(group, fullBytes) + m.AllGather(group, fullBytes/float64(p))
}

// Broadcast returns a tree broadcast time of bytes from one device to the
// group (log2(P) rounds over the bottleneck link).
func (m *Model) Broadcast(group []int, bytes float64) float64 {
	p := len(group)
	if p < 2 || bytes <= 0 {
		return 0
	}
	bw := m.Topo.MinBandwidth(group)
	rounds := 0
	for v := 1; v < p; v <<= 1 {
		rounds++
	}
	return float64(rounds) * (bytes/bw + m.Topo.Latency)
}

// P2P returns the point-to-point transfer time of bytes from i to j.
func (m *Model) P2P(i, j int, bytes float64) float64 {
	if bytes <= 0 || i == j {
		return 0
	}
	return bytes/m.Topo.Bandwidth(i, j) + m.Topo.Latency
}
