package main

import (
	"math/rand/v2"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Input sizes, fixed for every seed: only the graph's random structure,
// the sources and the update batches vary with it.
const (
	powerVertices = 1 << 16
	powerEdges    = 1 << 20
	powerAlpha    = 2.4
	roadSide      = 256
	shards        = 24
	prIters       = 10

	// maxBatches bounds the update stream a replay can consume; each
	// batch inserts and deletes batchEdges edges.
	maxBatches = 64
	batchEdges = 8
)

// inputs is everything a run derives from its seed. The program under
// test receives only these generated values.
type inputs struct {
	g *graph.Graph
	// oocSources is the fixed batch of BFS sources of one out-of-core
	// sample; memSources the larger batch of one in-memory sample.
	oocSources []graph.VID
	memSources []graph.VID
	// serveSources are the sources of served BFS queries.
	serveSources []graph.VID
	// batches is the seeded update stream of the served replay, in
	// application order.
	batches []updateBatch
	seed    uint64
}

// updateBatch is one POST /v1/stores/{name}/updates body.
type updateBatch struct {
	ins, del []graph.Edge
}

func rngFor(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func makeInputs(w workload, seed uint64) *inputs {
	in := &inputs{seed: seed}
	r := rngFor(seed, 1)
	if w.road {
		in.g = gen.RoadGrid(roadSide, roadSide, seed)
		// Sources come from the central 8x8 block of the lattice, so
		// every seed's BFS has about the same eccentricity (256..262
		// rounds on the full lattice) and the same work.
		central := func() graph.VID {
			lo, span := roadSide/2-4, 8
			row, col := lo+r.IntN(span), lo+r.IntN(span)
			return graph.VID(row*roadSide + col)
		}
		in.oocSources = pick(1, central)
		in.memSources = pick(32, central)
	} else {
		in.g = gen.PowerLaw(powerVertices, powerEdges, powerAlpha, seed)
		// Sources with out-edges reach the giant component; an isolated
		// source would time an empty search.
		n := in.g.NumVertices()
		withOut := func() graph.VID {
			for {
				v := graph.VID(r.IntN(n))
				if in.g.OutDegree(v) > 0 {
					return v
				}
			}
		}
		in.oocSources = pick(4, withOut)
		in.memSources = pick(32, withOut)
		in.serveSources = pick(8, withOut)
	}
	in.batches = makeBatches(in.g, rngFor(seed, 2))
	return in
}

func pick(k int, next func() graph.VID) []graph.VID {
	out := make([]graph.VID, k)
	for i := range out {
		out[i] = next()
	}
	return out
}

// makeBatches draws the update stream: each batch deletes batchEdges
// edges present at that point and inserts batchEdges random edges, so
// the edge count stays near its start and the run stays stationary.
func makeBatches(g *graph.Graph, r *rand.Rand) []updateBatch {
	n := g.NumVertices()
	cur := g.Edges()
	out := make([]updateBatch, maxBatches)
	for i := range out {
		var b updateBatch
		for j := 0; j < batchEdges; j++ {
			b.del = append(b.del, cur[r.IntN(len(cur))])
			b.ins = append(b.ins, graph.Edge{Src: graph.VID(r.IntN(n)), Dst: graph.VID(r.IntN(n))})
		}
		out[i] = b
		cur = b.apply(cur)
	}
	return out
}

// apply mirrors shard.Store.ApplyBatch on an edge list: insertions add
// one copy each, then a deletion removes every copy of its pair (so a
// pair both inserted and deleted in one batch ends absent). It reuses
// cur's storage.
func (b updateBatch) apply(cur []graph.Edge) []graph.Edge {
	cur = append(cur, b.ins...)
	del := make(map[graph.Edge]bool, len(b.del))
	for _, e := range b.del {
		del[e] = true
	}
	out := cur[:0]
	for _, e := range cur {
		if !del[e] {
			out = append(out, e)
		}
	}
	return out
}
