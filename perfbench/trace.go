package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/shard"
)

// span is one timed call into a layer's public function. Times are
// nanoseconds since the run started; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Query  string `json:"query,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory until the run ends. A
// nil recorder (an untraced run) records nothing.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID for end.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// record adds a span timed by the caller.
func (r *recorder) record(name, query string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Query: query,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// writeFile writes the spans as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSys wraps an engine and times every EdgeMap and VertexMap call
// from outside it. On the out-of-core engine each EdgeMap is classified
// dense or sparse from the delta of the engine's public Stats.
type tracedSys struct {
	api.System
	rec    *recorder
	parent int
	stats  func() shard.Stats // nil on the in-memory engine

	edgeMap, vertexMap time.Duration
	dense, sparse      time.Duration
	denseCalls         int64
	sparseCalls        int64
}

func (t *tracedSys) EdgeMap(f *frontier.Frontier, op api.EdgeOp, dir api.Direction) *frontier.Frontier {
	var before shard.Stats
	if t.stats != nil {
		before = t.stats()
	}
	id := t.rec.begin("EdgeMap", t.parent)
	t0 := time.Now()
	out := t.System.EdgeMap(f, op, dir)
	d := time.Since(t0)
	t.rec.end(id)
	t.edgeMap += d
	if t.stats != nil {
		after := t.stats()
		switch {
		case after.DenseSweeps > before.DenseSweeps:
			t.dense += d
			t.denseCalls++
		case after.SparseSweeps > before.SparseSweeps:
			t.sparse += d
			t.sparseCalls++
		}
	}
	return out
}

func (t *tracedSys) VertexMap(f *frontier.Frontier, fn func(graph.VID)) {
	id := t.rec.begin("VertexMap", t.parent)
	t0 := time.Now()
	t.System.VertexMap(f, fn)
	t.vertexMap += time.Since(t0)
	t.rec.end(id)
}

// oocTally sums one algorithm's traced out-of-core samples.
type oocTally struct {
	samples                       int
	wall, edgeMap, vertexMap      time.Duration
	dense, sparse                 time.Duration
	denseCalls, sparseCalls       int64
	loads, hits, planned, skipped int64
	bytesRead, bytesLogical       int64
	prefetchLoads, overlapped     int64
	applyPeak, readPeak           int64
	sgSweeps, binReused           int64
	binWritten, binRead           int64
	exact                         bool
}

func (t *oocTally) add(ts *tracedSys, st shard.Stats, wall time.Duration) {
	if t.samples == 0 {
		t.exact = true
	}
	t.samples++
	t.wall += wall
	t.edgeMap += ts.edgeMap
	t.vertexMap += ts.vertexMap
	t.dense += ts.dense
	t.sparse += ts.sparse
	t.denseCalls += ts.denseCalls
	t.sparseCalls += ts.sparseCalls
	t.loads += st.ShardLoads
	t.hits += st.CacheHits
	t.planned += st.PlannedCacheHits
	t.skipped += st.ShardsSkipped
	t.bytesRead += st.BytesRead
	t.bytesLogical += st.BytesLogical
	t.prefetchLoads += st.PrefetchLoads
	t.overlapped += st.OverlappedLoads
	t.applyPeak = max(t.applyPeak, st.ConcurrentApplyPeak)
	t.readPeak = max(t.readPeak, st.ReadsInFlightPeak)
	t.sgSweeps += st.ScatterGatherSweeps
	t.binReused += st.BinShardsReused
	t.binWritten += st.BinBytesWritten
	t.binRead += st.BinBytesRead
	t.exact = t.exact && st.PlannedCacheHits == st.CacheHits
}

// memTally sums one algorithm's traced in-memory samples.
type memTally struct {
	samples                  int
	wall, edgeMap, vertexMap time.Duration
	tel                      core.Telemetry
}

// add tallies one sample; tel is the fresh engine's telemetry after it.
func (t *memTally) add(ts *tracedSys, tel core.Telemetry, wall time.Duration) {
	t.samples++
	t.wall += wall
	t.edgeMap += ts.edgeMap
	t.vertexMap += ts.vertexMap
	t.tel.DenseIters += tel.DenseIters
	t.tel.MediumIters += tel.MediumIters
	t.tel.SparseIters += tel.SparseIters
}

// tallies are a traced run's per-algorithm sums. Keys are pr, bfs, cc
// and, out of core, pr_sg for scatter/gather PageRank.
type tallies struct {
	ooc map[string]*oocTally
	mem map[string]*memTally
}

func newTallies() tallies {
	t := tallies{ooc: map[string]*oocTally{}, mem: map[string]*memTally{}}
	for _, k := range []string{"pr", "pr_sg", "bfs", "cc"} {
		t.ooc[k] = &oocTally{}
	}
	for _, k := range []string{"pr", "bfs", "cc"} {
		t.mem[k] = &memTally{}
	}
	return t
}

// finish sets the per-layer metrics: means per traced run of each
// algorithm (out of core one BFS source per run, in memory the whole
// batch of sources).
func (t tallies) finish(b *bench) {
	const mib = 1 << 20
	ratio := func(a, c int64) float64 {
		if c == 0 {
			return 0
		}
		return float64(a) / float64(c)
	}
	for _, k := range []string{"pr", "bfs", "cc"} {
		o := t.ooc[k]
		if o.samples == 0 {
			continue
		}
		n := float64(o.samples)
		if k != "bfs" {
			b.set("shard.edgemap_dense_s."+k, o.dense.Seconds()/n)
			b.set("shard.vertexmap_s."+k, o.vertexMap.Seconds()/n)
		}
		b.set("shard.edgemap_dense_calls."+k, float64(o.denseCalls)/n)
		if k != "pr" {
			b.set("shard.edgemap_sparse_s."+k, o.sparse.Seconds()/n)
			b.set("shard.edgemap_sparse_calls."+k, float64(o.sparseCalls)/n)
			if o.sparseCalls > 0 {
				b.set("shard.edgemap_sparse_us."+k, 1e6*o.sparse.Seconds()/float64(o.sparseCalls))
			}
			b.set("shard.shards_skipped."+k, float64(o.skipped)/n)
		}
		b.set("shard.loads."+k, float64(o.loads)/n)
		b.set("shard.cache_hit_ratio."+k, ratio(o.hits, o.hits+o.loads))
		b.set("shard.read_mib."+k, float64(o.bytesRead)/mib/n)
		if o.edgeMap > 0 {
			b.set("shard.read_mibps."+k, float64(o.bytesRead)/mib/o.edgeMap.Seconds())
		}
		if k == "pr" {
			b.set("shard.compression_ratio", ratio(o.bytesLogical, o.bytesRead))
		}
		b.set("shard.overlap_ratio."+k, ratio(o.overlapped, o.prefetchLoads))
		b.set("shard.apply_peak."+k, float64(o.applyPeak))
		if o.exact {
			b.set("shard.planner_exact."+k, 1)
		}
		b.set("aio.reads_inflight_peak."+k, float64(o.readPeak))
		b.set("algorithms.self_s."+k, (o.wall-o.edgeMap-o.vertexMap).Seconds()/n)

		m := t.mem[k]
		if m.samples == 0 {
			continue
		}
		n = float64(m.samples)
		b.set("core.edgemap_s."+k, m.edgeMap.Seconds()/n)
		if k != "bfs" {
			b.set("core.vertexmap_s."+k, m.vertexMap.Seconds()/n)
		}
		b.set("core.dense_iters."+k, float64(m.tel.DenseIters)/n)
		b.set("core.medium_iters."+k, float64(m.tel.MediumIters)/n)
		b.set("core.sparse_iters."+k, float64(m.tel.SparseIters)/n)
		b.set("algorithms.inmem_self_s."+k, (m.wall-m.edgeMap-m.vertexMap).Seconds()/n)
	}
	if sg := t.ooc["pr_sg"]; sg.samples > 0 {
		n := float64(sg.samples)
		b.set("shard.bin_written_mib", float64(sg.binWritten)/mib/n)
		b.set("shard.bin_read_mib", float64(sg.binRead)/mib/n)
		b.set("shard.bin_reuse_ratio", ratio(sg.binReused, sg.sgSweeps*int64(shards)))
		b.set("shard.sg_sweeps", float64(sg.sgSweeps)/n)
	}
}
