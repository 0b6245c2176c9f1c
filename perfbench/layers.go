package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/shard"
)

// updateReps is how many update → rehost sequences the traced run
// times on a scratch copy of the store.
const updateReps = 5

// updateParts times, each time on a fresh scratch copy of the served
// store at its final generation, the public calls the daemon makes to
// apply an update and rehost: shard.Open, Store.ApplyBatch, shard.Open
// again, Store.Sweep into an edge list, graph.FromEdges and
// shard.NewHost. The batches are the next ones of the seeded stream.
// The medians of the parts are reconciled against
// serve.update_visible_p50_ms; Store.Compact is timed once afterwards.
func (b *bench) updateParts(e *env, in *inputs, used int) error {
	scratch := filepath.Join(b.dir, "scratch")
	defer os.RemoveAll(scratch)
	cache := shard.NewSharedCache(0)
	parts := map[string][]float64{}
	for i := 0; i < updateReps; i++ {
		batch := in.batches[(used+i)%len(in.batches)]
		if err := os.RemoveAll(scratch); err != nil {
			return err
		}
		if err := copyDir(e.dir, scratch); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		st, err := shard.Open(scratch)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := st.ApplyBatch(batch.ins, batch.del); err != nil {
			return err
		}
		t2 := time.Now()
		st, err = shard.Open(scratch)
		if err != nil {
			return err
		}
		t3 := time.Now()
		edges := make([]graph.Edge, 0, st.NumEdges())
		if err := st.Sweep(func(u, v graph.VID) { edges = append(edges, graph.Edge{Src: u, Dst: v}) }); err != nil {
			return err
		}
		t4 := time.Now()
		g := graph.FromEdges(st.NumVertices(), edges)
		t5 := time.Now()
		host, err := shard.NewHost(st, g, cache, shard.Options{})
		if err != nil {
			return err
		}
		t6 := time.Now()
		host.Evict()
		for _, p := range []struct {
			name   string
			t0, t1 time.Time
		}{{"shard.Open", t0, t1}, {"Store.ApplyBatch", t1, t2}, {"shard.Open", t2, t3},
			{"Store.Sweep", t3, t4}, {"graph.FromEdges", t4, t5}, {"shard.NewHost", t5, t6}} {
			b.rec.record(p.name, "", p.t0, p.t1)
		}
		parts["open"] = append(parts["open"], durMS(t1.Sub(t0)+t3.Sub(t2)))
		parts["apply"] = append(parts["apply"], durMS(t2.Sub(t1)))
		parts["sweep"] = append(parts["sweep"], durMS(t4.Sub(t3)))
		parts["from_edges"] = append(parts["from_edges"], durMS(t5.Sub(t4)))
		parts["new_host"] = append(parts["new_host"], durMS(t6.Sub(t5)))
	}
	st, err := shard.Open(scratch)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := st.Compact(); err != nil {
		return err
	}
	b.set("shard.compact_ms", durMS(time.Since(t0)))

	b.set("shard.open_ms", median(parts["open"]))
	b.set("shard.apply_batch_ms", median(parts["apply"]))
	b.set("shard.sweep_ms", median(parts["sweep"]))
	b.set("graph.from_edges_ms", median(parts["from_edges"]))
	b.set("shard.new_host_ms", median(parts["new_host"]))
	sum := median(parts["open"]) + median(parts["apply"]) + median(parts["sweep"]) +
		median(parts["from_edges"]) + median(parts["new_host"])
	b.remainders["update"] = remainder(b.metrics["serve.update_visible_p50_ms"], sum)
	return nil
}

// ceilings measures what this host can do, in the same process: a
// sequential read of the store's files, a memmove well past the
// last-level cache, and Store.LoadShard per shard (read + decode).
func (b *bench) ceilings(e *env) error {
	const mib = 1 << 20
	files, err := os.ReadDir(e.dir)
	if err != nil {
		return err
	}
	buf := make([]byte, mib)
	var reads []float64
	for rep := 0; rep < 3; rep++ {
		var n int64
		t0 := time.Now()
		for _, f := range files {
			if !f.Type().IsRegular() {
				continue
			}
			fh, err := os.Open(filepath.Join(e.dir, f.Name()))
			if err != nil {
				return err
			}
			// Hiding the file's WriteTo makes the copy use buf.
			k, err := io.CopyBuffer(io.Discard, struct{ io.Reader }{fh}, buf)
			fh.Close()
			if err != nil {
				return err
			}
			n += k
		}
		reads = append(reads, float64(n)/mib/time.Since(t0).Seconds())
	}
	b.set("ceiling.seq_read_mibps", median(reads))

	const size = 64 * mib
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	var moves []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for k := 0; k < 4; k++ {
			copy(dst, src)
		}
		moves = append(moves, 4*size/float64(1<<30)/time.Since(t0).Seconds())
	}
	b.set("ceiling.memmove_gibps", median(moves))

	st, err := shard.Open(e.dir)
	if err != nil {
		return err
	}
	var loads []float64
	for i := 0; i < st.NumShards(); i++ {
		t0 := time.Now()
		if _, err := st.LoadShard(i); err != nil {
			return err
		}
		loads = append(loads, durMS(time.Since(t0)))
	}
	b.set("shard.load_shard_ms", mean(loads))
	return nil
}

// reconcile reports how much of each whole its timed parts leave
// unaccounted: set-up against its four construction calls, update
// visibility against the rehost calls. (An algorithm's EdgeMap,
// VertexMap and algorithms.self_s sum to its wall time by definition.)
func (b *bench) reconcile() {
	var worst float64
	for _, k := range []string{"setup", "update"} {
		r := b.remainders[k]
		b.set("trace.unattributed_frac."+k, r)
		worst = math.Max(worst, math.Abs(r))
	}
	b.set("trace.unattributed_frac", worst)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	files, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, f := range files {
		if !f.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
