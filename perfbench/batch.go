package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/algorithms"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/shard"
)

// storeName is the name the served replay opens the store under.
const storeName = "g"

// A run builds everything from the generated graph at least
// minSetupReps times and until setupSeconds have passed, at most
// maxSetupReps times; setup_s is the median. Set-up on the lattice takes
// a tenth of a second, mostly fsync, so it needs the extra repetitions.
const (
	minSetupReps = 7
	maxSetupReps = 25
	setupSeconds = 3
)

// prTolerance bounds |rank − SerialPR rank| relative to the largest
// oracle rank. Engines may sum in a different order than the serial
// oracle; anything beyond rounding is a wrong answer.
const prTolerance = 1e-9

// env is what set-up leaves ready to query: the store, the daemon with
// the store open, and the serial oracles of the generated graph.
type env struct {
	dir string
	st  *shard.Store
	srv *serve.Server

	pr    []float64
	cc    []int32
	depth map[graph.VID][]int32
}

// setup builds the store, the private out-of-core engine, the in-memory
// engine and the daemon repeatedly, each time from the generated graph
// into a fresh directory, and keeps the last. Generation is excluded;
// the GC and heap reads around OpenStore are outside the timed region.
func (b *bench) setup(in *inputs) (*env, error) {
	var walls, heaps []float64
	parts := map[string][]float64{}
	part := func(name string, d time.Duration) { parts[name] = append(parts[name], d.Seconds()) }
	var e *env
	reps, start := minSetupReps, time.Now()
	for i := 0; i < reps; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("store-%d", i))
		runtime.GC()
		span := b.rec.begin("setup", 0)
		t0 := time.Now()
		sp := b.rec.begin("shard.Create", span)
		st, err := shard.Create(dir, in.g, shard.WriteOptions{Partitions: shards})
		b.rec.end(sp)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		sp = b.rec.begin("shard.NewEngine", span)
		if _, err := shard.NewEngine(st, in.g, shard.Options{}); err != nil {
			return nil, err
		}
		b.rec.end(sp)
		t2 := time.Now()
		sp = b.rec.begin("core.NewEngine", span)
		core.NewEngine(in.g, core.Options{})
		b.rec.end(sp)
		t3 := time.Now()

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t4 := time.Now()
		srv := serve.New(serve.Config{})
		sp = b.rec.begin("serve.OpenStore", span)
		err = srv.OpenStore(storeName, dir)
		b.rec.end(sp)
		t5 := time.Now()
		b.rec.end(span)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)

		walls = append(walls, (t3.Sub(t0) + t5.Sub(t4)).Seconds())
		heaps = append(heaps, float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc))/(1<<20))
		part("shard.create", t1.Sub(t0))
		part("shard.new_engine", t2.Sub(t1))
		part("core.new_engine", t3.Sub(t2))
		part("serve.open_store", t5.Sub(t4))
		b.logf("setup %d: %.3fs (create %.3f, engine %.3f, core %.3f, open %.3f), open heap %.2f MiB",
			i, walls[i], t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), t5.Sub(t4).Seconds(), heaps[i])
		b.op("setup", nil)
		if i == reps-1 && i < maxSetupReps-1 && time.Since(start) < setupSeconds*time.Second {
			reps++
		}
		if i < reps-1 {
			if err := srv.CloseStore(storeName); err != nil {
				return nil, err
			}
			continue
		}
		e = &env{dir: dir, st: st, srv: srv}
	}
	b.set("setup_s", median(walls))
	if b.traced {
		b.set("serve.open_heap_mib", median(heaps))
	}
	if b.traced {
		b.set("shard.create_s", median(parts["shard.create"]))
		b.set("shard.new_engine_ms", 1e3*median(parts["shard.new_engine"]))
		b.set("core.new_engine_s", median(parts["core.new_engine"]))
		b.set("serve.open_store_ms", 1e3*median(parts["serve.open_store"]))
		var byDst []float64
		for range walls {
			t0 := time.Now()
			partition.ByDestination(in.g, shards, partition.BalanceEdges)
			byDst = append(byDst, time.Since(t0).Seconds())
		}
		b.set("partition.by_destination_ms", 1e3*median(byDst))
		sum := median(parts["shard.create"]) + median(parts["shard.new_engine"]) +
			median(parts["core.new_engine"]) + median(parts["serve.open_store"])
		b.remainders["setup"] = remainder(median(walls), sum)
	}

	// The oracles are computed once, outside every timed region.
	e.pr = algorithms.SerialPR(in.g, prIters)
	e.cc = algorithms.SerialCCLabels(in.g)
	e.depth = map[graph.VID][]int32{}
	for _, srcs := range [][]graph.VID{in.oocSources, in.memSources, in.serveSources} {
		for _, s := range srcs {
			if e.depth[s] == nil {
				e.depth[s] = algorithms.SerialBFSDepths(in.g, s)
			}
		}
	}
	return e, nil
}

// batch times PageRank, BFS and CC out of core and in memory. Every
// sample starts from a stated state, a fresh engine built before the
// clock starts: out of core a private engine with an empty LRU and no
// scatter/gather bins, in memory a GG-v2 engine (whose only lazily built
// state serves layouts the adaptive engine does not use). runtime.GC()
// runs before each sample, outside it.
func (b *bench) batch(in *inputs, e *env) {
	g := in.g
	var checkErr error
	// An algorithm runs inside the clock and returns the check of its
	// result, which runs after the clock stops.
	type algorithm func(api.System) func() error

	// ooc runs alg on a fresh private engine and returns its wall time;
	// a traced sample also tallies the engine's layers under key.
	ooc := func(opts shard.Options, key string, traced bool, alg algorithm) float64 {
		eng, err := shard.NewEngine(e.st, g, opts)
		if err != nil {
			panic(err) // the same store and options built an engine in set-up
		}
		ts := &tracedSys{System: eng, rec: b.rec, stats: eng.Stats}
		var sys api.System = eng
		if traced {
			sys = ts
		}
		runtime.GC()
		ts.parent = b.rec.begin("ooc."+key, 0)
		t0 := time.Now()
		verify := alg(sys)
		wall := time.Since(t0)
		b.rec.end(ts.parent)
		if err := verify(); err != nil && checkErr == nil {
			checkErr = err
		}
		if traced {
			b.tallies.ooc[key].add(ts, eng.Stats(), wall)
		}
		return wall.Seconds()
	}
	// inmem runs alg on a fresh GG-v2 engine, so the memory layout of
	// the engine's copies varies from sample to sample within a run
	// rather than once per run.
	inmem := func(key string, traced bool, alg algorithm) float64 {
		mem := core.NewEngine(g, core.Options{})
		ts := &tracedSys{System: mem, rec: b.rec}
		var sys api.System = mem
		if traced {
			sys = ts
		}
		runtime.GC()
		ts.parent = b.rec.begin("inmem."+key, 0)
		t0 := time.Now()
		verify := alg(sys)
		wall := time.Since(t0)
		b.rec.end(ts.parent)
		if err := verify(); err != nil && checkErr == nil {
			checkErr = err
		}
		if traced {
			b.tallies.mem[key].add(ts, mem.Telemetry(), wall)
		}
		return wall.Seconds()
	}

	pr := func(sys api.System) func() error {
		r := algorithms.PR(sys, prIters)
		return func() error { return checkPR(r.Ranks, e.pr) }
	}
	cc := func(sys api.System) func() error {
		r := algorithms.CC(sys)
		return func() error { return checkCC(r.Labels, e.cc) }
	}
	// bfs searches from every source of a batch in turn.
	bfs := func(srcs ...graph.VID) algorithm {
		return func(sys api.System) func() error {
			parents := make([][]int32, len(srcs))
			for i, s := range srcs {
				parents[i] = algorithms.BFS(sys, s).Parents
			}
			return func() error {
				for i, s := range srcs {
					if err := checkBFS(g, parents[i], s, e.depth[s]); err != nil {
						return err
					}
				}
				return nil
			}
		}
	}
	// checked turns a sampler into a job's sample function: its value
	// and the first check that failed.
	checked := func(f func(traced bool) float64) func(bool) (float64, error) {
		return func(traced bool) (float64, error) {
			checkErr = nil
			v := f(traced)
			return v, checkErr
		}
	}
	// The in-memory jobs share 28% of the batch time. A traced run also
	// times in-memory CC inside that share, so the weights sum to 1 in
	// both modes and the out-of-core jobs are sized alike in both.
	memPR, memBFS := 0.14, 0.14
	if b.traced {
		memPR, memBFS = 0.10, 0.10
	}
	ec := shard.Options{}
	sg := shard.Options{SweepMode: shard.SweepScatterGather}
	jobs := []job{
		{"ooc_pr_s", 0.16, checked(func(t bool) float64 { return ooc(ec, "pr", t, pr) })},
		{"ooc_pr_sg_s", 0.16, checked(func(t bool) float64 { return ooc(sg, "pr_sg", t, pr) })},
		{"ooc_bfs_s", 0.22, checked(func(t bool) float64 {
			// One fresh engine per source: no search inherits another's
			// residency. The value is the mean per source.
			var sum float64
			for _, s := range in.oocSources {
				sum += ooc(ec, "bfs", t, bfs(s))
			}
			return sum / float64(len(in.oocSources))
		})},
		{"ooc_cc_s", 0.18, checked(func(t bool) float64 { return ooc(ec, "cc", t, cc) })},
		{"inmem_pr_s", memPR, checked(func(t bool) float64 { return inmem("pr", t, pr) })},
		{"inmem_bfs_s", memBFS, checked(func(t bool) float64 {
			return inmem("bfs", t, bfs(in.memSources...)) / float64(len(in.memSources))
		})},
	}
	// In-memory CC is not an end-to-end metric: across seeds GG-v2 takes
	// a medium (partitioned CSC) iteration on some graphs and a sparse
	// one on others, about a quarter apart, so its quartiles straddle two
	// modes. The traced run still breaks it down by layer.
	if b.traced {
		jobs = append(jobs, job{"inmem_cc_s", 0.08, checked(func(t bool) float64 { return inmem("cc", t, cc) })})
	}
	b.sampleJobs(jobs, b.budget(b.w.batchShare))
}

func checkPR(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d ranks, oracle has %d", len(got), len(want))
	}
	var top, worst float64
	for i := range want {
		top = math.Max(top, math.Abs(want[i]))
		worst = math.Max(worst, math.Abs(got[i]-want[i]))
	}
	if !(worst <= prTolerance*top) {
		return fmt.Errorf("pagerank: max |rank - SerialPR| = %g exceeds %g x max rank %g", worst, prTolerance, top)
	}
	return nil
}

func checkCC(got, want []int32) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("cc: vertex %d labelled %d, SerialCCLabels says %d", i, got[i], want[i])
		}
	}
	return nil
}

func checkBFS(g *graph.Graph, parents []int32, src graph.VID, want []int32) error {
	got := algorithms.BFSDepths(g, parents, src)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("bfs from %d: vertex %d at depth %d, SerialBFSDepths says %d", src, i, got[i], want[i])
		}
	}
	return nil
}
