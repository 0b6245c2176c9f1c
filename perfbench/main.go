// Command perfbench is the repository's benchmark. It runs one named
// workload whose inputs it generates from a seed, checks every result
// it timed against the serial oracles of internal/algorithms, and
// prints as its last line one JSON object: the end-to-end metrics, or
// with --trace 1 the per-layer metrics of a traced run. README.md
// describes the workloads, metrics, sample counts and percentile rules;
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one named traffic mix. Every workload runs the same three
// phases — set-up, batch algorithms, served replay — over its own graph,
// so that every run reports every end-to-end metric; what differs is the
// graph, the share of the measured time each phase gets, and the served
// query mix.
type workload struct {
	name string
	// road selects the RoadGrid lattice; otherwise the PowerLaw graph.
	road bool
	// batchShare is the share of --seconds spent on the batch
	// algorithms; the rest goes to the served replay.
	batchShare float64
	// mix is one cycle of served queries; each client replays seeded
	// permutations of it, so the proportions are exact in every run.
	mix []string
}

// powerMix is 30% BFS (the fastest served class), 40% CC and 30%
// PageRank (the slowest): the median latency then falls in the middle
// of the CC class and p90 inside the PageRank class, never on a class
// boundary where a small shift of the mix would move it.
var powerMix = []string{"bfs", "bfs", "bfs", "cc", "cc", "cc", "cc", "pagerank", "pagerank", "pagerank"}

// roadMix serves 70% PageRank and 30% SpMV: BFS and CC on the lattice
// take seconds out of core (hundreds of rounds), too few for a latency
// percentile. Mixing two dense queries of different length keeps the
// two clients from locking into step, where every PageRank pair would
// share one co-scheduled pass in some runs and none in others.
var roadMix = []string{"pagerank", "pagerank", "pagerank", "pagerank", "pagerank", "pagerank", "pagerank", "spmv", "spmv", "spmv"}

var workloads = map[string]workload{
	"powerlaw-batch": {name: "powerlaw-batch", batchShare: 0.5, mix: powerMix},
	"road-batch":     {name: "road-batch", road: true, batchShare: 0.8, mix: roadMix},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: powerlaw-batch or road-batch")
	seed := fs.Uint64("seed", 1, "seed the graph, BFS sources and update batches derive from")
	secs := fs.Float64("seconds", 45, "length of the measured phases in seconds")
	traced := fs.Int("trace", 0, "1 prints per-layer metrics of a traced run, 0 end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build/work", "directory for the run's shard stores (removed at exit)")
	traceOut := fs.String("trace-out", ".bench_build/trace", "directory the traced run writes its spans to")
	verbose := fs.Bool("v", false, "log every sample to standard error")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad flags: workload %q seconds %v trace %d\n", *name, *secs, *traced)
		return 2
	}
	// run.sh runs from the repository root, beside BENCHMARK.json.
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		w:       w,
		seed:    *seed,
		seconds: *secs,
		traced:  *traced == 1,
		spec:    sp,
		dir:     dir,
		metrics: make(map[string]float64),
		stderr:  stderr,
		verbose: *verbose,
	}
	if b.traced {
		b.rec = newRecorder()
		b.tallies = newTallies()
		b.remainders = map[string]float64{}
	}
	if err := b.run(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if b.traced {
		if err := os.MkdirAll(*traceOut, 0o755); err == nil {
			path := filepath.Join(*traceOut, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
			if err := b.rec.writeFile(path); err != nil {
				fmt.Fprintln(stderr, "perfbench: write spans:", err)
			} else {
				fmt.Fprintln(stderr, "perfbench: spans written to", path)
			}
		}
	}
	out, err := b.result()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if b.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed or answered wrongly\n", b.failed, b.attempted)
		return 1
	}
	return 0
}

// bench is one run's state: its flags, the span recorder (nil when
// untraced), the operation tally and the metrics set so far.
type bench struct {
	w       workload
	seed    uint64
	seconds float64
	traced  bool
	spec    *spec
	dir     string
	stderr  io.Writer
	verbose bool

	rec        *recorder
	tallies    tallies
	remainders map[string]float64
	attempted  int
	failed     int
	metrics    map[string]float64
}

// op tallies one checked operation: a timed sample, a served query, an
// update or a final comparison. err is its execution or correctness
// failure.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.stderr, "perfbench: %s: %v\n", what, err)
	}
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

func (b *bench) logf(format string, args ...any) {
	if b.verbose {
		fmt.Fprintf(b.stderr, format+"\n", args...)
	}
}

// budget is the wall time a phase with the given share of --seconds
// may spend.
func (b *bench) budget(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// unreported are metrics a run measures that BENCHMARK.json leaves out
// on purpose: the traced run times in-memory CC for its layer breakdown,
// but its wall time is not steady enough to be an end-to-end metric.
var unreported = map[string]bool{"inmem_cc_s": true}

// result renders the final line: exactly the metrics BENCHMARK.json
// declares for the run's mode, each with its unit. An end-to-end metric
// must be measured and positive; a per-layer metric a run did not
// exercise reads 0. A metric set under a name the file does not declare
// is an error, so the code and the declaration cannot drift apart.
func (b *bench) result() ([]byte, error) {
	defs := b.spec.EndToEnd
	if b.traced {
		defs = b.spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	var missing, undeclared []string
	for _, d := range defs {
		v, ok := b.metrics[d.Name]
		if !b.traced && (!ok || !(v > 0)) {
			missing = append(missing, d.Name)
		}
		ms[d.Name] = value{v, d.Unit}
	}
	declared := map[string]bool{}
	for _, d := range append(b.spec.EndToEnd, b.spec.PerLayer...) {
		declared[d.Name] = true
	}
	for name := range b.metrics {
		if !declared[name] && !unreported[name] {
			undeclared = append(undeclared, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(undeclared)
	if len(missing) > 0 {
		return nil, fmt.Errorf("end-to-end metrics not measured: %v", missing)
	}
	if len(undeclared) > 0 {
		return nil, fmt.Errorf("metrics BENCHMARK.json does not declare: %v", undeclared)
	}
	if b.attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   ms,
	})
}

// run executes the workload's phases in order: inputs, set-up, batch
// algorithms, served replay, and in a traced run the reconciliation and
// host ceilings.
func (b *bench) run() error {
	in := makeInputs(b.w, b.seed)
	b.logf("graph: %d vertices, %d edges", in.g.NumVertices(), in.g.NumEdges())
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	env, err := b.setup(in)
	if err != nil {
		return err
	}
	b.batch(in, env)
	if err := b.serve(in, env); err != nil {
		return err
	}
	if b.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		b.set("runtime.alloc_mib", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		b.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		b.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
		if err := b.ceilings(env); err != nil {
			return err
		}
		b.reconcile()
	}
	return nil
}
