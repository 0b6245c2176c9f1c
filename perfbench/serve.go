package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/shard"
)

// Replay shape. The replay runs for its share of --seconds and then
// until it has minQueries queries (so p90 has ≥ 10 samples beyond it)
// and minUpdates updates, but never past maxStretch times its share.
const (
	clients      = 2
	updateEvery  = 3 // client 0 posts an update batch after every 3rd query
	compactEvery = 4 // and compacts after every 4th batch
	minQueries   = 100
	minUpdates   = 9
	maxStretch   = 3
)

// httpc is a JSON client for the daemon's /v1 API.
type httpc struct {
	c    *http.Client
	base string
}

func (h *httpc) do(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d (want %d): %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

type wireEdge struct {
	Src uint32 `json:"src"`
	Dst uint32 `json:"dst"`
}

func wire(es []graph.Edge) []wireEdge {
	out := make([]wireEdge, len(es))
	for i, e := range es {
		out[i] = wireEdge{uint32(e.Src), uint32(e.Dst)}
	}
	return out
}

// queryRec is one served query as its client saw it.
type queryRec struct {
	algo    string
	src     graph.VID
	id      string
	digest  string
	loads   int64
	wallMS  float64 // the server's own wall time for the query
	latency time.Duration
	// The daemon captures the store generation while answering the
	// POST, somewhere between tSend and tAck.
	tSend, tAck time.Time
	err         error
}

// mutation is one update or compaction and the content version it left
// the store at (the number of batches applied).
type mutation struct {
	gen          int64
	version      int
	tStart, tEnd time.Time
}

type replay struct {
	b     *bench
	in    *inputs
	h     *httpc
	start time.Time
	share time.Duration

	nQueries atomic.Int64
	nUpdates atomic.Int64

	mu       sync.Mutex
	queries  []queryRec
	muts     []mutation
	visible  []float64 // update POST → 200 → generation seen in /v1/stores, ms
	rtt      []float64 // update POST → 200, ms
	failures []error
}

func (r *replay) fail(err error) {
	r.mu.Lock()
	r.failures = append(r.failures, err)
	r.mu.Unlock()
}

func (r *replay) done() bool {
	el := time.Since(r.start)
	if el >= maxStretch*r.share {
		return true
	}
	return el >= r.share && r.nQueries.Load() >= minQueries && r.nUpdates.Load() >= minUpdates
}

// serve replays the workload's query mix through the daemon behind a
// loopback HTTP listener: two closed-loop clients, client 0 also
// posting the seeded update stream. The replay starts from a stated
// state: the shared cache warmed by one untimed query of each served
// algorithm. Afterwards every served digest is checked against the
// oracles at the generation the query ran on, and the final store
// against the oracles on the mutated edge list.
func (b *bench) serve(in *inputs, e *env) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: e.srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true}
	defer func() {
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
	}()
	h := &httpc{c: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: "http://" + ln.Addr().String()}

	r := &replay{b: b, in: in, h: h, share: b.budget(1 - b.w.batchShare)}
	warmed := map[string]bool{}
	for _, algo := range b.w.mix {
		if !warmed[algo] {
			warmed[algo] = true
			q := r.query(algo, firstSource(in))
			if q.err != nil {
				return fmt.Errorf("warm-up %s query: %w", algo, q.err)
			}
		}
	}
	gen0, err := r.generation()
	if err != nil {
		return err
	}
	var before, after struct {
		Cache shard.SharedCacheStats `json:"cache"`
	}
	if err := h.do("GET", "/v1/stats", nil, http.StatusOK, &before); err != nil {
		return err
	}
	runtime.GC()

	r.start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.client(c)
		}(c)
	}
	wg.Wait()
	wall := time.Since(r.start)
	if err := h.do("GET", "/v1/stats", nil, http.StatusOK, &after); err != nil {
		return err
	}

	for _, err := range r.failures {
		b.op("served request", err)
	}
	var lat, server, overhead []float64
	var loads int64
	for _, q := range r.queries {
		if q.err != nil {
			b.op("served "+q.algo+" query", q.err)
			continue
		}
		lat = append(lat, durMS(q.latency))
		server = append(server, q.wallMS)
		overhead = append(overhead, durMS(q.latency)-q.wallMS)
		loads += q.loads
	}
	b.logf("replay: %d queries, %d updates in %.2fs", len(r.queries), len(r.visible), wall.Seconds())
	if b.verbose {
		byAlgo := map[string][]float64{}
		for _, q := range r.queries {
			byAlgo[q.algo] = append(byAlgo[q.algo], durMS(q.latency))
		}
		for a, xs := range byAlgo {
			b.logf("replay %s: n=%d p10=%.1f p50=%.1f p90=%.1f ms", a, len(xs), percentile(xs, 10), median(xs), percentile(xs, 90))
		}
		b.logf("replay updates: %v", r.visible)
	}
	if len(lat) > 0 {
		b.set("qps", float64(len(lat))/wall.Seconds())
		b.set("query_p50_ms", median(lat))
	}
	if len(lat) >= minQueries {
		b.set("query_p90_ms", percentile(lat, 90))
	}
	if len(r.visible) > 0 {
		b.set("serve.update_visible_p50_ms", median(r.visible))
	}
	if b.traced {
		const mib = 1 << 20
		hits, ld := after.Cache.Hits-before.Cache.Hits, after.Cache.Loads-before.Cache.Loads
		if hits+ld > 0 {
			b.set("sharedcache.hit_ratio", float64(hits)/float64(hits+ld))
		}
		b.set("sharedcache.loads", float64(ld))
		b.set("sharedcache.shared", float64(after.Cache.Shared-before.Cache.Shared))
		b.set("sharedcache.evictions", float64(after.Cache.Evictions-before.Cache.Evictions))
		b.set("sharedcache.peak_mib", float64(after.Cache.PeakBytes)/mib)
		if len(lat) > 0 {
			b.set("serve.query_loads", float64(loads)/float64(len(lat)))
			b.set("serve.server_wall_ms", median(server))
			b.set("serve.http_overhead_ms", median(overhead))
		}
		if len(r.rtt) > 0 {
			b.set("serve.update_rtt_ms", median(r.rtt))
		}
	}
	t0 := time.Now()
	err = r.verify(e, gen0)
	b.logf("verify: %.2fs", time.Since(t0).Seconds())
	return err
}

func firstSource(in *inputs) graph.VID {
	if len(in.serveSources) > 0 {
		return in.serveSources[0]
	}
	return in.oocSources[0]
}

// client is one closed-loop client: it replays seeded permutations of
// the mix, waiting for each answer before sending the next query.
// Client 0 also owns the update stream.
func (r *replay) client(c int) {
	rng := rngFor(r.in.seed, uint64(10+c))
	mix := r.b.w.mix
	var cycle []string
	next, sent := 0, 0
	for !r.done() {
		if len(cycle) == 0 {
			cycle = append([]string(nil), mix...)
			rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		}
		algo := cycle[0]
		cycle = cycle[1:]
		var src graph.VID
		if algo == "bfs" {
			src = r.in.serveSources[rng.IntN(len(r.in.serveSources))]
		}
		q := r.query(algo, src)
		r.mu.Lock()
		r.queries = append(r.queries, q)
		r.mu.Unlock()
		r.nQueries.Add(1)
		sent++
		if c == 0 && sent%updateEvery == 0 && next < len(r.in.batches) {
			r.update(next)
			next++
			if next%compactEvery == 0 {
				r.compact(next)
			}
		}
	}
}

// query submits one query and waits for its answer: the latency runs
// from the submit to ?wait=1 returning.
func (r *replay) query(algo string, src graph.VID) queryRec {
	q := queryRec{algo: algo, src: src, tSend: time.Now()}
	spec := map[string]any{"store": storeName, "algo": algo}
	if algo == "bfs" {
		spec["src"] = src
	}
	var sub struct {
		ID string `json:"id"`
	}
	q.err = r.h.do("POST", "/v1/queries", spec, http.StatusAccepted, &sub)
	q.tAck = time.Now()
	if q.err == nil {
		var info struct {
			Status string  `json:"status"`
			Error  string  `json:"error"`
			Digest string  `json:"digest"`
			Loads  int64   `json:"loads"`
			WallMS float64 `json:"wall_ms"`
		}
		q.err = r.h.do("GET", "/v1/queries/"+sub.ID+"?wait=1", nil, http.StatusOK, &info)
		if q.err == nil && info.Status != "done" {
			q.err = fmt.Errorf("query %s ended %q: %s", sub.ID, info.Status, info.Error)
		}
		q.id, q.digest, q.loads, q.wallMS = sub.ID, info.Digest, info.Loads, info.WallMS
	}
	q.latency = time.Since(q.tSend)
	if r.b.rec != nil {
		r.b.rec.record("serve.query."+algo, q.id, q.tSend, q.tSend.Add(q.latency))
	}
	return q
}

func (r *replay) generation() (int64, error) {
	var stores []struct {
		Name       string `json:"name"`
		Generation int64  `json:"generation"`
	}
	if err := r.h.do("GET", "/v1/stores", nil, http.StatusOK, &stores); err != nil {
		return 0, err
	}
	for _, s := range stores {
		if s.Name == storeName {
			return s.Generation, nil
		}
	}
	return 0, fmt.Errorf("store %q not listed", storeName)
}

// update posts batch i and waits until /v1/stores lists the generation
// the POST returned: the update is then visible to every new query.
func (r *replay) update(i int) {
	b := r.in.batches[i]
	t0 := time.Now()
	var res struct {
		Generation int64 `json:"generation"`
	}
	body := map[string]any{"insert": wire(b.ins), "delete": wire(b.del)}
	err := r.h.do("POST", "/v1/stores/"+storeName+"/updates", body, http.StatusOK, &res)
	t1 := time.Now()
	if err == nil {
		var gen int64
		gen, err = r.generation()
		if err == nil && gen != res.Generation {
			err = fmt.Errorf("update returned generation %d but /v1/stores lists %d", res.Generation, gen)
		}
	}
	t2 := time.Now()
	if r.b.rec != nil {
		r.b.rec.record("serve.update", "", t0, t2)
	}
	if err != nil {
		r.fail(fmt.Errorf("update batch %d: %w", i, err))
		return
	}
	r.mu.Lock()
	r.muts = append(r.muts, mutation{gen: res.Generation, version: i + 1, tStart: t0, tEnd: t2})
	r.visible = append(r.visible, durMS(t2.Sub(t0)))
	r.rtt = append(r.rtt, durMS(t1.Sub(t0)))
	r.mu.Unlock()
	r.nUpdates.Add(1)
}

// compact folds the pending deltas; version is the content version the
// store holds (compaction changes the generation, not the content).
func (r *replay) compact(version int) {
	t0 := time.Now()
	var res struct {
		Generation int64 `json:"generation"`
	}
	err := r.h.do("POST", "/v1/stores/"+storeName+"/compact", nil, http.StatusOK, &res)
	t1 := time.Now()
	if err != nil {
		r.fail(fmt.Errorf("compact: %w", err))
		return
	}
	r.mu.Lock()
	r.muts = append(r.muts, mutation{gen: res.Generation, version: version, tStart: t0, tEnd: t1})
	r.mu.Unlock()
}

// candidates returns the content versions a query may have run on: the
// one current when it was sent, plus any a mutation in flight during
// its POST may have switched to.
func (r *replay) candidates(q queryRec) []int {
	out := []int{0}
	for _, m := range r.muts {
		switch {
		case !m.tEnd.After(q.tSend):
			out[0] = m.version
		case m.tStart.Before(q.tAck):
			out = append(out, m.version)
		}
	}
	return out
}

// verify checks every served digest and the final store. A digest must
// equal the digest of the oracle answer at one of the query's candidate
// versions: SerialCCLabels for CC, SerialPR for PageRank and SerialSPMV
// for SpMV (the engine sums each destination's in-edges in ascending
// source order, as the oracles do, so the bits agree), and for BFS the parent array
// the out-of-core engine defines — each vertex's smallest in-neighbour
// one level closer to the source, levels from SerialBFSDepths.
func (r *replay) verify(e *env, gen0 int64) error {
	b, in := r.b, r.in
	type key struct {
		algo string
		src  graph.VID
	}
	maxVersion := 0
	for _, m := range r.muts {
		maxVersion = max(maxVersion, m.version)
	}
	needed := make([]map[key]string, maxVersion+1)
	cands := make([][]int, len(r.queries))
	for i, q := range r.queries {
		if q.err != nil {
			continue
		}
		cands[i] = r.candidates(q)
		for _, v := range cands[i] {
			if needed[v] == nil {
				needed[v] = map[key]string{}
			}
			needed[v][key{q.algo, q.src}] = ""
		}
	}
	// Versions are rebuilt in order; each one's oracles run on a worker
	// while the next is rebuilt, at most GOMAXPROCS at a time.
	n := in.g.NumVertices()
	cur := in.g.Edges()
	var final *graph.Graph
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for v := 0; v <= maxVersion; v++ {
		if needed[v] != nil || v == maxVersion {
			g := graph.FromEdges(n, cur)
			if v == maxVersion {
				final = g
			}
			slots <- struct{}{}
			wg.Add(1)
			go func(g *graph.Graph, digests map[key]string) {
				defer wg.Done()
				for k := range digests {
					switch k.algo {
					case "pagerank":
						digests[k] = digestF64(algorithms.SerialPR(g, prIters))
					case "spmv":
						digests[k] = digestF64(algorithms.SerialSPMV(g))
					case "cc":
						digests[k] = digestI32(algorithms.SerialCCLabels(g))
					case "bfs":
						digests[k] = digestI32(minParents(g, algorithms.SerialBFSDepths(g, k.src), k.src))
					}
				}
				<-slots
			}(g, needed[v])
		}
		if v < maxVersion {
			cur = in.batches[v].apply(cur)
		}
	}
	wg.Wait()
	for i, q := range r.queries {
		if q.err != nil {
			continue
		}
		var err error = fmt.Errorf("served %s query %s (src %d) digest %s matches no oracle answer at versions %v", q.algo, q.id, q.src, q.digest, cands[i])
		for _, v := range cands[i] {
			if needed[v][key{q.algo, q.src}] == q.digest {
				err = nil
				break
			}
		}
		b.op("served "+q.algo+" digest", err)
	}

	// The final store, through a solo session, against the oracles on
	// the mutated edge list.
	gen, err := r.generation()
	if err != nil {
		return err
	}
	b.logf("replay: generations %d..%d, content version %d", gen0, gen, maxVersion)
	sys, err := e.srv.Session(storeName)
	if err != nil {
		return err
	}
	b.op("final pagerank", checkPR(algorithms.PR(sys, prIters).Ranks, algorithms.SerialPR(final, prIters)))
	b.op("final cc", checkCC(algorithms.CC(sys).Labels, algorithms.SerialCCLabels(final)))
	src := firstSource(in)
	b.op("final bfs", checkBFS(final, algorithms.BFS(sys, src).Parents, src, algorithms.SerialBFSDepths(final, src)))
	if b.traced {
		return b.updateParts(e, in, maxVersion)
	}
	return nil
}

// minParents is the BFS parent array of an engine that applies edges in
// (destination, source) order: every reached vertex's parent is its
// smallest in-neighbour one level closer to the source.
func minParents(g *graph.Graph, depth []int32, src graph.VID) []int32 {
	p := make([]int32, len(depth))
	for v, d := range depth {
		p[v] = -1
		if d <= 0 {
			continue
		}
		for _, u := range g.InNeighbors(graph.VID(v)) {
			if depth[u] == d-1 {
				p[v] = int32(u)
				break
			}
		}
	}
	p[src] = int32(src)
	return p
}

// digestF64 and digestI32 are the daemon's result digests: FNV-1a over
// the little-endian bits of every value.
func digestF64(xs []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func digestI32(xs []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
