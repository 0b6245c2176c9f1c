package shard

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
)

// TestResidentLayoutMatchesBucket is the differential gate of the
// shard-load kernel: whatever path readShardDisk takes — the decoded
// arrays used as the resident directly for (dst,src)-sorted shards, or
// the counting sort for v1 bases — the resident must equal, field by
// field, what bucket's stable counting sort makes of the same decoded
// shard. It runs over v1 and v2 stores, fresh and delta-merged, of a
// lattice and a power-law graph, at task geometries that cap tasks at
// the unit count, split units unevenly, and place shards on more
// domains than workers; the stores include short tail ranges and empty
// shards (both an empty destination range and a range whose every
// edge a batch deleted).
func TestResidentLayoutMatchesBucket(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"lattice", gen.RoadGrid(40, 41, 3)},
		{"powerlaw", gen.PowerLaw(1000, 12000, 2.4, 5)},
	}
	configs := []Options{
		{Threads: 1, Topology: sched.Topology{Domains: 1}},
		{Threads: 3, Topology: sched.Topology{Domains: 1}},
		{Threads: 4, Topology: sched.Topology{Domains: 2}},
		{Threads: 16, Topology: sched.Topology{Domains: 1}},
		{Threads: 2, Topology: sched.Topology{Domains: 6}},
	}
	var sawCapped, sawUneven, sawTail, sawEmptyRange, sawEmptyMerged, sawSorted, sawCSR bool
	for _, gc := range graphs {
		for _, format := range []Format{FormatV1, FormatV2} {
			for _, mutated := range []bool{false, true} {
				// 5 shards span several 64-vertex units each; 16 leave
				// some ranges empty.
				for _, p := range []int{5, 16} {
					st, err := Create(t.TempDir(), gc.g, WriteOptions{Partitions: p, Format: format})
					if err != nil {
						t.Fatal(err)
					}
					g := gc.g
					if mutated {
						g = mutateForLayout(t, st, gc.g)
					}
					name := fmt.Sprintf("%s/%v/p=%d", gc.name, format, p)
					if mutated {
						name += "+deltas"
					}
					for _, opts := range configs {
						e, err := NewEngine(st, g, opts)
						if err != nil {
							t.Fatal(err)
						}
						for si := 0; si < st.NumShards(); si++ {
							lo, hi := st.Range(si)
							_, units, tasks := e.taskUnits(si)
							sawCapped = sawCapped || (units > 0 && tasks == units)
							sawUneven = sawUneven || (tasks > 1 && units%tasks != 0)
							sawTail = sawTail || (hi > lo && int(hi-lo)%64 != 0)
							sawEmptyRange = sawEmptyRange || hi == lo
							sawEmptyMerged = sawEmptyMerged || (mutated && hi > lo && st.m.EdgeCounts[si] == 0)
							if st.dstSrcSorted(si) {
								sawSorted = true
							} else {
								sawCSR = true
							}

							res, err := e.readShardDisk(si)
							if err != nil {
								t.Fatal(err)
							}
							coo, _, err := st.loadShard(si)
							if err != nil {
								t.Fatal(err)
							}
							want := e.bucket(si, coo)
							checkSameResident(t, name, opts, "readShardDisk", res.sh, want)
							if st.dstSrcSorted(si) {
								checkSameResident(t, name, opts, "residentSorted", e.residentSorted(si, coo), want)
							}
						}
					}
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		saw  bool
	}{
		{"tasks capped at the unit count", sawCapped},
		{"units split unevenly over tasks", sawUneven},
		{"a short tail range", sawTail},
		{"an empty destination range", sawEmptyRange},
		{"a shard emptied by deletes", sawEmptyMerged},
		{"a (dst,src)-sorted shard", sawSorted},
		{"a CSR-ordered v1 shard", sawCSR},
	} {
		if !c.saw {
			t.Errorf("fixture never exercised %s", c.name)
		}
	}
}

// mutateForLayout applies one batch to st — random inserts and
// deletes spread over the store, plus tombstones for every edge of
// its first non-empty shard — and returns the graph of the merged
// edge set (the engine's per-vertex metadata must match the store).
func mutateForLayout(t *testing.T, st *Store, g *graph.Graph) *graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	n := g.NumVertices()
	live := multisetOf(g)
	var ins, del []graph.Edge
	for i := 0; i < 200; i++ {
		ins = append(ins, graph.Edge{Src: graph.VID(r.Intn(n)), Dst: graph.VID(r.Intn(n))})
	}
	edges := g.Edges()
	for i := 0; i < 100; i++ {
		del = append(del, edges[r.Intn(len(edges))])
	}
	wipe := -1
	for si := 0; si < st.NumShards() && wipe < 0; si++ {
		if st.m.EdgeCounts[si] > 0 {
			wipe = si
		}
	}
	lo, hi := st.Range(wipe)
	for _, e := range edges {
		if e.Dst >= lo && e.Dst < hi {
			del = append(del, e)
		}
	}
	// Inserts landing in the wiped shard would survive the tombstones
	// only if unrelated to them; drop them so the shard ends up empty.
	kept := ins[:0]
	for _, e := range ins {
		if e.Dst < lo || e.Dst >= hi {
			kept = append(kept, e)
		}
	}
	ins = kept
	if _, err := st.ApplyBatch(ins, del); err != nil {
		t.Fatal(err)
	}
	live.apply(ins, del)
	return graph.FromEdges(n, live.edges())
}

func checkSameResident(t *testing.T, store string, opts Options, path string, got, want *resident) {
	t.Helper()
	if got.idx != want.idx ||
		!slices.Equal(got.off, want.off) ||
		!slices.Equal(got.src, want.src) ||
		!slices.Equal(got.dst, want.dst) {
		t.Fatalf("%s threads=%d domains=%d shard %d: %s resident differs from bucket:\n off %v\nwant %v\n(%d vs %d edges)",
			store, opts.Threads, opts.Topology.Domains, want.idx, path, got.off, want.off, len(got.src), len(want.src))
	}
}

// TestTruncatedShardFilesRejected cuts a valid v2 base file and a
// valid GGD2 delta file at every byte offset and requires each prefix
// to be rejected with an error — in the header, a varint, or the
// minimum-size bound — never decoded. The manifest expectation stays
// the full file's, as it would in a store whose file was torn.
func TestTruncatedShardFilesRejected(t *testing.T) {
	dir := t.TempDir()
	// A power-law graph, so the shard's varints span one to three bytes
	// and truncation lands inside multi-byte encodings too.
	g := gen.PowerLaw(20000, 4000, 2.4, 3)
	st, err := Create(dir, g, WriteOptions{Partitions: 4, Format: FormatV2})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := st.Range(1)
	ins := []graph.Edge{{Src: 19999, Dst: lo}, {Src: 7, Dst: lo}, {Src: 3, Dst: hi - 1}}
	del := []graph.Edge{{Src: 12345, Dst: lo + 1}}
	if _, err := st.ApplyBatch(ins, del); err != nil {
		t.Fatal(err)
	}
	ref := st.deltas(1)[0]
	n := st.NumVertices()
	cases := []struct {
		name   string
		file   string
		decode func(path string) error
	}{
		{"v2 base", st.basePath(1), func(path string) error {
			_, _, err := readShardFile(path, FormatV2, n, lo, hi, st.baseEdgeCount(1))
			return err
		}},
		{"delta", filepath.Join(dir, ref.File), func(path string) error {
			_, _, _, err := readDeltaFile(path, n, lo, hi, ref)
			return err
		}},
	}
	for _, c := range cases {
		data, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.decode(c.file); err != nil {
			t.Fatalf("%s: intact file rejected: %v", c.name, err)
		}
		cut := filepath.Join(t.TempDir(), "cut.bin")
		for size := 0; size < len(data); size++ {
			if err := os.WriteFile(cut, data[:size], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := c.decode(cut); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded without error", c.name, size, len(data))
			}
		}
	}
}
