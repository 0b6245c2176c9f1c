package shard

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
)

// BenchmarkShardLoad times the shard-load kernel on its own:
// readShardDisk, i.e. one shard file read and decoded into the
// resident layout the applies consume (no LRU, no pipeline). Stores
// are 24-shard, like the repository benchmark's: a 256×256 road
// lattice (≈10k bounded-degree edges per shard) and a power-law graph
// of average degree 16 (≈44k skewed edges per shard), in both on-disk
// formats. One op is one shard load, cycling through the store; the
// files sit in the page cache after the first pass, so ns/edge is the
// decode + layout cost, not the disk.
//
//	go test -run '^$' -bench BenchmarkShardLoad -benchmem ./internal/shard
func BenchmarkShardLoad(b *testing.B) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"road", gen.RoadGrid(256, 256, 1)},
		{"powerlaw", gen.PowerLaw(1<<16, 1<<20, 2.4, 1)},
	}
	for _, f := range []Format{FormatV2, FormatV1} {
		for _, gc := range graphs {
			st, err := Create(b.TempDir(), gc.g, WriteOptions{Partitions: 24, Format: f})
			if err != nil {
				b.Fatal(err)
			}
			e, err := NewEngine(st, gc.g, Options{Threads: 4, Topology: sched.Topology{Domains: 2}})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%v/%s", f, gc.name), func(b *testing.B) {
				b.ReportAllocs()
				var edges int64
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					si := i % st.NumShards()
					res, err := e.readShardDisk(si)
					if err != nil {
						b.Fatal(err)
					}
					edges += int64(len(res.sh.src))
				}
				if edges > 0 {
					b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(edges), "ns/edge")
				}
			})
		}
	}
}
