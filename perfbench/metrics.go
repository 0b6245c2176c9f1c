package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the result line is built from: the
// names and units of the end-to-end metrics (a user of the system sees
// them) and of the traced run's per-layer metrics. The file is the only
// list of metrics; a run reports exactly the metrics of its mode.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end or no per_layer metrics", path)
	}
	return &s, nil
}

// job is one end-to-end metric of the batch phase. sample runs one
// sample from its stated starting state, checks the result against the
// oracle, and returns the metric's value for that sample.
type job struct {
	metric string
	// weight is the job's share of the phase's time budget.
	weight float64
	sample func(traced bool) (float64, error)
}

// Every job takes at least minSamples samples, or fewSamples when
// minSamples would overrun twice its share of the budget (the
// multi-second searches on the lattice), and at most maxSamples.
const (
	minSamples = 5
	fewSamples = 3
	maxSamples = 41
)

// sampleJobs runs one sample of every job to price it, sizes each job's
// sample count from its weight of budget, then takes the remaining
// samples round-robin so a disturbance of the host lands on one sample
// of many jobs rather than on every sample of one. Each metric is the
// median of its samples. A traced run alternates untraced and traced
// samples: the metric stays the untraced median, the traced samples
// feed the per-layer tallies, and the gap between the two medians is
// trace.overhead_frac.
func (b *bench) sampleJobs(jobs []job, budget time.Duration) {
	plain := make([][]float64, len(jobs))
	traced := make([][]float64, len(jobs))
	do := func(j, round int) {
		tr := b.traced && round%2 == 1
		v, err := jobs[j].sample(tr)
		b.op(jobs[j].metric, err)
		if tr {
			traced[j] = append(traced[j], v)
		} else {
			plain[j] = append(plain[j], v)
		}
		b.logf("%s sample %d (traced %v): %.6f", jobs[j].metric, round, tr, v)
	}
	n := make([]int, len(jobs))
	rounds := 0
	for j := range jobs {
		t0 := time.Now()
		do(j, 0)
		cost := time.Since(t0)
		share := jobs[j].weight * float64(budget)
		lo := minSamples
		if minSamples*float64(cost) > 2*share {
			lo = fewSamples
		}
		n[j] = max(lo, min(maxSamples, int(share/float64(cost))))
		rounds = max(rounds, n[j])
	}
	for r := 1; r < rounds; r++ {
		for j := range jobs {
			if r < n[j] {
				do(j, r)
			}
		}
	}
	var overhead []float64
	for j := range jobs {
		b.set(jobs[j].metric, median(plain[j]))
		if len(traced[j]) > 0 {
			overhead = append(overhead, median(traced[j])/median(plain[j])-1)
		}
	}
	if b.traced {
		b.set("trace.overhead_frac", mean(overhead))
		b.tallies.finish(b)
	}
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile: the smallest sample with
// at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	k := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(0, min(len(s)-1, k-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// remainder is the share of whole its parts do not account for.
func remainder(whole, parts float64) float64 {
	if whole <= 0 {
		return 0
	}
	return (whole - parts) / whole
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
