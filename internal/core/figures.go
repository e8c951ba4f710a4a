package core

import (
	"time"

	"repro/internal/client"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file regenerates every figure dataset of the paper. Each
// function returns plottable series; cmd/figures renders them as text
// or CSV. The bench targets in bench_test.go wrap these one-to-one.

// ModKind selects where the Fig. 4 modification lands in the file.
type ModKind int

const (
	// ModAppend adds content at the end of the file.
	ModAppend ModKind = iota
	// ModPrepend adds content at the beginning.
	ModPrepend
	// ModRandom inserts content at a random interior offset.
	ModRandom
)

// String names the modification for reports.
func (m ModKind) String() string {
	switch m {
	case ModAppend:
		return "append"
	case ModPrepend:
		return "prepend"
	default:
		return "random"
	}
}

// VolumePoint is one (file size, uploaded volume) point of Fig. 4 or
// Fig. 5.
type VolumePoint struct {
	FileSize int64
	Upload   int64
}

// Fig4DeltaSeries runs the delta-encoding test (Sect. 4.4) for one
// service: for each file size, synchronize a base file, modify it by
// inserting `added` bytes at the chosen position ("in all cases, the
// modified file replaces its old copy"), and measure the upload volume
// of the second synchronization. Cells stream: the measurement window
// opens at the modification instant — a quiet point 10 s after the
// base upload — so it is registered before any of its traffic exists
// and the base upload's packets are never retained. Sizes fan out
// over workers (0 = one per CPU, 1 = sequential).
func Fig4DeltaSeries(p client.Profile, mod ModKind, sizes []int64, added int64, seed int64, workers int) []VolumePoint {
	return RunN(len(sizes), workers, func(i int) VolumePoint {
		size := sizes[i]
		tb := NewStreamingTestbed(p, seed+int64(i)*101, 0)
		start := tb.Settle()

		t0 := tb.Clock.Now()
		tb.Folder.CreateLazy(t0, "target.bin", workload.Describe(tb.RNG.Fork(1), workload.Binary, size))
		res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
		tb.Clock.AdvanceTo(res.Done.Add(10 * time.Second))

		t1 := tb.Clock.Now()
		tb.StartWindow(t1)
		chunk := workload.Generate(tb.RNG.Fork(2), workload.Binary, added)
		switch mod {
		case ModAppend:
			tb.Folder.Append(t1, "target.bin", chunk)
		case ModPrepend:
			tb.Folder.InsertAt(t1, "target.bin", 0, chunk)
		default:
			off := tb.RNG.Int63n(size)
			tb.Folder.InsertAt(t1, "target.bin", off, chunk)
		}
		res = tb.Client.SyncChanges(tb.Folder, t1.Add(-time.Millisecond))
		tb.Clock.AdvanceTo(res.Done)

		up := tb.AnalyzeWindow(t1, tb.StorageFilter(t1)).WireUp
		return VolumePoint{FileSize: size, Upload: up}
	})
}

// Fig5CompressionSeries runs the compression test (Sect. 4.5) for one
// service and file kind: upload files of increasing size and measure
// the transmitted volume. Sizes fan out over workers (0 = one per
// CPU, 1 = sequential).
func Fig5CompressionSeries(p client.Profile, kind workload.Kind, sizes []int64, seed int64, workers int) []VolumePoint {
	return RunN(len(sizes), workers, func(i int) VolumePoint {
		size := sizes[i]
		tb := NewStreamingTestbed(p, seed+int64(i)*103, 0)
		start := tb.Settle()
		t0 := tb.Clock.Now()
		tb.StartWindow(t0)
		tb.Folder.CreateLazy(t0, "payload"+kind.Ext(),
			workload.Describe(tb.RNG.Fork(7), kind, size))
		res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
		tb.Clock.AdvanceTo(res.Done)
		up := tb.AnalyzeWindow(t0, tb.StorageFilter(t0)).WireUp
		return VolumePoint{FileSize: size, Upload: up}
	})
}

// Fig4Sizes returns the paper's x-axes: up to 2 MB for the append
// case, up to 10 MB for the random-position case ("larger files are
// instead considered ... to highlight the combined effects with
// chunking and deduplication").
func Fig4Sizes(mod ModKind) []int64 {
	if mod == ModRandom {
		return []int64{1 << 20, 2 << 20, 4 << 20, 6 << 20, 8 << 20, 10 << 20}
	}
	return []int64{100 << 10, 500 << 10, 1 << 20, 1536 << 10, 2 << 20}
}

// Fig5Sizes returns the compression-test x-axis (100 kB to 2 MB).
func Fig5Sizes() []int64 {
	return []int64{100 << 10, 500 << 10, 1 << 20, 1536 << 10, 2 << 20}
}

// Fig6Result bundles the three panels of Fig. 6 for one service: per
// workload, the start-up, duration and overhead summaries.
type Fig6Result struct {
	Service   string
	Workloads []workload.Batch
	Summaries []Summary
}

// fig6Seed derives the seed of one (workload, repetition) cell of a
// service's Fig. 6 campaign — the derivation the sequential engine
// always used (per-workload base, campaignSeed per repetition).
func fig6Seed(seed int64, wi, rep int) int64 {
	return campaignSeed(seed+int64(wi)*100003, rep)
}

// Fig6Matrix runs the Sect. 5 benchmark campaign (four binary
// workloads) for every profile under one repetition design, with the
// full service x workload x repetition matrix flattened onto one
// worker pool (0 = one per CPU, 1 = sequential) — the
// campaign-of-campaigns entry point used by cmd/cloudbench. Under an
// adaptive rule every (service, workload) cell runs its own
// sequential design, so low-variance cells release their budget early
// while noisy cells keep sampling up to the cap. Results are
// bit-identical at any worker count and to running each cell alone.
func Fig6Matrix(profiles []client.Profile, rule StopRule, seed int64, workers int) []Fig6Result {
	return fig6Matrix(profiles, campusHost, rule, seed, workers)
}

// fig6Matrix is Fig6Matrix from an arbitrary test computer, shared
// with the campaign path that benchmarks from a vantage.
func fig6Matrix(profiles []client.Profile, host func() *netem.Host, rule StopRule, seed int64, workers int) []Fig6Result {
	batches := workload.StandardBenchmarks(workload.Binary)
	nw := len(batches)
	sums := sampleCells(len(profiles)*nw, rule, workers,
		func(c, rep int) int64 { return fig6Seed(seed, c%nw, rep) },
		func(c int, rng *sim.RNG) Metrics {
			return runSyncOn(profiles[c/nw], batches[c%nw], host(), rng, DefaultJitter, 0)
		})
	out := make([]Fig6Result, len(profiles))
	for si, p := range profiles {
		out[si] = Fig6Result{Service: p.Service, Workloads: batches, Summaries: sums[si*nw : (si+1)*nw : (si+1)*nw]}
	}
	return out
}

// fig4SingleBatch is the 1x1MB convenience workload used by several
// single-file studies.
func fig4SingleBatch() workload.Batch {
	return workload.Batch{Count: 1, Size: 1 << 20, Kind: workload.Binary}
}
