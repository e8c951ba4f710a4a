package main

// metricDef names one reported metric; the lists below are the ones
// BENCHMARK.json declares, in the same order.
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// cpuModules are the modules the traced run's profile is charged to;
// "fleet" is core code running under core.RunFleet.
var cpuModules = []string{
	"client", "compressor", "chunker", "deltaenc", "cryptobox", "dedup",
	"tcpsim", "trace", "workload", "sim", "core", "netem", "cloud",
	"dnssim", "geo", "fleet",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scheduler.busy_frac", "frac", "higher"},
		{"scheduler.cell_ms_p50", "ms", "lower"},
		{"scheduler.cell_ms_p95", "ms", "lower"},
		{"testbed.assemble_s", "s", "lower"},
		{"client.settle_s", "s", "lower"},
		{"client.sync_s", "s", "lower"},
		{"client.files", "count", "lower"},
		{"client.units", "count", "lower"},
		{"client.raw_bytes", "B", "lower"},
		{"client.upload_bytes", "B", "lower"},
		{"client.upload_ratio", "ratio", "lower"},
		{"client.dedup_skipped_bytes", "B", "higher"},
		{"tcpsim.wire_bytes", "B", "lower"},
		{"tcpsim.wire_per_upload", "ratio", "lower"},
		{"trace.measure_s", "s", "lower"},
		{"trace.records", "count", "lower"},
		{"trace.connections", "count", "lower"},
		{"workload.materialize_s", "s", "lower"},
		{"workload.bytes", "B", "lower"},
		{"fleet.day_s", "s", "lower"},
		{"fleet.sessions", "count", "higher"},
		{"fleet.chunks", "count", "higher"},
		{"dedup.unique_chunks", "count", "lower"},
		{"dedup.ratio", "ratio", "higher"},
		{"dedup.chunks_per_s", "1/s", "higher"},
		{"runtime.gc_cpu_frac", "frac", "lower"},
		{"runtime.alloc_bytes_per_op", "B", "lower"},
		{"runtime.allocs_per_op", "count", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"profile.samples", "count", "higher"},
		{"profile.unattributed_frac", "frac", "lower"},
		{"overhead.ops_per_s_frac", "frac", "lower"},
		{"overhead.cpu_us_per_op_frac", "frac", "lower"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{m + ".cpu_s", "s", "lower"})
	}
	return defs
}()

// split separates a run's passes into untraced and traced ones.
func split(passes []passResult) (untraced, traced []passResult) {
	for _, p := range passes {
		if p.Traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	return untraced, traced
}

// perPass is f of every pass.
func perPass(ps []passResult, f func(p passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func opsPerSec(p passResult) float64 {
	return ratio(float64(p.Outcome.Ops), float64(p.WallNs)/1e9)
}

func cpuUsPerOp(p passResult) float64 {
	return ratio(float64(p.CPUNs)/1e3, float64(p.Outcome.Ops))
}

// endToEndValues are the untraced passes' medians.
func endToEndValues(passes []passResult) map[string]float64 {
	u, _ := split(passes)
	return map[string]float64{
		"setup_s":       median(perPass(u, func(p passResult) float64 { return float64(p.setupNs) / 1e9 })),
		"ops_per_s":     median(perPass(u, opsPerSec)),
		"cpu_us_per_op": median(perPass(u, cpuUsPerOp)),
		"peak_rss_mb":   median(perPass(u, func(p passResult) float64 { return float64(p.PeakRSS) / (1 << 20) })),
	}
}

// perLayerValues derives the per-layer metrics: timing-free counts
// and the scheduler and runtime figures from the untraced passes,
// spans and module CPU from the traced ones, and the tracing overhead
// from the two together. A metric of a layer the
// workload does not use reads 0.
func perLayerValues(passes []passResult, workers int) map[string]float64 {
	u, t := split(passes)
	v := map[string]float64{}
	if len(u) == 0 || len(t) == 0 {
		return v
	}
	c := u[0].Outcome.Counts

	v["scheduler.busy_frac"] = median(perPass(u, func(p passResult) float64 {
		return ratio(float64(p.Outcome.BusyNs), float64(p.WallNs)*float64(workers))
	}))
	var cells []float64
	for _, p := range u {
		for _, ns := range p.Outcome.CellNs {
			cells = append(cells, float64(ns)/1e6)
		}
	}
	// A refused percentile (too few samples beyond it) reads 0.
	v["scheduler.cell_ms_p50"], _ = percentile(cells, 0.50)
	v["scheduler.cell_ms_p95"], _ = percentile(cells, 0.95)

	for s, name := range spanNames {
		v[name] = median(perPass(t, func(p passResult) float64 { return float64(p.SpanNs[s]) / 1e9 }))
	}

	v["client.files"] = float64(c.Files)
	v["client.units"] = float64(c.Units)
	v["client.raw_bytes"] = float64(c.RawBytes)
	v["client.upload_bytes"] = float64(c.UploadBytes)
	v["client.upload_ratio"] = ratio(float64(c.UploadBytes), float64(c.RawBytes))
	v["client.dedup_skipped_bytes"] = float64(c.DedupSkipped)
	v["tcpsim.wire_bytes"] = float64(c.WireBytes)
	v["tcpsim.wire_per_upload"] = ratio(float64(c.StorageUp), float64(c.WindowUpload))
	v["trace.records"] = float64(t[0].Outcome.Counts.Records)
	v["trace.connections"] = float64(c.Connections)
	v["workload.bytes"] = float64(c.ContentBytes)
	v["fleet.sessions"] = float64(c.Sessions)
	v["fleet.chunks"] = float64(c.Chunks)
	v["dedup.unique_chunks"] = float64(c.UniqueChunks)
	v["dedup.ratio"] = c.DedupRatio
	v["dedup.chunks_per_s"] = median(perPass(u, func(p passResult) float64 {
		return ratio(float64(p.Outcome.Counts.Chunks), float64(p.WallNs)/1e9)
	}))

	v["runtime.gc_cpu_frac"] = median(perPass(u, func(p passResult) float64 {
		return ratio(p.Runtime.GCCPU, p.Runtime.TotalCPU)
	}))
	v["runtime.alloc_bytes_per_op"] = median(perPass(u, func(p passResult) float64 {
		return ratio(float64(p.Runtime.AllocBytes), float64(p.Outcome.Ops))
	}))
	v["runtime.allocs_per_op"] = median(perPass(u, func(p passResult) float64 {
		return ratio(float64(p.Runtime.AllocObjects), float64(p.Outcome.Ops))
	}))
	v["runtime.gc_cycles"] = median(perPass(u, func(p passResult) float64 { return float64(p.Runtime.GCCycles) }))

	// Module CPU is a mean per traced pass: a module's share is a few
	// 10 ms samples per pass, too sparse for a median.
	var samples, total, unattributed float64
	moduleNs := map[string]float64{}
	for _, p := range t {
		samples += float64(p.Profile.Samples)
		total += float64(p.Profile.TotalNs)
		unattributed += float64(p.Profile.UnattribNs)
		for m, ns := range p.Profile.ModuleNs {
			moduleNs[m] += float64(ns)
		}
	}
	n := float64(len(t))
	v["profile.samples"] = samples / n
	v["profile.unattributed_frac"] = ratio(unattributed, total)
	for _, m := range cpuModules {
		v[m+".cpu_s"] = moduleNs[m] / n / 1e9
	}

	v["overhead.ops_per_s_frac"] = 1 - ratio(median(perPass(t, opsPerSec)), median(perPass(u, opsPerSec)))
	v["overhead.cpu_us_per_op_frac"] = ratio(median(perPass(t, cpuUsPerOp)), median(perPass(u, cpuUsPerOp))) - 1
	return v
}
