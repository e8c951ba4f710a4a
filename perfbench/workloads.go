package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload sizes. A pass runs one workload once, cold, in its own
// process; a run repeats passes until its time is spent.
const (
	fig6Reps = 8 // repetitions per (service, Fig. 6 batch) cell

	reviseReps  = 16      // repetitions per service
	reviseDocs  = 4       // text documents per repetition
	reviseBytes = 100_000 // bytes per document
	reviseEdit  = 4_000   // bytes appended, and bytes inserted mid-file
	reviseLoss  = 0.02    // per-segment loss on every path

	fleetUsers = 200_000 // simulated users in one fleet day
)

// benchWorkload is one named input set of the benchmark.
type benchWorkload struct {
	name string
	// ops is how many operations (repetitions, or simulated users)
	// one pass attempts.
	ops int
	// prepare builds a pass's inputs from the workload seed; this is
	// the pass's set-up. The returned function runs the timed part.
	prepare func(seed int64) func(workers int, tr *tracer) outcome
}

var workloads = []benchWorkload{
	{
		name:    "fig6-campaign",
		ops:     len(client.Profiles()) * len(workload.StandardBenchmarks(workload.Binary)) * fig6Reps,
		prepare: prepareCells(fig6Cells, runFig6Cell),
	},
	{
		name:    "revise-lossy",
		ops:     len(client.Profiles()) * reviseReps,
		prepare: prepareCells(reviseCells, runReviseCell),
	},
	{
		name:    "fleet-day",
		ops:     fleetUsers,
		prepare: prepareFleet,
	},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// span names one layer boundary the traced run times.
type span int

const (
	spanAssemble span = iota
	spanSettle
	spanMaterialize
	spanSync
	spanMeasure
	spanFleetDay
	nSpans
)

var spanNames = [nSpans]string{
	"testbed.assemble_s", "client.settle_s", "workload.materialize_s",
	"client.sync_s", "trace.measure_s", "fleet.day_s",
}

// tracer sums host time per span across a pass. It is nil in untraced
// passes, which then take no clock reads beyond the per-cell timing.
type tracer struct{ ns [nSpans]atomic.Int64 }

func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(s span, start time.Time) {
	if t != nil {
		t.ns[s].Add(int64(time.Since(start)))
	}
}

// counts are the work a pass did, read off public results. They are
// deterministic for a given workload and seed.
type counts struct {
	Files        int64 `json:"files"`
	Units        int64 `json:"units"`
	RawBytes     int64 `json:"raw_bytes"`
	UploadBytes  int64 `json:"upload_bytes"`
	DedupSkipped int64 `json:"dedup_skipped_bytes"`
	ContentBytes int64 `json:"content_bytes"`
	WireBytes    int64 `json:"wire_bytes"`
	StorageUp    int64 `json:"storage_up"`
	// WindowUpload is the planned upload volume of the measured sync,
	// the payload StorageUp carried.
	WindowUpload int64 `json:"window_upload"`
	Connections  int64 `json:"connections"`
	Records      int64 `json:"records"`

	Sessions     int64   `json:"sessions"`
	Chunks       int64   `json:"chunks"`
	UniqueChunks int64   `json:"unique_chunks"`
	DedupRatio   float64 `json:"dedup_ratio"`
}

func (c *counts) add(o counts) {
	c.Files += o.Files
	c.Units += o.Units
	c.RawBytes += o.RawBytes
	c.UploadBytes += o.UploadBytes
	c.DedupSkipped += o.DedupSkipped
	c.ContentBytes += o.ContentBytes
	c.WireBytes += o.WireBytes
	c.StorageUp += o.StorageUp
	c.WindowUpload += o.WindowUpload
	c.Connections += o.Connections
	c.Records += o.Records
}

// addSync counts one SyncChanges result.
func (c *counts) addSync(r client.SyncResult) {
	for _, p := range r.Plans {
		c.Files++
		c.DedupSkipped += p.DedupSkipped
		for _, u := range p.Units {
			c.Units++
			c.RawBytes += u.RawBytes
			c.UploadBytes += u.Bytes
		}
	}
}

// outcome is what the timed part of a pass produced.
type outcome struct {
	Ops    int     `json:"ops"`
	Failed int     `json:"failed"`
	CellNs []int64 `json:"cell_ns,omitempty"` // host time per repetition
	// BusyNs is worker-busy time: the sum of cell spans, or for a
	// fleet day (one call that fans out internally) its CPU time.
	BusyNs int64    `json:"busy_ns"`
	Digest string   `json:"digest"`
	Counts counts   `json:"counts"`
	Errors []string `json:"errors,omitempty"`
}

// maxErrors caps the failure messages a pass reports.
const maxErrors = 5

// syncCell is one repetition of a campaign workload: a service, the
// batch it uploads and the repetition's seed.
type syncCell struct {
	Service string
	Batch   workload.Batch
	Seed    int64
}

// cellResult is one repetition's simulated output.
type cellResult struct {
	M       core.Metrics
	Uploads []int64 // planned upload bytes of each SyncChanges call
	Counts  counts
	Ns      int64
	Err     error
}

// fig6Cells is the paper's Sect. 5 matrix: every service × the four
// Fig. 6 batches × fig6Reps. A (batch, repetition) pair has one seed
// for all services, so services upload identical content, exactly as
// the core Fig. 6 campaign derives its seeds.
func fig6Cells(seed int64) []syncCell {
	var cells []syncCell
	for _, p := range client.Profiles() {
		for wi, b := range workload.StandardBenchmarks(workload.Binary) {
			for rep := 0; rep < fig6Reps; rep++ {
				cells = append(cells, syncCell{
					Service: p.Service,
					Batch:   b,
					Seed:    seed + int64(wi)*100003 + int64(rep)*7919,
				})
			}
		}
	}
	return cells
}

// reviseCells gives every (service, repetition) its own seed, so no
// document content repeats anywhere in a pass.
func reviseCells(seed int64) []syncCell {
	var cells []syncCell
	for si, p := range client.Profiles() {
		for rep := 0; rep < reviseReps; rep++ {
			cells = append(cells, syncCell{
				Service: p.Service,
				Batch:   workload.Batch{Count: reviseDocs, Size: reviseBytes, Kind: workload.Text},
				Seed:    seed + int64(si)*1000003 + int64(rep)*7919,
			})
		}
	}
	return cells
}

func profileFor(service string) client.Profile {
	p, ok := client.ProfileFor(service)
	if !ok {
		panic("unknown service " + service)
	}
	return p
}

// runFig6Cell is one core.RunSync-shaped repetition with a span
// around each layer call.
func runFig6Cell(c syncCell, tr *tracer) cellResult {
	s := tr.begin()
	tb := core.NewStreamingTestbed(profileFor(c.Service), c.Seed, core.DefaultJitter)
	tr.end(spanAssemble, s)

	s = tr.begin()
	start := tb.Settle()
	tr.end(spanSettle, s)

	t0 := tb.Clock.Now()
	tb.StartWindow(t0)
	s = tr.begin()
	c.Batch.Materialize(tb.Folder, tb.RNG, t0, "bench")
	tr.end(spanMaterialize, s)

	s = tr.begin()
	res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)
	tr.end(spanSync, s)

	var r cellResult
	r.Counts.addSync(res)
	r.Counts.ContentBytes = c.Batch.Total()
	r.Uploads = []int64{res.UploadBytes()}
	r.Counts.WindowUpload = res.UploadBytes()
	r.M = measure(tb, t0, c.Batch.Total(), tr, &r.Counts)
	return r
}

// runReviseCell uploads text documents over a lossy path, then
// appends to each and inserts into its middle, and measures the
// re-sync.
func runReviseCell(c syncCell, tr *tracer) cellResult {
	s := tr.begin()
	tb := core.NewStreamingTestbed(profileFor(c.Service), c.Seed, core.DefaultJitter)
	tb.Net.LossRate = reviseLoss
	tr.end(spanAssemble, s)

	s = tr.begin()
	start := tb.Settle()
	tr.end(spanSettle, s)

	t0 := tb.Clock.Now()
	s = tr.begin()
	paths := c.Batch.Materialize(tb.Folder, tb.RNG, t0, "docs")
	tr.end(spanMaterialize, s)

	var r cellResult
	s = tr.begin()
	first := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
	tb.Clock.AdvanceTo(first.Done.Add(10 * time.Second))
	tr.end(spanSync, s)
	r.Counts.addSync(first)

	t1 := tb.Clock.Now()
	tb.StartWindow(t1)
	s = tr.begin()
	edits := tb.RNG.Fork(2)
	for i, path := range paths {
		tb.Folder.Append(t1, path, workload.Generate(edits.Fork(int64(2*i)), workload.Text, reviseEdit))
		tb.Folder.InsertAt(t1, path, c.Batch.Size/2, workload.Generate(edits.Fork(int64(2*i+1)), workload.Text, reviseEdit))
	}
	tr.end(spanMaterialize, s)

	s = tr.begin()
	second := tb.Client.SyncChanges(tb.Folder, t1.Add(-time.Millisecond))
	tb.Clock.AdvanceTo(second.Done)
	tr.end(spanSync, s)
	r.Counts.addSync(second)

	edited := int64(2*reviseEdit) * int64(len(paths))
	r.Counts.ContentBytes = c.Batch.Total() + edited
	r.Uploads = []int64{first.UploadBytes(), second.UploadBytes()}
	r.Counts.WindowUpload = second.UploadBytes()
	r.M = measure(tb, t1, edited, tr, &r.Counts)
	return r
}

// measure reads the benchmark window's metrics; the traced run also
// counts the window's trace records.
func measure(tb *core.Testbed, t0 time.Time, content int64, tr *tracer, c *counts) core.Metrics {
	s := tr.begin()
	m := core.MeasureWindow(tb, t0, content)
	if tr != nil {
		c.Records = int64(tb.AnalyzeWindow(t0, trace.AllFlows).Packets)
	}
	tr.end(spanMeasure, s)
	c.WireBytes = m.TotalTraffic
	c.StorageUp = m.StorageUp
	c.Connections = int64(m.Connections)
	return m
}

// checkCell rejects a repetition whose output cannot be right.
func checkCell(r cellResult) error {
	m := r.M
	switch {
	case math.IsNaN(m.Overhead) || math.IsInf(m.Overhead, 0) || m.Overhead <= 0:
		return fmt.Errorf("overhead %v", m.Overhead)
	case math.IsNaN(m.GoodputBps) || math.IsInf(m.GoodputBps, 0) || m.GoodputBps < 0:
		return fmt.Errorf("goodput %v", m.GoodputBps)
	case m.Startup < 0 || m.Completion < 0:
		return fmt.Errorf("negative startup %v or completion %v", m.Startup, m.Completion)
	case m.TotalTraffic <= 0 || m.StorageUp <= 0 || m.StorageUp > m.TotalTraffic:
		return fmt.Errorf("traffic total %d, storage up %d", m.TotalTraffic, m.StorageUp)
	}
	for i, u := range r.Uploads {
		if u <= 0 {
			return fmt.Errorf("sync %d planned %d upload bytes", i, u)
		}
	}
	return nil
}

// digestCells hashes every repetition's metrics and per-sync upload
// bytes in cell order. A failed repetition hashes as a marker, so a
// panic changes the digest too.
func digestCells(rs []cellResult) string {
	h := sha256.New()
	var b []byte
	for _, r := range rs {
		b = b[:0]
		if r.Err != nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
		}
		m := r.M
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Startup))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Completion))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.TotalTraffic))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.StorageUp))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Overhead))
		b = binary.LittleEndian.AppendUint64(b, uint64(m.Connections))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.GoodputBps))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(r.Uploads)))
		for _, u := range r.Uploads {
			b = binary.LittleEndian.AppendUint64(b, uint64(u))
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// prepareCells builds a campaign workload's pass: its cells are the
// set-up, and the timed part runs them on a closed-loop pool (a worker
// takes the next cell when its last one finishes).
func prepareCells(cells func(seed int64) []syncCell, run func(syncCell, *tracer) cellResult) func(int64) func(int, *tracer) outcome {
	return func(seed int64) func(int, *tracer) outcome {
		cs := cells(seed)
		return func(workers int, tr *tracer) outcome {
			rs := core.RunN(len(cs), workers, func(i int) (r cellResult) {
				start := time.Now()
				defer func() {
					if p := recover(); p != nil {
						r = cellResult{Err: fmt.Errorf("panic: %v", p)}
					}
					r.Ns = int64(time.Since(start))
				}()
				r = run(cs[i], tr)
				r.Err = checkCell(r)
				return r
			})
			o := outcome{Ops: len(rs), Digest: digestCells(rs)}
			for i, r := range rs {
				o.CellNs = append(o.CellNs, r.Ns)
				o.BusyNs += r.Ns
				o.Counts.add(r.Counts)
				if r.Err != nil {
					o.Failed++
					if len(o.Errors) < maxErrors {
						o.Errors = append(o.Errors, fmt.Sprintf("cell %d (%s %v seed %d): %v", i, cs[i].Service, cs[i].Batch, cs[i].Seed, r.Err))
					}
				}
			}
			return o
		}
	}
}

// fleetConfig is the fleet-day input: the default class mix over
// fleetUsers users, seeded by the workload seed.
func fleetConfig(seed int64) core.FleetConfig {
	return core.FleetConfig{Users: fleetUsers, Seed: seed}
}

// prepareFleet builds the fleet day's backend (part of set-up); the
// timed part is one core.RunFleet call.
func prepareFleet(seed int64) func(int, *tracer) outcome {
	cfg := fleetConfig(seed)
	cfg.Store = dedup.NewStoreShardedSized(dedup.DefaultShards, core.FleetChunkHint(cfg.Users, cfg.Day))
	return func(workers int, tr *tracer) (o outcome) {
		o.Ops = cfg.Users
		defer func() {
			if p := recover(); p != nil {
				o.Failed = o.Ops
				o.Errors = []string{fmt.Sprintf("fleet day panicked: %v", p)}
			}
		}()
		cpu0 := cpuTime()
		s := tr.begin()
		res := core.RunFleet(cfg, workers)
		tr.end(spanFleetDay, s)
		o.BusyNs = int64(cpuTime() - cpu0)
		o.Digest = digestFleet(res)
		o.Counts = counts{
			Sessions: res.Sessions, Chunks: res.Chunks,
			UniqueChunks: int64(res.UniqueChunks), DedupRatio: res.DedupRatio,
		}
		if err := checkFleet(res); err != nil {
			o.Failed = o.Ops
			o.Errors = []string{err.Error()}
		}
		return o
	}
}

// digestFleet hashes the whole fleet result, load-curve buckets
// included.
func digestFleet(r core.FleetResult) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // FleetResult holds only integers and finite floats
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkFleet enforces the fleet day's conservation rules: the wire
// carries content minus dedup plus manifests, the store holds content
// minus dedup, and the load curve partitions the day's sessions and
// wire bytes.
func checkFleet(r core.FleetResult) error {
	if r.Users <= 0 || r.Sessions <= 0 || r.Chunks <= 0 {
		return fmt.Errorf("fleet: empty day (%d users, %d sessions, %d chunks)", r.Users, r.Sessions, r.Chunks)
	}
	if r.WireBytes != r.ContentBytes-r.DedupBytes+r.ManifestBytes {
		return fmt.Errorf("fleet: wire %d != content %d - dedup %d + manifests %d",
			r.WireBytes, r.ContentBytes, r.DedupBytes, r.ManifestBytes)
	}
	if r.StoredBytes != r.ContentBytes-r.DedupBytes {
		return fmt.Errorf("fleet: stored %d != content %d - dedup %d", r.StoredBytes, r.ContentBytes, r.DedupBytes)
	}
	var sessions, wire int64
	for _, b := range r.Buckets {
		sessions += b.Sessions
		wire += b.WireBytes
	}
	if sessions != r.Sessions || wire != r.WireBytes {
		return fmt.Errorf("fleet: buckets sum to %d sessions, %d wire bytes; day has %d, %d",
			sessions, wire, r.Sessions, r.WireBytes)
	}
	for _, v := range []float64{r.DedupRatio, r.PeakBps} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return errors.New("fleet: non-finite or negative ratio or peak")
		}
	}
	return nil
}
