package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Capabilities is one row of Table 1, as *detected* by the Sect. 4
// tests — not copied from the client profile. The detectors only see
// the packet trace, so a mis-implemented client capability shows up
// as a detection mismatch in the tests.
type Capabilities struct {
	Service  string
	Chunking string // "no", "4 MB", "8 MB", "var."
	Bundling bool
	// Compression is "no", "always" or "smart".
	Compression string
	Dedup       bool
	// DedupAfterDelete reports whether deduplication still works
	// when a file is deleted and later restored (Sect. 4.3 step iv).
	DedupAfterDelete bool
	DeltaEncoding    bool
}

// numDetectors is how many independent Sect. 4 detectors make up one
// Table 1 row: chunking, bundling, compression, deduplication (one
// four-step experiment yielding both Dedup and DedupAfterDelete) and
// delta encoding.
//
// The detectors run on buffered testbeds deliberately: they re-window
// the trace at instants discovered mid-experiment (each dedup step,
// the modification of a delta test) and walk individual packets
// (UploadPauses, Bursts, estimateRTT's SYN/SYN-ACK pairing), none of
// which survives the streaming fold. Their traces are small — single
// files or 100 tiny ones — so O(packets) buffering is irrelevant here.
const numDetectors = 5

// DetectCapabilities runs every Sect. 4 test for one service, the
// five detectors fanned out over workers (0 = one per CPU, 1 =
// sequential).
func DetectCapabilities(p client.Profile, seed int64, workers int) Capabilities {
	return DetectCapabilitiesAll([]client.Profile{p}, seed, workers)[p.Service]
}

// DetectCapabilitiesAll runs the Sect. 4 suite for every profile with
// the whole service x detector matrix flattened onto one pool of
// workers.
// Each detector builds its own testbed from (profile, seed) and
// writes only its own capability fields, so the matrix is
// bit-identical to running the detectors one service at a time.
func DetectCapabilitiesAll(profiles []client.Profile, seed int64, workers int) map[string]Capabilities {
	caps := make([]Capabilities, len(profiles))
	dedups := make([]DedupResult, len(profiles))
	RunEach(len(profiles)*numDetectors, workers, func(i int) {
		si, det := i/numDetectors, i%numDetectors
		p := profiles[si]
		switch det {
		case 0:
			caps[si].Chunking = DetectChunking(p, seed)
		case 1:
			caps[si].Bundling = DetectBundling(p, seed).Bundling
		case 2:
			caps[si].Compression = DetectCompression(p, seed)
		case 3:
			// One four-step experiment yields both dedup verdicts;
			// running it twice with different seeds would report two
			// inconsistent experiments at twice the cost.
			dedups[si] = DetectDedup(p, seed)
		case 4:
			caps[si].DeltaEncoding = DetectDelta(p, seed)
		}
	})
	out := make(map[string]Capabilities, len(profiles))
	for i, p := range profiles {
		caps[i].Service = p.Service
		caps[i].Dedup = dedups[i].Dedup
		caps[i].DedupAfterDelete = dedups[i].AfterDelete
		out[p.Service] = caps[i]
	}
	return out
}

// fallbackRTT is the conservative estimate estimateRTT returns when
// the capture holds no matching handshake to measure.
const fallbackRTT = 100 * time.Millisecond

// estimateRTT recovers the path RTT from the TCP handshake of a flow —
// the sniffer's view (SYN to SYN-ACK), needing no model internals.
func estimateRTT(cap *trace.Capture, f trace.FlowFilter) time.Duration {
	set := make(map[trace.FlowID]time.Time)
	for _, p := range cap.Packets() {
		if p.Flags.SYN && !p.Flags.ACK && f(cap.Flow(p.Flow)) {
			set[p.Flow] = p.Time
		}
		if p.Flags.SYN && p.Flags.ACK {
			if t0, ok := set[p.Flow]; ok {
				return p.Time.Sub(t0)
			}
		}
	}
	return fallbackRTT
}

// DetectChunking uploads one large file and infers the chunking
// strategy from upload pauses (Sect. 4.1): no pauses means the file
// travelled as a single object; regular pause spacing means fixed
// chunks (the spacing is the chunk size); irregular spacing means
// variable chunks.
func DetectChunking(p client.Profile, seed int64) string {
	// Large enough for a dozen chunks at the biggest chunk size in
	// the wild (8 MB), so the size statistics are meaningful; not a
	// multiple of common chunk sizes, so the remainder chunk is
	// detectable and excluded.
	const fileSize = 61 << 20
	tb := NewTestbed(p, seed, 0)
	start := tb.Settle()
	t0 := tb.Clock.Now()
	tb.Folder.Create(t0, "big.bin", workload.Generate(tb.RNG, workload.Binary, fileSize))
	res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)

	win := tb.Cap.Window(t0, trace.FarFuture)
	storage := tb.StorageFilter(t0)
	rtt := estimateRTT(win, storage)
	pauses := win.UploadPauses(storage, rtt+2*rtt/5)
	if len(pauses) == 0 {
		return "no"
	}
	// Chunk sizes are the differences of the cumulative byte marks.
	// Segments below a small floor are protocol artifacts (the TLS
	// handshake before the first data, trailing acknowledgments),
	// not chunks. The remainder after the last pause is excluded:
	// the final chunk of a fixed-size chunker is legitimately short
	// and would fake variability.
	const chunkFloor = 64 << 10
	var sizes []float64
	prev := int64(0)
	for _, pa := range pauses {
		if s := pa.BytesBefore - prev; s >= chunkFloor {
			sizes = append(sizes, float64(s))
		}
		prev = pa.BytesBefore
	}
	if len(sizes) <= 1 {
		return "no"
	}

	if stats.CV(sizes) > 0.25 {
		return "var."
	}
	return fmt.Sprintf("%.0f MB", stats.Mean(sizes)/(1<<20))
}

// BundlingResult is the outcome of the Sect. 4.2 test.
type BundlingResult struct {
	Bundling bool
	// ConnsPerFile is how many connections the client opened per
	// file in the 100-file set (Fig. 3: ~1 for Google Drive, ~4 for
	// Cloud Drive, ~0 for connection-reusing services).
	ConnsPerFile float64
	// SequentialAcks reports per-file application acknowledgments,
	// detected by counting packet bursts (SkyDrive, Wuala).
	SequentialAcks bool
}

// DetectBundling uploads the same volume split into 100 files and
// analyzes connections and bursts (Sect. 4.2).
func DetectBundling(p client.Profile, seed int64) BundlingResult {
	const files = 100
	tb := NewTestbed(p, seed, 0)
	start := tb.Settle()
	t0 := tb.Clock.Now()
	workload.Batch{Count: files, Size: 10_000, Kind: workload.Binary}.
		Materialize(tb.Folder, tb.RNG, t0, "bundle")
	res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)

	win := tb.Cap.Window(t0, trace.FarFuture)
	storage := tb.StorageFilter(t0)
	conns := win.Analyze(trace.AllFlows).Connections
	rtt := estimateRTT(tb.Cap, storage)
	bursts := win.Bursts(storage, rtt+2*rtt/5)

	r := BundlingResult{ConnsPerFile: float64(conns) / files}
	r.SequentialAcks = len(bursts) >= files*3/4
	r.Bundling = r.ConnsPerFile < 0.5 && !r.SequentialAcks
	return r
}

// DedupResult is the outcome of the Sect. 4.3 four-step test.
type DedupResult struct {
	Dedup       bool
	AfterDelete bool
}

// DetectDedup runs the paper's four-step deduplication test: (i) a
// random file; (ii) a replica under a different name; (iii) a copy in
// a third folder; (iv) delete everything, then place the original
// back. Upload volumes per step tell whether replicas travelled.
func DetectDedup(p client.Profile, seed int64) DedupResult {
	const size = 512 << 10
	tb := NewTestbed(p, seed, 0)
	start := tb.Settle()

	syncStep := func(t0 time.Time) int64 {
		res := tb.Client.SyncChanges(tb.Folder, t0.Add(-time.Millisecond))
		tb.Clock.AdvanceTo(res.Done.Add(10 * time.Second))
		win := tb.Cap.Window(t0, trace.FarFuture)
		return win.Analyze(tb.StorageFilter(t0)).WireUp
	}

	// Step i: original file.
	t1 := start
	tb.Folder.Create(t1, "one/original.bin", workload.Generate(tb.RNG, workload.Binary, size))
	u1 := syncStep(t1)

	// Step ii: same payload, different name, second folder.
	t2 := tb.Clock.Now()
	tb.Folder.Copy(t2, "one/original.bin", "two/replica.bin")
	u2 := syncStep(t2)

	// Step iii: copy of the original in a third folder.
	t3 := tb.Clock.Now()
	tb.Folder.Copy(t3, "one/original.bin", "three/copy.bin")
	u3 := syncStep(t3)

	// Step iv: delete all copies, then place the original back.
	t4 := tb.Clock.Now()
	tb.Folder.Delete(t4, "one/original.bin")
	tb.Folder.Delete(t4, "two/replica.bin")
	tb.Folder.Delete(t4, "three/copy.bin")
	syncStep(t4)
	t5 := tb.Clock.Now()
	tb.Folder.Restore(t5, "one/original.bin")
	u4 := syncStep(t5)

	threshold := u1 / 10
	return DedupResult{
		Dedup:       u2 < threshold && u3 < threshold,
		AfterDelete: u4 < threshold,
	}
}

// DetectDelta runs the Sect. 4.4 test in its append form: modify an
// existing file by adding content at the end and compare the upload
// volume with the modification size.
func DetectDelta(p client.Profile, seed int64) bool {
	const base = 1 << 20
	const added = 100 << 10
	tb := NewTestbed(p, seed, 0)
	start := tb.Settle()

	t0 := tb.Clock.Now()
	tb.Folder.Create(t0, "delta.bin", workload.Generate(tb.RNG, workload.Binary, base))
	res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done.Add(10 * time.Second))

	t1 := tb.Clock.Now()
	tb.Folder.Append(t1, "delta.bin", workload.Generate(tb.RNG, workload.Binary, added))
	res = tb.Client.SyncChanges(tb.Folder, t1.Add(-time.Millisecond))
	tb.Clock.AdvanceTo(res.Done)

	win := tb.Cap.Window(t1, trace.FarFuture)
	up := win.Analyze(tb.StorageFilter(t1)).WireUp
	// Delta encoding: the upload tracks the added bytes, not the
	// file size.
	return up < (base+added)/3
}

// DetectCompression runs the Sect. 4.5 test: upload equally sized
// text, random and fake-JPEG files and compare transmitted volumes.
func DetectCompression(p client.Profile, seed int64) string {
	const size = 500 << 10
	upload := func(kind workload.Kind, s int64) int64 {
		tb := NewTestbed(p, s, 0)
		start := tb.Settle()
		t0 := tb.Clock.Now()
		tb.Folder.Create(t0, "f"+kind.Ext(), workload.Generate(tb.RNG, kind, size))
		res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
		tb.Clock.AdvanceTo(res.Done)
		win := tb.Cap.Window(t0, trace.FarFuture)
		return win.Analyze(tb.StorageFilter(t0)).WireUp
	}
	text := upload(workload.Text, seed)
	random := upload(workload.Binary, seed+1)
	if text > random*3/4 {
		return "no"
	}
	// Compression detected; fake JPEGs reveal whether the client
	// sniffs content types (Google Drive) or compresses blindly
	// (Dropbox).
	fake := upload(workload.FakeJPEG, seed+2)
	if fake > random*3/4 {
		return "smart"
	}
	return "always"
}

// sortedServices is a helper for deterministic report ordering.
func sortedServices(m map[string]Capabilities) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
