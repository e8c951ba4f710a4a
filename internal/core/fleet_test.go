package core

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dedup"
	"repro/internal/workload"
)

// smallFleet is the shared test configuration: big enough that every
// class contributes sessions and the catalogs see real contention,
// small enough that a full day replays in well under a second.
func smallFleet(users int) FleetConfig {
	return FleetConfig{Users: users, Seed: 42}
}

func TestFleetBitIdenticalAcrossWorkers(t *testing.T) {
	// The acceptance criterion of the fleet engine: one service day is
	// bit-identical across worker counts {1, 2, 8}. Every field of
	// FleetResult — including the float ratios and every load-curve
	// bucket — must match the sequential run exactly, not
	// approximately.
	base := RunFleet(smallFleet(2000), 1)
	for _, workers := range []int{2, 8} {
		got := RunFleet(smallFleet(2000), workers)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d diverged from sequential run:\n  seq: %v\n  got: %v", workers, base, got)
		}
	}
	if base.Sessions == 0 || base.WireBytes == 0 {
		t.Fatalf("degenerate fleet day: %v", base)
	}
}

func TestFleetStripeCountIndependence(t *testing.T) {
	// Stripes is an execution detail, not part of the experiment
	// identity: any stripe count must yield the same day.
	base := RunFleet(smallFleet(1200), 4)
	for _, stripes := range []int{3, 64, 1200} {
		cfg := smallFleet(1200)
		cfg.Stripes = stripes
		if got := RunFleet(cfg, 4); !reflect.DeepEqual(base, got) {
			t.Fatalf("stripes=%d diverged:\n  base: %v\n  got:  %v", stripes, base, got)
		}
	}
}

func TestFleetStoreShardingIndependence(t *testing.T) {
	// The backend's shard count is a lock-layout choice; the simulated
	// outcome must not see it.
	run := func(shards int) FleetResult {
		cfg := smallFleet(1200)
		cfg.Store = dedup.NewStoreSharded(shards)
		return RunFleet(cfg, 4)
	}
	single, sharded := run(1), run(64)
	if !reflect.DeepEqual(single, sharded) {
		t.Fatalf("shard count changed the simulation:\n  1:  %v\n  64: %v", single, sharded)
	}
}

// recordedSession is one session as captured by recordSink: enough to
// replay the whole day sequentially against a reference backend.
type recordedSession struct {
	user   int64
	at     time.Duration
	hashes []dedup.Hash
	sizes  []int64
	files  int
}

type recordSink struct {
	sessions []recordedSession
	cur      recordedSession
}

func (s *recordSink) StartSession(user int64, at time.Duration) {
	s.cur = recordedSession{user: user, at: at}
}
func (s *recordSink) Chunk(h dedup.Hash, size int64) {
	s.cur.hashes = append(s.cur.hashes, h)
	s.cur.sizes = append(s.cur.sizes, size)
}
func (s *recordSink) EndSession(files int) {
	s.cur.files = files
	s.sessions = append(s.sessions, s.cur)
}

func TestFleetMatchesSequentialVirtualTimeReplay(t *testing.T) {
	// The claim/resolve protocol promises exactly the outcome of a
	// sequential replay in virtual-time order. Check it against an
	// independent oracle: record every session, sort by (instant,
	// user) — the claim tie-break — and run them through a plain map
	// where the first session to present a chunk uploads it.
	cfg := smallFleet(800).withDefaults()
	starts := classStarts(cfg.Classes, cfg.Users)
	rec := &recordSink{}
	for stripe := 0; stripe < cfg.Stripes; stripe++ {
		walkFleetStripe(cfg, starts, stripe, rec)
	}
	sort.Slice(rec.sessions, func(i, j int) bool {
		a, b := rec.sessions[i], rec.sessions[j]
		return a.at < b.at || (a.at == b.at && a.user < b.user)
	})

	uploaded := make(map[dedup.Hash]int64)
	var content, upload, dedupBytes, manifest, chunks, files int64
	for _, sess := range rec.sessions {
		inSession := make(map[dedup.Hash]struct{}, len(sess.hashes))
		for i, h := range sess.hashes {
			size := sess.sizes[i]
			content += size
			chunks++
			if _, dup := inSession[h]; dup {
				dedupBytes += size
				continue
			}
			inSession[h] = struct{}{}
			if _, dup := uploaded[h]; dup {
				dedupBytes += size
			} else {
				uploaded[h] = size
				upload += size
			}
		}
		manifest += client.ManifestBytes(len(sess.hashes))
		files += int64(sess.files)
	}

	got := RunFleet(smallFleet(800), 4)
	if got.Sessions != int64(len(rec.sessions)) || got.Files != files || got.Chunks != chunks {
		t.Fatalf("session census: got %d/%d/%d sessions/files/chunks, oracle %d/%d/%d",
			got.Sessions, got.Files, got.Chunks, len(rec.sessions), files, chunks)
	}
	if got.ContentBytes != content {
		t.Fatalf("ContentBytes = %d, oracle %d", got.ContentBytes, content)
	}
	if got.DedupBytes != dedupBytes {
		t.Fatalf("DedupBytes = %d, oracle %d", got.DedupBytes, dedupBytes)
	}
	if got.WireBytes != upload+manifest {
		t.Fatalf("WireBytes = %d, oracle upload+manifest = %d", got.WireBytes, upload+manifest)
	}
	if got.UniqueChunks != len(uploaded) {
		t.Fatalf("UniqueChunks = %d, oracle %d", got.UniqueChunks, len(uploaded))
	}
	var stored int64
	for _, size := range uploaded {
		stored += size
	}
	if got.StoredBytes != stored {
		t.Fatalf("StoredBytes = %d, oracle %d", got.StoredBytes, stored)
	}
}

func TestFleetConservationInvariants(t *testing.T) {
	r := RunFleet(smallFleet(1500), 0)

	// Wire = content − cross-user dedup + manifests.
	if r.WireBytes != r.ContentBytes-r.DedupBytes+r.ManifestBytes {
		t.Fatalf("wire conservation: %d != %d - %d + %d",
			r.WireBytes, r.ContentBytes, r.DedupBytes, r.ManifestBytes)
	}
	// Every unique chunk is uploaded exactly once fleet-wide, so the
	// backend holds exactly the non-deduplicated content.
	if r.StoredBytes != r.ContentBytes-r.DedupBytes {
		t.Fatalf("store conservation: stored %d != content %d - dedup %d",
			r.StoredBytes, r.ContentBytes, r.DedupBytes)
	}
	// The load curves partition the day's totals.
	var sess, wire, conns int64
	for _, b := range r.Buckets {
		sess += b.Sessions
		wire += b.WireBytes
		conns += b.Conns
		if b.Conns > r.PeakConns {
			t.Fatalf("bucket at %v has %d conns > PeakConns %d", b.Start, b.Conns, r.PeakConns)
		}
	}
	if sess != r.Sessions {
		t.Fatalf("bucket sessions sum %d != Sessions %d", sess, r.Sessions)
	}
	if wire != r.WireBytes {
		t.Fatalf("bucket wire sum %d != WireBytes %d", wire, r.WireBytes)
	}
	// A connection spans at least the bucket of its session start.
	if conns < r.Sessions {
		t.Fatalf("connection-bucket overlaps %d < sessions %d", conns, r.Sessions)
	}
	if r.DedupRatio <= 0 || r.DedupRatio >= 1 {
		t.Fatalf("DedupRatio = %v, want in (0, 1) for the default mix", r.DedupRatio)
	}
	if r.PeakBps <= 0 || r.PeakConns <= 0 {
		t.Fatalf("degenerate load curve: peak %v bps, %d conns", r.PeakBps, r.PeakConns)
	}
}

func TestFleetDedupGrowsWithPopulation(t *testing.T) {
	// The service-scale form of the paper's Sect. 4.3 observation:
	// with shared catalogs, a bigger population re-uploads more of the
	// same popular content, so the dedup ratio rises with fleet size.
	points := FleetPopulationSweep(FleetConfig{Seed: 7}, []int{250, 1000, 4000}, 0)
	for i := 1; i < len(points); i++ {
		if points[i].DedupRatio <= points[i-1].DedupRatio {
			t.Fatalf("dedup ratio not increasing with population: %+v", points)
		}
	}
	// And the backend grows sublinearly: 16× the users must need far
	// fewer than 16× the stored bytes.
	scale := float64(points[2].StoredBytes) / float64(points[0].StoredBytes)
	if scale >= 16 {
		t.Fatalf("stored bytes scaled %.1f× over a 16× population: no cross-user sharing", scale)
	}
}

func TestFleetClassStarts(t *testing.T) {
	starts := classStarts(DefaultFleetClasses(), 1000)
	want := []int{0, 600, 900, 1000}
	if !reflect.DeepEqual(starts, want) {
		t.Fatalf("classStarts = %v, want %v", starts, want)
	}
	// Degenerate populations still partition cleanly.
	if got := classStarts(DefaultFleetClasses(), 1); got[len(got)-1] != 1 {
		t.Fatalf("single-user partition broken: %v", got)
	}
}

func TestFleetDiurnalShapeInLoadCurve(t *testing.T) {
	// The interactive class follows OfficeHours, so the service's
	// afternoon load must dominate the small hours.
	cfg := smallFleet(2000)
	cfg.Bucket = time.Hour
	r := RunFleet(cfg, 0)
	if len(r.Buckets) != 24 {
		t.Fatalf("hourly buckets: got %d", len(r.Buckets))
	}
	if r.Buckets[14].Sessions <= r.Buckets[3].Sessions {
		t.Fatalf("no diurnal shape: 14h has %d sessions, 03h has %d",
			r.Buckets[14].Sessions, r.Buckets[3].Sessions)
	}
}

func TestFleetEmptyPopulation(t *testing.T) {
	r := RunFleet(FleetConfig{Users: 0, Seed: 1}, 2)
	if r.Sessions != 0 || r.WireBytes != 0 || r.UniqueChunks != 0 {
		t.Fatalf("empty fleet produced traffic: %v", r)
	}
}

func TestFleetSeedChangesDay(t *testing.T) {
	a := RunFleet(FleetConfig{Users: 300, Seed: 1}, 0)
	b := RunFleet(FleetConfig{Users: 300, Seed: 2}, 0)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds replayed the same day")
	}
}

func TestFleetChunkHashDomainSeparation(t *testing.T) {
	// Distinct descriptor tuples must address distinct content.
	h := fleetChunkHash(1, 100, 0, 100)
	for _, other := range []dedup.Hash{
		fleetChunkHash(2, 100, 0, 100),
		fleetChunkHash(1, 101, 0, 100),
		fleetChunkHash(1, 100, 50, 50),
	} {
		if h == other {
			t.Fatal("descriptor tuples collide")
		}
	}
	if h != fleetChunkHash(1, 100, 0, 100) {
		t.Fatal("chunk address not a pure function of its tuple")
	}
}

func TestFleetArrivalHorizonRespected(t *testing.T) {
	// Sessions never land outside the configured day, whatever the
	// arrival process draws.
	cfg := smallFleet(500).withDefaults()
	starts := classStarts(cfg.Classes, cfg.Users)
	rec := &recordSink{}
	for stripe := 0; stripe < cfg.Stripes; stripe++ {
		walkFleetStripe(cfg, starts, stripe, rec)
	}
	for _, s := range rec.sessions {
		if s.at < 0 || s.at >= cfg.Day {
			t.Fatalf("session at %v outside [0, %v)", s.at, cfg.Day)
		}
	}
}

func TestFleetMillionUserSmoke(t *testing.T) {
	// The scale claim: a million-user day must fit in O(active users)
	// memory and finish. A two-minute horizon keeps sessions sparse so
	// the smoke runs in seconds while still touching every user slot.
	if testing.Short() {
		t.Skip("million-user smoke skipped in -short")
	}
	cfg := FleetConfig{Users: 1_000_000, Seed: 9, Day: 2 * time.Minute, Bucket: time.Minute}
	r := RunFleet(cfg, 0)
	if r.Users != cfg.Users {
		t.Fatalf("Users = %d, want %d", r.Users, cfg.Users)
	}
	if r.Sessions == 0 {
		t.Fatal("million-user fleet produced no sessions in the window")
	}
	if r.WireBytes != r.ContentBytes-r.DedupBytes+r.ManifestBytes {
		t.Fatalf("wire conservation at scale: %v", r)
	}
}

// workloadArrivalSmoke pins that the fleet's default classes exercise
// all three arrival process types — a wiring check, not a stats test.
func TestFleetDefaultClassesCoverArrivalProcesses(t *testing.T) {
	var havePoisson, haveGamma, haveDiurnal bool
	for _, c := range DefaultFleetClasses() {
		switch c.Arrival.(type) {
		case workload.Poisson:
			havePoisson = true
		case workload.Gamma:
			haveGamma = true
		case workload.Diurnal:
			haveDiurnal = true
		}
	}
	if !havePoisson || !haveGamma || !haveDiurnal {
		t.Fatalf("default classes missing an arrival type: poisson=%v gamma=%v diurnal=%v",
			havePoisson, haveGamma, haveDiurnal)
	}
}
