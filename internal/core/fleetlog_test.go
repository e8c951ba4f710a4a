package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/dedup"
)

// TestFleetLogReplayMatchesGeneration pins the log's core promise: the
// claim pass's recorded stream holds exactly what a second generation
// walk would produce — same sessions in the same order, same users,
// instants, file counts and chunk sizes — and each chunk's claimed
// store ref stands in for its hash: no ref is zero, and two chunks of
// a stripe share a ref exactly when their hashes are equal, which is
// what within-session dedup in the resolve pass relies on.
func TestFleetLogReplayMatchesGeneration(t *testing.T) {
	cfg := smallFleet(600).withDefaults()
	starts := classStarts(cfg.Classes, cfg.Users)
	for stripe := 0; stripe < 8; stripe++ {
		log := &fleetLog{}
		walkFleetStripe(cfg, starts, stripe, &claimSink{store: cfg.Store, log: log})

		want := &recordSink{}
		walkFleetStripe(cfg, starts, stripe, want)
		if len(log.users) != len(want.sessions) {
			t.Fatalf("stripe %d: log holds %d sessions, generation %d",
				stripe, len(log.users), len(want.sessions))
		}
		var hashes []dedup.Hash
		var start int64
		for i, sess := range want.sessions {
			end := log.chunkEnd[i]
			if log.users[i] != sess.user || time.Duration(log.atNs[i]) != sess.at || int(log.files[i]) != sess.files {
				t.Fatalf("stripe %d session %d: log (user %d, at %v, files %d), generation (%d, %v, %d)",
					stripe, i, log.users[i], time.Duration(log.atNs[i]), log.files[i], sess.user, sess.at, sess.files)
			}
			if !reflect.DeepEqual(log.sizes[start:end], sess.sizes) {
				t.Fatalf("stripe %d session %d: chunk sizes %v, generation %v",
					stripe, i, log.sizes[start:end], sess.sizes)
			}
			hashes = append(hashes, sess.hashes...)
			start = end
		}
		if len(log.refs) != len(hashes) || len(log.sizes) != len(hashes) {
			t.Fatalf("stripe %d: %d refs and %d sizes for %d generated chunks",
				stripe, len(log.refs), len(log.sizes), len(hashes))
		}

		byRef := make(map[dedup.ChunkRef]dedup.Hash, len(hashes))
		byHash := make(map[dedup.Hash]dedup.ChunkRef, len(hashes))
		for j, r := range log.refs {
			if r == (dedup.ChunkRef{}) {
				t.Fatalf("stripe %d chunk %d: claim pass left a zero ref", stripe, j)
			}
			if h, ok := byRef[r]; ok && h != hashes[j] {
				t.Fatalf("stripe %d chunk %d: distinct hashes share one ref", stripe, j)
			}
			if prev, ok := byHash[hashes[j]]; ok && prev != r {
				t.Fatalf("stripe %d chunk %d: one hash logged under two refs", stripe, j)
			}
			byRef[r], byHash[hashes[j]] = hashes[j], r
		}
	}
}

// TestFleetPopulationSweepWorkerEquivalence pins the sweep contract:
// points land in population order and are bit-identical whatever the
// worker count, both across the sweep fan-out and inside each day.
func TestFleetPopulationSweepWorkerEquivalence(t *testing.T) {
	pops := []int{300, 900, 1800}
	base := FleetPopulationSweep(smallFleet(0), pops, 1)
	if len(base) != len(pops) {
		t.Fatalf("sweep returned %d points for %d populations", len(base), len(pops))
	}
	for i, p := range base {
		if p.Users != pops[i] {
			t.Fatalf("point %d: users %d, want %d (population order)", i, p.Users, pops[i])
		}
	}
	for _, workers := range []int{2, 8} {
		got := FleetPopulationSweep(smallFleet(0), pops, workers)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d sweep diverged:\n  seq: %+v\n  got: %+v", workers, base, got)
		}
	}
}

// TestFleetSessionAllocationCeiling is the allocation regression gate
// on the fleet hot path: total bytes allocated per simulated session —
// including the store, the logs and the one-time class tables — must
// stay under a fixed ceiling. The one-pass engine lands around 1.1 KB
// per session on a 3k-user day; the ceiling leaves headroom for noise
// but catches an accidental per-session or per-chunk allocation (a
// reverted RNG reuse, an unbatched claim path) immediately.
func TestFleetSessionAllocationCeiling(t *testing.T) {
	const maxBytesPerSession = 4096

	cfg := smallFleet(3000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := RunFleet(cfg, 1)
	runtime.ReadMemStats(&after)

	if r.Sessions == 0 {
		t.Fatal("degenerate day: no sessions")
	}
	perSession := float64(after.TotalAlloc-before.TotalAlloc) / float64(r.Sessions)
	t.Logf("%.0f B allocated per session over %d sessions", perSession, r.Sessions)
	if perSession > maxBytesPerSession {
		t.Fatalf("fleet hot path allocates %.0f B/session, ceiling %d", perSession, maxBytesPerSession)
	}
}
