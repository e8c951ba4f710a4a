package dedup

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// randomHashes returns n deterministic pseudo-content addresses. The
// raw RNG words stand in for SHA-256 output: shard routing and map
// behaviour only need uniform bytes, not real preimages.
func randomHashes(seed int64, n int) []Hash {
	rng := sim.NewRNG(seed)
	hs := make([]Hash, n)
	for i := range hs {
		rng.Fill(hs[i][:])
	}
	return hs
}

func TestPutHashedReportsNew(t *testing.T) {
	s := NewStore()
	h := HashBytes([]byte("one lookup"))
	if !s.PutHashed(h, 11) {
		t.Fatal("first PutHashed not new")
	}
	if s.PutHashed(h, 11) {
		t.Fatal("second PutHashed claimed new")
	}
	if s.Hits() != 1 || s.UniqueChunks() != 1 {
		t.Fatalf("hits=%d unique=%d", s.Hits(), s.UniqueChunks())
	}
}

func TestShardedCountersAggregate(t *testing.T) {
	// Spray hashes across every shard and check the aggregated
	// counters against a flat reference map.
	s := NewStore()
	ref := make(map[Hash]int64)
	var refBytes, refHits int64
	rng := sim.NewRNG(7)
	hs := randomHashes(8, 512)
	for i := 0; i < 4096; i++ {
		h := hs[rng.Intn(len(hs))]
		size := int64(rng.Intn(1000)) + 1
		if old, ok := ref[h]; ok {
			refHits++
			size = old // store keeps the first size
		} else {
			ref[h] = size
			refBytes += size
		}
		s.PutHashed(h, size)
	}
	if s.UniqueChunks() != len(ref) {
		t.Fatalf("UniqueChunks = %d, want %d", s.UniqueChunks(), len(ref))
	}
	if s.StoredBytes() != refBytes {
		t.Fatalf("StoredBytes = %d, want %d", s.StoredBytes(), refBytes)
	}
	if s.Hits() != refHits {
		t.Fatalf("Hits = %d, want %d", s.Hits(), refHits)
	}
	for _, h := range hs {
		size, ok := ref[h]
		if !ok {
			continue // never drawn by the spray
		}
		if !s.Has(h) || s.Size(h) != size {
			t.Fatalf("chunk %v: Has=%v Size=%d want %d", h, s.Has(h), s.Size(h), size)
		}
	}
}

func TestShardCountIndependence(t *testing.T) {
	// The same workload lands identically on a single-lock store and
	// on any sharded configuration.
	hs := randomHashes(9, 300)
	stores := []*Store{NewStoreSharded(1), NewStoreSharded(4), NewStoreSharded(64)}
	for _, s := range stores {
		for i, h := range hs {
			s.PutHashed(h, int64(i%97)+1)
			s.PutHashed(h, int64(i%97)+1) // duplicate: a hit
		}
	}
	for _, s := range stores[1:] {
		if s.UniqueChunks() != stores[0].UniqueChunks() ||
			s.StoredBytes() != stores[0].StoredBytes() ||
			s.Hits() != stores[0].Hits() {
			t.Fatalf("shards=%d disagrees with single-lock: chunks %d/%d bytes %d/%d hits %d/%d",
				s.Shards(), s.UniqueChunks(), stores[0].UniqueChunks(),
				s.StoredBytes(), stores[0].StoredBytes(), s.Hits(), stores[0].Hits())
		}
	}
}

func TestNewStoreShardedRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		if got := NewStoreSharded(tc.in).Shards(); got != tc.want {
			t.Errorf("NewStoreSharded(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// claim is the (instant, user) pair of one would-be uploader, as the
// tests spell it; the store keeps the pair inline in its chunk entry.
type claim struct {
	at   int64
	user int64
}

func TestClaimEarliestWins(t *testing.T) {
	h := HashBytes([]byte("popular chunk"))
	// Claims arrive in scrambled execution order; the (at, user)
	// minimum must win regardless.
	orders := [][]claim{
		{{at: 30, user: 2}, {at: 10, user: 5}, {at: 20, user: 1}},
		{{at: 10, user: 5}, {at: 20, user: 1}, {at: 30, user: 2}},
		{{at: 20, user: 1}, {at: 30, user: 2}, {at: 10, user: 5}},
	}
	for _, order := range orders {
		s := NewStore()
		for _, c := range order {
			s.Claim(h, 100, c.at, c.user)
		}
		if !s.Winner(h, 10, 5) {
			t.Fatalf("order %v: earliest claim lost", order)
		}
		for _, c := range order {
			if (c != claim{at: 10, user: 5}) && s.Winner(h, c.at, c.user) {
				t.Fatalf("order %v: losing claim %v reported as winner", order, c)
			}
		}
		if s.UniqueChunks() != 1 || s.Hits() != 2 {
			t.Fatalf("claim counters: chunks=%d hits=%d",
				s.UniqueChunks(), s.Hits())
		}
	}
}

func TestClaimTieBreaksOnUser(t *testing.T) {
	s := NewStore()
	h := HashBytes([]byte("tie"))
	s.Claim(h, 1, 50, 9)
	s.Claim(h, 1, 50, 3)
	if !s.Winner(h, 50, 3) || s.Winner(h, 50, 9) {
		t.Fatal("equal-instant tie must resolve to the lower user index")
	}
}

func TestWinnerOnUnclaimedHash(t *testing.T) {
	s := NewStore()
	h := HashBytes([]byte("never claimed"))
	if s.Winner(h, 0, 0) {
		t.Fatal("Winner on empty store")
	}
	s.PutHashed(h, 5) // plain put, no claim
	if s.Winner(h, 0, 0) {
		t.Fatal("Winner on a put-only chunk")
	}
}

// shardGroups splits hashes (with parallel sizes) into per-shard
// groups the way the fleet's batching sinks do, preserving
// first-appearance order within each group.
func shardGroups(s *Store, hs []Hash, sizes []int64) (groups [][]Hash, groupSizes [][]int64) {
	byShard := make(map[int]int)
	for i, h := range hs {
		sh := s.ShardOf(h)
		gi, ok := byShard[sh]
		if !ok {
			gi = len(groups)
			byShard[sh] = gi
			groups = append(groups, nil)
			groupSizes = append(groupSizes, nil)
		}
		groups[gi] = append(groups[gi], h)
		groupSizes[gi] = append(groupSizes[gi], sizes[i])
	}
	return groups, groupSizes
}

func TestClaimBatchMatchesPerChunkClaims(t *testing.T) {
	// ClaimBatchRef promises exact equivalence with the per-chunk
	// calls: same winners, same counters. Drive the same
	// claim schedule — several users, overlapping chunk sets — through
	// both surfaces and compare everything observable.
	hs := randomHashes(11, 200)
	rng := sim.NewRNG(13)
	type session struct {
		at, user int64
		hs       []Hash
		sizes    []int64
	}
	var sessions []session
	for u := int64(0); u < 40; u++ {
		sess := session{at: int64(rng.Intn(1000)), user: u}
		for k := 0; k < 10; k++ {
			sess.hs = append(sess.hs, hs[rng.Intn(len(hs))])
			sess.sizes = append(sess.sizes, int64(rng.Intn(500))+1)
		}
		sessions = append(sessions, sess)
	}

	ref, batched := NewStoreSharded(8), NewStoreSharded(8)
	for _, sess := range sessions {
		for i, h := range sess.hs {
			ref.Claim(h, sess.sizes[i], sess.at, sess.user)
		}
		groups, groupSizes := shardGroups(batched, sess.hs, sess.sizes)
		for g := range groups {
			refs := make([]ChunkRef, len(groups[g]))
			batched.ClaimBatchRef(groups[g], groupSizes[g], sess.at, sess.user, refs)
		}
	}

	if ref.UniqueChunks() != batched.UniqueChunks() || ref.StoredBytes() != batched.StoredBytes() ||
		ref.Hits() != batched.Hits() {
		t.Fatalf("counters diverged: chunks %d/%d bytes %d/%d hits %d/%d",
			ref.UniqueChunks(), batched.UniqueChunks(), ref.StoredBytes(), batched.StoredBytes(),
			ref.Hits(), batched.Hits())
	}
	for _, sess := range sessions {
		for _, h := range sess.hs {
			got, want := batched.Winner(h, sess.at, sess.user), ref.Winner(h, sess.at, sess.user)
			if got != want {
				t.Fatalf("user %d chunk %v: batched Winner=%v, per-chunk Winner=%v", sess.user, h, got, want)
			}
		}
	}
}

// nil2 returns n zero sizes — shardGroups needs a parallel slice even
// when the caller only cares about the hash grouping.
func nil2(n int) []int64 { return make([]int64, n) }

func TestClaimBatchRefResolvesLikeWinner(t *testing.T) {
	// A ref handed out by ClaimBatchRef must resolve (via WonBy)
	// exactly as a Winner probe for the same hash, including after
	// later claims displace the provisional winner.
	s := NewStoreSharded(4)
	hs := randomHashes(21, 64)
	sizes := nil2(len(hs))
	for i := range sizes {
		sizes[i] = int64(i) + 1
	}

	type claimed struct {
		at, user int64
		hs       []Hash
		refs     []ChunkRef
	}
	var all []claimed
	for u := int64(0); u < 8; u++ {
		// Later users claim earlier instants, so winners keep moving.
		at := int64(100 - u*10)
		c := claimed{at: at, user: u}
		groups, groupSizes := shardGroups(s, hs[:32+u*4], sizes[:32+u*4])
		for g := range groups {
			refs := make([]ChunkRef, len(groups[g]))
			s.ClaimBatchRef(groups[g], groupSizes[g], at, u, refs)
			c.hs = append(c.hs, groups[g]...)
			c.refs = append(c.refs, refs...)
		}
		all = append(all, c)
	}
	for _, c := range all {
		for i, h := range c.hs {
			if got, want := c.refs[i].WonBy(c.at, c.user), s.Winner(h, c.at, c.user); got != want {
				t.Fatalf("user %d chunk %v: WonBy=%v, Winner=%v", c.user, h, got, want)
			}
		}
	}
	if (ChunkRef{}).WonBy(0, 0) {
		t.Fatal("zero ChunkRef reported a win")
	}
}

func TestNewStoreShardedSizedBehavesLikeUnsized(t *testing.T) {
	// The capacity hint is allocation-only: any hint (absurd ones
	// included) must leave behaviour untouched.
	hs := randomHashes(31, 400)
	ref := NewStoreSharded(16)
	for i, h := range hs {
		ref.PutHashed(h, int64(i)+1)
	}
	for _, hint := range []int{-5, 0, 10, 100_000} {
		s := NewStoreShardedSized(16, hint)
		if s.Shards() != ref.Shards() {
			t.Fatalf("hint %d changed shard count: %d", hint, s.Shards())
		}
		for i, h := range hs {
			s.PutHashed(h, int64(i)+1)
		}
		for _, h := range hs {
			if s.Has(h) != ref.Has(h) || s.Size(h) != ref.Size(h) {
				t.Fatalf("hint %d diverged on Has/Size", hint)
			}
		}
		if s.UniqueChunks() != ref.UniqueChunks() || s.StoredBytes() != ref.StoredBytes() {
			t.Fatalf("hint %d: chunks %d/%d bytes %d/%d", hint,
				s.UniqueChunks(), ref.UniqueChunks(), s.StoredBytes(), ref.StoredBytes())
		}
	}
}

func TestClaimAndPutShareChunkSpace(t *testing.T) {
	// A chunk uploaded via the plain client path dedups against a
	// fleet claim and vice versa: one content-addressed space.
	s := NewStore()
	h := HashBytes([]byte("shared space"))
	s.Claim(h, 42, 7, 1)
	if s.PutHashed(h, 42) {
		t.Fatal("PutHashed after Claim claimed new")
	}
	if s.UniqueChunks() != 1 || s.StoredBytes() != 42 {
		t.Fatalf("chunks=%d bytes=%d", s.UniqueChunks(), s.StoredBytes())
	}
}

func TestEntrySlabPanicsAtInt32Limit(t *testing.T) {
	// A slab one block short of the limit (2^21 block headers, ~48 MiB)
	// still hands out the largest index, 2^31-1; the next chunk would
	// wrap the int32 index negative, so alloc must refuse it.
	var s entrySlab
	s.blocks = make([][]entry, entrySlabMaxBlocks-1, entrySlabMaxBlocks)
	s.blocks[len(s.blocks)-1] = make([]entry, entrySlabBlock)
	var idx int32
	for i := 0; i < entrySlabBlock; i++ {
		idx, _ = s.alloc()
	}
	if idx != math.MaxInt32 {
		t.Fatalf("last index below the limit = %d, want %d", idx, int32(math.MaxInt32))
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "int32 slab index limit") {
			t.Fatalf("alloc past the limit: recovered %q, want the int32 limit panic", msg)
		}
	}()
	s.alloc()
}
