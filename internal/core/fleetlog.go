package core

import (
	"time"

	"repro/internal/dedup"
)

// This file is the fleet engine's session log: the structure that
// makes the fleet day one-pass. The claim pass records each stripe's
// session stream — user, virtual instant, file count, and the
// (store ref, size) run of every chunk — into flat append-only arenas;
// the resolve pass then replays the log instead of re-deriving the
// whole day from seeds, so RNG forks, arrival draws, descriptor
// chunking and chunk hashing run once per day instead of twice.
//
// The log holds only what the resolve pass reads. A chunk is its
// claimed store ref plus its size — 16 bytes — never its hash: equal
// chunks share one store entry, so the ref is the chunk's identity for
// within-session dedup and its winner verdict at once. A million-user
// default-mix day logs about 280 MiB of arena payload, less than the
// store's own slab and keys for the same day, so the log has no budget
// of its own. TestFleetLogReplayMatchesGeneration pins the recorded
// stream against a generation walk.

// fleetLog is one stripe's recorded session stream. Sessions and
// chunks live in parallel flat slices — one arena append per chunk and
// per session, no per-session allocations.
type fleetLog struct {
	// Per-session headers. chunkEnd[i] is the end offset of session
	// i's chunk run in the chunk arenas; the run starts at
	// chunkEnd[i-1] (0 for the first session).
	users    []int64
	atNs     []int64
	files    []int32
	chunkEnd []int64

	// Chunk arenas shared by all sessions of the stripe. refs is
	// filled in by the claim pass as each session's ClaimBatchRef
	// returns: refs[j] is the store entry of the chunk's content
	// address, which is what lets the replay resolve winners without
	// touching the store's maps or locks.
	sizes []int64
	refs  []dedup.ChunkRef
}

// startSession opens a session header.
func (l *fleetLog) startSession(user int64, at time.Duration) {
	l.users = append(l.users, user)
	l.atNs = append(l.atNs, int64(at))
	l.files = append(l.files, 0)
	l.chunkEnd = append(l.chunkEnd, int64(len(l.refs)))
}

// chunk appends one chunk of the given size to the open session's run
// and returns its arena index; its ref is filed at that index once the
// session's claims return.
func (l *fleetLog) chunk(size int64) int64 {
	l.sizes = append(l.sizes, size)
	l.refs = append(l.refs, dedup.ChunkRef{})
	l.chunkEnd[len(l.chunkEnd)-1] = int64(len(l.refs))
	return int64(len(l.refs)) - 1
}

// endSession seals the open session with its file count.
func (l *fleetLog) endSession(files int) {
	l.files[len(l.files)-1] = int32(files)
}

// replay drives the resolve pass through the recorded session stream,
// in recording order — the order walkFleetStripe generated it in.
func (l *fleetLog) replay(s *resolveSink) {
	var start int64
	for i, user := range l.users {
		s.StartSession(user, time.Duration(l.atNs[i]))
		end := l.chunkEnd[i]
		for j := start; j < end; j++ {
			s.ChunkResolved(l.refs[j], l.sizes[j])
		}
		s.EndSession(int(l.files[i]))
		start = end
	}
}
