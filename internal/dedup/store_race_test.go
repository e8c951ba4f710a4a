package dedup

import (
	"sync"
	"testing"
)

// TestStoreConcurrentStress hammers one store from many goroutines
// mixing every operation the fleet performs concurrently — PutHashed,
// Put, Has, Claim, Winner and the aggregated counter reads. CI's
// -race job (go test -race ./internal/...) runs this with the race
// detector on; the final-state assertions below catch lost updates
// that a data race could cause even when the detector is off.
func TestStoreConcurrentStress(t *testing.T) {
	const (
		workers       = 16
		opsPerWorker  = 2000
		sharedHashes  = 128 // contended: every worker touches these
		privatePerGor = 64  // uncontended: worker-unique chunks
	)
	shared := randomHashes(101, sharedHashes)

	for _, shards := range []int{1, 64} {
		s := NewStoreSharded(shards)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				private := randomHashes(int64(1000+w), privatePerGor)
				for i := 0; i < opsPerWorker; i++ {
					h := shared[(i*7+w)%sharedHashes]
					switch i % 5 {
					case 0:
						s.PutHashed(h, 100)
					case 1:
						s.Has(h)
						s.PutHashed(private[i%privatePerGor], 10)
					case 2:
						// Claims from distinct (at, user) pairs; the
						// winner must be the minimum regardless of
						// interleaving.
						s.Claim(h, 100, int64(w*opsPerWorker+i), int64(w))
					case 3:
						// Batched claims and a winner probe: a
						// single-chunk batch is the degenerate shard
						// group, so it contends with the unbatched
						// ops above on the same hashes. The claim
						// instants sit above every case-2 instant, so
						// they never displace the minimum the final
						// assertions predict.
						hb := [1]Hash{h}
						sb := [1]int64{100}
						at := int64((workers+w)*opsPerWorker + i)
						var refs [1]ChunkRef
						s.ClaimBatchRef(hb[:], sb[:], at, int64(w), refs[:])
						s.ClaimBatchRef(hb[:], sb[:], at+1, int64(w), refs[:])
						s.Winner(h, 0, 0)
						// refs[0].WonBy is deliberately NOT read here:
						// it is a lock-free resolve-phase read, legal
						// only after claim traffic has quiesced.
						s.Size(h)
					case 4:
						// Aggregated counter reads overlapping writers.
						s.StoredBytes()
						s.UniqueChunks()
						s.Hits()
					}
				}
			}(w)
		}
		wg.Wait()

		wantUnique := sharedHashes + workers*privatePerGor
		if got := s.UniqueChunks(); got != wantUnique {
			t.Fatalf("shards=%d: UniqueChunks = %d, want %d (lost updates?)", shards, got, wantUnique)
		}
		wantBytes := int64(sharedHashes*100 + workers*privatePerGor*10)
		if got := s.StoredBytes(); got != wantBytes {
			t.Fatalf("shards=%d: StoredBytes = %d, want %d", shards, got, wantBytes)
		}
		// Every (PutHashed|Claim|ClaimBatchRef) call either stored or
		// hit; the stress loop issues exactly 5 store-ops per 5
		// iterations (cases 0, 1, 2 one each; case 3 two).
		wantOps := int64(workers * opsPerWorker)
		if got := int64(s.UniqueChunks()) + s.Hits(); got != wantOps {
			t.Fatalf("shards=%d: UniqueChunks+Hits = %d, want %d", shards, got, wantOps)
		}
		// The winning claim of each shared chunk is the global
		// (at, user) minimum over all claimants of that hash: worker
		// w claims hash (i*7+w)%sharedHashes at instant w*ops+i, so
		// the minimal instant for every hash belongs to worker 0.
		for idx, h := range shared {
			// Worker 0 claims hash j at instants i where (i*7)%128 == j
			// and i%5 == 2; find the smallest such i.
			won := false
			for i := 0; i < opsPerWorker; i++ {
				if i%5 == 2 && (i*7)%sharedHashes == idx {
					won = s.Winner(h, int64(i), 0)
					break
				}
			}
			if !won {
				t.Fatalf("shards=%d: shared hash %d not won by its minimal claimant", shards, idx)
			}
		}
	}
}
