package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/compressor"
	"repro/internal/workload"
)

// The seed decides every simulated byte and jitter draw, but not the
// structure of the simulation: file sizes, connection counts, metric
// shapes, and — where content entropy is the only variable — the
// exact traffic volumes. This file is the randomized harness pinning
// that structure across pairs of seeds.

// runRepSeed executes one streamed campaign repetition.
func runRepSeed(p client.Profile, batch workload.Batch, seed int64) Metrics {
	tb := NewStreamingTestbed(p, seed, DefaultJitter)
	start := tb.Settle()
	t0 := tb.Clock.Now()
	tb.StartWindow(t0)
	batch.Materialize(tb.Folder, tb.RNG, t0, "bench")
	res := tb.Client.SyncChanges(tb.Folder, start.Add(-time.Second))
	tb.Clock.AdvanceTo(res.Done)
	return MeasureWindow(tb, t0, batch.Total())
}

// within reports |a-b| <= frac*max(a,b) for positive quantities.
func within(a, b, frac float64) bool {
	if a == b {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= frac*m
}

// TestPCGSeedPairStructuralEquivalence runs randomized campaign cells
// under a seed and its partner seed^0x5bd1e995 and pins the structure
// the seed does not decide:
//
//   - Connections are byte-independent (file counts and connection
//     strategy decide them): exactly equal.
//   - Every metric keeps its shape: populated, positive, overhead
//     consistent with traffic.
//   - Traffic volumes agree within a small band — content entropy is
//     the same under every seed, so only chunk-boundary and
//     compression noise may move them (and for a no-capability client
//     over incompressible content, only ACK noise).
//   - Each run is deterministic: re-running a cell reproduces it bit
//     for bit.
func TestPCGSeedPairStructuralEquivalence(t *testing.T) {
	meta := rand.New(rand.NewSource(17))
	kinds := []workload.Kind{workload.Binary, workload.Text, workload.FakeJPEG}
	for _, p := range client.Profiles() {
		for trial := 0; trial < 3; trial++ {
			batch := workload.Batch{
				Count: 1 + meta.Intn(20),
				Size:  int64(5_000 + meta.Intn(400_000)),
				Kind:  kinds[meta.Intn(len(kinds))],
			}
			seed := meta.Int63n(1 << 30)
			partner := seed ^ 0x5bd1e995
			a := runRepSeed(p, batch, seed)
			b := runRepSeed(p, batch, partner)

			if a.Connections != b.Connections {
				t.Errorf("%s %s seed=%d: connections %d vs %d (partner seed)",
					p.Service, batch, seed, a.Connections, b.Connections)
			}
			for _, v := range []struct {
				name string
				pair [2]float64
			}{
				{"TotalTraffic", [2]float64{float64(a.TotalTraffic), float64(b.TotalTraffic)}},
				{"StorageUp", [2]float64{float64(a.StorageUp), float64(b.StorageUp)}},
			} {
				name, pair := v.name, v.pair
				if pair[0] <= 0 || pair[1] <= 0 {
					t.Errorf("%s %s seed=%d: %s not populated (%v, partner %v)",
						p.Service, batch, seed, name, pair[0], pair[1])
				}
				// Content entropy is equivalent; only chunk boundaries
				// (CDC) and DEFLATE noise may move volumes.
				if !within(pair[0], pair[1], 0.03) {
					t.Errorf("%s %s seed=%d: %s drifted beyond noise: %v vs %v",
						p.Service, batch, seed, name, pair[0], pair[1])
				}
			}
			if p.Compression == compressor.None && p.ChunkMode != client.VariableChunks &&
				batch.Kind == workload.Binary {
				// No capability reads content, so payload volumes are
				// a pure function of sizes; only ACK coalescing (a
				// timing effect of the differing jitter draws) may
				// move the wire total, and only by a handful of bare
				// segments.
				if !within(float64(a.TotalTraffic), float64(b.TotalTraffic), 0.001) ||
					!within(float64(a.StorageUp), float64(b.StorageUp), 0.001) {
					t.Errorf("%s %s seed=%d: byte-independent traffic differs beyond ACK noise: %d/%d vs %d/%d",
						p.Service, batch, seed,
						a.TotalTraffic, a.StorageUp, b.TotalTraffic, b.StorageUp)
				}
			}
			for _, v := range []struct {
				name string
				pair [2]time.Duration
			}{
				{"Startup", [2]time.Duration{a.Startup, b.Startup}},
				{"Completion", [2]time.Duration{a.Completion, b.Completion}},
			} {
				name, pair := v.name, v.pair
				if pair[0] <= 0 || pair[1] <= 0 {
					t.Errorf("%s %s seed=%d: %s not populated", p.Service, batch, seed, name)
				}
				// Jitter draws differ between seeds (±10% scheduling
				// noise plus RTT jitter); shapes must stay comparable.
				if !within(float64(pair[0]), float64(pair[1]), 0.35) {
					t.Errorf("%s %s seed=%d: %s shape broke: %v vs %v",
						p.Service, batch, seed, name, pair[0], pair[1])
				}
			}
			if !within(a.Overhead, float64(a.TotalTraffic)/float64(batch.Total()), 1e-9) {
				t.Errorf("%s %s: overhead inconsistent with traffic", p.Service, batch)
			}

			if again := runRepSeed(p, batch, seed); again != a {
				t.Errorf("%s %s seed=%d: run not deterministic", p.Service, batch, seed)
			}
			if again := runRepSeed(p, batch, partner); again != b {
				t.Errorf("%s %s seed=%d: run not deterministic", p.Service, batch, partner)
			}
		}
	}
}
