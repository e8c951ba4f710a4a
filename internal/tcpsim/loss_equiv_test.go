package tcpsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file pins the lossy halves of the engine equivalence:
//
//  1. Exact: under injected loss positions (the seam both engines
//     share) analytic and event loop are deterministic and must agree
//     bit for bit — records, timelines, byte counters.
//  2. Distributional: under the RNG the draw sequences necessarily
//     differ (one geometric draw per loss vs one uniform draw per
//     round), so the engines are compared as samplers of the same
//     per-round Bernoulli process: retransmit-count and
//     completion-time means within confidence bounds and a two-sample
//     chi-square over the loss-count histogram.
//
// Plus the geometric sampler's edges: p→0, p=1, losses scripted past
// the end of the transfer, and float underflow in the log inversion.

// lossScriptFor generates one injected-loss script: a mix of sparse
// positions, bursts of consecutive positions (several losses inside
// one round — a single recovery), duplicates, position zero and
// positions far beyond the transfer.
func lossScriptFor(rng *rand.Rand) []int64 {
	var script []int64
	if rng.Intn(6) == 0 {
		return script // no losses at all
	}
	if rng.Intn(3) == 0 {
		script = append(script, 0) // lose the very first segment
	}
	for i, n := 0, rng.Intn(40); i < n; i++ {
		pos := int64(rng.Intn(20000))
		script = append(script, pos)
		switch rng.Intn(4) {
		case 0: // cluster: consecutive segments of one round
			script = append(script, pos+1, pos+2)
		case 1: // duplicate
			script = append(script, pos)
		}
	}
	if rng.Intn(2) == 0 {
		script = append(script, int64(1<<40)) // far beyond any transfer
	}
	return script
}

// TestInjectedLossExactEquivalence replays random operation scripts
// against both engines with identical injected loss positions: flow
// metadata, expanded records, op timelines and byte counters must be
// bit-identical, and neither engine may touch the RNG for verdicts.
func TestInjectedLossExactEquivalence(t *testing.T) {
	for _, cfg := range engineConfigs {
		for seed := int64(0); seed < 8; seed++ {
			a, b, capA, capB := enginePair(cfg, seed+1, 0)
			script := lossScriptFor(rand.New(rand.NewSource(seed * 7)))
			a.d.InjectLossPositions(script)
			b.d.InjectLossPositions(script)
			// A non-zero LossRate must be ignored while scripted.
			a.d.Net.LossRate = 0.5
			b.d.Net.LossRate = 0.5

			marksA := replayScript(a, rand.New(rand.NewSource(seed)))
			marksB := replayScript(b, rand.New(rand.NewSource(seed)))

			if len(marksA) != len(marksB) {
				t.Fatalf("%s seed %d: op count diverged", cfg.name, seed)
			}
			for i := range marksA {
				if !marksA[i].Equal(marksB[i]) {
					t.Fatalf("%s seed %d: op %d completed at %v (analytic) vs %v (event loop)",
						cfg.name, seed, i, marksA[i], marksB[i])
				}
			}
			pa, pb := capA.ExpandedPackets(), capB.ExpandedPackets()
			if len(pa) != len(pb) {
				t.Fatalf("%s seed %d: %d expanded records (analytic) vs %d (event loop)",
					cfg.name, seed, len(pa), len(pb))
			}
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("%s seed %d: record %d differs\n analytic   %+v\n event loop %+v",
						cfg.name, seed, i, pa[i], pb[i])
				}
			}
			if a.BytesUp() != b.BytesUp() || a.BytesDown() != b.BytesDown() {
				t.Fatalf("%s seed %d: byte counters diverged", cfg.name, seed)
			}
			if a.d.LossDraws() != 0 || b.d.LossDraws() != 0 {
				t.Fatalf("%s seed %d: scripted mode consumed RNG draws (%d, %d)",
					cfg.name, seed, a.d.LossDraws(), b.d.LossDraws())
			}
		}
	}
}

// lossyRunStats sends one fixed transfer through the chosen engine at
// the given loss rate and returns (retransmit count, completion
// seconds).
func lossyRunStats(cfg engineConfig, seed int64, loss float64, force bool) (int64, float64) {
	n := netem.New(sim.NewClock(), sim.NewRNG(seed))
	n.LossRate = loss
	client := n.AddHost(&netem.Host{Name: "client.sim", Addr: "10.0.0.1",
		Coord: geo.Coord{Lat: 52.22, Lon: 6.89}})
	server := n.AddHost(&netem.Host{Name: "server.sim", Addr: "203.0.113.1",
		Coord: cfg.coord, RateBps: cfg.rateBps, ProcDelay: cfg.proc})
	cap := trace.NewCapture()
	d := NewDialer(n, cap, client)
	if force {
		useEventLoop(d)
	}
	c := d.Dial(server, cfg.name, sim.Epoch, cfg.tls)
	start := c.FreeAt()
	last, _ := c.Send(1 << 20)
	return countRetransmitRecords(cap), last.Sub(start).Seconds()
}

// countRetransmitRecords counts fast-retransmit records in a capture:
// single payload-free data-sized segments that are neither handshake
// nor teardown.
func countRetransmitRecords(cap *trace.Capture) int64 {
	var n int64
	for _, p := range cap.ExpandedPackets() {
		if p.Payload == 0 && p.Segments == 1 && p.Wire == MSS+HeaderPerSeg &&
			!p.Flags.SYN && !p.Flags.FIN && !p.Flags.RST {
			n++
		}
	}
	return n
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)-1))
	return mean, std
}

// meansCompatible checks |meanA − meanB| against a 5-sigma confidence
// bound on the difference of the two sample means (plus a small
// absolute floor for near-degenerate samples).
func meansCompatible(as, bs []float64) (diff, bound float64, ok bool) {
	ma, sa := meanStd(as)
	mb, sb := meanStd(bs)
	diff = math.Abs(ma - mb)
	bound = 5*math.Sqrt(sa*sa/float64(len(as))+sb*sb/float64(len(bs))) + 1e-9 + 0.02*math.Abs(ma)
	return diff, bound, diff <= bound
}

// chiSquare computes the two-sample chi-square statistic between two
// equally sized samples of counts, over quantile bins of the combined
// sample.
func chiSquare(as, bs []float64) float64 {
	combined := append(append([]float64(nil), as...), bs...)
	sort.Float64s(combined)
	const bins = 5
	edges := make([]float64, 0, bins-1)
	for i := 1; i < bins; i++ {
		e := combined[i*len(combined)/bins]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	binOf := func(x float64) int {
		for i, e := range edges {
			if x < e {
				return i
			}
		}
		return len(edges)
	}
	na := make([]float64, len(edges)+1)
	nb := make([]float64, len(edges)+1)
	for _, x := range as {
		na[binOf(x)]++
	}
	for _, x := range bs {
		nb[binOf(x)]++
	}
	var chi2 float64
	for i := range na {
		if s := na[i] + nb[i]; s > 0 {
			d := na[i] - nb[i]
			chi2 += d * d / s
		}
	}
	return chi2
}

// TestLossyDistributionalEquivalence compares the two engines as
// samplers of the per-round Bernoulli loss process: across seeds, the
// retransmit-count and completion-time distributions of a fixed 1 MB
// transfer must agree in mean (5-sigma bound) and shape (two-sample
// chi-square over the loss-count histogram) for representative
// profile paths × loss {0.5%, 2%, 8%}. This test is in the
// race-enabled CI set.
func TestLossyDistributionalEquivalence(t *testing.T) {
	configs := []engineConfig{engineConfigs[1], engineConfigs[4], engineConfigs[6]}
	const seeds = 80
	for _, cfg := range configs {
		for _, loss := range []float64{0.005, 0.02, 0.08} {
			retA := make([]float64, 0, seeds)
			retB := make([]float64, 0, seeds)
			cplA := make([]float64, 0, seeds)
			cplB := make([]float64, 0, seeds)
			for seed := int64(1); seed <= seeds; seed++ {
				ra, ca := lossyRunStats(cfg, seed, loss, false)
				rb, cb := lossyRunStats(cfg, 1000+seed, loss, true)
				retA = append(retA, float64(ra))
				retB = append(retB, float64(rb))
				cplA = append(cplA, ca)
				cplB = append(cplB, cb)
			}
			if d, b, ok := meansCompatible(retA, retB); !ok {
				t.Errorf("%s loss=%v: retransmit means diverge: |Δ|=%.3f > %.3f", cfg.name, loss, d, b)
			}
			if d, b, ok := meansCompatible(cplA, cplB); !ok {
				t.Errorf("%s loss=%v: completion means diverge: |Δ|=%.4fs > %.4fs", cfg.name, loss, d, b)
			}
			if chi2 := chiSquare(retA, retB); chi2 > 30 {
				t.Errorf("%s loss=%v: loss-count chi-square %.1f > 30", cfg.name, loss, chi2)
			}
		}
	}
}

// TestLossGapSamplerEdges pins the pure geometric inversion at its
// numerical edges.
func TestLossGapSamplerEdges(t *testing.T) {
	if g := lossGap(0.5, 1); g != 0 {
		t.Fatalf("lossGap(0.5, p=1) = %v, want 0 (certain loss)", g)
	}
	if g := lossGap(0.5, 2); g != 0 {
		t.Fatalf("lossGap(0.5, p=2) = %v, want 0", g)
	}
	if g := lossGap(0, 0.02); !math.IsInf(g, 1) {
		t.Fatalf("lossGap(u=0) = %v, want +Inf (measure-zero draw must not NaN)", g)
	}
	// Denormal u: log of the smallest positive float is finite, the
	// gap must be finite, non-negative and integral.
	if g := lossGap(5e-324, 0.02); math.IsNaN(g) || g < 0 || g != math.Floor(g) || math.IsInf(g, 0) {
		t.Fatalf("lossGap(denormal u) = %v, want a finite non-negative integer", g)
	}
	// Vanishing p: log1p(-p) underflows toward 0, the ratio blows up —
	// must come out as a huge value or +Inf, never NaN or negative.
	for _, p := range []float64{1e-300, 5e-324} {
		if g := lossGap(0.5, p); math.IsNaN(g) || g < 1e100 {
			t.Fatalf("lossGap(0.5, p=%g) = %v, want huge/+Inf", p, g)
		}
	}
	// Exact geometric boundaries: u = (1−p)^k maps to gap k.
	for k := float64(0); k < 8; k++ {
		if g := lossGap(math.Pow(0.5, k), 0.5); g != k {
			t.Fatalf("lossGap(0.5^%v, 0.5) = %v, want %v", k, g, k)
		}
	}
	// Monotone: a smaller draw means a more negative ln(u) and so a
	// larger gap.
	if lossGap(0.01, 0.02) < lossGap(0.9, 0.02) {
		t.Fatal("lossGap not monotone decreasing in u")
	}
}

// TestCertainLossMatchesEventLoop pins p=1: every round is lossy in
// both engines with no distributional slack, so the full traces must
// be identical — window pinned at the 2-MSS floor, one retransmit per
// round.
func TestCertainLossMatchesEventLoop(t *testing.T) {
	for _, cfg := range []engineConfig{engineConfigs[1], engineConfigs[5]} {
		a, b, capA, capB := enginePair(cfg, 1, 1.0)
		a.Send(300 << 10)
		b.Send(300 << 10)
		pa, pb := capA.ExpandedPackets(), capB.ExpandedPackets()
		if len(pa) != len(pb) {
			t.Fatalf("%s: %d records (analytic) vs %d (event loop)", cfg.name, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: record %d differs\n analytic   %+v\n event loop %+v", cfg.name, i, pa[i], pb[i])
			}
		}
		if countRetransmitRecords(capA) == 0 {
			t.Fatalf("%s: no retransmissions at p=1", cfg.name)
		}
	}
}

// TestVanishingLossFallsThroughToFastPath pins p→0: the sampled loss
// position lands beyond any finite transfer, so the engine emits
// exactly the loss-free closed form (spans included) at the cost of a
// single RNG draw.
func TestVanishingLossFallsThroughToFastPath(t *testing.T) {
	_, capClean, dClean, serverClean := testbed(zrhCoord(), 30e6, 0)
	cClean := dClean.Dial(serverClean, "s", sim.Epoch, PlainTCP)
	cClean.Send(16 << 20)

	_, cap, d, server := testbed(zrhCoord(), 30e6, 0)
	d.Net.LossRate = 1e-18
	c := d.Dial(server, "s", sim.Epoch, PlainTCP)
	c.Send(16 << 20)

	if cap.SpanCount() == 0 {
		t.Fatal("vanishing loss rate did not take the span fast path")
	}
	if got := countRetransmitRecords(cap); got != 0 {
		t.Fatalf("%d retransmissions at p=1e-18", got)
	}
	if got := d.LossDraws(); got != 1 {
		t.Fatalf("LossDraws = %d, want exactly 1 (one sampled position, never reached)", got)
	}
	pa, pb := cap.ExpandedPackets(), capClean.ExpandedPackets()
	if len(pa) != len(pb) {
		t.Fatalf("record counts differ from clean run: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("record %d differs from clean run:\n lossy %+v\n clean %+v", i, pa[i], pb[i])
		}
	}
}

// TestFinalBurstLossEquivalence pins verdicts on bursts that cover the
// remainder of the transfer — including a scripted loss inside the
// very last burst, and one scripted beyond the transfer that must
// carry over to the next transfer on the same connection, exactly as
// the event loop's cursor does.
func TestFinalBurstLossEquivalence(t *testing.T) {
	run := func(script []int64) (*Conn, *Conn, *trace.Capture, *trace.Capture) {
		cfg := engineConfig{"uncapped-final", geo.Coord{Lat: 39.04, Lon: -77.49}, 0, 0, PlainTCP}
		a, b, capA, capB := enginePair(cfg, 1, 0)
		a.d.InjectLossPositions(script)
		b.d.InjectLossPositions(script)
		return a, b, capA, capB
	}

	// Loss inside the only (and final) burst: 5000 bytes fit in the
	// initial window, segment 2 is scripted.
	a, b, capA, capB := run([]int64{2})
	lastA, _ := a.Send(5000)
	lastB, _ := b.Send(5000)
	if !lastA.Equal(lastB) {
		t.Fatalf("final-burst loss: completion %v (analytic) vs %v (event loop)", lastA, lastB)
	}
	if got := countRetransmitRecords(capA); got != 1 {
		t.Fatalf("final-burst loss: %d retransmissions, want 1", got)
	}
	// The recovery costs one extra RTT relative to a clean send.
	ac, bc, _, _ := run(nil)
	cleanA, _ := ac.Send(5000)
	bc.Send(5000)
	if want := cleanA.Add(a.RTT()); !lastA.Equal(want) {
		t.Fatalf("final-burst loss completion %v, want clean+RTT %v", lastA, want)
	}

	// Scripted position beyond the first transfer: silent now, must
	// fire at the right segment of the NEXT transfer on the same
	// connection in both engines.
	a, b, capA, capB = run([]int64{100})
	a.Send(5000)
	b.Send(5000)
	if got := countRetransmitRecords(capA); got != 0 {
		t.Fatalf("loss beyond transfer fired early: %d retransmissions", got)
	}
	a.Send(1 << 20)
	b.Send(1 << 20)
	pa, pb := capA.ExpandedPackets(), capB.ExpandedPackets()
	if len(pa) != len(pb) {
		t.Fatalf("carry-over script: %d vs %d records", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("carry-over script: record %d differs\n analytic   %+v\n event loop %+v", i, pa[i], pb[i])
		}
	}
	if got := countRetransmitRecords(capA); got != 1 {
		t.Fatalf("carry-over script: %d retransmissions, want 1", got)
	}
}

// TestAnalyticLossDrawReduction pins the analytic engine's perf
// contract: on a paper-grade mobile-uplink path
// (2 Mb/s, WhatIfMobileUplink's rate) a 16 MB transfer at 2% loss
// consumes >=10x fewer RNG draws and emits far fewer records under
// the analytic engine than under the event loop.
func TestAnalyticLossDrawReduction(t *testing.T) {
	cfg := engineConfig{"uplink-2mbps", zrhCoord(), 2e6, 0, PlainTCP}
	a, b, capA, capB := enginePair(cfg, 1, 0.02)
	a.Send(16 << 20)
	b.Send(16 << 20)
	da, db := a.d.LossDraws(), b.d.LossDraws()
	if da == 0 || db == 0 {
		t.Fatalf("draw counters silent: analytic %d, event loop %d", da, db)
	}
	if da*10 > db {
		t.Fatalf("RNG draws: analytic %d vs event loop %d — want >=10x reduction", da, db)
	}
	if capA.Len()*4 > capB.Len() {
		t.Fatalf("records: analytic %d vs event loop %d — want >=4x reduction", capA.Len(), capB.Len())
	}
}
