package core

import (
	"fmt"
	"math"

	"repro/internal/client"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the repetition engine under every repeated campaign
// layer (RunCampaign, Fig6Matrix, LossSweep, RunFullCampaign, the
// adaptive location study and capability check). One StopRule
// describes how many repetitions a cell gets: the paper's fixed count
// (FixedReps — MinReps == MaxReps) or the sequential stopping design
// of "Sampling in Cloud Benchmarking" (PAPERS.md), where a cell
// repeats in fixed-size batches and stops once the relative CI95
// half-width of its headline metrics (completion, goodput) is under
// target or a hard cap is hit. The fixed count is simply the design
// that ends after its opening batch, so both run on one driver
// (RunUntil) and one repetition body (runSyncOn).
//
// Determinism: the stopping decision is a pure function of (seed,
// rule). Batch boundaries are fixed constants of the rule — never
// derived from the worker count — and the stopping statistic is
// computed from each cell's sample in index order, so the reps
// executed and the resulting Summary are bit-identical at any worker
// count; -parallel only changes wall-clock time.

// Default stopping parameters: stop when the headline means are known
// to ±5%, never before 8 repetitions (below that the t critical value
// explodes and one outlier flips the decision), never beyond 96.
const (
	DefaultTargetRelHW = 0.05
	DefaultMinReps     = 8
	DefaultMaxReps     = 96
)

// AdaptiveBatch is the growth step of the sequential design: after
// the MinReps opening batch, repetitions are added this many at a
// time between precision checks. It is a fixed constant — batch
// boundaries gate the stopping test, so they must not depend on the
// worker count or the decision would change with -parallel.
const AdaptiveBatch = 4

// StopRule is the repetition design of a campaign layer: run at least
// MinReps repetitions per cell, then keep adding batches until the
// relative CI95 half-width of every headline metric is at most
// TargetRelHW or MaxReps is reached. MinReps == MaxReps is a fixed
// count (see FixedReps). Zero fields take the defaults above.
type StopRule struct {
	// TargetRelHW is the precision target: the CI95 half-width of
	// the mean, relative to the magnitude of the mean.
	TargetRelHW float64
	// MinReps is the smallest sample the rule may stop at (raised to
	// 2 when the rule may stop early, so a half-width exists; to 4
	// under antithetic pairing).
	MinReps int
	// MaxReps is the hard budget cap.
	MaxReps int
	// Antithetic pairs repetitions: rep 2k+1 reuses rep 2k's seed on
	// the complemented PCG stream (sim.NewAntitheticRNG), so its
	// jitter draws mirror its twin's and pair means have less
	// variance than two independent repetitions. The stopping
	// statistic is computed over pair means, and bounds are rounded
	// to whole pairs.
	Antithetic bool
	// CRN gives every service the same repetition seed stream
	// (common random numbers) in the multi-service sweeps, so
	// cross-service Compare diffs are paired: services face
	// identical noise and their difference is not inflated by it.
	// The Fig. 6 matrix already has this property by construction
	// (fig6Seed carries no service index).
	CRN bool
}

// FixedReps is the paper's repetition design: exactly n repetitions
// per cell, no precision check. n <= 0 selects DefaultReps.
func FixedReps(n int) StopRule {
	if n <= 0 {
		n = DefaultReps
	}
	return StopRule{MinReps: n, MaxReps: n}
}

// Validate rejects a rule the engine would otherwise have to repair
// silently: a precision target outside [0, 1), negative bounds, a
// cap below the (possibly defaulted) minimum, or an antithetic bound
// too large to round up to a whole pair. Zero fields are valid and
// select the defaults.
func (r StopRule) Validate() error {
	minReps := r.MinReps
	if minReps == 0 {
		minReps = DefaultMinReps
	}
	switch {
	case !(r.TargetRelHW >= 0 && r.TargetRelHW < 1):
		return fmt.Errorf("precision must be in [0, 1) (got %g)", r.TargetRelHW)
	case r.MinReps < 0:
		return fmt.Errorf("min-reps must be >= 0 (got %d)", r.MinReps)
	case r.MaxReps < 0:
		return fmt.Errorf("max-reps must be >= 0 (got %d)", r.MaxReps)
	case r.MaxReps > 0 && r.MaxReps < minReps:
		return fmt.Errorf("max-reps %d is below min-reps %d", r.MaxReps, minReps)
	case r.Antithetic && (r.MinReps == math.MaxInt || r.MaxReps == math.MaxInt):
		return fmt.Errorf("antithetic reps must be below %d", math.MaxInt)
	}
	return nil
}

// withDefaults resolves zero fields and orders the bounds. Under
// antithetic pairing the stopping statistic is computed over pair
// means, so a decision needs at least two complete pairs and bounds
// are rounded to whole pairs.
func (r StopRule) withDefaults() StopRule {
	if r.TargetRelHW <= 0 {
		r.TargetRelHW = DefaultTargetRelHW
	}
	if r.MinReps <= 0 {
		r.MinReps = DefaultMinReps
	}
	if r.MaxReps <= 0 {
		r.MaxReps = DefaultMaxReps
	}
	if r.Antithetic {
		r.MinReps += r.MinReps % 2
		if r.MinReps < 4 {
			r.MinReps = 4
		}
		r.MaxReps += r.MaxReps % 2
	}
	if r.MaxReps < r.MinReps {
		r.MaxReps = r.MinReps
	}
	if r.MinReps < 2 && r.MaxReps > r.MinReps {
		r.MinReps = 2
	}
	return r
}

// RunUntil is the batched sequential driver under every repeated
// layer: cells independent designs sharing one rule. Each round puts
// the next batch of every still-open cell onto one RunN — the opening
// batch has MinReps repetitions, later ones AdaptiveBatch, the last
// is clipped to MaxReps — and then asks stop, cell by cell in index
// order, whether that cell's sample so far satisfies the rule; a cell
// closes when it does or when the cap is reached (stop is not
// consulted at the cap). Batch boundaries are constants of the rule,
// so which repetitions execute is a pure function of (rule, stop),
// independent of workers. A fixed rule is a single round: the whole
// cell x repetition matrix flattened onto one pool pass. The result
// holds each cell's repetitions in index order.
func RunUntil[T any](cells int, rule StopRule, workers int, run func(cell, rep int) T, stop func(cell int, sample []T) bool) [][]T {
	rule = rule.withDefaults()
	samples := make([][]T, cells)
	open := make([]int, cells)
	for c := range open {
		open[c] = c
	}
	for done := 0; len(open) > 0; {
		size := AdaptiveBatch
		if done == 0 {
			size = rule.MinReps
		}
		size = min(size, rule.MaxReps-done)
		batch := RunN(len(open)*size, workers, func(i int) T {
			return run(open[i/size], done+i%size)
		})
		done += size
		still := open[:0]
		for k, c := range open {
			samples[c] = append(samples[c], batch[k*size:(k+1)*size]...)
			if done < rule.MaxReps && !stop(c, samples[c]) {
				still = append(still, c)
			}
		}
		open = still
	}
	return samples
}

// achievedRelHW is the stopping statistic of a cell's sample: the
// worst relative CI95 half-width over the headline metrics
// (completion, goodput), over the repetitions themselves or — under
// antithetic pairing — over the means of consecutive (plain,
// complemented) pairs. Over plain repetitions it is exactly the
// AchievedRelHW that Summarize reports.
func achievedRelHW(runs []Metrics, pairs bool) float64 {
	step := 1
	if pairs {
		step = 2
	}
	var completions, goodputs []float64
	for i := 0; i+step <= len(runs); i += step {
		c, g := float64(runs[i].Completion), runs[i].GoodputBps
		if pairs {
			c = (c + float64(runs[i+1].Completion)) / 2
			g = (g + runs[i+1].GoodputBps) / 2
		}
		completions = append(completions, c)
		goodputs = append(goodputs, g)
	}
	return math.Max(relHalfWidth(completions), relHalfWidth(goodputs))
}

// sampleCells runs one Metrics-producing design per cell under rule
// and summarizes each cell. repSeed maps (cell, rep) to the
// repetition's seed — the layer's slice of the index→seed discipline
// — and run executes one repetition of a cell on the given randomness
// root. Under antithetic pairing rep 2k+1 reuses rep 2k's seed on the
// complemented stream, and the recorded AchievedRelHW is the pair-mean
// statistic that gated stopping.
func sampleCells(cells int, rule StopRule, workers int, repSeed func(cell, rep int) int64, run func(cell int, rng *sim.RNG) Metrics) []Summary {
	rule = rule.withDefaults()
	samples := RunUntil(cells, rule, workers, func(c, rep int) Metrics {
		if rule.Antithetic && rep%2 == 1 {
			return run(c, sim.NewAntitheticRNG(repSeed(c, rep-1)))
		}
		return run(c, sim.NewRNG(repSeed(c, rep)))
	}, func(_ int, runs []Metrics) bool {
		return achievedRelHW(runs, rule.Antithetic) <= rule.TargetRelHW
	})
	out := make([]Summary, cells)
	for c, runs := range samples {
		out[c] = Summarize(runs)
		out[c].AchievedRelHW = achievedRelHW(runs, rule.Antithetic)
	}
	return out
}

// LocationSummary is one (service, vantage) cell of an adaptive
// location study: a full Summary with achieved precision, where the
// single-shot LocationStudy reports one jitter-free repetition.
type LocationSummary struct {
	Service string
	Vantage string
	Summary Summary
}

// locationSeed spreads location-study cells across the seed space;
// with CRN the service term is dropped so every service faces the
// same noise at each vantage.
func locationSeed(seed int64, si, vi int, crn bool) int64 {
	base := seed + int64(vi)*500009
	if !crn {
		base += int64(si) * 1000003
	}
	return base
}

// LocationStudyAdaptive benchmarks every service from every vantage
// under a stopping rule. Unlike the single-shot LocationStudy it
// repeats with the campaign jitter (DefaultJitter) — an adaptive cell
// without dispersion would trivially stop at MinReps — and reports
// per-cell summaries with achieved precision.
func LocationStudyAdaptive(batch workload.Batch, vantages []Vantage, rule StopRule, seed int64, workers int) []LocationSummary {
	profiles := client.Profiles()
	nv := len(vantages)
	sums := sampleCells(len(profiles)*nv, rule, workers,
		func(c, rep int) int64 { return campaignSeed(locationSeed(seed, c/nv, c%nv, rule.CRN), rep) },
		func(c int, rng *sim.RNG) Metrics {
			return runSyncOn(profiles[c/nv], batch, vantageHost(vantages[c%nv]), rng, DefaultJitter, 0)
		})
	out := make([]LocationSummary, len(sums))
	for c, s := range sums {
		out[c] = LocationSummary{Service: profiles[c/nv].Service, Vantage: vantages[c%nv].Name, Summary: s}
	}
	return out
}

// CapabilityConfidence is an adaptively repeated Table 1 row: the
// detected capabilities, whether every probe seed agreed, and the
// precision achieved on the continuous detection statistic.
type CapabilityConfidence struct {
	Capabilities Capabilities
	// Unanimous reports whether every repetition detected identical
	// capabilities; a false value means the detectors are
	// seed-sensitive for this profile.
	Unanimous bool
	// RepsUsed and AchievedRelHW describe the sequential design over
	// ConnsPerFile (the Sect. 4.2 bundling statistic, the one
	// continuous detector output).
	RepsUsed      int
	AchievedRelHW float64
}

// DetectCapabilitiesAdaptive repeats the Sect. 4 detection suite
// across a campaignSeed-derived seed stream until the continuous
// bundling statistic (connections per file) is tight, reporting
// whether the boolean verdicts were unanimous across probes. It is
// capcheck's -precision mode: detection robustness quantified instead
// of assumed from a single seed.
func DetectCapabilitiesAdaptive(p client.Profile, rule StopRule, seed int64, workers int) CapabilityConfidence {
	rule = rule.withDefaults()
	type probe struct {
		caps  Capabilities
		conns float64
	}
	relHW := func(probes []probe) float64 {
		conns := make([]float64, len(probes))
		for i, pr := range probes {
			conns[i] = pr.conns
		}
		return relHalfWidth(conns)
	}
	probes := RunUntil(1, rule, workers, func(_, rep int) probe {
		s := campaignSeed(seed, rep)
		return probe{caps: DetectCapabilities(p, s, workers), conns: DetectBundling(p, s).ConnsPerFile}
	}, func(_ int, probes []probe) bool {
		return relHW(probes) <= rule.TargetRelHW
	})[0]
	out := CapabilityConfidence{
		Capabilities:  probes[0].caps,
		Unanimous:     true,
		RepsUsed:      len(probes),
		AchievedRelHW: relHW(probes),
	}
	for _, pr := range probes[1:] {
		if pr.caps != out.Capabilities {
			out.Unanimous = false
		}
	}
	return out
}
