package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// goldenAdaptiveBatch is the Cloud Drive workload the adaptive
// acceptance numbers are pinned on: many small files, where the
// far-server connection count dominates completion variance.
func goldenAdaptiveBatch() workload.Batch {
	return workload.Batch{Count: 100, Size: 10_000, Kind: workload.Binary}
}

// TestRunUntilBatchBoundaries pins the sequential schedule: the first
// batch is MinReps, later batches AdaptiveBatch, the last clipped to
// MaxReps — and the stopping check fires once per batch, never inside
// one, and not at the cap.
func TestRunUntilBatchBoundaries(t *testing.T) {
	rule := StopRule{TargetRelHW: 1, MinReps: 6, MaxReps: 17}
	var seen []int
	out := RunUntil(1, rule, 4, func(_, rep int) int { return rep }, func(_ int, sample []int) bool {
		seen = append(seen, len(sample))
		return false // never satisfied: run to the cap
	})[0]
	if len(out) != 17 {
		t.Fatalf("ran %d reps, want MaxReps=17", len(out))
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("rep %d returned %d: results must be in index order", i, v)
		}
	}
	if want := []int{6, 10, 14}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("stop consulted at sample sizes %v, want %v", seen, want)
	}

	// A rule satisfied by the opening batch stops at MinReps exactly.
	out = RunUntil(1, rule, 4, func(_, rep int) int { return rep }, func(int, []int) bool { return true })[0]
	if len(out) != rule.MinReps {
		t.Fatalf("satisfied rule ran %d reps, want MinReps=%d", len(out), rule.MinReps)
	}
}

// TestRunUntilCellsMatchSolo: in a multi-cell run, cells that stop in
// different rounds get exactly the repetitions — and results — they
// would get running alone, at any worker count.
func TestRunUntilCellsMatchSolo(t *testing.T) {
	rule := StopRule{TargetRelHW: 1, MinReps: 4, MaxReps: 20}
	run := func(cell, rep int) int { return cell*1000 + rep }
	// Cell c is satisfied once it holds 4+4c repetitions.
	stop := func(cell int, sample []int) bool { return len(sample) >= 4+4*cell }
	for _, w := range equivalenceWorkerCounts {
		all := RunUntil(5, rule, w, run, stop)
		for c := range all {
			solo := RunUntil(1, rule, w, func(_, rep int) int { return run(c, rep) },
				func(_ int, sample []int) bool { return stop(c, sample) })[0]
			if !reflect.DeepEqual(all[c], solo) {
				t.Fatalf("workers=%d cell %d: %v, alone %v", w, c, all[c], solo)
			}
		}
		if len(all[0]) != 4 || len(all[4]) != 20 {
			t.Fatalf("workers=%d: cells ran %d and %d reps, want 4 and 20", w, len(all[0]), len(all[4]))
		}
	}
}

// TestFig6AdaptiveMatrixMatchesSoloCells is the same property on a
// real layer: every (service, workload) cell of an adaptive Fig. 6
// matrix, whose cells stop in different rounds, is bit-identical to
// that cell run alone as a campaign on its fig6Seed stream.
func TestFig6AdaptiveMatrixMatchesSoloCells(t *testing.T) {
	profiles := []client.Profile{client.Dropbox(), client.SkyDrive()}
	rule := StopRule{TargetRelHW: 0.03, MinReps: 4, MaxReps: 12, Antithetic: true}
	matrix := Fig6Matrix(profiles, rule, 42, 0)
	rounds := map[int]bool{}
	for si, r := range matrix {
		for wi, s := range r.Summaries {
			rounds[s.RepsUsed] = true
			solo := RunCampaign(profiles[si], r.Workloads[wi], rule, 42+int64(wi)*100003, 1)
			if !reflect.DeepEqual(s, solo) {
				t.Fatalf("%s %s: matrix cell differs from the cell alone\n matrix %+v\n alone  %+v",
					r.Service, r.Workloads[wi], s, solo)
			}
		}
	}
	if len(rounds) < 2 {
		t.Fatalf("every cell stopped after the same round %v; the test needs staggered stops", rounds)
	}
}

// TestStopRuleDefaults pins the zero-value resolution and the
// antithetic evenization (pair means need whole pairs).
func TestStopRuleDefaults(t *testing.T) {
	r := StopRule{}.withDefaults()
	if r.TargetRelHW != DefaultTargetRelHW || r.MinReps != DefaultMinReps || r.MaxReps != DefaultMaxReps {
		t.Fatalf("zero rule resolved to %+v", r)
	}
	r = StopRule{MinReps: 3, MaxReps: 7, Antithetic: true}.withDefaults()
	if r.MinReps != 4 || r.MaxReps != 8 {
		t.Fatalf("antithetic rule must round to whole pairs, got %+v", r)
	}
	if r := (StopRule{MinReps: 10, MaxReps: 5}).withDefaults(); r.MaxReps != 10 {
		t.Fatalf("MaxReps < MinReps must clamp up, got %+v", r)
	}
	if r := (StopRule{MinReps: 1, MaxReps: 5}).withDefaults(); r.MinReps != 2 {
		t.Fatalf("a rule that may stop early needs two reps for a half-width, got %+v", r)
	}
	if r := FixedReps(0); r != FixedReps(DefaultReps) {
		t.Fatalf("FixedReps(0) = %+v, want the paper's %d", r, DefaultReps)
	}
}

// TestFixedOneRepRunsOnce: StopRule{MinReps: 1, MaxReps: 1} is a fixed
// count of one — a single repetition, never raised to the two an
// adaptive rule needs for a half-width.
func TestFixedOneRepRunsOnce(t *testing.T) {
	rule := StopRule{MinReps: 1, MaxReps: 1}
	calls := 0
	out := RunUntil(1, rule, 1, func(_, rep int) int { calls++; return rep }, func(int, []int) bool {
		t.Fatal("a fixed rule must not consult the stopping test")
		return false
	})[0]
	if calls != 1 || len(out) != 1 {
		t.Fatalf("ran %d reps (%d calls), want exactly 1", len(out), calls)
	}
	s := RunCampaign(client.Wuala(), workload.Batch{Count: 1, Size: 100_000, Kind: workload.Binary}, rule, 3, 0)
	if s.RepsUsed != 1 || s.Reps != 1 {
		t.Fatalf("one-rep campaign ran %d reps", s.RepsUsed)
	}
}

// TestStopRuleValidate: the one flag check the CLIs share rejects every
// value the engine would otherwise repair silently.
func TestStopRuleValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule StopRule
		ok   bool
	}{
		{"zero", StopRule{}, true},
		{"typical", StopRule{TargetRelHW: 0.05, MinReps: 8, MaxReps: 96}, true},
		{"fixed", FixedReps(4), true},
		{"cap only", StopRule{TargetRelHW: 0.1, MaxReps: 12}, true},
		{"precision >= 1", StopRule{TargetRelHW: 5}, false},
		{"precision = 1", StopRule{TargetRelHW: 1}, false},
		{"negative precision", StopRule{TargetRelHW: -0.1}, false},
		{"NaN precision", StopRule{TargetRelHW: math.NaN()}, false},
		{"negative max", StopRule{TargetRelHW: 0.1, MaxReps: -3}, false},
		{"negative min", StopRule{MinReps: -1}, false},
		{"min above max", StopRule{MinReps: 10, MaxReps: 5}, false},
		{"cap below default min", StopRule{MaxReps: DefaultMinReps - 1}, false},
		{"antithetic odd below int max", StopRule{MinReps: math.MaxInt - 2, Antithetic: true}, true},
		{"antithetic min at int max", StopRule{MinReps: math.MaxInt, Antithetic: true}, false},
		{"antithetic max at int max", StopRule{MaxReps: math.MaxInt, Antithetic: true}, false},
		{"plain max at int max", StopRule{MaxReps: math.MaxInt}, true},
	} {
		if err := tc.rule.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate(%+v) = %v, want ok=%v", tc.name, tc.rule, err, tc.ok)
		}
	}
}

// TestAdaptiveWorkerEquivalence is the determinism contract of the
// engine: the repetitions executed AND the resulting Summary are a
// pure function of (seed, rule) — bit-identical at any worker count,
// with and without variance reduction.
func TestAdaptiveWorkerEquivalence(t *testing.T) {
	p := client.CloudDrive()
	batch := goldenAdaptiveBatch()
	for _, anti := range []bool{false, true} {
		rule := StopRule{TargetRelHW: 0.02, MinReps: 8, MaxReps: 24, Antithetic: anti}
		ref := RunCampaign(p, batch, rule, 42, 1)
		for _, w := range []int{2, 8} {
			if got := RunCampaign(p, batch, rule, 42, w); !reflect.DeepEqual(got, ref) {
				t.Fatalf("antithetic=%v workers=%d: summary diverged\n got %+v\nwant %+v", anti, w, got, ref)
			}
		}
		if ref.RepsUsed < rule.MinReps || ref.RepsUsed > rule.MaxReps {
			t.Fatalf("antithetic=%v: RepsUsed=%d outside [%d,%d]", anti, ref.RepsUsed, rule.MinReps, rule.MaxReps)
		}
	}
}

// TestAdaptiveMaxRepsCap: an unreachable target burns exactly the cap,
// never more, and reports the (missed) achieved precision honestly.
func TestAdaptiveMaxRepsCap(t *testing.T) {
	s := RunCampaign(client.Dropbox(), goldenAdaptiveBatch(),
		StopRule{TargetRelHW: 1e-9, MinReps: 4, MaxReps: 12}, 7, 0)
	if s.RepsUsed != 12 {
		t.Fatalf("RepsUsed=%d, want the MaxReps cap 12", s.RepsUsed)
	}
	if s.AchievedRelHW <= 1e-9 {
		t.Fatalf("AchievedRelHW=%v: an impossible target cannot have been met", s.AchievedRelHW)
	}
}

// TestAdaptiveZeroVarianceStopsAtMinReps: a degenerate cell (no
// dispersion at all) satisfies any target with the opening batch.
func TestAdaptiveZeroVarianceStopsAtMinReps(t *testing.T) {
	constant := Metrics{Completion: 1e9, GoodputBps: 8e6}
	s := sampleCells(1, StopRule{TargetRelHW: 0.001, MinReps: 6, MaxReps: 96}, 0,
		func(_, rep int) int64 { return int64(rep) },
		func(int, *sim.RNG) Metrics { return constant })[0]
	if s.RepsUsed != 6 {
		t.Fatalf("RepsUsed=%d, want MinReps=6 for a zero-variance cell", s.RepsUsed)
	}
	if s.AchievedRelHW != 0 {
		t.Fatalf("AchievedRelHW=%v, want 0", s.AchievedRelHW)
	}
}

// TestAdaptiveMatchesFixedPrefix: a fixed n-rep campaign equals the
// first n repetitions of a longer adaptive run on the same seed stream
// — the stopping rule changes when to stop, never what runs.
func TestAdaptiveMatchesFixedPrefix(t *testing.T) {
	p := client.Wuala()
	batch := goldenAdaptiveBatch()
	rule := StopRule{TargetRelHW: 1e-9, MinReps: 4, MaxReps: 12}
	long := RunUntil(1, rule, 0, func(_, rep int) Metrics {
		return RunSync(p, batch, campaignSeed(42, rep), DefaultJitter)
	}, func(_ int, runs []Metrics) bool { return achievedRelHW(runs, false) <= rule.TargetRelHW })[0]
	if adaptive := RunCampaign(p, batch, rule, 42, 0); !reflect.DeepEqual(adaptive, Summarize(long)) {
		t.Fatalf("adaptive campaign is not the %d-rep sequential run:\n got  %+v\n want %+v", len(long), adaptive, Summarize(long))
	}
	fixed := RunCampaign(p, batch, FixedReps(8), 42, 0)
	if prefix := Summarize(long[:8]); !reflect.DeepEqual(fixed, prefix) {
		t.Fatalf("fixed 8-rep summary diverged from the adaptive run's first 8 reps:\nfixed  %+v\nprefix %+v", fixed, prefix)
	}
}

// TestAntitheticBeatsPlainOnGoldenWorkload is the acceptance number of
// antithetic pairing: at the precision a fixed 24-rep Cloud Drive
// campaign achieves, the antithetic adaptive run gets there with
// measurably fewer repetitions. The exact counts are deterministic, so
// they are pinned — if a model change shifts them, re-measure and
// re-pin.
func TestAntitheticBeatsPlainOnGoldenWorkload(t *testing.T) {
	p := client.CloudDrive()
	batch := goldenAdaptiveBatch()
	fixed := RunCampaign(p, batch, FixedReps(DefaultReps), 42, 0)
	if fixed.AchievedRelHW <= 0 {
		t.Fatalf("fixed campaign reports no achieved precision: %+v", fixed)
	}
	rule := StopRule{TargetRelHW: fixed.AchievedRelHW, MinReps: 8, MaxReps: 96, Antithetic: true}

	anti := RunCampaign(p, batch, rule, 42, 0)
	if anti.AchievedRelHW > rule.TargetRelHW {
		t.Fatalf("antithetic run stopped above target: %v > %v", anti.AchievedRelHW, rule.TargetRelHW)
	}
	if anti.RepsUsed >= fixed.RepsUsed {
		t.Fatalf("antithetic used %d reps, fixed budget is %d: no savings", anti.RepsUsed, fixed.RepsUsed)
	}
	// Pinned acceptance numbers (seed 42, Cloud Drive, 100 x 10 kB).
	if anti.RepsUsed != 16 {
		t.Fatalf("antithetic RepsUsed=%d, pinned at 16", anti.RepsUsed)
	}
}

// TestAntitheticPairCorrelation verifies the mechanism, not just the
// outcome: paired repetitions of the golden cell are negatively
// correlated, which is what makes pair means tighter than two
// independent repetitions.
func TestAntitheticPairCorrelation(t *testing.T) {
	p := client.CloudDrive()
	batch := goldenAdaptiveBatch()
	const pairs = 8
	var plain, anti []float64
	for k := 0; k < pairs; k++ {
		seed := campaignSeed(42, 2*k)
		mp := runSyncOn(p, batch, campusHost(), sim.NewRNG(seed), DefaultJitter, 0)
		ma := runSyncOn(p, batch, campusHost(), sim.NewAntitheticRNG(seed), DefaultJitter, 0)
		plain = append(plain, mp.Completion.Seconds())
		anti = append(anti, ma.Completion.Seconds())
	}
	mu, mv := stats.Mean(plain), stats.Mean(anti)
	var cov, vu, vv float64
	for i := range plain {
		du, dv := plain[i]-mu, anti[i]-mv
		cov += du * dv
		vu += du * du
		vv += dv * dv
	}
	rho := cov / math.Sqrt(vu*vv)
	if rho >= 0 {
		t.Fatalf("pair correlation %.3f, want negative", rho)
	}
}

// TestCRNPairsServices validates the other variance-reduction lever:
// under common random numbers the two services in a loss-sweep cell
// face identical noise, so the spread of their per-rep difference is
// smaller than with independent seed streams.
func TestCRNPairsServices(t *testing.T) {
	a, b := client.Dropbox(), client.SkyDrive()
	const reps = 16
	var crn, indep []float64
	for rep := 0; rep < reps; rep++ {
		shared := lossSweepSeed(7, 0, 0, rep)
		ma := runSyncOn(a, DefaultLossBatch, vantageHost(Twente), sim.NewRNG(shared), DefaultJitter, DefaultLossRates[0])
		mb := runSyncOn(b, DefaultLossBatch, vantageHost(Twente), sim.NewRNG(shared), DefaultJitter, DefaultLossRates[0])
		crn = append(crn, ma.Completion.Seconds()-mb.Completion.Seconds())

		sa, sb := lossSweepSeed(7, 0, 0, rep), lossSweepSeed(7, 1, 0, rep)
		ma = runSyncOn(a, DefaultLossBatch, vantageHost(Twente), sim.NewRNG(sa), DefaultJitter, DefaultLossRates[0])
		mb = runSyncOn(b, DefaultLossBatch, vantageHost(Twente), sim.NewRNG(sb), DefaultJitter, DefaultLossRates[0])
		indep = append(indep, ma.Completion.Seconds()-mb.Completion.Seconds())
	}
	if sc, si := stats.SampleStd(crn), stats.SampleStd(indep); sc >= si {
		t.Fatalf("CRN diff std %.4f >= independent %.4f: pairing bought nothing", sc, si)
	}
}

// TestLossSweepAdaptiveWorkerEquivalence extends the determinism
// contract to the multi-cell sweeps, including the CRN seed routing.
func TestLossSweepAdaptiveWorkerEquivalence(t *testing.T) {
	profiles := sweepProfiles()
	rates := []float64{0.02}
	rule := StopRule{TargetRelHW: 0.05, MinReps: 4, MaxReps: 12, CRN: true}

	ref := LossSweep(profiles, rates, DefaultLossBatch, Twente, rule, 11, 1)
	if got := LossSweep(profiles, rates, DefaultLossBatch, Twente, rule, 11, 8); !reflect.DeepEqual(got, ref) {
		t.Fatalf("loss sweep diverged across worker counts\n got %+v\nwant %+v", got, ref)
	}
	for _, cell := range ref {
		if cell.Summary.RepsUsed < rule.MinReps || cell.Summary.RepsUsed > rule.MaxReps {
			t.Fatalf("%s@%g: RepsUsed=%d outside rule bounds", cell.Service, cell.LossRate, cell.Summary.RepsUsed)
		}
	}
}

// TestLocationStudyAdaptiveShape: every (service, vantage) cell is
// present, carries its names, and respects the rule bounds.
func TestLocationStudyAdaptiveShape(t *testing.T) {
	lisbon, ok := VantageByName("lisbon")
	if !ok {
		t.Fatal("lisbon missing from the landmark database")
	}
	vantages := []Vantage{Twente, lisbon}
	rule := StopRule{TargetRelHW: 0.2, MinReps: 2, MaxReps: 4}
	out := LocationStudyAdaptive(workload.Batch{Count: 1, Size: 100_000, Kind: workload.Binary}, vantages, rule, 3, 0)
	if want := len(client.Profiles()) * len(vantages); len(out) != want {
		t.Fatalf("got %d cells, want %d", len(out), want)
	}
	for _, c := range out {
		if c.Service == "" || c.Vantage == "" {
			t.Fatalf("cell missing names: %+v", c)
		}
		if c.Summary.RepsUsed < rule.MinReps || c.Summary.RepsUsed > rule.MaxReps {
			t.Fatalf("%s@%s: RepsUsed=%d outside [%d,%d]", c.Service, c.Vantage, c.Summary.RepsUsed, rule.MinReps, rule.MaxReps)
		}
	}
}

// TestDetectCapabilitiesAdaptive: the probe suite repeats until the
// bundling statistic is tight and reports unanimity across seeds.
func TestDetectCapabilitiesAdaptive(t *testing.T) {
	out := DetectCapabilitiesAdaptive(client.Dropbox(), StopRule{TargetRelHW: 0.1, MinReps: 4, MaxReps: 12}, 42, 0)
	if out.RepsUsed < 4 || out.RepsUsed > 12 {
		t.Fatalf("RepsUsed=%d outside rule bounds", out.RepsUsed)
	}
	if !out.Unanimous {
		t.Fatalf("Dropbox capability detection must be seed-stable, got %+v", out)
	}
	if out.AchievedRelHW > 0.1 && out.RepsUsed < 12 {
		t.Fatalf("stopped early above target: %+v", out)
	}
}

// TestRunFullCampaignAdaptiveRecordsRule: the campaign file carries
// the stopping rule so snapshots are comparable at equal confidence.
func TestRunFullCampaignAdaptiveRecordsRule(t *testing.T) {
	rule := StopRule{TargetRelHW: 0.2, MinReps: 2, MaxReps: 4}
	c := RunFullCampaign(Twente, rule, 5, 0)
	if c.Precision != 0.2 || c.MaxReps != 4 || c.Reps != 0 {
		t.Fatalf("campaign rule not recorded: precision=%v max_reps=%d reps=%d", c.Precision, c.MaxReps, c.Reps)
	}
	if len(c.Fig6) == 0 || len(c.Lossy) == 0 || len(c.Idle) == 0 {
		t.Fatalf("adaptive campaign missing sections: %+v", c)
	}
	for _, r := range c.Fig6 {
		for _, s := range r.Summaries {
			if s.RepsUsed < rule.MinReps || s.RepsUsed > rule.MaxReps {
				t.Fatalf("%s: RepsUsed=%d outside [%d,%d]", r.Service, s.RepsUsed, rule.MinReps, rule.MaxReps)
			}
		}
	}
}
