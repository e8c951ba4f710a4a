package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/workload"
)

// FuzzReadCampaign drives the campaign parser — comparebench's input
// — with arbitrary bytes. ReadCampaign must either reject the input
// with an error or return a campaign that the comparison engine
// handles: ComparableCells, Compare and DeltaReport on (c, c) do not
// panic, a self-comparison finds no deltas, and a WriteJSON/
// ReadCampaign round trip reproduces the same file. The committed
// corpus under testdata/fuzz/FuzzReadCampaign holds a small written
// campaign with fig6 and lossy cells and a fig6 entry whose summaries
// outnumber its workloads.
func FuzzReadCampaign(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCampaign(bytes.NewReader(data))
		if err != nil {
			return
		}
		ComparableCells(c, c)
		deltas := Compare(c, c, 1.3)
		DeltaReport(deltas)
		if len(deltas) != 0 {
			t.Fatalf("self-comparison found %d deltas: %+v", len(deltas), deltas)
		}
		var first bytes.Buffer
		if err := c.WriteJSON(&first); err != nil {
			t.Fatalf("writing an accepted campaign: %v", err)
		}
		back, err := ReadCampaign(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written campaign failed: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip is not stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzFleetConfig builds a fleet config from bounded integers — at
// most 300 users, a day of at most two hours, one fuzzed class next to
// a fixed one, its arrival process picked by a selector that includes
// nil — and checks that the config is either rejected by Validate or
// runs to a conserved day: wire = content − dedup + manifests, stored =
// content − dedup (every stored chunk uploaded exactly once), and the
// result bit-identical at workers 1 and 3. The committed corpus under
// testdata/fuzz/FuzzFleetConfig holds a nil arrival and a zero chunk
// size (which used to crash and to loop out of memory), a valid small
// mix, and a bursty gamma class whose zero interarrivals used to put
// two sessions of one user at one instant, uploading a shared chunk
// twice.
func FuzzFleetConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, users, dayMin, bucketMs, arrival, perDay, cvTenths,
		minFiles, maxFiles, minKB, maxKB, chunkKB, catalog, sharedPct int, fraction float64) {
		perDayF := float64(fuzzInt(perDay, 1, 48))
		var arr workload.Arrival
		switch fuzzInt(arrival, 0, 3) {
		case 1:
			arr = workload.Poisson{PerDay: perDayF}
		case 2:
			arr = workload.Gamma{PerDay: perDayF, CV: float64(fuzzInt(cvTenths, 0, 100)) / 10}
		case 3:
			arr = workload.Diurnal{PerDay: perDayF, Weights: workload.OfficeHours()}
		}
		cfg := FleetConfig{
			Users:   fuzzInt(users, -1, 300),
			Seed:    int64(users),
			Day:     time.Duration(fuzzInt(dayMin, 1, 120)) * time.Minute,
			Bucket:  time.Duration(fuzzInt(bucketMs, 0, 3_600_000)) * time.Millisecond,
			Stripes: 5,
			Classes: []FleetClass{
				{
					Name: "fuzzed", Fraction: fraction, Arrival: arr,
					MinFiles: fuzzInt(minFiles, 0, 8), MaxFiles: fuzzInt(maxFiles, 0, 8),
					MinFileBytes:   int64(fuzzInt(minKB, -1, 256)) << 10,
					MaxFileBytes:   int64(fuzzInt(maxKB, -1, 256)) << 10,
					SharedFraction: float64(fuzzInt(sharedPct, 0, 100)) / 100,
					CatalogSize:    fuzzInt(catalog, 0, 64),
					ChunkBytes:     int64(fuzzInt(chunkKB, -1, 64)) << 12,
				},
				{
					Name: "fixed", Fraction: 0.5, Arrival: workload.Poisson{PerDay: 8},
					MinFiles: 1, MaxFiles: 2, MinFileBytes: 1000, MaxFileBytes: 50_000,
					SharedFraction: 0.3, CatalogSize: 16, ChunkBytes: 16 << 10,
				},
			},
		}
		if cfg.Validate() != nil {
			return
		}
		r := RunFleet(cfg, 1)
		if r.WireBytes != r.ContentBytes-r.DedupBytes+r.ManifestBytes {
			t.Fatalf("wire %d != content %d - dedup %d + manifests %d",
				r.WireBytes, r.ContentBytes, r.DedupBytes, r.ManifestBytes)
		}
		if r.StoredBytes != r.ContentBytes-r.DedupBytes {
			t.Fatalf("stored %d != content %d - dedup %d", r.StoredBytes, r.ContentBytes, r.DedupBytes)
		}
		if r3 := RunFleet(cfg, 3); !reflect.DeepEqual(r, r3) {
			t.Fatalf("workers 1 and 3 diverged:\n  1: %v\n  3: %v", r, r3)
		}
	})
}

// fuzzInt maps a fuzzed integer into [lo, hi]: values already in range
// pass through, so corpus entries read literally; others wrap.
func fuzzInt(v, lo, hi int) int {
	if v >= lo && v <= hi {
		return v
	}
	return lo + int(uint(v)%uint(hi-lo+1))
}

// FuzzStopRule checks that every rule Validate accepts resolves, under
// withDefaults, to one the stopping engine can run: a precision target
// in (0, 1), 1 <= MinReps <= MaxReps, and under antithetic pairing
// even bounds with at least two pairs. Resolving never lowers a bound
// the caller set. The committed corpus under
// testdata/fuzz/FuzzStopRule holds the zero rule, a fixed count, an
// antithetic rule with odd bounds, a cap below the minimum, and
// antithetic bounds at the int maximum, whose rounding to a whole
// pair used to wrap negative.
func FuzzStopRule(f *testing.F) {
	f.Fuzz(func(t *testing.T, target float64, minReps, maxReps int, antithetic, crn bool) {
		r := StopRule{TargetRelHW: target, MinReps: minReps, MaxReps: maxReps, Antithetic: antithetic, CRN: crn}
		if r.Validate() != nil {
			return
		}
		d := r.withDefaults()
		if !(d.TargetRelHW > 0 && d.TargetRelHW < 1) {
			t.Fatalf("%+v: resolved target %g outside (0, 1)", r, d.TargetRelHW)
		}
		if !(1 <= d.MinReps && d.MinReps <= d.MaxReps) {
			t.Fatalf("%+v: resolved bounds %d..%d", r, d.MinReps, d.MaxReps)
		}
		if d.MinReps < r.MinReps || d.MaxReps < r.MaxReps {
			t.Fatalf("%+v: resolved bounds %d..%d lower a requested one", r, d.MinReps, d.MaxReps)
		}
		if antithetic && (d.MinReps%2 != 0 || d.MaxReps%2 != 0 || d.MinReps < 4) {
			t.Fatalf("%+v: antithetic bounds %d..%d are not whole pairs, two at least", r, d.MinReps, d.MaxReps)
		}
	})
}
