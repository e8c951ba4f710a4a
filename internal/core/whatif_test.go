package core

import "testing"

func TestWhatIfCloudDrivePollingFixed(t *testing.T) {
	r := WhatIfCloudDrivePollingFixed(71)
	// The fix must collapse idle traffic by at least an order of
	// magnitude (6 kb/s -> under 300 b/s).
	if r.Baseline < 3000 {
		t.Fatalf("baseline idle = %.0f b/s, expected Cloud Drive's ~6 kb/s", r.Baseline)
	}
	if r.Variant > r.Baseline/10 {
		t.Fatalf("fixed polling = %.0f b/s vs baseline %.0f — fix too weak", r.Variant, r.Baseline)
	}
}

func TestWhatIfDropboxSmartCompression(t *testing.T) {
	r := WhatIfDropboxSmartCompression(72)
	// For an incompressible image the transmitted volume is ~the
	// same either way — compressing it only wastes resources.
	if diff := r.Baseline - r.Variant; diff < -0.1 || diff > 0.1 {
		t.Fatalf("smart vs always on a real image: %.2f vs %.2f MB — should be ~equal", r.Baseline, r.Variant)
	}
	if r.Baseline < 0.9 {
		t.Fatalf("baseline upload = %.2f MB for a 1 MB image", r.Baseline)
	}
}

func TestWhatIfMobileUplink(t *testing.T) {
	r := WhatIfMobileUplink(73)
	if r.Variant <= r.Baseline {
		t.Fatalf("2 Mb/s uplink (%.1f s) should be slower than campus (%.1f s)", r.Variant, r.Baseline)
	}
}

func TestCloudDriveDailyBackgroundMB(t *testing.T) {
	// "This consumes 6 kb/s, i.e., about 65 MB per day!"
	mb := CloudDriveDailyBackgroundMB(74)
	if mb < 40 || mb > 100 {
		t.Fatalf("daily background = %.0f MB, paper says ~65", mb)
	}
}

func TestWhatIfLossyPath(t *testing.T) {
	r := WhatIfLossyPath(76)
	if r.Variant <= r.Baseline {
		t.Fatalf("2%% loss (%.1f s) should slow the clean path (%.1f s)", r.Variant, r.Baseline)
	}
}

func TestWhatIfStudiesComplete(t *testing.T) {
	if got := len(WhatIfStudies(75, 0)); got != 4 {
		t.Fatalf("studies = %d", got)
	}
}

// TestWhatIfStudiesParallelEquivalence pins the RunN lift: the suite
// must produce bit-identical results in declaration order at any
// worker count — each study derives everything from the base seed.
func TestWhatIfStudiesParallelEquivalence(t *testing.T) {
	sequential := WhatIfStudies(77, 1)
	for _, workers := range []int{2, 8} {
		got := WhatIfStudies(77, workers)
		if len(got) != len(sequential) {
			t.Fatalf("workers=%d: %d studies vs %d sequential", workers, len(got), len(sequential))
		}
		for i := range got {
			if got[i] != sequential[i] {
				t.Errorf("workers=%d: study %d diverged\n parallel   %+v\n sequential %+v",
					workers, i, got[i], sequential[i])
			}
		}
	}
}
