package core

import (
	"testing"

	"repro/internal/client"
)

func sweepProfiles() []client.Profile {
	return []client.Profile{client.SkyDrive(), client.Dropbox()}
}

// TestLossSweepSlowsWithLoss pins the sweep's physics: for every
// service, mean completion grows monotonically along the loss axis.
func TestLossSweepSlowsWithLoss(t *testing.T) {
	cells := LossSweep(sweepProfiles(), DefaultLossRates, DefaultLossBatch, Twente, FixedReps(4), 11, 0)
	if len(cells) != len(sweepProfiles())*len(DefaultLossRates) {
		t.Fatalf("cells = %d", len(cells))
	}
	perSvc := len(DefaultLossRates)
	for si, p := range sweepProfiles() {
		for ri := 1; ri < perSvc; ri++ {
			prev, cur := cells[si*perSvc+ri-1], cells[si*perSvc+ri]
			if cur.Summary.MeanCompletion <= prev.Summary.MeanCompletion {
				t.Errorf("%s: completion at %g%% loss (%v) not slower than at %g%% (%v)",
					p.Service, cur.LossRate*100, cur.Summary.MeanCompletion,
					prev.LossRate*100, prev.Summary.MeanCompletion)
			}
		}
	}
}

// TestLossSweepParallelEquivalence pins the RunN lift: bit-identical
// cells at any worker count.
func TestLossSweepParallelEquivalence(t *testing.T) {
	sequential := LossSweep(sweepProfiles(), []float64{0.005, 0.02}, DefaultLossBatch, Twente, FixedReps(3), 5, 1)
	for _, workers := range []int{2, 8} {
		got := LossSweep(sweepProfiles(), []float64{0.005, 0.02}, DefaultLossBatch, Twente, FixedReps(3), 5, workers)
		if len(got) != len(sequential) {
			t.Fatalf("workers=%d: %d cells vs %d", workers, len(got), len(sequential))
		}
		for i := range got {
			if got[i] != sequential[i] {
				t.Errorf("workers=%d: cell %d diverged\n parallel   %+v\n sequential %+v",
					workers, i, got[i], sequential[i])
			}
		}
	}
}

// TestCompareReportsLossySection pins the campaign-surface rules: the
// lossy section is part of the compared index (same-campaign
// comparison stays clean), and a campaign gaining the section against
// an older baseline reports cell_added drift instead of silently
// shrinking to the clean intersection.
func TestCompareReportsLossySection(t *testing.T) {
	old := Campaign{Tool: ToolVersion, Fig6: Fig6Matrix(sweepProfiles(), FixedReps(1), 3, 0)}
	cur := old
	cur.Lossy = LossSweep(sweepProfiles(), []float64{0.02}, DefaultLossBatch, Twente, FixedReps(1), 3, 0)

	if deltas := Compare(cur, cur, 1.3); len(deltas) != 0 {
		t.Fatalf("campaign with lossy section differs from itself: %v", deltas)
	}
	deltas := Compare(old, cur, 1.3)
	if len(deltas) != len(cur.Lossy) {
		t.Fatalf("gained lossy section: %d deltas, want %d cell_added", len(deltas), len(cur.Lossy))
	}
	for _, d := range deltas {
		if d.Metric != "cell_added" || d.B <= 0 {
			t.Fatalf("unexpected delta for gained cell: %+v", d)
		}
	}
	// And the reverse direction reports the removal.
	removed := Compare(cur, old, 1.3)
	if len(removed) != len(cur.Lossy) || removed[0].Metric != "cell_removed" {
		t.Fatalf("lost lossy section not reported: %v", removed)
	}
}
