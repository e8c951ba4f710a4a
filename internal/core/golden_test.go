package core

import (
	"reflect"
	"testing"

	"repro/internal/client"
	"repro/internal/goldenfile"
	"repro/internal/workload"
)

// goldenBatches are the workloads pinned by the golden run: the
// paper's 100x10 kB stress batch and a compressible 1 MB text file
// (which exercises chunking, compression, delta signatures and —
// for Wuala — encryption).
var goldenBatches = []workload.Batch{
	{Count: 100, Size: 10_000, Kind: workload.Binary},
	{Count: 1, Size: 1 << 20, Kind: workload.Text},
}

// goldenServices orders the profiles of the golden matrix.
var goldenServices = []string{"dropbox", "skydrive", "wuala", "googledrive", "clouddrive"}

// goldenCell names one pinned RunSync cell.
type goldenCell struct {
	Service string
	Batch   string
	Metrics Metrics
}

// TestGoldenMetricsAllProfiles pins RunSync output for every profile
// at fixed seeds against testdata/golden_metrics.json. The values were
// regenerated for the descriptor pipeline (PCG RNG: every simulated
// byte legitimately changed); within an engine generation they must
// reproduce bit for bit — any unsanctioned drift means an
// "optimization" changed simulated behaviour. Sanctioned refreshes run
// scripts/regen-golden.sh.
func TestGoldenMetricsAllProfiles(t *testing.T) {
	var got []goldenCell
	for _, svc := range goldenServices {
		p, ok := client.ProfileFor(svc)
		if !ok {
			t.Fatalf("unknown service %q", svc)
		}
		for bi, batch := range goldenBatches {
			got = append(got, goldenCell{
				Service: svc,
				Batch:   batch.String() + "/" + batch.Kind.String(),
				Metrics: RunSync(p, batch, 42+int64(bi), DefaultJitter),
			})
		}
	}
	goldenfile.Check(t, "testdata/golden_metrics.json", got)
}

// goldenUploads pins the delta-encoding and compression upload paths.
type goldenUploads struct {
	Fig4DropboxAppend int64
	Fig4DropboxRandom int64
	Fig5Text          map[string]int64
}

// TestGoldenUploadVolumes pins the delta-encoding and compression
// paths (planner unitBytes: literal-buffer reuse, descriptor-keyed
// size-only DEFLATE) against testdata/golden_uploads.json.
func TestGoldenUploadVolumes(t *testing.T) {
	dropbox := client.Dropbox()
	got := goldenUploads{
		Fig4DropboxAppend: Fig4DeltaSeries(dropbox, ModAppend, []int64{1 << 20}, 100<<10, 7, 0)[0].Upload,
		Fig4DropboxRandom: Fig4DeltaSeries(dropbox, ModRandom, []int64{10 << 20}, 100<<10, 7, 0)[0].Upload,
		Fig5Text:          map[string]int64{},
	}
	for _, svc := range []string{"dropbox", "googledrive", "wuala"} {
		p, _ := client.ProfileFor(svc)
		got.Fig5Text[svc] = Fig5CompressionSeries(p, workload.Text, []int64{1 << 20}, 11, 0)[0].Upload
	}
	goldenfile.Check(t, "testdata/golden_uploads.json", got)
}

// TestCampaignParallelEquivalence proves the worker-pool campaign
// engine is bit-identical to the sequential engine: same seeds, same
// slots, same Summary, regardless of worker count.
func TestCampaignParallelEquivalence(t *testing.T) {
	batch := workload.Batch{Count: 20, Size: 10_000, Kind: workload.Binary}
	p := client.CloudDrive()
	seq := RunCampaign(p, batch, FixedReps(6), 42, 1)
	for _, workers := range []int{2, 4, 0} {
		par := RunCampaign(p, batch, FixedReps(6), 42, workers)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: summary differs from sequential engine\n seq %+v\n par %+v",
				workers, seq, par)
		}
	}
}

// TestMeasureWindowBoundary pins the half-open [t0, FarFuture) window
// semantics through the measurement path: packets recorded strictly
// before t0 (login, settle) must not leak into the benchmark window.
func TestMeasureWindowBoundary(t *testing.T) {
	p := client.Dropbox()
	tb := NewTestbed(p, 5, 0)
	start := tb.Settle()
	preTraffic := tb.Cap.Window(tb.Cap.Packets()[0].Time, start).Analyze(nil).TotalWire
	if preTraffic == 0 {
		t.Fatal("login produced no traffic")
	}
	t0 := tb.Clock.Now()
	m := MeasureWindow(tb, t0, 0)
	if m.TotalTraffic != 0 {
		t.Errorf("benchmark window sees %d bytes of pre-window traffic", m.TotalTraffic)
	}
}
