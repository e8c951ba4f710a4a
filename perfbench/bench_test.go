package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting matters
		}
		return out
	}
	if _, ok := percentile(xs(199), 0.95); ok {
		t.Fatal("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if v, ok := percentile(xs(200), 0.95); !ok || v != 190 {
		t.Fatalf("p95 of 200 samples = %v, %v; want 190, true", v, ok)
	}
	if _, ok := percentile(xs(19), 0.5); ok {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, ok := percentile(xs(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 20 samples = %v, %v; want 10, true", v, ok)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestDigestChangesWithOneUnit(t *testing.T) {
	base := []cellResult{
		{M: core.Metrics{Startup: time.Second, Completion: 2 * time.Second, TotalTraffic: 1000, StorageUp: 900, Overhead: 1.1, Connections: 2, GoodputBps: 8e6}, Uploads: []int64{800}},
		{M: core.Metrics{Startup: time.Second, Completion: time.Second, TotalTraffic: 500, StorageUp: 400, Overhead: 1.3, Connections: 1, GoodputBps: 4e6}, Uploads: []int64{300, 20}},
	}
	clone := func() []cellResult {
		out := make([]cellResult, len(base))
		for i, r := range base {
			out[i] = r
			out[i].Uploads = append([]int64(nil), r.Uploads...)
		}
		return out
	}
	want := digestCells(base)
	if digestCells(clone()) != want {
		t.Fatal("digest is not a function of the results")
	}
	tamper := map[string]func(rs []cellResult){
		"startup":     func(rs []cellResult) { rs[1].M.Startup++ },
		"completion":  func(rs []cellResult) { rs[0].M.Completion++ },
		"traffic":     func(rs []cellResult) { rs[1].M.TotalTraffic++ },
		"storage up":  func(rs []cellResult) { rs[0].M.StorageUp-- },
		"connections": func(rs []cellResult) { rs[1].M.Connections++ },
		"upload":      func(rs []cellResult) { rs[1].Uploads[1]++ },
		"overhead":    func(rs []cellResult) { rs[0].M.Overhead += 1e-12 },
		"failure":     func(rs []cellResult) { rs[0].Err = os.ErrInvalid },
	}
	for name, f := range tamper {
		rs := clone()
		f(rs)
		if digestCells(rs) == want {
			t.Errorf("digest unchanged after changing %s by one unit", name)
		}
	}
}

func TestCheckFleetRejectsTamperedResult(t *testing.T) {
	r := core.RunFleet(core.FleetConfig{Users: 2000, Seed: 3}, 1)
	if err := checkFleet(r); err != nil {
		t.Fatalf("untampered day rejected: %v", err)
	}
	want := digestFleet(r)
	tamper := map[string]func(r *core.FleetResult){
		"wire":     func(r *core.FleetResult) { r.WireBytes++ },
		"stored":   func(r *core.FleetResult) { r.StoredBytes-- },
		"manifest": func(r *core.FleetResult) { r.ManifestBytes++ },
		"sessions": func(r *core.FleetResult) { r.Sessions++ },
		"bucket":   func(r *core.FleetResult) { r.Buckets[len(r.Buckets)/2].WireBytes++ },
	}
	for name, f := range tamper {
		bad := r
		bad.Buckets = append([]core.FleetBucket(nil), r.Buckets...)
		f(&bad)
		if err := checkFleet(bad); err == nil {
			t.Errorf("tampered %s accepted", name)
		}
		if digestFleet(bad) == want {
			t.Errorf("tampered %s leaves the digest unchanged", name)
		}
	}
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for name, cells := range map[string]func(int64) []syncCell{"fig6": fig6Cells, "revise": reviseCells} {
		a, b := cells(42), cells(42)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different inputs", name)
		}
		if reflect.DeepEqual(a, cells(43)) {
			t.Errorf("%s: inputs ignore the seed", name)
		}
	}
	if !reflect.DeepEqual(fleetConfig(42), fleetConfig(42)) || reflect.DeepEqual(fleetConfig(42), fleetConfig(43)) {
		t.Error("fleet input is not a function of the seed")
	}
	// Services of one Fig. 6 (batch, repetition) share content.
	cs := fig6Cells(42)
	perService := len(cs) / 5
	if cs[0].Seed != cs[perService].Seed || cs[0].Service == cs[perService].Service {
		t.Error("fig6 services do not share per-(batch, rep) seeds")
	}
}

// The benchmark's campaign cell is core.RunSync with spans around its
// calls; it must measure the same thing.
func TestFig6CellMatchesRunSync(t *testing.T) {
	c := syncCell{Service: "dropbox", Batch: workload.Batch{Count: 1, Size: 100_000, Kind: workload.Binary}, Seed: 7}
	for _, tr := range []*tracer{nil, {}} {
		got := runFig6Cell(c, tr)
		want := core.RunSync(profileFor(c.Service), c.Batch, c.Seed, core.DefaultJitter)
		if got.M != want {
			t.Fatalf("cell metrics %+v, RunSync %+v", got.M, want)
		}
		if err := checkCell(got); err != nil {
			t.Fatal(err)
		}
	}
}

// Cells share the tracer across workers; the digest must not depend
// on how many there are.
func TestCampaignPassIndependentOfWorkers(t *testing.T) {
	cells := func(seed int64) []syncCell {
		var cs []syncCell
		for _, svc := range []string{"dropbox", "wuala", "googledrive"} {
			cs = append(cs, syncCell{Service: svc, Batch: workload.Batch{Count: 2, Size: 20_000, Kind: workload.Binary}, Seed: seed})
		}
		return cs
	}
	pass := prepareCells(cells, runFig6Cell)
	one := pass(5)(1, nil)
	tr := &tracer{}
	many := pass(5)(4, tr)
	if one.Failed != 0 || many.Failed != 0 {
		t.Fatalf("failed cells: %v %v", one.Errors, many.Errors)
	}
	if many.Counts.Records <= 0 {
		t.Fatal("traced pass counted no trace records")
	}
	many.Counts.Records = 0 // counted only when tracing
	if one.Digest != many.Digest || one.Counts != many.Counts {
		t.Fatalf("1 worker: %s %+v; 4 workers: %s %+v", one.Digest, one.Counts, many.Digest, many.Counts)
	}
	if tr.ns[spanSync].Load() <= 0 || tr.ns[spanAssemble].Load() <= 0 {
		t.Fatal("traced pass recorded no spans")
	}
}

func TestChargeStack(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"compress/flate.(*compressor).deflate", "repro/internal/compressor.countDeflate", "repro/internal/client.(*planner).plan"}, "compressor"},
		{[]string{"runtime.mapaccess2", "repro/internal/dedup.(*Store).ClaimBatchRef", "repro/internal/core.(*claimSink).EndSession", "repro/internal/core.RunFleet.func1"}, "dedup"},
		{[]string{"repro/internal/core.genFleetSession", "repro/internal/core.walkFleetStripe", "repro/internal/core.RunFleet.func1", "repro/internal/core.RunN[...].func1"}, "fleet"},
		{[]string{"repro/internal/core.assembleTestbed", "main.runFig6Cell"}, "core"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, ""},
	}
	for _, c := range cases {
		if got := chargeStack(c.frames); got != c.want {
			t.Errorf("chargeStack(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

var sink uint64

func TestAttributeProfileDecodesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := uint64(0); i < 1e5; i++ {
			sink = sink*6364136223846793005 + i
		}
	}
	pprof.StopCPUProfile()
	a, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.Samples == 0 || a.TotalNs <= 0 {
		t.Fatalf("no samples decoded: %+v", a)
	}
	// Nothing here runs repository code.
	if a.UnattribNs != a.TotalNs || len(a.ModuleNs) != 0 {
		t.Fatalf("test-only samples were charged to modules: %+v", a)
	}
}

// benchmarkFile is the part of BENCHMARK.json the driver's metric
// tables must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, driver reports %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer %+v, driver reports %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, driver has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, driver has %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestExpectedRecordsEveryDigestAndLayer(t *testing.T) {
	var exp struct {
		expected
		Layers []struct {
			Metric, Moves, Workload string
		} `json:"layers"`
	}
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.DefaultSeed != defaultSeed {
		t.Errorf("expected.json records seed %d, default is %d", exp.DefaultSeed, defaultSeed)
	}
	for _, w := range workloads {
		if exp.Digests[w.name] == "" {
			t.Errorf("%s: no recorded digest", w.name)
		}
	}
	claimed := map[string]bool{}
	for _, l := range exp.Layers {
		claimed[l.Metric] = true
		if _, ok := workloadByName(l.Workload); !ok {
			t.Errorf("%s: unknown workload %q", l.Metric, l.Workload)
		}
		found := l.Moves == "none" // a diagnostic of the benchmark itself
		for _, d := range endToEnd {
			found = found || d.Name == l.Moves
		}
		if !found {
			t.Errorf("%s: moves %q, not an end-to-end metric", l.Metric, l.Moves)
		}
	}
	for _, d := range perLayer {
		if !claimed[d.Name] {
			t.Errorf("per-layer metric %s has no recorded end-to-end effect", d.Name)
		}
	}
}
