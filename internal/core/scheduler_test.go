package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/workload"
)

// equivalenceWorkerCounts are the worker counts every lifted layer is
// pinned at: forced-sequential, a small pool, and a pool larger than
// most cell counts.
var equivalenceWorkerCounts = []int{1, 2, 8}

func TestRunNZeroCells(t *testing.T) {
	calls := 0
	if out := RunN(0, 4, func(i int) int { calls++; return i }); len(out) != 0 {
		t.Fatalf("RunN(0) returned %d results", len(out))
	}
	if out := RunN(-3, 4, func(i int) int { calls++; return i }); len(out) != 0 {
		t.Fatalf("RunN(-3) returned %d results", len(out))
	}
	if calls != 0 {
		t.Fatalf("fn called %d times for empty index spaces", calls)
	}
}

func TestRunNWorkersExceedCells(t *testing.T) {
	out := RunN(3, 64, func(i int) int { return i * i })
	if want := []int{0, 1, 4}; !reflect.DeepEqual(out, want) {
		t.Fatalf("RunN(3, 64) = %v, want %v", out, want)
	}
}

func TestRunNResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		out := RunN(100, workers, func(i int) int { return i })
		for i, v := range out {
			if v != i {
				t.Fatalf("workers=%d: slot %d holds %d", workers, i, v)
			}
		}
	}
}

func TestRunNEachCellOnce(t *testing.T) {
	var counts [50]atomic.Int64
	RunEach(len(counts), 8, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
}

func TestRunNPanicNamesCell(t *testing.T) {
	// A panicking cell must surface on the caller — where recover can
	// catch it — naming the lowest panicking index with the original
	// value and stack, never crash the process from a helper goroutine.
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		got := func() (v any) {
			defer func() { v = recover() }()
			RunN(64, workers, func(i int) int {
				ran.Add(1)
				if i == 3 || i == 7 {
					panicInCell(i)
				}
				return i
			})
			return nil
		}()
		msg, ok := got.(string)
		if !ok {
			t.Fatalf("workers=%d: recovered %T %v, want a string naming the cell", workers, got, got)
		}
		if want := "core: RunN cell 3: boom 3\n"; !strings.HasPrefix(msg, want) {
			t.Fatalf("workers=%d: panic %q, want prefix %q", workers, firstLine(msg), want)
		}
		if !strings.Contains(msg, "panicInCell") {
			t.Fatalf("workers=%d: re-panic lost the cell's stack:\n%s", workers, msg)
		}
		if workers == 1 && ran.Load() != 4 {
			t.Fatalf("workers=1: %d cells ran, want 4 (no index handed out after the panic)", ran.Load())
		}
		if n := helpersActive.Load(); n != 0 {
			t.Fatalf("workers=%d: %d helper slots leaked", workers, n)
		}
	}
}

func panicInCell(i int) { panic(fmt.Sprintf("boom %d", i)) }

func firstLine(s string) string { return strings.SplitN(s, "\n", 2)[0] }

func TestRunNNestedSharesBudget(t *testing.T) {
	// A fan-out whose cells fan out again must complete correctly
	// (inner pools fall back to inline execution when the shared
	// budget is spent — never deadlock) and must not exceed the
	// budget's goroutine count.
	var peak, active atomic.Int64
	outer := RunN(6, 3, func(i int) int {
		cur := active.Add(1)
		defer active.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inner := RunN(6, 3, func(j int) int { return i*6 + j })
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum
	})
	want := 0
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want += i*6 + j
		}
	}
	got := 0
	for _, v := range outer {
		got += v
	}
	if got != want {
		t.Fatalf("nested sum = %d, want %d", got, want)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("outer cells ran %d-wide, want <= budget 3", p)
	}
}

// ---- parallel-vs-sequential golden equivalence per lifted layer ----

func TestFig6ForServiceParallelEquivalence(t *testing.T) {
	one := []client.Profile{client.CloudDrive()}
	seq := Fig6Matrix(one, FixedReps(3), 42, 1)
	for _, w := range equivalenceWorkerCounts[1:] {
		if par := Fig6Matrix(one, FixedReps(3), 42, w); !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: Fig6Matrix differs from sequential\n seq %+v\n par %+v", w, seq, par)
		}
	}
}

func TestFig6MatrixMatchesPerService(t *testing.T) {
	profiles := []client.Profile{client.CloudDrive(), client.Wuala()}
	for _, w := range equivalenceWorkerCounts {
		matrix := Fig6Matrix(profiles, FixedReps(2), 42, w)
		if len(matrix) != len(profiles) {
			t.Fatalf("workers=%d: matrix has %d services", w, len(matrix))
		}
		for i, p := range profiles {
			single := Fig6Matrix([]client.Profile{p}, FixedReps(2), 42, w)[0]
			if !reflect.DeepEqual(matrix[i], single) {
				t.Errorf("workers=%d: matrix[%s] differs from the single-service run", w, p.Service)
			}
		}
	}
}

func TestLocationStudyParallelEquivalence(t *testing.T) {
	batch := workload.Batch{Count: 1, Size: 100 << 10, Kind: workload.Binary}
	sea, _ := VantageByName("SEA")
	vantages := []Vantage{Twente, sea}
	seq := LocationStudy(batch, vantages, 63, 1)
	for _, w := range equivalenceWorkerCounts[1:] {
		if par := LocationStudy(batch, vantages, 63, w); !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: LocationStudy differs from sequential", w)
		}
	}
}

func TestFig4DeltaSeriesParallelEquivalence(t *testing.T) {
	sizes := []int64{100 << 10, 1 << 20, 2 << 20}
	seq := Fig4DeltaSeries(client.Dropbox(), ModRandom, sizes, added100k, 21, 1)
	for _, w := range equivalenceWorkerCounts[1:] {
		if par := Fig4DeltaSeries(client.Dropbox(), ModRandom, sizes, added100k, 21, w); !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: Fig4DeltaSeries differs from sequential\n seq %v\n par %v", w, seq, par)
		}
	}
}

func TestFig5CompressionSeriesParallelEquivalence(t *testing.T) {
	sizes := []int64{100 << 10, 500 << 10, 1 << 20}
	seq := Fig5CompressionSeries(client.Dropbox(), workload.Text, sizes, 22, 1)
	for _, w := range equivalenceWorkerCounts[1:] {
		if par := Fig5CompressionSeries(client.Dropbox(), workload.Text, sizes, 22, w); !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: Fig5CompressionSeries differs from sequential\n seq %v\n par %v", w, seq, par)
		}
	}
}

func TestDetectCapabilitiesParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full capability suite per worker count is long")
	}
	p := client.Dropbox()
	seq := DetectCapabilities(p, 7, 1)
	for _, w := range equivalenceWorkerCounts[1:] {
		if par := DetectCapabilities(p, 7, w); seq != par {
			t.Errorf("workers=%d: DetectCapabilities differs from sequential\n seq %+v\n par %+v", w, seq, par)
		}
	}
	// The flattened service x detector matrix must agree with the
	// single-service path.
	profiles := []client.Profile{client.Dropbox(), client.CloudDrive()}
	all := DetectCapabilitiesAll(profiles, 7, 8)
	if all["dropbox"] != seq {
		t.Errorf("DetectCapabilitiesAll[dropbox] = %+v, want %+v", all["dropbox"], seq)
	}
	// Both dedup verdicts must come from one experiment: with the
	// dropbox profile at this seed both are positive.
	if !all["dropbox"].Dedup || !all["dropbox"].DedupAfterDelete {
		t.Errorf("dropbox dedup verdicts = %v/%v, want true/true",
			all["dropbox"].Dedup, all["dropbox"].DedupAfterDelete)
	}
}
