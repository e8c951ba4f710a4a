// Command perfbench is the repository's benchmark. It times three
// workloads of the simulator end to end and, in a separate traced run,
// attributes their time and CPU to the repro/internal modules.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig6-campaign --seed 42 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//   - fig6-campaign: the paper's Sect. 5 matrix, 5 services × the four
//     Fig. 6 batches × 8 repetitions on the loss-free Twente path.
//   - revise-lossy: the 5 services on a path with 2% segment loss;
//     each repetition uploads four 100 kB text documents, appends to
//     each and inserts into its middle, and re-syncs.
//   - fleet-day: one core.RunFleet service day of 200,000 users with
//     the default class mix against a fresh sharded dedup store.
//
// A run is a closed loop of cold passes: each pass is a fresh child
// process that builds its inputs from the seed (set-up), runs the
// workload once on one worker per CPU (nproc), and reports its
// measurements; the run repeats passes until --seconds are spent. Fresh processes keep one pass from reusing the compressor's
// process-wide size caches, buffer pools or heap of another, as every
// cloudbench invocation starts cold too; cache fills within a pass
// stay in.
//
// With --trace 0 the last line of standard output is a JSON object
// with every end-to-end metric: setup_s (median set-up time of a
// pass, from process start to the first timed operation), ops_per_s
// (repetitions, or simulated user-days, per host second), cpu_us_per_op
// (process CPU per operation) and peak_rss_mb (the pass's VmHWM), each
// the median over the run's passes. With --trace 1 the run alternates
// untraced and traced passes, and the JSON line holds the per-layer
// metrics: spans around the benchmark's calls into each layer, work
// counts read off public results, CPU per module from a runtime/pprof
// profile, Go runtime counters, and the tracing overhead.
//
// Every pass digests its simulated output; the run checks that all
// passes agree, compares the digest with the one recorded in
// expected.json for the default seed, and prints it for any seed. A
// repetition that panics or fails a check, and every operation of a
// run whose digest is wrong, counts as failed.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

// defaultSeed is the seed whose digests expected.json records.
const defaultSeed = 42

// passMargin is how long a run may overrun --seconds: the pass under
// way when the time is spent still finishes, and a run that takes
// longer than this past its time is stopped with no result.
const passMargin = 100 * time.Second

//go:embed expected.json
var expectedJSON []byte

// expected is the part of expected.json the driver checks against.
type expected struct {
	DefaultSeed int64             `json:"default_seed"`
	Digests     map[string]string `json:"digests"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig6-campaign, revise-lossy or fleet-day")
		seed    = flag.Int64("seed", defaultSeed, "workload seed; inputs are a pure function of it")
		seconds = flag.Float64("seconds", 10, "how long a run measures")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		pass    = flag.Bool("pass", false, "run a single pass and print its raw measurements (used by the driver itself)")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (fig6-campaign, revise-lossy, fleet-day), -trace 0|1 and -seconds > 0\n")
		os.Exit(2)
	}
	// One worker per CPU: every pass uses the whole host and never
	// more workers than there are CPUs.
	n := runtime.NumCPU()
	if *pass {
		p, err := runPass(w, *seed, n, *traced == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: expected.json:", err)
		os.Exit(1)
	}
	if err := drive(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, n, exp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// passResult is one pass's raw measurements, sent from the child
// process to the driver as JSON.
type passResult struct {
	Traced      bool          `json:"traced"`
	ReadyUnixNs int64         `json:"ready_unix_ns"`
	WallNs      int64         `json:"wall_ns"`
	CPUNs       int64         `json:"cpu_ns"`
	PeakRSS     int64         `json:"peak_rss_bytes"`
	Runtime     runtimeStats  `json:"runtime"`
	SpanNs      [nSpans]int64 `json:"span_ns"`
	Profile     *attribution  `json:"profile,omitempty"`
	Outcome     outcome       `json:"outcome"`
	setupNs     int64         // process start to ReadyUnixNs, set by the driver
}

// runPass is the child side: set up, mark the instant timing may
// start, run the workload once and collect its measurements.
func runPass(w benchWorkload, seed int64, workers int, traced bool) (passResult, error) {
	run := w.prepare(seed)
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	p := passResult{Traced: traced, ReadyUnixNs: time.Now().UnixNano()}

	var prof bytes.Buffer
	rt0, cpu0 := readRuntime(), cpuTime()
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return p, fmt.Errorf("cpu profile: %w", err)
		}
	}
	start := time.Now()
	p.Outcome = run(workers, tr)
	p.WallNs = int64(time.Since(start))
	if traced {
		pprof.StopCPUProfile()
	}
	p.CPUNs = int64(cpuTime() - cpu0)
	p.Runtime = readRuntime().since(rt0)
	p.PeakRSS = peakRSSBytes()
	if traced {
		for s := range p.SpanNs {
			p.SpanNs[s] = tr.ns[s].Load()
		}
		a, err := attributeProfile(prof.Bytes())
		if err != nil {
			return p, err
		}
		p.Profile = &a
	}
	for _, e := range p.Outcome.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	return p, nil
}

// drive is the driver side: a closed loop of cold passes until the
// run's time is spent, then the result.
func drive(w benchWorkload, seed int64, dur time.Duration, traced bool, workers int, exp expected) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), dur+passMargin)
	defer cancel()

	var passes []passResult
	attempted, failed, lost := 0, 0, 0
	start := time.Now()
	for i := 0; ; i++ {
		u, t := split(passes)
		enough := len(u) >= minPasses && (!traced || len(t) >= minPasses)
		if time.Since(start) >= dur && (enough || lost >= minPasses) {
			if !enough {
				return fmt.Errorf("%d passes failed to complete", lost)
			}
			break
		}
		p, err := spawnPass(ctx, exe, w, seed, traced && i%2 == 1)
		attempted += w.ops
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: pass failed:", err)
			failed += w.ops
			lost++
			if ctx.Err() != nil {
				return err
			}
			continue
		}
		failed += p.Outcome.Failed
		passes = append(passes, p)
	}

	digest, err := checkDigests(passes, w.name, seed, exp)
	if err != nil {
		fmt.Println("digest:", err)
		failed = attempted
	}
	fmt.Printf("digest %s seed=%d %s\n", w.name, seed, digest)
	h, _ := json.Marshal(fingerprint(w.name, seed, workers))
	fmt.Printf("host %s\n", h)
	fmt.Printf("passes %d attempted %d failed %d failed_frac %g\n", len(passes), attempted, failed, ratio(float64(failed), float64(attempted)))

	defs, values := endToEnd, endToEndValues(passes)
	if traced {
		defs, values = perLayer, perLayerValues(passes, workers)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-30s %14.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// minPasses is the fewest passes of each kind a run takes, for
// medians; a run also gives up once this many passes crashed and its
// time is spent.
const minPasses = 3

// spawnPass runs one pass in a fresh child process and measures its
// set-up time from the instant the process is started.
func spawnPass(ctx context.Context, exe string, w benchWorkload, seed int64, traced bool) (passResult, error) {
	args := []string{"-pass", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return passResult{}, err
	}
	var p passResult
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		return p, fmt.Errorf("pass output: %w", err)
	}
	p.setupNs = p.ReadyUnixNs - start.UnixNano()
	return p, nil
}

// checkDigests returns the digest every pass agreed on, and an error
// when passes disagree or, for the default seed, the digest differs
// from the recorded one.
func checkDigests(passes []passResult, name string, seed int64, exp expected) (string, error) {
	if len(passes) == 0 {
		return "", errors.New("no pass completed")
	}
	d := passes[0].Outcome.Digest
	for _, p := range passes[1:] {
		if p.Outcome.Digest != d {
			return d, fmt.Errorf("passes disagree: %s vs %s", d, p.Outcome.Digest)
		}
	}
	if seed == exp.DefaultSeed {
		want := exp.Digests[name]
		if d != want {
			return d, fmt.Errorf("%s: digest %s, recorded %q for seed %d", name, d, want, seed)
		}
	}
	return d, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
