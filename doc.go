// Package repro is a from-scratch Go reproduction of "Benchmarking
// Personal Cloud Storage" (Drago, Bocchi, Mellia, Slatman, Pras —
// ACM IMC 2013): the methodology and tool for studying personal cloud
// storage services, applied to emulated reconstructions of Dropbox,
// SkyDrive, Wuala, Google Drive and Amazon Cloud Drive.
//
// The benchmark framework lives in internal/core; the service
// reconstructions in internal/client and internal/cloud; the network,
// DNS and measurement substrates in internal/{netem,tcpsim,httpsim,
// dnssim,trace,geo,whois,sim}; and the real data-plane algorithms in
// internal/{chunker,dedup,deltaenc,compressor,cryptobox,workload}.
// See DESIGN.md for the system inventory and the per-experiment index,
// and EXPERIMENTS.md for paper-vs-measured results.
//
// # Measurement engine
//
// Every published number is derived from the packet trace, so trace
// analysis and campaign repetition are the hot paths of the whole
// tool. They are organised as follows:
//
//   - internal/tcpsim is a closed-form transport engine: on loss-free
//     paths slow start is evaluated as the geometric cwnd schedule it
//     is (O(log n) per-round records) and the rate-limited steady
//     state collapses into a single trace.Span record plus one
//     duration formula — one Sink.Record call where the seed engine
//     paid O(bytes/BDP) of them. Lossy paths are analytic too: the
//     next loss position is inverse-transform sampled from the
//     geometric run-length distribution (one RNG draw per loss event,
//     not one per round), loss-free runs between losses advance
//     through the same closed-form schedule, and each recovery epoch
//     (window halving, fast-retransmit record) is evaluated exactly
//     as the per-round loop would — a lossy transfer costs O(losses),
//     not O(rounds). A per-round loop in internal/tcpsim's tests is
//     the reference engine: bit-identical under injected loss
//     positions, distributionally equivalent under RNG-driven loss
//     (both pinned by the package's equivalence suites).
//   - internal/trace.Sink is the recording boundary the transport
//     simulator writes against, with two implementations. Capture
//     records packets append-only; stragglers from connections
//     simulating on independent timelines land in a reorder buffer
//     that is merged back — stably — on first read, so recording is
//     O(1) and analyzers always see a time-sorted trace. Streamer
//     folds each packet into the per-flow accumulators of every
//     pre-registered window and discards it, so a repetition's trace
//     memory is O(flows) instead of O(packets).
//   - trace.Span records carry their slicing parameters (slice size,
//     spacing, count), so both sinks fold them in O(1) when a span
//     falls inside one window and expand them deterministically only
//     at window boundaries (Packet.Clip) — byte- and time-identical
//     to the per-round records they stand for. Per-packet analyzers
//     (Bursts, UploadPauses, throughput/cumulative timelines) walk
//     Capture.ExpandedPackets, the materialized per-round view; the
//     CSV trace format (v2) round-trips spans intact, and
//     cmd/tracedump reports stored records vs expanded packets.
//   - Capture.Window returns a zero-copy, binary-searched view of a
//     time slice (half-open [from, to)), sharing the backing store;
//     only windows that actually cut through a span copy and clip.
//   - trace.Analysis holds every scalar metric of Sect. 5 — byte
//     accounting in both directions, payload bracket, SYN timeline,
//     connection count — and callers read the field they need off
//     it. One per-flow fold in internal/trace produces it for both
//     sinks: Capture.Analyze runs the fold over the buffered records,
//     a StreamWindow runs it at record time over each record clipped
//     to its window, so the two agree by construction (the randomized
//     equivalence test in internal/trace still pins it).
//   - core.MeasureWindow reads all Sect. 5 metrics off two Analyze
//     passes (all flows, storage flows) of one window, in either
//     trace mode. The campaign cells (RunSync and every repeated
//     layer's repetitions, RunSYNCount, the Fig. 4/5 sweeps) stream; consumers that
//     genuinely re-window after the fact or walk individual packets —
//     RunIdle's cumulative timeline, AnalyzeProtocols' activity
//     clustering, the Sect. 4 capability detectors, RunPropagation,
//     RunRecovery, cmd/tracedump — keep a buffered Capture.
//   - internal/sim's RNG is PCG (RXS-M-XS-64) seeded through
//     SplitMix64: RNG.Fork is O(1) — two mixing rounds build a child's
//     whole state — and RNG.Fill generates eight bytes per step, so
//     file materialisation is memory-bandwidth bound.
//   - internal/workload generates files as content descriptors: a
//     folder file is the lazy recipe (Kind, Seed, Size), not bytes.
//     The planner (internal/client) materialises at the chunk boundary
//     and only when a capability genuinely needs bytes — CDC chunking,
//     dedup hashing, delta signatures, encryption, or a compression
//     cache miss — into pooled buffers released at the end of each
//     plan. A no-capability client (Cloud Drive) plans entire uploads
//     from descriptors alone: zero content bytes ever exist.
//   - internal/compressor memoises size-only DEFLATE in one cache
//     keyed by content identity alone: descriptor-backed chunks by
//     (kind, seed, size, chunk window) — no hashing, and on repeats no
//     generation — and ad-hoc bytes by their SHA-256 (still ~10x
//     cheaper than the level-6 flate it skips). An entry holds the
//     sniff verdict and the DEFLATE size, so Always and Smart share
//     it. Sizes stay exact, so campaigns that re-plan identical
//     content — repeated engine timings, the parallel-vs-sequential
//     identity checks, the Fig. 6 matrix whose per-(workload,
//     repetition) contents are shared across services — stop paying
//     for recompression, once per content rather than per policy.
//   - core.RunN is the parallel experiment scheduler: a generic
//     bounded-pool fan-out over arbitrary index spaces. Every
//     campaign-of-campaigns loop rides on it — RunCampaign,
//     Fig6Matrix and LossSweep over cell x repetition (through the
//     stopping engine core.RunUntil), Fig4DeltaSeries/
//     Fig5CompressionSeries over sweep sizes, LocationStudy over
//     service x vantage, and DetectCapabilities(/All) over the five
//     Sect. 4 detectors per service. Every exported fan-out takes its
//     worker count explicitly (0 = one per CPU, 1 = sequential);
//     cmd/cloudbench and cmd/capcheck pass their -parallel value down,
//     and no process-global knob exists. Nested fan-outs draw from one
//     process-wide helper count, so pools never oversubscribe the
//     machine; when the budget is spent, inner cells simply run
//     inline on their caller's worker.
//
// # Adaptive sampling
//
// The paper fixes every benchmark at 24 repetitions. core.StopRule
// generalises that: every repeated layer (RunCampaign, Fig6Matrix,
// LossSweep, RunFullCampaign, and the adaptive forms of the location
// study and capability check) takes one rule, and a fixed count is
// simply the rule whose bounds coincide (core.FixedReps(24) — one
// batch, no precision check). An adaptive rule instead runs each cell
// until the answer is tight: repetitions proceed in fixed-size
// batches (an opening batch of MinReps, then AdaptiveBatch at a time,
// capped at MaxReps) and the cell stops once the relative CI95
// half-width of the headline metrics (completion, goodput) is at or
// below the target. The multi-cell driver (core.RunUntil) puts the
// next batch of every still-open cell onto one RunN per round, so a
// fixed rule is exactly one flattened pass over the cell x repetition
// matrix. The stopping statistic is the same two-pass half-width
// Summarize reports (stats.MeanCI95 with Student-t critical values —
// exact table to df 30, Cornish–Fisher beyond), so small samples are
// not overconfident. Batch boundaries are constants of the rule,
// never derived from the worker count — the reps executed AND the
// resulting Summary are a pure function of (seed, rule),
// bit-identical at any -parallel setting (scripts/campaignsmoke.sh
// checks this end to end).
//
// Two variance-reduction levers (StopRule.Antithetic, StopRule.CRN)
// hit the target with fewer repetitions. Antithetic pairing gives rep
// 2k+1 its twin's seed on a complemented PCG stream
// (sim.NewAntitheticRNG) and computes the stopping statistic over
// pair means; the mirroring must survive the consumers, so RNG.Jitter
// reflects the accepted uniform deviate (complemented raw words do
// not survive Int63n's modulo) and RNG.Perm returns the reversed twin
// permutation (the antithetic construction for discrete choices — a
// k-prefix consumer like DNS server rotation sees the complementary
// end of the pool). On the golden Cloud Drive cell that pairing is
// what turns the far-server connection count — the variance driver —
// negatively correlated across twins, reaching the fixed-24-rep
// precision in 16 repetitions (TestAntitheticBeatsPlainOnGoldenWorkload
// pins it).
// CRN gives every service a common repetition seed stream in the
// multi-service sweeps, so cross-service deltas are paired
// comparisons. Summaries record RepsUsed and AchievedRelHW, adaptive
// campaign files record the rule (precision, max_reps), and
// cmd/comparebench annotates each delta with whether it fits inside
// the union of the two runs' achieved confidence intervals.
//
// # Fleet engine
//
// core.RunFleet scales the per-client methodology to a service
// population: N simulated users (10⁵–10⁶) share one cloud backend for
// a whole service day, so population composition changes server-side
// bytes — the paper's Sect. 4.3 deduplication phenomenon studied at
// fleet scale. A user is never materialised: it is an index, and its
// whole day — session instants from a per-class arrival process
// (internal/workload's Poisson, bursty Gamma and diurnal
// Lewis–Shedler thinning), per-session file mixes, and the content
// address of every chunk — is derived on demand from
// fleetSeed(base, user, session). Files stay lazy descriptors and a
// chunk's address is a pure function of its descriptor tuple, so a
// million-user day allocates O(active users), not O(users x files).
// Users are partitioned over a fixed stripe count (independent of the
// worker budget) and each stripe advances its users in virtual time
// through an event heap.
//
// The backend is dedup.Store, sharded by content-hash prefix with one
// plain mutex per shard — a single global lock under a concurrent
// fleet serialises every chunk lookup, and every hot-path store
// operation writes, so reader/writer bookkeeping buys nothing.
// Counters are per-shard atomics read without any lock; chunk entries
// live in pointer-free slab arenas addressed by index, so the garbage
// collector never scans the store's bulk state, and each entry folds
// the chunk's size together with its earliest claim, so one map access
// serves both.
//
// Cross-user dedup under parallelism runs as a one-pass claim/resolve
// protocol. The claim pass generates the day once: each session claims
// its chunks with its (virtual instant, user) pair — batched per
// (session, shard) group so a batch pays one lock acquisition
// (dedup.Store.ClaimBatchRef) — and the store keeps the earliest claim
// per chunk, a pure function of offered load whatever the execution
// interleaving. While claiming, each stripe records its session stream
// (users, instants, file counts, and each chunk's size and claimed
// store ref) into flat append-only arenas. The resolve pass replays
// those arenas instead of re-deriving the day — RNG forks, arrival
// draws and chunk hashing run once — and resolves each chunk's winner
// through its recorded ref (dedup.ChunkRef.WonBy), a direct entry read
// with no second map probe and no lock. Catalog files'
// sizes and chunk addresses are pure functions of class config and
// rank, precomputed into per-class tables so popular-file references
// cost no hashing at all.
//
// cmd/fleetbench reports the service-side load curves (bytes/s,
// concurrent connections, dedup ratio vs population size) and takes
// -cpuprofile/-memprofile for engine work; core.FleetConfig.Validate
// rejects a config that could not run before anything is simulated,
// and fleetbench exits 2 on it; perfbench's fleet-day
// workload times it end to end with per-module attribution; and
// scripts/fleetsmoke.sh byte-compares fleetbench reports across
// worker counts and store shard counts in CI.
//
// Determinism contract: every experiment cell derives all randomness
// from its own index (seed, testbed, RNG — see campaignSeed) and
// writes only its own result slot, so results are bit-identical to
// the sequential engine at any worker count and under any scheduling;
// -parallel only changes wall-clock time. The parallel-vs-sequential
// equivalence tests in internal/core/scheduler_test.go pin this for
// every lifted layer.
//
// The golden-equivalence tests in internal/trace, internal/chunker
// and internal/core pin the engine against the original
// scan-per-metric implementation. Pinned ("golden") values live in
// testdata/*.json via internal/goldenfile; a sanctioned refresh — an
// engine change that legitimately alters simulated behaviour, like
// the PCG content pipeline — regenerates them all with
// scripts/regen-golden.sh and declares the new perf baseline in a
// committed BASELINE_RESET marker, which scripts/trendcheck.sh then
// verifies corresponds to real drift (silent baseline rewrites fail
// CI either way). scripts/bench.sh snapshots the simulated Fig. 6
// campaign (BENCH_<sha>.json, diffable with cmd/comparebench);
// perfbench times the engine itself, parent against change.
//
// The determinism contract is also machine-enforced: cmd/simlint
// (scripts/lint.sh, or go vet -vettool) runs four custom analyzers —
// walltime (no wall-clock reads in simulation packages),
// rngdiscipline (all randomness from seeded sim.RNG streams; no
// shared stream captured by scheduler cells), mapiter (no map
// iteration order reaching traces, driver output or float
// accumulation) and goldendiscipline (no hardcoded golden pins
// outside internal/goldenfile) — over every package in CI. Audited
// exceptions carry in-source `//simlint:allow <check>` directives;
// internal/analysis/README.md documents each invariant.
//
// The benchmarks in bench_test.go regenerate every table and figure:
//
//	go test -bench=. -benchmem
package repro
