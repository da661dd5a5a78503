//! Compares sequential vs. batched synthesis wall-time across three workload
//! families and emits a machine-readable `BENCH_batch.json`.
//!
//! Families (per the paper's evaluation regimes):
//!
//! * `random_sparse_uniform` — random sparse uniform states (`m = n`, the
//!   Table V bottom-half regime) across several register widths,
//! * `random_dense` — random dense states (the Table V top-half regime),
//! * `dicke_families` — the named Dicke/GHZ/W workloads of Table IV, cycled
//!   so the canonical cache sees the high-duplication shape named-state
//!   traffic actually has,
//! * `skewed_repeats` — Bell-pair-product states whose optimal circuits sit
//!   exactly on the entanglement lower bound, replayed over several rounds
//!   with fresh angles per round: the first round captures one class
//!   template per support layout, every later round instantiates it through
//!   the angle-replay stage instead of searching (`template_hits`).
//!
//! Every family mixes in repeated targets so deduplication has something to
//! do. The sequential arm drives the workflow through
//! [`StatePreparator::prepare_many`]; the batch arm is one
//! `synthesize_requests` call. Per-stage timings (keying / planning / solving /
//! assembly) come from [`BatchStats`].
//!
//! Both arms run `--reps` times and report the *minimum* wall time — the
//! standard microbenchmark estimator for the noise-free cost, which matters
//! on shared CI hosts where the fast sparse families finish in a few
//! milliseconds and scheduler interference would otherwise dominate the
//! ratio. Each batch rep gets a fresh engine so every rep keys and solves
//! the same cold-cache problem; counters and reports come from the first
//! rep.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p qsp-bench --bin batch_bench -- \
//!     [--threads 0] [--targets 120] [--min-n 8] [--max-n 12] \
//!     [--repeat-every 6] [--shards 0] [--capacity 0] [--smoke] \
//!     [--reps 3] [--warm-start warm.json] [--save-cache warm.json] \
//!     [--out BENCH_batch.json] [--stats-json obs.json]
//! ```
//!
//! `--threads 0` (the default) uses the machine's available parallelism.
//! `--smoke` shrinks every family for CI smoke runs. `--warm-start` merges a
//! cache snapshot into every family's engine before it runs (cheaper entry
//! wins on collision); `--save-cache` writes the merged union of all family
//! caches back out — together they are the cross-process warm-start loop of
//! the distributed-cache roadmap item.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use qsp_baselines::StatePreparator;
use qsp_bench::report::{has_switch, parse_flag, parse_path};
use qsp_core::json::Value;
use qsp_core::{
    BatchOptions, BatchStats, BatchSynthesizer, CacheConfig, QspWorkflow, ShardedCache,
    SynthesisRequest,
};
use qsp_obs::MetricValue;
use qsp_obs::{ObsHub, ObsOptions, RequestTrace, SpanKind, TraceId};
use qsp_state::generators::Workload;
use qsp_state::{BasisIndex, SparseState};

struct FamilyReport {
    name: &'static str,
    targets: usize,
    duplicates: usize,
    min_qubits: usize,
    max_qubits: usize,
    sequential_ms: f64,
    batch_ms: f64,
    stats: BatchStats,
    total_cnot_sequential: usize,
    total_cnot_batch: usize,
    costs_identical: bool,
    per_width: Vec<WidthReport>,
}

/// Per-register-width keying report: how expensive keying is (center and
/// tail), how the tiered pipeline split between the signature fast path and
/// the full collision tier, and how much of the family's traffic
/// deduplicated at that width.
#[derive(Clone, Default)]
struct WidthReport {
    qubits: usize,
    targets: usize,
    /// Targets at this width that triggered their own fresh solve.
    fresh_solves: usize,
    /// Per-request keying times at this width, in nanoseconds.
    keying_ns: Vec<f64>,
    /// Targets keyed on the stage-0 signature alone (tiered fast path).
    keys_sig_tier: usize,
    /// Targets that collided and ran the full orbit/flip canonicalization.
    keys_full_tier: usize,
}

/// Nearest-rank percentile of an unsorted sample set.
fn percentile_ns(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[((sorted.len() - 1) as f64 * q).floor() as usize]
}

impl WidthReport {
    fn dedup_rate(&self) -> f64 {
        if self.targets == 0 {
            0.0
        } else {
            1.0 - self.fresh_solves as f64 / self.targets as f64
        }
    }

    fn keying_ns_per_target(&self) -> f64 {
        if self.targets == 0 {
            0.0
        } else {
            self.keying_ns.iter().sum::<f64>() / self.targets as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{ \"qubits\": {}, \"targets\": {}, \"fresh_solves\": {}, \
             \"dedup_rate\": {:.4}, \"keying_ns_per_target\": {:.0}, \
             \"keying_ns_p50\": {:.0}, \"keying_ns_p95\": {:.0}, \
             \"keys\": {{ \"sig_tier\": {}, \"full_tier\": {} }} }}",
            self.qubits,
            self.targets,
            self.fresh_solves,
            self.dedup_rate(),
            self.keying_ns_per_target(),
            percentile_ns(&self.keying_ns, 0.50),
            percentile_ns(&self.keying_ns, 0.95),
            self.keys_sig_tier,
            self.keys_full_tier,
        )
    }
}

/// Folds per-request provenance and keying timings into per-width rows,
/// sorted by width.
fn per_width_report(
    targets: &[SparseState],
    reports: &[Result<qsp_core::SynthesisReport, qsp_core::SynthesisError>],
) -> Vec<WidthReport> {
    let mut by_width: std::collections::BTreeMap<usize, WidthReport> =
        std::collections::BTreeMap::new();
    for (target, report) in targets.iter().zip(reports) {
        let report = report.as_ref().expect("no per-target errors");
        let row = by_width
            .entry(target.num_qubits())
            .or_insert_with(|| WidthReport {
                qubits: target.num_qubits(),
                ..WidthReport::default()
            });
        row.targets += 1;
        if report.provenance.is_fresh_solve() {
            row.fresh_solves += 1;
        }
        row.keying_ns
            .push(report.timings.keying.as_secs_f64() * 1e9);
    }
    by_width.into_values().collect()
}

/// Copies the engine's width-labelled `batch.keys.tier` counters into the
/// matching per-width rows (the keying phase labels every key it computes
/// with its register width and the tier that produced it).
fn fold_tier_counters(snapshot: &qsp_obs::ObsSnapshot, rows: &mut [WidthReport]) {
    for sample in &snapshot.metrics.samples {
        if sample.name != "batch.keys.tier" {
            continue;
        }
        let MetricValue::Counter(count) = sample.value else {
            continue;
        };
        let label = |key: &str| {
            sample
                .labels
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        };
        let Some(width) = label("width").and_then(|w| w.parse::<usize>().ok()) else {
            continue;
        };
        let Some(row) = rows.iter_mut().find(|row| row.qubits == width) else {
            continue;
        };
        match label("tier") {
            Some("sig") => row.keys_sig_tier += count as usize,
            Some("full") => row.keys_full_tier += count as usize,
            _ => {}
        }
    }
}

/// Merges per-width rows across families (same-width rows accumulate).
fn merge_widths(families: &[FamilyReport]) -> Vec<WidthReport> {
    let mut by_width: std::collections::BTreeMap<usize, WidthReport> =
        std::collections::BTreeMap::new();
    for family in families {
        for row in &family.per_width {
            let merged = by_width.entry(row.qubits).or_insert_with(|| WidthReport {
                qubits: row.qubits,
                ..WidthReport::default()
            });
            merged.targets += row.targets;
            merged.fresh_solves += row.fresh_solves;
            merged.keying_ns.extend_from_slice(&row.keying_ns);
            merged.keys_sig_tier += row.keys_sig_tier;
            merged.keys_full_tier += row.keys_full_tier;
        }
    }
    by_width.into_values().collect()
}

/// Measures the per-request cost of the observability hot path with ring
/// tracing *disabled* (the production default): the counter bumps, one
/// histogram record and the early-out `record_trace` check a request pays
/// whether or not anyone is watching. The CI smoke gate holds this under the
/// `obs_overhead_ns_per_request_ceiling` of the baseline file.
fn measure_obs_overhead_ns() -> f64 {
    let hub = ObsHub::default();
    assert!(!hub.tracer().enabled(), "default hub must have tracing off");
    let counter = hub.metrics().counter("bench.obs_overhead.requests", &[]);
    let histogram = hub.metrics().histogram("bench.obs_overhead.latency", &[]);
    let mut trace = RequestTrace::new(TraceId::from_raw(1));
    for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
        trace.push(
            kind,
            Duration::from_nanos(i as u64 * 100),
            Duration::from_nanos(100),
        );
    }
    const ITERS: u64 = 1_000_000;
    let start = Instant::now();
    for _ in 0..ITERS {
        // The per-request obs footprint on the disabled path: one outcome
        // counter, one latency record, one rejected trace offer.
        counter.inc();
        histogram.record(std::hint::black_box(Duration::from_nanos(250)));
        std::hint::black_box(hub.tracer().record_trace(std::hint::black_box(&trace)));
    }
    start.elapsed().as_secs_f64() * 1e9 / ITERS as f64
}

fn count_duplicates(targets: &[SparseState]) -> usize {
    targets.len()
        - targets
            .iter()
            .map(|t| format!("{t}"))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
}

fn qubit_range(targets: &[SparseState]) -> (usize, usize) {
    let min = targets
        .iter()
        .map(SparseState::num_qubits)
        .min()
        .unwrap_or(0);
    let max = targets
        .iter()
        .map(SparseState::num_qubits)
        .max()
        .unwrap_or(0);
    (min, max)
}

/// Random states sweeping `min_n..=max_n` (built by `make` from a width and
/// seed), with every `repeat_every`-th target repeating an earlier one.
fn random_family(
    total: usize,
    min_n: usize,
    max_n: usize,
    repeat_every: usize,
    make: impl Fn(usize, u64) -> Workload,
) -> Vec<SparseState> {
    let widths = max_n - min_n + 1;
    let mut targets: Vec<SparseState> = Vec::with_capacity(total);
    for i in 0..total {
        if i % repeat_every == repeat_every - 1 && i > 0 {
            // Rotate the copied index across the width cycle: with a fixed
            // source (e.g. `i / 2`) and `repeat_every` a multiple of the
            // cycle length, every duplicate aliases onto one width and the
            // other widths never dedup — an artifact, not traffic shape.
            let rotation = (i / repeat_every) % widths;
            targets.push(targets[(i / 2 + rotation) % i].clone());
        } else {
            let n = min_n + (i % widths);
            targets.push(
                make(n, i as u64)
                    .instantiate()
                    .expect("random workload generates"),
            );
        }
    }
    targets
}

/// The named Table IV workloads cycled to `total` targets: the
/// high-duplication shape of named-state traffic.
fn dicke_family(total: usize) -> Vec<SparseState> {
    let named = [
        Workload::Dicke { n: 3, k: 1 },
        Workload::Dicke { n: 4, k: 1 },
        Workload::Dicke { n: 4, k: 2 },
        Workload::Dicke { n: 5, k: 1 },
        Workload::Dicke { n: 5, k: 2 },
        Workload::Dicke { n: 6, k: 2 },
        Workload::Dicke { n: 6, k: 3 },
        Workload::Ghz { n: 8 },
        Workload::W { n: 6 },
    ];
    (0..total)
        .map(|i| {
            named[i % named.len()]
                .instantiate()
                .expect("dicke workload generates")
        })
        .collect()
}

/// Accumulates one round's [`BatchStats`] into a family-wide total.
fn merge_stats(total: &mut BatchStats, round: &BatchStats) {
    total.targets += round.targets;
    total.solver_runs += round.solver_runs;
    total.template_hits += round.template_hits;
    total.cache_hits += round.cache_hits;
    total.errors += round.errors;
    total.keys_exhaustive += round.keys_exhaustive;
    total.keys_orbit_pruned += round.keys_orbit_pruned;
    total.keys_greedy += round.keys_greedy;
    total.keys_sig_fast_path += round.keys_sig_fast_path;
    total.threads = total.threads.max(round.threads);
    total.elapsed += round.elapsed;
    total.keying += round.keying;
    total.planning += round.planning;
    total.solving += round.solving;
    total.assembly += round.assembly;
}

/// Runs one family as a sequence of batch calls against a shared engine.
/// Single-round families measure pure in-batch dedup; the multi-round
/// `skewed_repeats` family measures cross-batch template capture and
/// replay (round 1 captures, later rounds instantiate).
/// A product of disjoint `cos θ|00⟩ + sin θ|11⟩` Bell pairs on an `n`-qubit
/// register (unpaired qubits stay |0⟩). Its optimal circuit costs one CNOT
/// per pair — exactly the entanglement lower bound — which is the capture
/// gate of the template cache: the first solve of each support layout
/// records a class template, and every later target with the same support
/// but fresh angles replays it through the angle stage instead of
/// searching.
fn bell_pair_product(n: usize, pairs: &[(usize, usize)], thetas: &[f64]) -> SparseState {
    let mut entries: Vec<(u64, f64)> = vec![(0, 1.0)];
    for (&(a, b), &theta) in pairs.iter().zip(thetas) {
        let mut next = Vec::with_capacity(entries.len() * 2);
        for &(index, amplitude) in &entries {
            next.push((index, amplitude * theta.cos()));
            next.push((index | (1 << a) | (1 << b), amplitude * theta.sin()));
        }
        entries = next;
    }
    SparseState::from_amplitudes(
        n,
        entries
            .into_iter()
            .map(|(index, amplitude)| (BasisIndex::new(index), amplitude)),
    )
    .expect("bell-pair product state is normalized")
}

/// The skewed-repeat template workload: six fixed two-pair support layouts
/// across 6–8 qubit registers, re-requested every round with fresh angles.
/// Every round is a separate batch against the same engine, so round 1
/// captures one template per layout and rounds 2+ are pure template
/// traffic (new canonical classes — the angles differ — but known
/// structure).
fn skewed_repeat_rounds(rounds: usize) -> Vec<Vec<SparseState>> {
    let layouts: [(usize, [(usize, usize); 2]); 6] = [
        (6, [(0, 1), (2, 3)]),
        (6, [(1, 4), (2, 5)]),
        (7, [(0, 3), (5, 6)]),
        (7, [(1, 2), (4, 5)]),
        (8, [(0, 7), (3, 4)]),
        (8, [(2, 5), (1, 6)]),
    ];
    (0..rounds)
        .map(|round| {
            layouts
                .iter()
                .enumerate()
                .map(|(i, &(n, ref pairs))| {
                    // Distinct angles per (layout, round), all in (0, π/2)
                    // so every amplitude stays positive.
                    let thetas = [
                        0.2 + 0.11 * round as f64 + 0.05 * i as f64,
                        0.3 + 0.07 * round as f64 + 0.03 * i as f64,
                    ];
                    bell_pair_product(n, pairs, &thetas)
                })
                .collect()
        })
        .collect()
}

fn run_family(
    name: &'static str,
    rounds: Vec<Vec<SparseState>>,
    reps: usize,
    make_engine: &dyn Fn() -> BatchSynthesizer,
) -> (FamilyReport, BatchSynthesizer) {
    let targets: Vec<SparseState> = rounds.iter().flatten().cloned().collect();
    let duplicates = count_duplicates(&targets);
    let (min_qubits, max_qubits) = qubit_range(&targets);
    eprintln!(
        "family {name}: {} targets (n = {min_qubits}..={max_qubits}, ~{duplicates} duplicates, {} rounds, min of {reps} reps)...",
        targets.len(),
        rounds.len()
    );

    // Both arms, interleaved per rep so slow drift of the host (thermal,
    // co-tenant load) hits them evenly; each arm keeps its minimum wall
    // time. Families that finish a rep in well under the measurement floor
    // keep repeating (up to 8x the requested reps) so their minima are
    // taken over enough samples to be stable — millisecond-scale families
    // are where scheduler jitter is largest relative to the signal.
    // The sequential workflow is deterministic and every batch rep
    // gets a fresh engine (the same cold-cache problem), so the first
    // rep's circuits, stats, reports and engine (for the obs snapshot and
    // cache merge) are the ones reported.
    const MEASUREMENT_FLOOR: Duration = Duration::from_millis(150);
    let workflow = QspWorkflow::new();
    let mut sequential = None;
    let mut sequential_elapsed = Duration::MAX;
    let mut batch_elapsed = Duration::MAX;
    let mut kept = None;
    let mut measured = Duration::ZERO;
    let mut rep = 0usize;
    while rep < reps.max(1) || (measured < MEASUREMENT_FLOOR && rep < reps.max(1) * 8) {
        let rep_start = Instant::now();
        let run = workflow.prepare_many(&targets);
        let seq_wall = rep_start.elapsed();
        sequential_elapsed = sequential_elapsed.min(seq_wall);
        sequential.get_or_insert(run);

        // Requests are assembled outside the timed region: the sequential
        // arm borrows `&targets` without cloning, so the clone cost of
        // materializing owned requests is harness work, not batch work.
        let rep_engine = make_engine();
        let request_rounds: Vec<Vec<SynthesisRequest<SparseState>>> = rounds
            .iter()
            .map(|round| {
                round
                    .iter()
                    .map(|t| SynthesisRequest::new(t.clone()))
                    .collect()
            })
            .collect();
        let rep_start = Instant::now();
        let mut rep_stats = BatchStats::default();
        let mut rep_reports = Vec::with_capacity(targets.len());
        for requests in &request_rounds {
            let outcome = rep_engine.synthesize_requests(requests);
            merge_stats(&mut rep_stats, &outcome.stats);
            rep_reports.extend(outcome.reports);
        }
        let batch_wall = rep_start.elapsed();
        batch_elapsed = batch_elapsed.min(batch_wall);
        kept.get_or_insert((rep_stats, rep_reports, rep_engine));
        measured += seq_wall + batch_wall;
        rep += 1;
    }
    let sequential = sequential.expect("at least one sequential rep");
    let (stats, reports, engine) = kept.expect("at least one batch rep");
    assert_eq!(stats.errors, 0, "batched synthesis must not fail");

    // The batch must match the per-target runs CNOT for CNOT. The flag is
    // computed (and emitted into the JSON) before the hard assert so the
    // report can never claim an identity the data does not show.
    let mut total_cnot_sequential = 0usize;
    let mut total_cnot_batch = 0usize;
    let mut costs_identical = true;
    for (i, (seq, bat)) in sequential.iter().zip(&reports).enumerate() {
        let seq = seq.as_ref().expect("sequential synthesis succeeds");
        let bat = bat.as_ref().expect("no per-target errors");
        if seq.cnot_cost() != bat.cnot_cost {
            costs_identical = false;
            eprintln!("{name} target {i}: batch CNOT cost diverged from the sequential workflow");
        }
        total_cnot_sequential += seq.cnot_cost();
        total_cnot_batch += bat.cnot_cost;
    }
    assert!(costs_identical, "{name}: batch CNOT costs diverged");

    let mut per_width = per_width_report(&targets, &reports);
    fold_tier_counters(&engine.obs().snapshot(), &mut per_width);
    let report = FamilyReport {
        name,
        targets: targets.len(),
        duplicates,
        min_qubits,
        max_qubits,
        sequential_ms: sequential_elapsed.as_secs_f64() * 1e3,
        batch_ms: batch_elapsed.as_secs_f64() * 1e3,
        stats,
        total_cnot_sequential,
        total_cnot_batch,
        costs_identical,
        per_width,
    };
    (report, engine)
}

fn family_json(report: &FamilyReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        concat!(
            "    {{\n",
            "      \"workload\": \"{}\",\n",
            "      \"targets\": {},\n",
            "      \"min_qubits\": {},\n",
            "      \"max_qubits\": {},\n",
            "      \"duplicate_targets\": {},\n",
            "      \"sequential_ms\": {:.3},\n",
            "      \"batch_ms\": {:.3},\n",
            "      \"speedup\": {:.3},\n",
            "      \"solver_runs\": {},\n",
            "      \"template_hits\": {},\n",
            "      \"cache_hits\": {},\n",
            "      \"keys\": {{ \"exhaustive\": {}, \"orbit_pruned\": {}, \"greedy\": {}, \"sig_fast_path\": {} }},\n",
            "      \"stage_ms\": {{ \"keying\": {:.3}, \"planning\": {:.3}, \"solving\": {:.3}, \"assembly\": {:.3} }},\n",
            "      \"total_cnot_sequential\": {},\n",
            "      \"total_cnot_batch\": {},\n",
            "      \"costs_identical\": {},\n",
            "      \"per_width\": [\n{}\n      ]\n",
            "    }}"
        ),
        report.name,
        report.targets,
        report.min_qubits,
        report.max_qubits,
        report.duplicates,
        report.sequential_ms,
        report.batch_ms,
        report.sequential_ms / report.batch_ms.max(1e-9),
        report.stats.solver_runs,
        report.stats.template_hits,
        report.stats.cache_hits,
        report.stats.keys_exhaustive,
        report.stats.keys_orbit_pruned,
        report.stats.keys_greedy,
        report.stats.keys_sig_fast_path,
        report.stats.keying.as_secs_f64() * 1e3,
        report.stats.planning.as_secs_f64() * 1e3,
        report.stats.solving.as_secs_f64() * 1e3,
        report.stats.assembly.as_secs_f64() * 1e3,
        report.total_cnot_sequential,
        report.total_cnot_batch,
        report.costs_identical,
        width_rows_json(&report.per_width, "        "),
    );
    out
}

fn width_rows_json(rows: &[WidthReport], indent: &str) -> String {
    rows.iter()
        .map(|row| format!("{indent}{}", row.to_json()))
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = has_switch(&args, "--smoke");
    let threads = parse_flag(&args, "--threads", 0);
    let default_targets = if smoke { 60 } else { 120 };
    let total = parse_flag(&args, "--targets", default_targets).max(if smoke { 20 } else { 100 });
    let min_n = parse_flag(&args, "--min-n", if smoke { 6 } else { 8 });
    let max_n = parse_flag(&args, "--max-n", if smoke { 8 } else { 12 }).max(min_n);
    let repeat_every = parse_flag(&args, "--repeat-every", 6).max(2);
    // Min-of-reps timing: smoke families are milliseconds-fast, so noise
    // rejection matters there; full runs are long enough that one rep does.
    let reps = parse_flag(&args, "--reps", if smoke { 3 } else { 1 }).max(1);
    let shards = parse_flag(&args, "--shards", 0);
    let capacity = parse_flag(&args, "--capacity", 0);
    let out_path = parse_path(&args, "--out").unwrap_or_else(|| "BENCH_batch.json".to_string());
    let warm_start = parse_path(&args, "--warm-start");
    let save_cache = parse_path(&args, "--save-cache");
    let stats_json = parse_path(&args, "--stats-json");

    // The benchmark runs with the full observability surface on: ring
    // tracing (every request, ring sized to hold a whole family), the solver
    // flight recorder and cache probe/evict timing — so the emitted report
    // carries a complete ObsSnapshot per family.
    let obs = ObsOptions::default()
        .with_tracing(true)
        .with_ring_capacity(4096)
        .with_flight(true)
        .with_flight_capacity(512)
        .with_timing_detail(true);
    let options = BatchOptions::default()
        .with_threads(threads)
        .with_cache(
            CacheConfig::default()
                .with_shards(shards)
                .with_capacity(capacity),
        )
        .with_obs(obs);

    // Dense solves are orders of magnitude heavier than sparse ones (the
    // capped residual search dominates), so the dense family is kept small
    // enough that the benchmark finishes in tens of seconds.
    let dense_total = if smoke { 6 } else { (total / 6).max(12) };
    let dicke_total = total / 2;
    let (dense_min, dense_max) = if smoke { (4, 4) } else { (4, 6) };

    let template_rounds = if smoke { 4 } else { 6 };
    let families = [
        (
            "random_sparse_uniform",
            vec![random_family(total, min_n, max_n, repeat_every, |n, i| {
                Workload::RandomSparse {
                    n,
                    seed: 10_000 + i,
                }
            })],
        ),
        (
            "random_dense",
            vec![random_family(
                dense_total,
                dense_min,
                dense_max,
                repeat_every,
                |n, i| Workload::RandomDense {
                    n,
                    seed: 20_000 + i,
                },
            )],
        ),
        ("dicke_families", vec![dicke_family(dicke_total)]),
        ("skewed_repeats", skewed_repeat_rounds(template_rounds)),
    ];

    // The merged union of every family's solved classes (cheaper entry wins)
    // when `--save-cache` asks for a warm-start snapshot to be written.
    let merged = ShardedCache::new(CacheConfig::unbounded());
    let mut reports = Vec::new();
    let mut obs_snapshots: Vec<(&'static str, qsp_obs::ObsSnapshot)> = Vec::new();
    for (name, targets) in families {
        // A fresh engine per family (and per timing rep): cross-batch warm
        // hits are measured by the snapshot tests, not the benchmark.
        let make_engine = || {
            let engine = BatchSynthesizer::with_options(Default::default(), options);
            if let Some(path) = &warm_start {
                let adopted = engine
                    .load_cache_snapshot(path)
                    .expect("load --warm-start snapshot");
                eprintln!("family {name}: warm-started {adopted} classes from {path}");
            }
            engine
        };
        let (report, engine) = run_family(name, targets, reps, &make_engine);
        reports.push(report);
        obs_snapshots.push((name, engine.obs().snapshot()));
        if save_cache.is_some() {
            merged.merge_from(engine.cache());
        }
    }
    if let Some(path) = &save_cache {
        let written = merged
            .save_snapshot(std::path::Path::new(path))
            .expect("write --save-cache snapshot");
        eprintln!("saved {written} merged classes to {path}");
    }

    let sequential_ms: f64 = reports.iter().map(|r| r.sequential_ms).sum();
    let batch_ms: f64 = reports.iter().map(|r| r.batch_ms).sum();
    let total_targets: usize = reports.iter().map(|r| r.targets).sum();
    let solver_runs: usize = reports.iter().map(|r| r.stats.solver_runs).sum();
    let cache_hits: usize = reports.iter().map(|r| r.stats.cache_hits).sum();
    let cnot_sequential: usize = reports.iter().map(|r| r.total_cnot_sequential).sum();
    let cnot_batch: usize = reports.iter().map(|r| r.total_cnot_batch).sum();
    let all_costs_identical = reports.iter().all(|r| r.costs_identical);
    let keys_exhaustive: usize = reports.iter().map(|r| r.stats.keys_exhaustive).sum();
    let keys_orbit_pruned: usize = reports.iter().map(|r| r.stats.keys_orbit_pruned).sum();
    let keys_greedy: usize = reports.iter().map(|r| r.stats.keys_greedy).sum();
    let keys_sig_fast_path: usize = reports.iter().map(|r| r.stats.keys_sig_fast_path).sum();
    let template_hits: usize = reports.iter().map(|r| r.stats.template_hits).sum();
    let skewed_repeat_hits = reports
        .iter()
        .find(|r| r.name == "skewed_repeats")
        .map(|r| r.stats.template_hits)
        .unwrap_or(0);
    let merged_widths = merge_widths(&reports);
    // The engine reports the pool width it actually ran (configured or
    // auto-detected, capped at the family size); the widest family is the
    // benchmark's effective parallelism.
    let resolved_threads = reports.iter().map(|r| r.stats.threads).max().unwrap_or(1);

    let mut json = String::new();
    let _ = write!(
        json,
        concat!(
            "{{\n",
            "  \"benchmark\": \"batch_vs_sequential_synthesis\",\n",
            "  \"smoke\": {},\n",
            "  \"threads\": {},\n",
            "  \"cache_shards\": {},\n",
            "  \"cache_capacity\": {},\n",
            "  \"targets\": {},\n",
            "  \"sequential_ms\": {:.3},\n",
            "  \"batch_ms\": {:.3},\n",
            "  \"speedup\": {:.3},\n",
            "  \"solver_runs\": {},\n",
            "  \"cache_hits\": {},\n",
            "  \"keys\": {{ \"exhaustive\": {}, \"orbit_pruned\": {}, \"greedy\": {}, \"sig_fast_path\": {} }},\n",
            "  \"templates\": {{ \"hits\": {}, \"skewed_repeat_hits\": {} }},\n",
            "  \"total_cnot_sequential\": {},\n",
            "  \"total_cnot_batch\": {},\n",
            "  \"costs_identical\": {},\n",
            "  \"per_width\": [\n{}\n  ],\n",
        ),
        smoke,
        resolved_threads,
        options.cache.resolved_shards(),
        capacity,
        total_targets,
        sequential_ms,
        batch_ms,
        sequential_ms / batch_ms.max(1e-9),
        solver_runs,
        cache_hits,
        keys_exhaustive,
        keys_orbit_pruned,
        keys_greedy,
        keys_sig_fast_path,
        template_hits,
        skewed_repeat_hits,
        cnot_sequential,
        cnot_batch,
        all_costs_identical,
        width_rows_json(&merged_widths, "    "),
    );

    // The observability slice of the report: the disabled-path overhead
    // measurement plus each family engine's full ObsSnapshot (metrics, ring
    // spans, flight records).
    eprintln!("measuring disabled-tracing obs overhead...");
    let obs_overhead_ns = measure_obs_overhead_ns();
    let obs_value = Value::Object(vec![
        (
            "overhead_ns_per_request".to_string(),
            Value::Float(obs_overhead_ns),
        ),
        (
            "families".to_string(),
            Value::Object(
                obs_snapshots
                    .iter()
                    .map(|(name, snapshot)| (name.to_string(), snapshot.to_json()))
                    .collect(),
            ),
        ),
    ]);
    let _ = write!(
        json,
        "  \"obs\": {},\n  \"families\": [\n",
        obs_value.to_json()
    );
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&family_json(report));
    }
    json.push_str("\n  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_batch.json");
    if let Some(path) = &stats_json {
        std::fs::write(path, obs_value.to_json_pretty()).expect("write --stats-json dump");
        eprintln!("wrote obs snapshot to {path}");
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
}
