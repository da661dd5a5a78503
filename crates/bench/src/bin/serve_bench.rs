//! Benchmarks the `qsp-serve` synthesis service under replayed open-loop
//! arrival workloads and emits a machine-readable `BENCH_serve.json`.
//!
//! Three offered-load phases:
//!
//! * `burst_skewed` — the whole skewed request mix submitted closed-loop
//!   (as fast as the queue accepts). This is the apples-to-apples capacity
//!   comparison against one direct `synthesize_requests` call on the same
//!   request set with the same thread count: the service must stay within
//!   `0.9x` of the batch engine's throughput. Both arms run three
//!   interleaved times, each on a fresh engine or service, and the gate
//!   compares their *minimum* wall times (one pass each spreads too widely
//!   on a shared host to gate on); phase stats, costs and the report come
//!   from the first rep.
//! * `open_loop_steady` — Poisson-ish arrivals (exponential inter-arrival
//!   gaps from `qsp-rand`) at a rate the service keeps up with, generous
//!   deadlines: measures p50/p95/p99 latency at steady state.
//! * `stress_overload` — a burst of duplicate slow dense targets (driving
//!   per-class in-flight dedup) plus a high-rate arrival tail in which a
//!   slice of requests carries zero deadline budget: demonstrates > 0
//!   deduped and > 0 expired requests, and measures the rejection rate of
//!   the bounded queue under overload.
//!
//! Every completed response is checked CNOT-for-CNOT against a sequential
//! `QspWorkflow` solve of the same target (the bit-identical-cost
//! guarantee); the binary aborts if any response diverges.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p qsp-bench --bin serve_bench -- \
//!     [--workers 4] [--requests 160] [--max-batch 8] [--smoke] \
//!     [--out BENCH_serve.json] [--stats-json obs.json]
//! ```

use std::collections::HashMap;
use std::time::{Duration, Instant};

use qsp_bench::report::{has_switch, parse_flag, parse_path};
use qsp_core::json::Value;
use qsp_core::{BatchOptions, BatchSynthesizer, QspWorkflow, SynthesisRequest};
use qsp_serve::{
    ObsOptions, ObsSnapshot, Response, SchedulerConfig, ServiceConfig, Shutdown, SynthesisService,
};
use qsp_state::generators::Workload;
use qsp_state::SparseState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Interleaved repetitions of the batch arm and the burst phase.
const BURST_REPS: usize = 3;

/// One request of a replayed workload.
struct ArrivalRequest {
    target: SparseState,
    /// Offset of the arrival from the phase start.
    offset: Duration,
    /// Deadline budget granted at submission (`None` = no deadline).
    budget: Option<Duration>,
}

/// An exact state fingerprint: the parity-check map key.
type Fingerprint = (usize, Vec<(u64, u64)>);

fn fingerprint(state: &SparseState) -> Fingerprint {
    let mut entries: Vec<(u64, u64)> = state
        .iter()
        .map(|(index, amplitude)| (index.value(), amplitude.to_bits()))
        .collect();
    entries.sort_unstable();
    (state.num_qubits(), entries)
}

/// The popular pool of the skewed mix: named states real traffic repeats.
fn popular_pool(smoke: bool) -> Vec<SparseState> {
    let mut named = vec![
        Workload::Dicke { n: 4, k: 1 },
        Workload::Dicke { n: 4, k: 2 },
        Workload::Ghz { n: 6 },
        Workload::W { n: 4 },
        Workload::RandomSparse { n: 7, seed: 71 },
        Workload::RandomSparse { n: 8, seed: 72 },
    ];
    if !smoke {
        named.push(Workload::Dicke { n: 5, k: 2 });
        named.push(Workload::Ghz { n: 8 });
        named.push(Workload::RandomSparse { n: 10, seed: 73 });
    }
    named
        .into_iter()
        .map(|w| w.instantiate().expect("pool workload generates"))
        .collect()
}

/// A skewed request mix: popular states repeat zipf-ishly (exercising
/// dedup), the tail is fresh random sparse states, and a pinch of dense
/// targets keeps the solver's heavy path in the loop.
fn skewed_mix(total: usize, seed: u64, smoke: bool, rng: &mut StdRng) -> Vec<SparseState> {
    let pool = popular_pool(smoke);
    let dense_every = if smoke { 40 } else { 24 };
    (0..total)
        .map(|i| {
            if i % dense_every == dense_every - 1 {
                let n = if smoke { 4 } else { 4 + (i / dense_every) % 2 };
                Workload::RandomDense {
                    n,
                    seed: seed + i as u64,
                }
                .instantiate()
                .expect("dense workload generates")
            } else if rng.gen_bool(0.6) {
                // Zipf-ish pool pick: repeated halving skews toward index 0.
                let mut idx = 0usize;
                while idx + 1 < pool.len() && rng.gen_bool(0.5) {
                    idx += 1;
                }
                pool[idx].clone()
            } else {
                let n = rng.gen_range(if smoke { 6..=8 } else { 6..=11 });
                Workload::RandomSparse {
                    n,
                    seed: seed + 1000 + i as u64,
                }
                .instantiate()
                .expect("sparse workload generates")
            }
        })
        .collect()
}

/// Poisson-ish arrival offsets: exponential inter-arrival gaps at `rate`
/// requests/second.
fn poisson_offsets(count: usize, rate: f64, rng: &mut StdRng) -> Vec<Duration> {
    let mut offsets = Vec::with_capacity(count);
    let mut t = 0.0f64;
    for _ in 0..count {
        let u = rng.gen_range(0.0f64..1.0);
        t += -(1.0 - u).ln() / rate;
        offsets.push(Duration::from_secs_f64(t));
    }
    offsets
}

struct PhaseOutcome {
    name: &'static str,
    requests: usize,
    duplicates: usize,
    offered_rps: Option<f64>,
    wall_ms: f64,
    throughput_rps: f64,
    stats: qsp_serve::ServiceStats,
    timeouts_observed: u64,
    costs_identical: bool,
    /// The service's full observability dump at shutdown (metrics, sampled
    /// trace-ring spans, flight records).
    obs: ObsSnapshot,
}

/// Replays one phase against a fresh service and checks every completed
/// response against the sequential cost map.
fn run_phase(
    name: &'static str,
    requests: Vec<ArrivalRequest>,
    workers: usize,
    max_batch: usize,
    queue_capacity: usize,
    offered_rps: Option<f64>,
    cost_map: &HashMap<Fingerprint, usize>,
) -> PhaseOutcome {
    let total = requests.len();
    let duplicates = {
        let mut seen = std::collections::HashSet::new();
        requests
            .iter()
            .filter(|r| !seen.insert(fingerprint(&r.target)))
            .count()
    };
    eprintln!("phase {name}: {total} requests (~{duplicates} duplicates)...");
    let service = SynthesisService::start(
        ServiceConfig::default()
            .with_queue_capacity(queue_capacity)
            .with_scheduler(
                SchedulerConfig::default()
                    .with_max_batch(max_batch)
                    .with_max_wait(Duration::from_millis(1))
                    .with_workers(workers),
            )
            // Full observability for the benchmark report: ring tracing of
            // every request (sized to hold the whole phase) plus the solver
            // flight recorder and cache timing.
            .with_batch(
                BatchOptions::default().with_obs(
                    ObsOptions::default()
                        .with_tracing(true)
                        .with_ring_capacity(4096)
                        .with_flight(true)
                        .with_flight_capacity(512)
                        .with_timing_detail(true),
                ),
            ),
    );

    let start = Instant::now();
    let mut handles = Vec::with_capacity(total);
    for request in &requests {
        let due = start + request.offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let mut typed = SynthesisRequest::new(request.target.clone());
        if let Some(budget) = request.budget {
            typed = typed.with_deadline(Instant::now() + budget);
        }
        handles.push(service.submit(typed).handle());
    }
    let stats = service.shutdown(Shutdown::Drain);
    let wall = start.elapsed();
    let obs = service.obs_snapshot();

    let mut timeouts = 0u64;
    let mut costs_identical = true;
    for (request, handle) in requests.iter().zip(&handles) {
        let Some(handle) = handle else {
            continue; // rejected by backpressure; counted by the service
        };
        match handle.wait() {
            Response::Completed(report) => {
                let expected = cost_map
                    .get(&fingerprint(&request.target))
                    .expect("every workload target has a sequential cost");
                if report.cnot_cost != *expected {
                    costs_identical = false;
                    eprintln!(
                        "phase {name}: cost diverged ({} vs sequential {expected})",
                        report.cnot_cost
                    );
                }
            }
            Response::Timeout => timeouts += 1,
            Response::Failed(error) => panic!("phase {name}: request failed: {error}"),
            Response::Cancelled => panic!("phase {name}: drained shutdown cancelled a request"),
        }
    }
    assert!(costs_identical, "phase {name}: service CNOT costs diverged");
    assert_eq!(
        timeouts, stats.expired,
        "timeout responses must match the expired counter"
    );

    PhaseOutcome {
        name,
        requests: total,
        duplicates,
        offered_rps,
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput_rps: stats.completed as f64 / wall.as_secs_f64().max(1e-9),
        stats,
        timeouts_observed: timeouts,
        costs_identical,
        obs,
    }
}

fn phase_json(outcome: &PhaseOutcome) -> Value {
    let stats = &outcome.stats;
    let served = stats.completed.max(1) as f64;
    let attempted = (stats.submitted + stats.rejected).max(1) as f64;
    let percentile_ms = |p: f64| Value::Float(stats.end_to_end.percentile(p).as_secs_f64() * 1e3);
    Value::Object(vec![
        ("name".to_string(), Value::Str(outcome.name.to_string())),
        ("requests".to_string(), Value::Num(outcome.requests as u64)),
        (
            "duplicate_targets".to_string(),
            Value::Num(outcome.duplicates as u64),
        ),
        (
            "offered_rps".to_string(),
            outcome.offered_rps.map_or(Value::Null, Value::Float),
        ),
        ("wall_ms".to_string(), Value::Float(outcome.wall_ms)),
        (
            "throughput_rps".to_string(),
            Value::Float(outcome.throughput_rps),
        ),
        ("p50_ms".to_string(), percentile_ms(0.50)),
        ("p95_ms".to_string(), percentile_ms(0.95)),
        ("p99_ms".to_string(), percentile_ms(0.99)),
        ("completed".to_string(), Value::Num(stats.completed)),
        ("rejected".to_string(), Value::Num(stats.rejected)),
        ("expired".to_string(), Value::Num(stats.expired)),
        ("deduped".to_string(), Value::Num(stats.deduped)),
        ("cache_hits".to_string(), Value::Num(stats.cache_hits)),
        ("solver_runs".to_string(), Value::Num(stats.solver_runs)),
        (
            "dedup_hit_rate".to_string(),
            Value::Float((stats.deduped + stats.cache_hits) as f64 / served),
        ),
        (
            "rejection_rate".to_string(),
            Value::Float(stats.rejected as f64 / attempted),
        ),
        (
            "queue_high_water".to_string(),
            Value::Num(stats.queue_high_water as u64),
        ),
        (
            "timeouts_observed".to_string(),
            Value::Num(outcome.timeouts_observed),
        ),
        (
            "costs_identical".to_string(),
            Value::Bool(outcome.costs_identical),
        ),
        ("obs".to_string(), outcome.obs.to_json()),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = has_switch(&args, "--smoke");
    let workers = parse_flag(&args, "--workers", 4).max(1);
    let max_batch = parse_flag(&args, "--max-batch", 8).max(1);
    let total = parse_flag(&args, "--requests", if smoke { 90 } else { 160 }).max(30);
    let out_path = parse_path(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let stats_json = parse_path(&args, "--stats-json");
    let mut rng = StdRng::seed_from_u64(0xD1CE);

    // --- Workloads -------------------------------------------------------
    let burst_targets = skewed_mix(total, 500, smoke, &mut rng);
    let steady_targets = skewed_mix(total / 2, 9000, smoke, &mut rng);
    // The stress phase opens with a burst of duplicates of one *slow* dense
    // class: the first request owns the ~1 s solve, the rest arrive while it
    // runs and must attach in flight.
    let slow_dense = Workload::RandomDense { n: 5, seed: 777 }
        .instantiate()
        .expect("dense workload generates");
    let stress_tail = skewed_mix(total / 3, 42_000, smoke, &mut rng);

    // --- Sequential reference costs (and the parity map) -----------------
    eprintln!("solving sequential reference costs...");
    let workflow = QspWorkflow::new();
    let mut cost_map: HashMap<Fingerprint, usize> = HashMap::new();
    for target in burst_targets
        .iter()
        .chain(&steady_targets)
        .chain(std::iter::once(&slow_dense))
        .chain(&stress_tail)
    {
        if let std::collections::hash_map::Entry::Vacant(slot) = cost_map.entry(fingerprint(target))
        {
            let report = workflow
                .synthesize_request(&SynthesisRequest::new(target.clone()))
                .expect("workload target solves");
            slot.insert(report.cnot_cost);
        }
    }

    // --- Direct batch arm vs. closed-loop burst of the same request set ---
    let burst_requests: Vec<SynthesisRequest<SparseState>> = burst_targets
        .iter()
        .map(|t| SynthesisRequest::new(t.clone()))
        .collect();
    let mut batch_wall = Duration::MAX;
    let mut service_ms = f64::INFINITY;
    let mut first_rep = None;
    for rep in 0..BURST_REPS {
        eprintln!(
            "burst rep {}/{BURST_REPS}: direct synthesize_requests baseline...",
            rep + 1
        );
        let batch_engine = BatchSynthesizer::with_options(
            Default::default(),
            BatchOptions::default().with_threads(workers),
        );
        let batch_start = Instant::now();
        let batch_outcome = batch_engine.synthesize_requests(&burst_requests);
        batch_wall = batch_wall.min(batch_start.elapsed());
        assert_eq!(
            batch_outcome.stats.errors, 0,
            "batch baseline must not fail"
        );

        let burst = run_phase(
            "burst_skewed",
            burst_targets
                .iter()
                .map(|target| ArrivalRequest {
                    target: target.clone(),
                    offset: Duration::ZERO,
                    budget: None,
                })
                .collect(),
            workers,
            max_batch,
            total,
            None,
            &cost_map,
        );
        assert!(
            burst.stats.rejected == 0,
            "burst phase sized its queue to its request count"
        );
        service_ms = service_ms.min(burst.wall_ms);
        first_rep.get_or_insert((batch_outcome, burst));
    }
    let (batch_outcome, burst) = first_rep.expect("at least one burst rep");
    let batch_ms = batch_wall.as_secs_f64() * 1e3;
    let throughput_ratio = batch_ms / service_ms.max(1e-9);

    // --- Phase 2: steady open-loop arrivals ------------------------------
    let steady_rate = if smoke { 150.0 } else { 250.0 };
    let steady_offsets = poisson_offsets(steady_targets.len(), steady_rate, &mut rng);
    let steady = run_phase(
        "open_loop_steady",
        steady_targets
            .iter()
            .zip(&steady_offsets)
            .map(|(target, &offset)| ArrivalRequest {
                target: target.clone(),
                offset,
                budget: Some(Duration::from_secs(30)),
            })
            .collect(),
        workers,
        max_batch,
        steady_targets.len(),
        Some(steady_rate),
        &cost_map,
    );

    // --- Phase 3: overload stress ----------------------------------------
    // Duplicate slow-dense burst (in-flight dedup) + high-rate tail where
    // every fourth request has *zero* deadline budget (guaranteed expiry).
    let stress_rate = if smoke { 400.0 } else { 800.0 };
    let dense_copies = (workers * 2).max(6);
    let mut stress_requests: Vec<ArrivalRequest> = (0..dense_copies)
        .map(|i| ArrivalRequest {
            target: slow_dense.clone(),
            offset: Duration::from_millis(4 * i as u64),
            budget: None,
        })
        .collect();
    let tail_offsets = poisson_offsets(stress_tail.len(), stress_rate, &mut rng);
    let tail_start = Duration::from_millis(4 * dense_copies as u64);
    for (i, (target, &offset)) in stress_tail.iter().zip(&tail_offsets).enumerate() {
        stress_requests.push(ArrivalRequest {
            target: target.clone(),
            offset: tail_start + offset,
            budget: if i % 4 == 0 {
                Some(Duration::ZERO)
            } else {
                Some(Duration::from_secs(30))
            },
        });
    }
    let stress_capacity = if smoke {
        stress_requests.len() // smoke load never rejects
    } else {
        (stress_requests.len() / 2).max(32)
    };
    let stress = run_phase(
        "stress_overload",
        stress_requests,
        workers,
        max_batch.min(2), // small drains keep duplicate classes concurrent
        stress_capacity,
        Some(stress_rate),
        &cost_map,
    );
    assert!(
        stress.stats.deduped > 0,
        "stress burst must attach duplicate in-flight classes"
    );
    assert!(
        stress.stats.expired > 0,
        "stress tail must expire zero-budget requests"
    );

    // --- Report ----------------------------------------------------------
    let service_vs_batch = Value::Object(vec![
        ("reps".to_string(), Value::Num(BURST_REPS as u64)),
        ("batch_ms".to_string(), Value::Float(batch_ms)),
        ("service_ms".to_string(), Value::Float(service_ms)),
        (
            "throughput_ratio".to_string(),
            Value::Float(throughput_ratio),
        ),
        ("threshold".to_string(), Value::Float(0.9)),
        ("pass".to_string(), Value::Bool(throughput_ratio >= 0.9)),
        (
            "batch_solver_runs".to_string(),
            Value::Num(batch_outcome.stats.solver_runs as u64),
        ),
        (
            "service_solver_runs".to_string(),
            Value::Num(burst.stats.solver_runs),
        ),
    ]);
    let phases = [&burst, &steady, &stress];
    let report = Value::Object(vec![
        (
            "benchmark".to_string(),
            Value::Str("serve_micro_batching".to_string()),
        ),
        ("smoke".to_string(), Value::Bool(smoke)),
        ("workers".to_string(), Value::Num(workers as u64)),
        ("max_batch".to_string(), Value::Num(max_batch as u64)),
        (
            "costs_identical".to_string(),
            Value::Bool(phases.iter().all(|p| p.costs_identical)),
        ),
        ("service_vs_batch".to_string(), service_vs_batch),
        (
            "phases".to_string(),
            Value::Array(phases.iter().map(|p| phase_json(p)).collect()),
        ),
    ]);
    assert!(
        throughput_ratio >= 0.9,
        "service throughput fell below 0.9x of synthesize_requests ({throughput_ratio:.3}, min of {BURST_REPS} reps)"
    );

    let json = report.to_json_pretty();
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    if let Some(path) = &stats_json {
        let dump = Value::Object(vec![(
            "phases".to_string(),
            Value::Object(
                phases
                    .iter()
                    .map(|p| (p.name.to_string(), p.obs.to_json()))
                    .collect(),
            ),
        )]);
        std::fs::write(path, dump.to_json_pretty()).expect("write --stats-json dump");
        eprintln!("wrote obs snapshot to {path}");
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
}
