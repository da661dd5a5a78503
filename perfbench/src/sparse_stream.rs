//! `sparse_stream`: a seeded Table V sparse-regime stream sent through
//! `BatchSynthesizer::synthesize_requests` in fixed-size batches against
//! one cold single-threaded engine per pass. Closed loop: the next batch is
//! sent when the previous one returns.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qsp_core::{
    BatchSynthesizer, CacheEntry, ClassKey, EntryOrigin, KeyCoverage, SynthesisRequest,
};
use qsp_state::SparseState;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::trace::{
    per, print_layers, replay_workflow, workflow_metrics, workflow_rows, Busy, KeyingLedger,
    WorkflowLedger,
};
use crate::{
    engine, inputs, latency_metrics, median_rate, prepares, report_setup, stats, time_setups,
    Calibration, RunArgs, RunResult,
};

/// Targets per `synthesize_requests` call.
pub const BATCH: usize = 64;

/// Every target up to this width is checked by dense simulation.
pub const SIMULATE_UP_TO: usize = 10;

/// Wider targets (up to [`SIMULATE_WIDE_UP_TO`] qubits) checked by
/// simulation, drawn per run from the seed.
pub const WIDE_SAMPLE: usize = 16;

/// Widest target the seeded sample draws from: a 16-qubit state vector
/// keeps each check in the millisecond range and its memory far below the
/// engine's.
pub const SIMULATE_WIDE_UP_TO: usize = 16;

/// Runs the workload: whole passes over the stream until the budget is
/// spent, each pass on a fresh engine.
pub fn run(args: &RunArgs) -> RunResult {
    let stream = inputs::sparse_stream(args.seed);
    let requests: Vec<SynthesisRequest<SparseState>> = stream
        .iter()
        .map(|t| SynthesisRequest::new(t.state.clone()))
        .collect();
    let simulate = simulation_plan(&stream, args.seed);
    let warm_up = [SynthesisRequest::new(inputs::warm_up_target())];
    let mut setups = Vec::new();
    let mut calibration = Calibration::default();

    let mut result = RunResult::default();
    let mut reference: Vec<Option<(usize, usize)>> = Vec::new();
    let mut batch_ms = Vec::new();
    let mut pass_walls: Vec<Duration> = Vec::new();
    while pass_walls.iter().sum::<Duration>() < args.budget() {
        let first_pass = pass_walls.is_empty();
        calibration.sample();
        // Set-up is timed on throwaway engines: the measured one stays cold.
        time_setups(&mut setups, || {
            engine().synthesize_requests(&warm_up).stats.errors
        });
        let engine = engine();
        let mut wall = Duration::ZERO;
        for (b, chunk) in requests.chunks(BATCH).enumerate() {
            let start = Instant::now();
            let outcome = engine.synthesize_requests(chunk);
            let elapsed = start.elapsed();
            wall += elapsed;
            batch_ms.push(elapsed.as_secs_f64() * 1e3);
            result.attempted += chunk.len() as u64;
            for (j, report) in outcome.reports.into_iter().enumerate() {
                let i = b * BATCH + j;
                let fingerprint = report.ok().and_then(|report| {
                    let recount = report.circuit.cnot_cost();
                    let checked = report.cnot_cost == recount
                        && (!first_pass
                            || !simulate[i]
                            || prepares(&report.circuit, &stream[i].state));
                    checked.then_some((recount, report.circuit.len()))
                });
                if first_pass {
                    reference.push(fingerprint);
                }
                if fingerprint.is_none() || fingerprint != reference[i] {
                    result.failed += 1;
                }
            }
        }
        pass_walls.push(wall);
    }
    let measured: Duration = pass_walls.iter().sum();
    println!(
        "sparse_stream: {} targets x {} passes in {:.3} s ({} simulated in pass 1)",
        requests.len(),
        pass_walls.len(),
        measured.as_secs_f64(),
        simulate.iter().filter(|&&s| s).count()
    );
    let throughput = median_rate(requests.len(), &pass_walls);
    let m = &mut result.metrics;
    if args.trace {
        let real_us_per_target = 1e6 / throughput;
        traced(&stream, &reference, real_us_per_target, m);
    } else {
        let factor = calibration.factor();
        println!("uncalibrated: {throughput:.1} targets/s");
        m.insert("throughput_tps", throughput * factor);
        latency_metrics(&batch_ms, factor, m);
        let cnot_total: usize = reference.iter().flatten().map(|(cnot, _)| cnot).sum();
        m.insert("cnot_total", cnot_total as f64);
        m.insert("peak_rss_mb", stats::peak_rss_mb());
        m.insert("setup_s", report_setup(&setups) / factor);
    }
    result
}

/// Which targets are checked by simulation: all up to [`SIMULATE_UP_TO`]
/// qubits plus a seeded sample of [`WIDE_SAMPLE`] wider ones.
fn simulation_plan(stream: &[inputs::Target], seed: u64) -> Vec<bool> {
    let mut plan: Vec<bool> = stream
        .iter()
        .map(|t| t.state.num_qubits() <= SIMULATE_UP_TO)
        .collect();
    let mut wide: Vec<usize> = (0..stream.len())
        .filter(|&i| !plan[i] && stream[i].state.num_qubits() <= SIMULATE_WIDE_UP_TO)
        .collect();
    wide.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x51u64));
    for i in wide.into_iter().take(WIDE_SAMPLE) {
        plan[i] = true;
    }
    plan
}

/// One pass replayed through the engine's public class seam, decomposed
/// the way `synthesize_requests` runs it on one thread: key every target of
/// a batch, plan against in-batch representatives and the cache, solve the
/// representatives, reconstruct every target. Each call is timed; the
/// solved targets are then split by [`replay_workflow`].
fn traced(
    stream: &[inputs::Target],
    reference: &[Option<(usize, usize)>],
    real_us_per_target: f64,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let engine = engine();
    let mut keying = KeyingLedger::default();
    let (mut probe, mut solve, mut reconstruct) =
        (Busy::default(), Busy::default(), Busy::default());
    let mut templates = 0usize;
    let mut solved: Vec<usize> = Vec::new();
    let mut mismatches = 0usize;
    let mut wall = Duration::ZERO;
    for (b, chunk) in stream.chunks(BATCH).enumerate() {
        let start = Instant::now();
        let mut keyed = Vec::with_capacity(chunk.len());
        for target in chunk {
            let t = Instant::now();
            let class = engine
                .canonical_class(&target.state)
                .expect("stream targets are valid");
            keying.add(class.coverage == KeyCoverage::SignatureOnly, t.elapsed());
            keyed.push(class);
        }
        let mut representatives: HashMap<&ClassKey, Arc<CacheEntry>> = HashMap::new();
        let mut entries: Vec<Arc<CacheEntry>> = Vec::with_capacity(chunk.len());
        for (j, class) in keyed.iter().enumerate() {
            if let Some(entry) = representatives.get(&class.key) {
                entries.push(Arc::clone(entry));
                continue;
            }
            let t = Instant::now();
            let hit = engine.lookup_class(&class.key);
            probe.add(t.elapsed());
            let entry = hit.unwrap_or_else(|| {
                let t = Instant::now();
                let entry = engine.solve_class(&class.key, &class.transform, &chunk[j].state);
                solve.add(t.elapsed());
                templates += usize::from(entry.origin() == EntryOrigin::Template);
                solved.push(b * BATCH + j);
                entry
            });
            representatives.insert(&class.key, Arc::clone(&entry));
            entries.push(entry);
        }
        for (j, (class, entry)) in keyed.iter().zip(&entries).enumerate() {
            let t = Instant::now();
            let circuit = BatchSynthesizer::reconstruct_for(entry, &class.transform);
            reconstruct.add(t.elapsed());
            let cost = circuit.ok().map(|c| c.cnot_cost());
            mismatches += usize::from(cost != reference[b * BATCH + j].map(|r| r.0));
        }
        wall += start.elapsed();
    }
    let cache = engine.cache_stats();

    let search = *engine.config();
    let mut ledger = WorkflowLedger::default();
    for &i in &solved {
        replay_workflow(&stream[i].state, search.search, &mut ledger);
    }
    if mismatches > 0 {
        println!("trace: {mismatches} replayed targets differ from the batch path");
    }

    let targets = stream.len() as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let seam = keying.busy() + probe.time + solve.time + reconstruct.time;
    let workflow_busy = workflow_metrics(&ledger, stream.len(), solved.len(), solve.time, wall, m);
    keying.metrics(m);
    m.insert("cache.probe_us", probe.us_per_call());
    m.insert(
        "cache.hit_ratio",
        per(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    m.insert("cache.entries", cache.entries as f64);
    m.insert(
        "template.hit_ratio",
        per(templates as f64, solved.len() as f64),
    );
    m.insert(
        "batch.overhead_us_per_target",
        real_us_per_target - us(seam) / targets,
    );
    m.insert("reconstruct.us", reconstruct.us_per_call());
    m.insert("trace.throughput_tps", targets / wall.as_secs_f64());
    let busy = keying.busy() + probe.time + reconstruct.time + workflow_busy;
    m.insert(
        "trace.busy_share",
        per(busy.as_secs_f64(), wall.as_secs_f64()),
    );
    println!(
        "traced throughput {:.1} targets/s vs {:.1} untraced (same run)",
        targets / wall.as_secs_f64(),
        1e6 / real_us_per_target
    );
    let mut rows = vec![
        (
            "keying",
            (keying.sig_us.len() + keying.full_us.len()) as u64,
            keying.busy(),
        ),
        ("cache", probe.calls, probe.time),
        ("solve", solve.calls, solve.time),
        ("reconstruct", reconstruct.calls, reconstruct.time),
    ];
    rows.extend(workflow_rows(&ledger));
    print_layers(&rows, wall);
}
