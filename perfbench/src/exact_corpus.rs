//! `exact_corpus`: the paper's exact A* workflow on its Table IV/V targets,
//! one target at a time through `QspWorkflow::synthesize_request`, no cache.
//! Closed loop: the next target starts when the previous one returns.

use std::time::{Duration, Instant};

use qsp_core::{QspWorkflow, SynthesisRequest};
use qsp_state::SparseState;

use crate::trace::{
    per, print_layers, replay_workflow, workflow_metrics, workflow_rows, WorkflowLedger,
};
use crate::{
    inputs, latency_metrics, median_rate, prepares, report_setup, stats, time_setups, Calibration,
    RunArgs, RunResult,
};

/// Runs the workload: whole passes over the corpus until the budget is
/// spent, each output checked against the first pass and the first pass
/// checked by simulation.
pub fn run(args: &RunArgs) -> RunResult {
    let corpus = inputs::exact_corpus(args.seed);
    let requests: Vec<SynthesisRequest<SparseState>> = corpus
        .iter()
        .map(|t| SynthesisRequest::new(t.state.clone()))
        .collect();
    let warm_up = SynthesisRequest::new(inputs::corpus_classes()[0].state.clone());
    let mut setups = Vec::new();
    let mut calibration = Calibration::default();

    let workflow = QspWorkflow::new();
    let mut result = RunResult::default();
    // (cnot, gate count) of each target's first-pass circuit.
    let mut reference: Vec<Option<(usize, usize)>> = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut pass_walls: Vec<Duration> = Vec::new();
    while pass_walls.iter().sum::<Duration>() < args.budget() {
        let first_pass = pass_walls.is_empty();
        calibration.sample();
        time_setups(&mut setups, || {
            QspWorkflow::new().synthesize_request(&warm_up).is_ok()
        });
        let mut wall = Duration::ZERO;
        for (i, request) in requests.iter().enumerate() {
            let start = Instant::now();
            let outcome = workflow.synthesize_request(request);
            let elapsed = start.elapsed();
            wall += elapsed;
            latencies_ms.push(elapsed.as_secs_f64() * 1e3);
            result.attempted += 1;
            let fingerprint = outcome.ok().and_then(|report| {
                let circuit = &report.circuit;
                let recount = circuit.cnot_cost();
                (report.cnot_cost == recount && (!first_pass || prepares(circuit, &request.target)))
                    .then_some((recount, circuit.len()))
            });
            if first_pass {
                reference.push(fingerprint);
            }
            if fingerprint.is_none() || fingerprint != reference[i] {
                result.failed += 1;
            }
        }
        pass_walls.push(wall);
    }
    let measured: Duration = pass_walls.iter().sum();
    println!(
        "exact_corpus: {} targets x {} passes in {:.3} s",
        requests.len(),
        pass_walls.len(),
        measured.as_secs_f64()
    );
    let throughput = median_rate(requests.len(), &pass_walls);
    let cnot_total: usize = reference.iter().flatten().map(|(cnot, _)| cnot).sum();
    let m = &mut result.metrics;
    if args.trace {
        traced(&corpus, &reference, pass_walls[0], m);
        m.insert("trace.throughput_tps", throughput);
    } else {
        let factor = calibration.factor();
        println!("uncalibrated: {throughput:.4} targets/s");
        m.insert("throughput_tps", throughput * factor);
        latency_metrics(&latencies_ms, factor, m);
        m.insert("cnot_total", cnot_total as f64);
        m.insert("peak_rss_mb", stats::peak_rss_mb());
        m.insert("setup_s", report_setup(&setups) / factor);
    }
    result
}

/// Splits the first pass by layer: the workflow replay times the A*
/// search, the reductions and the guard flows on every corpus target and
/// must reach the workflow's CNOT cost; `first_wall` is that pass's time
/// inside `synthesize_request`.
fn traced(
    corpus: &[inputs::Target],
    reference: &[Option<(usize, usize)>],
    first_wall: Duration,
    m: &mut std::collections::BTreeMap<&'static str, f64>,
) {
    let search = *QspWorkflow::new().config();
    let mut ledger = WorkflowLedger::default();
    for (target, expected) in corpus.iter().zip(reference) {
        let cost = replay_workflow(&target.state, search.search, &mut ledger);
        if cost != expected.map(|(cnot, _)| cnot) {
            println!(
                "trace: the replay of {} differs from the workflow",
                target.label
            );
        }
    }
    let busy = workflow_metrics(
        &ledger,
        corpus.len(),
        corpus.len(),
        first_wall,
        first_wall,
        m,
    );
    m.insert(
        "trace.busy_share",
        per(busy.as_secs_f64(), first_wall.as_secs_f64()),
    );
    print_layers(&workflow_rows(&ledger), first_wall);
}
