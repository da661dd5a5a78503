//! Outside-in layer accounting for the traced mode.
//!
//! Nothing here adds a span inside the program: the benchmark times the
//! public entry points of each layer around its own calls and reads the
//! counters the program already exposes (`SearchProbe`, `CacheStats`,
//! `ServiceStats`). Work hidden inside one public call — the workflow run
//! inside `QspWorkflow::synthesize_request` or `BatchSynthesizer::solve_class`
//! — is split by [`replay_workflow`], which re-runs the workflow's steps
//! through their own public entry points and times each.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qsp_baselines::{CardinalityReduction, HybridPreparator, QubitReduction, StatePreparator};
use qsp_circuit::Circuit;
use qsp_core::{SearchConfig, SolverEngine};
use qsp_obs::{CancellationCause, SearchProbe};
use qsp_state::{cofactor, SparseState};

/// Busy time and call count of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    /// Calls timed.
    pub calls: u64,
    /// Summed duration of those calls.
    pub time: Duration,
}

impl Busy {
    /// Adds one timed call.
    pub fn add(&mut self, elapsed: Duration) {
        self.calls += 1;
        self.time += elapsed;
    }

    /// Mean microseconds per call (zero without calls).
    pub fn us_per_call(&self) -> f64 {
        per(self.time.as_secs_f64() * 1e6, self.calls as f64)
    }
}

/// `num / den`, or zero when `den` is zero.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The A* counters of every exact solve the replay ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchLedger {
    /// Solver calls and their busy time.
    pub busy: Busy,
    /// Nodes expanded.
    pub expanded: u64,
    /// Nodes pushed.
    pub pushed: u64,
    /// Deepest frontier of any one solve.
    pub frontier_peak: u64,
    /// Expansions spent in solves that ended `budget_exhausted`.
    pub wasted: u64,
}

/// Per-layer busy time of the workflow's internal steps.
#[derive(Debug, Clone, Default)]
pub struct WorkflowLedger {
    /// `SolverEngine::synthesize_probed` calls.
    pub search: SearchLedger,
    /// `CardinalityReduction::reduce_until` calls.
    pub reduce: Busy,
    /// `QubitReduction::disentangle_top` calls.
    pub nflow: Busy,
    /// Baseline flows the workflow runs to never lose to a baseline: the
    /// m-flow / n-flow tails on residuals and the small-register guard.
    pub guard: Busy,
    /// Wall time of the whole replay, glue included.
    pub wall: Duration,
}

impl WorkflowLedger {
    /// Time inside the named layers (everything but the replay's glue).
    pub fn layers(&self) -> Duration {
        self.search.busy.time + self.reduce.time + self.nflow.time + self.guard.time
    }

    fn timed<T>(busy: &mut Busy, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        busy.add(start.elapsed());
        out
    }

    fn solve(&mut self, engine: SolverEngine, target: &SparseState) -> Option<Circuit> {
        let probe = SearchProbe::new();
        let start = Instant::now();
        let outcome = engine.synthesize_probed(target, Some(&probe));
        self.search.busy.add(start.elapsed());
        self.search.expanded += probe.nodes_expanded();
        self.search.pushed += probe.nodes_pushed();
        self.search.frontier_peak = self.search.frontier_peak.max(probe.frontier_high_water());
        if probe.cancellation() == Some(CancellationCause::BudgetExhausted) {
            self.search.wasted += probe.nodes_expanded();
        }
        outcome.ok().map(|o| o.circuit)
    }
}

fn active_qubits(state: &SparseState) -> usize {
    (0..state.num_qubits())
        .filter(|&q| state.iter().any(|(index, _)| index.bit(q)))
        .count()
}

/// The node budget the workflow gives the exact probe on a dense
/// reduction's residual (mirrors the workflow's private rule).
fn dense_residual_node_budget(cardinality: usize, keep: usize) -> usize {
    cardinality
        .saturating_mul(cardinality)
        .saturating_mul(keep)
        .saturating_mul(32)
        .clamp(4_000, 100_000)
}

/// Registers up to this width get the workflow's baseline guard.
const BASELINE_GUARD_QUBITS: usize = 6;

/// Re-runs the default workflow (Fig. 5) on `target` step by step through
/// the layers' public entry points, timing each into `ledger`, and returns
/// the circuit's CNOT cost (`None` if a step failed). The replay follows
/// `QspWorkflow`'s branch rules, so its cost matches the program's; the
/// traced mode reports any mismatch.
pub fn replay_workflow(
    target: &SparseState,
    search: SearchConfig,
    ledger: &mut WorkflowLedger,
) -> Option<usize> {
    let start = Instant::now();
    let cost = replay_steps(target, search, ledger);
    ledger.wall += start.elapsed();
    cost
}

fn replay_steps(
    target: &SparseState,
    search: SearchConfig,
    ledger: &mut WorkflowLedger,
) -> Option<usize> {
    let n = target.num_qubits();
    let fits = |s: &SparseState| {
        s.cardinality() <= search.max_cardinality && active_qubits(s) <= search.max_qubits
    };
    let mut circuit = if fits(target) {
        ledger.solve(SolverEngine::new(search), target)?
    } else if target.is_sparse() {
        let (reduction, residual) = WorkflowLedger::timed(&mut ledger.reduce, || {
            CardinalityReduction::new().reduce_until(target, fits)
        })
        .ok()?;
        let tail = WorkflowLedger::timed(&mut ledger.guard, || {
            CardinalityReduction::new().prepare(&residual)
        })
        .ok()?;
        let mut circuit = match ledger.solve(SolverEngine::new(search), &residual) {
            Some(exact) if exact.cnot_cost() <= tail.cnot_cost() => exact,
            _ => tail,
        };
        circuit.append(&reduction.inverse()).ok()?;
        circuit
    } else {
        let keep = search.max_qubits.min(n);
        let (reduction, residual) = WorkflowLedger::timed(&mut ledger.nflow, || {
            QubitReduction::new().disentangle_top(target, keep)
        })
        .ok()?;
        let compact = SparseState::from_amplitudes(keep, residual.iter()).ok()?;
        let tail = WorkflowLedger::timed(&mut ledger.guard, || {
            QubitReduction::new()
                .prepare(&compact)
                .ok()?
                .remap_qubits(&(0..keep).collect::<Vec<_>>(), n)
                .ok()
        })?;
        let budget = search
            .max_expanded_nodes
            .min(dense_residual_node_budget(compact.cardinality(), keep));
        let capped = SolverEngine::new(search.with_node_budget(budget));
        let mut circuit = match ledger.solve(capped, &residual) {
            Some(exact) if exact.cnot_cost() <= tail.cnot_cost() => exact,
            _ => tail,
        };
        circuit.append(&reduction.inverse()).ok()?;
        circuit
    };
    if n <= BASELINE_GUARD_QUBITS
        && circuit.cnot_cost() > cofactor::entanglement_lower_bound(target)
    {
        let mut guards: Vec<Box<dyn StatePreparator>> = vec![
            Box::new(CardinalityReduction::new()),
            Box::new(HybridPreparator::new()),
        ];
        if (1usize << n) - 2 < circuit.cnot_cost() {
            guards.push(Box::new(QubitReduction::new()));
        }
        for guard in guards {
            let candidate =
                WorkflowLedger::timed(&mut ledger.guard, || guard.prepare_sparse(target));
            if let Ok(candidate) = candidate {
                if candidate.cnot_cost() < circuit.cnot_cost() {
                    circuit = candidate;
                }
            }
        }
    }
    Some(circuit.cnot_cost())
}

/// Keying samples split by tier: the stage-0 signature fast path versus
/// full orbit/flip canonicalization.
#[derive(Debug, Clone, Default)]
pub struct KeyingLedger {
    /// Signature-tier keying times in microseconds.
    pub sig_us: Vec<f64>,
    /// Full-tier keying times in microseconds.
    pub full_us: Vec<f64>,
}

impl KeyingLedger {
    /// Records one keying call.
    pub fn add(&mut self, signature_only: bool, elapsed: Duration) {
        let us = elapsed.as_secs_f64() * 1e6;
        if signature_only {
            self.sig_us.push(us);
        } else {
            self.full_us.push(us);
        }
    }

    /// Total keying time.
    pub fn busy(&self) -> Duration {
        Duration::from_secs_f64(
            (self.sig_us.iter().sum::<f64>() + self.full_us.iter().sum::<f64>()) / 1e6,
        )
    }

    /// The keying metrics: p50/p95 per tier and the signature-tier share.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let pct = |values: &[f64], p: f64| {
            if values.is_empty() {
                return 0.0;
            }
            let mut sorted = values.to_vec();
            sorted.sort_by(f64::total_cmp);
            crate::stats::percentile(&sorted, p)
        };
        out.insert("keying.sig.us_p50", pct(&self.sig_us, 50.0));
        out.insert("keying.sig.us_p95", pct(&self.sig_us, 95.0));
        out.insert("keying.full.us_p50", pct(&self.full_us, 50.0));
        out.insert("keying.full.us_p95", pct(&self.full_us, 95.0));
        out.insert(
            "keying.sig_share",
            per(
                self.sig_us.len() as f64,
                (self.sig_us.len() + self.full_us.len()) as f64,
            ),
        );
    }
}

/// Fills the workflow-layer metrics from a replay ledger and returns the
/// busy time the named layers (search, reductions, guards) account for
/// inside the program's own workflow runs.
///
/// `targets` is the per-target denominator and `solved` the number of
/// workflow runs replayed. Per-call figures are the replay's own; shares
/// scale the replay's split onto `solve_time`, the time those runs took
/// inside the program, so timing noise between the program's run and the
/// replay cannot push a share past the time actually spent. `wall` is the
/// workload's measured time the shares refer to.
pub fn workflow_metrics(
    ledger: &WorkflowLedger,
    targets: usize,
    solved: usize,
    solve_time: Duration,
    wall: Duration,
    out: &mut BTreeMap<&'static str, f64>,
) -> Duration {
    let s = &ledger.search;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    out.insert("search.expanded", s.expanded as f64);
    out.insert("search.pushed", s.pushed as f64);
    out.insert(
        "search.ns_per_expansion",
        per(s.busy.time.as_secs_f64() * 1e9, s.expanded as f64),
    );
    out.insert("search.frontier_peak", s.frontier_peak as f64);
    out.insert("search.wasted_expansions", s.wasted as f64);
    out.insert("search.calls", s.busy.calls as f64);
    out.insert("search.us_per_call", s.busy.us_per_call());
    let targets = targets as f64;
    out.insert("reduce.us_per_target", per(us(ledger.reduce.time), targets));
    out.insert("nflow.us_per_target", per(us(ledger.nflow.time), targets));
    out.insert("guard.us_per_target", per(us(ledger.guard.time), targets));
    out.insert(
        "workflow.self_us",
        per(
            us(ledger.wall.saturating_sub(ledger.layers())),
            solved as f64,
        ),
    );
    let scale = per(solve_time.as_secs_f64(), ledger.wall.as_secs_f64());
    println!(
        "workflow replay: {solved} runs in {:.1} ms against {:.1} ms inside the program \
         (shares scale the replay's split by {scale:.3})",
        ledger.wall.as_secs_f64() * 1e3,
        solve_time.as_secs_f64() * 1e3
    );
    out.insert(
        "search.share",
        per(s.busy.time.as_secs_f64() * scale, wall.as_secs_f64()),
    );
    ledger.layers().mul_f64(scale)
}

/// Prints one compact row per layer: calls, busy time and share of `wall`.
pub fn print_layers(rows: &[(&str, u64, Duration)], wall: Duration) {
    println!(
        "{:<12} {:>9} {:>11} {:>7}",
        "layer", "calls", "busy_ms", "share"
    );
    for (name, calls, busy) in rows {
        println!(
            "{name:<12} {calls:>9} {:>11.1} {:>7.3}",
            busy.as_secs_f64() * 1e3,
            per(busy.as_secs_f64(), wall.as_secs_f64())
        );
    }
    println!(
        "{:<12} {:>9} {:>11.1}",
        "wall",
        "",
        wall.as_secs_f64() * 1e3
    );
}

/// The layer rows of a workflow replay.
pub fn workflow_rows(ledger: &WorkflowLedger) -> Vec<(&'static str, u64, Duration)> {
    vec![
        ("search", ledger.search.busy.calls, ledger.search.busy.time),
        ("reduce", ledger.reduce.calls, ledger.reduce.time),
        ("nflow", ledger.nflow.calls, ledger.nflow.time),
        ("guard", ledger.guard.calls, ledger.guard.time),
    ]
}
