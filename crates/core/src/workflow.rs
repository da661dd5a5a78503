//! The scalable preparation workflow of Fig. 5.
//!
//! Exact synthesis has full visibility of the solution space but exponential
//! worst-case complexity, so the paper embeds it in a divide-and-conquer
//! workflow:
//!
//! * **sparse** states (`n·m < 2^n`) are shrunk with *cardinality reduction*
//!   until the residual state fits the exact solver's thresholds,
//! * **dense** states are shrunk with *qubit reduction* (uniformly controlled
//!   rotations disentangle the top qubits) until only the threshold number of
//!   qubits remains entangled,
//! * the residual problem is solved exactly, and the final circuit is the
//!   exact circuit followed by the inverse of the reduction.

use qsp_baselines::preparator::PreparationOutcome;
use qsp_baselines::{
    BaselineError, CardinalityReduction, HybridPreparator, QubitReduction, StatePreparator,
};
use qsp_circuit::Circuit;
use qsp_obs::SearchProbe;
use qsp_state::{QuantumState, SparseState};

use crate::api::{Provenance, StageTimings, SynthesisReport, SynthesisRequest, Synthesizer};
use crate::engine::{ReductionPlan, SolverEngine};
use crate::error::SynthesisError;
use crate::search::config::SearchConfig;

/// Floor of the adaptive dense-residual node budget: even a tiny residual
/// gets enough nodes that the exact probe is meaningful.
const DENSE_RESIDUAL_MIN_BUDGET: usize = 4_000;

/// Ceiling of the adaptive dense-residual node budget; beyond it the
/// workflow keeps the n-flow tail instead of searching further.
const DENSE_RESIDUAL_MAX_BUDGET: usize = 100_000;

/// Node budget for the exact search on the (non-uniform) residual of a dense
/// qubit reduction, scaled to the residual's actual size instead of a flat
/// constant: the A* frontier grows with both the cardinality `m` and the
/// kept register width, so a small residual probes cheaply while a
/// near-threshold one may spend up to [`DENSE_RESIDUAL_MAX_BUDGET`] before
/// the workflow keeps the n-flow tail.
fn dense_residual_node_budget(cardinality: usize, keep: usize) -> usize {
    cardinality
        .saturating_mul(cardinality)
        .saturating_mul(keep)
        .saturating_mul(32)
        .clamp(DENSE_RESIDUAL_MIN_BUDGET, DENSE_RESIDUAL_MAX_BUDGET)
}

/// Register width up to which the workflow double-checks its result against
/// every baseline flow and keeps the cheapest circuit. The exact library
/// (`{Ry, CNOT, CRy}`) can lose to the multiplexor-based flows on *small
/// dense* states (a 3-qubit dense state costs at most `2^3 − 2 = 6` with the
/// n-flow, which the exact solver cannot always match), and the workflow's
/// contract is to never be worse than the better baseline. The baselines are
/// cheap at these widths; wider targets are already guarded branch-locally.
const BASELINE_GUARD_QUBITS: usize = 6;

/// Configuration of the preparation workflow.
///
/// The defaults activate exact synthesis for residual problems with at most
/// 4 active qubits and cardinality at most 16, matching Sec. VI-C of the
/// paper ("we set fixed thresholds (n ≤ 4 and m ≤ 16) to activate the exact
/// synthesis in our workflow").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct WorkflowConfig {
    /// Search configuration (also provides the activation thresholds and the
    /// sequential-vs-portfolio [`crate::SearchStrategy`] every exact solve
    /// inside the workflow is scheduled with).
    pub search: SearchConfig,
    /// Whether to run the peephole optimizer on the final circuit. Off by
    /// default: the paper reports raw flow outputs.
    pub optimize: bool,
}

impl WorkflowConfig {
    /// The paper's defaults with the given solver scheduling strategy —
    /// the one-line switch that turns a whole workflow (and any
    /// [`crate::BatchSynthesizer`] built on it) into a portfolio deployment.
    pub fn with_strategy(strategy: crate::SearchStrategy) -> Self {
        WorkflowConfig::default().with_search(SearchConfig::default().with_strategy(strategy))
    }

    /// Replaces the search configuration.
    pub fn with_search(mut self, search: SearchConfig) -> Self {
        self.search = search;
        self
    }

    /// Enables or disables the peephole optimizer on the final circuit.
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }
}

/// The end-to-end preparation workflow (Fig. 5), usable through the same
/// [`StatePreparator`] interface as the baselines.
///
/// # Example
///
/// ```
/// use qsp_baselines::StatePreparator;
/// use qsp_core::QspWorkflow;
/// use qsp_state::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = generators::dicke(4, 2)?;
/// let circuit = QspWorkflow::new().prepare(&target)?;
/// // Table IV / Fig. 6: ours halves the manual design's 12 CNOTs.
/// assert!(circuit.cnot_cost() < 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct QspWorkflow {
    config: WorkflowConfig,
}

impl QspWorkflow {
    /// Creates a workflow with the paper's default thresholds.
    pub fn new() -> Self {
        QspWorkflow {
            config: WorkflowConfig::default(),
        }
    }

    /// Creates a workflow with a custom configuration.
    pub fn with_config(config: WorkflowConfig) -> Self {
        QspWorkflow { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &WorkflowConfig {
        &self.config
    }

    /// Number of qubits of `state` that are not constantly `|0⟩`.
    fn active_qubits(state: &SparseState) -> usize {
        (0..state.num_qubits())
            .filter(|&q| state.iter().any(|(index, _)| index.bit(q)))
            .count()
    }

    /// Whether `state` already fits the exact synthesis thresholds.
    fn fits_exact(&self, state: &SparseState) -> bool {
        state.cardinality() <= self.config.search.max_cardinality
            && Self::active_qubits(state) <= self.config.search.max_qubits
    }

    /// Synthesizes one typed [`SynthesisRequest`], honouring its per-request
    /// overrides, and reports the circuit with provenance and timings. This
    /// is the [`Synthesizer`] trait entry point under an inherent name.
    ///
    /// # Errors
    ///
    /// Returns an error for unsupported states (negative amplitudes) or when
    /// a reduction stage fails under the effective configuration.
    ///
    /// # Example
    ///
    /// ```
    /// use qsp_core::api::{Provenance, SynthesisRequest};
    /// use qsp_core::QspWorkflow;
    /// use qsp_state::generators;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let request = SynthesisRequest::new(generators::dicke(4, 2)?);
    /// let report = QspWorkflow::new().synthesize_request(&request)?;
    /// assert!(report.cnot_cost < 12); // Table IV: beats the manual design
    /// assert!(matches!(report.provenance, Provenance::Solved));
    /// assert_eq!(report.resolved.workflow, *QspWorkflow::new().config());
    /// # Ok(())
    /// # }
    /// ```
    pub fn synthesize_request<S: QuantumState>(
        &self,
        request: &SynthesisRequest<S>,
    ) -> Result<SynthesisReport, SynthesisError> {
        let start = std::time::Instant::now();
        let resolved = request.options.resolve(&self.config);
        let circuit = QspWorkflow::with_config(resolved.workflow).run(&request.target)?;
        Ok(SynthesisReport::new(
            circuit,
            Provenance::Solved,
            StageTimings::solved_in(start.elapsed()),
            resolved,
        ))
    }

    /// Runs the full workflow on any [`QuantumState`] backend and returns
    /// the circuit. Sparse targets are borrowed zero-copy; dense and adaptive
    /// targets are converted once at the boundary and then follow the exact
    /// same code path.
    pub(crate) fn run<S: QuantumState>(&self, state: &S) -> Result<Circuit, SynthesisError> {
        Ok(self.run_with_plan(state, None)?.0)
    }

    /// [`QspWorkflow::run`] with an optional solver flight-recorder probe
    /// (every exact solve the workflow schedules — direct, sparse residual,
    /// dense residual — reports its search effort into the shared probe)
    /// that additionally surfaces the exact solver's reduction plan when the
    /// target was solved *directly* by the exact branch and its circuit
    /// survived the baseline guard unchanged — the capture seam of the batch
    /// layer's support-pattern class templates. Targets that went through a
    /// reduction flow (or whose circuit a guard replaced) return `None`:
    /// their circuits were not produced by a replayable recipe.
    pub(crate) fn run_with_plan<S: QuantumState>(
        &self,
        state: &S,
        probe: Option<&SearchProbe>,
    ) -> Result<(Circuit, Option<ReductionPlan>), SynthesisError> {
        let sparse = state.as_sparse()?;
        let target = sparse.as_ref();
        if target.iter().any(|(_, a)| a < 0.0) {
            return Err(SynthesisError::UnsupportedState {
                reason: "the workflow requires non-negative real amplitudes".to_string(),
            });
        }
        let exact = SolverEngine::new(self.config.search);

        let mut plan: Option<ReductionPlan> = None;
        let mut circuit = if self.fits_exact(target) {
            let outcome = exact.synthesize_probed(target, probe)?;
            plan = outcome.plan;
            outcome.circuit
        } else if target.is_sparse() {
            // Sparse branch: cardinality reduction until the residual problem
            // fits the exact solver.
            let thresholds = self.config.search;
            let (reduction, residual) =
                CardinalityReduction::new().reduce_until(target, |state| {
                    state.cardinality() <= thresholds.max_cardinality
                        && Self::active_qubits(state) <= thresholds.max_qubits
                })?;
            // The exact solver handles the residual; if the plain cardinality
            // reduction happens to finish the residual cheaper (its library
            // contains multi-controlled rotations the exact library does
            // not), or the exact search exceeds its node budget, keep the
            // m-flow tail so the workflow is never worse than the m-flow, as
            // in Table V.
            let mflow_tail = CardinalityReduction::new().prepare(&residual)?;
            let mut circuit = match exact.synthesize_probed(&residual, probe) {
                Ok(outcome) if outcome.circuit.cnot_cost() <= mflow_tail.cnot_cost() => {
                    outcome.circuit
                }
                _ => mflow_tail,
            };
            circuit.append(&reduction.inverse())?;
            circuit
        } else {
            // Dense branch: disentangle the top qubits, then solve the
            // residual exactly.
            let keep = self.config.search.max_qubits.min(target.num_qubits());
            let (reduction, residual) = QubitReduction::new().disentangle_top(target, keep)?;
            // Same guard as the sparse branch: never lose to the n-flow's own
            // handling of the residual, which costs 2^keep − 2 CNOTs on the
            // `keep`-qubit sub-register the residual lives on. The residual of
            // a dense reduction has non-uniform amplitudes, for which the
            // exact search can be much slower than for the uniform states it
            // is normally given, so its node budget is capped and the n-flow
            // tail is used whenever the budget runs out.
            let compact_residual = SparseState::from_amplitudes(keep, residual.iter())?;
            let nflow_tail = QubitReduction::new()
                .prepare(&compact_residual)?
                .remap_qubits(&(0..keep).collect::<Vec<_>>(), target.num_qubits())?;
            let capped = SolverEngine::new(
                self.config
                    .search
                    .with_node_budget(self.config.search.max_expanded_nodes.min(
                        dense_residual_node_budget(compact_residual.cardinality(), keep),
                    )),
            );
            let mut circuit = match capped.synthesize_probed(&residual, probe) {
                Ok(outcome) if outcome.circuit.cnot_cost() <= nflow_tail.cnot_cost() => {
                    outcome.circuit
                }
                _ => nflow_tail,
            };
            circuit.append(&reduction.inverse())?;
            circuit
        };

        // The guard is skipped when the circuit already meets the admissible
        // entanglement lower bound (nothing can beat it), and the n-flow —
        // the expensive guard, a full 2^n multiplexor chain — is only
        // synthesized when its closed-form cost of 2^n − 2 would win.
        let n = target.num_qubits();
        let pre_guard_cost = circuit.cnot_cost();
        if n <= BASELINE_GUARD_QUBITS
            && circuit.cnot_cost() > qsp_state::cofactor::entanglement_lower_bound(target)
        {
            let mut guards: Vec<Box<dyn StatePreparator>> = vec![
                Box::new(CardinalityReduction::new()),
                Box::new(HybridPreparator::new()),
            ];
            if (1usize << n) - 2 < circuit.cnot_cost() {
                guards.push(Box::new(QubitReduction::new()));
            }
            for guard in guards {
                if let Ok(candidate) = guard.prepare_sparse(target) {
                    if candidate.cnot_cost() < circuit.cnot_cost() {
                        circuit = candidate;
                    }
                }
            }
        }
        if circuit.cnot_cost() != pre_guard_cost {
            // A baseline flow won the guard: the circuit no longer matches
            // the exact solver's recipe, so there is nothing to capture.
            plan = None;
        }

        if self.config.optimize {
            let (optimized, _) = qsp_circuit::optimizer::optimize(&circuit);
            Ok((optimized, plan))
        } else {
            Ok((circuit, plan))
        }
    }
}

impl<S: QuantumState> Synthesizer<S> for QspWorkflow {
    fn synthesize(&self, request: &SynthesisRequest<S>) -> Result<SynthesisReport, SynthesisError> {
        self.synthesize_request(request)
    }
}

impl StatePreparator for QspWorkflow {
    fn name(&self) -> &str {
        "exact-synthesis"
    }

    fn prepare_sparse(&self, target: &SparseState) -> Result<Circuit, BaselineError> {
        self.run(target).map_err(|e| match e {
            SynthesisError::Baseline(inner) => inner,
            other => BaselineError::UnsupportedState {
                reason: other.to_string(),
            },
        })
    }
}

/// Prepares `target` with the default workflow and reports the circuit, its
/// CNOT cost and the synthesis time.
///
/// # Errors
///
/// Propagates workflow errors (unsupported amplitudes, reduction failures).
///
/// # Example
///
/// ```
/// use qsp_core::prepare_state;
/// use qsp_state::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let outcome = prepare_state(&generators::ghz(8)?)?;
/// assert_eq!(outcome.cnot_cost, 7);
/// # Ok(())
/// # }
/// ```
pub fn prepare_state<S: QuantumState>(target: &S) -> Result<PreparationOutcome, SynthesisError> {
    let start = std::time::Instant::now();
    let circuit = QspWorkflow::new().run(target)?;
    Ok(PreparationOutcome::new(circuit, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsp_sim::verify_preparation;
    use qsp_state::{generators, BasisIndex};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn verify(target: &SparseState) -> Circuit {
        let circuit = QspWorkflow::new().prepare(target).unwrap();
        let report = verify_preparation(&circuit, target).unwrap();
        assert!(
            report.is_correct(),
            "workflow circuit does not prepare the target (fidelity {})",
            report.fidelity
        );
        circuit
    }

    #[test]
    fn small_states_go_straight_to_exact_synthesis() {
        let circuit = verify(&generators::dicke(4, 2).unwrap());
        assert!(circuit.cnot_cost() < generators::manual_dicke_cnot_count(4, 2));
    }

    #[test]
    fn ghz_states_of_any_size_are_cheap() {
        // GHZ is sparse for n ≥ 3: the workflow reduces it and solves exactly.
        for n in [3, 6, 10] {
            let circuit = verify(&generators::ghz(n).unwrap());
            assert_eq!(circuit.cnot_cost(), n - 1, "ghz({n})");
        }
    }

    #[test]
    fn sparse_branch_beats_mflow_alone() {
        let mut rng = StdRng::seed_from_u64(11);
        let target = generators::random_sparse_state(9, &mut rng).unwrap();
        let ours = verify(&target).cnot_cost();
        let mflow = CardinalityReduction::new()
            .prepare(&target)
            .unwrap()
            .cnot_cost();
        assert!(
            ours <= mflow,
            "workflow ({ours}) must not be worse than m-flow ({mflow})"
        );
    }

    #[test]
    fn dense_branch_beats_nflow_alone() {
        let mut rng = StdRng::seed_from_u64(13);
        let target = generators::random_dense_state(6, &mut rng).unwrap();
        let ours = verify(&target).cnot_cost();
        let nflow = QubitReduction::new().prepare(&target).unwrap().cnot_cost();
        assert!(
            ours <= nflow,
            "workflow ({ours}) must not be worse than n-flow ({nflow})"
        );
    }

    #[test]
    fn dicke_6_2_stays_below_the_nflow() {
        // |D^2_6> is classified dense by the workflow (n·m = 90 ≥ 2^6), so it
        // goes through qubit reduction plus an exact tail. With the
        // single-control merge library of this reproduction the result does
        // not reach the paper's 22 CNOTs, but it must stay at or below the
        // plain n-flow's 62 and verify.
        let circuit = verify(&generators::dicke(6, 2).unwrap());
        assert!(circuit.cnot_cost() <= 62, "cost {}", circuit.cnot_cost());
    }

    #[test]
    fn optimized_workflow_is_never_worse() {
        let target = generators::w_state(6).unwrap();
        let plain = QspWorkflow::new().prepare(&target).unwrap();
        let optimized = QspWorkflow::with_config(WorkflowConfig {
            optimize: true,
            ..WorkflowConfig::default()
        })
        .prepare(&target)
        .unwrap();
        assert!(optimized.cnot_cost() <= plain.cnot_cost());
        let report = verify_preparation(&optimized, &target).unwrap();
        assert!(report.is_correct());
    }

    #[test]
    fn negative_amplitudes_are_rejected() {
        let negative = SparseState::from_amplitudes(
            2,
            [(BasisIndex::new(0), 0.6), (BasisIndex::new(3), -0.8)],
        )
        .unwrap();
        assert!(QspWorkflow::new().prepare(&negative).is_err());
        assert!(prepare_state(&negative).is_err());
        assert_eq!(QspWorkflow::new().name(), "exact-synthesis");
    }

    #[test]
    fn dense_residual_budget_scales_and_clamps() {
        // Monotone in both the residual cardinality and the kept width.
        assert!(dense_residual_node_budget(4, 3) <= dense_residual_node_budget(8, 3));
        assert!(dense_residual_node_budget(8, 3) <= dense_residual_node_budget(8, 4));
        // Floored for tiny residuals, capped near the thresholds, and safe
        // against overflow.
        assert_eq!(dense_residual_node_budget(1, 1), DENSE_RESIDUAL_MIN_BUDGET);
        assert_eq!(dense_residual_node_budget(16, 4), 32_768);
        assert_eq!(dense_residual_node_budget(64, 6), DENSE_RESIDUAL_MAX_BUDGET);
        assert_eq!(
            dense_residual_node_budget(usize::MAX, usize::MAX),
            DENSE_RESIDUAL_MAX_BUDGET
        );
    }

    #[test]
    fn prepare_state_reports_cost_and_time() {
        let outcome = prepare_state(&generators::w_state(4).unwrap()).unwrap();
        assert!(outcome.cnot_cost > 0);
        assert_eq!(outcome.circuit.cnot_cost(), outcome.cnot_cost);
    }
}
