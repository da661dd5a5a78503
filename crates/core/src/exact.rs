//! The exact CNOT synthesizer: from a target state to a CNOT-optimal circuit.
//!
//! [`ExactSynthesizer`] is the public face of the [`crate::engine::SolverEngine`]
//! pipeline:
//!
//! 1. the target's constant-`|0⟩` qubits are compacted away (the search then
//!    runs on the active register only),
//! 2. the A* solver finds the cheapest backward reduction to a product state
//!    — sequentially or as a portfolio race over canonical variants,
//!    depending on [`SearchConfig::strategy`],
//! 3. the abstract transitions are *replayed* on the concrete state to derive
//!    the exact rotation angles, and a zero-cost single-qubit layer finishes
//!    the reduction to `|0…0⟩`,
//! 4. the preparation circuit is the inverse of that reduction, remapped back
//!    onto the original register.

use std::time::Duration;

use qsp_circuit::{apply_gate, Circuit, Control, Gate};
use qsp_state::{Cofactors, QuantumState, SparseState, DEFAULT_TOLERANCE};

use crate::api::{Provenance, StageTimings, SynthesisReport, SynthesisRequest, Synthesizer};
use crate::engine::SolverEngine;
use crate::error::SynthesisError;
use crate::search::config::SearchConfig;
use crate::search::op::TransitionOp;
use crate::workflow::WorkflowConfig;

/// Statistics of one exact synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthesisStats {
    /// States expanded by the A* search (the winning worker's count under
    /// portfolio search).
    pub expanded: usize,
    /// States pushed onto the priority queue (winning worker under portfolio
    /// search).
    pub pushed: usize,
    /// Number of active (non constant-`|0⟩`) qubits the search ran on.
    pub active_qubits: usize,
    /// Number of canonical variants the solver raced (1 for sequential
    /// search or a degenerate portfolio).
    pub variants: usize,
}

/// The result of an exact synthesis run.
#[derive(Debug, Clone)]
pub struct ExactSynthesisOutcome {
    /// The preparation circuit (maps `|0…0⟩` to the target).
    pub circuit: Circuit,
    /// CNOT cost of the circuit (optimal with respect to the library).
    pub cnot_cost: usize,
    /// Search statistics.
    pub stats: SynthesisStats,
    /// Wall-clock time of the synthesis.
    pub elapsed: Duration,
    /// The angle-free reduction recipe the circuit was replayed from
    /// (`None` when the target was `|0…0⟩` already). The batch layer
    /// captures this as a support-pattern class template.
    pub(crate) plan: Option<crate::engine::ReductionPlan>,
}

/// Exact CNOT synthesis via the shortest-path formulation (Sec. IV–V).
///
/// # Example
///
/// ```
/// use qsp_core::ExactSynthesizer;
/// use qsp_state::{BasisIndex, SparseState};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The motivating example of the paper: exact synthesis finds 2 CNOTs.
/// use qsp_core::api::SynthesisRequest;
/// let target = SparseState::uniform_superposition(
///     3,
///     [0b000u64, 0b011, 0b101, 0b110].map(BasisIndex::new),
/// )?;
/// let report = ExactSynthesizer::new().synthesize_request(&SynthesisRequest::new(target))?;
/// assert_eq!(report.cnot_cost, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactSynthesizer {
    engine: SolverEngine,
}

impl ExactSynthesizer {
    /// Creates a synthesizer with the paper's default configuration.
    pub fn new() -> Self {
        ExactSynthesizer {
            engine: SolverEngine::new(SearchConfig::default()),
        }
    }

    /// Creates a synthesizer with a custom search configuration (including
    /// the sequential-vs-portfolio [`crate::SearchStrategy`]).
    pub fn with_config(config: SearchConfig) -> Self {
        ExactSynthesizer {
            engine: SolverEngine::new(config),
        }
    }

    /// The active search configuration.
    pub fn config(&self) -> &SearchConfig {
        self.engine.config()
    }

    /// The underlying solver engine.
    pub fn engine(&self) -> &SolverEngine {
        &self.engine
    }

    /// Synthesizes one typed [`SynthesisRequest`], honouring its per-request
    /// search overrides (strategy, node budget, ablations). The exact
    /// synthesizer always emits raw circuits, so an `optimize` override is
    /// pinned back to `false` *before* resolution — the report's resolved
    /// config and fingerprint describe what actually ran, and the same
    /// fingerprint can never stand for two different costs across layers.
    /// This is the [`Synthesizer`] trait entry point under an inherent name;
    /// search statistics stay available on `engine().synthesize(..)`.
    ///
    /// # Errors
    ///
    /// Returns an error when the target has negative amplitudes, exceeds the
    /// effective limits on active qubits / cardinality, or the search budget
    /// is exhausted.
    pub fn synthesize_request<S: QuantumState>(
        &self,
        request: &SynthesisRequest<S>,
    ) -> Result<SynthesisReport, SynthesisError> {
        let start = std::time::Instant::now();
        let base = WorkflowConfig::default().with_search(*self.engine.config());
        let mut options = request.options;
        options.optimize = Some(false);
        let resolved = options.resolve(&base);
        let outcome = SolverEngine::new(resolved.workflow.search).synthesize(&request.target)?;
        Ok(SynthesisReport::new(
            outcome.circuit,
            Provenance::Solved,
            StageTimings::solved_in(start.elapsed()),
            resolved,
        ))
    }
}

impl<S: QuantumState> Synthesizer<S> for ExactSynthesizer {
    fn synthesize(&self, request: &SynthesisRequest<S>) -> Result<SynthesisReport, SynthesisError> {
        self.synthesize_request(request)
    }
}

/// Replays the abstract reduction operations on the concrete state, deriving
/// the rotation angles, and appends the zero-cost finishing layer that maps
/// the final product state to `|0…0⟩`. Returns the *reduction* circuit.
pub(crate) fn replay_reduction(
    target: &SparseState,
    ops: &[TransitionOp],
) -> Result<Circuit, SynthesisError> {
    let n = target.num_qubits();
    let mut circuit = Circuit::new(n);
    let mut current = target.clone();
    for op in ops {
        let gate = match *op {
            TransitionOp::Cnot {
                control,
                polarity,
                target,
            } => Gate::Cnot {
                control: Control {
                    qubit: control,
                    polarity,
                },
                target,
            },
            TransitionOp::RyMerge { target: qubit } => {
                let theta = merge_angle(&current, qubit, None)?;
                Gate::ry(qubit, theta)
            }
            TransitionOp::CryMerge {
                control,
                polarity,
                target: qubit,
            } => {
                let theta = merge_angle(&current, qubit, Some((control, polarity)))?;
                Gate::Mcry {
                    controls: vec![Control {
                        qubit: control,
                        polarity,
                    }],
                    target: qubit,
                    theta,
                }
            }
        };
        current = apply_gate(&current, &gate)?;
        circuit.try_push(gate)?;
    }
    // Finishing layer: rotate every remaining separable qubit to |0⟩ and flip
    // constant-|1⟩ qubits (all zero CNOT cost).
    for qubit in 0..n {
        let cofactors = Cofactors::of(&current, qubit);
        let Some((a, b)) = cofactors.separation(DEFAULT_TOLERANCE) else {
            return Err(SynthesisError::UnsupportedState {
                reason: format!(
                    "internal error: qubit {qubit} is not separable after the reduction"
                ),
            });
        };
        if b.abs() > DEFAULT_TOLERANCE {
            let theta = 2.0 * b.atan2(a);
            let gate = Gate::ry(qubit, theta);
            current = apply_gate(&current, &gate)?;
            circuit.try_push(gate)?;
        }
    }
    if !current.is_ground_state(1e-6) {
        return Err(SynthesisError::UnsupportedState {
            reason: "internal error: reduction did not reach the ground state".to_string(),
        });
    }
    Ok(circuit)
}

/// The rotation angle that merges the `|1⟩` branch of `qubit` into the `|0⟩`
/// branch (restricted to the controlled subset when `control` is given).
fn merge_angle(
    state: &SparseState,
    qubit: usize,
    control: Option<(usize, bool)>,
) -> Result<f64, SynthesisError> {
    let mut p0 = 0.0f64;
    let mut p1 = 0.0f64;
    for (index, amplitude) in state.iter() {
        if let Some((c, polarity)) = control {
            if index.bit(c) != polarity {
                continue;
            }
        }
        if index.bit(qubit) {
            p1 += amplitude * amplitude;
        } else {
            p0 += amplitude * amplitude;
        }
    }
    if p0 + p1 <= f64::EPSILON {
        return Err(SynthesisError::UnsupportedState {
            reason: "internal error: merge on an empty branch".to_string(),
        });
    }
    Ok(2.0 * p1.sqrt().atan2(p0.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsp_sim::verify_preparation;
    use qsp_state::{generators, BasisIndex};

    fn synthesize_and_verify(target: &SparseState) -> ExactSynthesisOutcome {
        let outcome = ExactSynthesizer::new().engine().synthesize(target).unwrap();
        let report = verify_preparation(&outcome.circuit, target).unwrap();
        assert!(
            report.is_correct(),
            "exact circuit does not prepare the target (fidelity {})",
            report.fidelity
        );
        outcome
    }

    #[test]
    fn motivating_example_is_two_cnots() {
        let target = SparseState::uniform_superposition(
            3,
            [0b000u64, 0b011, 0b101, 0b110].map(BasisIndex::new),
        )
        .unwrap();
        let outcome = synthesize_and_verify(&target);
        assert_eq!(outcome.cnot_cost, 2);
    }

    #[test]
    fn ghz_states_are_optimal() {
        for n in 2..5 {
            let outcome = synthesize_and_verify(&generators::ghz(n).unwrap());
            assert_eq!(outcome.cnot_cost, n - 1, "ghz({n})");
        }
    }

    #[test]
    fn dicke_3_1_matches_table4() {
        let outcome = synthesize_and_verify(&generators::dicke(3, 1).unwrap());
        assert!(outcome.cnot_cost <= 4, "cost {}", outcome.cnot_cost);
    }

    #[test]
    fn dicke_4_2_beats_the_manual_design() {
        // Table IV / Fig. 6: the exact synthesis needs at most 6-7 CNOTs for
        // |D^2_4> while the best manual design needs 12.
        let outcome = synthesize_and_verify(&generators::dicke(4, 2).unwrap());
        assert!(
            outcome.cnot_cost < generators::manual_dicke_cnot_count(4, 2),
            "cost {} does not beat the manual 12",
            outcome.cnot_cost
        );
    }

    #[test]
    fn constant_zero_qubits_are_compacted() {
        // A Bell pair embedded in a 10-qubit register: the search must only
        // see 2 active qubits and the result must still verify.
        let target = SparseState::uniform_superposition(
            10,
            [BasisIndex::new(0b0000000000), BasisIndex::new(0b0000100100)],
        )
        .unwrap();
        let outcome = synthesize_and_verify(&target);
        assert_eq!(outcome.stats.active_qubits, 2);
        assert_eq!(outcome.cnot_cost, 1);
    }

    #[test]
    fn ground_state_needs_nothing() {
        let target = SparseState::ground_state(3).unwrap();
        let outcome = synthesize_and_verify(&target);
        assert_eq!(outcome.cnot_cost, 0);
        assert!(outcome.circuit.is_empty());
    }

    #[test]
    fn limits_are_enforced() {
        let too_wide = generators::ghz(6).unwrap();
        assert!(matches!(
            ExactSynthesizer::new().engine().synthesize(&too_wide),
            Err(SynthesisError::ProblemTooLarge { .. })
        ));
        let negative = SparseState::from_amplitudes(
            2,
            [(BasisIndex::new(0), 0.6), (BasisIndex::new(3), -0.8)],
        )
        .unwrap();
        assert!(matches!(
            ExactSynthesizer::new().engine().synthesize(&negative),
            Err(SynthesisError::UnsupportedState { .. })
        ));
        let wide_config = ExactSynthesizer::with_config(SearchConfig::extended());
        assert!(wide_config
            .engine()
            .synthesize(&generators::ghz(5).unwrap())
            .is_ok());
        assert_eq!(wide_config.config().max_qubits, 5);
        assert_eq!(wide_config.engine().config().max_qubits, 5);
    }

    #[test]
    fn request_overrides_are_honoured() {
        let target = generators::dicke(4, 2).unwrap();
        let synthesizer = ExactSynthesizer::new();
        let report = synthesizer
            .synthesize_request(&SynthesisRequest::new(target.clone()))
            .unwrap();
        assert_eq!(report.cnot_cost, 6);
        assert!(report.provenance.is_fresh_solve());
        assert_eq!(report.resolved.workflow.search, *synthesizer.config());
        // A starved per-request node budget fails this request only...
        let starved = synthesizer
            .synthesize_request(&SynthesisRequest::new(target.clone()).with_node_budget(1));
        assert!(matches!(
            starved,
            Err(SynthesisError::SearchBudgetExhausted { .. })
        ));
        // ...and the approximate compression may only report a larger count.
        let compressed = synthesizer
            .synthesize_request(
                &SynthesisRequest::new(target.clone()).with_permutation_compression(true),
            )
            .unwrap();
        assert!(compressed.cnot_cost >= report.cnot_cost);
        // An `optimize` override is pinned to false (the exact solver emits
        // raw circuits), so the fingerprint matches the un-overridden one —
        // one fingerprint can never stand for two different costs.
        let optimize_requested = synthesizer
            .synthesize_request(&SynthesisRequest::new(target).with_optimize(true))
            .unwrap();
        assert!(!optimize_requested.resolved.workflow.optimize);
        assert_eq!(
            optimize_requested.resolved.fingerprint,
            report.resolved.fingerprint
        );
    }

    #[test]
    fn random_uniform_states_verify() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let target = generators::random_uniform_state(4, 6, &mut rng).unwrap();
            synthesize_and_verify(&target);
        }
    }
}
