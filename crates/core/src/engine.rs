//! The solver engine: one dispatch point for sequential and portfolio search.
//!
//! [`SolverEngine`] owns the full exact-synthesis pipeline (validation,
//! constant-qubit compaction, the A* reduction, angle replay and register
//! remapping) and schedules the search according to
//! [`SearchStrategy`]:
//!
//! * **Sequential** — one A* run on the target, exactly Algorithm 1.
//! * **Portfolio** — several A* workers race on *canonically equivalent
//!   variants* of the target: states reachable through zero-CNOT-cost qubit
//!   permutations and Pauli-X flips (the Sec. V-B witness transforms). All
//!   variants share the same optimal CNOT cost, so whichever worker settles
//!   first has found the global optimum; it publishes the cost into a shared
//!   atomic incumbent bound and cancels the rest (first-optimal-wins). The
//!   winning variant's circuit is mapped back onto the original target frame
//!   with the zero-cost witness transform, so the reported `cnot_cost` is
//!   **bit-identical** to the sequential solver. The gate-level circuit may
//!   differ between runs (it depends on which variant wins the race) but
//!   always prepares the target at the same optimal cost.
//!
//! [`ExactSynthesizer`](crate::ExactSynthesizer), the workflow and the batch
//! engine all solve through this type, so one [`SearchConfig`] policy decides
//! sequential-vs-portfolio for every entry point.

use std::collections::HashSet;

use qsp_circuit::{Circuit, Gate};
use qsp_state::{BasisIndex, QuantumState, SparseState};

use qsp_obs::SearchProbe;

use crate::error::SynthesisError;
use crate::exact::{ExactSynthesisOutcome, SynthesisStats};
use crate::search::astar::{
    shortest_reduction_probed, SearchCoordination, SearchFailure, SearchOutcome,
};
use crate::search::config::{SearchConfig, SearchStrategy};
use crate::search::op::TransitionOp;
use crate::search::state::{quantize, SearchState};

/// The abstract reduction recipe of one exact solve: the transition
/// operations the search settled (in the frame of the searched variant), the
/// zero-cost transform from the compact register onto that variant, and the
/// active qubit positions the compact register was built from.
///
/// The ops are angle-free — replaying them on *another* state with the same
/// support pattern re-derives that state's own rotation angles through the
/// angle-replay stage. This is the capture side of the batch layer's
/// support-pattern class templates.
#[derive(Debug, Clone)]
pub(crate) struct ReductionPlan {
    /// The backward reduction, in the searched variant's frame.
    pub(crate) ops: Vec<TransitionOp>,
    /// Zero-cost transform from the compact register onto the searched
    /// variant (identity for sequential solves).
    pub(crate) frame: StateTransform,
    /// Active (non constant-`|0⟩`) qubit positions of the original register.
    pub(crate) active: Vec<usize>,
}

/// A zero-cost transform `t(x) = permute(x, perm) ^ mask` mapping one state
/// of a Sec. V-B equivalence class onto another (index-wise; amplitudes ride
/// along unchanged). Used both as the *witness* recorded by the batch
/// engine's canonical keying and as the variant generator of the portfolio
/// search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateTransform {
    pub(crate) perm: Vec<usize>,
    pub(crate) mask: u64,
}

impl StateTransform {
    /// The identity transform on `num_qubits` qubits.
    pub fn identity(num_qubits: usize) -> Self {
        StateTransform {
            perm: (0..num_qubits).collect(),
            mask: 0,
        }
    }

    /// Whether this is the identity transform.
    pub fn is_identity(&self) -> bool {
        self.mask == 0 && self.perm.iter().enumerate().all(|(i, &p)| i == p)
    }

    /// Applies the transform to a basis index.
    pub fn apply(&self, index: u64) -> u64 {
        BasisIndex::new(index).permute(&self.perm).value() ^ self.mask
    }

    /// The inverse permutation array: `inv[perm[q]] = q`.
    pub(crate) fn inverse_perm(perm: &[usize]) -> Vec<usize> {
        let mut inv = vec![0usize; perm.len()];
        for (q, &p) in perm.iter().enumerate() {
            inv[p] = q;
        }
        inv
    }

    /// Applies the transform to a whole state: the result has amplitude
    /// `a(x)` at index `t(x)` wherever the input has amplitude `a(x)` at `x`.
    pub(crate) fn apply_to_state(
        &self,
        state: &SparseState,
    ) -> Result<SparseState, SynthesisError> {
        let mut out = state.permute_qubits(&self.perm)?;
        for qubit in 0..self.perm.len() {
            if self.mask >> qubit & 1 == 1 {
                out = out.apply_x(qubit)?;
            }
        }
        Ok(out)
    }
}

/// Permutes the bits of a mask: bit `i` of the result is bit `perm[i]` of
/// `mask` (same convention as [`BasisIndex::permute`]).
pub(crate) fn permute_mask(mask: u64, perm: &[usize]) -> u64 {
    BasisIndex::new(mask).permute(perm).value()
}

/// Reconstructs the circuit for a target from the solved circuit of another
/// member of the same canonical class.
///
/// `solved_transform` maps the solved state onto the canonical
/// representative, `target_transform` maps the target onto the same
/// representative. The reconstruction relabels the solved circuit's qubits
/// and appends an X layer — both zero CNOT cost, so the reconstructed
/// circuit's CNOT cost equals the solved one's.
pub(crate) fn reconstruct_circuit(
    solved: &Circuit,
    solved_transform: &StateTransform,
    target_transform: &StateTransform,
) -> Result<Circuit, SynthesisError> {
    let n = target_transform.perm.len();
    // Combined index map from the solved state A to the target B:
    //   i_B = inv(t_B)(t_A(i_A)) = permute(i_A, r) ^ m
    // with r[i] = p_A[inv_B[i]] and m = permute_mask(m_A ^ m_B, inv_B).
    let inv_b = StateTransform::inverse_perm(&target_transform.perm);
    let r: Vec<usize> = (0..n).map(|i| solved_transform.perm[inv_b[i]]).collect();
    let mask = permute_mask(solved_transform.mask ^ target_transform.mask, &inv_b);

    if r.iter().enumerate().all(|(i, &v)| i == v) && mask == 0 {
        return Ok(solved.clone());
    }

    // A circuit remapped by `sigma` prepares the permuted state with
    // bit sigma(q) = bit q of the original; matching `permute(·, r)` needs
    // sigma = r^{-1}.
    let sigma = StateTransform::inverse_perm(&r);
    let mut circuit = solved.remap_qubits(&sigma, n)?;
    for qubit in 0..n {
        if mask & (1u64 << qubit) != 0 {
            circuit.try_push(Gate::x(qubit))?;
        }
    }
    Ok(circuit)
}

/// The exact-synthesis pipeline with strategy dispatch. Cheap to construct;
/// stateless apart from its configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverEngine {
    config: SearchConfig,
}

/// The solved compact problem: the circuit on the active register, the
/// reduction recipe it was replayed from, plus search statistics.
struct CompactSolution {
    circuit: Circuit,
    expanded: usize,
    pushed: usize,
    variants: usize,
    ops: Vec<TransitionOp>,
    frame: StateTransform,
}

impl SolverEngine {
    /// An engine with the given search configuration (strategy included).
    pub fn new(config: SearchConfig) -> Self {
        SolverEngine { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Synthesizes the CNOT-optimal preparation circuit for `target` (any
    /// [`QuantumState`] backend), scheduling the search per the configured
    /// [`SearchStrategy`].
    ///
    /// # Errors
    ///
    /// Returns an error when the target has negative amplitudes, exceeds the
    /// configured limits on active qubits / cardinality, or the search budget
    /// is exhausted.
    pub fn synthesize<S: QuantumState>(
        &self,
        state: &S,
    ) -> Result<ExactSynthesisOutcome, SynthesisError> {
        self.synthesize_probed(state, None)
    }

    /// [`SolverEngine::synthesize`] with an optional flight-recorder probe:
    /// every A* worker of the solve (all racers of a portfolio) reports its
    /// node counters, frontier high-water, incumbent-bound updates and
    /// cancellation cause into the shared probe. Pass `None` (what
    /// `synthesize` does) to skip all per-node probe accounting.
    pub fn synthesize_probed<S: QuantumState>(
        &self,
        state: &S,
        probe: Option<&SearchProbe>,
    ) -> Result<ExactSynthesisOutcome, SynthesisError> {
        let start = std::time::Instant::now();
        let sparse = state.as_sparse()?;
        if sparse.iter().any(|(_, a)| a < 0.0) {
            return Err(SynthesisError::UnsupportedState {
                reason: "exact synthesis requires non-negative real amplitudes".to_string(),
            });
        }
        let on_grid = on_search_grid(&sparse)?;
        let target = on_grid.as_ref().unwrap_or(&sparse);
        if target.cardinality() > self.config.max_cardinality {
            return Err(SynthesisError::ProblemTooLarge {
                reason: format!(
                    "cardinality {} exceeds the limit {}",
                    target.cardinality(),
                    self.config.max_cardinality
                ),
            });
        }

        // Compact away constant-|0⟩ qubits: the search runs on the active
        // register, the circuit is remapped back at the end.
        let active: Vec<usize> = (0..target.num_qubits())
            .filter(|&q| target.iter().any(|(index, _)| index.bit(q)))
            .collect();
        if active.len() > self.config.max_qubits {
            return Err(SynthesisError::ProblemTooLarge {
                reason: format!(
                    "{} active qubits exceed the limit {}",
                    active.len(),
                    self.config.max_qubits
                ),
            });
        }
        if active.is_empty() {
            // The target is |0…0⟩ already.
            return Ok(ExactSynthesisOutcome {
                circuit: Circuit::new(target.num_qubits()),
                cnot_cost: 0,
                stats: SynthesisStats {
                    active_qubits: 0,
                    variants: 1,
                    ..SynthesisStats::default()
                },
                elapsed: start.elapsed(),
                plan: None,
            });
        }

        let compact = compact_state(target, &active)?;
        let solution = self.solve_compact(&compact, probe)?;
        let circuit = solution
            .circuit
            .remap_qubits(&active, target.num_qubits())?;

        Ok(ExactSynthesisOutcome {
            cnot_cost: circuit.cnot_cost(),
            circuit,
            stats: SynthesisStats {
                expanded: solution.expanded,
                pushed: solution.pushed,
                active_qubits: active.len(),
                variants: solution.variants,
            },
            elapsed: start.elapsed(),
            plan: Some(ReductionPlan {
                ops: solution.ops,
                frame: solution.frame,
                active,
            }),
        })
    }

    /// Solves the compacted problem per the configured strategy.
    fn solve_compact(
        &self,
        compact: &SparseState,
        probe: Option<&SearchProbe>,
    ) -> Result<CompactSolution, SynthesisError> {
        match self.config.strategy {
            SearchStrategy::Sequential => self.solve_sequential(compact, probe),
            SearchStrategy::Portfolio { .. } => {
                let workers = self.config.strategy.resolved_workers();
                let transforms = portfolio_transforms(compact, workers);
                if transforms.len() <= 1 {
                    self.solve_sequential(compact, probe)
                } else {
                    self.solve_portfolio(compact, transforms, probe)
                }
            }
        }
    }

    fn solve_sequential(
        &self,
        compact: &SparseState,
        probe: Option<&SearchProbe>,
    ) -> Result<CompactSolution, SynthesisError> {
        let search_target = SearchState::from_state(compact);
        let outcome = shortest_reduction_probed(&search_target, &self.config, None, probe)
            .map_err(SearchFailure::into_error)?;
        let reduction = crate::exact::replay_reduction(compact, &outcome.reduction_ops)?;
        Ok(CompactSolution {
            circuit: reduction.inverse(),
            expanded: outcome.expanded,
            pushed: outcome.pushed,
            variants: 1,
            ops: outcome.reduction_ops,
            frame: StateTransform::identity(compact.num_qubits()),
        })
    }

    /// Races one A* worker per canonical variant; the first settled optimum
    /// wins and cancels the rest through the shared [`SearchCoordination`].
    fn solve_portfolio(
        &self,
        compact: &SparseState,
        transforms: Vec<StateTransform>,
        probe: Option<&SearchProbe>,
    ) -> Result<CompactSolution, SynthesisError> {
        type Attempt = Result<(usize, SearchOutcome, SparseState), SearchFailure>;

        let coordination = SearchCoordination::new();
        // Portfolio workers always search with exact distance keys: the
        // approximate PU(2) compression is frame-dependent (different
        // variants can settle different costs), which would both break the
        // bit-identical-cost contract and let foreign-frame incumbents prune
        // unsoundly. The compression knob still applies to sequential runs.
        let config = &SearchConfig {
            permutation_compression: false,
            ..self.config
        };
        let attempts: Vec<Attempt> = std::thread::scope(|scope| {
            let handles: Vec<_> = transforms
                .iter()
                .enumerate()
                .map(|(index, transform)| {
                    let coordination = &coordination;
                    scope.spawn(move || -> Attempt {
                        let variant = transform
                            .apply_to_state(compact)
                            .map_err(SearchFailure::Error)?;
                        let search_target = SearchState::from_state(&variant);
                        let outcome = shortest_reduction_probed(
                            &search_target,
                            config,
                            Some(coordination),
                            probe,
                        )?;
                        Ok((index, outcome, variant))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("portfolio worker panicked"))
                .collect()
        });

        // Deterministic preference among finishers: lowest cost first (every
        // finisher is optimal, so costs tie), then lowest variant index.
        let mut winner: Option<(usize, SearchOutcome, SparseState)> = None;
        let mut first_error: Option<SynthesisError> = None;
        for attempt in attempts {
            match attempt {
                Ok(candidate) => {
                    let better = winner.as_ref().is_none_or(|best| {
                        (candidate.1.cnot_cost, candidate.0) < (best.1.cnot_cost, best.0)
                    });
                    if better {
                        winner = Some(candidate);
                    }
                }
                Err(SearchFailure::Cancelled) => {}
                Err(SearchFailure::Error(e)) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        let Some((index, outcome, variant)) = winner else {
            // No worker finished: every one failed (cancellation requires a
            // finisher), so surface the first real error.
            return Err(
                first_error.unwrap_or(SynthesisError::SearchBudgetExhausted { expanded: 0 })
            );
        };

        // Replay the reduction in the winning variant's frame, then map the
        // circuit back onto the target frame with the zero-cost witness.
        let reduction = crate::exact::replay_reduction(&variant, &outcome.reduction_ops)?;
        let variant_circuit = reduction.inverse();
        let identity = StateTransform::identity(compact.num_qubits());
        let circuit = reconstruct_circuit(&variant_circuit, &identity, &transforms[index])?;
        Ok(CompactSolution {
            circuit,
            expanded: outcome.expanded,
            pushed: outcome.pushed,
            variants: transforms.len(),
            ops: outcome.reduction_ops,
            frame: transforms[index].clone(),
        })
    }
}

impl SearchFailure {
    /// Unwraps the error of an uncoordinated search (which cannot be
    /// cancelled).
    fn into_error(self) -> SynthesisError {
        match self {
            SearchFailure::Cancelled => unreachable!("uncoordinated search cancelled"),
            SearchFailure::Error(e) => e,
        }
    }
}

/// The target restricted to the support the search sees, or `None` when
/// that is the whole target. The search works on a `2^-40` probability grid
/// where amplitudes below ≈ 6.7e-7 round to zero, while the angle replay
/// works on the f64 state; dropping those entries (and renormalizing) here,
/// once, makes the search, the active-qubit compaction and the replay solve
/// one support. The dropped probability is below `2^-41` per entry.
fn on_search_grid(target: &SparseState) -> Result<Option<SparseState>, SynthesisError> {
    let on_grid = |&(_, amplitude): &(BasisIndex, f64)| quantize(amplitude) > 0;
    if target.iter().all(|entry| on_grid(&entry)) {
        return Ok(None);
    }
    let kept = SparseState::from_amplitudes(target.num_qubits(), target.iter().filter(on_grid))?;
    Ok(Some(kept.normalize()?))
}

/// Restricts `target` to the `active` qubits (every other qubit is `|0⟩`).
pub(crate) fn compact_state(
    target: &SparseState,
    active: &[usize],
) -> Result<SparseState, SynthesisError> {
    let entries = target.iter().map(|(index, amplitude)| {
        let mut compact = 0u64;
        for (new_pos, &old_pos) in active.iter().enumerate() {
            if index.bit(old_pos) {
                compact |= 1 << new_pos;
            }
        }
        (BasisIndex::new(compact), amplitude)
    });
    Ok(SparseState::from_amplitudes(active.len(), entries)?)
}

/// Deterministically picks up to `workers` zero-cost variants of `compact`
/// for the portfolio, always starting with the identity. Candidates whose
/// search state coincides with an already chosen variant are skipped (a
/// permutation-symmetric target like GHZ yields fewer distinct variants, and
/// the portfolio shrinks accordingly).
///
/// The primary candidate stream reuses the keying pipeline's **orbit
/// enumeration** ([`qsp_state::pipeline::orbit_variant_transforms`]):
/// orbit-consistent qubit relabellings paired with support flip masks.
/// Unlike blind single-bit flips, each of those candidates moves the target
/// into a genuinely different frame (a different support index lands on
/// `|0…0⟩`, relabellings respect the qubits' invariant structure), so the
/// racers explore structurally diverse search orders. The legacy
/// rotation/flip stream remains as a filler when the orbit stream is
/// shorter than the worker count.
fn portfolio_transforms(compact: &SparseState, workers: usize) -> Vec<StateTransform> {
    let n = compact.num_qubits();
    let identity = StateTransform::identity(n);
    let mut chosen = vec![identity];
    if workers <= 1 || n == 0 {
        return chosen;
    }
    let mut seen: HashSet<SearchState> = HashSet::new();
    seen.insert(SearchState::from_state(compact));

    let entries: Vec<(u64, u64)> = compact
        .iter()
        .map(|(index, amplitude)| (index.value(), amplitude.to_bits()))
        .collect();
    let orbit_candidates =
        qsp_state::pipeline::orbit_variant_transforms(n, &entries, workers.saturating_mul(4))
            .into_iter()
            .map(|(perm, mask)| StateTransform { perm, mask });

    for candidate in orbit_candidates.chain(candidate_transforms(n)) {
        if chosen.len() >= workers {
            break;
        }
        let Ok(variant) = candidate.apply_to_state(compact) else {
            continue;
        };
        if seen.insert(SearchState::from_state(&variant)) {
            chosen.push(candidate);
        }
    }
    chosen
}

/// The deterministic legacy candidate stream filling the portfolio when the
/// orbit stream runs short: single-qubit flips first, then qubit rotations,
/// then rotation × flip combinations, then the remaining flip masks.
fn candidate_transforms(n: usize) -> Vec<StateTransform> {
    let rotation = |r: usize| -> Vec<usize> { (0..n).map(|i| (i + r) % n).collect() };
    let mut candidates = Vec::new();
    for q in 0..n {
        candidates.push(StateTransform {
            perm: (0..n).collect(),
            mask: 1u64 << q,
        });
    }
    for r in 1..n {
        candidates.push(StateTransform {
            perm: rotation(r),
            mask: 0,
        });
    }
    for r in 1..n {
        for q in 0..n {
            candidates.push(StateTransform {
                perm: rotation(r),
                mask: 1u64 << q,
            });
        }
    }
    if n <= 10 {
        for mask in 1..(1u64 << n) {
            if mask.count_ones() > 1 {
                candidates.push(StateTransform {
                    perm: (0..n).collect(),
                    mask,
                });
            }
        }
    }
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsp_sim::verify_preparation;
    use qsp_state::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn transform_application_matches_index_map() {
        let state = generators::w_state(3).unwrap();
        let t = StateTransform {
            perm: vec![2, 0, 1],
            mask: 0b011,
        };
        let transformed = t.apply_to_state(&state).unwrap();
        for (index, amplitude) in state.iter() {
            let mapped = t.apply(index.value());
            assert!(
                (transformed.amplitude(BasisIndex::new(mapped)) - amplitude).abs() < 1e-12,
                "index {index:?} did not map to {mapped}"
            );
        }
        assert!(StateTransform::identity(3).is_identity());
        assert!(!t.is_identity());
    }

    #[test]
    fn portfolio_variants_are_distinct_and_identity_first() {
        let asym = qsp_state::SparseState::uniform_superposition(
            4,
            [0b0001u64, 0b0011, 0b0111].map(BasisIndex::new),
        )
        .unwrap();
        let transforms = portfolio_transforms(&asym, 6);
        assert_eq!(transforms.len(), 6);
        assert!(transforms[0].is_identity());
        let mut states = HashSet::new();
        for t in &transforms {
            let variant = t.apply_to_state(&asym).unwrap();
            assert!(states.insert(SearchState::from_state(&variant)));
        }
    }

    #[test]
    fn symmetric_targets_shrink_the_portfolio() {
        // GHZ is invariant under every qubit permutation; only flip variants
        // produce distinct search states.
        let ghz = generators::ghz(3).unwrap();
        let transforms = portfolio_transforms(&ghz, 64);
        assert!(transforms.len() > 1);
        assert!(transforms.len() < 64);
    }

    #[test]
    fn portfolio_cost_is_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(2024);
        let sequential = SolverEngine::new(SearchConfig::default());
        let portfolio = SolverEngine::new(SearchConfig::portfolio(4));
        let mut targets = vec![
            generators::ghz(4).unwrap(),
            generators::w_state(4).unwrap(),
            generators::dicke(4, 2).unwrap(),
        ];
        for _ in 0..6 {
            targets.push(generators::random_uniform_state(4, 6, &mut rng).unwrap());
        }
        for target in &targets {
            let seq = sequential.synthesize(target).unwrap();
            let par = portfolio.synthesize(target).unwrap();
            assert_eq!(
                seq.cnot_cost, par.cnot_cost,
                "portfolio cost diverged on {target}"
            );
            let report = verify_preparation(&par.circuit, target).unwrap();
            assert!(
                report.is_correct(),
                "portfolio circuit does not prepare the target"
            );
            assert!(par.stats.variants >= 1);
        }
    }

    #[test]
    fn portfolio_handles_trivial_targets() {
        let engine = SolverEngine::new(SearchConfig::portfolio(4));
        let ground = qsp_state::SparseState::ground_state(3).unwrap();
        let outcome = engine.synthesize(&ground).unwrap();
        assert_eq!(outcome.cnot_cost, 0);
        assert_eq!(outcome.stats.variants, 1);
    }
}
