//! Integration tests for the `QuantumState` backend trait and the parallel
//! batch-synthesis engine — the acceptance criteria of the trait/batch
//! refactor:
//!
//! * the batch engine returns circuits **bit-identical** to per-target
//!   `QspWorkflow` runs on the Dicke/GHZ/W/random workloads,
//! * canonical-duplicate targets are solved exactly once (cache hit counts
//!   asserted),
//! * sparse and dense backends flow through the same generic workflow path.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qsp_circuit::Circuit;
use qsp_core::batch::BatchSynthesizer;
use qsp_core::{prepare_state, QspWorkflow, SynthesisRequest};
use qsp_sim::verify_preparation;
use qsp_state::{generators, AdaptiveState, DenseState, QuantumState, SparseState};

fn requests<S: QuantumState + Clone>(targets: &[S]) -> Vec<SynthesisRequest<S>> {
    targets
        .iter()
        .map(|t| SynthesisRequest::new(t.clone()))
        .collect()
}

/// One sequential workflow solve.
fn workflow_circuit<S: QuantumState + Clone>(target: &S) -> Circuit {
    QspWorkflow::new()
        .synthesize_request(&SynthesisRequest::new(target.clone()))
        .unwrap()
        .circuit
}

fn workloads() -> Vec<SparseState> {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut targets = vec![
        generators::dicke(4, 2).unwrap(),
        generators::dicke(5, 2).unwrap(),
        generators::ghz(3).unwrap(),
        generators::ghz(7).unwrap(),
        generators::w_state(4).unwrap(),
        generators::w_state(6).unwrap(),
    ];
    for n in 5..9 {
        targets.push(generators::random_sparse_state(n, &mut rng).unwrap());
    }
    targets
}

#[test]
fn batch_circuits_are_bit_identical_to_sequential_workflow_runs() {
    let targets = workloads();
    let sequential: Vec<_> = targets.iter().map(workflow_circuit).collect();

    let outcome = BatchSynthesizer::new().synthesize_requests(&requests(&targets));
    assert_eq!(outcome.stats.targets, targets.len());
    assert_eq!(outcome.stats.errors, 0);

    for (i, (seq, bat)) in sequential.iter().zip(&outcome.reports).enumerate() {
        let bat = &bat.as_ref().unwrap().circuit;
        assert_eq!(
            seq, bat,
            "target {i}: batch circuit differs from the sequential workflow"
        );
        assert!(verify_preparation(bat, &targets[i]).unwrap().is_correct());
    }
}

/// An asymmetric 4-qubit uniform state: permuting or flipping its qubits
/// yields a *different* state of the same Sec. V-B equivalence class (unlike
/// GHZ/W/Dicke states, which are permutation-symmetric).
fn asymmetric_state() -> SparseState {
    SparseState::uniform_superposition(
        4,
        [0b0001u64, 0b0011, 0b0111].map(qsp_state::BasisIndex::new),
    )
    .unwrap()
}

#[test]
fn canonical_duplicates_are_solved_exactly_once() {
    let asym = asymmetric_state();
    let permuted = asym.permute_qubits(&[1, 0, 3, 2]).unwrap();
    let negated = asym.apply_x(0).unwrap();
    assert_ne!(
        asym, permuted,
        "the permuted variant must be a distinct state"
    );
    assert_ne!(asym, negated);
    let ghz = generators::ghz(4).unwrap();

    // 6 targets, but only 2 canonical classes:
    // {asym, permuted, negated, asym} and {ghz, ghz}.
    let targets = vec![
        asym.clone(),
        ghz.clone(),
        permuted.clone(),
        negated.clone(),
        ghz.clone(),
        asym.clone(),
    ];
    let engine = BatchSynthesizer::new();
    let outcome = engine.synthesize_requests(&requests(&targets));
    let results: Vec<&Circuit> = outcome
        .reports
        .iter()
        .map(|report| &report.as_ref().unwrap().circuit)
        .collect();

    assert_eq!(
        outcome.stats.solver_runs, 2,
        "one solve per canonical class"
    );
    assert_eq!(
        outcome.stats.cache_hits, 4,
        "every other target hits the cache"
    );
    assert_eq!(outcome.stats.errors, 0);
    assert_eq!(engine.cache_len(), 2);

    // Every circuit still prepares *its own* target, and the zero-cost
    // reconstruction preserves the CNOT cost across the class.
    let asym_cost = results[0].cnot_cost();
    for (target, circuit) in targets.iter().zip(&results) {
        assert!(
            verify_preparation(circuit, target).unwrap().is_correct(),
            "reconstructed circuit does not prepare its target"
        );
    }
    for i in [2usize, 3, 5] {
        assert_eq!(results[i].cnot_cost(), asym_cost);
    }

    // Exact duplicates get bit-identical circuits.
    assert_eq!(results[0], results[5]);
    assert_eq!(results[1], results[4]);

    // Resubmitting the whole batch is served from the cache without solving.
    let again = engine.synthesize_requests(&requests(&targets));
    assert_eq!(again.stats.solver_runs, 0);
    assert_eq!(again.stats.cache_hits, targets.len());
}

#[test]
fn sparse_and_dense_backends_share_the_workflow_path() {
    let sparse = generators::dicke(4, 2).unwrap();
    let dense = DenseState::from_sparse(&sparse);
    let adaptive = AdaptiveState::from_sparse(sparse.clone());

    let via_sparse = workflow_circuit(&sparse);
    let via_dense = workflow_circuit(&dense);
    let via_adaptive = workflow_circuit(&adaptive);
    assert_eq!(via_sparse, via_dense);
    assert_eq!(via_sparse, via_adaptive);
    assert!(verify_preparation(&via_dense, &dense).unwrap().is_correct());

    // prepare_state and the batch engine accept dense targets too.
    let outcome = prepare_state(&dense).unwrap();
    assert_eq!(outcome.cnot_cost, via_sparse.cnot_cost());
    let batch =
        BatchSynthesizer::new().synthesize_requests(&requests(std::slice::from_ref(&dense)));
    assert_eq!(batch.reports[0].as_ref().unwrap().circuit, via_sparse);

    // A batch mixing representations of the *same* state solves it once.
    let engine = BatchSynthesizer::new();
    let mixed_sparse = engine.synthesize_requests(&requests(std::slice::from_ref(&sparse)));
    let mixed_dense = engine.synthesize_requests(&requests(&[dense]));
    assert_eq!(mixed_sparse.stats.solver_runs, 1);
    assert_eq!(
        mixed_dense.stats.solver_runs, 0,
        "dense view of a cached sparse state hits"
    );
    assert_eq!(
        mixed_sparse.reports[0].as_ref().unwrap().circuit,
        mixed_dense.reports[0].as_ref().unwrap().circuit
    );
}

#[test]
fn batch_scales_to_a_wide_mixed_workload() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut targets = Vec::new();
    for _ in 0..20 {
        targets.push(generators::random_sparse_state(7, &mut rng).unwrap());
    }
    // Duplicate a slice of the workload.
    for i in 0..10 {
        targets.push(targets[i].clone());
    }
    let outcome = BatchSynthesizer::new().synthesize_requests(&requests(&targets));
    assert_eq!(outcome.stats.errors, 0);
    assert!(outcome.stats.solver_runs <= 20);
    assert!(outcome.stats.cache_hits >= 10);
    for (target, report) in targets.iter().zip(&outcome.reports) {
        assert!(
            verify_preparation(&report.as_ref().unwrap().circuit, target)
                .unwrap()
                .is_correct()
        );
    }
}
