//! End-to-end integration tests: every preparation method, applied to a suite
//! of workloads, must produce circuits that the dense simulator verifies, and
//! the exact-synthesis workflow must never lose to the baselines on the
//! paper's headline comparisons.

use qsp_baselines::{CardinalityReduction, HybridPreparator, QubitReduction, StatePreparator};
use qsp_circuit::decompose::decompose_circuit;
use qsp_circuit::Circuit;
use qsp_core::QspWorkflow;
use qsp_sim::verify_preparation;
use qsp_state::{generators, SparseState};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn all_methods() -> Vec<(&'static str, Box<dyn StatePreparator>)> {
    vec![
        ("m-flow", Box::new(CardinalityReduction::new())),
        ("n-flow", Box::new(QubitReduction::new())),
        ("hybrid", Box::new(HybridPreparator::new())),
        ("ours", Box::new(QspWorkflow::new())),
    ]
}

fn verify_circuit(label: &str, circuit: &Circuit, target: &SparseState) {
    let report = verify_preparation(circuit, target).expect("simulation succeeds");
    assert!(
        report.is_correct(),
        "{label}: circuit does not prepare the target (fidelity {})",
        report.fidelity
    );
}

fn workload_suite() -> Vec<(String, SparseState)> {
    let mut rng = StdRng::seed_from_u64(97);
    let mut suite = vec![
        ("ghz3".to_string(), generators::ghz(3).unwrap()),
        ("ghz6".to_string(), generators::ghz(6).unwrap()),
        ("w4".to_string(), generators::w_state(4).unwrap()),
        ("w7".to_string(), generators::w_state(7).unwrap()),
        ("dicke_4_2".to_string(), generators::dicke(4, 2).unwrap()),
        ("dicke_5_2".to_string(), generators::dicke(5, 2).unwrap()),
        ("dicke_6_3".to_string(), generators::dicke(6, 3).unwrap()),
    ];
    for n in 4..8 {
        suite.push((
            format!("sparse_{n}"),
            generators::random_sparse_state(n, &mut rng).unwrap(),
        ));
        suite.push((
            format!("dense_{n}"),
            generators::random_dense_state(n, &mut rng).unwrap(),
        ));
    }
    suite
}

#[test]
fn every_method_prepares_every_workload_correctly() {
    for (name, target) in workload_suite() {
        for (label, method) in all_methods() {
            let circuit = method
                .prepare_sparse(&target)
                .unwrap_or_else(|e| panic!("{label} failed on {name}: {e}"));
            verify_circuit(&format!("{label}/{name}"), &circuit, &target);
        }
    }
}

#[test]
fn lowered_circuits_still_prepare_the_target() {
    // Decomposing every multi-controlled rotation to {Ry, X, CNOT} must not
    // change the prepared state, and the literal CNOT count must equal the
    // cost model's prediction (how the paper counts CNOTs, Sec. VI-A).
    for (name, target) in workload_suite().into_iter().take(8) {
        for (label, method) in all_methods() {
            let circuit = method.prepare_sparse(&target).expect("synthesis succeeds");
            let lowered = decompose_circuit(&circuit).expect("lowering succeeds");
            assert_eq!(
                lowered.cnot_gate_count(),
                circuit.cnot_cost(),
                "{label}/{name}: lowered CNOT count disagrees with the cost model"
            );
            verify_circuit(&format!("lowered {label}/{name}"), &lowered, &target);
        }
    }
}

#[test]
fn workflow_is_never_worse_than_the_better_baseline() {
    let mut rng = StdRng::seed_from_u64(11);
    for n in 4..8 {
        for target in [
            generators::random_sparse_state(n, &mut rng).unwrap(),
            generators::random_dense_state(n, &mut rng).unwrap(),
        ] {
            let ours = QspWorkflow::new().prepare(&target).unwrap().cnot_cost();
            let mflow = CardinalityReduction::new()
                .prepare(&target)
                .unwrap()
                .cnot_cost();
            let nflow = QubitReduction::new().prepare(&target).unwrap().cnot_cost();
            let best_baseline = mflow.min(nflow);
            assert!(
                ours <= best_baseline,
                "n = {n}: ours ({ours}) worse than best baseline ({best_baseline})"
            );
        }
    }
}

#[test]
fn dicke_headline_result_beats_the_manual_design() {
    // Table IV headline: the exact synthesis is the first automated flow to
    // beat the manual design, halving the |D^2_4> count (12 -> 6).
    let target = generators::dicke(4, 2).unwrap();
    let ours = QspWorkflow::new().prepare(&target).unwrap();
    verify_circuit("ours/dicke_4_2", &ours, &target);
    let manual = generators::manual_dicke_cnot_count(4, 2);
    assert!(
        ours.cnot_cost() <= manual / 2 + 1,
        "ours {} is not ~2x better than manual {manual}",
        ours.cnot_cost()
    );
    // ... and no baseline does better.
    for (label, method) in all_methods().into_iter().take(3) {
        let baseline = method.prepare_sparse(&target).unwrap().cnot_cost();
        assert!(
            baseline >= ours.cnot_cost(),
            "{label} ({baseline}) unexpectedly beats exact synthesis ({})",
            ours.cnot_cost()
        );
    }
}

#[test]
fn nflow_cost_is_register_size_dependent_only() {
    // Table V: the n-flow column is 2^n − 2 for every workload.
    let mut rng = StdRng::seed_from_u64(3);
    for n in 3..9 {
        let sparse = generators::random_sparse_state(n, &mut rng).unwrap();
        let dense = generators::random_dense_state(n, &mut rng).unwrap();
        for target in [sparse, dense] {
            let cost = QubitReduction::new().prepare(&target).unwrap().cnot_cost();
            assert_eq!(cost, (1 << n) - 2, "n = {n}");
        }
    }
}

#[test]
fn mflow_scales_with_cardinality_not_register_width() {
    // Table V (sparse): the m-flow cost grows roughly like n·m, far below
    // 2^n − 2 once the register is wide.
    let mut rng = StdRng::seed_from_u64(5);
    for n in [8usize, 10, 12] {
        let target = generators::random_sparse_state(n, &mut rng).unwrap();
        let mflow = CardinalityReduction::new()
            .prepare(&target)
            .unwrap()
            .cnot_cost();
        assert!(
            mflow < (1 << n) / 2,
            "n = {n}: m-flow cost {mflow} does not reflect sparsity"
        );
    }
}

#[test]
fn qasm_export_of_a_synthesized_circuit_is_loadable_text() {
    let target = generators::dicke(4, 2).unwrap();
    let circuit = QspWorkflow::new().prepare(&target).unwrap();
    let qasm = qsp_circuit::qasm::to_qasm(&circuit).unwrap();
    assert!(qasm.contains("OPENQASM 2.0"));
    assert!(qasm.contains("qreg q[4];"));
    assert!(qasm.matches("cx ").count() >= circuit.cnot_cost());
}

/// `r(|000⟩ + |111⟩) + a|010⟩` for amplitudes on both sides of the search's
/// probability grid (`a² · 2⁴⁰` rounds to zero below `a ≈ 6.7e-7`): the
/// search and the angle replay must agree on the support, so every
/// front door returns a circuit that prepares the target.
#[test]
fn tiny_amplitudes_below_the_search_grid_still_verify() {
    use qsp_core::{BatchSynthesizer, ExactSynthesizer, SynthesisRequest};
    use qsp_state::BasisIndex;

    for a in [1e-9, 1e-7, 5e-7, 1e-6] {
        let r = ((1.0 - a * a) / 2.0f64).sqrt();
        let target = SparseState::from_amplitudes(
            3,
            [
                (BasisIndex::new(0b000), r),
                (BasisIndex::new(0b111), r),
                (BasisIndex::new(0b010), a),
            ],
        )
        .unwrap();
        let request = SynthesisRequest::new(target.clone());
        let exact = ExactSynthesizer::new()
            .synthesize_request(&request)
            .unwrap_or_else(|e| panic!("exact synthesis failed for a = {a}: {e}"));
        verify_circuit(&format!("exact a={a}"), &exact.circuit, &target);
        let workflow = QspWorkflow::new()
            .synthesize_request(&request)
            .unwrap_or_else(|e| panic!("workflow failed for a = {a}: {e}"));
        verify_circuit(&format!("workflow a={a}"), &workflow.circuit, &target);
        let batch = BatchSynthesizer::new()
            .synthesize_request(&request)
            .unwrap_or_else(|e| panic!("batch engine failed for a = {a}: {e}"));
        verify_circuit(&format!("batch a={a}"), &batch.circuit, &target);
    }
}
