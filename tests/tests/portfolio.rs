//! Integration tests for the portfolio solver engine — the acceptance
//! criterion of the `SolverEngine` refactor: the portfolio returns
//! **bit-identical** `cnot_cost` to the sequential A* across the property
//! workloads, from every entry point (exact synthesizer, workflow, batch).

use rand::rngs::StdRng;
use rand::SeedableRng;

use qsp_baselines::StatePreparator;
use qsp_core::batch::{BatchOptions, BatchSynthesizer};
use qsp_core::{
    ExactSynthesizer, QspWorkflow, SearchConfig, SearchStrategy, SynthesisRequest, WorkflowConfig,
};
use qsp_sim::verify_preparation;
use qsp_state::{generators, SparseState};

fn property_workloads() -> Vec<SparseState> {
    let mut rng = StdRng::seed_from_u64(777);
    let mut targets = vec![
        generators::ghz(4).unwrap(),
        generators::w_state(4).unwrap(),
        generators::dicke(4, 2).unwrap(),
        generators::dicke(4, 1).unwrap(),
        generators::dicke(3, 1).unwrap(),
    ];
    for _ in 0..8 {
        targets.push(generators::random_uniform_state(4, 6, &mut rng).unwrap());
    }
    for m in 2..=5 {
        targets.push(generators::random_uniform_state(4, m, &mut rng).unwrap());
    }
    targets
}

#[test]
fn portfolio_exact_costs_are_bit_identical_to_sequential() {
    let sequential = ExactSynthesizer::new();
    let portfolio = ExactSynthesizer::with_config(SearchConfig::portfolio(4));
    for target in property_workloads() {
        let seq = sequential.engine().synthesize(&target).unwrap();
        let par = portfolio.engine().synthesize(&target).unwrap();
        assert_eq!(
            seq.cnot_cost, par.cnot_cost,
            "portfolio cost diverged on {target}"
        );
        let report = verify_preparation(&par.circuit, &target).unwrap();
        assert!(
            report.is_correct(),
            "portfolio circuit does not prepare {target} (fidelity {})",
            report.fidelity
        );
    }
}

#[test]
fn portfolio_workflow_matches_sequential_workflow_costs() {
    // Wider targets exercise the reduction stages around the exact core; the
    // strategy must ride through the whole workflow.
    let mut rng = StdRng::seed_from_u64(888);
    let mut targets = vec![
        generators::ghz(8).unwrap(),
        generators::w_state(6).unwrap(),
        generators::dicke(5, 2).unwrap(),
    ];
    for n in 6..9 {
        targets.push(generators::random_sparse_state(n, &mut rng).unwrap());
    }
    let sequential = QspWorkflow::new();
    let portfolio =
        QspWorkflow::with_config(WorkflowConfig::with_strategy(SearchStrategy::Portfolio {
            workers: 3,
        }));
    for target in &targets {
        let seq = sequential.prepare(target).unwrap();
        let par = portfolio.prepare(target).unwrap();
        assert_eq!(
            seq.cnot_cost(),
            par.cnot_cost(),
            "workflow costs diverged on {target}"
        );
        assert!(verify_preparation(&par, target).unwrap().is_correct());
    }
}

#[test]
fn batch_engine_rides_the_portfolio_strategy() {
    let targets = [
        generators::dicke(4, 2).unwrap(),
        generators::ghz(4).unwrap(),
        generators::dicke(4, 2).unwrap(), // duplicate → cache hit
    ];
    let requests: Vec<_> = targets
        .iter()
        .map(|t| SynthesisRequest::new(t.clone()))
        .collect();
    let sequential = BatchSynthesizer::new().synthesize_requests(&requests);
    let portfolio_engine = BatchSynthesizer::with_options(
        WorkflowConfig::with_strategy(SearchStrategy::Portfolio { workers: 3 }),
        BatchOptions::default(),
    );
    let portfolio = portfolio_engine.synthesize_requests(&requests);
    assert_eq!(portfolio.stats.solver_runs, 2);
    assert_eq!(portfolio.stats.cache_hits, 1);
    for (i, (seq, par)) in sequential
        .reports
        .iter()
        .zip(&portfolio.reports)
        .enumerate()
    {
        let (seq, par) = (seq.as_ref().unwrap(), par.as_ref().unwrap());
        assert_eq!(
            seq.cnot_cost, par.cnot_cost,
            "batch target {i} diverged under the portfolio strategy"
        );
        assert!(verify_preparation(&par.circuit, &targets[i])
            .unwrap()
            .is_correct());
    }
}

#[test]
fn degenerate_portfolios_fall_back_to_sequential() {
    // workers = 1 and fully symmetric targets (single distinct variant) must
    // behave exactly like the sequential engine.
    let one_worker = ExactSynthesizer::with_config(SearchConfig::portfolio(1));
    let ghz = generators::ghz(4).unwrap();
    let outcome = one_worker.engine().synthesize(&ghz).unwrap();
    assert_eq!(outcome.cnot_cost, 3);
    assert_eq!(outcome.stats.variants, 1);

    let ground = SparseState::ground_state(4).unwrap();
    let outcome = one_worker.engine().synthesize(&ground).unwrap();
    assert_eq!(outcome.cnot_cost, 0);
}
