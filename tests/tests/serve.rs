//! Workspace-level serving-layer tests: the service must agree CNOT-for-CNOT
//! with the sequential workflow and compose with the cache snapshot story.

use std::time::Duration;

use qsp_core::{BatchSynthesizer, QspWorkflow, SynthesisRequest};
use qsp_serve::{Response, SchedulerConfig, ServiceConfig, Shutdown, SynthesisService};
use qsp_state::generators::{self, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HANG: Duration = Duration::from_secs(120);

#[test]
fn service_costs_match_the_sequential_workflow_on_a_seeded_mix() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut targets = Vec::new();
    for i in 0..24 {
        let n = 4 + (i % 4);
        targets.push(generators::random_uniform_state(n, n + 1, &mut rng).unwrap());
        if i % 5 == 4 {
            // Skewed repeats so dedup has something to do.
            targets.push(targets[i / 2].clone());
        }
    }
    targets.push(generators::ghz(6).unwrap());
    targets.push(generators::w_state(5).unwrap());

    let workflow = QspWorkflow::new();
    let service = SynthesisService::start(
        ServiceConfig::default()
            .with_queue_capacity(targets.len())
            .with_scheduler(
                SchedulerConfig::default()
                    .with_max_batch(8)
                    .with_max_wait(Duration::from_millis(1))
                    .with_workers(4),
            ),
    );
    let handles: Vec<_> = targets
        .iter()
        .map(|t| {
            service
                .submit(SynthesisRequest::new(t.clone()))
                .handle()
                .expect("accepted")
        })
        .collect();
    for (target, handle) in targets.iter().zip(&handles) {
        let Some(Response::Completed(served)) = handle.wait_timeout(HANG) else {
            panic!("request did not complete");
        };
        let sequential = workflow
            .synthesize_request(&SynthesisRequest::new(target.clone()))
            .unwrap();
        assert_eq!(
            served.cnot_cost, sequential.cnot_cost,
            "service CNOT cost diverged from the sequential workflow"
        );
        let report = qsp_sim::verify_preparation(&served.circuit, target).unwrap();
        assert!(report.is_correct());
    }
    let stats = service.shutdown(Shutdown::Drain);
    assert_eq!(stats.completed as usize, targets.len());
    assert!(
        stats.deduped + stats.cache_hits > 0,
        "the repeated targets must be served without fresh solves"
    );
    assert!((stats.solver_runs as usize) < targets.len());
}

#[test]
fn service_shares_a_warm_cache_with_the_batch_engine() {
    let dir = std::env::temp_dir().join("qsp_serve_warm_test");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("warm.json");

    // An offline batch run solves the classes and persists them.
    let offline = BatchSynthesizer::new();
    let targets = [
        Workload::Dicke { n: 5, k: 2 }.instantiate().unwrap(),
        generators::ghz(6).unwrap(),
    ];
    let offline_requests: Vec<_> = targets
        .iter()
        .map(|t| SynthesisRequest::new(t.clone()))
        .collect();
    let outcome = offline.synthesize_requests(&offline_requests);
    assert_eq!(outcome.stats.errors, 0);
    offline.save_cache_snapshot(&snapshot).unwrap();

    // A fresh service warm-starts from the snapshot through the shared
    // engine: no solver runs for the same traffic.
    let engine = BatchSynthesizer::new();
    engine.load_cache_snapshot(&snapshot).unwrap();
    let service = SynthesisService::with_engine(
        engine,
        16,
        SchedulerConfig::default()
            .with_max_batch(4)
            .with_max_wait(Duration::from_millis(1))
            .with_workers(2),
    );
    let handles: Vec<_> = targets
        .iter()
        .map(|t| {
            service
                .submit(SynthesisRequest::new(t.clone()))
                .handle()
                .expect("accepted")
        })
        .collect();
    for (target, handle) in targets.iter().zip(&handles) {
        let Some(Response::Completed(served)) = handle.wait_timeout(HANG) else {
            panic!("request did not complete");
        };
        let report = qsp_sim::verify_preparation(&served.circuit, target).unwrap();
        assert!(report.is_correct());
    }
    let stats = service.shutdown(Shutdown::Drain);
    assert_eq!(stats.solver_runs, 0, "warm cache must serve everything");
    assert_eq!(stats.cache_hits, 2);
    std::fs::remove_file(&snapshot).ok();
}
