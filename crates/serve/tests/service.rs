//! End-to-end service tests, including the edge cases the serving contract
//! promises: zero-capacity rejection, expired deadlines, abort shutdown,
//! bit-identical dedup costs and provenance-correct reports.

use std::time::{Duration, Instant};

use qsp_core::QspWorkflow;
use qsp_serve::{
    Provenance, Response, SchedulerConfig, ServiceConfig, Shutdown, Submit, SynthesisRequest,
    SynthesisService,
};
use qsp_state::generators::{self, Workload};
use qsp_state::SparseState;

/// A generous bound for "this must not hang": every wait in these tests
/// resolves far faster unless the service is broken.
const HANG: Duration = Duration::from_secs(120);

fn service_with(queue_capacity: usize, workers: usize, max_batch: usize) -> SynthesisService {
    SynthesisService::start(
        ServiceConfig::default()
            .with_queue_capacity(queue_capacity)
            .with_scheduler(
                SchedulerConfig::default()
                    .with_max_batch(max_batch)
                    .with_max_wait(Duration::from_millis(1))
                    .with_workers(workers),
            ),
    )
}

fn request(target: &SparseState) -> SynthesisRequest<SparseState> {
    SynthesisRequest::new(target.clone())
}

fn verify(circuit: &qsp_circuit::Circuit, target: &SparseState) {
    let report = qsp_sim::verify_preparation(circuit, target).expect("simulates");
    assert!(
        report.is_correct(),
        "served circuit does not prepare the target (fidelity {})",
        report.fidelity
    );
}

#[test]
fn serves_mixed_traffic_and_verifies() {
    let service = service_with(64, 2, 4);
    let targets = [
        generators::ghz(5).unwrap(),
        generators::w_state(4).unwrap(),
        generators::dicke(4, 2).unwrap(),
        generators::ghz(5).unwrap(),
    ];
    let handles: Vec<_> = targets
        .iter()
        .map(|t| service.submit(request(t)).handle().expect("accepted"))
        .collect();
    for (target, handle) in targets.iter().zip(&handles) {
        let response = handle.wait_timeout(HANG).expect("no hang");
        let Response::Completed(report) = response else {
            panic!("expected completion, got {response:?}");
        };
        verify(&report.circuit, target);
        assert_eq!(report.cnot_cost, report.circuit.cnot_cost());
        assert!(report.timings.total >= report.timings.solving);
    }
    let stats = service.shutdown(Shutdown::Drain);
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.expired + stats.cancelled + stats.failed, 0);
    // The duplicate GHZ was served without a second solve.
    assert_eq!(stats.solver_runs, 3);
    assert_eq!(stats.deduped + stats.cache_hits, 1);
    assert!(stats.queue_high_water >= 1);
    assert_eq!(stats.end_to_end.count(), 4);
}

#[test]
fn reports_carry_provenance() {
    // Sequential submissions of the same target: the first is a fresh
    // solve, the second (after the first completed) a cache hit.
    let service = service_with(8, 1, 1);
    let target = generators::dicke(4, 2).unwrap();
    let first = service.submit(request(&target)).handle().expect("accepted");
    let first = first.wait_timeout(HANG).expect("no hang");
    let first = first.report().expect("completed");
    assert!(matches!(first.provenance, Provenance::Solved));
    assert!(first.timings.solving > Duration::ZERO);
    let second = service.submit(request(&target)).handle().expect("accepted");
    let second = second.wait_timeout(HANG).expect("no hang");
    let second = second.report().expect("completed").clone();
    let Provenance::CacheHit { witness } = &second.provenance else {
        panic!("expected a cache hit, got {:?}", second.provenance);
    };
    // The witness maps the request's target onto the canonical class
    // fingerprint; identical targets share it with the cached entry, so the
    // reconstruction composes to the identity and reuses the circuit as-is.
    assert_eq!(second.circuit, first.circuit);
    let _ = witness;
    assert_eq!(second.cnot_cost, first.cnot_cost);
    assert_eq!(second.timings.solving, Duration::ZERO);
    assert_eq!(second.resolved.workflow, *service.engine().config());
    service.shutdown(Shutdown::Drain);
}

#[test]
fn zero_capacity_queue_rejects_immediately() {
    let service = service_with(0, 1, 4);
    match service.submit(request(&generators::ghz(3).unwrap())) {
        Submit::Rejected { reason } => assert_eq!(
            reason,
            qsp_serve::RejectReason::QueueFull,
            "rejection must be backpressure"
        ),
        Submit::Accepted(_) => panic!("zero-capacity queue must reject"),
    }
    let stats = service.shutdown(Shutdown::Drain);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.submitted, 0);
    assert_eq!(stats.solver_runs, 0);
}

#[test]
fn already_expired_deadline_times_out_without_a_solve() {
    let service = service_with(8, 1, 4);
    let handle = service
        .submit(request(&generators::ghz(4).unwrap()).with_deadline(Instant::now()))
        .handle()
        .expect("accepted");
    assert_eq!(handle.wait_timeout(HANG), Some(Response::Timeout));
    let stats = service.shutdown(Shutdown::Drain);
    assert_eq!(stats.expired, 1);
    assert_eq!(
        stats.solver_runs, 0,
        "expired requests must never be solved"
    );
    assert_eq!(stats.completed, 0);
    // The expired request still shows up in the latency accounting.
    assert_eq!(stats.end_to_end.count(), 1);
}

#[test]
fn submissions_after_shutdown_are_rejected_as_not_queue_full() {
    let service = service_with(8, 1, 4);
    service.shutdown(Shutdown::Drain);
    match service.submit(request(&generators::ghz(3).unwrap())) {
        Submit::Rejected { reason } => assert_eq!(reason, qsp_serve::RejectReason::Shutdown),
        Submit::Accepted(_) => panic!("a stopped service must reject"),
    }
}

#[test]
fn abort_shutdown_fails_pending_handles_rather_than_hanging() {
    // One worker, batch size 1: the worker picks up the slow dense target
    // (~50 ms solve) while the GHZ requests sit in the queue behind it.
    let service = service_with(16, 1, 1);
    let slow = Workload::RandomDense { n: 4, seed: 9 }
        .instantiate()
        .unwrap();
    let mut handles = vec![service.submit(request(&slow)).handle().expect("accepted")];
    for _ in 0..4 {
        handles.push(
            service
                .submit(request(&generators::ghz(6).unwrap()))
                .handle()
                .expect("accepted"),
        );
    }
    let stats = service.shutdown(Shutdown::Abort);
    // Every handle resolves promptly — nothing hangs — and whatever was
    // still queued at abort time is Cancelled, not silently dropped.
    let mut cancelled = 0;
    for handle in &handles {
        match handle.wait_timeout(HANG).expect("no hang") {
            Response::Cancelled => cancelled += 1,
            Response::Completed(_) => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(stats.cancelled, cancelled);
    assert!(
        cancelled >= 1,
        "abort with a backed-up queue must cancel pending work"
    );
    assert_eq!(stats.completed + stats.cancelled, 5);
}

#[test]
fn dedup_attach_returns_bit_identical_cnot_cost() {
    // Eight copies of a ~50 ms dense target, staggered into a 4-worker
    // service with single-request drains: the first becomes the class owner
    // and everyone else attaches in flight or hits the cache. Exactly one
    // solver run can happen — the in-flight table makes a second solve of
    // the same class impossible while the first is running, and afterwards
    // the cache serves it.
    let workload = Workload::RandomDense { n: 4, seed: 21 };
    let target = workload.instantiate().unwrap();
    let solo = QspWorkflow::new()
        .synthesize_request(&SynthesisRequest::new(target.clone()))
        .unwrap();

    let service = service_with(32, 4, 1);
    let mut handles = Vec::new();
    for _ in 0..8 {
        handles.push(service.submit(request(&target)).handle().expect("accepted"));
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut costs = Vec::new();
    let mut attached = 0u64;
    for handle in &handles {
        let response = handle.wait_timeout(HANG).expect("no hang");
        let Response::Completed(report) = response else {
            panic!("expected completion, got {response:?}");
        };
        verify(&report.circuit, &target);
        if matches!(report.provenance, Provenance::DedupAttach { .. }) {
            attached += 1;
        }
        costs.push(report.cnot_cost);
    }
    let stats = service.shutdown(Shutdown::Drain);
    assert!(
        costs.iter().all(|&c| c == solo.cnot_cost),
        "deduped responses must cost exactly the solo solve: {costs:?} vs {}",
        solo.cnot_cost
    );
    assert_eq!(stats.solver_runs, 1, "one solve for eight requests");
    assert_eq!(stats.deduped + stats.cache_hits, 7);
    assert_eq!(
        stats.deduped, attached,
        "DedupAttach provenance must match the deduped counter"
    );
    assert_eq!(stats.completed, 8);
}

#[test]
fn edf_serves_urgent_requests_before_lax_ones_in_a_drain() {
    // Single worker still busy with a slow solve while five deadlined
    // requests pile up; the drain that picks them up must serve them in
    // deadline order. We verify through completion order via per-request
    // completion timestamps.
    let service = service_with(32, 1, 16);
    let slow = Workload::RandomDense { n: 4, seed: 33 }
        .instantiate()
        .unwrap();
    let _warm = service.submit(request(&slow)).handle().expect("accepted");
    let now = Instant::now();
    let far = service
        .submit(request(&generators::ghz(4).unwrap()).with_deadline(now + Duration::from_secs(500)))
        .handle()
        .expect("accepted");
    let near = service
        .submit(
            request(&generators::w_state(4).unwrap()).with_deadline(now + Duration::from_secs(100)),
        )
        .handle()
        .expect("accepted");
    let nearest = service
        .submit(
            request(&generators::dicke(4, 2).unwrap()).with_deadline(now + Duration::from_secs(50)),
        )
        .handle()
        .expect("accepted");
    service.shutdown(Shutdown::Drain);
    // All completed (deadlines were far in the future)...
    for handle in [&far, &near, &nearest] {
        assert!(handle.wait_timeout(HANG).expect("no hang").is_completed());
    }
    // ...and the EDF contract is covered deterministically by the queue's
    // unit tests; here we only require that nothing expired.
    let stats = service.stats();
    assert_eq!(stats.expired, 0);
}

#[test]
fn dedup_off_solves_every_request_independently() {
    // `CachePolicy::Bypass` is the way to opt out of dedup: each request is
    // solved on its own, with no cache probe, in-flight attach or publish.
    let service = SynthesisService::start(
        ServiceConfig::default()
            .with_queue_capacity(16)
            .with_scheduler(
                SchedulerConfig::default()
                    .with_max_batch(4)
                    .with_max_wait(Duration::from_millis(1))
                    .with_workers(2),
            ),
    );
    let handles: Vec<_> = (0..3)
        .map(|_| {
            service
                .submit(
                    request(&generators::ghz(4).unwrap())
                        .with_cache_policy(qsp_core::CachePolicy::Bypass),
                )
                .handle()
                .expect("accepted")
        })
        .collect();
    for handle in &handles {
        assert!(handle.wait_timeout(HANG).expect("no hang").is_completed());
    }
    let stats = service.shutdown(Shutdown::Drain);
    assert_eq!(stats.solver_runs, 3);
    assert_eq!(stats.deduped + stats.cache_hits, 0);
    assert_eq!(service.engine().cache_len(), 0);
}

#[test]
fn invalid_targets_fail_without_poisoning_the_service() {
    use qsp_state::BasisIndex;
    let service = service_with(8, 1, 4);
    let negative =
        SparseState::from_amplitudes(2, [(BasisIndex::new(0), 0.6), (BasisIndex::new(3), -0.8)])
            .unwrap();
    let bad = service
        .submit(request(&negative))
        .handle()
        .expect("accepted");
    let good = service
        .submit(request(&generators::ghz(3).unwrap()))
        .handle()
        .expect("accepted");
    assert!(matches!(
        bad.wait_timeout(HANG).expect("no hang"),
        Response::Failed(_)
    ));
    assert!(good.wait_timeout(HANG).expect("no hang").is_completed());
    let stats = service.shutdown(Shutdown::Drain);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn stats_json_round_trips_through_the_shared_parser() {
    let service = service_with(8, 1, 4);
    let handle = service
        .submit(request(&generators::ghz(4).unwrap()))
        .handle()
        .expect("accepted");
    handle.wait_timeout(HANG).expect("no hang");
    let stats = service.shutdown(Shutdown::Drain);
    let parsed = qsp_core::json::parse(&stats.to_json_string()).expect("valid JSON");
    assert_eq!(parsed.get("completed").unwrap().as_u64(), Some(1));
    assert_eq!(parsed.get("solver_runs").unwrap().as_u64(), Some(1));
    assert!(parsed.get("end_to_end").unwrap().get("p99_ms").is_some());
}
