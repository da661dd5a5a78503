//! The wire server's thread bound under a pipelined burst: one connection
//! carries 1,000 requests, all sent before any reply is read, and the
//! process never runs more threads than it did right after the handshake.
//! Replies are settled through completion hooks and written by the
//! connection's one writer thread, so no thread exists per request.
//!
//! This file holds a single test so that it runs in a process of its own,
//! where no other test's threads are counted.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use qsp_serve::{SchedulerConfig, ServiceConfig, Shutdown, SynthesisService};
use qsp_state::generators;
use qsp_wire::{ServerFrame, WireClient, WireConfig, WireServer};

const REQUESTS: usize = 1_000;

/// The process's current thread count, from `/proc/self/status`.
fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .expect("status reports a thread count")
}

#[test]
fn a_pipelined_burst_adds_no_threads() {
    let service = Arc::new(SynthesisService::start(
        ServiceConfig::default()
            .with_queue_capacity(REQUESTS)
            .with_scheduler(SchedulerConfig::default().with_workers(1)),
    ));
    let mut server =
        WireServer::bind("127.0.0.1:0", Arc::clone(&service), WireConfig::new()).unwrap();
    let mut client = WireClient::connect(server.local_addr(), None).unwrap();
    let baseline = threads();

    let targets = [
        generators::ghz(4).unwrap(),
        generators::w_state(4).unwrap(),
        generators::ghz(5).unwrap(),
        generators::w_state(3).unwrap(),
    ];
    for i in 0..REQUESTS {
        let id = client
            .send_request(&targets[i % targets.len()], None, None)
            .unwrap();
        assert_eq!(id, i as u64);
    }
    // Most of the burst is still queued or unwritten here.
    let mut peak = threads();

    let mut answered = vec![false; REQUESTS];
    for received in 1..=REQUESTS {
        let frame = client.recv().unwrap();
        assert!(
            matches!(frame, ServerFrame::Report { .. }),
            "every request completes, got {frame:?}"
        );
        let id = frame.request_id().expect("replies carry their id") as usize;
        assert!(!answered[id], "request {id} answered twice");
        answered[id] = true;
        if received % 50 == 0 {
            peak = peak.max(threads());
        }
    }
    assert!(answered.iter().all(|&a| a), "every id is answered");
    assert!(
        peak <= baseline,
        "thread count rose from {baseline} after the handshake to {peak} under the burst"
    );

    drop(client);
    server.shutdown();
    let stats = service.shutdown(Shutdown::Drain);
    assert_eq!(stats.completed, REQUESTS as u64);
}
