//! `serve_wire`: one `WireClient` connection over loopback TCP to a
//! one-worker `SynthesisService` warm-started from a hot-pool snapshot.
//! Closed loop with a fixed pipelined window: a new request is sent each
//! time a reply arrives. Every round starts a fresh service, so every round
//! serves the same stream from the same cache state, and one connection
//! carries exactly one round.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qsp_core::{BatchSynthesizer, EntryOrigin, KeyCoverage, SynthesisRequest};
use qsp_serve::{
    Response, SchedulerConfig, ServiceConfig, Shutdown, SpanKind, Submit, SynthesisService,
};
use qsp_state::SparseState;
use qsp_wire::{codec, ClientFrame, FrameDecoder, ServerFrame, WireClient, WireConfig, WireServer};

use crate::inputs::{self, Arm, ServeInputs};
use crate::qasm_read::read_qasm;
use crate::trace::{
    per, print_layers, replay_workflow, workflow_metrics, workflow_rows, Busy, KeyingLedger,
    WorkflowLedger,
};
use crate::{
    engine, latency_metrics, median_rate, prepares, report_setup, stats, RunArgs, RunResult,
};

/// Requests in flight on the connection: the service's default
/// `max_batch`.
pub const WINDOW: usize = 16;

/// A running server: the service, its wire front end and a connected,
/// handshaken client.
struct Server {
    service: Arc<SynthesisService>,
    wire: WireServer,
    client: WireClient,
}

impl Server {
    /// Service start, snapshot load, bind and handshake — the set-up the
    /// workload times. Returns the server and the snapshot load time.
    fn start(snapshot: &Path) -> (Server, Duration) {
        let engine = engine();
        let load = Instant::now();
        engine
            .load_cache_snapshot(snapshot)
            .expect("the snapshot written during input preparation loads");
        let load = load.elapsed();
        let service = Arc::new(SynthesisService::with_engine(
            engine,
            ServiceConfig::default().queue_capacity,
            SchedulerConfig::default().with_workers(1),
        ));
        let wire = WireServer::bind("127.0.0.1:0", Arc::clone(&service), WireConfig::new())
            .expect("bind a loopback port");
        let client = WireClient::connect(wire.local_addr(), None).expect("handshake");
        (
            Server {
                service,
                wire,
                client,
            },
            load,
        )
    }

    /// Closes the connection, then the listener, then drains the service.
    fn stop(self) {
        let Server {
            service,
            mut wire,
            client,
        } = self;
        drop(client);
        wire.shutdown();
        service.shutdown(Shutdown::Drain);
    }
}

/// What one round measured.
struct Round {
    /// Request phase wall time.
    wall: Duration,
    /// Per-request latency, send to reply.
    latencies: Vec<Duration>,
    /// Reply frames by request id.
    frames: Vec<Option<ServerFrame>>,
    /// Resident-set growth over the request phase, in KB (traced).
    rss_growth_kb: f64,
    /// Highest thread count seen during the request phase (traced).
    threads_peak: u64,
}

/// Sends the stream over the server's connection with [`WINDOW`] requests
/// in flight and collects every reply.
fn round(server: &mut Server, stream: &[(Arm, SparseState)], traced: bool) -> Round {
    let client = &mut server.client;
    let n = stream.len();
    let rss_before = if traced {
        stats::status_kb("VmRSS")
    } else {
        None
    };
    let mut threads_peak = 0;
    let mut sent_at = vec![Instant::now(); n];
    let mut latencies = vec![Duration::ZERO; n];
    let mut frames: Vec<Option<ServerFrame>> = vec![None; n];
    let start = Instant::now();
    let mut next = 0;
    let send = |client: &mut WireClient, next: &mut usize, sent_at: &mut [Instant]| {
        sent_at[*next] = Instant::now();
        client
            .send_request(&stream[*next].1, None, None)
            .expect("send request");
        *next += 1;
    };
    while next < WINDOW.min(n) {
        send(client, &mut next, &mut sent_at);
    }
    for received in 0..n {
        let frame = client.recv().expect("reply frame");
        let id = frame.request_id().expect("replies carry their id") as usize;
        latencies[id] = sent_at[id].elapsed();
        frames[id] = Some(frame);
        if next < n {
            send(client, &mut next, &mut sent_at);
        }
        if traced && received % 64 == 0 {
            threads_peak = threads_peak.max(stats::thread_count().unwrap_or(0));
        }
    }
    let wall = start.elapsed();
    let rss_growth_kb = match (rss_before, stats::status_kb("VmRSS")) {
        (Some(before), Some(after)) => after as f64 - before as f64,
        _ => 0.0,
    };
    if traced {
        threads_peak = threads_peak.max(stats::thread_count().unwrap_or(0));
    }
    Round {
        wall,
        latencies,
        frames,
        rss_growth_kb,
        threads_peak,
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Checks replies independently of the server: every reply must be a
/// report whose OpenQASM reads back, whose recounted CNOTs equal the
/// reported cost, and whose circuit prepares the request's target (each
/// distinct circuit-target pair is simulated once).
#[derive(Default)]
struct Checker {
    /// Verdicts by (QASM hash, target hash).
    verified: HashMap<(u64, u64), bool>,
}

impl Checker {
    /// Returns the recounted CNOTs of a correct reply, `None` otherwise.
    fn check(&mut self, frame: Option<&ServerFrame>, target: &SparseState) -> Option<usize> {
        let Some(ServerFrame::Report {
            cnot_cost, qasm, ..
        }) = frame
        else {
            return None;
        };
        let circuit = read_qasm(qasm).ok()?;
        let recount = circuit.cnot_cost();
        if recount as u64 != *cnot_cost {
            return None;
        }
        let mut bytes = Vec::new();
        inputs::state_bytes(target, &mut bytes);
        let ok = *self
            .verified
            .entry((hash_of(qasm), hash_of(&bytes)))
            .or_insert_with(|| prepares(&circuit, target));
        ok.then_some(recount)
    }
}

/// The snapshot file of this run, inside the benchmark's own directory.
fn snapshot_path(seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tmp")
        .join(format!("serve_wire-{seed}-{}.json", std::process::id()))
}

/// Solves the hot pool on a throwaway engine and writes the warm-start
/// snapshot.
fn write_snapshot(pool: &[SparseState], path: &Path) {
    let engine = engine();
    let requests: Vec<SynthesisRequest<SparseState>> =
        pool.iter().cloned().map(SynthesisRequest::new).collect();
    let outcome = engine.synthesize_requests(&requests);
    assert_eq!(outcome.stats.errors, 0, "the hot pool solves");
    std::fs::create_dir_all(path.parent().expect("snapshot dir")).expect("create snapshot dir");
    engine.save_cache_snapshot(path).expect("write snapshot");
}

/// Runs the workload: rounds on fresh servers until the budget of request
/// phase time is spent.
pub fn run(args: &RunArgs) -> RunResult {
    let ServeInputs { pool, stream } = inputs::serve_wire(args.seed);
    let snapshot = snapshot_path(args.seed);
    write_snapshot(&pool, &snapshot);
    let result = measure(args, &stream, &snapshot);
    let _ = std::fs::remove_file(&snapshot);
    result
}

fn measure(args: &RunArgs, stream: &[(Arm, SparseState)], snapshot: &Path) -> RunResult {
    let mut result = RunResult::default();
    let mut checker = Checker::default();
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut walls = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut rss_kb_per_request = Vec::new();
    let mut threads_peak = 0u64;
    let mut first: Option<(Vec<Option<usize>>, qsp_serve::ServiceStats, f64, f64)> = None;
    let mut labels: BTreeMap<String, usize> = BTreeMap::new();
    while walls.iter().sum::<Duration>() < args.budget() {
        let start = Instant::now();
        let (mut server, load) = Server::start(snapshot);
        setups.push(start.elapsed().as_secs_f64());
        loads.push(load.as_secs_f64() * 1e3);
        let round = round(&mut server, stream, args.trace);
        let service_stats = server.service.stats();
        let cache = server.service.engine().cache_stats();
        server.stop();

        walls.push(round.wall);
        latencies_ms.extend(round.latencies.iter().map(|d| d.as_secs_f64() * 1e3));
        rss_kb_per_request.push(round.rss_growth_kb / stream.len() as f64);
        threads_peak = threads_peak.max(round.threads_peak);
        result.attempted += stream.len() as u64;
        let costs: Vec<Option<usize>> = round
            .frames
            .iter()
            .zip(stream)
            .map(|(frame, (_, target))| checker.check(frame.as_ref(), target))
            .collect();
        result.failed += costs.iter().filter(|c| c.is_none()).count() as u64;
        if first.is_none() {
            for frame in round.frames.iter().flatten() {
                if let ServerFrame::Report { provenance, .. } = frame {
                    *labels.entry(provenance.clone()).or_default() += 1;
                }
            }
            let hit_ratio = per(cache.hits as f64, (cache.hits + cache.misses) as f64);
            first = Some((costs, service_stats, hit_ratio, cache.entries as f64));
        }
    }
    let measured: Duration = walls.iter().sum();
    println!(
        "serve_wire: {} requests x {} rounds in {:.3} s; replies by provenance {labels:?}",
        stream.len(),
        walls.len(),
        measured.as_secs_f64()
    );
    let throughput = median_rate(stream.len(), &walls);
    let setup_s = report_setup(&setups);
    let (costs, service_stats, hit_ratio, entries) = first.expect("at least one round");
    let m = &mut result.metrics;
    if args.trace {
        let wall_per_request = 1.0 / throughput;
        m.insert("trace.throughput_tps", throughput);
        m.insert("snapshot.load_ms", stats::median(&loads));
        m.insert(
            "wire.rss_kb_per_request",
            stats::median(&rss_kb_per_request),
        );
        m.insert("wire.threads_peak", threads_peak as f64);
        m.insert("serve.cache_hits", service_stats.cache_hits as f64);
        m.insert("serve.solver_runs", service_stats.solver_runs as f64);
        m.insert("serve.template_hits", service_stats.template_hits as f64);
        m.insert("cache.hit_ratio", hit_ratio);
        m.insert("cache.entries", entries);
        // The wire layer labels TemplateInstantiated reports `unknown`.
        let bell = stream.iter().filter(|(arm, _)| *arm == Arm::Bell).count();
        let template_replies = labels.get("unknown").copied().unwrap_or(0);
        m.insert(
            "template.hit_ratio",
            per(template_replies as f64, bell as f64),
        );
        replay(stream, &costs, snapshot, wall_per_request, m);
        queue_waits(stream, snapshot, m);
    } else {
        m.insert("throughput_tps", throughput);
        latency_metrics(&latencies_ms, 1.0, m);
        m.insert("cnot_total", costs.iter().flatten().sum::<usize>() as f64);
        m.insert("peak_rss_mb", stats::peak_rss_mb());
        m.insert("setup_s", setup_s);
    }
    result
}

/// Replays one round in-process through the wire protocol functions and
/// the engine's class seam, timing each layer, and charges the rest of the
/// networked per-request time to the serving layer.
fn replay(
    stream: &[(Arm, SparseState)],
    costs: &[Option<usize>],
    snapshot: &Path,
    wall_per_request_s: f64,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let engine = engine();
    engine
        .load_cache_snapshot(snapshot)
        .expect("snapshot loads");
    let max_frame = qsp_wire::DEFAULT_MAX_FRAME;
    let mut keying = KeyingLedger::default();
    let mut encode = Busy::default();
    let mut decode = Busy::default();
    let (mut probe, mut solve, mut reconstruct, mut qasm) = (
        Busy::default(),
        Busy::default(),
        Busy::default(),
        Busy::default(),
    );
    let mut solved: Vec<&SparseState> = Vec::new();
    let mut mismatches = 0usize;
    let mut wall = Duration::ZERO;
    for (id, (_, target)) in stream.iter().enumerate() {
        let start = Instant::now();
        let t = Instant::now();
        let request = ClientFrame::Request {
            id: id as u64,
            target: target.clone(),
            deadline_ms: None,
            priority: None,
        };
        let bytes = codec::encode_frame(&request.to_payload(), max_frame).expect("encode");
        encode.add(t.elapsed());
        let t = Instant::now();
        let mut decoder = FrameDecoder::new(max_frame);
        decoder.feed(&bytes);
        let payload = decoder
            .next_frame()
            .expect("frame")
            .expect("complete frame");
        let Ok(ClientFrame::Request { target, .. }) = ClientFrame::parse(&payload) else {
            panic!("request frame round-trips");
        };
        decode.add(t.elapsed());

        let t = Instant::now();
        let class = engine.canonical_class(&target).expect("valid target");
        keying.add(class.coverage == KeyCoverage::SignatureOnly, t.elapsed());
        let t = Instant::now();
        let hit = engine.lookup_class(&class.key);
        probe.add(t.elapsed());
        let (entry, provenance) = match hit {
            Some(entry) => (entry, "cache_hit"),
            None => {
                let t = Instant::now();
                let entry = engine.solve_class(&class.key, &class.transform, &target);
                solve.add(t.elapsed());
                let label = if entry.origin() == EntryOrigin::Template {
                    "unknown"
                } else {
                    solved.push(&stream[id].1);
                    "solved"
                };
                (entry, label)
            }
        };
        let t = Instant::now();
        let circuit = BatchSynthesizer::reconstruct_for(&entry, &class.transform).expect("circuit");
        reconstruct.add(t.elapsed());
        let t = Instant::now();
        let program = qsp_circuit::qasm::to_qasm(&circuit).expect("qasm");
        qasm.add(t.elapsed());

        let t = Instant::now();
        let report = ServerFrame::Report {
            id: id as u64,
            cnot_cost: circuit.cnot_cost() as u64,
            provenance: provenance.to_string(),
            total_ms: 0.0,
            qasm: program,
        };
        let bytes = codec::encode_frame(&report.to_payload(), max_frame).expect("encode");
        encode.add(t.elapsed());
        let t = Instant::now();
        let mut decoder = FrameDecoder::new(max_frame);
        decoder.feed(&bytes);
        let payload = decoder
            .next_frame()
            .expect("frame")
            .expect("complete frame");
        ServerFrame::parse(&payload).expect("report frame round-trips");
        decode.add(t.elapsed());
        wall += start.elapsed();
        mismatches += usize::from(Some(circuit.cnot_cost()) != costs[id]);
    }
    if mismatches > 0 {
        println!("trace: {mismatches} replayed requests differ from the served replies");
    }

    let search = *engine.config();
    let mut ledger = WorkflowLedger::default();
    for target in &solved {
        replay_workflow(target, search.search, &mut ledger);
    }
    let requests = stream.len() as f64;
    let networked = Duration::from_secs_f64(wall_per_request_s * requests);
    let layers = keying.busy()
        + encode.time
        + decode.time
        + probe.time
        + solve.time
        + reconstruct.time
        + qasm.time;
    let workflow_busy = workflow_metrics(
        &ledger,
        stream.len(),
        solved.len(),
        solve.time,
        networked,
        m,
    );
    keying.metrics(m);
    let share = |d: Duration| per(d.as_secs_f64(), networked.as_secs_f64());
    m.insert("cache.probe_us", probe.us_per_call());
    m.insert("reconstruct.us", reconstruct.us_per_call());
    m.insert("qasm.us_per_response", qasm.us_per_call());
    // Two frames (request and report) are encoded and decoded per request.
    m.insert("wire.encode_us", 2.0 * encode.us_per_call());
    m.insert("wire.decode_us", 2.0 * decode.us_per_call());
    m.insert(
        "serve.overhead_us_per_request",
        (networked.as_secs_f64() - layers.as_secs_f64()) * 1e6 / requests,
    );
    let busy = layers - solve.time + workflow_busy;
    m.insert("trace.busy_share", share(busy));
    println!(
        "in-process replay {:.1} requests/s; networked {:.1} requests/s",
        requests / wall.as_secs_f64(),
        1.0 / wall_per_request_s
    );
    let mut rows = vec![
        ("wire.encode", encode.calls, encode.time),
        ("wire.decode", decode.calls, decode.time),
        (
            "keying",
            (keying.sig_us.len() + keying.full_us.len()) as u64,
            keying.busy(),
        ),
        ("cache", probe.calls, probe.time),
        ("solve", solve.calls, solve.time),
        ("reconstruct", reconstruct.calls, reconstruct.time),
        ("qasm", qasm.calls, qasm.time),
    ];
    rows.extend(workflow_rows(&ledger));
    rows.push((
        "serve",
        stream.len() as u64,
        networked.saturating_sub(layers),
    ));
    print_layers(&rows, networked);
}

/// Serves one round in-process through `submit` and `wait` with the same
/// window and reads each request's queue wait from its report trace.
fn queue_waits(
    stream: &[(Arm, SparseState)],
    snapshot: &Path,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let engine = engine();
    engine
        .load_cache_snapshot(snapshot)
        .expect("snapshot loads");
    let service = SynthesisService::with_engine(
        engine,
        ServiceConfig::default().queue_capacity,
        SchedulerConfig::default().with_workers(1),
    );
    let mut pending = VecDeque::new();
    let mut waits_ms = Vec::with_capacity(stream.len());
    let collect = |handle: qsp_serve::RequestHandle, waits: &mut Vec<f64>| {
        if let Response::Completed(report) = handle.wait() {
            if let Some(wait) = report
                .trace
                .as_ref()
                .and_then(|t| t.duration_of(SpanKind::QueueWait))
            {
                waits.push(wait.as_secs_f64() * 1e3);
            }
        }
    };
    for (_, target) in stream {
        if pending.len() == WINDOW {
            collect(pending.pop_front().expect("window is full"), &mut waits_ms);
        }
        if let Submit::Accepted(handle) = service.submit(SynthesisRequest::new(target.clone())) {
            pending.push_back(handle);
        }
    }
    while let Some(handle) = pending.pop_front() {
        collect(handle, &mut waits_ms);
    }
    service.shutdown(Shutdown::Drain);
    if waits_ms.is_empty() {
        return;
    }
    waits_ms.sort_by(f64::total_cmp);
    m.insert(
        "serve.queue_wait_ms_p50",
        stats::percentile(&waits_ms, 50.0),
    );
    m.insert(
        "serve.queue_wait_ms_p99",
        stats::percentile(&waits_ms, 99.0),
    );
}
