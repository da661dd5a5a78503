//! The benchmark's library: seeded inputs, the three workloads, output
//! checks and the outside-in layer trace. `src/main.rs` is the command
//! line; `tests/` exercises the pieces that must stay exact.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub mod exact_corpus;
pub mod inputs;
pub mod qasm_read;
pub mod serve_wire;
pub mod sparse_stream;
pub mod stats;
pub mod trace;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["exact_corpus", "sparse_stream", "serve_wire"];

/// End-to-end metrics with their units (printed with `--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_tps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cnot_total", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics with their units (printed with `--trace 1`). Counts
/// are per pass of the workload's inputs (per round for serve_wire). A
/// layer a workload never calls reads zero there.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("search.expanded", "count"),
    ("search.pushed", "count"),
    ("search.ns_per_expansion", "ns"),
    ("search.frontier_peak", "count"),
    ("search.wasted_expansions", "count"),
    ("search.share", "ratio"),
    ("search.calls", "count"),
    ("search.us_per_call", "us"),
    ("reduce.us_per_target", "us"),
    ("nflow.us_per_target", "us"),
    ("guard.us_per_target", "us"),
    ("workflow.self_us", "us"),
    ("keying.sig.us_p50", "us"),
    ("keying.sig.us_p95", "us"),
    ("keying.full.us_p50", "us"),
    ("keying.full.us_p95", "us"),
    ("keying.sig_share", "ratio"),
    ("cache.probe_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.entries", "count"),
    ("template.hit_ratio", "ratio"),
    ("snapshot.load_ms", "ms"),
    ("batch.overhead_us_per_target", "us"),
    ("reconstruct.us", "us"),
    ("qasm.us_per_response", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.rss_kb_per_request", "KB"),
    ("wire.threads_peak", "count"),
    ("serve.overhead_us_per_request", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.solver_runs", "count"),
    ("serve.template_hits", "count"),
    ("trace.throughput_tps", "1/s"),
    ("trace.busy_share", "ratio"),
];

/// Set-ups timed before every pass of the in-process workloads. Spreading
/// the samples over the run keeps a short burst of host noise from moving
/// their median, which is reported as `setup_s`.
pub const SETUP_REPS_PER_PASS: usize = 3;

/// Time the calibration kernel takes on the reference host (2 vCPUs,
/// Intel Xeon at 2.0 GHz) in a quiet phase.
pub const KERNEL_NOMINAL_S: f64 = 0.1;

/// Host-speed calibration of the compute-bound workloads.
///
/// The reference host drifts by as much as 60% over a few minutes; the exact A*
/// search and the keying pipeline slow down and speed up with it, so runs
/// of identical code minutes apart disagree far beyond any useful bound. A
/// fixed, allocation-heavy kernel that uses only the standard library (so
/// no change to the program can speed it up) is timed before every pass;
/// the median of those times over the run, against [`KERNEL_NOMINAL_S`],
/// rescales the run's timings to the reference host's quiet speed. Over a
/// drifting stretch, the mean exact_corpus pass time moved 41% while its
/// ratio to the mean kernel time stayed within 1%.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Times the kernel once.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut heap = std::collections::BinaryHeap::new();
        let mut acc = 0u64;
        for i in 0..150_000u64 {
            let key = next() >> 24;
            map.insert(key, vec![i; (key % 7) as usize + 1]);
            heap.push((key >> 3, i));
            if i % 3 == 0 {
                if let Some((a, b)) = heap.pop() {
                    acc = acc.wrapping_add(a ^ b);
                }
            }
            if let Some((_, v)) = map.range(key / 2..).next() {
                acc = acc.wrapping_add(v.len() as u64);
            }
        }
        std::hint::black_box((acc, &map));
        self.samples.push(start.elapsed().as_secs_f64());
    }

    /// How much slower this run's host was than the reference host: the
    /// median kernel time over [`KERNEL_NOMINAL_S`]. Multiply rates by it,
    /// divide times by it.
    pub fn factor(&self) -> f64 {
        let factor = stats::median(&self.samples) / KERNEL_NOMINAL_S;
        println!(
            "host calibration: kernel median {:.1} ms over {} samples, factor {factor:.4}",
            stats::median(&self.samples) * 1e3,
            self.samples.len()
        );
        factor
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced mode (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

impl RunArgs {
    /// The measured-phase duration.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that errored or whose output failed a check.
    pub failed: u64,
    /// Metric values by name (units come from the catalogues).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the selected catalogue. A metric the
    /// run did not produce, or a non-finite value, makes the line
    /// incorrect rather than invalid JSON.
    pub fn to_json(&self, trace: bool) -> String {
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut complete = true;
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) if v.is_finite() => *v,
                    _ => {
                        complete = false;
                        0.0
                    }
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = complete && self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Times `setup` [`SETUP_REPS_PER_PASS`] times into `samples` (seconds).
pub fn time_setups<T>(samples: &mut Vec<f64>, mut setup: impl FnMut() -> T) {
    for _ in 0..SETUP_REPS_PER_PASS {
        let start = Instant::now();
        std::hint::black_box(setup());
        samples.push(start.elapsed().as_secs_f64());
    }
}

/// The median over passes of operations per second, where every pass ran
/// `ops` operations in its wall time. The median keeps a burst of host
/// noise in one pass from moving the result.
pub fn median_rate(ops: usize, walls: &[Duration]) -> f64 {
    let rates: Vec<f64> = walls
        .iter()
        .map(|wall| ops as f64 / wall.as_secs_f64())
        .collect();
    stats::median(&rates)
}

/// Prints a summary of the set-up samples and returns their median.
pub fn report_setup(samples: &[f64]) -> f64 {
    let median = stats::median(samples);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0, f64::max);
    println!(
        "setup: {} samples, median {:.3} ms (min {:.3}, max {:.3})",
        samples.len(),
        median * 1e3,
        min * 1e3,
        max * 1e3
    );
    median
}

/// Latency metrics from per-operation samples in milliseconds, each
/// divided by the host calibration `factor` (1 for no calibration),
/// printing which percentile the tail is and how many samples it rests on.
pub fn latency_metrics(samples_ms: &[f64], factor: f64, out: &mut BTreeMap<&'static str, f64>) {
    if samples_ms.is_empty() {
        return;
    }
    let mut sorted: Vec<f64> = samples_ms.iter().map(|ms| ms / factor).collect();
    sorted.sort_by(f64::total_cmp);
    let (p, tail) = stats::tail(&sorted);
    println!(
        "latency: {} samples, p50 {:.3} ms, tail p{p} {:.3} ms ({} samples beyond)",
        sorted.len(),
        stats::percentile(&sorted, 50.0),
        tail,
        stats::samples_beyond(sorted.len(), p)
    );
    out.insert("latency_p50_ms", stats::percentile(&sorted, 50.0));
    out.insert("latency_tail_ms", tail);
}

/// A batch engine as every workload runs it: the default workflow,
/// canonical dedup and one worker thread.
pub fn engine() -> qsp_core::BatchSynthesizer {
    qsp_core::BatchSynthesizer::with_options(
        qsp_core::WorkflowConfig::default(),
        qsp_core::BatchOptions::default().with_threads(1),
    )
}

/// Whether `circuit` prepares `target`, by dense state-vector simulation.
pub fn prepares(circuit: &qsp_circuit::Circuit, target: &qsp_state::SparseState) -> bool {
    qsp_sim::verify_preparation(circuit, target).is_ok_and(|r| r.is_correct())
}
