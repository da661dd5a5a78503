//! Order statistics, the tail-percentile rule, process counters read from
//! `/proc`, and the metric-name grammar the result line must satisfy.

/// Percentiles the tail rule chooses among, highest first. The ladder is
/// coarse on purpose: each workload's sample count sits well inside one
/// rung (exact_corpus a few hundred, sparse_stream a few thousand,
/// serve_wire tens of thousands), so the reported percentile does not flip
/// between runs that complete one pass more or less.
pub const TAIL_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a percentile for it to be reported
/// as the tail.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile of `sorted` (ascending) by the nearest-rank rule:
/// the smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(len: usize, p: f64) -> usize {
    len - rank(len, p)
}

/// The 1-based nearest rank of the `p`-th percentile among `len` samples,
/// computed in whole thousandths so that e.g. p99.9 of 10 000 samples is
/// exactly rank 9 990.
fn rank(len: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (len * per_mille).div_ceil(1000).clamp(1, len.max(1))
}

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_PERCENTILES`] with at least [`MIN_SAMPLES_BEYOND`] samples beyond
/// it, as `(percentile, value)`. A sample too small for any of them reports
/// its median.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let p = TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| samples_beyond(sorted.len(), p) >= MIN_SAMPLES_BEYOND)
        .unwrap_or(50.0);
    (p, percentile(sorted, p))
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so spreads printed here match the acceptance rule.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let m = n as f64 + 1.0;
    let at = |i: f64| -> f64 {
        let j = ((i * m / 4.0).floor() as usize).clamp(1, n - 1);
        let delta = i * m / 4.0 - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    (at(1.0), at(3.0))
}

/// Reads one `kB` field (e.g. `VmHWM`) of `/proc/self/status`.
pub fn status_kb(field: &str) -> Option<u64> {
    status_value(field)?.split_whitespace().next()?.parse().ok()
}

/// The live thread count of this process.
pub fn thread_count() -> Option<u64> {
    status_value("Threads")?.trim().parse().ok()
}

fn status_value(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        (name == field).then(|| value.trim().to_string())
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Aggregate CPU jiffies `(steal, total)` from the first line of
/// `/proc/stat`; the difference of two readings gives the host steal share.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user/nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
