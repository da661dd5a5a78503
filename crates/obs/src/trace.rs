//! Per-request tracing: trace ids, stage spans and the lock-free trace ring.
//!
//! Every synthesis request is assigned a [`TraceId`] at admission. As the
//! request moves through the pipeline, each stage
//! (queue wait → validate → key → cache probe → solve → reconstruct, the
//! [`SpanKind`] taxonomy) is timed into a [`SpanTiming`], and the assembled
//! [`RequestTrace`] rides back to the caller on its
//! `SynthesisReport` — fine-grained per-stage latency for *every* request,
//! not just sampled ones.
//!
//! Independently, a head-sampled subset of traces is copied into the
//! process-wide [`TraceRing`]: a fixed-capacity, lock-free ring of seqlock
//! slots that overwrites oldest-first and can be drained at any time
//! ([`TraceRing::read`]) without stopping writers. The sampling decision is
//! made once per request from its id ([`Tracer::should_record`]), so a
//! request is either fully in the ring or not at all (head sampling).
//!
//! Cost discipline: with tracing disabled, [`Tracer::should_record`] is a
//! single relaxed atomic load; with it enabled, each recorded span is one
//! `fetch_add` ticket plus five relaxed stores and two release/acquire
//! fences on its slot. Writers never block — a writer that loses its slot
//! to a full-lap race drops the span and counts it instead.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crate::json::Value;

/// A process-unique request trace identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

impl TraceId {
    /// The next process-unique id (a relaxed counter starting at 1).
    pub fn next() -> TraceId {
        TraceId(NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// Rebuilds an id from its raw value (tests, deserialization).
    pub fn from_raw(raw: u64) -> TraceId {
        TraceId(raw)
    }

    /// The raw id value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// The pipeline stage a span measures.
///
/// The six kinds partition a request's end-to-end latency on the serve
/// path; on the batch engine's request paths only `Key`/`Solve`/
/// `Reconstruct` occur, as stage durations laid end to end. For a request
/// served by dedup attach or a cache hit, `Solve` measures the time spent
/// *waiting* on the owning solve (zero for a pure cache hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// From submission until a worker drained the request.
    QueueWait,
    /// Deadline/admission checks and option resolution.
    Validate,
    /// Canonical keying through the invariant pipeline.
    Key,
    /// Cache and in-flight-table probe.
    CacheProbe,
    /// The solve itself, or the wait for the owning solve.
    Solve,
    /// Mapping the class representative's circuit back through the witness
    /// transform.
    Reconstruct,
}

impl SpanKind {
    /// All kinds, in pipeline order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::QueueWait,
        SpanKind::Validate,
        SpanKind::Key,
        SpanKind::CacheProbe,
        SpanKind::Solve,
        SpanKind::Reconstruct,
    ];

    /// The stable snake_case name used in JSON dumps.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Validate => "validate",
            SpanKind::Key => "key",
            SpanKind::CacheProbe => "cache_probe",
            SpanKind::Solve => "solve",
            SpanKind::Reconstruct => "reconstruct",
        }
    }

    fn as_u64(self) -> u64 {
        match self {
            SpanKind::QueueWait => 0,
            SpanKind::Validate => 1,
            SpanKind::Key => 2,
            SpanKind::CacheProbe => 3,
            SpanKind::Solve => 4,
            SpanKind::Reconstruct => 5,
        }
    }

    fn from_u64(raw: u64) -> Option<SpanKind> {
        SpanKind::ALL.get(raw as usize).copied()
    }
}

/// One timed stage of one request. `start` is relative to the request's own
/// submission instant, so a trace's spans reconstruct its timeline without
/// any global clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTiming {
    /// The stage measured.
    pub kind: SpanKind,
    /// Offset from the request's submission to the stage start.
    pub start: Duration,
    /// How long the stage took.
    pub duration: Duration,
}

impl SpanTiming {
    /// The span as JSON (`kind`, `start_ns`, `duration_ns`).
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("kind".to_string(), Value::Str(self.kind.name().to_string())),
            (
                "start_ns".to_string(),
                Value::Num(self.start.as_nanos() as u64),
            ),
            (
                "duration_ns".to_string(),
                Value::Num(self.duration.as_nanos() as u64),
            ),
        ])
    }
}

/// A request's assembled span tree: its id plus one span per traversed
/// stage, in pipeline order. Carried on the request's `SynthesisReport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request's trace id.
    pub id: TraceId,
    /// The per-stage spans, in pipeline order.
    pub spans: Vec<SpanTiming>,
}

impl RequestTrace {
    /// An empty trace for `id`.
    pub fn new(id: TraceId) -> Self {
        RequestTrace {
            id,
            spans: Vec::new(),
        }
    }

    /// Appends a span.
    pub fn push(&mut self, kind: SpanKind, start: Duration, duration: Duration) {
        self.spans.push(SpanTiming {
            kind,
            start,
            duration,
        });
    }

    /// The duration of the first span of `kind`, if present.
    pub fn duration_of(&self, kind: SpanKind) -> Option<Duration> {
        self.spans
            .iter()
            .find(|s| s.kind == kind)
            .map(|s| s.duration)
    }

    /// The sum of all span durations — the portion of the end-to-end
    /// latency the trace accounts for.
    pub fn span_total(&self) -> Duration {
        self.spans.iter().map(|s| s.duration).sum()
    }

    /// The trace as JSON (`trace_id`, `spans`).
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("trace_id".to_string(), Value::Num(self.id.as_u64())),
            (
                "spans".to_string(),
                Value::Array(self.spans.iter().map(SpanTiming::to_json).collect()),
            ),
        ])
    }
}

/// One span drained from the ring, with its global write order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordedSpan {
    /// The global write ticket: monotone in record order across threads.
    pub order: u64,
    /// The owning request's trace id.
    pub trace: TraceId,
    /// The span payload.
    pub span: SpanTiming,
}

struct Slot {
    /// Seqlock sequence: even = stable, odd = a write is in progress.
    seq: AtomicU64,
    order: AtomicU64,
    trace_id: AtomicU64,
    kind: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            order: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            kind: AtomicU64::new(u64::MAX),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").finish_non_exhaustive()
    }
}

/// The fixed-capacity, lock-free span ring. See the [module docs](self).
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Slot]>,
    mask: usize,
    head: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring holding at least `capacity` spans (rounded up to a power of
    /// two; minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        TraceRing {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            mask: capacity - 1,
            head: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The (rounded) span capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans successfully written (including ones since overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans dropped because their slot was mid-write (a full-lap race).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes one span, overwriting the oldest when the ring is full.
    /// Never blocks: a writer that finds its slot locked by a racing
    /// full-lap writer drops the span instead.
    pub fn record(&self, trace: TraceId, span: SpanTiming) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & self.mask];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1
            || slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slot.order.store(ticket, Ordering::Relaxed);
        slot.trace_id.store(trace.as_u64(), Ordering::Relaxed);
        slot.kind.store(span.kind.as_u64(), Ordering::Relaxed);
        slot.start_ns
            .store(span.start.as_nanos() as u64, Ordering::Relaxed);
        slot.dur_ns
            .store(span.duration.as_nanos() as u64, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains a consistent copy of the ring, oldest span first. Slots whose
    /// writer is mid-flight are skipped rather than returned torn (each
    /// slot's seqlock is checked before and after the payload read).
    pub fn read(&self) -> Vec<RecordedSpan> {
        let mut spans = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before == 0 || seq_before & 1 == 1 {
                continue; // never written, or a write is in progress
            }
            let order = slot.order.load(Ordering::Relaxed);
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq_before {
                continue; // a writer raced the read; the payload may be torn
            }
            let Some(kind) = SpanKind::from_u64(kind) else {
                continue;
            };
            spans.push(RecordedSpan {
                order,
                trace: TraceId::from_raw(trace_id),
                span: SpanTiming {
                    kind,
                    start: Duration::from_nanos(start_ns),
                    duration: Duration::from_nanos(dur_ns),
                },
            });
        }
        spans.sort_by_key(|s| s.order);
        spans
    }
}

/// The head-sampling trace collector: an enable switch, a sampling modulus
/// and the shared [`TraceRing`].
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    sample_every: u64,
    ring: TraceRing,
}

impl Tracer {
    /// A tracer recording every `sample_every`-th trace id into a ring of
    /// `ring_capacity` spans. `sample_every == 0` disables sampling
    /// entirely (nothing ever reaches the ring).
    pub fn new(enabled: bool, sample_every: u64, ring_capacity: usize) -> Self {
        Tracer {
            enabled: AtomicBool::new(enabled),
            sample_every,
            ring: TraceRing::new(ring_capacity),
        }
    }

    /// Whether ring recording is on (one relaxed load — the whole cost of
    /// tracing when disabled).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips ring recording at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The sampling modulus.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// The head-sampling decision for a request: made once, from the id,
    /// so a trace is either fully recorded or not at all.
    pub fn should_record(&self, id: TraceId) -> bool {
        self.enabled() && self.sample_every != 0 && id.as_u64().is_multiple_of(self.sample_every)
    }

    /// Records every span of `trace` into the ring, if the trace is
    /// sampled. Returns whether it was.
    pub fn record_trace(&self, trace: &RequestTrace) -> bool {
        if !self.should_record(trace.id) {
            return false;
        }
        for span in &trace.spans {
            self.ring.record(trace.id, *span);
        }
        true
    }

    /// The underlying ring (for draining and stats).
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start_ns: u64, dur_ns: u64) -> SpanTiming {
        SpanTiming {
            kind,
            start: Duration::from_nanos(start_ns),
            duration: Duration::from_nanos(dur_ns),
        }
    }

    #[test]
    fn ring_round_trips_spans_in_order() {
        let ring = TraceRing::new(8);
        for i in 0..5u64 {
            ring.record(TraceId::from_raw(i + 1), span(SpanKind::Solve, i, i * 10));
        }
        let spans = ring.read();
        assert_eq!(spans.len(), 5);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 0);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.order, i as u64);
            assert_eq!(s.trace.as_u64(), i as u64 + 1);
            assert_eq!(s.span.duration, Duration::from_nanos(i as u64 * 10));
        }
    }

    #[test]
    fn capacity_eviction_drops_oldest_first() {
        let ring = TraceRing::new(4);
        for i in 0..11u64 {
            ring.record(TraceId::from_raw(i), span(SpanKind::Key, 0, i));
        }
        let spans = ring.read();
        assert_eq!(spans.len(), 4);
        // Exactly the newest `capacity` writes survive, oldest first.
        let orders: Vec<u64> = spans.iter().map(|s| s.order).collect();
        assert_eq!(orders, [7, 8, 9, 10]);
    }

    #[test]
    fn head_sampling_is_per_trace_and_cheap_when_disabled() {
        let tracer = Tracer::new(true, 4, 64);
        let mut recorded_ids = Vec::new();
        for id in 1..=20u64 {
            let mut trace = RequestTrace::new(TraceId::from_raw(id));
            trace.push(SpanKind::Key, Duration::ZERO, Duration::from_nanos(id));
            trace.push(SpanKind::Solve, Duration::ZERO, Duration::from_nanos(id));
            if tracer.record_trace(&trace) {
                recorded_ids.push(id);
            }
        }
        assert_eq!(recorded_ids, [4, 8, 12, 16, 20]);
        // Sampled traces land whole (head sampling): both spans per id.
        let spans = tracer.ring().read();
        assert_eq!(spans.len(), 10);
        for id in recorded_ids {
            assert_eq!(spans.iter().filter(|s| s.trace.as_u64() == id).count(), 2);
        }
        // Disabled: nothing records, and the check is one relaxed load.
        tracer.set_enabled(false);
        assert!(!tracer.should_record(TraceId::from_raw(4)));
        let mut trace = RequestTrace::new(TraceId::from_raw(8));
        trace.push(SpanKind::Key, Duration::ZERO, Duration::ZERO);
        assert!(!tracer.record_trace(&trace));
        assert_eq!(tracer.ring().recorded(), 10);
    }

    #[test]
    fn trace_json_names_the_taxonomy() {
        let mut trace = RequestTrace::new(TraceId::from_raw(9));
        for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
            trace.push(
                kind,
                Duration::from_nanos(i as u64 * 100),
                Duration::from_nanos(100),
            );
        }
        assert_eq!(trace.span_total(), Duration::from_nanos(600));
        assert_eq!(
            trace.duration_of(SpanKind::CacheProbe),
            Some(Duration::from_nanos(100))
        );
        let parsed = crate::json::parse(&trace.to_json().to_json()).unwrap();
        assert_eq!(parsed.get("trace_id").unwrap().as_u64(), Some(9));
        let spans = parsed.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].get("kind").unwrap().as_str(), Some("queue_wait"));
        assert_eq!(spans[5].get("kind").unwrap().as_str(), Some("reconstruct"));
    }
}
