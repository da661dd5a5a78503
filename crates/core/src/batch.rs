//! The parallel batch-synthesis engine.
//!
//! A production deployment does not prepare one state at a time: it receives
//! *many* targets, and a large fraction of them are equivalent to each other
//! under the zero-cost operations of Sec. V-B (qubit relabelling and Pauli-X
//! "negation" flips). [`BatchSynthesizer`] exploits both observations:
//!
//! * **Parallelism** — targets are fanned out over a scoped worker pool
//!   (`std::thread`; the offline build has no rayon, so the pool is a small
//!   work-stealing loop over an atomic index).
//! * **Canonical deduplication, tiered** — every target is reduced to an
//!   amplitude-aware canonical key together with the *witness transform*
//!   (qubit permutation + X-flip mask) that maps the target onto the
//!   canonical representative. Keying runs through the *tiered* fast path
//!   ([`qsp_state::pipeline::key_tiered`]): a per-engine signature interner
//!   resolves targets whose cheap stage-0 signature is either fresh or an
//!   exact repeat without ever enumerating permutations; only genuine
//!   signature collisions pay for full canonicalization. Targets sharing a
//!   key are solved **once**; every other member of the class gets its
//!   circuit reconstructed from the solved one by relabelling qubits and
//!   appending zero-CNOT-cost X gates, so the reconstructed circuit has
//!   exactly the same CNOT cost. The key also folds in the request's
//!   cost-relevant **options fingerprint**
//!   ([`crate::api::cost_fingerprint`]), so per-request solver overrides can
//!   never dedup across different effective configurations.
//! * **Support-pattern class templates** — a fresh solve whose circuit sits
//!   exactly on the entanglement lower bound donates its reduction *recipe*
//!   (gate structure without angles) to a per-support-class template store
//!   in the cache. A later target with the same support pattern but
//!   different amplitudes skips the A* search entirely: the recipe is
//!   replayed against its own amplitudes through the angle-replay stage
//!   (self-validating — a replay that does not reach the ground state falls
//!   back to a fresh solve), and the instantiation is accepted only when it
//!   also sits exactly on the bound, so its CNOT cost is bit-for-bit what a
//!   fresh solve would have produced. Such requests report
//!   [`Provenance::TemplateInstantiated`].
//! * **A sharded, eviction-aware cache** — solved classes live in a
//!   [`ShardedCache`]: N-way sharded by key hash
//!   (no global lock on the hot path), optionally size-bounded with LRU
//!   eviction, shared across worker threads *and* across batches, and
//!   persistable as a JSON warm-start snapshot for cross-process reuse
//!   ([`BatchSynthesizer::save_cache_snapshot`] /
//!   [`BatchSynthesizer::load_cache_snapshot`]). Per-request
//!   [`CachePolicy`] decides whether a request reads and/or publishes.
//!
//! Within one batch, followers of a canonical class resolve through the
//! representative solved *in that batch* rather than through the cache, so
//! eviction between the solve and assembly phases can never lose an entry a
//! result still needs.
//!
//! Determinism: a target that is solved fresh goes through the exact same
//! [`QspWorkflow`] as a sequential call, so its circuit is bit-identical to a
//! per-target run; a target that hits the cache with the *identical* state
//! reuses the stored circuit unchanged (the witness composition is the
//! identity).
//!
//! # Example
//!
//! ```
//! use qsp_core::api::{Provenance, SynthesisRequest};
//! use qsp_core::batch::BatchSynthesizer;
//! use qsp_state::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let requests = vec![
//!     SynthesisRequest::new(generators::ghz(4)?),
//!     SynthesisRequest::new(generators::w_state(4)?),
//!     SynthesisRequest::new(generators::ghz(4)?), // duplicate: solved once
//! ];
//! let engine = BatchSynthesizer::new();
//! let outcome = engine.synthesize_requests(&requests);
//! assert_eq!(outcome.stats.targets, 3);
//! assert_eq!(outcome.stats.solver_runs, 2);
//! assert_eq!(outcome.stats.cache_hits, 1);
//! let ghz = outcome.reports[0].as_ref().unwrap();
//! assert_eq!(ghz.cnot_cost, 3);
//! assert!(matches!(ghz.provenance, Provenance::Solved));
//! let duplicate = outcome.reports[2].as_ref().unwrap();
//! assert_eq!(duplicate.cnot_cost, 3);
//! assert!(matches!(
//!     duplicate.provenance,
//!     Provenance::ReconstructedFromBatchRep { .. }
//! ));
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qsp_circuit::Circuit;
use qsp_obs::{
    Counter, ObsHub, ObsOptions, RequestTrace, SearchProbe, SolveFlight, SpanKind, TraceId,
};
use qsp_state::pipeline::{self, KeyCoverage, PipelineOptions};
use qsp_state::{QuantumState, SparseState};

use crate::api::{
    CachePolicy, Provenance, RequestOptions, ResolvedConfig, StageTimings, SynthesisReport,
    SynthesisRequest, Synthesizer,
};
use crate::cache::{CacheEntry, CacheStats, CircuitTemplate, ClassKey, EntryOrigin, ShardedCache};
use crate::engine::{compact_state, permute_mask, reconstruct_circuit, StateTransform};
use crate::error::SynthesisError;
use crate::exact::replay_reduction;
use crate::search::config::CacheConfig;
use crate::workflow::{QspWorkflow, WorkflowConfig};

/// A target's canonical class as computed by the keying pipeline: the cache
/// key (signature + canonical entries + options fingerprint), the witness
/// transform mapping the target onto the key's entries, and the coverage
/// class of the search that produced it.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct KeyedClass {
    /// The canonical class key (what the cache and in-flight tables index
    /// on).
    pub key: ClassKey,
    /// The witness transform mapping *this target* onto the key's entries.
    pub transform: StateTransform,
    /// Which pipeline path produced the key (exhaustive / orbit-pruned /
    /// greedy) — the dedup-coverage observability signal.
    pub coverage: KeyCoverage,
}

/// Tunables of the batch engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct BatchOptions {
    /// Worker threads; `0` uses the machine's available parallelism.
    pub threads: usize,
    /// Sharding and eviction policy of the canonical cache.
    pub cache: CacheConfig,
    /// Budget on `(permutation, flip-mask)` candidates the canonical keying
    /// pipeline may enumerate per target before degrading to the greedy key.
    /// Permutations are enumerated within the per-qubit color *orbits*
    /// (`∏ |orbit|!` candidates instead of `n!`), with a lazy
    /// branch-and-bound over orbit blocks past the budget; a target that
    /// still exhausts it gets a deterministic greedy key — sound, but
    /// possibly solving equivalent wide targets separately (exact
    /// duplicates always hit), which [`BatchStats::keys_greedy`] counts.
    /// Keying must stay far cheaper than the solves it deduplicates; raise
    /// this for workloads dominated by wide, highly symmetric targets whose
    /// solves are expensive.
    pub orbit_node_budget: usize,
    /// Observability options of the engine's [`ObsHub`]: per-request ring
    /// tracing, the solver flight recorder and cache probe/evict timing are
    /// all opt-in here; the metrics registry is always on.
    pub obs: ObsOptions,
}

impl BatchOptions {
    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the cache sharding and eviction policy.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the keying pipeline's orbit node budget (`0` is clamped to `1`).
    pub fn with_orbit_node_budget(mut self, budget: usize) -> Self {
        self.orbit_node_budget = budget.max(1);
        self
    }

    /// Sets the observability options (tracing, flight recorder, timing
    /// detail) of the engine's [`ObsHub`].
    pub fn with_obs(mut self, obs: ObsOptions) -> Self {
        self.obs = obs;
        self
    }
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: 0,
            cache: CacheConfig::default(),
            orbit_node_budget: pipeline::DEFAULT_ORBIT_NODE_BUDGET,
            obs: ObsOptions::default(),
        }
    }
}

/// Aggregate statistics of one batch run.
///
/// These are *per-run* numbers; the same increments also flow into the
/// engine's cumulative [`ObsHub`] metrics registry (`batch.*` counters and
/// the per-width `batch.keying_latency` histograms), so a long-lived engine
/// keeps lifetime totals in [`BatchSynthesizer::obs`] while each run still
/// reports its own slice here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Number of targets submitted.
    pub targets: usize,
    /// Number of fresh solver (workflow) invocations — class
    /// representatives that actually ran the A* search. Representatives
    /// served by template instantiation are counted in
    /// [`BatchStats::template_hits`] instead.
    pub solver_runs: usize,
    /// Class representatives served by replaying a support-pattern class
    /// template with their own amplitudes instead of a fresh A* search.
    pub template_hits: usize,
    /// Number of targets served without a fresh solve (within-batch
    /// canonical duplicates plus hits from earlier batches or a loaded
    /// snapshot).
    pub cache_hits: usize,
    /// Number of targets that failed (conversion or synthesis error).
    pub errors: usize,
    /// Targets keyed over the *full* permutation × flip space (a single
    /// color orbit spanning the register, within budget).
    pub keys_exhaustive: usize,
    /// Targets keyed by the orbit-restricted enumeration (same class
    /// partition as exhaustive, exponentially less work).
    pub keys_orbit_pruned: usize,
    /// Targets that exceeded the orbit node budget (or the exact-flip
    /// cardinality bound) and fell back to the greedy key. A rising share
    /// means dedup coverage — not correctness — is degrading; raise
    /// [`BatchOptions::orbit_node_budget`] if these targets' solves are
    /// expensive.
    pub keys_greedy: usize,
    /// Targets keyed on the stage-0 signature alone by the tiered fast
    /// path: their signature was fresh to the engine's interner (or an
    /// exact raw repeat of an interned anchor), so no permutation
    /// enumeration ran at all. The partition is identical to full
    /// canonicalization — collisions always take the full tier.
    pub keys_sig_fast_path: usize,
    /// Worker threads the batch ran on: the configured (or auto-detected)
    /// pool width, capped at the target count — the parallelism the keying
    /// and assembly phases actually used (the solve phase may use fewer
    /// when deduplication leaves fewer representatives than workers).
    pub threads: usize,
    /// Wall-clock time of the whole batch call.
    pub elapsed: Duration,
    /// Time spent computing canonical keys (parallel phase 1).
    pub keying: Duration,
    /// Time spent planning solves against the cache (sequential phase 2).
    pub planning: Duration,
    /// Time spent in fresh workflow solves (parallel phase 3).
    pub solving: Duration,
    /// Time spent assembling per-target circuits (parallel phase 4).
    pub assembly: Duration,
}

/// The result of one batch run over typed requests: one provenance-rich
/// [`SynthesisReport`] per request, in submission order, plus aggregate
/// statistics.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RequestBatchOutcome {
    /// One report per submitted request, in order.
    pub reports: Vec<Result<SynthesisReport, SynthesisError>>,
    /// Aggregate statistics.
    pub stats: BatchStats,
}

/// One keyed request: the canonical class (key, witness, coverage), the
/// (possibly borrowed) sparse view the solver runs on, the effective
/// per-request configuration and the keying time.
struct Keyed<'a> {
    class: KeyedClass,
    sparse: Cow<'a, SparseState>,
    resolved: ResolvedConfig,
    keying: Duration,
}

/// How one request's circuit will be produced.
enum Plan {
    /// Solve it fresh (it is its class's representative, or the request
    /// bypasses the cache).
    Fresh,
    /// Reuse the in-batch representative at this index.
    Follow(usize),
    /// Reuse an entry found in the cross-batch cache during planning.
    Cached(Arc<CacheEntry>),
    /// Keying failed; the error is reported from the keyed slot.
    Invalid,
}

/// The outcome of probing the template layer for one class representative.
enum TemplateProbe {
    /// Nothing template-shaped to do: the request is not eligible, or the
    /// class already holds a template that cannot serve this member.
    Ineligible,
    /// Eligible but no template yet: solve fresh, then try to capture one
    /// under this support key and witness.
    Miss {
        skey: ClassKey,
        switness: StateTransform,
    },
    /// A template instantiated successfully — the finished circuit, ready
    /// to use in place of a solver run.
    Hit(Circuit),
}

/// Builds the raw `(index, amplitude bits)` fingerprint of a sparse state.
fn raw_entries(state: &SparseState) -> Vec<(u64, u64)> {
    state
        .iter()
        .map(|(index, amplitude)| (index.value(), amplitude.to_bits()))
        .collect()
}

/// Computes the canonical class of a state — key, witness transform and
/// coverage — through the *tiered* invariant pipeline: `keyer` interns
/// stage-0 signatures so unique-signature traffic keys without enumerating
/// permutations, and only signature collisions run full canonicalization
/// (the class partition is identical either way). `options_fp` is the
/// cost-relevant options fingerprint folded into the key (see
/// [`crate::api::cost_fingerprint`]).
fn canonicalize(
    state: &SparseState,
    options_fp: u64,
    orbit_node_budget: usize,
    keyer: &pipeline::SignatureInterner,
) -> KeyedClass {
    let n = state.num_qubits();
    let base = raw_entries(state);
    let options = PipelineOptions::layout_invariant().with_orbit_node_budget(orbit_node_budget);
    let pipeline_key = pipeline::key_tiered(n, &base, &options, keyer);
    KeyedClass {
        key: ClassKey::new(pipeline_key.signature, n, pipeline_key.entries, options_fp),
        transform: StateTransform {
            perm: pipeline_key.perm,
            mask: pipeline_key.mask,
        },
        coverage: pipeline_key.coverage,
    }
}

/// A minimal scoped-thread parallel map over `0..count` (the offline build
/// has no rayon): workers pull indices from an atomic counter and results
/// are reassembled in index order.
fn par_map<R, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    if threads == 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });
    let mut results: Vec<Option<R>> = (0..count).map(|_| None).collect();
    for (i, r) in chunks.into_iter().flatten() {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every index was processed"))
        .collect()
}

/// The parallel, deduplicating batch front door to the preparation workflow.
///
/// See the [module docs](self) for the architecture. The synthesizer is
/// cheap to clone; clones share the same cache.
#[derive(Debug, Clone)]
pub struct BatchSynthesizer {
    config: WorkflowConfig,
    options: BatchOptions,
    cache: Arc<ShardedCache>,
    obs: Arc<ObsHub>,
    /// Stage-0 signature interner of the tiered keying fast path. One
    /// interner per engine is sound because every canonical key the engine
    /// computes uses the same [`PipelineOptions`] (fixed by
    /// [`BatchOptions::orbit_node_budget`]); clones share it, like the
    /// cache, so a warm engine keys repeats on the signature alone.
    keyer: Arc<pipeline::SignatureInterner>,
    /// A *separate* interner for support-pattern (amplitude-blanked) class
    /// keys: blanked entries could collide with genuine basis-state
    /// amplitudes if they shared `keyer`'s buckets, which would split the
    /// canonical partition.
    support_keyer: Arc<pipeline::SignatureInterner>,
    /// Hot-path counter handles, resolved once at construction so the
    /// per-request and per-solve paths skip the registry's key hashing and
    /// shard locking. Handles share the registered atomics, so snapshots
    /// see every increment.
    hot: HotCounters,
}

/// The pre-resolved counter handles of [`BatchSynthesizer`]'s hot paths.
#[derive(Debug, Clone)]
struct HotCounters {
    targets: Counter,
    errors: Counter,
    solver_runs: Counter,
    cache_hits: Counter,
    template_hits: Counter,
}

impl HotCounters {
    fn new(obs: &ObsHub) -> Self {
        let metrics = obs.metrics();
        HotCounters {
            targets: metrics.counter("batch.targets", &[]),
            errors: metrics.counter("batch.errors", &[]),
            solver_runs: metrics.counter("batch.solver_runs", &[]),
            cache_hits: metrics.counter("batch.cache_hits", &[]),
            template_hits: metrics.counter("batch.template_hits", &[]),
        }
    }
}

impl Default for BatchSynthesizer {
    fn default() -> Self {
        Self::with_options(WorkflowConfig::default(), BatchOptions::default())
    }
}

impl BatchSynthesizer {
    /// Creates a batch synthesizer with the paper's workflow defaults and
    /// canonical deduplication.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a batch synthesizer with custom workflow and batch options
    /// (including the cache's sharding and eviction policy).
    pub fn with_options(config: WorkflowConfig, options: BatchOptions) -> Self {
        let obs = Arc::new(ObsHub::new(options.obs));
        let cache = Arc::new(ShardedCache::new(options.cache));
        if options.obs.timing_detail {
            cache.attach_obs(
                obs.metrics().histogram("cache.probe_latency", &[]),
                obs.metrics().histogram("cache.evict_latency", &[]),
            );
        }
        let hot = HotCounters::new(obs.as_ref());
        BatchSynthesizer {
            config,
            options,
            cache,
            obs,
            keyer: Arc::new(pipeline::SignatureInterner::new()),
            support_keyer: Arc::new(pipeline::SignatureInterner::new()),
            hot,
        }
    }

    /// The engine's observability hub, shared by clones of this synthesizer:
    /// the always-on metrics registry, the per-request [`qsp_obs::Tracer`]
    /// and the solver [`qsp_obs::FlightRecorder`]. Dump everything at once
    /// with [`qsp_obs::ObsHub::snapshot`].
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// The active batch options.
    pub fn options(&self) -> &BatchOptions {
        &self.options
    }

    /// The base workflow configuration requests are resolved against.
    pub fn config(&self) -> &WorkflowConfig {
        &self.config
    }

    /// The underlying sharded cache (shared by clones of this synthesizer).
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// Number of solved canonical classes currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// A snapshot of the cache's hit/miss/insert/evict counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every cached solution.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Persists the solved classes as a JSON warm-start snapshot. Returns
    /// the number of classes written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_cache_snapshot(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        self.cache.save_snapshot(path.as_ref())
    }

    /// Warm-starts the cache from a snapshot produced by
    /// [`BatchSynthesizer::save_cache_snapshot`]. The snapshot is merged
    /// into the (possibly non-empty) cache through the eviction-aware path,
    /// keeping the cheaper circuit when a class is present on both sides,
    /// and every cached key then becomes a keying anchor, so permuted or
    /// flipped variants of a loaded class hit it. Returns the number of
    /// classes adopted.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and rejects malformed snapshots.
    pub fn load_cache_snapshot(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        let adopted = self.cache.merge_snapshot(path.as_ref())?;
        self.seed_keyer_from_cache();
        Ok(adopted)
    }

    /// Adopts every canonical cache key as a signature-interner anchor, so
    /// traffic equivalent to snapshot-loaded classes keys on the tiered
    /// fast path (and still lands on the loaded entries: the fast-path key
    /// reproduces the anchor's exact entry vector). Signature-zero keys are
    /// identity keys from snapshots of engines that merged exact duplicates
    /// only; they are not pipeline keys and are skipped.
    fn seed_keyer_from_cache(&self) {
        self.cache.for_each_key(|key| {
            if key.signature != 0 {
                self.keyer
                    .adopt(key.num_qubits, key.signature, &key.entries);
            }
        });
    }

    fn thread_count(&self) -> usize {
        if self.options.threads > 0 {
            self.options.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Resolves per-request options against this engine's base workflow
    /// configuration, stamping the cost-relevant options fingerprint.
    pub fn resolve_options(&self, options: &RequestOptions) -> ResolvedConfig {
        options.resolve(&self.config)
    }

    /// The resolved form of an override-free request.
    fn default_resolved(&self) -> ResolvedConfig {
        self.resolve_options(&RequestOptions::default())
    }

    /// Computes the canonical class of a target under this engine's
    /// *default* options: the class key, the witness transform mapping the
    /// target onto the class fingerprint, and the keying coverage.
    ///
    /// This is the seam the serving layer's in-flight dedup is built on: two
    /// concurrent requests with equal keys can share one solve, and either
    /// request's circuit reconstructs the other's via
    /// [`BatchSynthesizer::reconstruct_for`]. For per-request overrides, use
    /// [`BatchSynthesizer::canonical_class_with`] — the key then carries the
    /// request's options fingerprint, so classes never mix configurations.
    ///
    /// # Errors
    ///
    /// Propagates the sparse-conversion error of unsupported targets.
    pub fn canonical_class<S: QuantumState>(
        &self,
        target: &S,
    ) -> Result<KeyedClass, SynthesisError> {
        self.canonical_class_with(target, &self.default_resolved())
    }

    /// [`BatchSynthesizer::canonical_class`] under an explicit resolved
    /// per-request configuration: the returned key folds in
    /// `resolved.fingerprint`, which is what makes per-request overrides
    /// dedup-sound.
    ///
    /// # Errors
    ///
    /// Propagates the sparse-conversion error of unsupported targets.
    pub fn canonical_class_with<S: QuantumState>(
        &self,
        target: &S,
        resolved: &ResolvedConfig,
    ) -> Result<KeyedClass, SynthesisError> {
        let sparse = target.as_sparse()?;
        Ok(canonicalize(
            sparse.as_ref(),
            resolved.fingerprint,
            self.options.orbit_node_budget,
            &self.keyer,
        ))
    }

    /// Looks up a solved class in the cross-batch cache. Counts a cache hit
    /// or miss. The key carries its options fingerprint, so a hit is always
    /// configuration-correct.
    pub fn lookup_class(&self, key: &ClassKey) -> Option<Arc<CacheEntry>> {
        self.cache.lookup(key)
    }

    /// Solves one class representative through the workflow under the
    /// engine's default configuration and publishes it to the cache. See
    /// [`BatchSynthesizer::solve_class_with`].
    pub fn solve_class(
        &self,
        key: &ClassKey,
        transform: &StateTransform,
        target: &SparseState,
    ) -> Arc<CacheEntry> {
        self.solve_class_with(key, transform, target, &self.default_resolved())
    }

    /// Solves one class representative through the workflow under an
    /// explicit resolved configuration. `transform` must be the witness
    /// returned by [`BatchSynthesizer::canonical_class_with`] for `target`
    /// under the same resolved config (the key's fingerprint and the solve's
    /// configuration must agree — that pairing is the dedup-soundness
    /// invariant). The entry is published to the cache only when the
    /// request's [`CachePolicy`] is [`CachePolicy::Use`]. A synthesis
    /// failure is cached too (so repeated bad requests fail fast) but is
    /// never persisted to snapshots.
    pub fn solve_class_with(
        &self,
        key: &ClassKey,
        transform: &StateTransform,
        target: &SparseState,
        resolved: &ResolvedConfig,
    ) -> Arc<CacheEntry> {
        let template_probe = self.probe_template(target, resolved);
        if let TemplateProbe::Hit(circuit) = template_probe {
            self.hot.template_hits.inc();
            let entry = Arc::new(CacheEntry {
                circuit: Ok(circuit),
                transform: transform.clone(),
                origin: EntryOrigin::Template,
            });
            if resolved.cache == CachePolicy::Use {
                self.cache.insert(key.clone(), Arc::clone(&entry));
            }
            return entry;
        }

        let workflow = QspWorkflow::with_config(resolved.workflow);
        let solved = if self.obs.flight().enabled() {
            // Flight-recorded solve: every A* worker of this class reports
            // into one shared probe, and the finished record is ranked by
            // duration in the recorder.
            let probe = SearchProbe::new();
            let solve_start = Instant::now();
            let solved = workflow.run_with_plan(target, Some(&probe));
            self.obs.flight().record(SolveFlight::from_probe(
                format!("n{}/sig{:016x}", target.num_qubits(), key.signature()),
                &probe,
                solve_start.elapsed(),
                solved.as_ref().ok().map(|(circuit, _)| circuit.cnot_cost()),
                resolved.workflow.search.strategy.resolved_workers(),
            ));
            solved
        } else {
            workflow.run_with_plan(target, None)
        };
        self.hot.solver_runs.inc();
        let (circuit, plan) = match solved {
            Ok((circuit, plan)) => (Ok(circuit), plan),
            Err(e) => (Err(e), None),
        };
        if let TemplateProbe::Miss { skey, switness } = template_probe {
            self.maybe_capture_template(skey, switness, &circuit, plan, target, resolved);
        }
        let entry = Arc::new(CacheEntry {
            circuit,
            transform: transform.clone(),
            origin: EntryOrigin::Fresh,
        });
        if resolved.cache == CachePolicy::Use {
            self.cache.insert(key.clone(), Arc::clone(&entry));
        }
        entry
    }

    /// Whether a target may interact with the template layer at all: a
    /// cache-visible policy, an exact-synthesis-shaped problem (that is what
    /// the captured reduction plans cover), and no negative amplitudes (the
    /// workflow rejects those before the solver, so a replay must never
    /// serve them).
    fn template_eligible(&self, target: &SparseState, resolved: &ResolvedConfig) -> bool {
        let active = (0..target.num_qubits())
            .filter(|&q| target.iter().any(|(index, _)| index.bit(q)))
            .count();
        resolved.cache != CachePolicy::Bypass
            && target.cardinality() <= resolved.workflow.search.max_cardinality
            && active <= resolved.workflow.search.max_qubits
            && target.iter().all(|(_, amplitude)| amplitude >= 0.0)
    }

    /// The support-pattern class of a target: its entries with every
    /// amplitude blanked to the same bit pattern, keyed through the tiered
    /// pipeline on the dedicated support interner. Two targets share a
    /// support class exactly when a qubit permutation + flip mask maps one
    /// support set onto the other — the condition under which one's
    /// reduction recipe can be replayed with the other's amplitudes.
    fn support_class(
        &self,
        target: &SparseState,
        resolved: &ResolvedConfig,
    ) -> (ClassKey, StateTransform) {
        let n = target.num_qubits();
        let blanked: Vec<(u64, u64)> = target
            .iter()
            .map(|(index, _)| (index.value(), 1.0f64.to_bits()))
            .collect();
        let options = PipelineOptions::layout_invariant()
            .with_orbit_node_budget(self.options.orbit_node_budget);
        let key = pipeline::key_tiered(n, &blanked, &options, &self.support_keyer);
        (
            ClassKey::new(key.signature, n, key.entries, resolved.fingerprint),
            StateTransform {
                perm: key.perm,
                mask: key.mask,
            },
        )
    }

    /// Probes the template layer for one class representative before its
    /// solve: either an instantiated circuit (skip the solver), the support
    /// key to capture under afterwards, or nothing template-shaped to do.
    fn probe_template(&self, target: &SparseState, resolved: &ResolvedConfig) -> TemplateProbe {
        if !self.template_eligible(target, resolved) {
            return TemplateProbe::Ineligible;
        }
        let (skey, switness) = self.support_class(target, resolved);
        match self.cache.lookup_template(&skey) {
            None => TemplateProbe::Miss { skey, switness },
            Some(template) => {
                match Self::instantiate_template(&template, &switness, target, resolved) {
                    Some(circuit) => TemplateProbe::Hit(circuit),
                    // The class already holds a template that cannot serve
                    // this member (replay failed or left the lower bound):
                    // solve fresh, and do not try to capture a second one.
                    None => TemplateProbe::Ineligible,
                }
            }
        }
    }

    /// Captures a support-class template from a fresh solve, gated on
    /// soundness: the request publishes to the cache, the solve produced a
    /// replayable reduction plan, and its circuit sits *exactly* on the
    /// entanglement lower bound — the one regime where a replayed structure
    /// provably costs the same as any member's fresh solve (nothing can beat
    /// the bound, and instantiation re-checks it per member). First capture
    /// wins; later ones are dropped by the store.
    fn maybe_capture_template(
        &self,
        skey: ClassKey,
        switness: StateTransform,
        circuit: &Result<Circuit, SynthesisError>,
        plan: Option<crate::engine::ReductionPlan>,
        target: &SparseState,
        resolved: &ResolvedConfig,
    ) {
        let (Ok(circuit), Some(plan)) = (circuit, plan) else {
            return;
        };
        if resolved.cache != CachePolicy::Use
            || circuit.cnot_cost() != qsp_state::cofactor::entanglement_lower_bound(target)
        {
            return;
        }
        self.cache.insert_template(
            skey,
            Arc::new(CircuitTemplate {
                ops: plan.ops,
                frame: plan.frame,
                active: plan.active,
                witness: switness,
            }),
        );
    }

    /// Instantiates a support-class template for `target`: transports the
    /// target's amplitudes into the capturing member's frame, replays the
    /// captured reduction (the angle-replay stage derives this member's own
    /// rotation angles and *validates* that the replay reaches the ground
    /// state), and maps the circuit back through the zero-cost witnesses.
    /// Returns `None` — caller falls back to a fresh solve — whenever the
    /// replay fails or the result does not sit exactly on the target's
    /// entanglement lower bound.
    fn instantiate_template(
        template: &CircuitTemplate,
        switness: &StateTransform,
        target: &SparseState,
        resolved: &ResolvedConfig,
    ) -> Option<Circuit> {
        let n = target.num_qubits();
        if template.witness.perm.len() != n || switness.perm.len() != n {
            return None;
        }
        // u = w_template⁻¹ ∘ w_target: both witnesses land on the same
        // support fingerprint, so `u` maps this target's support onto the
        // capturing member's register layout.
        let inv = StateTransform::inverse_perm(&template.witness.perm);
        let perm: Vec<usize> = (0..n).map(|j| switness.perm[inv[j]]).collect();
        let mask = permute_mask(switness.mask ^ template.witness.mask, &inv);
        let u = StateTransform { perm, mask };
        let moved = u.apply_to_state(target).ok()?;
        // `compact_state` silently drops bits outside the active register,
        // so refuse any support index that does not fit it.
        let active_mask = template
            .active
            .iter()
            .fold(0u64, |acc, &q| acc | (1u64 << q));
        if moved
            .iter()
            .any(|(index, _)| index.value() & !active_mask != 0)
        {
            return None;
        }
        let compact = compact_state(&moved, &template.active).ok()?;
        let framed = template.frame.apply_to_state(&compact).ok()?;
        let reduction = replay_reduction(&framed, &template.ops).ok()?;
        let variant_circuit = reduction.inverse();
        let identity = StateTransform::identity(compact.num_qubits());
        let compact_circuit =
            reconstruct_circuit(&variant_circuit, &identity, &template.frame).ok()?;
        let moved_circuit = compact_circuit.remap_qubits(&template.active, n).ok()?;
        let mut circuit =
            reconstruct_circuit(&moved_circuit, &StateTransform::identity(n), &u).ok()?;
        if resolved.workflow.optimize {
            let (optimized, _) = qsp_circuit::optimizer::optimize(&circuit);
            circuit = optimized;
        }
        if circuit.cnot_cost() != qsp_state::cofactor::entanglement_lower_bound(target) {
            return None;
        }
        Some(circuit)
    }

    /// Reconstructs the circuit for a target from a solved entry of the same
    /// canonical class: the solved circuit's qubits are relabelled and an X
    /// layer appended (both zero CNOT cost, so the CNOT cost is identical).
    /// `target_transform` must be the target's own witness from
    /// [`BatchSynthesizer::canonical_class`].
    ///
    /// # Errors
    ///
    /// Propagates the representative's synthesis error, if it failed.
    pub fn reconstruct_for(
        entry: &CacheEntry,
        target_transform: &StateTransform,
    ) -> Result<Circuit, SynthesisError> {
        match &entry.circuit {
            Err(e) => Err(e.clone()),
            Ok(circuit) => reconstruct_circuit(circuit, &entry.transform, target_transform),
        }
    }

    /// Synthesizes one typed request: a batch of one through the same
    /// key → plan → solve → reconstruct pipeline as
    /// [`BatchSynthesizer::synthesize_requests`], so the cache probe (per
    /// the request's [`CachePolicy`]), the witness reconstruction and the
    /// report's provenance, timings and trace are the batch path's.
    ///
    /// # Errors
    ///
    /// Propagates conversion and synthesis errors.
    pub fn synthesize_request<S: QuantumState + Sync>(
        &self,
        request: &SynthesisRequest<S>,
    ) -> Result<SynthesisReport, SynthesisError> {
        self.run_requests(1, |_| (&request.target, &request.options))
            .reports
            .pop()
            .expect("a batch of one yields one report")
    }

    /// Records a group of same-width, same-coverage keying outcomes into the
    /// registry: the per-width keying latency histogram and the coverage
    /// counters (greedy fallbacks double as the orbit-budget exhaustion
    /// signal). One registry resolution per handle (each a label-keyed hash
    /// plus a shard lock) is amortized over every sample in the group,
    /// instead of three resolutions per request.
    fn record_keying_group(&self, width: usize, coverage: KeyCoverage, samples: &[Duration]) {
        let metrics = self.obs.metrics();
        let width = width.to_string();
        let latency = metrics.histogram("batch.keying_latency", &[("width", &width)]);
        for &sample in samples {
            latency.record(sample);
        }
        let coverage_counter = match coverage {
            KeyCoverage::Exhaustive => "batch.keys.exhaustive",
            KeyCoverage::OrbitPruned => "batch.keys.orbit_pruned",
            KeyCoverage::Greedy => "batch.keys.orbit_budget_exhausted",
            KeyCoverage::SignatureOnly => "batch.keys.sig_fast_path",
        };
        metrics
            .counter(coverage_counter, &[])
            .add(samples.len() as u64);
        // Per-width tier split: which widths resolve on the signature tier
        // and which pay for full canonicalization.
        let tier = match coverage {
            KeyCoverage::SignatureOnly => "sig",
            _ => "full",
        };
        metrics
            .counter("batch.keys.tier", &[("width", &width), ("tier", tier)])
            .add(samples.len() as u64);
    }

    /// Synthesizes a batch of typed requests, in parallel, solving each
    /// `(canonical class, options fingerprint)` pair once. Reports come back
    /// in submission order; a failing request yields an `Err` entry without
    /// affecting the others.
    pub fn synthesize_requests<S: QuantumState + Sync>(
        &self,
        requests: &[SynthesisRequest<S>],
    ) -> RequestBatchOutcome {
        self.run_requests(requests.len(), |i| {
            (&requests[i].target, &requests[i].options)
        })
    }

    /// The four-phase batch pipeline every request entry point shares.
    /// `get(i)` hands back the `i`-th target and its per-request options
    /// without forcing callers to materialize owned requests.
    fn run_requests<'a, S, F>(&self, count: usize, get: F) -> RequestBatchOutcome
    where
        S: QuantumState + Sync + 'a,
        F: Fn(usize) -> (&'a S, &'a RequestOptions) + Sync,
    {
        let start = Instant::now();
        let threads = self.thread_count().clamp(1, count.max(1));

        // Phase 1 (parallel): resolve per-request options, get a sparse view
        // (zero-copy for sparse backends) and compute fingerprinted
        // canonical keys.
        let keying_start = Instant::now();
        let keyed: Vec<Result<Keyed<'a>, SynthesisError>> = par_map(count, threads, |i| {
            let request_start = Instant::now();
            let (target, options) = get(i);
            let resolved = self.resolve_options(options);
            let sparse = target.as_sparse()?;
            let class = canonicalize(
                sparse.as_ref(),
                resolved.fingerprint,
                self.options.orbit_node_budget,
                &self.keyer,
            );
            Ok(Keyed {
                class,
                sparse,
                resolved,
                keying: request_start.elapsed(),
            })
        });
        let keying = keying_start.elapsed();

        // Keying-coverage tally: how many targets got exhaustive-quality
        // keys vs. the greedy fallback (the dedup-coverage signal). The
        // registry gets the same tally plus the per-width keying-latency
        // histograms.
        let mut keys_exhaustive = 0usize;
        let mut keys_orbit_pruned = 0usize;
        let mut keys_greedy = 0usize;
        let mut keys_sig_fast_path = 0usize;
        let mut keying_groups: Vec<(usize, KeyCoverage, Vec<Duration>)> = Vec::new();
        for entry in keyed.iter().flatten() {
            let width = entry.sparse.num_qubits();
            let coverage = entry.class.coverage;
            match keying_groups
                .iter_mut()
                .find(|(w, c, _)| *w == width && *c == coverage)
            {
                Some((_, _, samples)) => samples.push(entry.keying),
                None => keying_groups.push((width, coverage, vec![entry.keying])),
            }
            match coverage {
                KeyCoverage::Exhaustive => keys_exhaustive += 1,
                KeyCoverage::OrbitPruned => keys_orbit_pruned += 1,
                KeyCoverage::Greedy => keys_greedy += 1,
                KeyCoverage::SignatureOnly => keys_sig_fast_path += 1,
            }
        }
        for (width, coverage, samples) in keying_groups {
            self.record_keying_group(width, coverage, &samples);
        }

        // Phase 2 (sequential): plan which requests need a fresh solve. A
        // request that bypasses the cache is solved independently and never
        // joins a class. Cross-batch hits pin their entry here, so a bounded
        // cache can evict freely afterwards without losing them. Keys carry
        // the options fingerprint, so two requests only ever share a class
        // when their effective cost-relevant configurations are identical.
        let planning_start = Instant::now();
        let mut to_solve: Vec<usize> = Vec::new();
        let mut cache_hits = 0usize;
        let mut plans: Vec<Plan> = Vec::with_capacity(count);
        // Per-representative publish intent: a class is published if *any*
        // of its members asked for `CachePolicy::Use`, so a `ReadOnly`
        // representative cannot silently swallow a follower's publish.
        let mut publish_intent: HashMap<usize, bool> = HashMap::new();
        {
            let mut planned: HashMap<&ClassKey, usize> = HashMap::new();
            for (i, entry) in keyed.iter().enumerate() {
                let Ok(keyed_request) = entry else {
                    plans.push(Plan::Invalid);
                    continue;
                };
                let wants_publish = keyed_request.resolved.cache == CachePolicy::Use;
                if keyed_request.resolved.cache == CachePolicy::Bypass {
                    to_solve.push(i);
                    plans.push(Plan::Fresh);
                } else if let Some(&representative) = planned.get(&keyed_request.class.key) {
                    cache_hits += 1;
                    if wants_publish {
                        publish_intent.insert(representative, true);
                    }
                    plans.push(Plan::Follow(representative));
                } else if let Some(cached) = self.cache.lookup(&keyed_request.class.key) {
                    cache_hits += 1;
                    plans.push(Plan::Cached(cached));
                } else {
                    planned.insert(&keyed_request.class.key, i);
                    publish_intent.insert(i, wants_publish);
                    to_solve.push(i);
                    plans.push(Plan::Fresh);
                }
            }
        }
        let planning = planning_start.elapsed();

        // Phase 3 (parallel): solve one representative per class through the
        // canonical-class seam, publishing to the shared cache (per the
        // class's merged publish intent) as soon as each is ready. The
        // override only touches the publish decision — the report each
        // request gets back still carries its own resolved config.
        let solving_start = Instant::now();
        let solved: Vec<(usize, Arc<CacheEntry>, Duration)> =
            par_map(to_solve.len(), threads, |j| {
                let i = to_solve[j];
                let keyed_request = keyed[i].as_ref().expect("planned requests are valid");
                let mut solve_resolved = keyed_request.resolved;
                if publish_intent.get(&i).copied().unwrap_or(false) {
                    solve_resolved.cache = CachePolicy::Use;
                }
                let solve_start = Instant::now();
                let entry = self.solve_class_with(
                    &keyed_request.class.key,
                    &keyed_request.class.transform,
                    keyed_request.sparse.as_ref(),
                    &solve_resolved,
                );
                (i, entry, solve_start.elapsed())
            });
        let own_solution: HashMap<usize, (Arc<CacheEntry>, Duration)> = solved
            .into_iter()
            .map(|(i, entry, duration)| (i, (entry, duration)))
            .collect();
        let solving = solving_start.elapsed();
        // Representatives served by template instantiation never ran the
        // solver; the stats keep the two disjoint.
        let template_hits = own_solution
            .values()
            .filter(|(entry, _)| entry.origin() == EntryOrigin::Template)
            .count();
        let solver_runs = to_solve.len() - template_hits;

        // Phase 4 (parallel): assemble per-request reports. Freshly solved
        // requests take their own circuit; followers resolve through their
        // in-batch representative; cross-batch hits use the entry pinned at
        // planning time. No cache locks are taken here, and eviction cannot
        // invalidate any plan.
        let assembly_start = Instant::now();
        let reports: Vec<Result<SynthesisReport, SynthesisError>> =
            par_map(count, threads, |i| match &keyed[i] {
                Err(e) => Err(e.clone()),
                Ok(keyed_request) => {
                    let (entry, provenance, solve_time) = match &plans[i] {
                        Plan::Fresh => {
                            let (entry, duration) =
                                own_solution.get(&i).expect("fresh requests were solved");
                            let provenance = match entry.origin() {
                                EntryOrigin::Fresh => Provenance::Solved,
                                EntryOrigin::Template => Provenance::TemplateInstantiated {
                                    witness: keyed_request.class.transform.clone(),
                                },
                            };
                            (Arc::clone(entry), provenance, *duration)
                        }
                        Plan::Follow(representative) => {
                            let (entry, _) = own_solution
                                .get(representative)
                                .expect("representatives were solved");
                            (
                                Arc::clone(entry),
                                Provenance::ReconstructedFromBatchRep {
                                    witness: keyed_request.class.transform.clone(),
                                },
                                Duration::ZERO,
                            )
                        }
                        Plan::Cached(entry) => (
                            Arc::clone(entry),
                            Provenance::CacheHit {
                                witness: keyed_request.class.transform.clone(),
                            },
                            Duration::ZERO,
                        ),
                        Plan::Invalid => unreachable!("invalid requests are handled above"),
                    };
                    let reconstruct_start = Instant::now();
                    let circuit = Self::reconstruct_for(&entry, &keyed_request.class.transform)?;
                    let reconstruction = reconstruct_start.elapsed();
                    // Batch spans are stage durations laid end to end (the
                    // phases interleave requests, so per-request wall-clock
                    // offsets would overlap across the batch).
                    let mut trace = RequestTrace::new(TraceId::next());
                    trace.push(SpanKind::Key, Duration::ZERO, keyed_request.keying);
                    trace.push(SpanKind::Solve, keyed_request.keying, solve_time);
                    trace.push(
                        SpanKind::Reconstruct,
                        keyed_request.keying + solve_time,
                        reconstruction,
                    );
                    self.obs.tracer().record_trace(&trace);
                    Ok(SynthesisReport::new(
                        circuit,
                        provenance,
                        StageTimings::new(
                            keyed_request.keying,
                            solve_time,
                            reconstruction,
                            keyed_request.keying + solve_time + reconstruction,
                        ),
                        keyed_request.resolved,
                    )
                    .with_trace(trace))
                }
            });
        let assembly = assembly_start.elapsed();

        let errors = reports.iter().filter(|r| r.is_err()).count();
        self.hot.targets.add(count as u64);
        self.hot.cache_hits.add(cache_hits as u64);
        self.hot.errors.add(errors as u64);
        let stats = BatchStats {
            targets: count,
            solver_runs,
            template_hits,
            cache_hits,
            errors,
            keys_exhaustive,
            keys_orbit_pruned,
            keys_greedy,
            keys_sig_fast_path,
            threads,
            elapsed: start.elapsed(),
            keying,
            planning,
            solving,
            assembly,
        };
        RequestBatchOutcome { reports, stats }
    }
}

impl<S: QuantumState + Sync> Synthesizer<S> for BatchSynthesizer {
    fn synthesize(&self, request: &SynthesisRequest<S>) -> Result<SynthesisReport, SynthesisError> {
        self.synthesize_request(request)
    }

    fn synthesize_all(
        &self,
        requests: &[SynthesisRequest<S>],
    ) -> Vec<Result<SynthesisReport, SynthesisError>> {
        self.synthesize_requests(requests).reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsp_state::{generators, BasisIndex};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FP: u64 = 0xABCD;

    fn requests(targets: &[SparseState]) -> Vec<SynthesisRequest<SparseState>> {
        targets
            .iter()
            .map(|t| SynthesisRequest::new(t.clone()))
            .collect()
    }

    fn verify(circuit: &Circuit, target: &SparseState) {
        let report = qsp_sim::verify_preparation(circuit, target).expect("simulates");
        assert!(
            report.is_correct(),
            "batch circuit does not prepare the target (fidelity {})",
            report.fidelity
        );
    }

    #[test]
    fn transform_round_trips_indices() {
        let t = StateTransform {
            perm: vec![2, 0, 1, 3],
            mask: 0b0101,
        };
        let inv = StateTransform::inverse_perm(&t.perm);
        for index in 0u64..16 {
            let forward = t.apply(index);
            let back = BasisIndex::new(forward ^ t.mask).permute(&inv).value();
            assert_eq!(back, index);
        }
    }

    #[test]
    fn canonical_keys_identify_equivalent_states() {
        let ghz = generators::ghz(4).unwrap();
        // A permuted and flipped GHZ: |0101> + |1010>.
        let variant = ghz
            .permute_qubits(&[1, 0, 3, 2])
            .unwrap()
            .apply_x(0)
            .unwrap()
            .apply_x(2)
            .unwrap();
        let budget = pipeline::DEFAULT_ORBIT_NODE_BUDGET;
        let keyer = pipeline::SignatureInterner::new();
        let key_a = canonicalize(&ghz, FP, budget, &keyer);
        let key_b = canonicalize(&variant, FP, budget, &keyer);
        assert_eq!(key_a.key, key_b.key);
        assert_ne!(key_a.coverage, KeyCoverage::Greedy);
        // The first member of a class anchors its fresh signature; the
        // equivalent variant is a genuine collision and takes the full tier.
        assert_eq!(key_a.coverage, KeyCoverage::SignatureOnly);
        assert_ne!(key_b.coverage, KeyCoverage::SignatureOnly);
        // A genuinely different state gets a different canonical key — and
        // already a different Stage 0 signature, so the keys short-circuit
        // before the entry vectors are compared.
        let key_w = canonicalize(&generators::w_state(4).unwrap(), FP, budget, &keyer);
        assert_ne!(key_a.key, key_w.key);
        assert_ne!(key_a.key.signature(), key_w.key.signature());
        // The same state under a different options fingerprint is a
        // different class — the dedup-soundness invariant.
        let key_fp = canonicalize(&ghz, FP ^ 1, budget, &keyer);
        assert_ne!(key_a.key, key_fp.key);
    }

    #[test]
    fn reconstruction_prepares_the_equivalent_target() {
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..8 {
            let base = generators::random_uniform_state(4, 5, &mut rng).unwrap();
            let variant = base
                .permute_qubits(&[3, 1, 0, 2])
                .unwrap()
                .apply_x(1)
                .unwrap();
            let budget = pipeline::DEFAULT_ORBIT_NODE_BUDGET;
            let keyer = pipeline::SignatureInterner::new();
            let class_a = canonicalize(&base, FP, budget, &keyer);
            let class_b = canonicalize(&variant, FP, budget, &keyer);
            assert_eq!(class_a.key, class_b.key);
            let solved = QspWorkflow::new().run(&base).unwrap();
            verify(&solved, &base);
            let reconstructed =
                reconstruct_circuit(&solved, &class_a.transform, &class_b.transform).unwrap();
            verify(&reconstructed, &variant);
            assert_eq!(reconstructed.cnot_cost(), solved.cnot_cost());
        }
    }

    #[test]
    fn exact_duplicates_reuse_the_identical_circuit() {
        let targets = vec![
            generators::dicke(4, 2).unwrap(),
            generators::ghz(4).unwrap(),
            generators::dicke(4, 2).unwrap(),
        ];
        let engine = BatchSynthesizer::new();
        let outcome = engine.synthesize_requests(&requests(&targets));
        assert_eq!(outcome.stats.solver_runs, 2);
        assert_eq!(outcome.stats.cache_hits, 1);
        assert_eq!(outcome.stats.errors, 0);
        assert!(outcome.stats.threads >= 1);
        let first = &outcome.reports[0].as_ref().unwrap().circuit;
        let third = &outcome.reports[2].as_ref().unwrap().circuit;
        assert_eq!(
            first, third,
            "duplicate targets must get identical circuits"
        );
    }

    #[test]
    fn request_reports_carry_provenance_and_config() {
        let requests = vec![
            SynthesisRequest::new(generators::dicke(4, 2).unwrap()),
            SynthesisRequest::new(generators::ghz(4).unwrap()),
            SynthesisRequest::new(generators::dicke(4, 2).unwrap()),
        ];
        let engine = BatchSynthesizer::new();
        let outcome = engine.synthesize_requests(&requests);
        assert_eq!(outcome.stats.solver_runs, 2);
        let first = outcome.reports[0].as_ref().unwrap();
        assert!(matches!(first.provenance, Provenance::Solved));
        assert!(first.timings.solving > Duration::ZERO);
        assert_eq!(first.resolved.workflow, *engine.config());
        let duplicate = outcome.reports[2].as_ref().unwrap();
        assert!(matches!(
            duplicate.provenance,
            Provenance::ReconstructedFromBatchRep { .. }
        ));
        assert_eq!(duplicate.cnot_cost, first.cnot_cost);
        assert_eq!(duplicate.timings.solving, Duration::ZERO);
        // A later batch serves the same request from the cross-batch cache.
        let again = engine.synthesize_requests(&requests[..1]);
        let hit = again.reports[0].as_ref().unwrap();
        assert!(matches!(hit.provenance, Provenance::CacheHit { .. }));
        assert_eq!(hit.cnot_cost, first.cnot_cost);
        // The single-request seam agrees, with the batch trace layout.
        let single = engine.synthesize_request(&requests[1]).unwrap();
        assert!(matches!(single.provenance, Provenance::CacheHit { .. }));
        assert_eq!(single.cnot_cost, 3);
        let trace = single.trace.as_ref().expect("reports carry their trace");
        assert!(trace.duration_of(SpanKind::Key).is_some());
        assert!(trace.duration_of(SpanKind::Reconstruct).is_some());
        assert_eq!(trace.duration_of(SpanKind::CacheProbe), None);
    }

    #[test]
    fn per_request_cache_policies_are_honoured() {
        let ghz = generators::ghz(4).unwrap();
        let engine = BatchSynthesizer::new();

        // ReadOnly solves fresh (cold cache) but never publishes.
        let readonly = SynthesisRequest::new(ghz.clone()).with_cache_policy(CachePolicy::ReadOnly);
        let report = engine.synthesize_request(&readonly).unwrap();
        assert!(report.provenance.is_fresh_solve());
        assert_eq!(engine.cache_len(), 0, "ReadOnly must not publish");

        // Use publishes; a later ReadOnly request may then hit.
        let publish = SynthesisRequest::new(ghz.clone());
        assert!(engine
            .synthesize_request(&publish)
            .unwrap()
            .provenance
            .is_fresh_solve());
        assert_eq!(engine.cache_len(), 1);
        let warm = engine.synthesize_request(&readonly).unwrap();
        assert!(matches!(warm.provenance, Provenance::CacheHit { .. }));

        // Bypass ignores the warm cache entirely and never joins a class.
        let bypass = SynthesisRequest::new(ghz).with_cache_policy(CachePolicy::Bypass);
        let outcome = engine.synthesize_requests(&[bypass.clone(), bypass]);
        assert_eq!(outcome.stats.solver_runs, 2, "bypass must not dedup");
        assert_eq!(outcome.stats.cache_hits, 0);
        assert_eq!(engine.cache_len(), 1, "bypass must not publish");
    }

    #[test]
    fn a_use_follower_publishes_past_a_readonly_representative() {
        // Planning makes the ReadOnly request the class representative, but
        // the Use follower's publish intent must not be dropped: the class
        // publishes once the solve lands.
        let ghz = generators::ghz(4).unwrap();
        let engine = BatchSynthesizer::new();
        let outcome = engine.synthesize_requests(&[
            SynthesisRequest::new(ghz.clone()).with_cache_policy(CachePolicy::ReadOnly),
            SynthesisRequest::new(ghz.clone()),
        ]);
        assert_eq!(outcome.stats.solver_runs, 1);
        assert_eq!(engine.cache_len(), 1, "the Use member's publish must win");
        // The representative's own report still shows its ReadOnly policy.
        assert_eq!(
            outcome.reports[0].as_ref().unwrap().resolved.cache,
            CachePolicy::ReadOnly
        );
        // An all-ReadOnly class still never publishes.
        let readonly_engine = BatchSynthesizer::new();
        let readonly = SynthesisRequest::new(ghz).with_cache_policy(CachePolicy::ReadOnly);
        readonly_engine.synthesize_requests(&[readonly.clone(), readonly]);
        assert_eq!(readonly_engine.cache_len(), 0);
    }

    #[test]
    fn cache_persists_across_batches() {
        let engine = BatchSynthesizer::new();
        let targets = [generators::ghz(3).unwrap()];
        let first = engine.synthesize_requests(&requests(&targets));
        assert_eq!(first.stats.solver_runs, 1);
        assert_eq!(engine.cache_len(), 1);
        let second = engine.synthesize_requests(&requests(&targets));
        assert_eq!(second.stats.solver_runs, 0);
        assert_eq!(second.stats.cache_hits, 1);
        assert_eq!(
            first.reports[0].as_ref().unwrap().circuit,
            second.reports[0].as_ref().unwrap().circuit
        );
        // Store-level counters: one planning miss, one planning hit.
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        engine.clear_cache();
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn errors_are_per_target() {
        let negative = SparseState::from_amplitudes(
            2,
            [(BasisIndex::new(0), 0.6), (BasisIndex::new(3), -0.8)],
        )
        .unwrap();
        let targets = vec![generators::ghz(2).unwrap(), negative];
        let outcome = BatchSynthesizer::new().synthesize_requests(&requests(&targets));
        assert!(outcome.reports[0].is_ok());
        assert!(outcome.reports[1].is_err());
        assert_eq!(outcome.stats.errors, 1);
    }

    #[test]
    fn templates_instantiate_same_support_different_angles() {
        // a|00> + b|11> solves at its entanglement lower bound (one CNOT),
        // so the first solve donates its structure as a template.
        let first =
            SparseState::from_amplitudes(2, [(BasisIndex::new(0), 0.8), (BasisIndex::new(3), 0.6)])
                .unwrap();
        // Same support, different amplitude *multiset*: no permutation/flip
        // maps one onto the other, so canonical dedup cannot serve it — only
        // the template layer shares work here.
        let second = SparseState::from_amplitudes(
            2,
            [
                (BasisIndex::new(0), 0.1f64.sqrt()),
                (BasisIndex::new(3), 0.9f64.sqrt()),
            ],
        )
        .unwrap();
        let engine = BatchSynthesizer::new();
        let captured = engine
            .synthesize_request(&SynthesisRequest::new(first.clone()))
            .unwrap();
        assert!(matches!(captured.provenance, Provenance::Solved));
        assert_eq!(captured.cnot_cost, 1, "a|00> + b|11> sits on the bound");
        assert_eq!(
            engine.cache().template_count(),
            1,
            "a lower-bound solve captures its class template"
        );
        verify(&captured.circuit, &first);

        let outcome = engine.synthesize_requests(&[SynthesisRequest::new(second.clone())]);
        assert_eq!(outcome.stats.template_hits, 1);
        assert_eq!(outcome.stats.solver_runs, 0);
        let report = outcome.reports[0].as_ref().unwrap();
        assert!(matches!(
            report.provenance,
            Provenance::TemplateInstantiated { .. }
        ));
        verify(&report.circuit, &second);
        // Bit-for-bit the cost a fresh solve would report.
        let fresh = QspWorkflow::new().run(&second).unwrap();
        assert_eq!(report.cnot_cost, fresh.cnot_cost());
        // The instantiated class is a normal cache entry: an exact repeat
        // hits without touching the template layer again.
        let repeat = engine
            .synthesize_request(&SynthesisRequest::new(second))
            .unwrap();
        assert!(matches!(repeat.provenance, Provenance::CacheHit { .. }));
        // A negative-amplitude member of the support class must keep
        // failing: the template layer never serves what the workflow
        // rejects.
        let negative = SparseState::from_amplitudes(
            2,
            [(BasisIndex::new(0), 0.6), (BasisIndex::new(3), -0.8)],
        )
        .unwrap();
        assert!(engine
            .synthesize_request(&SynthesisRequest::new(negative))
            .is_err());
    }

    #[test]
    fn template_capture_respects_the_entanglement_gate() {
        // GHZ(4) costs 3 CNOTs against a lower bound of 2, so its solve must
        // NOT capture a template: replaying its structure for another
        // support-class member could not prove cost-identity with a fresh
        // solve.
        let engine = BatchSynthesizer::new();
        let ghz = engine
            .synthesize_request(&SynthesisRequest::new(generators::ghz(4).unwrap()))
            .unwrap();
        assert_eq!(ghz.cnot_cost, 3);
        assert_eq!(engine.cache().template_count(), 0);
        // A same-support skewed state still solves fresh.
        let skewed = SparseState::from_amplitudes(
            4,
            [
                (BasisIndex::new(0), 0.95),
                (BasisIndex::new(0b1111), (1.0 - 0.95f64 * 0.95).sqrt()),
            ],
        )
        .unwrap();
        let outcome = engine.synthesize_requests(&[SynthesisRequest::new(skewed)]);
        assert_eq!(outcome.stats.template_hits, 0);
        assert_eq!(outcome.stats.solver_runs, 1);
        assert!(matches!(
            outcome.reports[0].as_ref().unwrap().provenance,
            Provenance::Solved
        ));
    }

    #[test]
    fn stage_timings_sum_to_less_than_elapsed() {
        let targets = vec![generators::ghz(3).unwrap(), generators::w_state(4).unwrap()];
        let outcome = BatchSynthesizer::new().synthesize_requests(&requests(&targets));
        let staged = outcome.stats.keying
            + outcome.stats.planning
            + outcome.stats.solving
            + outcome.stats.assembly;
        assert!(staged <= outcome.stats.elapsed);
        assert!(outcome.stats.solving > Duration::ZERO);
    }

    #[test]
    fn bounded_cache_still_produces_correct_batches() {
        // A cache bounded far below the class count: every batch result must
        // still be correct even though most classes get evicted.
        let engine = BatchSynthesizer::with_options(
            WorkflowConfig::default(),
            BatchOptions::default()
                .with_threads(2)
                .with_cache(CacheConfig::bounded(2).with_shards(2)),
        );
        let mut rng = StdRng::seed_from_u64(33);
        let mut targets = Vec::new();
        for _ in 0..8 {
            targets.push(generators::random_uniform_state(4, 5, &mut rng).unwrap());
        }
        targets.push(targets[0].clone());
        targets.push(targets[3].clone());
        let outcome = engine.synthesize_requests(&requests(&targets));
        assert_eq!(outcome.stats.errors, 0);
        assert!(engine.cache_len() <= engine.cache().capacity());
        assert!(engine.cache_stats().evictions > 0);
        for (target, report) in targets.iter().zip(&outcome.reports) {
            verify(&report.as_ref().unwrap().circuit, target);
        }
    }
}
