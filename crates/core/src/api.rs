//! The unified request/outcome contract of the synthesis stack.
//!
//! Every front door of the workspace — [`crate::ExactSynthesizer`],
//! [`crate::QspWorkflow`], [`crate::BatchSynthesizer`] and `qsp-serve`'s
//! `SynthesisService` — accepts the same typed [`SynthesisRequest`] and
//! produces the same provenance-rich [`SynthesisReport`]:
//!
//! * [`SynthesisRequest`] pairs a target state with per-request
//!   [`RequestOptions`]: solver strategy, node budget, the controlled-merge
//!   and compression ablations, a [`CachePolicy`], and an optional
//!   deadline/priority consumed by the serve layer. Options are *overrides*
//!   — anything left unset inherits the synthesizer's own configuration.
//! * [`SynthesisReport`] carries the circuit, its CNOT cost, a
//!   [`Provenance`] that says how the answer was produced (fresh solve,
//!   cache hit, batch-representative reconstruction or in-flight dedup
//!   attach — with the witness transform used), per-stage [`StageTimings`],
//!   and the [`ResolvedConfig`] the request was actually solved under.
//! * The [`Synthesizer`] trait is the generic seam: code that only needs
//!   "solve this request" can be written once against it.
//!
//! # Dedup soundness
//!
//! The correctness crux of per-request options: any option that can change
//! `cnot_cost` is folded into an **options fingerprint**
//! ([`ResolvedConfig::fingerprint`], computed by [`cost_fingerprint`]) which
//! becomes part of the canonical [`ClassKey`](crate::ClassKey). Two requests
//! for the same state with different *effective* cost-relevant options
//! therefore never share a cache entry, an in-batch representative or an
//! in-flight solve. Options that provably cannot change the cost — the
//! sequential-vs-portfolio strategy (bit-identical by the portfolio
//! contract), the admissible heuristic, cache policy, deadline and priority
//! — are deliberately excluded, so they keep deduplicating freely.
//!
//! # Example
//!
//! ```
//! use qsp_core::api::{CachePolicy, Provenance, SynthesisRequest, Synthesizer};
//! use qsp_core::{QspWorkflow, SearchStrategy};
//! use qsp_state::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let request = SynthesisRequest::new(generators::ghz(6)?)
//!     .with_strategy(SearchStrategy::Portfolio { workers: 2 })
//!     .with_cache_policy(CachePolicy::Use);
//! let report = QspWorkflow::new().synthesize_request(&request)?;
//! assert_eq!(report.cnot_cost, 5);
//! assert!(matches!(report.provenance, Provenance::Solved));
//! # Ok(())
//! # }
//! ```

use std::time::{Duration, Instant};

use qsp_circuit::Circuit;
use qsp_obs::RequestTrace;
use qsp_state::QuantumState;

use crate::engine::StateTransform;
use crate::error::SynthesisError;
use crate::search::config::SearchStrategy;
use crate::workflow::WorkflowConfig;

/// How a request interacts with the cross-batch synthesis cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CachePolicy {
    /// Normal operation: probe the cache, attach to in-flight solves of the
    /// same class, and publish fresh solves for later requests.
    #[default]
    Use,
    /// Probe the cache (and attach in flight) but never publish: the
    /// request benefits from warm state without mutating it. A `ReadOnly`
    /// class owner does not publish before retiring, so a late joiner may
    /// re-solve the class — always sound, occasionally redundant.
    ReadOnly,
    /// Ignore the cache entirely: no probe, no in-flight attach, no
    /// publish. The request is always a fresh, independent solve — the way
    /// to opt a request out of deduplication.
    Bypass,
}

/// An opaque tenant handle, resolved by the serving layer.
///
/// The serve layer's `TenantPolicy` assigns one id per configured tenant
/// (the id is the tenant's index in the policy); the wire layer resolves a
/// handshake's tenant *name* to an id once per connection and stamps it on
/// every request of that connection. A request without a tenant — or with an
/// id the service's policy does not know — is accounted to the service's
/// built-in default tenant.
///
/// Tenancy is a scheduling and admission concern only: it can never change a
/// request's `cnot_cost`, so it is excluded from the options fingerprint and
/// requests from different tenants deduplicate freely against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u32);

impl TenantId {
    /// Wraps a raw tenant id (the tenant's index in the serve layer's
    /// policy).
    pub const fn new(raw: u32) -> Self {
        TenantId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

/// Per-request overrides on top of a synthesizer's base configuration.
///
/// Every field is optional (or has a neutral default): an empty
/// `RequestOptions` resolves to exactly the synthesizer's own configuration,
/// so `SynthesisRequest::new(target)` behaves like the old plain entry
/// points. Cost-relevant overrides fork the request into its own dedup/cache
/// class (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use qsp_core::api::{CachePolicy, RequestOptions};
/// use qsp_core::SearchStrategy;
///
/// let options = RequestOptions::new()
///     .with_strategy(SearchStrategy::Portfolio { workers: 4 })
///     .with_node_budget(500_000)
///     .with_controlled_merges(false)
///     .with_cache_policy(CachePolicy::ReadOnly)
///     .with_priority(7);
/// assert_eq!(options.max_expanded_nodes, Some(500_000));
/// assert_eq!(options.enable_controlled_merges, Some(false));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct RequestOptions {
    /// Sequential-vs-portfolio solver scheduling override. Never changes
    /// `cnot_cost` (the portfolio contract), so it does not fork the dedup
    /// class.
    pub strategy: Option<SearchStrategy>,
    /// A* node-budget override (cost-relevant: an exhausted budget changes
    /// the workflow's fallback choices).
    pub max_expanded_nodes: Option<usize>,
    /// Controlled-merge (CRy) ablation override (cost-relevant: restricting
    /// the library can only increase CNOT counts — or fail outright).
    pub enable_controlled_merges: Option<bool>,
    /// Sec. V-B PU(2) distance-compression ablation override (cost-relevant:
    /// the compressed search is approximate and may settle a larger count).
    pub permutation_compression: Option<bool>,
    /// Peephole-optimizer override on the final circuit (cost-relevant: the
    /// optimizer may remove CNOTs).
    pub optimize: Option<bool>,
    /// How this request interacts with the synthesis cache and the serve
    /// layer's in-flight dedup. Not cost-relevant.
    pub cache: CachePolicy,
    /// Deadline consumed by the serve layer: a request still queued past its
    /// deadline completes with a timeout instead of being solved. Ignored by
    /// the in-process synthesizers.
    pub deadline: Option<Instant>,
    /// Scheduling priority consumed by the serve layer: within a drained
    /// micro-batch, deadline order goes first and higher priority breaks
    /// ties. Ignored by the in-process synthesizers.
    pub priority: u8,
    /// The tenant this request is billed to, consumed by the serve layer's
    /// admission control and weighted-fair drain. `None` (and any id the
    /// service's policy does not know) maps to the default tenant. Never
    /// cost-relevant; ignored by the in-process synthesizers.
    pub tenant: Option<TenantId>,
}

impl RequestOptions {
    /// No overrides: resolves to the synthesizer's own configuration.
    pub fn new() -> Self {
        RequestOptions::default()
    }

    /// Overrides the solver scheduling strategy.
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Overrides the A* node budget.
    pub fn with_node_budget(mut self, max_expanded_nodes: usize) -> Self {
        self.max_expanded_nodes = Some(max_expanded_nodes);
        self
    }

    /// Overrides the controlled-merge (CRy) ablation.
    pub fn with_controlled_merges(mut self, enabled: bool) -> Self {
        self.enable_controlled_merges = Some(enabled);
        self
    }

    /// Overrides the PU(2) distance-compression ablation.
    pub fn with_permutation_compression(mut self, enabled: bool) -> Self {
        self.permutation_compression = Some(enabled);
        self
    }

    /// Overrides whether the peephole optimizer runs on the final circuit.
    pub fn with_optimize(mut self, enabled: bool) -> Self {
        self.optimize = Some(enabled);
        self
    }

    /// Sets the cache policy.
    pub fn with_cache_policy(mut self, cache: CachePolicy) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the serve-layer deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the serve-layer scheduling priority (higher is served earlier
    /// among requests with equal deadlines).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the serve-layer tenant the request is billed to.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Applies the overrides to a base configuration and stamps the
    /// cost-relevant options fingerprint.
    pub fn resolve(&self, base: &WorkflowConfig) -> ResolvedConfig {
        let mut search = base.search;
        if let Some(strategy) = self.strategy {
            search.strategy = strategy;
        }
        if let Some(budget) = self.max_expanded_nodes {
            search.max_expanded_nodes = budget;
        }
        if let Some(merges) = self.enable_controlled_merges {
            search.enable_controlled_merges = merges;
        }
        if let Some(compression) = self.permutation_compression {
            search.permutation_compression = compression;
        }
        let workflow = WorkflowConfig {
            search,
            optimize: self.optimize.unwrap_or(base.optimize),
        };
        ResolvedConfig {
            fingerprint: cost_fingerprint(&workflow),
            workflow,
            cache: self.cache,
        }
    }
}

/// The effective configuration a request was solved under: the base config
/// with the request's overrides applied, plus the cost-relevant fingerprint
/// that keyed its dedup/cache class.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct ResolvedConfig {
    /// The effective workflow configuration (search tunables + optimizer).
    pub workflow: WorkflowConfig,
    /// The request's cache policy.
    pub cache: CachePolicy,
    /// Hash of every cost-relevant option (see [`cost_fingerprint`]); part
    /// of the canonical [`ClassKey`](crate::ClassKey).
    pub fingerprint: u64,
}

impl Default for ResolvedConfig {
    fn default() -> Self {
        RequestOptions::default().resolve(&WorkflowConfig::default())
    }
}

/// Fingerprints the options that can change a request's `cnot_cost`, using
/// a process-independent FNV-1a hash (stable across builds, so warm-start
/// snapshots remain valid between processes).
///
/// Included: the exact-synthesis activation thresholds, the node budget,
/// both ablations (PU(2) compression, controlled merges) and the optimizer
/// flag. Excluded — and therefore free to dedup across — are the solver
/// strategy (bit-identical cost by the portfolio contract) and the
/// admissible heuristic (never changes the result, only the effort).
pub fn cost_fingerprint(config: &WorkflowConfig) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    mix(config.search.max_qubits as u64);
    mix(config.search.max_cardinality as u64);
    mix(config.search.max_expanded_nodes as u64);
    mix(config.search.permutation_compression as u64);
    mix(config.search.enable_controlled_merges as u64);
    mix(config.optimize as u64);
    hash
}

/// A typed synthesis request: the target state plus per-request options.
///
/// Build one with [`SynthesisRequest::new`] and the `with_*` methods (which
/// delegate to [`RequestOptions`]); hand it to any [`Synthesizer`] — or to
/// `qsp-serve`'s `SynthesisService::submit`, which additionally honours the
/// deadline and priority.
///
/// # Example
///
/// ```
/// use std::time::{Duration, Instant};
/// use qsp_core::api::{CachePolicy, SynthesisRequest};
/// use qsp_state::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let request = SynthesisRequest::new(generators::w_state(4)?)
///     .with_deadline(Instant::now() + Duration::from_secs(5))
///     .with_priority(3)
///     .with_cache_policy(CachePolicy::ReadOnly);
/// assert_eq!(request.options.priority, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SynthesisRequest<S> {
    /// The target state to prepare.
    pub target: S,
    /// Per-request overrides and serve-layer scheduling hints.
    pub options: RequestOptions,
}

impl<S: QuantumState> SynthesisRequest<S> {
    /// A request with no overrides: solved exactly like a call to the old
    /// plain entry points.
    pub fn new(target: S) -> Self {
        SynthesisRequest {
            target,
            options: RequestOptions::default(),
        }
    }

    /// Replaces the whole options block.
    pub fn with_options(mut self, options: RequestOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the solver scheduling strategy.
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.options.strategy = Some(strategy);
        self
    }

    /// Overrides the A* node budget.
    pub fn with_node_budget(mut self, max_expanded_nodes: usize) -> Self {
        self.options.max_expanded_nodes = Some(max_expanded_nodes);
        self
    }

    /// Overrides the controlled-merge (CRy) ablation.
    pub fn with_controlled_merges(mut self, enabled: bool) -> Self {
        self.options.enable_controlled_merges = Some(enabled);
        self
    }

    /// Overrides the PU(2) distance-compression ablation.
    pub fn with_permutation_compression(mut self, enabled: bool) -> Self {
        self.options.permutation_compression = Some(enabled);
        self
    }

    /// Overrides whether the peephole optimizer runs on the final circuit.
    pub fn with_optimize(mut self, enabled: bool) -> Self {
        self.options.optimize = Some(enabled);
        self
    }

    /// Sets the cache policy.
    pub fn with_cache_policy(mut self, cache: CachePolicy) -> Self {
        self.options.cache = cache;
        self
    }

    /// Sets the serve-layer deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.options.deadline = Some(deadline);
        self
    }

    /// Sets the serve-layer scheduling priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.options.priority = priority;
        self
    }

    /// Sets the serve-layer tenant the request is billed to.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.options.tenant = Some(tenant);
        self
    }
}

/// How a report's circuit was produced.
///
/// Reconstruction provenances carry the *witness transform* — the zero-cost
/// qubit permutation + X-flip mask mapping the request's own target onto the
/// canonical class fingerprint — that the circuit was rebuilt through.
/// Reconstruction preserves CNOT cost bit-for-bit, so every provenance
/// reports the same `cnot_cost` the request would get from a fresh solo
/// solve.
///
/// # Example
///
/// ```
/// use qsp_core::api::{Provenance, SynthesisRequest, Synthesizer};
/// use qsp_core::BatchSynthesizer;
/// use qsp_state::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = BatchSynthesizer::new();
/// let request = SynthesisRequest::new(generators::ghz(4)?);
/// let first = engine.synthesize_request(&request)?;
/// assert!(matches!(first.provenance, Provenance::Solved));
/// let second = engine.synthesize_request(&request)?;
/// match &second.provenance {
///     Provenance::CacheHit { witness } => assert!(witness.is_identity()),
///     other => panic!("expected a cache hit, got {other:?}"),
/// }
/// assert_eq!(first.cnot_cost, second.cnot_cost);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Provenance {
    /// A fresh solver run on this request's own target.
    Solved,
    /// Served from the cross-batch synthesis cache: the cached class
    /// representative's circuit, reconstructed through this request's
    /// witness.
    CacheHit {
        /// This request's witness transform onto the class fingerprint.
        witness: StateTransform,
    },
    /// Reconstructed from the representative of the same canonical class
    /// solved earlier *in the same batch call*.
    ReconstructedFromBatchRep {
        /// This request's witness transform onto the class fingerprint.
        witness: StateTransform,
    },
    /// Attached to another request's in-flight solve of the same class
    /// (serve layer) and reconstructed through this request's witness.
    DedupAttach {
        /// This request's witness transform onto the class fingerprint.
        witness: StateTransform,
    },
    /// Instantiated from a cached *structure template* of this request's
    /// support-pattern class: the template's reduction schedule was replayed
    /// against this request's own amplitudes, so only the rotation angles —
    /// never the gate structure — were recomputed. The resulting circuit is
    /// bit-for-bit what a fresh solve would have produced (the capture gate
    /// only admits classes whose library-optimal cost is forced by the
    /// entanglement lower bound).
    TemplateInstantiated {
        /// This request's witness transform onto the class fingerprint
        /// (same convention as the other reuse provenances).
        witness: StateTransform,
    },
}

impl Provenance {
    /// Whether this request triggered its own fresh solver run.
    pub fn is_fresh_solve(&self) -> bool {
        matches!(self, Provenance::Solved)
    }

    /// The witness transform the circuit was reconstructed through, if any.
    pub fn witness(&self) -> Option<&StateTransform> {
        match self {
            Provenance::Solved => None,
            Provenance::CacheHit { witness }
            | Provenance::ReconstructedFromBatchRep { witness }
            | Provenance::DedupAttach { witness }
            | Provenance::TemplateInstantiated { witness } => Some(witness),
        }
    }
}

/// Wall-clock time spent in each stage of serving one request. Stages that
/// did not run for a given provenance are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct StageTimings {
    /// Canonical keying (computing the class fingerprint and witness).
    pub keying: Duration,
    /// Solver time this request itself consumed (zero for cache hits,
    /// batch followers and dedup attaches — their class representative
    /// spent it).
    pub solving: Duration,
    /// Witness reconstruction of the final circuit.
    pub reconstruction: Duration,
    /// End-to-end time for this request (for served requests: submission to
    /// completion, queueing included).
    pub total: Duration,
}

impl StageTimings {
    /// Assembles a timing block (used by the synthesizer implementations;
    /// the struct is non-exhaustive so downstream crates construct it here).
    pub fn new(
        keying: Duration,
        solving: Duration,
        reconstruction: Duration,
        total: Duration,
    ) -> Self {
        StageTimings {
            keying,
            solving,
            reconstruction,
            total,
        }
    }

    /// A block with only the total (and solver) time set: the shape of a
    /// direct, keying-free solve.
    pub fn solved_in(total: Duration) -> Self {
        StageTimings {
            keying: Duration::ZERO,
            solving: total,
            reconstruction: Duration::ZERO,
            total,
        }
    }
}

/// The provenance-rich outcome of one [`SynthesisRequest`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SynthesisReport {
    /// The preparation circuit (maps `|0…0⟩` to the target).
    pub circuit: Circuit,
    /// CNOT cost of the circuit — identical for every provenance of the
    /// same request.
    pub cnot_cost: usize,
    /// How the circuit was produced.
    pub provenance: Provenance,
    /// Per-stage wall-clock timings (the coarse view; [`Self::trace`]
    /// refines it).
    pub timings: StageTimings,
    /// The effective configuration the request was solved under (base
    /// config + request overrides + options fingerprint).
    pub resolved: ResolvedConfig,
    /// The request's trace id and fine-grained span timeline
    /// ([`qsp_obs::SpanKind`] taxonomy), when the producing layer assembled
    /// one (the batch and serve paths always do).
    pub trace: Option<RequestTrace>,
}

impl SynthesisReport {
    /// Assembles a report, deriving `cnot_cost` from the circuit.
    pub fn new(
        circuit: Circuit,
        provenance: Provenance,
        timings: StageTimings,
        resolved: ResolvedConfig,
    ) -> Self {
        SynthesisReport {
            cnot_cost: circuit.cnot_cost(),
            circuit,
            provenance,
            timings,
            resolved,
            trace: None,
        }
    }

    /// Attaches the request's span timeline.
    pub fn with_trace(mut self, trace: RequestTrace) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// The one synthesis seam every layer implements: request in, report out.
///
/// Implemented by [`crate::ExactSynthesizer`], [`crate::QspWorkflow`] and
/// [`crate::BatchSynthesizer`]; `qsp-serve` exposes the same contract
/// asynchronously through `SynthesisService::submit`.
pub trait Synthesizer<S: QuantumState> {
    /// Synthesizes one request into a provenance-rich report.
    ///
    /// # Errors
    ///
    /// Returns an error when the (effective) configuration rejects the
    /// target or the solve fails.
    fn synthesize(&self, request: &SynthesisRequest<S>) -> Result<SynthesisReport, SynthesisError>;

    /// Synthesizes a batch of requests, one report per request in order.
    /// The default implementation solves sequentially;
    /// [`crate::BatchSynthesizer`] overrides it with its parallel,
    /// deduplicating engine.
    fn synthesize_all(
        &self,
        requests: &[SynthesisRequest<S>],
    ) -> Vec<Result<SynthesisReport, SynthesisError>> {
        requests.iter().map(|r| self.synthesize(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::config::SearchConfig;

    #[test]
    fn empty_options_resolve_to_the_base_config() {
        let base = WorkflowConfig::default();
        let resolved = RequestOptions::new().resolve(&base);
        assert_eq!(resolved.workflow, base);
        assert_eq!(resolved.cache, CachePolicy::Use);
        assert_eq!(resolved.fingerprint, cost_fingerprint(&base));
        assert_eq!(ResolvedConfig::default(), resolved);
    }

    #[test]
    fn overrides_apply_and_compose() {
        let base = WorkflowConfig::default();
        let resolved = RequestOptions::new()
            .with_strategy(SearchStrategy::Portfolio { workers: 3 })
            .with_node_budget(1234)
            .with_controlled_merges(false)
            .with_permutation_compression(true)
            .with_optimize(true)
            .with_cache_policy(CachePolicy::Bypass)
            .resolve(&base);
        assert_eq!(
            resolved.workflow.search.strategy,
            SearchStrategy::Portfolio { workers: 3 }
        );
        assert_eq!(resolved.workflow.search.max_expanded_nodes, 1234);
        assert!(!resolved.workflow.search.enable_controlled_merges);
        assert!(resolved.workflow.search.permutation_compression);
        assert!(resolved.workflow.optimize);
        assert_eq!(resolved.cache, CachePolicy::Bypass);
        // Untouched fields inherit the base.
        assert_eq!(resolved.workflow.search.max_qubits, base.search.max_qubits);
    }

    #[test]
    fn fingerprint_separates_cost_relevant_options_only() {
        let base = WorkflowConfig::default();
        let default_fp = RequestOptions::new().resolve(&base).fingerprint;
        // Cost-relevant overrides fork the fingerprint...
        for options in [
            RequestOptions::new().with_node_budget(7),
            RequestOptions::new().with_controlled_merges(false),
            RequestOptions::new().with_permutation_compression(true),
            RequestOptions::new().with_optimize(true),
        ] {
            assert_ne!(
                options.resolve(&base).fingerprint,
                default_fp,
                "{options:?} must fork the class"
            );
        }
        // ...cost-neutral ones do not.
        for options in [
            RequestOptions::new().with_strategy(SearchStrategy::Portfolio { workers: 8 }),
            RequestOptions::new().with_cache_policy(CachePolicy::ReadOnly),
            RequestOptions::new().with_cache_policy(CachePolicy::Bypass),
            RequestOptions::new().with_priority(200),
            RequestOptions::new().with_deadline(Instant::now()),
            RequestOptions::new().with_tenant(TenantId::new(7)),
        ] {
            assert_eq!(
                options.resolve(&base).fingerprint,
                default_fp,
                "{options:?} must not fork the class"
            );
        }
        // An explicit override equal to the base value is the same class.
        let explicit = RequestOptions::new()
            .with_node_budget(base.search.max_expanded_nodes)
            .resolve(&base);
        assert_eq!(explicit.fingerprint, default_fp);
        // The fingerprint is a pure function of the effective config, not of
        // which side (base or override) supplied it.
        let via_base = RequestOptions::new().resolve(&WorkflowConfig {
            search: SearchConfig {
                max_expanded_nodes: 7,
                ..SearchConfig::default()
            },
            optimize: false,
        });
        let via_override = RequestOptions::new().with_node_budget(7).resolve(&base);
        assert_eq!(via_base.fingerprint, via_override.fingerprint);
    }

    #[test]
    fn fingerprints_are_stable_across_builds() {
        // Snapshot keys carry these values: a change here turns every saved
        // snapshot into misses.
        let base = WorkflowConfig::default();
        assert_eq!(cost_fingerprint(&base), 0xb29e_794f_0391_2fc2);
        let compressed =
            base.with_search(SearchConfig::default().with_permutation_compression(true));
        assert_eq!(cost_fingerprint(&compressed), 0x29f2_fba3_6c51_75e3);
    }

    #[test]
    fn request_builder_delegates_to_options() {
        let target = qsp_state::generators::ghz(3).unwrap();
        let deadline = Instant::now();
        let request = SynthesisRequest::new(target)
            .with_strategy(SearchStrategy::Sequential)
            .with_node_budget(99)
            .with_controlled_merges(true)
            .with_permutation_compression(false)
            .with_optimize(false)
            .with_cache_policy(CachePolicy::ReadOnly)
            .with_deadline(deadline)
            .with_priority(5);
        assert_eq!(request.options.strategy, Some(SearchStrategy::Sequential));
        assert_eq!(request.options.max_expanded_nodes, Some(99));
        assert_eq!(request.options.enable_controlled_merges, Some(true));
        assert_eq!(request.options.permutation_compression, Some(false));
        assert_eq!(request.options.optimize, Some(false));
        assert_eq!(request.options.cache, CachePolicy::ReadOnly);
        assert_eq!(request.options.deadline, Some(deadline));
        assert_eq!(request.options.priority, 5);
        let replaced = request.with_options(RequestOptions::new());
        assert_eq!(replaced.options, RequestOptions::default());
    }

    #[test]
    fn provenance_accessors() {
        use crate::engine::StateTransform;
        let witness = StateTransform::identity(3);
        assert!(Provenance::Solved.is_fresh_solve());
        assert!(Provenance::Solved.witness().is_none());
        for p in [
            Provenance::CacheHit {
                witness: witness.clone(),
            },
            Provenance::ReconstructedFromBatchRep {
                witness: witness.clone(),
            },
            Provenance::DedupAttach {
                witness: witness.clone(),
            },
            Provenance::TemplateInstantiated {
                witness: witness.clone(),
            },
        ] {
            assert!(!p.is_fresh_solve());
            assert_eq!(p.witness(), Some(&witness));
        }
    }

    #[test]
    fn timings_helpers() {
        let t = StageTimings::solved_in(Duration::from_millis(5));
        assert_eq!(t.solving, Duration::from_millis(5));
        assert_eq!(t.total, Duration::from_millis(5));
        assert_eq!(t.keying, Duration::ZERO);
        let explicit = StageTimings::new(
            Duration::from_micros(1),
            Duration::from_micros(2),
            Duration::from_micros(3),
            Duration::from_micros(6),
        );
        assert_eq!(explicit.reconstruction, Duration::from_micros(3));
    }
}
