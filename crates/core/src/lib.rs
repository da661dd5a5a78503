//! # qsp-core
//!
//! Exact CNOT synthesis for quantum state preparation (QSP), reproducing
//! "Quantum State Preparation Using an Exact CNOT Synthesis Formulation"
//! (Wang, Tan, Cong, De Micheli — DATE 2024).
//!
//! The crate implements the paper's contribution end to end and scales it
//! into a batch-serving engine. Every entry point is generic over the
//! [`qsp_state::QuantumState`] backend trait, so sparse, dense and adaptive
//! targets flow through the same code paths:
//!
//! * [`api`] — the **unified request/outcome contract**: one typed
//!   [`SynthesisRequest`] (target plus per-request [`RequestOptions`]
//!   overrides and a [`CachePolicy`]) and one provenance-rich
//!   [`SynthesisReport`] (circuit, `cnot_cost`, [`Provenance`], per-stage
//!   timings, effective resolved config), accepted by every layer through
//!   the [`Synthesizer`] trait. Cost-relevant overrides are fingerprinted
//!   into the canonical [`ClassKey`], so per-request policies are
//!   dedup-sound.
//! * [`search`] — the state transition graph over **amplitude-preserving**
//!   single-target transitions (Sec. IV) together with the A* shortest-path
//!   solver, its admissible entanglement heuristic and the canonicalization
//!   based state compression (Sec. V).
//! * [`engine`] — the [`SolverEngine`]: one dispatch point that schedules
//!   the A* search sequentially or as a *portfolio* race over canonically
//!   equivalent target variants (shared atomic incumbent bound,
//!   first-optimal-wins cancellation), selected by
//!   [`SearchConfig::strategy`]. Every entry point below solves through it.
//! * [`exact`] — the user-facing exact synthesizer: give it a state, get back
//!   the CNOT-optimal circuit (with respect to the paper's gate library) plus
//!   search statistics.
//! * [`workflow`] — the scalable workflow of Fig. 5: sparse states are first
//!   shrunk with cardinality reduction, dense states with qubit reduction,
//!   until the residual problem fits the exact solver's thresholds.
//! * [`cache`] — the sharded, eviction-aware synthesis cache: canonical
//!   classes keyed by hash shard, LRU-bounded by [`CacheConfig`], with JSON
//!   warm-start snapshots (plus cheaper-entry-wins snapshot *merging*) for
//!   cross-process reuse.
//! * [`batch`] — the parallel batch-synthesis engine: many targets at once,
//!   deduplicated under the Sec. V-B canonical key through the sharded
//!   cache, solved on a worker pool, with per-target circuits and aggregate
//!   statistics returned in submission order. Its canonical-class seam
//!   ([`BatchSynthesizer::canonical_class`] / `lookup_class` / `solve_class`
//!   / `reconstruct_for`) is the surface the `qsp-serve` request/response
//!   service builds its in-flight dedup on.
//! * [`json`] — the workspace-shared hand-rolled JSON reader/writer used by
//!   cache snapshots, serving stats dumps and the benchmark reports (the
//!   offline build has no serde). It now lives in `qsp-obs` and is
//!   re-exported here, so `qsp_core::json` paths keep working.
//!
//! Every layer reports into the engine's [`qsp_obs::ObsHub`] (reachable via
//! [`BatchSynthesizer::obs`]): registry counters and histograms are always
//! on (relaxed atomics); per-request [`qsp_obs::RequestTrace`]s ride on
//! every [`SynthesisReport`]; ring tracing, the solver flight recorder and
//! cache probe/evict timing are opt-in through
//! [`BatchOptions::with_obs`](batch::BatchOptions::with_obs).
//!
//! # Quickstart
//!
//! ```
//! use qsp_core::prepare_state;
//! use qsp_state::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // |D^1_3> (the 3-qubit W state): exact synthesis needs at most 4 CNOTs,
//! // matching the "ours" column of Table IV.
//! let target = generators::dicke(3, 1)?;
//! let outcome = prepare_state(&target)?;
//! assert!(outcome.circuit.cnot_cost() <= 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod api;
pub mod batch;
pub mod cache;
pub mod engine;
pub mod error;
pub mod exact;
pub mod search;
pub mod workflow;

pub use api::{
    CachePolicy, Provenance, RequestOptions, ResolvedConfig, StageTimings, SynthesisReport,
    SynthesisRequest, Synthesizer, TenantId,
};
pub use batch::{BatchOptions, BatchStats, BatchSynthesizer, KeyedClass, RequestBatchOutcome};
pub use cache::{
    CacheEntry, CacheStats, ClassKey, EntryOrigin, ShardedCache, SNAPSHOT_FORMAT_VERSION,
};
pub use engine::{SolverEngine, StateTransform};
pub use error::SynthesisError;
pub use exact::{ExactSynthesisOutcome, ExactSynthesizer, SynthesisStats};
pub use qsp_obs::json;
pub use qsp_obs::json::{JsonError, JsonErrorKind};
// The observability surface engine users touch: the knobs on
// `BatchOptions`, the hub/snapshot behind `BatchSynthesizer::obs`, and the
// trace types riding on every `SynthesisReport`.
pub use qsp_obs::{ObsHub, ObsOptions, ObsSnapshot, RequestTrace, SpanKind, TraceId};
pub use qsp_state::pipeline::KeyCoverage;
pub use search::config::{CacheConfig, SearchConfig, SearchStrategy};
pub use workflow::{prepare_state, QspWorkflow, WorkflowConfig};
