//! The synthesis service front door.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qsp_core::{
    BatchSynthesizer, CacheEntry, CachePolicy, EntryOrigin, KeyCoverage, KeyedClass, Provenance,
    StageTimings, SynthesisReport, SynthesisRequest, TenantId,
};
use qsp_obs::{Histogram, ObsSnapshot, RequestTrace, SpanKind};
use qsp_state::{QuantumState, SparseState};

use crate::config::{SchedulerConfig, ServiceConfig};
use crate::handle::Response;
use crate::inflight::{Attach, InFlightTable, Waiter};
use crate::queue::{QueuedRequest, RejectReason, SubmissionQueue, Submit};
use crate::stats::{Counters, ServiceStats, TenantStats};
use crate::tenant::{TenantPolicy, TokenBucketAdmitter};

/// How [`SynthesisService::shutdown`] disposes of queued work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shutdown {
    /// Stop accepting, let the workers finish everything already queued,
    /// then exit. Every accepted request resolves with its real outcome.
    Drain,
    /// Stop accepting and fail queued requests with
    /// [`Response::Cancelled`]; workers exit after the batch they are
    /// currently processing (in-flight solves still complete normally).
    Abort,
}

/// The long-running request/response synthesis service.
///
/// See the [crate docs](crate) for the architecture. The service is shared
/// by reference: `submit` takes `&self` from any thread, and the worker pool
/// lives until [`SynthesisService::shutdown`] (or drop, which aborts).
#[derive(Debug)]
pub struct SynthesisService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

#[derive(Debug)]
struct Inner {
    engine: BatchSynthesizer,
    queue: SubmissionQueue,
    inflight: InFlightTable,
    /// Cached `serve.*` registry handles (the registry itself lives in the
    /// engine's [`qsp_obs::ObsHub`]).
    counters: Counters,
    queue_wait: Arc<Histogram>,
    service_time: Arc<Histogram>,
    end_to_end: Arc<Histogram>,
    scheduler: SchedulerConfig,
    /// The tenant directory (name → id, slot layout, DRR weights).
    policy: TenantPolicy,
    /// Per-tenant token buckets, consulted before the queue.
    admitter: TokenBucketAdmitter,
}

impl SynthesisService {
    /// Starts a service (and its worker pool) with the given configuration.
    pub fn start(config: ServiceConfig) -> Self {
        let engine = BatchSynthesizer::with_options(config.workflow, config.batch);
        Self::with_engine_and_tenants(
            engine,
            config.queue_capacity,
            config.scheduler,
            config.tenants,
        )
    }

    /// Starts a service on an existing batch engine — sharing its synthesis
    /// cache (e.g. one warm-started from a snapshot, or one also serving
    /// offline `synthesize_requests` traffic) and its observability hub. Uses
    /// the default (single-tenant, unthrottled) [`TenantPolicy`].
    pub fn with_engine(
        engine: BatchSynthesizer,
        queue_capacity: usize,
        scheduler: SchedulerConfig,
    ) -> Self {
        Self::with_engine_and_tenants(engine, queue_capacity, scheduler, TenantPolicy::default())
    }

    /// [`SynthesisService::with_engine`] plus an explicit multi-tenant
    /// admission and weighted-fair drain policy.
    pub fn with_engine_and_tenants(
        engine: BatchSynthesizer,
        queue_capacity: usize,
        scheduler: SchedulerConfig,
        tenants: TenantPolicy,
    ) -> Self {
        let metrics = engine.obs().metrics();
        let counters = Counters::new(metrics, &tenants);
        let admitter = TokenBucketAdmitter::new(&tenants, metrics);
        let queue_wait = metrics.histogram("serve.queue_wait", &[]);
        let service_time = metrics.histogram("serve.service_time", &[]);
        let end_to_end = metrics.histogram("serve.end_to_end", &[]);
        let inner = Arc::new(Inner {
            engine,
            queue: SubmissionQueue::new(queue_capacity, tenants.slot_weights()),
            inflight: InFlightTable::default(),
            counters,
            queue_wait,
            service_time,
            end_to_end,
            scheduler,
            policy: tenants,
            admitter,
        });
        let workers = (0..scheduler.resolved_workers())
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("qsp-serve-{i}"))
                    .spawn(move || inner.run_worker())
                    .expect("spawn service worker")
            })
            .collect();
        SynthesisService {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a typed [`SynthesisRequest`] for synthesis. Never blocks: the
    /// request is either queued (wait on the returned handle) or rejected
    /// outright ([`Submit::Rejected`] with a [`RejectReason`] distinguishing
    /// admission throttling from backpressure from shutdown).
    ///
    /// The request's tenant
    /// ([`RequestOptions::tenant`](qsp_core::RequestOptions)) picks its
    /// admission token bucket, its weighted-fair sub-queue and its
    /// `serve.tenant.*` accounting slice; no tenant (or an unknown id) bills
    /// to the built-in default tenant.
    ///
    /// The request's [`RequestOptions`](qsp_core::RequestOptions) are
    /// honoured end to end: a deadline that expires while still queued
    /// completes with [`Response::Timeout`] and never reaches the solver;
    /// within a drain, requests are served earliest-deadline-first with
    /// priority breaking ties; solver overrides resolve against the
    /// service's base configuration and fork the request into its own
    /// fingerprinted dedup/cache class; the [`CachePolicy`] decides cache
    /// probing, in-flight attaching and publishing.
    ///
    /// Every accepted request gets a [`qsp_obs::TraceId`], and its completed
    /// [`SynthesisReport`] carries the full [`RequestTrace`] span tree
    /// (queue wait → validate → key → cache probe → solve → reconstruct,
    /// summing exactly to the end-to-end latency).
    pub fn submit(&self, request: SynthesisRequest<SparseState>) -> Submit {
        let SynthesisRequest {
            target, options, ..
        } = request;
        let slot = self.inner.policy.slot_of(options.tenant);
        let tenant = &self.inner.counters.tenants[slot];
        // Per-tenant `submitted` counts attempts (the conservation identity
        // includes throttled/rejected); the global one counts acceptances.
        tenant.submitted.inc();
        if !self.inner.admitter.try_admit(slot) {
            self.inner.counters.throttled.inc();
            tenant.throttled.inc();
            return Submit::Rejected {
                reason: RejectReason::Throttled,
            };
        }
        let submit = self.inner.queue.push(target, options, slot);
        match &submit {
            Submit::Accepted(_) => {
                self.inner.counters.submitted.inc();
                self.inner.counters.queue_depth.add(1);
                tenant.queue_depth.add(1);
            }
            Submit::Rejected { .. } => {
                self.inner.counters.rejected.inc();
                tenant.rejected.inc();
            }
        }
        submit
    }

    /// Submits a typed request over any [`QuantumState`] backend (converted
    /// to the solver's sparse form up front). An unconvertible target is
    /// accepted with an already-failed handle — it is a permanent
    /// per-request error, not backpressure or shutdown, so it must not look
    /// like either rejection.
    pub fn submit_request<S: QuantumState>(&self, request: &SynthesisRequest<S>) -> Submit {
        match request.target.as_sparse() {
            Ok(sparse) => self
                .submit(SynthesisRequest::new(sparse.into_owned()).with_options(request.options)),
            Err(error) => {
                self.inner.counters.submitted.inc();
                self.inner.counters.failed.inc();
                let tenant_slot = self.inner.policy.slot_of(request.options.tenant);
                let tenant = &self.inner.counters.tenants[tenant_slot];
                tenant.submitted.inc();
                tenant.failed.inc();
                let (handle, completer) = crate::handle::oneshot();
                completer.complete(Response::Failed(qsp_core::SynthesisError::State(error)));
                Submit::Accepted(handle)
            }
        }
    }

    /// The underlying batch engine (shared synthesis cache, observability
    /// hub).
    pub fn engine(&self) -> &BatchSynthesizer {
        &self.inner.engine
    }

    /// A point-in-time snapshot of the service counters and latency
    /// histograms — the typed `serve.*` slice of the engine's metrics
    /// registry.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        let depths = self.inner.queue.depths();
        let tenants = c
            .tenants
            .iter()
            .enumerate()
            .map(|(slot, t)| TenantStats {
                name: t.name.clone(),
                submitted: t.submitted.get(),
                throttled: t.throttled.get(),
                rejected: t.rejected.get(),
                completed: t.completed.get(),
                expired: t.expired.get(),
                failed: t.failed.get(),
                cancelled: t.cancelled.get(),
                queue_depth: depths.get(slot).copied().unwrap_or(0),
                queue_wait: t.queue_wait.snapshot(),
            })
            .collect();
        ServiceStats {
            submitted: c.submitted.get(),
            completed: c.completed.get(),
            failed: c.failed.get(),
            rejected: c.rejected.get(),
            throttled: c.throttled.get(),
            expired: c.expired.get(),
            deduped: c.deduped.get(),
            cache_hits: c.cache_hits.get(),
            solver_runs: c.solver_runs.get(),
            cancelled: c.cancelled.get(),
            keys_exhaustive: c.keys_exhaustive.get(),
            keys_orbit_pruned: c.keys_orbit_pruned.get(),
            keys_greedy: c.keys_greedy.get(),
            keys_sig_fast_path: c.keys_sig_fast_path.get(),
            template_hits: c.template_hits.get(),
            queue_high_water: self.inner.queue.high_water(),
            queue_depth: self.inner.queue.depth(),
            in_flight_classes: self.inner.inflight.len(),
            queue_wait: self.inner.queue_wait.snapshot(),
            service_time: self.inner.service_time.snapshot(),
            end_to_end: self.inner.end_to_end.snapshot(),
            tenants,
        }
    }

    /// Resolves a tenant name against the service's [`TenantPolicy`]. The
    /// wire handshake uses this to map the client-supplied tenant string to
    /// a [`TenantId`]; unknown names get `None` and bill to the default
    /// tenant.
    pub fn resolve_tenant(&self, name: &str) -> Option<TenantId> {
        self.inner.policy.resolve(name)
    }

    /// The service's tenant policy (directory, weights, rates).
    pub fn tenant_policy(&self) -> &TenantPolicy {
        &self.inner.policy
    }

    /// A full observability snapshot of the engine's hub: every registry
    /// metric (`serve.*`, `batch.*`, `cache.*`), the sampled trace-ring
    /// spans and the solver flight records, serializable through
    /// [`ObsSnapshot::to_json`].
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.inner.engine.obs().snapshot()
    }

    /// Stops the service deterministically and joins the worker pool:
    /// [`Shutdown::Drain`] finishes all queued work first, [`Shutdown::Abort`]
    /// fails queued requests with [`Response::Cancelled`] (requests already
    /// being solved still complete). Idempotent; returns the final stats.
    pub fn shutdown(&self, mode: Shutdown) -> ServiceStats {
        let leftover = self.inner.queue.close(mode == Shutdown::Abort);
        for request in leftover {
            self.inner.counters.cancelled.inc();
            self.inner.counters.queue_depth.sub(1);
            let tenant = &self.inner.counters.tenants[request.slot];
            tenant.cancelled.inc();
            tenant.queue_depth.sub(1);
            request.completer.complete(Response::Cancelled);
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker pool poisoned"));
        for worker in workers {
            // A panicked worker already resolved its requests (completers
            // cancel on unwind); swallowing the panic here keeps shutdown —
            // and Drop during another panic's unwind — from aborting.
            if worker.join().is_err() {
                eprintln!("qsp-serve: worker thread panicked; its requests were cancelled");
            }
        }
        self.stats()
    }
}

impl Drop for SynthesisService {
    fn drop(&mut self) {
        self.shutdown(Shutdown::Abort);
    }
}

impl Inner {
    fn run_worker(&self) {
        while let Some(batch) = self
            .queue
            .pop_batch(self.scheduler.max_batch, self.scheduler.max_wait)
        {
            for request in batch {
                self.process(request);
            }
        }
    }

    /// Serves one drained request: deadline check, option resolution and
    /// fingerprinted canonical keying, then cache / in-flight attach / fresh
    /// solve per the request's [`CachePolicy`]. Each stage boundary is
    /// timestamped into the request's span tree.
    fn process(&self, request: QueuedRequest) {
        let QueuedRequest {
            trace,
            slot,
            target,
            options,
            enqueued,
            completer,
            ..
        } = request;
        let drained = Instant::now();
        let tenant = &self.counters.tenants[slot];
        self.counters.queue_depth.sub(1);
        tenant.queue_depth.sub(1);
        self.queue_wait.record(drained - enqueued);
        tenant.queue_wait.record(drained - enqueued);

        // Deadline-aware: an expired request is answered without spending
        // any solver time on it.
        if options.deadline.is_some_and(|d| drained >= d) {
            self.counters.expired.inc();
            tenant.expired.inc();
            self.end_to_end.record(drained - enqueued);
            completer.complete(Response::Timeout);
            return;
        }

        // The key folds in the request's cost-relevant options fingerprint,
        // so requests with different effective solver configurations can
        // never share a cache entry or an in-flight solve.
        let resolved = self.engine.resolve_options(&options);
        let validated = Instant::now();
        let KeyedClass {
            key,
            transform,
            coverage,
            ..
        } = match self.engine.canonical_class_with(&target, &resolved) {
            Ok(keyed) => keyed,
            Err(error) => {
                self.counters.failed.inc();
                tenant.failed.inc();
                let now = Instant::now();
                self.service_time.record(now - drained);
                self.end_to_end.record(now - enqueued);
                completer.complete(Response::Failed(error));
                return;
            }
        };
        let keyed = Instant::now();
        match coverage {
            KeyCoverage::Exhaustive => self.counters.keys_exhaustive.inc(),
            KeyCoverage::OrbitPruned => self.counters.keys_orbit_pruned.inc(),
            KeyCoverage::Greedy => self.counters.keys_greedy.inc(),
            KeyCoverage::SignatureOnly => self.counters.keys_sig_fast_path.inc(),
        }
        let waiter = Waiter {
            trace,
            slot,
            transform,
            resolved,
            keying: keyed - validated,
            completer,
            enqueued,
            drained,
            validated,
            keyed,
            probed: keyed,
        };

        // A request that bypasses the cache is solved independently: no
        // cache probe, no in-flight table (its cache-probe span is empty).
        if resolved.cache == CachePolicy::Bypass {
            let solve_start = Instant::now();
            let entry = self
                .engine
                .solve_class_with(&key, &waiter.transform, &target, &resolved);
            let solving = solve_start.elapsed();
            let provenance = self.owner_provenance(&entry, &waiter);
            self.finish(&entry, waiter, provenance, solving);
            return;
        }

        match self
            .inflight
            .attach_or_own(&key, || self.engine.lookup_class(&key), waiter)
        {
            Attach::Attached => self.counters.deduped.inc(),
            Attach::Cached(entry, waiter) => {
                self.counters.cache_hits.inc();
                let witness = waiter.transform.clone();
                self.finish(
                    &entry,
                    waiter,
                    Provenance::CacheHit { witness },
                    Duration::ZERO,
                );
            }
            Attach::Owner(waiter) => {
                // The guard retires the class even if the solve panics, so
                // attached waiters can never hang on a poisoned entry.
                let owned = self.inflight.guard(&key);
                // Publish to the cache (inside solve_class_with, gated on
                // the owner's CachePolicy) *before* retiring the in-flight
                // entry — the ordering the no-duplicate-solve guarantee
                // rests on. A `ReadOnly` owner skips the publish, so a
                // joiner landing after retirement re-solves instead of
                // hitting the cache: redundant work, never a wrong answer.
                let solve_start = Instant::now();
                let entry = self.engine.solve_class_with(
                    &key,
                    &waiter.transform,
                    &target,
                    &waiter.resolved,
                );
                let solving = solve_start.elapsed();
                let attached = owned.retire();
                let provenance = self.owner_provenance(&entry, &waiter);
                self.finish(&entry, waiter, provenance, solving);
                for waiter in attached {
                    let witness = waiter.transform.clone();
                    self.finish(
                        &entry,
                        waiter,
                        Provenance::DedupAttach { witness },
                        Duration::ZERO,
                    );
                }
            }
        }
    }

    /// The provenance of a class owner's freshly produced entry, with the
    /// matching counter bump: a template-instantiated entry counts as a
    /// template hit (no A* ran), anything else as a solver run.
    fn owner_provenance(&self, entry: &CacheEntry, waiter: &Waiter) -> Provenance {
        match entry.origin() {
            EntryOrigin::Template => {
                self.counters.template_hits.inc();
                Provenance::TemplateInstantiated {
                    witness: waiter.transform.clone(),
                }
            }
            EntryOrigin::Fresh => {
                self.counters.solver_runs.inc();
                Provenance::Solved
            }
        }
    }

    /// Completes one request from a solved class entry, reconstructing the
    /// circuit through the request's own witness transform (bit-identical
    /// CNOT cost to a direct solve) and assembling its provenance-rich
    /// report. `solving` is the solver time this request itself consumed
    /// (zero for cache hits and dedup attaches).
    fn finish(
        &self,
        entry: &CacheEntry,
        waiter: Waiter,
        provenance: Provenance,
        solving: Duration,
    ) {
        let reconstruct_start = Instant::now();
        let tenant = &self.counters.tenants[waiter.slot];
        let response = match BatchSynthesizer::reconstruct_for(entry, &waiter.transform) {
            Ok(circuit) => {
                self.counters.completed.inc();
                tenant.completed.inc();
                let now = Instant::now();
                let timings = StageTimings::new(
                    waiter.keying,
                    solving,
                    now - reconstruct_start,
                    now - waiter.enqueued,
                );
                // The span tree: six contiguous stages relative to
                // submission, summing *exactly* to the report's end-to-end
                // latency. For an attached waiter the solve span is the time
                // it spent parked on its owner's solve.
                let at = |instant: Instant| instant - waiter.enqueued;
                let mut trace = RequestTrace::new(waiter.trace);
                trace.push(
                    SpanKind::QueueWait,
                    Duration::ZERO,
                    waiter.drained - waiter.enqueued,
                );
                trace.push(
                    SpanKind::Validate,
                    at(waiter.drained),
                    waiter.validated - waiter.drained,
                );
                trace.push(
                    SpanKind::Key,
                    at(waiter.validated),
                    waiter.keyed - waiter.validated,
                );
                trace.push(
                    SpanKind::CacheProbe,
                    at(waiter.keyed),
                    waiter.probed - waiter.keyed,
                );
                trace.push(
                    SpanKind::Solve,
                    at(waiter.probed),
                    reconstruct_start - waiter.probed,
                );
                trace.push(
                    SpanKind::Reconstruct,
                    at(reconstruct_start),
                    now - reconstruct_start,
                );
                self.engine.obs().tracer().record_trace(&trace);
                Response::Completed(
                    SynthesisReport::new(circuit, provenance, timings, waiter.resolved)
                        .with_trace(trace),
                )
            }
            Err(error) => {
                self.counters.failed.inc();
                tenant.failed.inc();
                Response::Failed(error)
            }
        };
        let now = Instant::now();
        self.service_time.record(now - waiter.drained);
        self.end_to_end.record(now - waiter.enqueued);
        waiter.completer.complete(response);
    }
}
