//! The per-class in-flight dedup table.
//!
//! When a worker picks up a request whose canonical class is neither cached
//! nor being solved, it becomes the class *owner* and solves it; a worker
//! that picks up another member of the same class while the solve is running
//! *attaches* its request to the owner instead of re-entering the queue or
//! solving again. The owner completes every attached waiter (reconstructing
//! each circuit through the waiter's own witness transform, which preserves
//! the CNOT cost bit-for-bit).
//!
//! The no-duplicate-solve guarantee is a lock-ordering protocol between this
//! table and the synthesis cache:
//!
//! * joiners probe the cache *while holding the table lock* (the cache's
//!   shard locks never take the table lock, so this cannot deadlock);
//! * the owner publishes to the cache **before** removing its table entry.
//!
//! So a joiner either sees the table entry (attaches) or, if the entry is
//! already gone, is guaranteed to find the solved class in the cache — a
//! second solve of an in-flight class is impossible (cache eviction can
//! still force a re-solve later, which is benign).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qsp_core::{CacheEntry, ClassKey, ResolvedConfig, StateTransform};
use qsp_obs::TraceId;

use crate::handle::Completer;

/// A request parked on an in-flight solve (or being finished by its owner).
///
/// The table key carries the request's options fingerprint, so every waiter
/// parked on a class shares the same effective cost-relevant configuration
/// as its owner — attaching is always dedup-sound.
#[derive(Debug)]
pub(crate) struct Waiter {
    /// The request's trace id (assigned at submission).
    pub trace: TraceId,
    /// The tenant accounting slot the request's completion is billed to.
    pub slot: usize,
    /// The request's own witness transform onto the canonical fingerprint.
    pub transform: StateTransform,
    /// The request's effective configuration (reported back in its
    /// [`SynthesisReport`](qsp_core::SynthesisReport)).
    pub resolved: ResolvedConfig,
    /// Time the worker spent canonically keying this request.
    pub keying: Duration,
    pub completer: Completer,
    pub enqueued: Instant,
    /// When the worker drained this request (per-stage latency accounting).
    pub drained: Instant,
    /// When the deadline check and option resolution finished.
    pub validated: Instant,
    /// When canonical keying finished.
    pub keyed: Instant,
    /// When the cache-probe/attach decision was made. Initialized to `keyed`
    /// at construction; [`InFlightTable::attach_or_own`] re-stamps it so the
    /// span covers the actual probe under the table lock.
    pub probed: Instant,
}

/// What became of an attach attempt.
#[derive(Debug)]
pub(crate) enum Attach {
    /// No solve in flight and no cached class: the caller owns the solve.
    /// The waiter is handed back so the owner can complete itself too.
    Owner(Waiter),
    /// A solve is in flight; the waiter is parked on it.
    Attached,
    /// The class was already solved; the caller serves it immediately.
    Cached(Arc<CacheEntry>, Waiter),
}

#[derive(Debug, Default)]
pub(crate) struct InFlightTable {
    classes: Mutex<HashMap<ClassKey, Vec<Waiter>>>,
}

impl InFlightTable {
    /// Routes one request: attach to an in-flight solve, serve from cache,
    /// or become the class owner. `cache_probe` runs under the table lock —
    /// see the module docs for why that ordering is load-bearing.
    pub(crate) fn attach_or_own(
        &self,
        key: &ClassKey,
        cache_probe: impl FnOnce() -> Option<Arc<CacheEntry>>,
        mut waiter: Waiter,
    ) -> Attach {
        let mut classes = self.classes.lock().expect("in-flight table poisoned");
        if let Some(waiters) = classes.get_mut(key) {
            waiter.probed = Instant::now();
            waiters.push(waiter);
            return Attach::Attached;
        }
        let probed = cache_probe();
        waiter.probed = Instant::now();
        if let Some(entry) = probed {
            return Attach::Cached(entry, waiter);
        }
        classes.insert(key.clone(), Vec::new());
        Attach::Owner(waiter)
    }

    /// Retires an in-flight class, returning the waiters that attached while
    /// it was being solved. The owner must have published the solved entry
    /// to the cache *before* calling this.
    pub(crate) fn take_waiters(&self, key: &ClassKey) -> Vec<Waiter> {
        self.classes
            .lock()
            .expect("in-flight table poisoned")
            .remove(key)
            .unwrap_or_default()
    }

    /// An unwind guard for a class this caller owns: if the owner's solve
    /// panics before [`OwnedClass::retire`], the guard's drop retires the
    /// table entry anyway, so the attached waiters resolve (`Cancelled`, via
    /// their completers' drop) instead of hanging on a poisoned class, and
    /// later requests for the class can solve it afresh.
    pub(crate) fn guard<'a>(&'a self, key: &'a ClassKey) -> OwnedClass<'a> {
        OwnedClass {
            table: self,
            key,
            armed: true,
        }
    }

    /// Number of classes currently being solved.
    pub(crate) fn len(&self) -> usize {
        self.classes.lock().expect("in-flight table poisoned").len()
    }
}

/// See [`InFlightTable::guard`].
#[derive(Debug)]
pub(crate) struct OwnedClass<'a> {
    table: &'a InFlightTable,
    key: &'a ClassKey,
    armed: bool,
}

impl OwnedClass<'_> {
    /// Normal completion: retires the class entry and hands the attached
    /// waiters to the owner for completion.
    pub(crate) fn retire(mut self) -> Vec<Waiter> {
        self.armed = false;
        self.table.take_waiters(self.key)
    }
}

impl Drop for OwnedClass<'_> {
    fn drop(&mut self) {
        if self.armed {
            drop(self.table.take_waiters(self.key));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::oneshot;
    use qsp_core::BatchSynthesizer;
    use qsp_state::generators;

    fn waiter(transform: StateTransform) -> Waiter {
        let (_, completer) = oneshot();
        let now = Instant::now();
        Waiter {
            trace: TraceId::next(),
            slot: 0,
            transform,
            resolved: ResolvedConfig::default(),
            keying: Duration::ZERO,
            completer,
            enqueued: now,
            drained: now,
            validated: now,
            keyed: now,
            probed: now,
        }
    }

    #[test]
    fn first_request_owns_later_requests_attach() {
        let engine = BatchSynthesizer::new();
        let target = generators::ghz(4).unwrap();
        let qsp_core::KeyedClass { key, transform, .. } = engine.canonical_class(&target).unwrap();
        let table = InFlightTable::default();

        let first = table.attach_or_own(
            &key,
            || engine.lookup_class(&key),
            waiter(transform.clone()),
        );
        let Attach::Owner(owner) = first else {
            panic!("first request must own the solve");
        };
        assert_eq!(table.len(), 1);
        for _ in 0..3 {
            let joined = table.attach_or_own(
                &key,
                || engine.lookup_class(&key),
                waiter(transform.clone()),
            );
            assert!(matches!(joined, Attach::Attached));
        }

        // The owner publishes, then retires the entry and its waiters.
        let entry = engine.solve_class(&key, &owner.transform, &target);
        let waiters = table.take_waiters(&key);
        assert_eq!(waiters.len(), 3);
        assert_eq!(table.len(), 0);

        // A late arrival now resolves through the cache, not a new solve.
        let late = table.attach_or_own(&key, || engine.lookup_class(&key), waiter(transform));
        let Attach::Cached(cached, _) = late else {
            panic!("late request must hit the cache");
        };
        assert_eq!(cached.cnot_cost(), entry.cnot_cost());
    }

    #[test]
    fn dropping_an_armed_guard_unpoisons_the_class_and_cancels_waiters() {
        use crate::handle::Response;

        let engine = BatchSynthesizer::new();
        let target = generators::ghz(3).unwrap();
        let qsp_core::KeyedClass { key, transform, .. } = engine.canonical_class(&target).unwrap();
        let table = InFlightTable::default();

        let Attach::Owner(_owner) = table.attach_or_own(
            &key,
            || engine.lookup_class(&key),
            waiter(transform.clone()),
        ) else {
            panic!("first request must own the solve");
        };
        let (attached_handle, completer) = oneshot();
        let now = Instant::now();
        assert!(matches!(
            table.attach_or_own(
                &key,
                || engine.lookup_class(&key),
                Waiter {
                    trace: TraceId::next(),
                    slot: 0,
                    transform: transform.clone(),
                    resolved: ResolvedConfig::default(),
                    keying: Duration::ZERO,
                    completer,
                    enqueued: now,
                    drained: now,
                    validated: now,
                    keyed: now,
                    probed: now,
                },
            ),
            Attach::Attached
        ));

        // The owner's solve "panics": the guard drops without retire().
        drop(table.guard(&key));

        // The attached waiter resolved instead of hanging, and the class is
        // free for the next request to own.
        assert_eq!(attached_handle.try_response(), Some(Response::Cancelled));
        assert_eq!(table.len(), 0);
        assert!(matches!(
            table.attach_or_own(&key, || engine.lookup_class(&key), waiter(transform)),
            Attach::Owner(_)
        ));
    }
}
