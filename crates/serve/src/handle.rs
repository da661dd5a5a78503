//! One-shot completion handles.
//!
//! Every accepted submission returns a [`RequestHandle`]; the worker that
//! finishes the request completes the paired [`Completer`] exactly once. The
//! channel is a mutexed slot plus a `Condvar` — deliberately lighter than a
//! full MPSC channel, since exactly one value ever crosses it. A `Completer`
//! dropped without completing (worker panic, service teardown) resolves its
//! handle with [`Response::Cancelled`], so a handle can never hang on a
//! request the service will not finish.
//!
//! Besides blocking, a caller can register a completion hook
//! ([`RequestHandle::on_complete`]) that the settling thread runs once,
//! after releasing the slot's lock — so a caller with many requests in
//! flight needs no thread parked per request.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use qsp_circuit::Circuit;
use qsp_core::{SynthesisError, SynthesisReport};

/// The terminal state of one request.
// A completed report (circuit + provenance + timings + trace) dwarfs the
// other variants, but it crosses the one-shot exactly once and boxing it
// would buy that move at the cost of an allocation per completion.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The provenance-rich synthesis report for the submitted request:
    /// circuit, `cnot_cost`, [`Provenance`](qsp_core::Provenance) (fresh
    /// solve / cache hit / in-flight dedup attach), per-stage timings and
    /// the effective resolved configuration.
    Completed(SynthesisReport),
    /// Synthesis failed (unsupported or invalid target).
    Failed(SynthesisError),
    /// The request's deadline expired before a worker started solving it;
    /// no solver time was spent on it.
    Timeout,
    /// The service shut down (or tore down) before the request was solved.
    Cancelled,
}

impl Response {
    /// The full synthesis report, if the request completed successfully.
    pub fn report(&self) -> Option<&SynthesisReport> {
        match self {
            Response::Completed(report) => Some(report),
            _ => None,
        }
    }

    /// The circuit, if the request completed successfully.
    pub fn circuit(&self) -> Option<&Circuit> {
        self.report().map(|report| &report.circuit)
    }

    /// Whether the request completed with a circuit.
    pub fn is_completed(&self) -> bool {
        matches!(self, Response::Completed(_))
    }
}

/// A completion hook: runs once, with the response, on the settling thread.
type Hook = Box<dyn FnOnce(Response) + Send>;

#[derive(Default)]
struct Slot {
    response: Option<Response>,
    hook: Option<Hook>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("response", &self.response)
            .field("hook", &self.hook.is_some())
            .finish()
    }
}

#[derive(Debug)]
struct OneShot {
    slot: Mutex<Slot>,
    ready: Condvar,
}

/// The caller's side of a one-shot completion: blocks until the service
/// resolves the request, or hands the response to a completion hook.
#[derive(Debug, Clone)]
pub struct RequestHandle {
    shot: Arc<OneShot>,
}

impl RequestHandle {
    /// Blocks until the request resolves.
    pub fn wait(&self) -> Response {
        let mut slot = self.shot.slot.lock().expect("one-shot poisoned");
        loop {
            if let Some(response) = slot.response.as_ref() {
                return response.clone();
            }
            slot = self.shot.ready.wait(slot).expect("one-shot poisoned");
        }
    }

    /// Blocks until the request resolves or `timeout` elapses; `None` means
    /// the request is still pending (the handle stays usable).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Response> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = self.shot.slot.lock().expect("one-shot poisoned");
        loop {
            if let Some(response) = slot.response.as_ref() {
                return Some(response.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .shot
                .ready
                .wait_timeout(slot, deadline - now)
                .expect("one-shot poisoned");
            slot = guard;
        }
    }

    /// The response if the request has already resolved, without blocking.
    pub fn try_response(&self) -> Option<Response> {
        self.shot
            .slot
            .lock()
            .expect("one-shot poisoned")
            .response
            .clone()
    }

    /// Runs `hook` once with the response when the request settles, on
    /// whichever thread settles it: a service worker, the thread calling
    /// [`SynthesisService::shutdown`](crate::SynthesisService::shutdown)
    /// with [`Shutdown::Abort`](crate::Shutdown::Abort), or the one that
    /// drops the request unresolved (the hook then sees
    /// [`Response::Cancelled`]). If the request has already settled, `hook`
    /// runs at once on the calling thread. The hook never runs while the
    /// one-shot's lock is held, and other clones of this handle keep
    /// answering [`wait`](Self::wait), [`wait_timeout`](Self::wait_timeout)
    /// and [`try_response`](Self::try_response).
    ///
    /// The hook runs on the service's own threads, so it must not block and
    /// must not panic: hand the response to a channel or a queue and return.
    pub fn on_complete(self, hook: impl FnOnce(Response) + Send + 'static) {
        let mut slot = self.shot.slot.lock().expect("one-shot poisoned");
        if let Some(response) = slot.response.clone() {
            drop(slot);
            hook(response);
            return;
        }
        slot.hook = Some(match slot.hook.take() {
            None => Box::new(hook),
            // Hooks registered through two clones both run, in order.
            Some(first) => Box::new(move |response: Response| {
                first(response.clone());
                hook(response);
            }),
        });
    }
}

/// The service's side of a one-shot completion. Completing consumes it;
/// dropping it unresolved cancels the paired handle.
#[derive(Debug)]
pub(crate) struct Completer {
    shot: Arc<OneShot>,
}

impl Completer {
    /// Resolves the paired handle. Exactly-once is enforced by consumption.
    pub(crate) fn complete(self, response: Response) {
        self.set(response);
    }

    fn set(&self, response: Response) {
        let mut slot = self.shot.slot.lock().expect("one-shot poisoned");
        if slot.response.is_some() {
            return;
        }
        let hook = slot.hook.take();
        let for_hook = hook.as_ref().map(|_| response.clone());
        slot.response = Some(response);
        drop(slot);
        self.shot.ready.notify_all();
        if let (Some(hook), Some(response)) = (hook, for_hook) {
            hook(response);
        }
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        // `complete` fills the slot before this runs; an unresolved drop
        // (panic unwind, teardown) must still release any waiter.
        self.set(Response::Cancelled);
    }
}

/// Creates a connected handle/completer pair.
pub(crate) fn oneshot() -> (RequestHandle, Completer) {
    let shot = Arc::new(OneShot {
        slot: Mutex::new(Slot::default()),
        ready: Condvar::new(),
    });
    (
        RequestHandle {
            shot: Arc::clone(&shot),
        },
        Completer { shot },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_unblocks_wait() {
        let (handle, completer) = oneshot();
        assert_eq!(handle.try_response(), None);
        let waiter = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.wait())
        };
        completer.complete(Response::Timeout);
        assert_eq!(waiter.join().unwrap(), Response::Timeout);
        // The response is sticky and repeatable.
        assert_eq!(handle.wait(), Response::Timeout);
        assert_eq!(handle.try_response(), Some(Response::Timeout));
        assert_eq!(handle.wait_timeout(Duration::ZERO), Some(Response::Timeout));
    }

    #[test]
    fn wait_timeout_returns_none_while_pending() {
        let (handle, completer) = oneshot();
        assert_eq!(handle.wait_timeout(Duration::from_millis(5)), None);
        completer.complete(Response::Cancelled);
        assert_eq!(
            handle.wait_timeout(Duration::from_secs(5)),
            Some(Response::Cancelled)
        );
    }

    #[test]
    fn dropping_an_unresolved_completer_cancels() {
        let (handle, completer) = oneshot();
        drop(completer);
        assert_eq!(handle.wait(), Response::Cancelled);
    }

    #[test]
    fn drop_after_complete_keeps_the_response() {
        let (handle, completer) = oneshot();
        completer.complete(Response::Timeout); // consumes + drops
        assert_eq!(handle.wait(), Response::Timeout);
    }

    /// Registers a hook that reports the response it got and what a clone
    /// of the handle sees from inside it — which would deadlock if the hook
    /// ran under the one-shot's lock.
    fn hook_channel(
        handle: RequestHandle,
    ) -> std::sync::mpsc::Receiver<(Response, Option<Response>)> {
        let (tx, rx) = std::sync::mpsc::channel();
        let clone = handle.clone();
        handle.on_complete(move |response| {
            tx.send((response, clone.try_response())).unwrap();
        });
        rx
    }

    #[test]
    fn the_hook_fires_once_with_the_response() {
        let (handle, completer) = oneshot();
        let fired = hook_channel(handle);
        assert!(fired.try_recv().is_err(), "nothing settled yet");
        completer.complete(Response::Timeout); // completes, then drops
        let (response, seen) = fired.try_recv().expect("the hook ran on completion");
        assert_eq!(response, Response::Timeout);
        assert_eq!(seen, Some(Response::Timeout));
        // The hook (and its sender) is gone: it cannot fire again.
        assert!(matches!(
            fired.try_recv(),
            Err(std::sync::mpsc::TryRecvError::Disconnected)
        ));
    }

    #[test]
    fn the_hook_fires_at_once_when_already_settled() {
        let (handle, completer) = oneshot();
        completer.complete(Response::Timeout);
        let caller = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        handle.on_complete(move |response| {
            tx.send((response, std::thread::current().id())).unwrap();
        });
        // Delivered before `on_complete` returned, on the calling thread.
        assert_eq!(rx.try_recv().unwrap(), (Response::Timeout, caller));
    }

    #[test]
    fn an_unresolved_drop_fires_the_hook_with_cancelled() {
        let (handle, completer) = oneshot();
        let fired = hook_channel(handle);
        drop(completer);
        let (response, seen) = fired.try_recv().expect("the drop settled the request");
        assert_eq!(response, Response::Cancelled);
        assert_eq!(seen, Some(Response::Cancelled));
    }

    #[test]
    fn clones_still_wait_after_the_hook_ran() {
        let (handle, completer) = oneshot();
        let clone = handle.clone();
        let fired = hook_channel(handle);
        let worker = std::thread::spawn(move || completer.complete(Response::Timeout));
        let (response, _) = fired.recv().unwrap();
        worker.join().unwrap();
        assert_eq!(response, Response::Timeout);
        // The hook took a copy; the slot stays sticky for every clone.
        assert_eq!(clone.wait(), Response::Timeout);
        assert_eq!(clone.wait_timeout(Duration::ZERO), Some(Response::Timeout));
        assert_eq!(clone.try_response(), Some(Response::Timeout));
    }
}
