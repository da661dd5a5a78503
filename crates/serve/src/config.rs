//! Service and scheduler tunables.

use std::time::Duration;

use qsp_core::{BatchOptions, WorkflowConfig};

use crate::tenant::TenantPolicy;

/// Micro-batching policy of the service's worker pool.
///
/// A worker drains the submission queue into *micro-batches*: once at least
/// one request is queued, the drain waits up to [`max_wait`] for the batch to
/// fill to [`max_batch`] requests, then takes whatever arrived. Inside a
/// drain, requests are processed in earliest-deadline-first order.
///
/// [`max_wait`]: SchedulerConfig::max_wait
/// [`max_batch`]: SchedulerConfig::max_batch
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct SchedulerConfig {
    /// Maximum requests one drain hands to a worker. Smaller batches lower
    /// the latency a slow request can impose on the ones drained behind it;
    /// larger batches amortize queue locking under heavy load.
    pub max_batch: usize,
    /// How long a drain waits for its batch to fill once the first request
    /// is available. Zero disables the wait entirely (pure work-conserving
    /// draining).
    pub max_wait: Duration,
    /// Worker threads; `0` uses the machine's available parallelism.
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            workers: 0,
        }
    }
}

impl SchedulerConfig {
    /// The effective worker count (at least 1).
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Sets the maximum micro-batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the micro-batch fill wait.
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// Full configuration of a [`SynthesisService`](crate::SynthesisService).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Bound of the submission queue. A submission that would overflow it is
    /// rejected with `Submit::Rejected` and
    /// [`RejectReason::QueueFull`](crate::RejectReason::QueueFull) —
    /// backpressure is explicit, never blocking. A capacity of `0` rejects
    /// every submission (useful to drain a deployment).
    pub queue_capacity: usize,
    /// Micro-batching and worker-pool policy.
    pub scheduler: SchedulerConfig,
    /// Workflow configuration of the underlying solver.
    pub workflow: WorkflowConfig,
    /// Cache sharding/eviction, keying budget and observability of the
    /// underlying batch engine (the `threads` field is ignored; parallelism
    /// comes from [`SchedulerConfig::workers`]).
    pub batch: BatchOptions,
    /// Multi-tenant admission control and weighted-fair drain policy. The
    /// default (no configured tenants) is the pre-tenancy behaviour: every
    /// request lands on the built-in default tenant, unthrottled.
    pub tenants: TenantPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            scheduler: SchedulerConfig::default(),
            workflow: WorkflowConfig::default(),
            batch: BatchOptions::default(),
            tenants: TenantPolicy::default(),
        }
    }
}

impl ServiceConfig {
    /// Sets the submission-queue bound.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Sets the micro-batching and worker-pool policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the base workflow configuration requests resolve against.
    pub fn with_workflow(mut self, workflow: WorkflowConfig) -> Self {
        self.workflow = workflow;
        self
    }

    /// Sets the cache sharding/eviction, keying budget and observability of
    /// the underlying batch engine.
    pub fn with_batch(mut self, batch: BatchOptions) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the multi-tenant admission and weighted-fair drain policy.
    pub fn with_tenants(mut self, tenants: TenantPolicy) -> Self {
        self.tenants = tenants;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = ServiceConfig::default();
        assert_eq!(config.queue_capacity, 1024);
        assert_eq!(config.scheduler.max_batch, 16);
        assert!(config.scheduler.max_wait > Duration::ZERO);
        assert!(config.scheduler.resolved_workers() >= 1);
        assert_eq!(
            SchedulerConfig {
                workers: 3,
                ..SchedulerConfig::default()
            }
            .resolved_workers(),
            3
        );
    }
}
