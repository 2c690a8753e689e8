//! # fabric-gateway
//!
//! The client gateway: the system's front door (paper Sec. 3.2 puts
//! clients directly in front of endorsement and ordering; production
//! deployments put an admission layer there instead, because once work is
//! inside the pipeline, rejecting it is far more expensive than refusing
//! it at the edge).
//!
//! Two entry points share one admission core:
//!
//! * [`GatewayFront`] fronts a peer's `EndorsePipeline`: transaction-id
//!   LRU dedup *before* any signature verification, per-client token
//!   buckets, and intake saturation surfaced as explicit
//!   [`Admit::RetryAfter`]-style verdicts instead of silent queuing.
//! * [`Gateway`] fronts the ordering service: the same dedup + token
//!   buckets in front of a bounded [mempool](mempool) that dispatches
//!   strictly FIFO (so the gateway is observationally invisible when no
//!   limit trips) and evicts by fee-then-age only on overflow. The drain
//!   side feeds `OrderingCluster::broadcast_batch` with peek-then-remove
//!   semantics and dead-OSN failover, and the deliver-credit signal from
//!   the commit side (`DeliverMux::credits`, PR 4) propagates through
//!   [`Gateway::report_downstream`] so overload sheds at the edge as
//!   `RetryAfter` rather than inside endorsement/ordering.
//!
//! All timing is explicit (`now_ms` arguments, [`SimClock`]): the gateway
//! never reads a wall clock, so every battery and bench that drives it is
//! deterministic.

mod admission;
mod front;
mod gateway;
mod mempool;

pub use front::{FrontConfig, FrontStats, FrontSubmit, GatewayFront};
pub use gateway::{Admit, DrainReport, Gateway, GatewayConfig, GatewayStats, ShedReason};

/// A deterministic millisecond clock for driving the gateway in tests,
/// batteries, and benches. The gateway itself never reads time; callers
/// pass `now_ms` explicitly, and this is the conventional source.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimClock {
    now_ms: u64,
}

impl SimClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Advances the clock.
    pub fn advance(&mut self, ms: u64) {
        self.now_ms += ms;
    }
}
