//! The admission core shared by both gateway faces: transaction-id dedup
//! (the cheapest rejection, taken before any signature is verified) and
//! per-client token buckets, both built from `fabric_primitives::flow`.
//! Tokens are kept in milli-tokens so that a rate of `r` tokens/second
//! refills exactly `r` milli-tokens per millisecond — integer math, no
//! floats, no wall clock, no drift, fully deterministic.

use std::collections::HashMap;

use fabric_primitives::flow::{DedupWindow, TokenBucket};
use fabric_primitives::ids::TxId;

const TOKEN: u64 = 1000;

/// Client buckets tracked before full ones are pruned. The map is keyed
/// by *unverified* creator bytes, so without a bound a client cycling
/// forged certificates grows it at will.
const BUCKETS_PRUNE_AT: usize = 4096;

/// Per-client admission state: the LRU dedup window plus one token
/// bucket per client key (creator certificate bytes).
pub(crate) struct Admission {
    rate_per_sec: u64,
    burst_milli: u64,
    buckets: HashMap<Vec<u8>, TokenBucket>,
    /// Map size that triggers the next prune of full buckets.
    prune_at: usize,
    pub(crate) dedup: DedupWindow<TxId>,
}

/// Verdict of the pre-checks (dedup, rate): pass does not yet consume a
/// token — call [`Admission::commit`] once the rest of admission holds.
pub(crate) enum Gate {
    Pass,
    Duplicate,
    /// Rate limited; retry after this many milliseconds.
    Limited { after_ms: u64 },
}

impl Admission {
    pub(crate) fn new(rate_per_sec: u64, burst: u64, dedup_capacity: usize) -> Self {
        Admission {
            rate_per_sec,
            burst_milli: burst.max(1) * TOKEN,
            buckets: HashMap::new(),
            prune_at: BUCKETS_PRUNE_AT,
            dedup: DedupWindow::new(dedup_capacity),
        }
    }

    /// Client buckets currently tracked.
    pub(crate) fn tracked_clients(&self) -> usize {
        self.buckets.len()
    }

    fn refill(&mut self, client: &[u8], now_ms: u64) -> &mut TokenBucket {
        let (rate, burst) = (self.rate_per_sec, self.burst_milli);
        if self.buckets.len() >= self.prune_at {
            // A bucket that has refilled to `burst` is indistinguishable
            // from a fresh one: forget it. What survives is bounded by
            // the clients that spent a token within the last
            // `burst / rate` seconds; doubling the trigger past them
            // keeps the sweep amortized O(1) per submission.
            self.buckets.retain(|_, bucket| {
                bucket.refill(now_ms, rate, burst);
                bucket.deficit(burst) > 0
            });
            self.prune_at = (self.buckets.len() * 2).max(BUCKETS_PRUNE_AT);
        }
        let bucket = self
            .buckets
            .entry(client.to_vec())
            .or_insert(TokenBucket::full(burst, now_ms));
        bucket.refill(now_ms, rate, burst);
        bucket
    }

    /// Dedup + rate pre-checks, cheapest first. Consumes nothing.
    pub(crate) fn check(&mut self, tx_id: &TxId, client: &[u8], now_ms: u64) -> Gate {
        if self.dedup.check(tx_id) {
            return Gate::Duplicate;
        }
        if self.rate_per_sec == 0 {
            return Gate::Pass;
        }
        let rate = self.rate_per_sec;
        match self.refill(client, now_ms).deficit(TOKEN) {
            0 => Gate::Pass,
            // Exact wait until the next whole token accrues.
            deficit => Gate::Limited { after_ms: deficit.div_ceil(rate) },
        }
    }

    /// Consumes one token and records the id; call only after
    /// [`Admission::check`] returned [`Gate::Pass`] and every other
    /// admission condition held.
    pub(crate) fn commit(&mut self, tx_id: TxId, client: &[u8], now_ms: u64) {
        if self.rate_per_sec > 0 {
            self.refill(client, now_ms).try_take(TOKEN);
        }
        self.dedup.insert(tx_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u8) -> TxId {
        TxId(fabric_crypto::digest(&[n]))
    }

    #[test]
    fn bucket_refills_at_rate() {
        // 10 tokens/sec, burst 2.
        let mut adm = Admission::new(10, 2, 64);
        let c = b"client".as_slice();
        for n in 0..2u8 {
            assert!(matches!(adm.check(&id(n), c, 0), Gate::Pass));
            adm.commit(id(n), c, 0);
        }
        // Burst spent: next token is 100 ms away.
        match adm.check(&id(9), c, 0) {
            Gate::Limited { after_ms } => assert_eq!(after_ms, 100),
            _ => panic!("expected rate limit"),
        }
        // Waiting exactly the hint succeeds.
        assert!(matches!(adm.check(&id(9), c, 100), Gate::Pass));
        // Buckets are per client: another client is unaffected.
        assert!(matches!(adm.check(&id(10), b"other", 0), Gate::Pass));
    }

    #[test]
    fn duplicate_checked_before_rate() {
        let mut adm = Admission::new(1, 1, 64);
        adm.commit(id(1), b"c", 0);
        // The duplicate verdict wins even with an empty bucket.
        assert!(matches!(adm.check(&id(1), b"c", 0), Gate::Duplicate));
    }
}
