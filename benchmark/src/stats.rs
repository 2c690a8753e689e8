//! Sample statistics: nearest-rank percentiles, open-loop due times,
//! time-averaged in-flight counts and the stage waterfall.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice; 0 for
/// an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_unstable_by(f64::total_cmp);
    values
}

/// Count, median and 99th percentile of a sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(values: Vec<f64>) -> Summary {
        let values = sorted(values);
        Summary {
            n: values.len(),
            p50: percentile(&values, 50.0),
            p99: percentile(&values, 99.0),
        }
    }
}

/// Due time, in nanoseconds after the phase start, of the `i`-th
/// operation of an open loop running at `rate` per second.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// Time-averaged number of operations in flight during `[from, to)`,
/// given each operation's `(start, end)` in the same unit.
pub fn avg_inflight(intervals: &[(u64, u64)], from: u64, to: u64) -> f64 {
    if to <= from {
        return 0.0;
    }
    let covered: u64 = intervals
        .iter()
        .map(|&(start, end)| end.min(to).saturating_sub(start.max(from)))
        .sum();
    covered as f64 / (to - from) as f64
}

/// The per-transaction stages, contiguous from due time to commit.
pub const STAGES: [&str; 7] = [
    "endorse", "assemble", "handoff", "gateway", "order", "gossip", "commit",
];

/// The eight boundaries of one transaction's seven stages, nanoseconds
/// since the run epoch: due, endorsed, assembled, received by the order
/// thread, dispatched to ordering, block visible, block at the measured
/// peer, committed.
pub type Boundaries = [u64; 8];

/// Mean stage durations and the mean end-to-end latency they partition.
#[derive(Clone, Debug, Default)]
pub struct Waterfall {
    pub n: usize,
    pub stage_mean_ms: [f64; 7],
    pub e2e_mean_ms: f64,
}

impl Waterfall {
    pub fn of(txs: &[Boundaries]) -> Waterfall {
        let mut w = Waterfall {
            n: txs.len(),
            ..Waterfall::default()
        };
        if txs.is_empty() {
            return w;
        }
        for b in txs {
            for s in 0..7 {
                // A boundary stamped by another thread can precede its
                // predecessor by a clock read; such a stage counts as
                // zero, and `sum_ratio` shows if that ever matters.
                w.stage_mean_ms[s] += b[s + 1].saturating_sub(b[s]) as f64 / 1e6;
            }
            w.e2e_mean_ms += b[7].saturating_sub(b[0]) as f64 / 1e6;
        }
        for s in &mut w.stage_mean_ms {
            *s /= txs.len() as f64;
        }
        w.e2e_mean_ms /= txs.len() as f64;
        w
    }

    /// Sum of the stage means over the mean end-to-end latency.
    pub fn sum_ratio(&self) -> f64 {
        if self.e2e_mean_ms == 0.0 {
            return 0.0;
        }
        self.stage_mean_ms.iter().sum::<f64>() / self.e2e_mean_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let s = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.p99), (3, 2.0, 3.0));
        assert_eq!(mean(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // 250/s: one operation every 4 ms, however late it was sent.
        assert_eq!(due_ns(0, 250.0), 0);
        assert_eq!(due_ns(1, 250.0), 4_000_000);
        assert_eq!(due_ns(250, 250.0), 1_000_000_000);
        // An operation due at 4 ms, sent 3 ms late, committed at 10 ms,
        // took 6 ms: the generator's lateness is part of its latency.
        let due = due_ns(1, 250.0);
        let committed = 10_000_000u64;
        assert_eq!((committed - due) as f64 / 1e6, 6.0);
    }

    #[test]
    fn inflight_is_time_averaged_over_the_window() {
        // One operation covers the whole window, one covers half of it,
        // one lies outside it.
        let intervals = [(0, 100), (50, 200), (100, 120)];
        assert_eq!(avg_inflight(&intervals, 0, 100), 1.5);
        assert_eq!(avg_inflight(&intervals, 100, 100), 0.0);
    }

    #[test]
    fn waterfall_stages_sum_to_the_span_they_partition() {
        let txs: Vec<Boundaries> = vec![
            [0, 10, 12, 13, 20, 120, 120, 150].map(|ms| ms * 1_000_000),
            [5, 6, 9, 9, 30, 100, 110, 205].map(|ms| ms * 1_000_000),
        ];
        let w = Waterfall::of(&txs);
        assert_eq!(w.n, 2);
        assert_eq!(w.e2e_mean_ms, 175.0);
        assert_eq!(w.stage_mean_ms[0], 5.5);
        assert_eq!(w.stage_mean_ms[5], 5.0);
        assert!((w.sum_ratio() - 1.0).abs() < 1e-12);
    }
}
