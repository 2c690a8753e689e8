//! The YCSB zipfian key chooser the Fabcoin workloads draw accounts
//! from: hot accounts concentrate the working set the way the paper's
//! Fabcoin evaluation assumes.

/// YCSB-style zipfian generator over `0..items` with theta 0.99.
/// Rank 0 is the hottest item.
pub struct Zipfian {
    items: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow: f64,
}

impl Zipfian {
    /// Precomputes the distribution over `items` ranks.
    pub fn new(items: u64) -> Zipfian {
        let items = items.max(2);
        let theta = 0.99f64;
        let zetan: f64 = (1..=items).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            items,
            alpha,
            zetan,
            eta,
            half_pow: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// Draws a rank from `u`, a uniform sample in `[0, 1)`.
    pub fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.half_pow {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).powf(self.alpha);
        ((self.items as f64 * spread) as u64).min(self.items - 1)
    }
}
