//! Link latency models.
//!
//! Used to account simulated time on the bus and in the discrete-event
//! simulator. The trust-domain comparison (experiment E3) reports
//! end-to-end interaction latency under these models: routing every message
//! via an inline TTP (paper Fig 3(a)) pays two hops where the direct domain
//! (Fig 3(c)) pays one.

use nonrep_crypto::rng::SecureRandom;

/// A one-way link latency distribution, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LatencyModel {
    /// Zero latency (pure message-count experiments).
    #[default]
    Zero,
    /// A fixed latency.
    Constant(u64),
    /// Uniform between `lo` and `hi` (inclusive).
    Uniform {
        /// Lower bound in ms.
        lo: u64,
        /// Upper bound in ms.
        hi: u64,
    },
    /// Typical data-centre LAN: uniform 1–2 ms.
    Lan,
    /// Typical inter-organisation WAN: uniform 20–80 ms.
    Wan,
}

impl LatencyModel {
    /// Samples a latency in milliseconds.
    pub fn sample(&self, rng: &mut SecureRandom) -> u64 {
        match *self {
            LatencyModel::Zero => 0,
            LatencyModel::Constant(ms) => ms,
            LatencyModel::Uniform { lo, hi } => {
                if hi <= lo {
                    lo
                } else {
                    lo + rng.below(hi - lo + 1)
                }
            }
            LatencyModel::Lan => 1 + rng.below(2),
            LatencyModel::Wan => 20 + rng.below(61),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_constant() {
        let mut rng = SecureRandom::from_seed(1);
        assert_eq!(LatencyModel::Zero.sample(&mut rng), 0);
        assert_eq!(LatencyModel::Constant(7).sample(&mut rng), 7);
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = SecureRandom::from_seed(2);
        for _ in 0..1000 {
            let v = LatencyModel::Uniform { lo: 5, hi: 9 }.sample(&mut rng);
            assert!((5..=9).contains(&v), "{v}");
        }
    }

    #[test]
    fn degenerate_uniform() {
        let mut rng = SecureRandom::from_seed(3);
        assert_eq!(LatencyModel::Uniform { lo: 4, hi: 4 }.sample(&mut rng), 4);
        // hi < lo treated as constant lo rather than panicking
        assert_eq!(LatencyModel::Uniform { lo: 4, hi: 2 }.sample(&mut rng), 4);
    }

    #[test]
    fn presets_within_documented_ranges() {
        let mut rng = SecureRandom::from_seed(4);
        for _ in 0..200 {
            assert!((1..=2).contains(&LatencyModel::Lan.sample(&mut rng)));
            assert!((20..=80).contains(&LatencyModel::Wan.sample(&mut rng)));
        }
    }

    #[test]
    fn wan_slower_than_lan_on_average() {
        let mut rng = SecureRandom::from_seed(5);
        let lan: u64 = (0..500).map(|_| LatencyModel::Lan.sample(&mut rng)).sum();
        let wan: u64 = (0..500).map(|_| LatencyModel::Wan.sample(&mut rng)).sum();
        assert!(wan > lan * 5);
    }
}
