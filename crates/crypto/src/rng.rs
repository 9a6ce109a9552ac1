//! Secure random facade.
//!
//! Paper §3.5: "a secure pseudo-random sequence generator to generate
//! statistically random and unpredictable sequences of bits. Random numbers
//! are used to generate unique identifiers and random authenticators during
//! non-repudiation protocols."
//!
//! [`SecureRandom`] wraps a CSPRNG (`rand::rngs::StdRng`, ChaCha-based) and
//! is explicitly seedable so that *every* test and benchmark in the
//! workspace is deterministic; every caller supplies its seed.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use nonrep_types::ids::RunId;

/// A cryptographically secure pseudo-random generator.
#[derive(Debug)]
pub struct SecureRandom {
    inner: StdRng,
}

impl SecureRandom {
    /// Seeds from a 64-bit value (deterministic; tests and simulations).
    pub fn from_seed(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Seeds from a full 256-bit value — the generator's entire seed
    /// space, unlike the 64-bit convenience above. Used where the seed
    /// itself is key material (e.g. hierarchical subtree generation).
    pub fn from_seed32(seed: [u8; 32]) -> Self {
        Self {
            inner: StdRng::from_seed(seed),
        }
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// Returns `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut buf = vec![0u8; n];
        self.fill(&mut buf);
        buf
    }

    /// Returns a random 32-byte seed/secret.
    pub fn secret32(&mut self) -> [u8; 32] {
        let mut buf = [0u8; 32];
        self.fill(&mut buf);
        buf
    }

    /// Returns a random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Returns a uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Mints a fresh 128-bit protocol-run identifier (paper §3.2: "a unique
    /// request identifier, to distinguish between protocol runs").
    pub fn run_id(&mut self) -> RunId {
        let mut bytes = [0u8; 16];
        self.fill(&mut bytes);
        RunId::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = SecureRandom::from_seed(42);
        let mut b = SecureRandom::from_seed(42);
        assert_eq!(a.bytes(32), b.bytes(32));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn seeded32_rng_is_deterministic() {
        let mut a = SecureRandom::from_seed32([9u8; 32]);
        let mut b = SecureRandom::from_seed32([9u8; 32]);
        assert_eq!(a.bytes(32), b.bytes(32));
        let mut c = SecureRandom::from_seed32([10u8; 32]);
        assert_ne!(a.bytes(32), c.bytes(32));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SecureRandom::from_seed(1);
        let mut b = SecureRandom::from_seed(2);
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn run_ids_are_unique_in_practice() {
        let mut rng = SecureRandom::from_seed(7);
        let ids: HashSet<_> = (0..10_000).map(|_| rng.run_id()).collect();
        assert_eq!(ids.len(), 10_000);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SecureRandom::from_seed(3);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
        // Every residue is reachable.
        let seen: HashSet<u64> = (0..1000).map(|_| rng.below(7)).collect();
        assert_eq!(seen.len(), 7);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        SecureRandom::from_seed(0).below(0);
    }
}
