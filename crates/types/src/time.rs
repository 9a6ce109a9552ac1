//! Timestamps and clocks.
//!
//! Evidence must be time-stamped (paper §3.5). The middleware never reads
//! the OS clock directly: it is handed a [`Clock`] so that tests and the
//! discrete-event network simulator can control time deterministically.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::codec::{CodecError, Decode, Encode, Reader, Writer};

/// A point in time, in milliseconds since an epoch.
///
/// A wall clock would count from the Unix epoch; a [`LogicalClock`]
/// counts from the start of the simulation. Evidence produced by different
/// organisations in one trust domain must use the same epoch — that is part
/// of the inter-organisation agreement, like the evidence format itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Millisecond count since the epoch.
    pub fn millis(&self) -> u64 {
        self.0
    }

    /// Returns this timestamp advanced by `ms` milliseconds.
    #[must_use]
    pub fn plus_millis(&self, ms: u64) -> Self {
        Self(self.0.saturating_add(ms))
    }

    /// Milliseconds elapsed from `earlier` to `self` (saturating at zero).
    pub fn since(&self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl Encode for Timestamp {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
}

impl Decode for Timestamp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self(r.get_u64()?))
    }
}

/// A source of timestamps.
///
/// Object-safe so middleware components can hold `Arc<dyn Clock>`.
pub trait Clock: Send + Sync + fmt::Debug {
    /// The current time.
    fn now(&self) -> Timestamp;
}

/// A manually-advanced logical clock, shared between components.
///
/// Cloning shares the underlying counter, so a simulator can advance time
/// for every component holding the clock.
#[derive(Debug, Clone, Default)]
pub struct LogicalClock {
    millis: Arc<AtomicU64>,
}

impl LogicalClock {
    /// Creates a logical clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ms` milliseconds, returning the new time.
    pub fn advance(&self, ms: u64) -> Timestamp {
        let new = self.millis.fetch_add(ms, Ordering::SeqCst) + ms;
        Timestamp(new)
    }
}

impl Clock for LogicalClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.millis.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_clock_advances() {
        let clock = LogicalClock::new();
        assert_eq!(clock.now(), Timestamp(0));
        assert_eq!(clock.advance(10), Timestamp(10));
        assert_eq!(clock.now(), Timestamp(10));
    }

    #[test]
    fn logical_clock_is_shared_between_clones() {
        let a = LogicalClock::new();
        let b = a.clone();
        a.advance(5);
        assert_eq!(b.now(), Timestamp(5));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(100);
        assert_eq!(t.plus_millis(50), Timestamp(150));
        assert_eq!(Timestamp(150).since(t), 50);
        assert_eq!(t.since(Timestamp(150)), 0);
        assert_eq!(t.to_string(), "t+100ms");
    }

    #[test]
    fn timestamp_codec_roundtrip() {
        let t = Timestamp(12345);
        assert_eq!(Timestamp::decode_from_slice(&t.encode_to_vec()).unwrap(), t);
    }
}
