//! Fault injection.
//!
//! [`FaultPlan`] implements the paper's failure model (§3.1, assumption 2):
//! *temporary* network and node failures, bounded in number. Drops are
//! probabilistic but each link is forced to deliver after
//! `max_consecutive_drops` consecutive failures, so with retries above that
//! bound delivery is guaranteed — the liveness assumption becomes a testable
//! mechanism rather than an axiom.
//!
//! Partitions and crashes are explicit (not probabilistic) so tests can
//! script failure scenarios: a partition or a crash persists until healed,
//! which *violates* the bounded-failure assumption while in force — exactly
//! the situation in which the paper only promises safety, not liveness.

use std::collections::{HashMap, HashSet};

use parking_lot::Mutex;

use nonrep_types::ids::OrgId;

/// What the fault plan decides for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver the message.
    Deliver,
    /// Drop the message (temporary failure).
    Drop,
    /// The link is partitioned.
    Partitioned,
    /// The destination is crashed.
    Crashed,
}

#[derive(Debug, Default)]
struct FaultState {
    /// Consecutive drops per directed link.
    consecutive: HashMap<(OrgId, OrgId), u32>,
    /// Attempt index per directed link (how many probabilistic judgments
    /// the link has consumed).
    attempts: HashMap<(OrgId, OrgId), u64>,
    crashed: HashSet<OrgId>,
    /// Partitioned unordered pairs.
    partitions: HashSet<(OrgId, OrgId)>,
}

/// Domain-separation salts for the keyed drop decisions.
const DROP_SALT: u64 = 0x6472_6f70; // "drop"
const RESPONSE_SALT: u64 = 0x7265_7370; // "resp"

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Keyed coin flip: a pure function of (seed, link, attempt, salt), so the
/// verdict for one link's nth attempt cannot depend on traffic elsewhere.
fn link_chance(seed: u64, from: &OrgId, to: &OrgId, attempt: u64, salt: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    let mut x = splitmix64(seed ^ fnv1a(from.as_str()));
    x = splitmix64(x ^ fnv1a(to.as_str()).rotate_left(17));
    x = splitmix64(x ^ attempt);
    x = splitmix64(x ^ salt);
    ((x >> 11) as f64 / (1u64 << 53) as f64) < p
}

/// Configurable fault injection shared by bus and simulator.
///
/// The default plan injects no faults.
#[derive(Debug)]
pub struct FaultPlan {
    drop_probability: f64,
    max_consecutive_drops: u32,
    /// Probability that a *response* (rather than the request) is lost,
    /// given a drop occurs. Exercises at-most-once ambiguity.
    response_drop_share: f64,
    seed: u64,
    state: Mutex<FaultState>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

fn pair_key(a: &OrgId, b: &OrgId) -> (OrgId, OrgId) {
    if a <= b {
        (a.clone(), b.clone())
    } else {
        (b.clone(), a.clone())
    }
}

impl FaultPlan {
    /// A plan that never injects faults.
    pub fn none() -> Self {
        Self {
            drop_probability: 0.0,
            max_consecutive_drops: 0,
            response_drop_share: 0.0,
            seed: 0,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// A plan with probabilistic drops, bounded per link.
    ///
    /// `seed` makes the plan deterministic: each verdict is a pure function
    /// of `(seed, sender, receiver, attempt)`, where `attempt` counts that
    /// directed link's own judgments. Traffic on other links — or the order
    /// in which concurrent scenarios interleave — cannot change a link's
    /// verdict sequence.
    ///
    /// # Panics
    ///
    /// Panics if `drop_probability` is not within `[0, 1)`. (Probability 1
    /// would contradict the bounded-failure model.)
    pub fn lossy(drop_probability: f64, max_consecutive_drops: u32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&drop_probability),
            "drop probability must be in [0,1)"
        );
        Self {
            drop_probability,
            max_consecutive_drops,
            response_drop_share: 0.3,
            seed,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// The per-link bound on consecutive drops. Retry budgets above this
    /// bound guarantee delivery on non-partitioned, non-crashed links.
    pub fn max_consecutive_drops(&self) -> u32 {
        self.max_consecutive_drops
    }

    /// Sets how often a drop manifests as a lost *response* instead of a
    /// lost request (see [`Verdict`] handling in the bus).
    #[must_use]
    pub fn with_response_drop_share(mut self, share: f64) -> Self {
        self.response_drop_share = share.clamp(0.0, 1.0);
        self
    }

    /// Marks `org` crashed. Messages to it fail until [`FaultPlan::recover`].
    pub fn crash(&self, org: &OrgId) {
        self.state.lock().crashed.insert(org.clone());
    }

    /// Recovers a crashed organisation.
    pub fn recover(&self, org: &OrgId) {
        self.state.lock().crashed.remove(org);
    }

    /// Partitions the link between `a` and `b` (both directions).
    pub fn partition(&self, a: &OrgId, b: &OrgId) {
        self.state.lock().partitions.insert(pair_key(a, b));
    }

    /// Heals the partition between `a` and `b`.
    pub fn heal(&self, a: &OrgId, b: &OrgId) {
        self.state.lock().partitions.remove(&pair_key(a, b));
    }

    /// Decides the fate of a message from `from` to `to`.
    ///
    /// Crash and partition checks come first (scripted failures); then the
    /// probabilistic drop, bounded per directed link.
    pub fn judge(&self, from: &OrgId, to: &OrgId) -> Verdict {
        let mut st = self.state.lock();
        if st.crashed.contains(to) || st.crashed.contains(from) {
            return Verdict::Crashed;
        }
        if st.partitions.contains(&pair_key(from, to)) {
            return Verdict::Partitioned;
        }
        if self.drop_probability <= 0.0 {
            return Verdict::Deliver;
        }
        let key = (from.clone(), to.clone());
        let attempt = st.attempts.entry(key.clone()).or_insert(0);
        let this_attempt = *attempt;
        *attempt += 1;
        let count = st.consecutive.get(&key).copied().unwrap_or(0);
        if count >= self.max_consecutive_drops {
            st.consecutive.insert(key, 0);
            return Verdict::Deliver;
        }
        if link_chance(
            self.seed,
            from,
            to,
            this_attempt,
            DROP_SALT,
            self.drop_probability,
        ) {
            *st.consecutive.entry(key).or_insert(0) += 1;
            Verdict::Drop
        } else {
            st.consecutive.insert(key, 0);
            Verdict::Deliver
        }
    }

    /// Whether the drop just decided for `from -> to` should be a lost
    /// response instead of a lost request.
    ///
    /// Keyed to the same link attempt that produced the drop (different
    /// domain salt), so the answer is as schedule-invariant as the drop
    /// verdict itself.
    pub fn drop_is_response_loss(&self, from: &OrgId, to: &OrgId) -> bool {
        if self.response_drop_share <= 0.0 {
            return false;
        }
        let st = self.state.lock();
        let attempt = st
            .attempts
            .get(&(from.clone(), to.clone()))
            .copied()
            .unwrap_or(0)
            .saturating_sub(1);
        link_chance(
            self.seed,
            from,
            to,
            attempt,
            RESPONSE_SALT,
            self.response_drop_share,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orgs() -> (OrgId, OrgId) {
        (OrgId::new("a"), OrgId::new("b"))
    }

    #[test]
    fn none_always_delivers() {
        let (a, b) = orgs();
        let plan = FaultPlan::none();
        for _ in 0..100 {
            assert_eq!(plan.judge(&a, &b), Verdict::Deliver);
        }
    }

    #[test]
    fn crash_and_recover() {
        let (a, b) = orgs();
        let plan = FaultPlan::none();
        plan.crash(&b);
        assert_eq!(plan.judge(&a, &b), Verdict::Crashed);
        // Crashed sender also cannot send.
        assert_eq!(plan.judge(&b, &a), Verdict::Crashed);
        plan.recover(&b);
        assert_eq!(plan.judge(&a, &b), Verdict::Deliver);
    }

    #[test]
    fn partition_is_symmetric_and_healable() {
        let (a, b) = orgs();
        let plan = FaultPlan::none();
        plan.partition(&a, &b);
        assert_eq!(plan.judge(&a, &b), Verdict::Partitioned);
        assert_eq!(plan.judge(&b, &a), Verdict::Partitioned);
        plan.heal(&a, &b);
        assert_eq!(plan.judge(&a, &b), Verdict::Deliver);
    }

    #[test]
    fn drops_are_bounded_per_link() {
        let (a, b) = orgs();
        // Very high drop probability but bound of 3.
        let plan = FaultPlan::lossy(0.99, 3, 42);
        let mut consecutive = 0u32;
        let mut max_seen = 0u32;
        for _ in 0..500 {
            match plan.judge(&a, &b) {
                Verdict::Drop => {
                    consecutive += 1;
                    max_seen = max_seen.max(consecutive);
                }
                Verdict::Deliver => consecutive = 0,
                other => panic!("unexpected verdict {other:?}"),
            }
        }
        assert!(max_seen <= 3, "observed {max_seen} consecutive drops");
    }

    #[test]
    fn lossy_plan_is_deterministic_per_seed() {
        let (a, b) = orgs();
        let run = |seed| {
            let plan = FaultPlan::lossy(0.5, 10, seed);
            (0..50).map(|_| plan.judge(&a, &b)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn links_have_independent_drop_budgets() {
        let a = OrgId::new("a");
        let b = OrgId::new("b");
        let c = OrgId::new("c");
        let plan = FaultPlan::lossy(0.99, 1, 1);
        // Exhaust a->b's budget.
        let _ = plan.judge(&a, &b);
        // a->c should still be able to drop (its own budget).
        let verdicts: Vec<_> = (0..10).map(|_| plan.judge(&a, &c)).collect();
        assert!(verdicts.contains(&Verdict::Drop));
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn probability_one_rejected() {
        let _ = FaultPlan::lossy(1.0, 3, 0);
    }

    #[test]
    fn verdicts_are_independent_of_cross_link_interleaving() {
        let a = OrgId::new("a");
        let b = OrgId::new("b");
        let c = OrgId::new("c");
        let d = OrgId::new("d");
        // Baseline: a->b judged alone.
        let quiet = FaultPlan::lossy(0.5, 4, 99);
        let baseline: Vec<_> = (0..40).map(|_| quiet.judge(&a, &b)).collect();
        // Same seed, but heavy interleaved traffic on other links.
        let noisy = FaultPlan::lossy(0.5, 4, 99);
        let mut interleaved = Vec::new();
        for i in 0..40 {
            for _ in 0..(i % 5) {
                let _ = noisy.judge(&c, &d);
                let _ = noisy.judge(&b, &c);
            }
            interleaved.push(noisy.judge(&a, &b));
        }
        assert_eq!(baseline, interleaved);
    }

    #[test]
    fn response_loss_is_keyed_per_link() {
        let a = OrgId::new("a");
        let b = OrgId::new("b");
        let c = OrgId::new("c");
        // Replaying the same judgments must replay the same response-loss
        // answers, and other links' judgments must not perturb them.
        let observe = |noise: bool| {
            let plan = FaultPlan::lossy(0.6, 8, 123).with_response_drop_share(0.5);
            let mut out = Vec::new();
            for _ in 0..40 {
                if noise {
                    let _ = plan.judge(&a, &c);
                }
                if plan.judge(&a, &b) == Verdict::Drop {
                    out.push(plan.drop_is_response_loss(&a, &b));
                }
            }
            out
        };
        assert_eq!(observe(false), observe(true));
        assert!(!observe(false).is_empty());
    }
}
