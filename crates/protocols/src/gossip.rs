//! Epoch-anchor gossip.
//!
//! A hash chain alone cannot catch two attacks by its *owner*: a forked
//! history (two internally-consistent chains, the favorable one shown at
//! dispute time) and truncation from the tail (a valid prefix submitted
//! as the whole log). Both become detectable the moment counterparties
//! hold the submitter's *epoch anchors* — the signed
//! [`EpochCommitment`]s its batched pipeline seals anyway. This module
//! spreads those anchors over the bus while the evidence is produced:
//!
//! - [`AnchorGossip`] scans a party's own log for sealed epoch records
//!   and delivers each commitment one-way to its counterparties. Gossip
//!   only *after* [`crate::party::Party::flush_evidence`] (or
//!   [`crate::scheduler::CommitmentScheduler::seal_durable`]): an anchor
//!   must never attest records a crash could still lose, or an honest
//!   party that crashes and recovers to its durable prefix would look
//!   like an evidence-withholder.
//! - [`AnchorGossipHandler`] receives them, accepting only anchors that
//!   the *sender itself* signed — a third party cannot frame an
//!   organisation by gossiping anchors on its behalf — and files them in
//!   an [`AnchorStore`].
//! - At dispute time the store's [`AnchorStore::snapshot`] — one
//!   [`Corroboration`] — is handed to `Adjudicator::corroborated_by`
//!   (crate `nonrep_core`), which corroborates every submission against
//!   the anchors its submitter previously distributed.
//!
//! Duplicate anchors are idempotent; *conflicting* anchors (same range,
//! different root, both genuinely signed) are deliberately both kept —
//! they are the proof of equivocation.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use nonrep_store::record::EpochCommitment;
use nonrep_types::codec::{Decode, Encode};
use nonrep_types::ids::{OrgId, ProtocolId, RunId};

use crate::coordinator::B2BCoordinator;
use crate::handler::ProtocolHandler;
use crate::message::ProtocolMessage;
use crate::party::Party;
use crate::session::ExchangeEngine;
use crate::ProtocolError;

/// Wire id of the anchor-gossip protocol.
pub const PROTOCOL_ID: &str = "anchor-gossip";

/// Message step carrying an [`EpochCommitment`].
const STEP_EPOCH: u32 = 1;

/// Anchors do not belong to any protocol run; they travel under the same
/// reserved run id as epoch records in the log.
fn gossip_run_id() -> RunId {
    RunId::from_u128(0)
}

/// What counterparties hold against each organisation at dispute time:
/// the anchors it gossiped, keyed by the organisation that signed (and is
/// alone bound by) them, in arrival order. Empty is legal.
#[derive(Debug, Clone, Default)]
pub struct Corroboration {
    /// Epoch anchors, each corroborating the windows of its signer.
    pub epochs: BTreeMap<OrgId, Vec<EpochCommitment>>,
}

/// Anchors collected from counterparties.
#[derive(Debug, Default)]
pub struct AnchorStore {
    held: Mutex<Corroboration>,
}

impl AnchorStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Files `commitment` under `org`. Exact duplicates (re-gossip after
    /// a retry) are dropped; a conflicting anchor for an already-seen
    /// range is kept — that conflict *is* the evidence.
    pub fn record(&self, org: &OrgId, commitment: EpochCommitment) {
        let mut held = self.held.lock();
        let list = held.epochs.entry(org.clone()).or_default();
        if !list.contains(&commitment) {
            list.push(commitment);
        }
    }

    /// Everything collected so far, ready for
    /// `Adjudicator::corroborated_by`.
    pub fn snapshot(&self) -> Corroboration {
        self.held.lock().clone()
    }
}

/// Receiving side: verifies and files gossiped anchors.
pub struct AnchorGossipHandler {
    engine: ExchangeEngine,
    store: Arc<AnchorStore>,
}

impl AnchorGossipHandler {
    /// Creates a handler filing verified anchors into `store`.
    pub fn new(party: Arc<Party>, store: Arc<AnchorStore>) -> Self {
        Self {
            engine: ExchangeEngine::local(party, PROTOCOL_ID),
            store,
        }
    }
}

impl ProtocolHandler for AnchorGossipHandler {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::new(PROTOCOL_ID)
    }

    fn process(&self, from: &OrgId, msg: ProtocolMessage) -> Result<(), ProtocolError> {
        self.engine.verify_frame_from(&msg, from)?;
        match msg.step {
            STEP_EPOCH => {
                let commitment = EpochCommitment::decode_from_slice(&msg.body)
                    .map_err(|e| ProtocolError::BadMessage(format!("undecodable anchor: {e}")))?;
                // The anchor must be signed by the sender itself: gossip
                // binds an organisation to *its own* history only.
                let key = self.engine.party().key_of(from)?;
                if !key.verify_digest(
                    &EpochCommitment::signing_digest(
                        commitment.lo,
                        commitment.hi,
                        &commitment.root,
                    ),
                    &commitment.signature,
                ) {
                    return Err(ProtocolError::BadSignature {
                        org: msg.sender.clone(),
                        what: "gossiped epoch anchor".into(),
                    });
                }
                self.store.record(&msg.sender, commitment);
            }
            step => {
                return Err(ProtocolError::BadMessage(format!(
                    "unknown anchor gossip step {step}"
                )));
            }
        }
        Ok(())
    }

    fn process_request(
        &self,
        _from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        Err(ProtocolError::BadMessage(format!(
            "anchor gossip is one-way (got request at step {})",
            msg.step
        )))
    }
}

/// Sending side: walks the party's own log for sealed epoch records and
/// delivers each commitment to the counterparties.
pub struct AnchorGossip {
    engine: ExchangeEngine,
    coordinator: Arc<B2BCoordinator>,
    /// Next log sequence number to scan.
    cursor: Mutex<u64>,
}

impl AnchorGossip {
    /// Creates a gossiper for `party` sending through `coordinator`.
    pub fn new(party: Arc<Party>, coordinator: Arc<B2BCoordinator>) -> Self {
        Self {
            engine: ExchangeEngine::local(party, PROTOCOL_ID),
            coordinator,
            cursor: Mutex::new(0),
        }
    }

    /// Gossips every epoch anchor sealed since the last call to each of
    /// `peers`, returning how many anchors were sent. Call after
    /// [`Party::flush_evidence`] so an anchor never attests records a
    /// crash could still lose.
    ///
    /// On a delivery failure the cursor stays at the failed anchor: the
    /// next call re-sends it (receivers deduplicate), so a transient
    /// outage delays gossip rather than losing it.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] if signing or delivery (after retries) fails.
    pub fn gossip_to(&self, peers: &[OrgId]) -> Result<usize, ProtocolError> {
        let mut cursor = self.cursor.lock();
        let log = self.engine.party().log();
        let len = log.len();
        let mut sent = 0;
        while *cursor < len {
            let records = log.snapshot_range(*cursor..len);
            for record in &records {
                if let Some(commitment) = EpochCommitment::from_record(record) {
                    let msg = self.engine.request_frame(
                        gossip_run_id(),
                        STEP_EPOCH,
                        commitment.encode_to_vec(),
                        &[],
                    )?;
                    for peer in peers {
                        self.coordinator.deliver(peer, &msg)?;
                    }
                    sent += 1;
                }
                *cursor = record.seq + 1;
            }
        }
        Ok(sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_crypto::digest::sha256;
    use nonrep_net::bus::LocalBus;
    use nonrep_net::retry::{ReliableRequester, RetryPolicy};
    use nonrep_types::time::LogicalClock;

    use crate::party::StaticKeyDirectory;
    use crate::tokens::TokenKind;

    fn world() -> (Arc<LocalBus>, LogicalClock, Arc<StaticKeyDirectory>) {
        (
            LocalBus::new(),
            LogicalClock::new(),
            Arc::new(StaticKeyDirectory::new()),
        )
    }

    fn coordinator(bus: &Arc<LocalBus>, org: &str) -> Arc<B2BCoordinator> {
        let coordinator = B2BCoordinator::new(
            org,
            ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
        );
        bus.register(OrgId::new(org), coordinator.clone());
        coordinator
    }

    #[test]
    fn anchors_flow_from_sealer_to_counterparty_store() {
        let (bus, clock, dir) = world();
        let alice = Party::quick_batched("alice", 1, &clock, &dir);
        let bob = Party::quick("bob", 2, &clock, &dir);
        let alice_coord = coordinator(&bus, "alice");
        let bob_coord = coordinator(&bus, "bob");
        let store = Arc::new(AnchorStore::new());
        bob_coord.register_handler(Arc::new(AnchorGossipHandler::new(
            bob.clone(),
            store.clone(),
        )));

        let run = alice.new_run_id();
        for i in 0..4u8 {
            let t = alice
                .issue_token(TokenKind::NroReq, run, sha256(&[i]))
                .unwrap();
            alice.store_token(&t).unwrap();
            if i % 2 == 1 {
                alice.flush_evidence().unwrap();
            }
        }

        let gossip = AnchorGossip::new(alice.clone(), alice_coord);
        let peers = [OrgId::new("bob")];
        assert_eq!(gossip.gossip_to(&peers).unwrap(), 2);
        // Idempotent: nothing new sealed, nothing re-sent.
        assert_eq!(gossip.gossip_to(&peers).unwrap(), 0);
        let held = store.snapshot().epochs[&OrgId::new("alice")].clone();
        assert_eq!(held.len(), 2);
        assert!(held.iter().all(|a| {
            let key = bob.key_of(&OrgId::new("alice")).unwrap();
            key.verify_digest(
                &EpochCommitment::signing_digest(a.lo, a.hi, &a.root),
                &a.signature,
            )
        }));
    }

    #[test]
    fn third_party_anchors_are_rejected() {
        let (bus, clock, dir) = world();
        let bob = Party::quick("bob", 2, &clock, &dir);
        let mallory = Party::quick("mallory", 66, &clock, &dir);
        let _bob_coord = coordinator(&bus, "bob");
        let store = Arc::new(AnchorStore::new());
        let handler = AnchorGossipHandler::new(bob.clone(), store.clone());

        // Mallory gossips an anchor "about alice": the commitment cannot
        // carry alice's signature, so it must not be filed.
        let root = sha256(b"fabricated");
        let commitment = EpochCommitment {
            lo: 0,
            hi: 9,
            root,
            signature: mallory
                .keys()
                .sign_digest(&EpochCommitment::signing_digest(0, 9, &root))
                .unwrap(),
        };
        let msg = ProtocolMessage::new(
            PROTOCOL_ID,
            gossip_run_id(),
            1,
            OrgId::new("alice"),
            commitment.encode_to_vec(),
        );
        // Claimed sender disagrees with the wire sender: rejected.
        assert!(handler
            .process(&OrgId::new("mallory"), msg.clone())
            .is_err());
        // An unsigned frame claiming alice as sender: rejected too.
        assert!(handler.process(&OrgId::new("alice"), msg).is_err());
        assert!(!store.snapshot().epochs.contains_key(&OrgId::new("alice")));
        // Honestly re-sent under mallory's own name, the anchor binds
        // *mallory* — never the org it gossips about.
        let own = mallory
            .sign_frame(
                ProtocolMessage::new(
                    PROTOCOL_ID,
                    gossip_run_id(),
                    1,
                    OrgId::new("mallory"),
                    commitment.encode_to_vec(),
                ),
                &[],
            )
            .unwrap();
        handler.process(&OrgId::new("mallory"), own).unwrap();
        assert!(!store.snapshot().epochs.contains_key(&OrgId::new("alice")));
        assert_eq!(store.snapshot().epochs[&OrgId::new("mallory")].len(), 1);
    }

    #[test]
    fn retired_super_epoch_step_is_refused_and_nothing_is_filed() {
        // Step 2 once carried sharded super-epoch anchors. A genuinely
        // signed frame at that step is now an unknown step: refused,
        // never filed.
        let (_bus, clock, dir) = world();
        let alice = Party::quick("alice", 1, &clock, &dir);
        let bob = Party::quick("bob", 2, &clock, &dir);
        let store = Arc::new(AnchorStore::new());
        let handler = AnchorGossipHandler::new(bob, store.clone());
        let root = sha256(b"retired");
        let commitment = EpochCommitment {
            lo: 0,
            hi: 3,
            root,
            signature: alice
                .keys()
                .sign_digest(&EpochCommitment::signing_digest(0, 3, &root))
                .unwrap(),
        };
        let msg = alice
            .sign_frame(
                ProtocolMessage::new(
                    PROTOCOL_ID,
                    gossip_run_id(),
                    2,
                    OrgId::new("alice"),
                    commitment.encode_to_vec(),
                ),
                &[],
            )
            .unwrap();
        assert_eq!(
            handler.process(&OrgId::new("alice"), msg),
            Err(ProtocolError::BadMessage(
                "unknown anchor gossip step 2".into()
            ))
        );
        assert!(store.snapshot().epochs.is_empty());
    }
}
