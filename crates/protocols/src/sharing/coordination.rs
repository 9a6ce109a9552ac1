//! The non-repudiable state coordination protocol.
//!
//! One coordination round (run) moves a shared object from version `v` to
//! version `v+1`, or leaves it untouched:
//!
//! ```text
//! 1  P → each member : proposal, Proposal-token    ┐ SharingChoreography
//! 2  member → P      : signed vote (accept/reject) ┘   = Fan<1, 2,
//! 3  P → each member : decision + all signed votes ┐     Fan<3, 4, End>>
//! 4  member → P      : ack                         ┘
//! ```
//!
//! The proposer's side is the [`SharingChoreography`] session type on the
//! shared [`ExchangeEngine`]: each round signs one frame and delivers it
//! to every other member in turn.
//!
//! Members do **not** trust the proposer's word on the outcome: the
//! decision message carries every member's *signed* vote, and each member
//! re-verifies all of them before applying. An update is applied iff every
//! member other than the proposer produced a verifiable `accept` vote over
//! exactly this proposal digest — realising the paper's safety property
//! "no invalid changes to shared information whatever the behaviour of
//! participants" (§4). One check, `check_vote_set`, judges every vote
//! set: the proposer's, each member's and a joiner's.
//!
//! Rounds for the same object are serialised by the `base_version` check:
//! a proposal built against anything but the member's current version is
//! voted down as stale.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use nonrep_crypto::digest::{sha256_encoded, Digest};
use nonrep_store::StateStore;
use nonrep_types::codec::{decode_seq, encode_seq, CodecError, Decode, Encode, Reader, Writer};
use nonrep_types::ids::{GroupId, OrgId, ProtocolId, RunId};

use crate::handler::ProtocolHandler;
use crate::message::ProtocolMessage;
use crate::party::Party;
use crate::scheduler::TokenSpec;
use crate::session::{Client, End, ExchangeEngine, Fan};
use crate::sharing::GroupRegistry;
use crate::tokens::{NrToken, TokenKind};
use crate::{B2BCoordinator, ProtocolError};

/// Protocol id of the sharing coordination protocol.
pub const PROTOCOL_ID: &str = "nr-sharing";

/// The proposer's choreography: the proposal fanned out to every other
/// member for its vote (steps 1/2), then the decision for its ack (steps
/// 3/4).
pub type SharingChoreography = Fan<1, 2, Fan<3, 4, End>>;

const STEP_PROPOSE: u32 = 1;
const STEP_VOTE: u32 = 2;
const STEP_DECISION: u32 = 3;
const STEP_ACK: u32 = 4;

/// A proposed update to a shared object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProposalBody {
    /// The sharing group.
    pub group: GroupId,
    /// The shared object's key.
    pub object: String,
    /// The number of agreed versions the proposer has seen (the proposal
    /// creates version `base_version`, 0-based).
    pub base_version: u64,
    /// The full proposed state.
    pub new_state: Vec<u8>,
    /// The proposing organisation.
    pub proposer: OrgId,
}

impl ProposalBody {
    /// The digest every token and vote in this round is bound to.
    pub fn digest(&self) -> Digest {
        sha256_encoded(|w| self.encode(w))
    }
}

impl Encode for ProposalBody {
    fn encode(&self, w: &mut Writer) {
        self.group.encode(w);
        w.put_str(&self.object);
        w.put_u64(self.base_version);
        w.put_bytes(&self.new_state);
        self.proposer.encode(w);
    }
}

impl Decode for ProposalBody {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            group: GroupId::decode(r)?,
            object: r.get_string()?,
            base_version: r.get_u64()?,
            new_state: r.get_bytes()?.to_vec(),
            proposer: OrgId::decode(r)?,
        })
    }
}

/// A validator's decision, signed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedVote {
    /// The voting organisation.
    pub voter: OrgId,
    /// `true` = accept.
    pub accept: bool,
    /// Human-readable justification (audit trail).
    pub reason: String,
    /// Digest of the proposal voted on.
    pub proposal_digest: Digest,
    /// Voter's token over the vote content.
    pub token: NrToken,
}

impl SignedVote {
    /// The digest the vote token must be signed over.
    fn vote_digest(voter: &OrgId, accept: bool, reason: &str, proposal_digest: &Digest) -> Digest {
        sha256_encoded(|w| {
            w.put_str("nonrep.vote.v1");
            voter.encode(w);
            w.put_bool(accept);
            w.put_str(reason);
            proposal_digest.encode(w);
        })
    }

    /// Verifies the vote's internal consistency and signature.
    pub fn verify(&self, voter_key: &nonrep_crypto::sig::VerifyingKey, run: RunId) -> bool {
        let expected = Self::vote_digest(
            &self.voter,
            self.accept,
            &self.reason,
            &self.proposal_digest,
        );
        self.token.issuer == self.voter
            && self
                .token
                .verify(voter_key, Some(TokenKind::Vote), Some(run), Some(&expected))
    }
}

impl Encode for SignedVote {
    fn encode(&self, w: &mut Writer) {
        self.voter.encode(w);
        w.put_bool(self.accept);
        w.put_str(&self.reason);
        self.proposal_digest.encode(w);
        self.token.encode(w);
    }
}

impl Decode for SignedVote {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            voter: OrgId::decode(r)?,
            accept: r.get_bool()?,
            reason: r.get_string()?,
            proposal_digest: Digest::decode(r)?,
            token: NrToken::decode(r)?,
        })
    }
}

/// Step-3 body: the decision with all signed votes (and the proposal, so
/// the message is self-contained). The proposer's token over the
/// decision digest rides the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionBody {
    /// `true` iff every vote accepted.
    pub accepted: bool,
    /// The proposal being decided.
    pub proposal: ProposalBody,
    /// Every member's signed vote.
    pub votes: Vec<SignedVote>,
}

impl DecisionBody {
    /// The digest the decision token is signed over.
    pub fn decision_digest(
        accepted: bool,
        proposal_digest: &Digest,
        votes: &[SignedVote],
    ) -> Digest {
        sha256_encoded(|w| {
            w.put_str("nonrep.decision.v1");
            w.put_bool(accepted);
            proposal_digest.encode(w);
            encode_seq(votes, w);
        })
    }
}

impl Encode for DecisionBody {
    fn encode(&self, w: &mut Writer) {
        w.put_bool(self.accepted);
        self.proposal.encode(w);
        encode_seq(&self.votes, w);
    }
}

impl Decode for DecisionBody {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            accepted: r.get_bool()?,
            proposal: ProposalBody::decode(r)?,
            votes: decode_seq(r)?,
        })
    }
}

/// Checks the vote set of one round: exactly one vote from each of
/// `voters`, each over the `proposal` digest in `run` and verifying under
/// its voter's key. Returns whether every voter accepted.
///
/// # Errors
///
/// [`ProtocolError::BadMessage`] if the votes are not one per voter,
/// [`ProtocolError::BadSignature`] for a vote that fails its check,
/// [`ProtocolError::UnknownKey`] for a voter with no key.
pub(crate) fn check_vote_set(
    party: &Party,
    run: RunId,
    proposal: &Digest,
    voters: &BTreeSet<&OrgId>,
    votes: &[SignedVote],
) -> Result<bool, ProtocolError> {
    let cast: BTreeSet<&OrgId> = votes.iter().map(|v| &v.voter).collect();
    if votes.len() != voters.len() || cast != *voters {
        return Err(ProtocolError::BadMessage(
            "vote set does not match membership".into(),
        ));
    }
    for vote in votes {
        let key = party.key_of(&vote.voter)?;
        if vote.proposal_digest != *proposal || !vote.verify(&key, run) {
            return Err(ProtocolError::BadSignature {
                org: vote.voter.clone(),
                what: "vote".into(),
            });
        }
    }
    Ok(votes.iter().all(|v| v.accept))
}

/// The proposer's view of a finished round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordinationOutcome {
    /// The run identifier.
    pub run_id: RunId,
    /// Whether the update was unanimously accepted and applied.
    pub accepted: bool,
    /// The version the update became, if accepted.
    pub version: Option<u64>,
    /// Every member's signed vote.
    pub votes: Vec<SignedVote>,
}

/// Application-specific validation of proposed updates (the "state
/// validators … implemented as session beans" of paper §4.3).
pub trait UpdateValidator: Send + Sync {
    /// Validates `proposed` as the next state of `object` given `current`.
    ///
    /// # Errors
    ///
    /// A human-readable rejection reason, which becomes the (signed,
    /// attributable) veto.
    fn validate(&self, object: &str, current: Option<&[u8]>, proposed: &[u8])
        -> Result<(), String>;
}

impl<F> UpdateValidator for F
where
    F: Fn(&str, Option<&[u8]>, &[u8]) -> Result<(), String> + Send + Sync,
{
    fn validate(
        &self,
        object: &str,
        current: Option<&[u8]>,
        proposed: &[u8],
    ) -> Result<(), String> {
        self(object, current, proposed)
    }
}

/// One organisation's NR-sharing node: proposes updates and votes on and
/// applies others' proposals. Register as the `nr-sharing` handler.
pub struct SharingMember {
    engine: ExchangeEngine,
    store: Arc<StateStore>,
    groups: Arc<GroupRegistry>,
    validators: Mutex<Vec<Arc<dyn UpdateValidator>>>,
    /// The proposal digest of each run this node voted to accept. Memory
    /// only: the logged vote is a digest without its body, so the log
    /// cannot yet say which proposal was accepted (ROADMAP 3(b)).
    pending: Mutex<HashMap<RunId, Digest>>,
}

impl fmt::Debug for SharingMember {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharingMember({})", self.party().org())
    }
}

impl SharingMember {
    /// Creates a sharing node proposing through `coordinator`.
    pub fn new(
        party: Arc<Party>,
        coordinator: Arc<B2BCoordinator>,
        store: Arc<StateStore>,
        groups: Arc<GroupRegistry>,
    ) -> Arc<Self> {
        Arc::new(Self {
            engine: ExchangeEngine::new(party, coordinator, PROTOCOL_ID),
            store,
            groups,
            validators: Mutex::new(Vec::new()),
            pending: Mutex::new(HashMap::new()),
        })
    }

    /// Adds an application validator consulted on every remote proposal.
    pub fn add_validator(&self, validator: Arc<dyn UpdateValidator>) {
        self.validators.lock().push(validator);
    }

    /// This node's replica store.
    pub fn store(&self) -> &Arc<StateStore> {
        &self.store
    }

    /// This node's group registry.
    pub fn groups(&self) -> &Arc<GroupRegistry> {
        &self.groups
    }

    /// This node's party identity.
    pub fn party(&self) -> &Arc<Party> {
        self.engine.party()
    }

    /// The engine driving this node's rounds.
    pub(crate) fn engine(&self) -> &ExchangeEngine {
        &self.engine
    }

    /// The number of agreed versions of `object`: the version a proposal
    /// built now creates.
    fn next_version(&self, object: &str) -> u64 {
        self.store.latest(object).map_or(0, |(v, _)| v + 1)
    }

    /// The latest agreed state of `object`, if any.
    pub fn current_state(&self, object: &str) -> Option<Vec<u8>> {
        let (_v, digest) = self.store.latest(object)?;
        self.store.get(&digest)
    }

    /// Proposes `new_state` for `object` to every member of `group`.
    ///
    /// Runs the full coordination round ([`SharingChoreography`]); on
    /// unanimous acceptance the update is applied locally (remote replicas
    /// applied it during step 3).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] if the round cannot complete (communication,
    /// evidence, or membership failure). A *vetoed* round is **not** an
    /// error: it returns `accepted == false` with the signed veto votes.
    pub fn propose(
        &self,
        group: &GroupId,
        object: &str,
        new_state: Vec<u8>,
    ) -> Result<CoordinationOutcome, ProtocolError> {
        self.coordinate(group, object, new_state)
            .map(|(outcome, _, _)| outcome)
    }

    /// [`SharingMember::propose`], also returning the decision the round
    /// sent and its digest (a welcome carries both).
    pub(crate) fn coordinate(
        &self,
        group: &GroupId,
        object: &str,
        new_state: Vec<u8>,
    ) -> Result<(CoordinationOutcome, DecisionBody, Digest), ProtocolError> {
        let party = self.party();
        let members = self.groups.members(group)?;
        if !members.contains(party.org()) {
            return Err(ProtocolError::Rejected(
                "proposer is not a group member".into(),
            ));
        }
        let peers: Vec<OrgId> = members.into_iter().filter(|m| m != party.org()).collect();
        let run_id = party.new_run_id();
        let proposal = ProposalBody {
            group: group.clone(),
            object: object.to_owned(),
            base_version: self.next_version(object),
            new_state,
            proposer: party.org().clone(),
        };
        let digest = proposal.digest();
        let session = self.engine.session::<Client, SharingChoreography>(run_id);

        // Steps 1/2: collect signed votes from every other member.
        let proposal_token = TokenSpec::new(TokenKind::Proposal, run_id, digest);
        let (replies, session) =
            session.fan(&peers, proposal.encode_to_vec(), &[proposal_token])?;
        let votes = replies
            .iter()
            .map(|reply| self.engine.decode_body(&reply.body))
            .collect::<Result<Vec<SignedVote>, _>>()?;
        let accepted = check_vote_set(party, run_id, &digest, &peers.iter().collect(), &votes)?;
        for vote in &votes {
            party.store_token(&vote.token)?;
        }

        // Steps 3/4: disseminate the decision with all signed votes.
        let decision_digest = DecisionBody::decision_digest(accepted, &digest, &votes);
        let decision = DecisionBody {
            accepted,
            proposal,
            votes,
        };
        let decision_token = TokenSpec::new(TokenKind::Decision, run_id, decision_digest);
        let (_acks, session) = session.fan(&peers, decision.encode_to_vec(), &[decision_token])?;
        session.finish()?;

        // Apply locally last (remote replicas applied during step 3).
        let version = accepted.then(|| {
            let (v, _) = self
                .store
                .record_version(object, &decision.proposal.new_state);
            self.apply_side_effects(&decision.proposal);
            v
        });
        let outcome = CoordinationOutcome {
            run_id,
            accepted,
            version,
            votes: decision.votes.clone(),
        };
        Ok((outcome, decision, decision_digest))
    }

    /// Group-object side effects (membership updates) after an applied
    /// proposal; see [`crate::sharing::membership`].
    fn apply_side_effects(&self, proposal: &ProposalBody) {
        if let Some(members) =
            crate::sharing::membership::decode_group_state(&proposal.object, &proposal.new_state)
        {
            self.groups.set(proposal.group.clone(), members);
        }
    }

    fn handle_propose(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        self.engine.verify_frame_from(&msg, from)?;
        let proposal: ProposalBody = self.engine.decode_body(&msg.body)?;
        if proposal.proposer != *from {
            return Err(ProtocolError::BadMessage(
                "proposal proposer is not the sender".into(),
            ));
        }
        let digest = proposal.digest();
        let party = self.party();
        party.absorb_carried(&msg, [(TokenKind::Proposal, digest)])?;

        // Membership check: both proposer and this node must be members.
        let members = self.groups.members(&proposal.group)?;
        if !members.contains(from) || !members.contains(party.org()) {
            return Err(ProtocolError::Rejected(
                "proposer or validator not in group".into(),
            ));
        }

        // Decide the vote: staleness first, then application validators.
        let local_version = self.next_version(&proposal.object);
        let (accept, reason) = if proposal.base_version != local_version {
            (
                false,
                format!(
                    "stale proposal: base {} but replica at {}",
                    proposal.base_version, local_version
                ),
            )
        } else {
            let current = self.current_state(&proposal.object);
            let verdict = self
                .validators
                .lock()
                .iter()
                .map(|v| v.validate(&proposal.object, current.as_deref(), &proposal.new_state))
                .find(Result::is_err);
            match verdict {
                Some(Err(why)) => (false, why),
                _ => (true, "ok".to_owned()),
            }
        };

        let vote_digest = SignedVote::vote_digest(party.org(), accept, &reason, &digest);
        let token = self
            .engine
            .issue_and_store(TokenKind::Vote, msg.run_id, vote_digest)?;
        let vote = SignedVote {
            voter: party.org().clone(),
            accept,
            reason,
            proposal_digest: digest,
            token,
        };
        if accept {
            self.pending.lock().insert(msg.run_id, digest);
        }
        Ok(self
            .engine
            .open_frame(msg.run_id, STEP_VOTE, vote.encode_to_vec()))
    }

    fn handle_decision(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        self.engine.verify_frame_from(&msg, from)?;
        let decision: DecisionBody = self.engine.decode_body(&msg.body)?;
        if decision.proposal.proposer != *from {
            return Err(ProtocolError::BadMessage(
                "decision not from the proposer".into(),
            ));
        }
        let digest = decision.proposal.digest();
        // If we voted on this run, the decided proposal must be the one we
        // saw (the proposer cannot substitute content after the votes).
        if self
            .pending
            .lock()
            .get(&msg.run_id)
            .is_some_and(|voted| *voted != digest)
        {
            return Err(ProtocolError::BadMessage(
                "decision proposal differs from the voted proposal".into(),
            ));
        }
        // Verify the proposer's decision token.
        let decision_digest =
            DecisionBody::decision_digest(decision.accepted, &digest, &decision.votes);
        let party = self.party();
        party.absorb_carried(&msg, [(TokenKind::Decision, decision_digest)])?;
        // Independently verify every vote; the proposer's claim of
        // unanimity is never taken on trust.
        let members = self.groups.members(&decision.proposal.group)?;
        let voters = members.iter().filter(|m| *m != from).collect();
        let all_accept = check_vote_set(party, msg.run_id, &digest, &voters, &decision.votes)?;
        if decision.accepted != all_accept {
            return Err(ProtocolError::BadMessage(
                "decision flag contradicts the signed votes".into(),
            ));
        }

        // Apply if unanimously accepted.
        if decision.accepted {
            let local_version = self.next_version(&decision.proposal.object);
            if decision.proposal.base_version != local_version {
                return Err(ProtocolError::StaleVersion {
                    proposed_base: decision.proposal.base_version,
                    current: local_version,
                });
            }
            self.store
                .record_version(&decision.proposal.object, &decision.proposal.new_state);
            self.apply_side_effects(&decision.proposal);
        }
        self.pending.lock().remove(&msg.run_id);
        Ok(self.engine.open_frame(msg.run_id, STEP_ACK, Vec::new()))
    }
}

impl ProtocolHandler for SharingMember {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::new(PROTOCOL_ID)
    }

    fn process_request(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        match msg.step {
            STEP_PROPOSE => self.handle_propose(from, msg),
            STEP_DECISION => self.handle_decision(from, msg),
            step => Err(ProtocolError::BadMessage(format!(
                "unexpected request step {step}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::StaticKeyDirectory;
    use nonrep_crypto::rng::SecureRandom;
    use nonrep_crypto::sig::{KeyPair, SignatureScheme};
    use nonrep_net::bus::LocalBus;
    use nonrep_net::retry::{ReliableRequester, RetryPolicy};
    use nonrep_types::time::{LogicalClock, Timestamp};

    struct Node {
        member: Arc<SharingMember>,
    }

    fn world(names: &[&str]) -> Vec<Node> {
        let bus = LocalBus::new();
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let group: GroupId = GroupId::new("ve");
        let member_set: BTreeSet<OrgId> = names.iter().map(|n| OrgId::new(*n)).collect();
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let party = Party::quick(name, i as u64 + 1, &clock, &dir);
                let coordinator = B2BCoordinator::new(
                    *name,
                    ReliableRequester::new(bus.clone(), RetryPolicy::new(4)),
                );
                let groups = Arc::new(GroupRegistry::new());
                groups.set(group.clone(), member_set.clone());
                let member = SharingMember::new(
                    party,
                    coordinator.clone(),
                    Arc::new(StateStore::new()),
                    groups,
                );
                coordinator.register_handler(member.clone());
                bus.register(OrgId::new(*name), coordinator);
                Node { member }
            })
            .collect()
    }

    fn group() -> GroupId {
        GroupId::new("ve")
    }

    /// Values computed before the sharing digests moved to the thread's
    /// scratch writer: what proposals, votes and decisions bind must not
    /// change a byte.
    #[test]
    fn golden_sharing_digests() {
        let proposal = ProposalBody {
            group: group(),
            object: "price".into(),
            base_version: 2,
            new_state: b"42".to_vec(),
            proposer: OrgId::new("a"),
        };
        let digest = proposal.digest();
        assert_eq!(
            digest.to_hex(),
            "ba90fea84eae54a0091fb66ed266764b956b493d2a653705b7f2675a9ffa7288"
        );
        let voter = OrgId::new("b");
        let vote_digest = SignedVote::vote_digest(&voter, true, "ok", &digest);
        assert_eq!(
            vote_digest.to_hex(),
            "fc31134f8dd993bcacb5148a4370f15b57f74a9a36305dee633159daab75d4bc"
        );
        let keys = KeyPair::generate(SignatureScheme::Arbitrated, &mut SecureRandom::from_seed(5));
        let run = RunId::from_u128(11);
        let vote = SignedVote {
            voter: voter.clone(),
            accept: true,
            reason: "ok".into(),
            proposal_digest: digest,
            token: NrToken::issue(
                TokenKind::Vote,
                run,
                voter,
                vote_digest,
                Timestamp(9),
                &keys,
            )
            .unwrap(),
        };
        assert_eq!(
            DecisionBody::decision_digest(true, &digest, &[vote]).to_hex(),
            "ed90e11dc213ce45ddf9b7931d513f8da566bb04a5003766fae6881fc4649f7d"
        );
    }

    #[test]
    fn unanimous_update_applies_everywhere() {
        let nodes = world(&["a", "b", "c"]);
        let out = nodes[0]
            .member
            .propose(&group(), "spec", b"v1 spec".to_vec())
            .unwrap();
        assert!(out.accepted);
        assert_eq!(out.version, Some(0));
        assert_eq!(out.votes.len(), 2);
        for node in &nodes {
            assert_eq!(node.member.current_state("spec").unwrap(), b"v1 spec");
        }
    }

    #[test]
    fn veto_leaves_all_replicas_untouched() {
        let nodes = world(&["a", "b", "c"]);
        // Seed an initial version.
        nodes[0]
            .member
            .propose(&group(), "spec", b"v1".to_vec())
            .unwrap();
        // b vetoes anything containing "bad".
        nodes[1].member.add_validator(Arc::new(
            |_obj: &str, _cur: Option<&[u8]>, proposed: &[u8]| {
                if proposed.windows(3).any(|w| w == b"bad") {
                    Err("contains bad content".to_string())
                } else {
                    Ok(())
                }
            },
        ));
        let out = nodes[0]
            .member
            .propose(&group(), "spec", b"v2 bad".to_vec())
            .unwrap();
        assert!(!out.accepted);
        assert_eq!(out.version, None);
        let veto = out.votes.iter().find(|v| !v.accept).unwrap();
        assert_eq!(veto.voter, OrgId::new("b"));
        assert!(veto.reason.contains("bad content"));
        // Every replica still at v1.
        for node in &nodes {
            assert_eq!(node.member.current_state("spec").unwrap(), b"v1");
        }
    }

    #[test]
    fn sequential_updates_advance_versions() {
        let nodes = world(&["a", "b"]);
        for (i, state) in [b"v1".as_slice(), b"v2", b"v3"].iter().enumerate() {
            let out = nodes[i % 2]
                .member
                .propose(&group(), "doc", state.to_vec())
                .unwrap();
            assert!(out.accepted);
            assert_eq!(out.version, Some(i as u64));
        }
        assert_eq!(nodes[0].member.store().history("doc").len(), 3);
        assert_eq!(nodes[1].member.store().history("doc").len(), 3);
        assert_eq!(nodes[0].member.current_state("doc").unwrap(), b"v3");
    }

    #[test]
    fn stale_proposal_is_vetoed() {
        let nodes = world(&["a", "b"]);
        nodes[0]
            .member
            .propose(&group(), "doc", b"v1".to_vec())
            .unwrap();
        // Forge a proposal with base_version 0 while replicas are at 1.
        let run = nodes[0].member.party().new_run_id();
        let proposal = ProposalBody {
            group: group(),
            object: "doc".into(),
            base_version: 0,
            new_state: b"conflicting".to_vec(),
            proposer: OrgId::new("a"),
        };
        let token = TokenSpec::new(TokenKind::Proposal, run, proposal.digest());
        let msg = nodes[0]
            .member
            .engine()
            .request_frame(run, STEP_PROPOSE, proposal.encode_to_vec(), &[token])
            .unwrap();
        let reply = nodes[1]
            .member
            .handle_propose(&OrgId::new("a"), msg)
            .unwrap();
        let vote = SignedVote::decode_from_slice(&reply.body).unwrap();
        assert!(!vote.accept);
        assert!(vote.reason.contains("stale"));
    }

    #[test]
    fn proposer_cannot_claim_false_unanimity() {
        // Build a decision with a forged accept vote: members must reject it.
        let nodes = world(&["a", "b", "c"]);
        let run = nodes[0].member.party().new_run_id();
        let proposal = ProposalBody {
            group: group(),
            object: "doc".into(),
            base_version: 0,
            new_state: b"sneaky".to_vec(),
            proposer: OrgId::new("a"),
        };
        let digest = proposal.digest();
        // "a" forges a vote for "b" (signed with a's key — all it has).
        let forged_vote_digest = SignedVote::vote_digest(&OrgId::new("b"), true, "ok", &digest);
        let forged_token = nodes[0]
            .member
            .party()
            .issue_token(TokenKind::Vote, run, forged_vote_digest)
            .unwrap();
        let forged_b = SignedVote {
            voter: OrgId::new("b"),
            accept: true,
            reason: "ok".into(),
            proposal_digest: digest,
            token: forged_token,
        };
        let own_digest = SignedVote::vote_digest(&OrgId::new("c"), true, "ok", &digest);
        let c_token_by_a = nodes[0]
            .member
            .party()
            .issue_token(TokenKind::Vote, run, own_digest)
            .unwrap();
        let forged_c = SignedVote {
            voter: OrgId::new("c"),
            accept: true,
            reason: "ok".into(),
            proposal_digest: digest,
            token: c_token_by_a,
        };
        let votes = vec![forged_b, forged_c];
        let decision_digest = DecisionBody::decision_digest(true, &digest, &votes);
        let decision = DecisionBody {
            accepted: true,
            proposal,
            votes,
        };
        let msg = nodes[0]
            .member
            .engine()
            .request_frame(
                run,
                STEP_DECISION,
                decision.encode_to_vec(),
                &[TokenSpec::new(TokenKind::Decision, run, decision_digest)],
            )
            .unwrap();
        let err = nodes[1]
            .member
            .handle_decision(&OrgId::new("a"), msg)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::BadSignature { .. }));
        // And the replica was not updated.
        assert!(nodes[1].member.current_state("doc").is_none());
    }

    #[test]
    fn decision_flag_must_match_votes() {
        // An honest-looking decision with accepted=true but a reject vote
        // inside must be refused.
        let nodes = world(&["a", "b"]);
        nodes[1]
            .member
            .add_validator(Arc::new(|_: &str, _: Option<&[u8]>, _: &[u8]| {
                Err("never".to_string())
            }));
        let out = nodes[0]
            .member
            .propose(&group(), "doc", b"x".to_vec())
            .unwrap();
        assert!(!out.accepted);
        // b's replica untouched.
        assert!(nodes[1].member.current_state("doc").is_none());
    }

    #[test]
    fn non_member_proposal_rejected() {
        let nodes = world(&["a", "b"]);
        // Shrink b's view of the group to exclude a.
        nodes[1]
            .member
            .groups()
            .set(group(), [OrgId::new("b")].into());
        let err = nodes[0]
            .member
            .propose(&group(), "doc", b"x".to_vec())
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)), "{err:?}");
    }

    #[test]
    fn evidence_trail_is_complete_on_all_sides() {
        let nodes = world(&["a", "b", "c"]);
        let out = nodes[0]
            .member
            .propose(&group(), "spec", b"v1".to_vec())
            .unwrap();
        // Proposer: proposal + 2 votes + decision = 4 records.
        assert_eq!(nodes[0].member.party().log().by_run(&out.run_id).len(), 4);
        // Members: proposal + own vote + decision = 3 records.
        for node in &nodes[1..] {
            assert_eq!(node.member.party().log().by_run(&out.run_id).len(), 3);
            node.member.party().log().verify().unwrap();
        }
    }

    #[test]
    fn two_party_sharing_works() {
        let nodes = world(&["a", "b"]);
        let out = nodes[1]
            .member
            .propose(&group(), "doc", b"from-b".to_vec())
            .unwrap();
        assert!(out.accepted);
        assert_eq!(nodes[0].member.current_state("doc").unwrap(), b"from-b");
    }
}
