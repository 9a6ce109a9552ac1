//! Non-repudiable connect/disconnect protocols.
//!
//! Paper §3.3: "Non-repudiable connect and disconnect protocols govern
//! changes to the membership of the group of organisations sharing the
//! information."
//!
//! Membership is itself shared information: the member set of group `g` is
//! a shared object named `__group:g`, and changes to it run the *same*
//! coordination round as any other update — so joins and leaves are
//! unanimously agreed, signed by everyone, and land in every evidence log.
//! When an accepted round updates a group object, every
//! [`SharingMember`] also updates its local
//! [`GroupRegistry`](crate::sharing::GroupRegistry) (the side-effect hook
//! in `coordination`).
//!
//! After an accepted join, the sponsor sends the new member a `welcome`
//! message ([`WelcomeChoreography`]) carrying the decided member set
//! together with the full decision evidence, which the joiner verifies —
//! every vote with the same check members apply to a decision — before
//! installing the group.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use nonrep_crypto::digest::Digest;
use nonrep_types::codec::{decode_seq, encode_seq, CodecError, Decode, Encode, Reader, Writer};
use nonrep_types::ids::{GroupId, OrgId, ProtocolId};

use crate::handler::ProtocolHandler;
use crate::message::ProtocolMessage;
use crate::scheduler::TokenSpec;
use crate::session::{CallOpen, Client, End, ExchangeEngine};
use crate::sharing::coordination::{
    check_vote_set, CoordinationOutcome, DecisionBody, SharingMember,
};
use crate::tokens::TokenKind;
use crate::ProtocolError;

/// Prefix of the shared objects holding group member sets.
const GROUP_OBJECT_PREFIX: &str = "__group:";

/// Protocol id of the welcome sub-protocol.
const WELCOME_PROTOCOL_ID: &str = "nr-membership";

const STEP_WELCOME: u32 = 5;
const STEP_WELCOME_ACK: u32 = 6;

/// The sponsor's welcome round: the signed welcome, acknowledged by the
/// joiner.
pub type WelcomeChoreography = CallOpen<STEP_WELCOME, STEP_WELCOME_ACK, End>;

/// `member`'s engine for the welcome protocol.
fn welcome_engine(member: &SharingMember) -> ExchangeEngine {
    let coordinator = member
        .engine()
        .coordinator()
        .expect("a sharing member's engine delivers");
    ExchangeEngine::new(
        Arc::clone(member.party()),
        Arc::clone(coordinator),
        WELCOME_PROTOCOL_ID,
    )
}

/// The shared-object key of `group`'s member set.
fn group_object(group: &GroupId) -> String {
    format!("{GROUP_OBJECT_PREFIX}{group}")
}

/// Encodes a member set as group-object state.
fn encode_group_state(members: &BTreeSet<OrgId>) -> Vec<u8> {
    let list: Vec<OrgId> = members.iter().cloned().collect();
    let mut w = Writer::new();
    encode_seq(&list, &mut w);
    w.into_vec()
}

/// Decodes group-object state if `object` is a group object.
pub fn decode_group_state(object: &str, state: &[u8]) -> Option<BTreeSet<OrgId>> {
    if !object.starts_with(GROUP_OBJECT_PREFIX) {
        return None;
    }
    let mut r = Reader::new(state);
    let list: Vec<OrgId> = decode_seq(&mut r).ok()?;
    r.finish().ok()?;
    Some(list.into_iter().collect())
}

/// A shared object's state snapshot carried in a welcome: the full version
/// digest history plus the latest state bytes, so the joiner's replica can
/// participate in coordination immediately (its `base_version` arithmetic
/// matches the group's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectSnapshot {
    /// The shared object's key.
    pub object: String,
    /// Digests of every agreed version, oldest first.
    pub history: Vec<Digest>,
    /// The state bytes of the latest version.
    pub latest_state: Vec<u8>,
}

impl Encode for ObjectSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.object);
        encode_seq(&self.history, w);
        w.put_bytes(&self.latest_state);
    }
}

impl Decode for ObjectSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            object: r.get_string()?,
            history: decode_seq(r)?,
            latest_state: r.get_bytes()?.to_vec(),
        })
    }
}

/// Welcome message body: the decided member set with its evidence, plus
/// state snapshots of every shared object. The sponsor's
/// [`TokenKind::Membership`] token over the decision rides the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Welcome {
    /// The group being joined.
    pub group: GroupId,
    /// The membership decision (proposal + all signed votes).
    pub decision: DecisionBody,
    /// Replica snapshots for the joiner.
    pub snapshots: Vec<ObjectSnapshot>,
}

impl Encode for Welcome {
    fn encode(&self, w: &mut Writer) {
        self.group.encode(w);
        self.decision.encode(w);
        encode_seq(&self.snapshots, w);
    }
}

impl Decode for Welcome {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            group: GroupId::decode(r)?,
            decision: DecisionBody::decode(r)?,
            snapshots: decode_seq(r)?,
        })
    }
}

/// Runs the connect protocol: `sponsor` proposes adding `joiner` to
/// `group`; on unanimous acceptance the sponsor sends the joiner a
/// verifiable welcome.
///
/// # Errors
///
/// [`ProtocolError`] if the coordination round cannot complete or the
/// welcome cannot be delivered. A vetoed join returns `accepted == false`
/// and sends no welcome.
pub fn connect(
    sponsor: &SharingMember,
    group: &GroupId,
    joiner: &OrgId,
) -> Result<CoordinationOutcome, ProtocolError> {
    let mut members = sponsor.groups().members(group)?;
    if members.contains(joiner) {
        return Err(ProtocolError::Rejected(format!(
            "{joiner} is already a member"
        )));
    }
    members.insert(joiner.clone());
    let (outcome, decision, decision_digest) =
        sponsor.coordinate(group, &group_object(group), encode_group_state(&members))?;
    if !outcome.accepted {
        return Ok(outcome);
    }
    // Snapshot every shared object (including the group object, whose
    // history now ends at the just-agreed member set) for the joiner.
    let store = sponsor.store();
    let snapshots = store.objects().into_iter().map(|object| ObjectSnapshot {
        history: store.history(&object),
        latest_state: store
            .latest(&object)
            .and_then(|(_, digest)| store.get(&digest))
            .unwrap_or_default(),
        object,
    });
    let welcome = Welcome {
        group: group.clone(),
        decision,
        snapshots: snapshots.collect(),
    };
    let session = welcome_engine(sponsor).session::<Client, WelcomeChoreography>(outcome.run_id);
    let membership = TokenSpec::new(TokenKind::Membership, outcome.run_id, decision_digest);
    let (_ack, session) = session.call_open(joiner, welcome.encode_to_vec(), &[membership])?;
    session.finish()?;
    Ok(outcome)
}

/// Runs the disconnect protocol: `proposer` proposes removing `leaver`
/// from `group` (a member may propose its own departure).
///
/// # Errors
///
/// [`ProtocolError`] if the round cannot complete. A veto returns
/// `accepted == false`.
pub fn disconnect(
    proposer: &SharingMember,
    group: &GroupId,
    leaver: &OrgId,
) -> Result<CoordinationOutcome, ProtocolError> {
    let mut members = proposer.groups().members(group)?;
    if !members.remove(leaver) {
        return Err(ProtocolError::Rejected(format!("{leaver} is not a member")));
    }
    if members.is_empty() {
        return Err(ProtocolError::Rejected(
            "cannot empty a sharing group".into(),
        ));
    }
    proposer.propose(group, &group_object(group), encode_group_state(&members))
}

/// The joiner-side handler for welcome messages.
///
/// Verifies the sponsor's frame, the decision token, and every member's
/// vote before installing the group locally.
pub struct MembershipHandler {
    engine: ExchangeEngine,
    member: Arc<SharingMember>,
}

impl fmt::Debug for MembershipHandler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MembershipHandler({})", self.member.party().org())
    }
}

impl MembershipHandler {
    /// Creates the handler for `member` (the prospective joiner).
    pub fn new(member: Arc<SharingMember>) -> Arc<Self> {
        Arc::new(Self {
            engine: welcome_engine(&member),
            member,
        })
    }

    fn handle_welcome(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        self.engine.verify_frame_from(&msg, from)?;
        let welcome: Welcome = self.engine.decode_body(&msg.body)?;
        let decision = &welcome.decision;
        if !decision.accepted {
            return Err(ProtocolError::BadMessage(
                "welcome with a rejected decision".into(),
            ));
        }
        let members = decode_group_state(&decision.proposal.object, &decision.proposal.new_state)
            .ok_or_else(|| {
            ProtocolError::BadMessage("welcome state is not a group object".into())
        })?;
        let party = self.engine.party();
        if !members.contains(party.org()) {
            return Err(ProtocolError::Rejected(
                "welcome does not include this member".into(),
            ));
        }
        // Verify the membership token, then the votes of every member
        // but the sponsor and this joiner.
        let digest = decision.proposal.digest();
        let decision_digest = DecisionBody::decision_digest(true, &digest, &decision.votes);
        party.absorb_carried(&msg, [(TokenKind::Membership, decision_digest)])?;
        let voters = members
            .iter()
            .filter(|m| *m != from && *m != party.org())
            .collect();
        if !check_vote_set(party, msg.run_id, &digest, &voters, &decision.votes)? {
            return Err(ProtocolError::BadMessage("welcome carries a veto".into()));
        }
        for vote in &decision.votes {
            party.store_token(&vote.token)?;
        }
        // The snapshot of the group object must agree with the verified
        // decision; other objects are taken on the sponsor's (signed) word
        // — any mismatch with the rest of the group surfaces as stale
        // votes at the joiner's first proposal. Every snapshot is checked
        // before anything is installed, so a refused welcome leaves no
        // group and no history behind.
        let expected = nonrep_crypto::digest::sha256(&decision.proposal.new_state);
        if welcome.snapshots.iter().any(|snap| {
            snap.object == decision.proposal.object && snap.history.last() != Some(&expected)
        }) {
            return Err(ProtocolError::BadMessage(
                "group-object snapshot disagrees with the decision".into(),
            ));
        }
        self.member.groups().set(welcome.group.clone(), members);
        for snap in &welcome.snapshots {
            let latest = (!snap.latest_state.is_empty()).then_some(snap.latest_state.as_slice());
            self.member
                .store()
                .install_history(&snap.object, snap.history.clone(), latest);
        }
        Ok(self
            .engine
            .open_frame(msg.run_id, STEP_WELCOME_ACK, Vec::new()))
    }
}

impl ProtocolHandler for MembershipHandler {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::new(WELCOME_PROTOCOL_ID)
    }

    fn process_request(
        &self,
        from: &OrgId,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        match msg.step {
            STEP_WELCOME => self.handle_welcome(from, msg),
            step => Err(ProtocolError::BadMessage(format!("unexpected step {step}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::party::{Party, StaticKeyDirectory};
    use crate::sharing::{GroupRegistry, ProposalBody, SignedVote};
    use crate::B2BCoordinator;
    use nonrep_net::bus::LocalBus;
    use nonrep_net::retry::{ReliableRequester, RetryPolicy};
    use nonrep_store::StateStore;
    use nonrep_types::ids::RunId;
    use nonrep_types::time::LogicalClock;

    struct Node {
        member: Arc<SharingMember>,
    }

    struct World {
        bus: Arc<LocalBus>,
        clock: LogicalClock,
        dir: Arc<StaticKeyDirectory>,
    }

    impl World {
        fn node(&self, name: &str, seed: u64, in_group: Option<&BTreeSet<OrgId>>) -> Node {
            let party = Party::quick(name, seed, &self.clock, &self.dir);
            let coordinator = B2BCoordinator::new(
                name,
                ReliableRequester::new(self.bus.clone(), RetryPolicy::new(4)),
            );
            let groups = Arc::new(GroupRegistry::new());
            if let Some(members) = in_group {
                groups.set(GroupId::new("ve"), members.clone());
            }
            let member = SharingMember::new(
                party,
                coordinator.clone(),
                Arc::new(StateStore::new()),
                groups,
            );
            coordinator.register_handler(member.clone());
            coordinator.register_handler(MembershipHandler::new(member.clone()));
            self.bus.register(OrgId::new(name), coordinator);
            Node { member }
        }
    }

    fn group() -> GroupId {
        GroupId::new("ve")
    }

    fn world() -> World {
        World {
            bus: LocalBus::new(),
            clock: LogicalClock::new(),
            dir: Arc::new(StaticKeyDirectory::new()),
        }
    }

    fn setup() -> (World, Vec<Node>) {
        let world = world();
        let members: BTreeSet<OrgId> = [OrgId::new("a"), OrgId::new("b")].into();
        let nodes = vec![
            world.node("a", 1, Some(&members)),
            world.node("b", 2, Some(&members)),
        ];
        (world, nodes)
    }

    #[test]
    fn group_state_codec_roundtrip() {
        let members: BTreeSet<OrgId> = [OrgId::new("x"), OrgId::new("y")].into();
        let state = encode_group_state(&members);
        assert_eq!(decode_group_state("__group:ve", &state), Some(members));
        assert_eq!(decode_group_state("ordinary-object", &state), None);
        assert!(decode_group_state("__group:ve", b"garbage").is_none());
    }

    #[test]
    fn connect_adds_member_everywhere_and_welcomes_joiner() {
        let (world, nodes) = setup();
        let joiner = world.node("c", 3, None);
        let out = connect(&nodes[0].member, &group(), &OrgId::new("c")).unwrap();
        assert!(out.accepted);
        let expected: BTreeSet<OrgId> = [OrgId::new("a"), OrgId::new("b"), OrgId::new("c")].into();
        for node in &nodes {
            assert_eq!(node.member.groups().members(&group()).unwrap(), expected);
        }
        // The joiner installed the group from the verified welcome.
        assert_eq!(joiner.member.groups().members(&group()).unwrap(), expected);
        // And can immediately participate in coordination.
        let update = joiner
            .member
            .propose(&group(), "doc", b"from-c".to_vec())
            .unwrap();
        assert!(update.accepted);
        assert_eq!(nodes[0].member.current_state("doc").unwrap(), b"from-c");
    }

    #[test]
    fn disconnect_removes_member_everywhere() {
        let (world, nodes) = setup();
        let _c = world.node("c", 3, None);
        connect(&nodes[0].member, &group(), &OrgId::new("c")).unwrap();
        let out = disconnect(&nodes[0].member, &group(), &OrgId::new("c")).unwrap();
        assert!(out.accepted);
        let expected: BTreeSet<OrgId> = [OrgId::new("a"), OrgId::new("b")].into();
        for node in &nodes {
            assert_eq!(node.member.groups().members(&group()).unwrap(), expected);
        }
    }

    #[test]
    fn connect_existing_member_rejected() {
        let (_world, nodes) = setup();
        let err = connect(&nodes[0].member, &group(), &OrgId::new("b")).unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)));
    }

    #[test]
    fn disconnect_non_member_rejected() {
        let (_world, nodes) = setup();
        let err = disconnect(&nodes[0].member, &group(), &OrgId::new("z")).unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)));
    }

    #[test]
    fn cannot_empty_a_group() {
        let (_world, nodes) = setup();
        disconnect(&nodes[0].member, &group(), &OrgId::new("b")).unwrap();
        let err = disconnect(&nodes[0].member, &group(), &OrgId::new("a")).unwrap_err();
        assert!(matches!(err, ProtocolError::Rejected(_)));
    }

    #[test]
    fn vetoed_join_sends_no_welcome() {
        let (world, nodes) = setup();
        let joiner = world.node("c", 3, None);
        // b vetoes membership changes.
        nodes[1].member.add_validator(Arc::new(
            |object: &str, _cur: Option<&[u8]>, _proposed: &[u8]| {
                if object.starts_with(GROUP_OBJECT_PREFIX) {
                    Err("membership frozen".to_string())
                } else {
                    Ok(())
                }
            },
        ));
        let out = connect(&nodes[0].member, &group(), &OrgId::new("c")).unwrap();
        assert!(!out.accepted);
        // Joiner knows nothing of the group.
        assert!(joiner.member.groups().members(&group()).is_err());
        // Membership unchanged.
        let expected: BTreeSet<OrgId> = [OrgId::new("a"), OrgId::new("b")].into();
        assert_eq!(
            nodes[1].member.groups().members(&group()).unwrap(),
            expected
        );
    }

    fn ids(names: &[&str]) -> BTreeSet<OrgId> {
        names.iter().map(|n| OrgId::new(*n)).collect()
    }

    /// `proposer`'s proposal to make `members` the group.
    fn group_proposal(members: &BTreeSet<OrgId>, proposer: &str) -> ProposalBody {
        ProposalBody {
            group: group(),
            object: group_object(&group()),
            base_version: 0,
            new_state: encode_group_state(members),
            proposer: OrgId::new(proposer),
        }
    }

    /// `sponsor`'s signed welcome of `proposal`, decided by `votes`,
    /// carrying `snapshots`.
    fn welcome_frame(
        sponsor: &SharingMember,
        run: RunId,
        proposal: ProposalBody,
        votes: Vec<SignedVote>,
        snapshots: Vec<ObjectSnapshot>,
    ) -> ProtocolMessage {
        let decision_digest = DecisionBody::decision_digest(true, &proposal.digest(), &votes);
        let welcome = Welcome {
            group: group(),
            decision: DecisionBody {
                accepted: true,
                proposal,
                votes,
            },
            snapshots,
        };
        welcome_engine(sponsor)
            .request_frame(
                run,
                STEP_WELCOME,
                welcome.encode_to_vec(),
                &[TokenSpec::new(TokenKind::Membership, run, decision_digest)],
            )
            .unwrap()
    }

    /// Drives a welcome from `from` into `joiner`'s handler.
    fn welcome(
        joiner: &Arc<SharingMember>,
        from: &str,
        msg: ProtocolMessage,
    ) -> Result<ProtocolMessage, ProtocolError> {
        MembershipHandler::new(Arc::clone(joiner)).process_request(&OrgId::new(from), msg)
    }

    #[test]
    fn forged_welcome_rejected_by_joiner() {
        let (world, nodes) = setup();
        let joiner = world.node("c", 3, None);
        // "b" (not having run any round) forges a welcome claiming c is
        // in, with no votes at all: a's vote is missing.
        let run = nodes[1].member.party().new_run_id();
        let proposal = group_proposal(&ids(&["a", "b", "c"]), "b");
        let msg = welcome_frame(&nodes[1].member, run, proposal, vec![], vec![]);
        assert_eq!(
            welcome(&joiner.member, "b", msg),
            Err(ProtocolError::BadMessage(
                "vote set does not match membership".into()
            ))
        );
        assert!(joiner.member.groups().members(&group()).is_err());
    }

    #[test]
    fn bad_vote_sets_are_refused_by_member_and_joiner() {
        // Group {a, b, c}: a proposes adding d. b and c vote on the
        // proposal, and so does z, a stranger whose own registry admits a.
        let world = world();
        let nodes: Vec<Node> = [("a", 1), ("b", 2), ("c", 3)]
            .into_iter()
            .map(|(name, seed)| world.node(name, seed, Some(&ids(&["a", "b", "c"]))))
            .collect();
        let joiner = world.node("d", 4, None);
        let stranger = world.node("z", 26, Some(&ids(&["a", "z"])));
        let a = &nodes[0].member;
        let run = a.party().new_run_id();
        let proposal = group_proposal(&ids(&["a", "b", "c", "d"]), "a");
        let digest = proposal.digest();
        let propose = a
            .engine()
            .request_frame(
                run,
                1, // the proposal step
                proposal.encode_to_vec(),
                &[TokenSpec::new(TokenKind::Proposal, run, digest)],
            )
            .unwrap();
        let vote_of = |voter: &Arc<SharingMember>| {
            let reply = voter
                .process_request(&OrgId::new("a"), propose.clone())
                .unwrap();
            SignedVote::decode_from_slice(&reply.body).unwrap()
        };
        let (vb, vc, vz) = (
            vote_of(&nodes[1].member),
            vote_of(&nodes[2].member),
            vote_of(&stranger.member),
        );
        let decision_frame = |votes: Vec<SignedVote>| {
            let decision_digest = DecisionBody::decision_digest(true, &digest, &votes);
            let decision = DecisionBody {
                accepted: true,
                proposal: proposal.clone(),
                votes,
            };
            a.engine()
                .request_frame(
                    run,
                    3, // the decision step
                    decision.encode_to_vec(),
                    &[TokenSpec::new(TokenKind::Decision, run, decision_digest)],
                )
                .unwrap()
        };
        let mismatch = Err(ProtocolError::BadMessage(
            "vote set does not match membership".into(),
        ));
        let cases = [
            ("no votes", vec![]),
            ("a missing voter", vec![vb.clone()]),
            (
                "a duplicated voter",
                vec![vb.clone(), vc.clone(), vc.clone()],
            ),
            ("a stranger's vote", vec![vb.clone(), vc.clone(), vz]),
        ];
        for (case, votes) in cases {
            let decided = nodes[1]
                .member
                .process_request(&OrgId::new("a"), decision_frame(votes.clone()));
            assert_eq!(decided.map(|_| ()), mismatch, "decision with {case}");
            let welcomed = welcome(
                &joiner.member,
                "a",
                welcome_frame(a, run, proposal.clone(), votes, vec![]),
            );
            assert_eq!(welcomed.map(|_| ()), mismatch, "welcome with {case}");
        }
        assert!(nodes[1]
            .member
            .current_state(&group_object(&group()))
            .is_none());
        assert!(joiner.member.groups().members(&group()).is_err());
        // The same round with the right vote set is accepted by both.
        nodes[1]
            .member
            .process_request(
                &OrgId::new("a"),
                decision_frame(vec![vb.clone(), vc.clone()]),
            )
            .unwrap();
        welcome(
            &joiner.member,
            "a",
            welcome_frame(a, run, proposal.clone(), vec![vb, vc], vec![]),
        )
        .unwrap();
        let all = ids(&["a", "b", "c", "d"]);
        assert_eq!(nodes[1].member.groups().members(&group()).unwrap(), all);
        assert_eq!(joiner.member.groups().members(&group()).unwrap(), all);
    }

    #[test]
    fn refused_welcome_installs_nothing() {
        let (world, nodes) = setup();
        let joiner = world.node("c", 3, None);
        let a = &nodes[0].member;
        let run = a.party().new_run_id();
        let proposal = group_proposal(&ids(&["a", "b", "c"]), "a");
        let propose = a
            .engine()
            .request_frame(
                run,
                1, // the proposal step
                proposal.encode_to_vec(),
                &[TokenSpec::new(TokenKind::Proposal, run, proposal.digest())],
            )
            .unwrap();
        let reply = nodes[1]
            .member
            .process_request(&OrgId::new("a"), propose)
            .unwrap();
        let vote = SignedVote::decode_from_slice(&reply.body).unwrap();
        // A valid vote set, an ordinary object, then a group-object
        // history that does not end at the decided member set.
        let snapshots = vec![
            ObjectSnapshot {
                object: "doc".into(),
                history: vec![nonrep_crypto::digest::sha256(b"v1")],
                latest_state: b"v1".to_vec(),
            },
            ObjectSnapshot {
                object: group_object(&group()),
                history: vec![],
                latest_state: vec![],
            },
        ];
        let msg = welcome_frame(a, run, proposal, vec![vote], snapshots);
        assert_eq!(
            welcome(&joiner.member, "a", msg),
            Err(ProtocolError::BadMessage(
                "group-object snapshot disagrees with the decision".into()
            ))
        );
        assert!(joiner.member.groups().members(&group()).is_err());
        assert!(joiner.member.store().objects().is_empty());
    }
}
