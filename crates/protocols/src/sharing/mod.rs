//! NR-Sharing: non-repudiable information sharing (paper §3.3).
//!
//! Organisations hold local replicas of shared information; every update
//! is mediated by the trusted interceptors running the state coordination
//! protocol of [`coordination`]:
//!
//! 1. the proposer's update is "irrefutably attributable to A and proposed
//!    to B and C";
//! 2. "B and C independently validate A's proposed update … and their
//!    respective decisions are … irrefutably attributable to B and C";
//! 3. "the collective decision … \[is\] made available to all parties".
//!
//! Unanimity applies the update everywhere; any veto leaves every replica
//! untouched. [`membership`] governs who shares the information with
//! non-repudiable connect/disconnect protocols built from the same
//! coordination round.

pub mod coordination;
pub mod membership;

pub use coordination::{
    CoordinationOutcome, ProposalBody, SharingMember, SignedVote, UpdateValidator,
};

use std::collections::BTreeSet;
use std::collections::HashMap;

use parking_lot::RwLock;

use nonrep_types::ids::{GroupId, OrgId};

use crate::ProtocolError;

/// Each organisation's local view of sharing-group memberships.
#[derive(Debug, Default)]
pub struct GroupRegistry {
    groups: RwLock<HashMap<GroupId, BTreeSet<OrgId>>>,
}

impl GroupRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) a group's member set.
    pub fn set(&self, group: GroupId, members: BTreeSet<OrgId>) {
        self.groups.write().insert(group, members);
    }

    /// The members of `group`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Rejected`] if the group is unknown locally.
    pub fn members(&self, group: &GroupId) -> Result<BTreeSet<OrgId>, ProtocolError> {
        self.groups
            .read()
            .get(group)
            .cloned()
            .ok_or_else(|| ProtocolError::Rejected(format!("unknown group {group}")))
    }

    /// `true` if `org` is a member of `group`.
    pub fn contains(&self, group: &GroupId, org: &OrgId) -> bool {
        self.groups
            .read()
            .get(group)
            .map(|m| m.contains(org))
            .unwrap_or(false)
    }

    /// Removes a group entirely.
    pub fn remove(&self, group: &GroupId) {
        self.groups.write().remove(group);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_crud() {
        let reg = GroupRegistry::new();
        let g = GroupId::new("ve");
        let members: BTreeSet<OrgId> = [OrgId::new("a"), OrgId::new("b")].into();
        reg.set(g.clone(), members.clone());
        assert_eq!(reg.members(&g).unwrap(), members);
        assert!(reg.contains(&g, &OrgId::new("a")));
        assert!(!reg.contains(&g, &OrgId::new("z")));
        reg.remove(&g);
        assert!(reg.members(&g).is_err());
        assert!(!reg.contains(&g, &OrgId::new("a")));
    }
}
