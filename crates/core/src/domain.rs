//! Trust-domain deployment choices (paper Fig 3).
//!
//! "Figure 3 shows three approaches to the use of trusted interceptors to
//! provide a trust domain" — plus the offline-TTP fair-exchange refinement
//! discussed in §3.1/§4. [`TrustDomain`] is the per-organisation default
//! for outgoing non-repudiable invocations; it decides which protocol
//! client a proxy gets. The models "are not mutually exclusive": any proxy
//! can override the domain default per service.

use std::fmt;

use nonrep_types::ids::OrgId;

/// How this organisation reaches its peers for non-repudiable invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrustDomain {
    /// Direct trust domain (Fig 3(c)): interceptors hosted at each party,
    /// three-message direct exchange, no TTP.
    Direct,
    /// Asymmetric voluntary baseline (not a trust domain in the paper's
    /// sense — no client guarantees; provided for comparison, ref \[23\]).
    Voluntary,
    /// Inline TTP (Fig 3(a)) or distributed inline TTPs (Fig 3(b)): all
    /// traffic enters at `first_hop`; further hops are the TTPs' own
    /// configuration.
    InlineTtp {
        /// The first (or only) TTP in the path.
        first_hop: OrgId,
    },
    /// Direct exchange hardened to fair exchange with an *offline* TTP for
    /// resolve/abort.
    FairOffline {
        /// The recovery TTP both sides agreed on.
        ttp: OrgId,
    },
}

impl TrustDomain {
    /// The TTP this domain depends on, if any.
    pub fn ttp(&self) -> Option<&OrgId> {
        match self {
            TrustDomain::InlineTtp { first_hop } => Some(first_hop),
            TrustDomain::FairOffline { ttp } => Some(ttp),
            _ => None,
        }
    }
}

impl fmt::Display for TrustDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrustDomain::Direct => f.write_str("direct"),
            TrustDomain::Voluntary => f.write_str("voluntary"),
            TrustDomain::InlineTtp { first_hop } => write!(f, "inline-ttp via {first_hop}"),
            TrustDomain::FairOffline { ttp } => write!(f, "fair-offline with {ttp}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttp_accessor() {
        assert_eq!(TrustDomain::Direct.ttp(), None);
        assert_eq!(TrustDomain::Voluntary.ttp(), None);
        let t = OrgId::new("ttp");
        assert_eq!(
            TrustDomain::InlineTtp {
                first_hop: t.clone()
            }
            .ttp(),
            Some(&t)
        );
        assert_eq!(TrustDomain::FairOffline { ttp: t.clone() }.ttp(), Some(&t));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(TrustDomain::Direct.to_string(), "direct");
        assert_eq!(
            TrustDomain::InlineTtp {
                first_hop: OrgId::new("t")
            }
            .to_string(),
            "inline-ttp via t"
        );
    }
}
