//! # fabric-policy
//!
//! The endorsement-policy language (paper Sec. 3.1, 3.4): monotone logical
//! expressions over organization principals, with a text syntax, an AST,
//! and an evaluator used by the default VSCC and by channel access policies.
//!
//! ## Syntax
//!
//! ```text
//! expr      := AND(expr, expr, ...)
//!            | OR(expr, expr, ...)
//!            | OutOf(k, expr, expr, ...)
//!            | ANY(members) | ALL(members) | ANY(admins) | MAJORITY(admins)
//!            | principal
//! principal := MspId | MspId.role      role ∈ {member, client, peer, admin, orderer}
//! ```
//!
//! Examples: `"AND(Org1MSP, OR(Org2MSP, Org3MSP))"`, `"OutOf(3, A, B, C, D, E)"`
//! ("three out of five"), `"MAJORITY(admins)"`.
//!
//! ## Semantics
//!
//! Evaluation is over a set of *signers* (validated identities reduced to
//! `(msp_id, role)` pairs). Like Fabric, distinct principal slots must be
//! covered by **distinct** signers: `OutOf(2, Org1MSP, Org1MSP)` needs two
//! different Org1 signatures, not one counted twice. The meta forms
//! (`ANY(members)`, `MAJORITY(admins)`, …) expand against the channel's
//! organization list before evaluation.

mod eval;
mod parser;

pub use eval::{Signer, MAX_REQUIREMENT_SETS};
pub use parser::parse;

use fabric_primitives::wire::{Decoder, Encoder, Wire, WireError};

/// Which certificate roles a principal matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoleMatch {
    /// Any role in the organization.
    Member,
    /// Only clients.
    Client,
    /// Only peers.
    Peer,
    /// Only admins.
    Admin,
    /// Only orderers.
    Orderer,
}

impl RoleMatch {
    /// Returns `true` if a certificate role string satisfies this matcher.
    pub fn matches(&self, role: &str) -> bool {
        match self {
            RoleMatch::Member => true,
            RoleMatch::Client => role == "client",
            RoleMatch::Peer => role == "peer",
            RoleMatch::Admin => role == "admin",
            RoleMatch::Orderer => role == "orderer",
        }
    }

    /// The textual suffix used in policy strings.
    pub fn as_str(&self) -> &'static str {
        match self {
            RoleMatch::Member => "member",
            RoleMatch::Client => "client",
            RoleMatch::Peer => "peer",
            RoleMatch::Admin => "admin",
            RoleMatch::Orderer => "orderer",
        }
    }
}

/// A principal: an organization plus a role matcher.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Principal {
    /// The organization's MSP id.
    pub msp_id: String,
    /// Which roles within the org satisfy this principal.
    pub role: RoleMatch,
}

/// The policy expression AST.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicyExpr {
    /// A single principal.
    Principal(Principal),
    /// All sub-expressions must be satisfied (by distinct signers).
    And(Vec<PolicyExpr>),
    /// At least one sub-expression must be satisfied.
    Or(Vec<PolicyExpr>),
    /// At least `k` of the sub-expressions must be satisfied.
    OutOf(u32, Vec<PolicyExpr>),
    /// Any one member of any channel organization.
    AnyMember,
    /// One member from *every* channel organization.
    AllMembers,
    /// Any one admin of any channel organization.
    AnyAdmin,
    /// Admins of a strict majority of channel organizations.
    MajorityAdmins,
}

/// Errors from parsing or evaluating policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The policy text failed to parse; the message describes where.
    Parse(String),
    /// `OutOf` threshold exceeds its operand count or is zero.
    BadThreshold,
    /// Expansion/evaluation exceeded the complexity cap.
    TooComplex,
}

impl core::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PolicyError::Parse(msg) => write!(f, "policy parse error: {msg}"),
            PolicyError::BadThreshold => write!(f, "OutOf threshold out of range"),
            PolicyError::TooComplex => write!(f, "policy too complex to evaluate"),
        }
    }
}

impl std::error::Error for PolicyError {}

impl PolicyExpr {
    /// Parses a policy from its textual form.
    pub fn parse(text: &str) -> Result<PolicyExpr, PolicyError> {
        parser::parse(text)
    }

    /// Expands meta forms (`ANY(members)`, …) against the channel's
    /// organization list, yielding an expression with only principals and
    /// combinators.
    pub fn expand(&self, org_msp_ids: &[String]) -> Result<PolicyExpr, PolicyError> {
        let principal = |msp_id: &String, role| {
            PolicyExpr::Principal(Principal {
                msp_id: msp_id.clone(),
                role,
            })
        };
        Ok(match self {
            PolicyExpr::Principal(p) => PolicyExpr::Principal(p.clone()),
            PolicyExpr::And(subs) => PolicyExpr::And(
                subs.iter()
                    .map(|s| s.expand(org_msp_ids))
                    .collect::<Result<_, _>>()?,
            ),
            PolicyExpr::Or(subs) => PolicyExpr::Or(
                subs.iter()
                    .map(|s| s.expand(org_msp_ids))
                    .collect::<Result<_, _>>()?,
            ),
            PolicyExpr::OutOf(k, subs) => PolicyExpr::OutOf(
                *k,
                subs.iter()
                    .map(|s| s.expand(org_msp_ids))
                    .collect::<Result<_, _>>()?,
            ),
            PolicyExpr::AnyMember => PolicyExpr::Or(
                org_msp_ids
                    .iter()
                    .map(|m| principal(m, RoleMatch::Member))
                    .collect(),
            ),
            PolicyExpr::AllMembers => PolicyExpr::And(
                org_msp_ids
                    .iter()
                    .map(|m| principal(m, RoleMatch::Member))
                    .collect(),
            ),
            PolicyExpr::AnyAdmin => PolicyExpr::Or(
                org_msp_ids
                    .iter()
                    .map(|m| principal(m, RoleMatch::Admin))
                    .collect(),
            ),
            PolicyExpr::MajorityAdmins => {
                let n = org_msp_ids.len() as u32;
                let k = n / 2 + 1;
                PolicyExpr::OutOf(
                    k,
                    org_msp_ids
                        .iter()
                        .map(|m| principal(m, RoleMatch::Admin))
                        .collect(),
                )
            }
        })
    }

    /// Evaluates the (already expanded) policy against a set of signers.
    ///
    /// Returns an error if the expression still contains meta forms or is
    /// too complex; use [`PolicyExpr::expand`] first.
    pub fn is_satisfied(&self, signers: &[Signer]) -> Result<bool, PolicyError> {
        eval::is_satisfied(self, signers)
    }

    /// Convenience: expand against `orgs` and evaluate.
    pub fn evaluate(&self, orgs: &[String], signers: &[Signer]) -> Result<bool, PolicyError> {
        self.expand(orgs)?.is_satisfied(signers)
    }

    /// Collects every distinct organization mentioned by the expression
    /// (after expansion). Used by clients to decide which peers to ask for
    /// endorsements.
    pub fn mentioned_orgs(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_orgs(&mut out);
        out.dedup();
        out
    }

    fn collect_orgs(&self, out: &mut Vec<String>) {
        match self {
            PolicyExpr::Principal(p) if !out.contains(&p.msp_id) => {
                out.push(p.msp_id.clone());
            }
            PolicyExpr::And(subs) | PolicyExpr::Or(subs) | PolicyExpr::OutOf(_, subs) => {
                for s in subs {
                    s.collect_orgs(out);
                }
            }
            _ => {}
        }
    }
}

impl Wire for PolicyExpr {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PolicyExpr::Principal(p) => {
                enc.put_u8(0);
                enc.put_string(&p.msp_id);
                enc.put_string(p.role.as_str());
            }
            PolicyExpr::And(subs) => {
                enc.put_u8(1);
                enc.put_seq(subs, |e, s| s.encode(e));
            }
            PolicyExpr::Or(subs) => {
                enc.put_u8(2);
                enc.put_seq(subs, |e, s| s.encode(e));
            }
            PolicyExpr::OutOf(k, subs) => {
                enc.put_u8(3);
                enc.put_u32(*k);
                enc.put_seq(subs, |e, s| s.encode(e));
            }
            PolicyExpr::AnyMember => enc.put_u8(4),
            PolicyExpr::AllMembers => enc.put_u8(5),
            PolicyExpr::AnyAdmin => enc.put_u8(6),
            PolicyExpr::MajorityAdmins => enc.put_u8(7),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(match dec.get_u8()? {
            0 => {
                let msp_id = dec.get_string()?;
                let role = match dec.get_string()?.as_str() {
                    "member" => RoleMatch::Member,
                    "client" => RoleMatch::Client,
                    "peer" => RoleMatch::Peer,
                    "admin" => RoleMatch::Admin,
                    "orderer" => RoleMatch::Orderer,
                    _ => return Err(WireError::BadTag(0)),
                };
                PolicyExpr::Principal(Principal { msp_id, role })
            }
            1 => PolicyExpr::And(dec.get_seq(PolicyExpr::decode)?),
            2 => PolicyExpr::Or(dec.get_seq(PolicyExpr::decode)?),
            3 => {
                let k = dec.get_u32()?;
                PolicyExpr::OutOf(k, dec.get_seq(PolicyExpr::decode)?)
            }
            4 => PolicyExpr::AnyMember,
            5 => PolicyExpr::AllMembers,
            6 => PolicyExpr::AnyAdmin,
            7 => PolicyExpr::MajorityAdmins,
            t => return Err(WireError::BadTag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signer(msp: &str, role: &str) -> Signer {
        Signer {
            msp_id: msp.into(),
            role: role.into(),
        }
    }

    fn orgs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn single_principal() {
        let p = PolicyExpr::parse("Org1MSP").unwrap();
        assert!(p.is_satisfied(&[signer("Org1MSP", "peer")]).unwrap());
        assert!(!p.is_satisfied(&[signer("Org2MSP", "peer")]).unwrap());
        assert!(!p.is_satisfied(&[]).unwrap());
    }

    #[test]
    fn role_qualified_principal() {
        let p = PolicyExpr::parse("Org1MSP.admin").unwrap();
        assert!(p.is_satisfied(&[signer("Org1MSP", "admin")]).unwrap());
        assert!(!p.is_satisfied(&[signer("Org1MSP", "peer")]).unwrap());
    }

    #[test]
    fn and_or_combination() {
        // The paper's example: "(A ∧ B) ∨ C".
        let p = PolicyExpr::parse("OR(AND(A, B), C)").unwrap();
        assert!(p
            .is_satisfied(&[signer("A", "peer"), signer("B", "peer")])
            .unwrap());
        assert!(p.is_satisfied(&[signer("C", "peer")]).unwrap());
        assert!(!p.is_satisfied(&[signer("A", "peer")]).unwrap());
    }

    #[test]
    fn three_out_of_five() {
        // The paper's example: "three out of five".
        let p = PolicyExpr::parse("OutOf(3, P1, P2, P3, P4, P5)").unwrap();
        let three = [
            signer("P1", "peer"),
            signer("P3", "peer"),
            signer("P5", "peer"),
        ];
        let two = [signer("P1", "peer"), signer("P3", "peer")];
        assert!(p.is_satisfied(&three).unwrap());
        assert!(!p.is_satisfied(&two).unwrap());
    }

    #[test]
    fn distinct_signers_required() {
        // Two slots of the same org need two signatures.
        let p = PolicyExpr::parse("OutOf(2, Org1MSP, Org1MSP)").unwrap();
        assert!(!p.is_satisfied(&[signer("Org1MSP", "peer")]).unwrap());
        assert!(p
            .is_satisfied(&[signer("Org1MSP", "peer"), signer("Org1MSP", "peer")])
            .unwrap());
    }

    #[test]
    fn meta_any_member() {
        let p = PolicyExpr::parse("ANY(members)").unwrap();
        let orgs = orgs(&["A", "B"]);
        assert!(p.evaluate(&orgs, &[signer("B", "client")]).unwrap());
        assert!(!p.evaluate(&orgs, &[signer("C", "client")]).unwrap());
    }

    #[test]
    fn meta_majority_admins() {
        let p = PolicyExpr::parse("MAJORITY(admins)").unwrap();
        let orgs = orgs(&["A", "B", "C"]);
        // Majority of 3 orgs = 2 distinct org admins.
        assert!(p
            .evaluate(&orgs, &[signer("A", "admin"), signer("C", "admin")])
            .unwrap());
        assert!(!p.evaluate(&orgs, &[signer("A", "admin")]).unwrap());
        // Peers don't count.
        assert!(!p
            .evaluate(&orgs, &[signer("A", "peer"), signer("C", "peer")])
            .unwrap());
    }

    #[test]
    fn meta_all_members() {
        let p = PolicyExpr::parse("ALL(members)").unwrap();
        let orgs = orgs(&["A", "B"]);
        assert!(p
            .evaluate(&orgs, &[signer("A", "peer"), signer("B", "client")])
            .unwrap());
        assert!(!p.evaluate(&orgs, &[signer("A", "peer")]).unwrap());
    }

    #[test]
    fn mentioned_orgs_collects() {
        let p = PolicyExpr::parse("OR(AND(A, B), OutOf(1, C, A))").unwrap();
        assert_eq!(p.mentioned_orgs(), vec!["A", "B", "C"]);
    }

    #[test]
    fn wire_round_trip() {
        for text in [
            "Org1MSP",
            "Org1MSP.peer",
            "AND(A, B)",
            "OR(A.client, OutOf(2, B, C, D))",
            "ANY(members)",
            "ALL(members)",
            "ANY(admins)",
            "MAJORITY(admins)",
        ] {
            let p = PolicyExpr::parse(text).unwrap();
            assert_eq!(PolicyExpr::from_wire(&p.to_wire()).unwrap(), p, "{text}");
        }
    }

    #[test]
    fn evaluate_meta_without_expand_fails() {
        let p = PolicyExpr::AnyMember;
        assert!(p.is_satisfied(&[signer("A", "peer")]).is_err());
    }
}
