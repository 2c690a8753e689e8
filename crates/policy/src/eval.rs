//! Policy evaluation with distinct-signer semantics.
//!
//! The expression is lowered to disjunctive normal form: a list of
//! *requirement sets*, each a multiset of principals any one of which, if
//! fully covered, satisfies the policy. A requirement set is covered when
//! each of its principal slots can be assigned a **distinct** signer, which
//! is a bipartite matching problem solved with the classic augmenting-path
//! algorithm (policies and signer sets are small).

use crate::{PolicyError, PolicyExpr, Principal};

/// A signer extracted from a validated identity: organization and role.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Signer {
    /// The signer's MSP id.
    pub msp_id: String,
    /// The signer's certificate role (`"peer"`, `"admin"`, …).
    pub role: String,
}

/// Cap on the number of requirement sets produced by lowering, protecting
/// against combinatorial blow-up from adversarial policies.
pub const MAX_REQUIREMENT_SETS: usize = 65_536;

/// Evaluates an expanded policy against a set of signers.
pub fn is_satisfied(expr: &PolicyExpr, signers: &[Signer]) -> Result<bool, PolicyError> {
    let sets = requirement_sets(expr)?;
    Ok(sets.iter().any(|set| matchable(set, signers)))
}

/// Lowers the expression to DNF over principals.
fn requirement_sets(expr: &PolicyExpr) -> Result<Vec<Vec<Principal>>, PolicyError> {
    match expr {
        PolicyExpr::Principal(p) => Ok(vec![vec![p.clone()]]),
        PolicyExpr::Or(subs) => {
            let mut out = Vec::new();
            for sub in subs {
                out.extend(requirement_sets(sub)?);
                if out.len() > MAX_REQUIREMENT_SETS {
                    return Err(PolicyError::TooComplex);
                }
            }
            Ok(out)
        }
        PolicyExpr::And(subs) => cross_product(subs),
        PolicyExpr::OutOf(k, subs) => {
            let k = *k as usize;
            if k == 0 || k > subs.len() {
                return Err(PolicyError::BadThreshold);
            }
            // Union over all k-subsets of the operands.
            let mut out = Vec::new();
            let mut indices: Vec<usize> = (0..k).collect();
            loop {
                let chosen: Vec<PolicyExpr> = indices.iter().map(|&i| subs[i].clone()).collect();
                out.extend(cross_product(&chosen)?);
                if out.len() > MAX_REQUIREMENT_SETS {
                    return Err(PolicyError::TooComplex);
                }
                // Next combination in lexicographic order.
                let mut i = k;
                loop {
                    if i == 0 {
                        return Ok(out);
                    }
                    i -= 1;
                    if indices[i] != i + subs.len() - k {
                        break;
                    }
                }
                indices[i] += 1;
                for j in i + 1..k {
                    indices[j] = indices[j - 1] + 1;
                }
            }
        }
        PolicyExpr::AnyMember
        | PolicyExpr::AllMembers
        | PolicyExpr::AnyAdmin
        | PolicyExpr::MajorityAdmins => Err(PolicyError::Parse(
            "meta policy must be expanded against the channel orgs before evaluation".into(),
        )),
    }
}

/// DNF of a conjunction: the cross product of the operands' DNFs.
fn cross_product(subs: &[PolicyExpr]) -> Result<Vec<Vec<Principal>>, PolicyError> {
    let mut acc: Vec<Vec<Principal>> = vec![Vec::new()];
    for sub in subs {
        let sub_sets = requirement_sets(sub)?;
        let mut next = Vec::with_capacity(acc.len() * sub_sets.len());
        for left in &acc {
            for right in &sub_sets {
                let mut combined = left.clone();
                combined.extend(right.iter().cloned());
                next.push(combined);
            }
            if next.len() > MAX_REQUIREMENT_SETS {
                return Err(PolicyError::TooComplex);
            }
        }
        acc = next;
    }
    Ok(acc)
}

/// Checks whether every principal slot can be matched to a distinct signer.
fn matchable(principals: &[Principal], signers: &[Signer]) -> bool {
    if principals.len() > signers.len() {
        return false;
    }
    // match_of[s] = index of the principal currently assigned to signer s.
    let mut match_of: Vec<Option<usize>> = vec![None; signers.len()];
    for (pi, principal) in principals.iter().enumerate() {
        let mut visited = vec![false; signers.len()];
        if !augment(
            pi,
            principal,
            principals,
            signers,
            &mut match_of,
            &mut visited,
        ) {
            return false;
        }
    }
    true
}

fn augment(
    pi: usize,
    principal: &Principal,
    principals: &[Principal],
    signers: &[Signer],
    match_of: &mut Vec<Option<usize>>,
    visited: &mut Vec<bool>,
) -> bool {
    for (si, signer) in signers.iter().enumerate() {
        if visited[si] || !satisfies(signer, principal) {
            continue;
        }
        visited[si] = true;
        match match_of[si] {
            None => {
                match_of[si] = Some(pi);
                return true;
            }
            Some(other) => {
                if augment(
                    other,
                    &principals[other],
                    principals,
                    signers,
                    match_of,
                    visited,
                ) {
                    match_of[si] = Some(pi);
                    return true;
                }
            }
        }
    }
    false
}

fn satisfies(signer: &Signer, principal: &Principal) -> bool {
    signer.msp_id == principal.msp_id && principal.role.matches(&signer.role)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoleMatch;

    fn p(msp: &str, role: RoleMatch) -> Principal {
        Principal {
            msp_id: msp.into(),
            role,
        }
    }

    fn s(msp: &str, role: &str) -> Signer {
        Signer {
            msp_id: msp.into(),
            role: role.into(),
        }
    }

    #[test]
    fn matching_requires_distinct_signers() {
        let principals = vec![p("A", RoleMatch::Member), p("A", RoleMatch::Member)];
        assert!(!matchable(&principals, &[s("A", "peer")]));
        assert!(matchable(&principals, &[s("A", "peer"), s("A", "peer")]));
    }

    #[test]
    fn matching_backtracks() {
        // Signer 0 satisfies both principals; signer 1 only the first.
        // A greedy assignment of signer 0 to principal 0 must be undone.
        let principals = vec![p("A", RoleMatch::Member), p("A", RoleMatch::Admin)];
        let signers = [s("A", "admin"), s("A", "peer")];
        assert!(matchable(&principals, &signers));
    }

    #[test]
    fn matching_impossible() {
        let principals = vec![p("A", RoleMatch::Admin), p("A", RoleMatch::Admin)];
        let signers = [s("A", "admin"), s("A", "peer")];
        assert!(!matchable(&principals, &signers));
    }

    #[test]
    fn outof_generates_combinations() {
        let expr = PolicyExpr::OutOf(
            2,
            vec![
                PolicyExpr::Principal(p("A", RoleMatch::Member)),
                PolicyExpr::Principal(p("B", RoleMatch::Member)),
                PolicyExpr::Principal(p("C", RoleMatch::Member)),
            ],
        );
        let sets = requirement_sets(&expr).unwrap();
        assert_eq!(sets.len(), 3); // {A,B}, {A,C}, {B,C}
    }

    #[test]
    fn nested_and_or_dnf() {
        // AND(A, OR(B, C)) -> {A,B}, {A,C}.
        let expr = PolicyExpr::And(vec![
            PolicyExpr::Principal(p("A", RoleMatch::Member)),
            PolicyExpr::Or(vec![
                PolicyExpr::Principal(p("B", RoleMatch::Member)),
                PolicyExpr::Principal(p("C", RoleMatch::Member)),
            ]),
        ]);
        let sets = requirement_sets(&expr).unwrap();
        assert_eq!(sets.len(), 2);
    }

    #[test]
    fn complexity_cap_enforced() {
        // OR of ORs … exponential AND: AND of 20 ORs of 2 = 2^20 sets > cap.
        let two_way = PolicyExpr::Or(vec![
            PolicyExpr::Principal(p("A", RoleMatch::Member)),
            PolicyExpr::Principal(p("B", RoleMatch::Member)),
        ]);
        let expr = PolicyExpr::And(vec![two_way; 20]);
        assert_eq!(
            requirement_sets(&expr).unwrap_err(),
            PolicyError::TooComplex
        );
    }

    #[test]
    fn empty_signers_never_satisfy_principal() {
        let expr = PolicyExpr::Principal(p("A", RoleMatch::Member));
        assert!(!is_satisfied(&expr, &[]).unwrap());
    }
}
