//! Semantic auditing of Byzantine answers: leader-side spot-checks of each
//! machine's claimed ℓ-NN contributions against the shard-local oracle.
//!
//! The link layer catches *transport* corruption (chained per-link digests,
//! [`kmachine::EngineError::IntegrityViolation`]); this module catches
//! *protocol-level lying* — a machine that runs the protocol faithfully but
//! announces perturbed candidate distances or ids. The auditor (the query
//! layer, standing in for the leader) holds the real shards, so it can
//! recompute what each machine *should* have contributed:
//!
//! 1. **Attribution** — a seeded sample of each machine's claimed answer
//!    keys is recomputed against that machine's true local top-ℓ. A claimed
//!    key the shard does not actually contain is sound, individual evidence
//!    of lying.
//! 2. **Census** — the claims across machines must total exactly
//!    `min(ℓ, points alive)`: the global answer size is checkable without
//!    trusting any single machine.
//! 3. **Completeness** — each machine's claims must equal its true slice of
//!    the global top-ℓ. A machine whose true members are *missing* from its
//!    claims is soundly blamed (only lying about one's own points can hide
//!    them); surplus-only mismatches carry no individual blame — a liar
//!    elsewhere can shift the selection boundary and make honest machines
//!    over-claim — so the audit then flags one deterministic suspect and
//!    lets quarantine-and-retry converge.
//!
//! The audit never certifies a wrong answer: [`AuditReport::ok`] holds iff
//! the claims are exactly the true ℓ-NN partition over the audited
//! machines. Blame quality only affects how many quarantine rounds the
//! retry loop needs, never whether a wrong answer escapes.

use kmachine::MachineId;
use knn_points::{Dist, DistKey};

use crate::splitmix64;

/// Claimed answer keys spot-recomputed per machine by each audit pass.
pub const AUDIT_SAMPLE: usize = 8;

/// Domain separation for the lying-input perturbation stream (distinct
/// from the wire-tamper and link-corruption salts in `kmachine`).
const LIE_SALT: u64 = 0x11E5_0F7E_11E5_0F7E;

/// Deterministically perturb a lying machine's materialized local
/// distances — the canonical *source-level* lie a round-0
/// [`kmachine::AdversaryPlan`] liar (or an equivocator) tells.
///
/// Every key's distance is inflated by a nonzero seeded offset keyed on
/// `(seed, machine, point id)`, so the lie is pure: byte-identical on every
/// engine, across retries, and across the sequential and batched paths.
/// Inflation (rather than arbitrary flips) keeps the lie *order-safe* —
/// encodings only grow, which both distance families order correctly — and
/// keeps blame *sound*: the liar's true nearest points vanish from the
/// global answer, and only the machine owning those points could have made
/// them vanish.
///
/// The keys come back in their input positions, **no longer sorted** (each
/// offset is independent of its neighbors'): a caller that feeds them to a
/// protocol re-sorts first, as the runner does for a lying machine's cells.
pub fn perturb_input(mut keys: Vec<DistKey>, seed: u64, machine: MachineId) -> Vec<DistKey> {
    for key in &mut keys {
        let w = splitmix64(
            seed ^ LIE_SALT
                ^ (machine as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ key.id.0.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        // Nonzero, bounded offset: the lie always changes the encoding and
        // never wraps the ordered domain.
        let offset = (w >> 32) | 1;
        key.dist = Dist::from_encoding(key.dist.encoding().saturating_add(offset));
    }
    keys
}

/// Verdict of one audit pass over a run's claimed answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// True iff the claims are exactly the true ℓ-NN partition over the
    /// audited machines — the answer is certified correct.
    pub ok: bool,
    /// Machines (indices into the audited slice) to quarantine before
    /// retrying. Empty iff `ok`. When sound individual evidence exists
    /// (attribution failures, hidden own points) every such machine is
    /// listed; otherwise exactly one deterministic suspect is, so the
    /// retry loop always shrinks the cluster and terminates.
    pub suspects: Vec<MachineId>,
}

/// Audit one run's claimed answer against the shard-local oracles.
///
/// * `local_truth[m]` — machine `m`'s **true** local top-ℓ (what the
///   auditor recomputes from the real shard; empty for machines that
///   crashed in-run and legitimately contributed nothing).
/// * `claims[m]` — the answer keys machine `m` reported.
/// * `ell` — the query's ℓ.
/// * `seed` — drives the attribution sampling (pure, engine-invariant).
///
/// Returns [`AuditReport::ok`] iff the claims partition the true global
/// top-ℓ over the audited machines exactly.
pub fn audit_claims(
    local_truth: &[Vec<DistKey>],
    claims: &[Vec<DistKey>],
    ell: usize,
    seed: u64,
) -> AuditReport {
    assert_eq!(local_truth.len(), claims.len(), "one truth oracle per audited machine");
    let k = claims.len();

    // The true global top-ℓ, partitioned by owner. The global answer is a
    // subset of the union of local top-ℓs, so the oracles suffice.
    let mut pool: Vec<(DistKey, usize)> = local_truth
        .iter()
        .enumerate()
        .flat_map(|(m, keys)| keys.iter().map(move |&key| (key, m)))
        .collect();
    pool.sort_unstable();
    pool.truncate(ell);
    let mut true_slice: Vec<Vec<DistKey>> = vec![Vec::new(); k];
    for &(key, m) in &pool {
        true_slice[m].push(key);
    }

    let mut sound: Vec<MachineId> = Vec::new(); // individually-blamable liars
    let mut mismatched: Vec<MachineId> = Vec::new(); // wrong but blame-free
    for m in 0..k {
        // Attribution spot-check: a seeded sample of the claims must exist
        // in the machine's true local top-ℓ.
        let truth = &local_truth[m];
        let n = claims[m].len();
        let fabricated = (0..AUDIT_SAMPLE.min(n)).any(|j| {
            let pick = splitmix64(seed ^ ((m as u64) << 32) ^ j as u64) as usize % n;
            truth.binary_search(&claims[m][pick]).is_err()
        });
        // Completeness: claims must equal the machine's true slice of the
        // global answer.
        let mut sorted_claims = claims[m].clone();
        sorted_claims.sort_unstable();
        let hides_own = true_slice[m].iter().any(|t| sorted_claims.binary_search(t).is_err());
        if fabricated || hides_own {
            sound.push(m);
        } else if sorted_claims != true_slice[m] {
            mismatched.push(m);
        }
    }

    // Census: the claims must total exactly the true answer size.
    let census_ok = claims.iter().map(Vec::len).sum::<usize>() == pool.len();

    let ok = census_ok && sound.is_empty() && mismatched.is_empty();
    let suspects = if !sound.is_empty() {
        sound
    } else if !mismatched.is_empty() {
        // No individual evidence (a wire-level lie shifted the boundary
        // under everyone): quarantine one deterministic suspect per pass.
        vec![mismatched[0]]
    } else {
        Vec::new()
    };
    debug_assert!(ok == suspects.is_empty(), "a failed audit always names a suspect");
    AuditReport { ok, suspects }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knn_points::PointId;

    fn key(d: u64, id: u64) -> DistKey {
        DistKey::new(Dist::from_u64(d), PointId(id))
    }

    /// Sorted local top-ℓ oracles for three machines, ten points each.
    fn truth() -> Vec<Vec<DistKey>> {
        (0..3u64).map(|m| (0..10u64).map(|i| key(3 * i + m, 100 * m + i)).collect()).collect()
    }

    /// The honest claims: each machine's slice of the global top-ℓ.
    fn honest_claims(local_truth: &[Vec<DistKey>], ell: usize) -> Vec<Vec<DistKey>> {
        let mut pool: Vec<(DistKey, usize)> = local_truth
            .iter()
            .enumerate()
            .flat_map(|(m, ks)| ks.iter().map(move |&key| (key, m)))
            .collect();
        pool.sort_unstable();
        pool.truncate(ell);
        let mut out = vec![Vec::new(); local_truth.len()];
        for (key, m) in pool {
            out[m].push(key);
        }
        out
    }

    #[test]
    fn honest_claims_pass() {
        let t = truth();
        let report = audit_claims(&t, &honest_claims(&t, 7), 7, 42);
        assert!(report.ok);
        assert!(report.suspects.is_empty());
    }

    #[test]
    fn crashed_machines_with_empty_truth_and_claims_pass() {
        let mut t = truth();
        t[1] = Vec::new(); // crashed in-run: contributes nothing, owes nothing
        let report = audit_claims(&t, &honest_claims(&t, 7), 7, 42);
        assert!(report.ok);
    }

    #[test]
    fn fabricated_keys_blame_the_fabricator() {
        let t = truth();
        let mut claims = honest_claims(&t, 7);
        claims[2] = vec![key(0, 999), key(1, 998)]; // keys shard 2 does not hold
        let report = audit_claims(&t, &claims, 7, 42);
        assert!(!report.ok);
        assert!(report.suspects.contains(&2), "{:?}", report.suspects);
    }

    #[test]
    fn hiding_own_points_blames_the_hider() {
        let t = truth();
        let mut claims = honest_claims(&t, 9);
        assert!(!claims[0].is_empty(), "machine 0 owns global winners");
        claims[0].clear(); // machine 0 hides its members of the answer
        let report = audit_claims(&t, &claims, 9, 42);
        assert!(!report.ok);
        assert_eq!(report.suspects, vec![0], "only the owner can hide its points");
    }

    #[test]
    fn surplus_only_mismatch_names_one_deterministic_suspect() {
        let t = truth();
        let mut claims = honest_claims(&t, 6);
        // A shifted boundary makes machines over-claim keys they DO hold:
        // attribution passes, nothing is hidden, yet the census is wrong.
        claims[1].push(t[1][9]);
        claims[2].push(t[2][9]);
        let report = audit_claims(&t, &claims, 6, 42);
        assert!(!report.ok);
        assert_eq!(report.suspects.len(), 1, "no individual evidence: quarantine one");
        assert_eq!(report.suspects, audit_claims(&t, &claims, 6, 42).suspects, "deterministic");
    }

    #[test]
    fn perturbed_input_is_deterministic_inflating_and_caught() {
        let t = truth();
        let lied = perturb_input(t[1].clone(), 7, 1);
        assert_eq!(lied, perturb_input(t[1].clone(), 7, 1), "pure in (seed, machine, id)");
        assert_ne!(lied, perturb_input(t[1].clone(), 8, 1), "seed-sensitive");
        assert_ne!(lied, perturb_input(t[1].clone(), 7, 2), "machine-sensitive");
        for (fake, real) in lied.iter().zip(&t[1]) {
            assert_eq!(fake.id, real.id, "ids stay attributable");
            assert!(fake.dist > real.dist, "lies only inflate");
        }
        // A liar whose answer slice was built from the perturbed input is
        // soundly blamed: its true winners are missing.
        let mut world = t.clone();
        world[1] = {
            let mut l = lied;
            l.sort_unstable();
            l
        };
        let claims = honest_claims(&world, 7);
        let report = audit_claims(&t, &claims, 7, 42);
        assert!(!report.ok);
        assert!(report.suspects.contains(&1), "{:?}", report.suspects);
    }

    #[test]
    fn ell_zero_and_empty_cluster_edge_cases() {
        let t = truth();
        let empty: Vec<Vec<DistKey>> = vec![Vec::new(); 3];
        assert!(audit_claims(&t, &empty, 0, 1).ok, "ℓ = 0 owes an empty answer");
        let no_machines: Vec<Vec<DistKey>> = Vec::new();
        assert!(audit_claims(&no_machines, &no_machines, 5, 1).ok);
        // Claiming anything at ℓ = 0 fails the census.
        let mut claims = empty;
        claims[0].push(key(1, 1));
        assert!(!audit_claims(&t, &claims, 0, 1).ok);
    }
}
