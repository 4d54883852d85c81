//! Seed-deterministic forged-ticket sweeps for batch sortition
//! verification.
//!
//! The batch Schnorr verifier (`crypto::schnorr::verify_batch` behind
//! `sortition::verify_tickets_batch`) claims exact attribution: a
//! round with any mix of forged tickets returns the precise ascending
//! index set of the invalid ones, never poisoning honest tickets and
//! never missing a forgery. This module turns that claim into a
//! seed-sweepable experiment in the style of [`AdversarySchedule`]
//! (crate::AdversarySchedule): a [`ForgeryPlan`] — a pure function of
//! `(seed, devices)` — picks which tickets to corrupt and how, the
//! sweep applies it to an honestly generated round, and the outcome is
//! cross-checked three ways:
//!
//! * the honest round batch-verifies `Ok(())`;
//! * the corrupted round returns `Err` with exactly the planned index
//!   set (tests both the hash-binding prefilter and the
//!   deterministic-combiner bisection fallback, since the corruption
//!   catalog spans both);
//! * the per-ticket `verify_ticket` oracle agrees with the batch
//!   verdict on every single ticket.
//!
//! Everything derives from the seed, so a failing sweep reproduces
//! bitwise from its seed alone.

use arboretum_crypto::group::{GroupElem, Scalar};
use arboretum_crypto::hmac::hmac_u64;
use arboretum_crypto::sha256::sha256;
use arboretum_sortition::{
    make_ticket_with_msg, sortition_message, verify_ticket, verify_tickets_batch, Device, Registry,
    Ticket,
};

/// How a planned forgery corrupts its ticket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Perturb the response scalar `s`; the rank hash is recomputed so
    /// the forgery survives the hash-binding prefilter and must be
    /// caught by the signature batch.
    Response,
    /// Perturb the commitment `R`; rank hash recomputed, caught by the
    /// signature batch.
    Commitment,
    /// Tamper with the rank hash only; caught by the hash-binding
    /// prefilter before the batch ever sees it.
    Rank,
    /// Substitute a signature by the *next* device over the same
    /// message — a valid Schnorr transcript under the wrong key; rank
    /// hash recomputed, caught by the signature batch.
    WrongSigner,
}

const CORRUPTIONS: [Corruption; 4] = [
    Corruption::Response,
    Corruption::Commitment,
    Corruption::Rank,
    Corruption::WrongSigner,
];

/// A seed-derived forgery assignment: which ticket indices to corrupt
/// and how. Pure function of `(seed, devices)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForgeryPlan {
    /// The deriving seed.
    pub seed: u64,
    /// Round population.
    pub devices: usize,
    /// `(ticket index, corruption)`, ascending by index, all distinct.
    pub forged: Vec<(usize, Corruption)>,
}

/// Derives the forgery plan for a seed: between 1 and `devices / 8`
/// (capped at 48) distinct tickets, each with a seed-chosen corruption
/// from the catalog. The sweep width guarantees every [`Corruption`]
/// variant appears across a modest seed range.
pub fn forgery_plan(seed: u64, devices: usize) -> ForgeryPlan {
    let key = seed.to_be_bytes();
    let max_forged = (devices / 8).clamp(1, 48) as u64;
    let count = 1 + (hmac_u64(&key, b"forgery/count") % max_forged) as usize;
    let mut forged: Vec<(usize, Corruption)> = Vec::with_capacity(count);
    let mut ctr = 0u64;
    while forged.len() < count {
        let idx = (hmac_u64(&key, &[b"forgery/idx/", &ctr.to_be_bytes()[..]].concat())
            % devices as u64) as usize;
        ctr += 1;
        if forged.iter().any(|&(i, _)| i == idx) {
            continue;
        }
        // Force the first four picks through distinct corruption modes
        // so every seed exercises both the prefilter and the batch
        // bisection; later picks draw freely.
        let mode = if forged.len() < CORRUPTIONS.len() {
            CORRUPTIONS[forged.len()]
        } else {
            CORRUPTIONS[(hmac_u64(&key, &[b"forgery/mode/", &ctr.to_be_bytes()[..]].concat())
                % CORRUPTIONS.len() as u64) as usize]
        };
        forged.push((idx, mode));
    }
    forged.sort_unstable_by_key(|&(i, _)| i);
    ForgeryPlan {
        seed,
        devices,
        forged,
    }
}

/// Applies one corruption to a ticket, in place.
fn corrupt(ticket: &mut Ticket, mode: Corruption, registry: &Registry, msg: &[u8]) {
    match mode {
        Corruption::Response => {
            // `v ^ 1 != v` and reduction can only map the one even
            // value `q - 1` to `0`, never back onto `v` — so the
            // forged scalar always differs from the real response.
            ticket.signature.s = Scalar::new(ticket.signature.s.value() ^ 1);
            ticket.hash = sha256(&ticket.signature.to_bytes());
        }
        Corruption::Commitment => {
            ticket.signature.r = ticket.signature.r + GroupElem::generator();
            ticket.hash = sha256(&ticket.signature.to_bytes());
        }
        Corruption::Rank => {
            ticket.hash[0] ^= 0xff;
        }
        Corruption::WrongSigner => {
            let other = (ticket.device_idx + 1) % registry.len();
            ticket.signature = registry.device(other).keypair().sign(msg);
            ticket.hash = sha256(&ticket.signature.to_bytes());
        }
    }
}

/// Runs one forged-ticket sweep: honest round must pass, the planned
/// corruption must be attributed exactly, and the per-ticket oracle
/// must agree with the batch on every ticket. Returns a description of
/// the first divergence, if any.
pub fn run_forgery_sweep(seed: u64, devices: usize) -> Result<(), String> {
    assert!(devices >= 16, "sweep needs a non-trivial population");
    let plan = forgery_plan(seed, devices);
    let registry = Registry::new((0..devices as u64).map(Device::from_id).collect());
    let block = sha256(&[b"arboretum forgery beacon v1/", &seed.to_be_bytes()[..]].concat());
    let query_idx = seed % 4;
    let msg = sortition_message(&block, query_idx);

    let mut tickets: Vec<Ticket> = registry
        .devices()
        .iter()
        .enumerate()
        .map(|(i, d)| make_ticket_with_msg(d, i, &msg))
        .collect();
    if let Err(bad) = verify_tickets_batch(&registry, &block, query_idx, &tickets) {
        return Err(format!(
            "seed {seed}: honest round rejected tickets {bad:?} (false positives)"
        ));
    }

    for &(idx, mode) in &plan.forged {
        corrupt(&mut tickets[idx], mode, &registry, &msg);
    }
    let want: Vec<usize> = plan.forged.iter().map(|&(i, _)| i).collect();
    match verify_tickets_batch(&registry, &block, query_idx, &tickets) {
        Ok(()) => {
            return Err(format!(
                "seed {seed}: batch accepted a round with {} forgeries {want:?}",
                want.len()
            ))
        }
        Err(got) if got != want => {
            return Err(format!(
                "seed {seed}: batch attribution {got:?} != planned forgeries {want:?}"
            ))
        }
        Err(_) => {}
    }

    // Per-ticket oracle: the batch verdict must match `verify_ticket`
    // ticket by ticket.
    for (i, t) in tickets.iter().enumerate() {
        let pk = &registry.device(t.device_idx).pk;
        let single = verify_ticket(pk, &block, query_idx, t);
        let planned_bad = want.binary_search(&i).is_ok();
        if single == planned_bad {
            return Err(format!(
                "seed {seed}: ticket {i} single-verify {single} disagrees with \
                 batch verdict (forged: {planned_bad})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_distinct_across_seeds() {
        let a = forgery_plan(7, 256);
        assert_eq!(a, forgery_plan(7, 256));
        assert_ne!(a, forgery_plan(8, 256));
        assert!(!a.forged.is_empty());
        let mut idxs: Vec<usize> = a.forged.iter().map(|&(i, _)| i).collect();
        let before = idxs.clone();
        idxs.sort_unstable();
        idxs.dedup();
        assert_eq!(idxs, before, "indices must be sorted and distinct");
        assert!(idxs.iter().all(|&i| i < 256));
    }

    #[test]
    fn catalog_is_fully_covered_by_any_plan_with_four_picks() {
        // The forced prefix guarantees coverage whenever count >= 4.
        let plan = forgery_plan(3, 512);
        if plan.forged.len() >= CORRUPTIONS.len() {
            for mode in CORRUPTIONS {
                assert!(
                    plan.forged.iter().any(|&(_, m)| m == mode),
                    "{mode:?} missing"
                );
            }
        }
    }

    #[test]
    fn sweep_passes_on_a_few_seeds() {
        for seed in 0..3 {
            run_forgery_sweep(seed, 96).unwrap();
        }
    }

    #[test]
    fn every_corruption_mode_is_individually_attributed() {
        let devices = 48usize;
        let registry = Registry::new((0..devices as u64).map(Device::from_id).collect());
        let block = sha256(b"mode test");
        let msg = sortition_message(&block, 0);
        for (k, mode) in CORRUPTIONS.into_iter().enumerate() {
            let mut tickets: Vec<Ticket> = registry
                .devices()
                .iter()
                .enumerate()
                .map(|(i, d)| make_ticket_with_msg(d, i, &msg))
                .collect();
            let idx = 5 + 7 * k;
            corrupt(&mut tickets[idx], mode, &registry, &msg);
            assert_eq!(
                verify_tickets_batch(&registry, &block, 0, &tickets),
                Err(vec![idx]),
                "{mode:?}"
            );
        }
    }
}
