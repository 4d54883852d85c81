//! Cached fixed-cost session setup (§5's amortization story).
//!
//! Sortition and BGV key generation are the dominant fixed costs of a
//! deployment: in the paper's standing service they are paid once per
//! session and amortized across the analyst's query stream, not
//! rebuilt per query. [`SessionSetup`] captures exactly that state —
//! the sortition roster, the BGV context and keypair, and the metered
//! distributed-keygen cost — so a session catalog can build it once
//! and hand it to every subsequent execution, which then reports zero
//! [`SetupCounters`] of its own.
//!
//! The one-shot path ([`crate::executor::execute`] without a setup)
//! builds the same structure inline from the `cfg.seed` stream; the
//! cached path builds it from a catalog-owned RNG stream so per-query
//! randomness is independent of which query (if any) triggered the
//! build.

use arboretum_bgv::{keygen as bgv_keygen, BgvContext, BgvParams, PublicKey, SecretKey};
use arboretum_crypto::sha256::{domain_tag, sha256, Digest};
use arboretum_field::fixed::Fix;
use arboretum_mpc::engine::MpcEngine;
use arboretum_mpc::fixp::{inject_with_cost, FunctionalityCost};
use arboretum_mpc::network::NetMetrics;
use arboretum_net::FabricKind;
use arboretum_sortition::select::{select_committees, Committees};
use rand::rngs::StdRng;

use std::sync::Arc;

use crate::executor::{Deployment, ExecError};

/// Committee roles a query seats: keygen, decryption, noising, argmax,
/// output (§5.1).
pub const SETUP_ROLES: usize = 5;

/// Op counts for the fixed-cost setup phase of one execution.
///
/// An execution that built its own setup (the one-shot path, or the
/// first use of a session catalog) reports the work here; an execution
/// running against a cached [`SessionSetup`] reports all-zero counters
/// — the observable contract behind "keygen is amortized across the
/// query stream".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SetupCounters {
    /// Committees seated by sortition during this execution.
    pub sortition_committees: u64,
    /// BGV keypairs generated during this execution.
    pub keygen_ops: u64,
    /// Metered distributed-keygen MPC rounds charged to this execution.
    pub keygen_mpc_rounds: u64,
}

impl SetupCounters {
    /// Whether this execution performed any sortition or keygen work.
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }
}

/// The cached fixed-cost state of a deployment session: everything a
/// query needs that does not depend on the query itself.
#[derive(Clone, Debug)]
pub struct SessionSetup {
    /// The sortition roster (one committee per role, §5.1).
    pub committees: Committees,
    /// The BGV context (ring parameters, NTT tables, scratch pool).
    pub ctx: Arc<BgvContext>,
    /// The session secret key (held by the simulated committees).
    pub sk: SecretKey,
    /// The session public key devices encrypt under.
    pub pk: PublicKey,
    /// Digest of the published public key (bound into certificates).
    pub pk_digest: Digest,
    /// Metered cost of the distributed key generation.
    pub keygen_metrics: NetMetrics,
    /// The setup work performed, attributed to whoever built it.
    pub counters: SetupCounters,
    /// Committee size the roster was seated at.
    pub committee_size: usize,
    /// The beacon block the committees were seated from.
    pub beacon: Digest,
}

/// Performs the fixed-cost setup for a deployment: sortition seats the
/// committees from the current beacon, the key-generation committee
/// produces the BGV keypair (drawing from `rng`), and the distributed
/// keygen is metered in an MPC engine seeded from `seed`.
///
/// # Errors
///
/// Returns [`ExecError::Unsupported`] if the schema's category count
/// does not fit the BGV parameter space.
pub fn build_session_setup(
    deployment: &Deployment,
    committee_size: usize,
    seed: u64,
    rng: &mut StdRng,
) -> Result<SessionSetup, ExecError> {
    build_session_setup_on(
        deployment,
        committee_size,
        seed,
        rng,
        FabricKind::resolve(None, FabricKind::Sim),
    )
}

/// [`build_session_setup`] on an explicit network fabric. The fabric
/// only changes transport mechanics for the keygen metering engine —
/// outputs and metrics are bitwise identical across fabrics.
///
/// # Errors
///
/// Returns [`ExecError::Unsupported`] if the schema's category count
/// does not fit the BGV parameter space.
pub fn build_session_setup_on(
    deployment: &Deployment,
    committee_size: usize,
    seed: u64,
    rng: &mut StdRng,
    fabric: FabricKind,
) -> Result<SessionSetup, ExecError> {
    build_session_setup_observed(deployment, committee_size, seed, rng, fabric, None)
}

/// [`build_session_setup_on`] with an optional passive frame observer
/// attached to the keygen metering engine. The sink sees every keygen
/// frame before any device/committee behavior is queried, so adaptive
/// adversaries can condition on real traffic; observation never changes
/// outputs, metrics, or RNG consumption.
///
/// # Errors
///
/// Returns [`ExecError::Unsupported`] if the schema's category count
/// does not fit the BGV parameter space.
pub fn build_session_setup_observed(
    deployment: &Deployment,
    committee_size: usize,
    seed: u64,
    rng: &mut StdRng,
    fabric: FabricKind,
    sink: Option<arboretum_net::SharedSink>,
) -> Result<SessionSetup, ExecError> {
    let m = committee_size;
    let t = (m - 1) / 2;
    let categories = deployment.schema.row_width;

    // ---- Sortition seats the committees (§5.1). ----
    let committees = select_committees(&deployment.registry, &deployment.beacon, 1, SETUP_ROLES, m);

    // ---- Key generation committee (§5.2). ----
    let bgv_params = BgvParams::new(
        256.max(categories.next_power_of_two()),
        vec![
            arboretum_field::primes::BGV_Q1,
            arboretum_field::primes::BGV_Q2,
        ],
        arboretum_field::primes::BGV_Q_ROOTS[..2].to_vec(),
        1 << 30,
        None,
    )
    .map_err(|e| ExecError::Unsupported(e.to_string()))?;
    let ctx = Arc::new(BgvContext::new(bgv_params));
    let (sk, pk) = bgv_keygen(&ctx, rng);

    // Meter the distributed keygen in an MPC engine.
    let mut keygen_mpc = MpcEngine::new_on(m, t, true, seed ^ domain_tag(b"keygen-mpc"), fabric);
    keygen_mpc.set_frame_sink(sink);
    let keygen_cost = FunctionalityCost {
        mults: 500,
        rounds: 60,
    };
    let keygen_rounds = keygen_cost.rounds;
    inject_with_cost(&mut keygen_mpc, Fix::ZERO, keygen_cost);
    // The analytic meter above counts the keygen rounds; this puts the
    // same rounds on the wire so frame observers (adaptive adversaries)
    // see setup traffic before any behavior is queried. Runs whether or
    // not a sink is attached, so observation never changes behavior.
    keygen_mpc.materialize_metered_rounds(keygen_rounds);
    let keygen_metrics = keygen_mpc.net.metrics.clone();

    let pk_digest = {
        let mut bytes = Vec::new();
        for row in &pk.a().rows {
            for &c in row.iter().take(8) {
                bytes.extend_from_slice(&c.to_be_bytes());
            }
        }
        sha256(&bytes)
    };

    let counters = SetupCounters {
        sortition_committees: committees.committees.len() as u64,
        keygen_ops: 1,
        keygen_mpc_rounds: keygen_metrics.rounds,
    };

    Ok(SessionSetup {
        committees,
        ctx,
        sk,
        pk,
        pk_digest,
        keygen_metrics,
        counters,
        committee_size: m,
        beacon: deployment.beacon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn deployment() -> Deployment {
        let assignments: Vec<usize> = (0..40).map(|i| i % 4).collect();
        Deployment::one_hot(&assignments, 4)
    }

    #[test]
    fn setup_is_deterministic_in_seed() {
        let d = deployment();
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        let a = build_session_setup(&d, 5, 7, &mut r1).unwrap();
        let b = build_session_setup(&d, 5, 7, &mut r2).unwrap();
        assert_eq!(a.committees, b.committees);
        assert_eq!(a.pk_digest, b.pk_digest);
        assert_eq!(a.keygen_metrics, b.keygen_metrics);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn counters_record_the_fixed_costs() {
        let d = deployment();
        let mut rng = StdRng::seed_from_u64(3);
        let s = build_session_setup(&d, 5, 7, &mut rng).unwrap();
        assert_eq!(s.counters.sortition_committees, SETUP_ROLES as u64);
        assert_eq!(s.counters.keygen_ops, 1);
        assert!(s.counters.keygen_mpc_rounds > 0);
        assert!(!s.counters.is_zero());
        assert!(SetupCounters::default().is_zero());
        assert_eq!(s.committee_size, 5);
        assert_eq!(s.beacon, d.beacon);
    }
}
