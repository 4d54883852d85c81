//! The honest-majority MPC engine.
//!
//! Runs an `m`-party SPDZ-wise-Shamir computation in-process, one object
//! acting as every member: secrets live as degree-`t` Shamir share
//! vectors, linear operations are local, multiplications consume Beaver
//! triples, and every communication step travels as a framed
//! [`arboretum_net::Message`] from one party to another across the
//! engine's virtual-time [`arboretum_net::EventedFabric`], which may
//! carry a committee's latency model and [`arboretum_net::FaultPlan`]
//! ([`MpcEngine::new_evented`]). A crashed, partitioned or silent party
//! surfaces as [`MpcError::Net`] from the operation that needed it. The
//! analytic [`crate::network::NetMeter`] is fed the *actual encoded
//! payload sizes* of those frames — the wire format is the single source
//! of truth for byte counts, and received frames (not local state)
//! supply the share values. Triples and random bits come from a dealer,
//! standing in for the DN07-style preprocessing of the real protocol;
//! the `malicious` flag applies the SPDZ-wise overhead (doubled share
//! material and verification opens), exactly the quantity the paper's
//! cost model needs (§4.6, §6).
//!
//! The unit of cost is the *opening* ([`MpcEngine::open_batch`]): two
//! rounds and `2(m − 1)` frames (three and `3m − 2` with the malicious
//! echo) however many values ride in it, so protocols batch. The king
//! reconstructs against Lagrange coefficients computed once per engine
//! for the points `1..=t+1` — a `t + 1`-term dot product per value, not
//! `t + 1` field inversions.
//!
//! Each sharing is written once. A dealer sharing draws its coefficients
//! into a buffer the engine reuses and evaluates straight into the
//! result's share vector; [`MpcEngine::mul_batch`] keeps its triples in
//! one engine-owned buffer, frames `x − a` and `y − b` from it, and forms
//! each product in one pass; linear combinations accumulate in place
//! ([`MpcEngine::add_scaled`]). An operation allocates once per result.

use arboretum_field::FGold;
use arboretum_net::{EventedConfig, EventedFabric, FabricKind, Message, NetError, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::NetMeter;
use crate::shamir::{committee_basis, share};

/// A secret-shared field element (all parties' shares, simulation-side).
#[derive(Clone, Debug)]
pub struct Shared {
    /// Share values, indexed by party (0-based; evaluation point is
    /// `party + 1`).
    pub shares: Vec<FGold>,
}

/// Errors from engine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcError {
    /// An opening failed to reconstruct.
    OpenFailed(String),
    /// Operand widths differ.
    PartyMismatch,
    /// The transport failed (timeout, crash, partition, wire decode).
    Net(String),
}

impl std::fmt::Display for MpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OpenFailed(e) => write!(f, "open failed: {e}"),
            Self::PartyMismatch => write!(f, "operand party counts differ"),
            Self::Net(e) => write!(f, "transport failed: {e}"),
        }
    }
}

impl std::error::Error for MpcError {}

impl From<NetError> for MpcError {
    fn from(e: NetError) -> Self {
        Self::Net(e.to_string())
    }
}

/// The MPC engine for one committee.
#[derive(Debug)]
pub struct MpcEngine {
    /// Number of parties `m`.
    pub m: usize,
    /// Corruption threshold `t` (honest majority: `t < m / 2`).
    pub t: usize,
    /// Whether SPDZ-wise malicious-security overheads are metered.
    pub malicious: bool,
    /// The communication meter.
    pub net: NetMeter,
    /// The in-process fabric every protocol message crosses.
    fabric: EventedFabric,
    /// Lagrange coefficients at zero over the points `1..=t+1` — fixed
    /// for the committee's lifetime, so every opening is a dot product.
    basis: Vec<FGold>,
    rng: StdRng,
    /// Scratch for the random coefficients of each dealer sharing.
    coeffs: Vec<FGold>,
    /// The running `mul_batch`'s dealer triples: per triple, the share
    /// vectors of `a`, `b` and `a·b`, back to back.
    triples: Vec<FGold>,
}

#[allow(clippy::should_implement_trait)] // Protocol ops named add/sub/mul by convention.
impl MpcEngine {
    /// Creates an engine with `m` parties tolerating `t` corruptions, on
    /// an evented fabric with the default configuration (no latency, no
    /// faults).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < m` and `2t < m` (honest majority).
    pub fn new(m: usize, t: usize, malicious: bool, seed: u64) -> Self {
        Self::new_evented(m, t, malicious, seed, &EventedConfig::default())
    }

    /// Forwards to [`MpcEngine::new`]; `_kind` selects nothing (deleted by ROADMAP 1b).
    pub fn new_on(m: usize, t: usize, malicious: bool, seed: u64, _kind: FabricKind) -> Self {
        Self::new(m, t, malicious, seed)
    }

    /// Creates an engine on an evented fabric built from `cfg`: its
    /// latency model, timeout and fault schedule apply to every protocol
    /// frame, so a crashed, partitioned or silent party fails the
    /// operation that needs it with [`MpcError::Net`].
    ///
    /// # Panics
    ///
    /// Panics unless `0 < m` and `2t < m` (honest majority), or if a
    /// latency matrix in `cfg` is smaller than `m × m`.
    pub fn new_evented(
        m: usize,
        t: usize,
        malicious: bool,
        seed: u64,
        cfg: &EventedConfig,
    ) -> Self {
        assert!(m > 0, "need at least one party");
        assert!(
            2 * t < m,
            "honest majority requires 2t < m (got t={t}, m={m})"
        );
        Self {
            m,
            t,
            malicious,
            net: NetMeter::new(m),
            fabric: EventedFabric::with_config(m, cfg),
            basis: committee_basis(t),
            rng: StdRng::seed_from_u64(seed),
            coeffs: Vec::with_capacity(t + 1),
            triples: Vec::new(),
        }
    }

    /// Frames a batch of elements, appending the MAC companion share per
    /// value in malicious mode (the SPDZ-wise doubling of share
    /// material on the wire).
    fn frame(&self, elems: impl ExactSizeIterator<Item = FGold>) -> Message {
        let mut out = Vec::with_capacity((1 + usize::from(self.malicious)) * elems.len());
        for v in elems {
            out.push(v);
            if self.malicious {
                out.push(v);
            }
        }
        Message::FieldElems(out)
    }

    /// The value elements of a received frame, in its own buffer, with
    /// the MAC companions dropped in malicious mode.
    fn unframe(&self, msg: Message) -> Result<Vec<FGold>, MpcError> {
        let mut elems = match msg {
            Message::FieldElems(elems) => elems,
            other => {
                return Err(MpcError::Net(format!(
                    "engine link carried a {} frame",
                    other.kind()
                )))
            }
        };
        if self.malicious {
            let mut value = false;
            elems.retain(|_| {
                value = !value;
                value
            });
        }
        Ok(elems)
    }

    /// Advances every party's round counter on the fabric and the meter.
    fn sync_round(&mut self) {
        for p in 0..self.m {
            self.fabric.round(p);
        }
        self.net.round();
    }

    /// Secret-shares an input value contributed by `party`.
    ///
    /// One round: the input party frames one share to every other party,
    /// and each recipient's share is taken from the decoded frame.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::Net`] if a frame cannot cross the fabric.
    pub fn input(&mut self, party: usize, v: FGold) -> Result<Shared, MpcError> {
        let Shared { shares: mut ys } = self.dealer_share(v);
        let mut sent = 0u64;
        for (j, &y) in ys.iter().enumerate() {
            if j == party {
                continue;
            }
            let msg = self.frame([y].into_iter());
            sent += self.fabric.send(party, j, &msg)? as u64;
        }
        self.net.send(party, sent);
        #[allow(clippy::needless_range_loop)] // `j` is the receiving party id, not just an index.
        for j in 0..self.m {
            if j == party {
                continue;
            }
            let got = self.fabric.recv(j, party)?;
            ys[j] = self.unframe(got)?[0];
        }
        self.sync_round();
        Ok(Shared { shares: ys })
    }

    /// Secret-shares a dealer/preprocessing value (no online cost),
    /// straight into the result's share vector.
    pub fn dealer_share(&mut self, v: FGold) -> Shared {
        let mut shares = vec![FGold::ZERO; self.m];
        share(v, self.t, &mut self.coeffs, &mut shares, &mut self.rng);
        Shared { shares }
    }

    /// Opens (publicly reconstructs) a batch of shared values.
    ///
    /// King-based opening: every party frames its shares to party 0, who
    /// reconstructs from the decoded frames and broadcasts the results.
    /// Two rounds regardless of batch size (three with the malicious
    /// consistency echo).
    pub fn open_batch(&mut self, xs: &[&Shared]) -> Result<Vec<FGold>, MpcError> {
        self.open_with(xs.len(), |i, p| xs[i].shares[p])
    }

    /// Opens `n` values, party `p`'s share of value `i` being
    /// `share_of(i, p)`: each party frames its shares as it reads them,
    /// so a value computed only to be opened is never materialized.
    fn open_with(
        &mut self,
        n: usize,
        share_of: impl Fn(usize, usize) -> FGold,
    ) -> Result<Vec<FGold>, MpcError> {
        // Parties → king.
        for p in 1..self.m {
            let msg = self.frame((0..n).map(|i| share_of(i, p)));
            let sent = self.fabric.send(p, 0, &msg)? as u64;
            self.net.send(p, sent);
        }
        self.sync_round();
        // King reconstructs from its own share plus the decoded wire
        // shares of parties `1..=t`: one dot product per value against
        // the committee's basis.
        let mut opened: Vec<FGold> = (0..n).map(|i| self.basis[0] * share_of(i, 0)).collect();
        for p in 1..self.m {
            let got = self.fabric.recv(0, p)?;
            if let Some(&lambda) = self.basis.get(p) {
                for (acc, y) in opened.iter_mut().zip(self.unframe(got)?) {
                    *acc += lambda * y;
                }
            }
        }
        self.net.metrics.opens += n as u64;
        // King → parties.
        let msg = self.frame(opened.iter().copied());
        let mut sent = 0u64;
        for p in 1..self.m {
            sent += self.fabric.send(0, p, &msg)? as u64;
        }
        self.net.send(0, sent);
        self.sync_round();
        // The values the protocol continues with come off the wire (any
        // non-king party's decoded broadcast; the king keeps its own).
        let mut result = opened;
        for p in 1..self.m {
            let got = self.fabric.recv(p, 0)?;
            if p == 1 {
                result = self.unframe(got)?;
            }
        }
        if self.malicious {
            // Consistency check: parties echo their opened view around a
            // ring and cross-verify.
            let msg = self.frame(result.iter().copied());
            if self.m > 1 {
                for p in 0..self.m {
                    let next = if p + 1 == self.m { 0 } else { p + 1 };
                    let sent = self.fabric.send(p, next, &msg)? as u64;
                    self.net.send(p, sent);
                }
                for p in 0..self.m {
                    let prev = if p == 0 { self.m - 1 } else { p - 1 };
                    let got = self.fabric.recv(p, prev)?;
                    if self.unframe(got)? != result {
                        return Err(MpcError::OpenFailed(
                            "opening consistency echo mismatch".into(),
                        ));
                    }
                }
            } else {
                // Degenerate single-party committee: the echo has no
                // peer, but the model still charges the frame.
                self.net.send(0, msg.payload_len() as u64);
            }
            self.sync_round();
        }
        Ok(result)
    }

    /// Opens a single value.
    pub fn open(&mut self, x: &Shared) -> Result<FGold, MpcError> {
        Ok(self.open_batch(&[x])?[0])
    }

    /// Local addition of shares.
    pub fn add(&self, a: &Shared, b: &Shared) -> Shared {
        Shared {
            shares: a
                .shares
                .iter()
                .zip(&b.shares)
                .map(|(&x, &y)| x + y)
                .collect(),
        }
    }

    /// Local subtraction.
    pub fn sub(&self, a: &Shared, b: &Shared) -> Shared {
        Shared {
            shares: a
                .shares
                .iter()
                .zip(&b.shares)
                .map(|(&x, &y)| x - y)
                .collect(),
        }
    }

    /// Local addition of a public constant (added to the degree-0 term by
    /// every party).
    pub fn add_const(&self, a: &Shared, c: FGold) -> Shared {
        // Adding a public constant to a Shamir sharing adds it to every
        // share (the constant polynomial).
        Shared {
            shares: a.shares.iter().map(|&x| x + c).collect(),
        }
    }

    /// Local multiplication by a public constant.
    pub fn mul_const(&self, a: &Shared, c: FGold) -> Shared {
        Shared {
            shares: a.shares.iter().map(|&x| x * c).collect(),
        }
    }

    /// Local `acc += c · x`, in place: how protocols sum linear
    /// combinations without a fresh sharing per term.
    pub fn add_scaled(&self, acc: &mut Shared, c: FGold, x: &Shared) {
        for (a, &y) in acc.shares.iter_mut().zip(&x.shares) {
            *a += c * y;
        }
    }

    /// The sharing of zero.
    pub fn zero(&self) -> Shared {
        Shared {
            shares: vec![FGold::ZERO; self.m],
        }
    }

    /// A public constant as a (degenerate) sharing.
    pub fn constant(&self, c: FGold) -> Shared {
        Shared {
            shares: vec![c; self.m],
        }
    }

    /// Multiplies batches of pairs with Beaver triples, batching all the
    /// masked openings into one round trip. The dealer writes the
    /// triples into one engine-owned buffer, the openings frame `x − a`
    /// and `y − b` straight from it, and each product is formed in one
    /// pass — one allocation per result.
    pub fn mul_batch(&mut self, pairs: &[(&Shared, &Shared)]) -> Result<Vec<Shared>, MpcError> {
        let (k, m) = (pairs.len(), self.m);
        // Dealer triples.
        self.triples.resize(3 * k * m, FGold::ZERO);
        for abc in self.triples.chunks_exact_mut(3 * m) {
            let a = FGold::new(self.rng.gen());
            let b = FGold::new(self.rng.gen());
            let (sa, bc) = abc.split_at_mut(m);
            let (sb, sc) = bc.split_at_mut(m);
            share(a, self.t, &mut self.coeffs, sa, &mut self.rng);
            share(b, self.t, &mut self.coeffs, sb, &mut self.rng);
            share(a * b, self.t, &mut self.coeffs, sc, &mut self.rng);
        }
        self.net.consume_triples(k as u64);
        // d = x - a for every pair, then e = y - b, opened in one batch
        // and framed straight from the triple buffer.
        let triples = std::mem::take(&mut self.triples);
        let opened = self.open_with(2 * k, |i, p| {
            let (pair, i, part) = if i < k {
                (pairs[i].0, i, 0)
            } else {
                (pairs[i - k].1, i - k, 1)
            };
            pair.shares[p] - triples[(3 * i + part) * m + p]
        });
        self.triples = triples;
        let opened = opened?;
        let (dvals, evals) = opened.split_at(k);
        // z = c + d·[b] + e·[a] + d·e.
        self.net.compute((self.m * 2 * k) as u64);
        Ok(self
            .triples
            .chunks_exact(3 * m)
            .zip(dvals.iter().zip(evals))
            .map(|(abc, (&d, &e))| {
                let (sa, bc) = abc.split_at(m);
                let (sb, sc) = bc.split_at(m);
                let de = d * e;
                Shared {
                    shares: (0..m).map(|p| sc[p] + d * sb[p] + e * sa[p] + de).collect(),
                }
            })
            .collect())
    }

    /// Multiplies two shared values: a one-pair [`Self::mul_batch`].
    ///
    /// # Errors
    ///
    /// Propagates opening and transport failures.
    pub fn mul(&mut self, a: &Shared, b: &Shared) -> Result<Shared, MpcError> {
        Ok(self.mul_batch(&[(a, b)])?.remove(0))
    }

    /// Jointly samples a uniformly random shared field element.
    ///
    /// One all-to-all round: the dealer's sharing is echo-distributed —
    /// every party relays every peer's share to that peer, and each
    /// party adopts the relayed copy (a CGHN-style broadcast echo that
    /// keeps a faulty relayer detectable). Each party therefore frames
    /// `m − 1` elements, the same traffic as one contributed re-sharing.
    ///
    /// # Errors
    ///
    /// Returns [`MpcError::Net`] if a frame cannot cross the fabric.
    pub fn random(&mut self) -> Result<Shared, MpcError> {
        let v = FGold::new(self.rng.gen());
        let Shared { shares: mut ys } = self.dealer_share(v);
        for p in 0..self.m {
            let mut sent = 0u64;
            for (j, &y) in ys.iter().enumerate() {
                if j == p {
                    continue;
                }
                let msg = self.frame([y].into_iter());
                sent += self.fabric.send(p, j, &msg)? as u64;
            }
            self.net.send(p, sent);
        }
        #[allow(clippy::needless_range_loop)] // `j` is the receiving party id, not just an index.
        for j in 0..self.m {
            for p in 0..self.m {
                if p == j {
                    continue;
                }
                let got = self.fabric.recv(j, p)?;
                let echoed = self.unframe(got)?[0];
                debug_assert_eq!(echoed, ys[j], "relayed share copies must agree");
                ys[j] = echoed;
            }
        }
        self.sync_round();
        Ok(Shared { shares: ys })
    }

    /// Dealer-supplied shared random bits (preprocessing material for
    /// comparisons and truncation). Returns the shares and, simulation-
    /// side, the clear bits.
    pub fn random_bits(&mut self, k: usize) -> (Vec<Shared>, Vec<u64>) {
        let bits: Vec<u64> = (0..k).map(|_| self.rng.gen_range(0..2u64)).collect();
        let shares = bits
            .iter()
            .map(|&b| self.dealer_share(FGold::new(b)))
            .collect();
        // Preprocessing cost shows up as triples in the meter (each random
        // bit costs about one triple to generate in DN07-style protocols).
        self.net.consume_triples(k as u64);
        (shares, bits)
    }

    /// Access to the simulation RNG (for dealer-style functionality).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// A snapshot of the fabric's transport metrics (frames, payload and
    /// framed bytes, rounds). Payload bytes match [`NetMeter`]'s modeled
    /// bytes exactly; framing overhead is reported on top.
    pub fn transport_metrics(&self) -> arboretum_net::TransportMetrics {
        self.fabric.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> MpcEngine {
        MpcEngine::new(7, 3, false, 99)
    }

    #[test]
    fn input_open_roundtrip() {
        let mut e = engine();
        let x = e.input(0, FGold::new(1234)).unwrap();
        assert_eq!(e.open(&x).unwrap(), FGold::new(1234));
    }

    #[test]
    fn openings_use_the_committee_basis_at_every_size() {
        for (m, t) in [(5, 2), (7, 3), (9, 4), (13, 6), (40, 19)] {
            for malicious in [false, true] {
                let mut e = MpcEngine::new(m, t, malicious, 7);
                let xs: Vec<Shared> = (0..4)
                    .map(|i| e.input(i, FGold::new(1000 + i as u64)).unwrap())
                    .collect();
                let refs: Vec<&Shared> = xs.iter().collect();
                let want: Vec<FGold> = (0..4).map(|i| FGold::new(1000 + i)).collect();
                assert_eq!(e.open_batch(&refs).unwrap(), want, "m={m} t={t}");
                assert_eq!(e.net.metrics.opens, 4);
            }
        }
    }

    #[test]
    fn linear_ops_are_exact() {
        let mut e = engine();
        let a = e.input(0, FGold::new(100)).unwrap();
        let b = e.input(1, FGold::new(42)).unwrap();
        let sum = e.add(&a, &b);
        let diff = e.sub(&a, &b);
        let scaled = e.mul_const(&a, FGold::new(3));
        let shifted = e.add_const(&a, FGold::new(5));
        assert_eq!(e.open(&sum).unwrap(), FGold::new(142));
        assert_eq!(e.open(&diff).unwrap(), FGold::new(58));
        assert_eq!(e.open(&scaled).unwrap(), FGold::new(300));
        assert_eq!(e.open(&shifted).unwrap(), FGold::new(105));
    }

    #[test]
    fn beaver_multiplication() {
        let mut e = engine();
        let a = e.input(0, FGold::new(6)).unwrap();
        let b = e.input(1, FGold::new(7)).unwrap();
        let prod = e.mul(&a, &b).unwrap();
        assert_eq!(e.open(&prod).unwrap(), FGold::new(42));
        assert_eq!(e.net.metrics.triples, 1);
    }

    #[test]
    fn batch_multiplication_single_round_trip() {
        let mut e = engine();
        let xs: Vec<Shared> = (0..10)
            .map(|i| e.input(0, FGold::new(i + 1)).unwrap())
            .collect();
        let ys: Vec<Shared> = (0..10)
            .map(|i| e.input(0, FGold::new(2 * i + 1)).unwrap())
            .collect();
        let rounds_before = e.net.metrics.rounds;
        let pairs: Vec<(&Shared, &Shared)> = xs.iter().zip(ys.iter()).collect();
        let prods = e.mul_batch(&pairs).unwrap();
        let rounds_used = e.net.metrics.rounds - rounds_before;
        assert_eq!(rounds_used, 2, "batched mul must use one open round-trip");
        for (i, p) in prods.iter().enumerate() {
            let i = i as u64;
            assert_eq!(e.open(p).unwrap(), FGold::new((i + 1) * (2 * i + 1)));
        }
    }

    #[test]
    fn malicious_mode_costs_more_bytes() {
        let mut honest = MpcEngine::new(5, 2, false, 1);
        let mut malicious = MpcEngine::new(5, 2, true, 1);
        for e in [&mut honest, &mut malicious] {
            let a = e.input(0, FGold::new(3)).unwrap();
            let b = e.input(1, FGold::new(4)).unwrap();
            let p = e.mul(&a, &b).unwrap();
            assert_eq!(e.open(&p).unwrap(), FGold::new(12));
        }
        assert!(
            malicious.net.metrics.bytes_sent_total > honest.net.metrics.bytes_sent_total,
            "malicious security must meter more traffic"
        );
    }

    #[test]
    fn random_bits_are_binary_and_match_clear() {
        let mut e = engine();
        let (shares, bits) = e.random_bits(32);
        for (s, &b) in shares.iter().zip(&bits) {
            assert!(b < 2);
            assert_eq!(e.open(s).unwrap(), FGold::new(b));
        }
    }

    #[test]
    fn transport_faults_are_typed_errors() {
        let cfg = EventedConfig {
            faults: Some(arboretum_net::FaultPlan::crash(1, 0)),
            ..EventedConfig::default()
        };
        let mut e = MpcEngine::new_evented(5, 2, false, 3, &cfg);
        assert!(matches!(e.input(0, FGold::ONE), Err(MpcError::Net(_))));
        assert!(matches!(e.random(), Err(MpcError::Net(_))));
        // The same calls on a healthy fabric succeed.
        let mut e = MpcEngine::new_evented(5, 2, false, 3, &EventedConfig::default());
        let x = e.input(0, FGold::ONE).unwrap();
        let r = e.random().unwrap();
        e.open_batch(&[&x, &r]).unwrap();
    }

    #[test]
    fn honest_majority_enforced() {
        let r = std::panic::catch_unwind(|| MpcEngine::new(4, 2, false, 0));
        assert!(r.is_err(), "2t < m must be enforced");
    }
}
