//! The honest-majority MPC engine.
//!
//! Simulates an `m`-party SPDZ-wise-Shamir computation in-process: secrets
//! live as degree-`t` Shamir share vectors, linear operations are local,
//! multiplications consume Beaver triples, and every communication step
//! travels as a framed [`arboretum_net::Message`] through an
//! [`arboretum_net::SimTransport`] fabric. The analytic
//! [`crate::network::NetMeter`] is fed the *actual encoded payload sizes*
//! of those frames — the wire format is the single source of truth for
//! byte counts, and received frames (not local state) supply the share
//! values. Triples and random bits come from a dealer, standing in for
//! the DN07-style preprocessing of the real protocol; the `malicious`
//! flag applies the SPDZ-wise overhead (doubled share material and
//! verification opens), exactly the quantity the paper's cost model
//! needs (§4.6, §6).
//!
//! The unit of cost is the *opening* ([`MpcEngine::open_batch`]): two
//! rounds and `2(m − 1)` frames (three and `3m − 2` with the malicious
//! echo) however many values ride in it, so protocols batch. The king
//! reconstructs against Lagrange coefficients computed once per engine
//! for the points `1..=t+1` — a `t + 1`-term dot product per value, not
//! `t + 1` field inversions.

use arboretum_field::FGold;
use arboretum_net::{EventedFabric, FabricKind, Message, NetError, SimTransport, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::NetMeter;
use crate::ops::MpcOps;
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

/// The in-process fabric an engine's protocol messages cross. The
/// engine is a single act-as-anyone object, so only the single-object
/// fabrics apply: the instant sim and the virtual-time evented fabric.
/// With no latency model configured both backends meter bitwise
/// identically.
#[derive(Debug)]
enum EngineFabric {
    Sim(SimTransport),
    Evented(Box<EventedFabric>),
}

impl Transport for EngineFabric {
    fn parties(&self) -> usize {
        match self {
            Self::Sim(t) => t.parties(),
            Self::Evented(t) => t.parties(),
        }
    }

    fn local_party(&self) -> Option<usize> {
        None
    }

    fn send(&mut self, from: usize, to: usize, msg: &Message) -> Result<usize, NetError> {
        match self {
            Self::Sim(t) => t.send(from, to, msg),
            Self::Evented(t) => t.send(from, to, msg),
        }
    }

    fn recv(&mut self, at: usize, from: usize) -> Result<Message, NetError> {
        match self {
            Self::Sim(t) => t.recv(at, from),
            Self::Evented(t) => t.recv(at, from),
        }
    }

    fn round(&mut self, at: usize) {
        match self {
            Self::Sim(t) => t.round(at),
            Self::Evented(t) => t.round(at),
        }
    }

    fn metrics(&self) -> arboretum_net::TransportMetrics {
        match self {
            Self::Sim(t) => t.metrics(),
            Self::Evented(t) => t.metrics(),
        }
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
    fabric: EngineFabric,
    /// Lagrange coefficients at zero over the points `1..=t+1` — fixed
    /// for the committee's lifetime, so every opening is a dot product.
    basis: Vec<FGold>,
    rng: StdRng,
}

#[allow(clippy::should_implement_trait)] // Protocol ops named add/sub/mul by convention.
impl MpcEngine {
    /// Creates an engine with `m` parties tolerating `t` corruptions.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < m` and `t < m / 2 + m % 2` (honest majority).
    pub fn new(m: usize, t: usize, malicious: bool, seed: u64) -> Self {
        Self::new_on(m, t, malicious, seed, FabricKind::Sim)
    }

    /// Creates an engine whose protocol messages cross the selected
    /// fabric: [`FabricKind::Sim`] the instant sim fabric,
    /// [`FabricKind::Evented`] the virtual-time fabric's act-as-anyone
    /// frontend. Both produce bitwise identical outputs and transport
    /// metrics.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < m` and `2t < m` (honest majority).
    pub fn new_on(m: usize, t: usize, malicious: bool, seed: u64, kind: FabricKind) -> Self {
        assert!(m > 0, "need at least one party");
        assert!(
            2 * t < m,
            "honest majority requires 2t < m (got t={t}, m={m})"
        );
        let fabric = match kind {
            FabricKind::Sim => EngineFabric::Sim(SimTransport::new(m)),
            FabricKind::Evented => EngineFabric::Evented(Box::new(EventedFabric::new(m))),
        };
        Self {
            m,
            t,
            malicious,
            net: NetMeter::new(m),
            fabric,
            basis: committee_basis(t),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Attaches a passive [`arboretum_net::SharedSink`] observing every
    /// protocol frame this engine sends, on whichever fabric it runs.
    /// Observation is read-only: outputs and metrics are unchanged.
    pub fn set_frame_sink(&mut self, sink: Option<arboretum_net::SharedSink>) {
        match &mut self.fabric {
            EngineFabric::Sim(t) => t.set_sink(sink),
            EngineFabric::Evented(t) => t.set_sink(sink),
        }
    }

    /// Materializes `rounds` all-to-all protocol rounds — one field
    /// element per ordered party pair per round — as real frames on the
    /// fabric, **without** touching the analytic [`NetMeter`]: callers
    /// that meter a functionality analytically (`inject_with_cost`)
    /// already count this traffic, and this gives passive frame
    /// observers ([`Self::set_frame_sink`]) the wire image of those
    /// rounds. Deterministic: fixed frame sizes, no RNG draws. Every
    /// frame is received back, so link queues end empty.
    pub fn materialize_metered_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            for p in 0..self.m {
                for j in 0..self.m {
                    if j == p {
                        continue;
                    }
                    let msg = self.frame_elems(&[FGold::ZERO]);
                    self.fabric.send(p, j, &msg).expect("engine fabric");
                }
            }
            #[allow(clippy::needless_range_loop)] // `j` is the receiving party id.
            for j in 0..self.m {
                for p in 0..self.m {
                    if p == j {
                        continue;
                    }
                    self.fabric.recv(j, p).expect("frame in flight");
                }
            }
        }
    }

    /// Frames a batch of elements, appending the MAC companion share per
    /// value in malicious mode (the SPDZ-wise doubling of share
    /// material on the wire).
    fn frame_elems(&self, elems: &[FGold]) -> Message {
        if self.malicious {
            Message::FieldElems(elems.iter().flat_map(|&v| [v, v]).collect())
        } else {
            Message::FieldElems(elems.to_vec())
        }
    }

    /// Extracts the value elements of a received frame, dropping the MAC
    /// companions in malicious mode.
    fn unframe_elems(&self, msg: &Message) -> Vec<FGold> {
        let Message::FieldElems(elems) = msg else {
            unreachable!("engine links carry only field-element frames")
        };
        if self.malicious {
            elems.iter().copied().step_by(2).collect()
        } else {
            elems.clone()
        }
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
    pub fn input(&mut self, party: usize, v: FGold) -> Shared {
        let shares = share(v, self.t, self.m, &mut self.rng);
        let mut ys: Vec<FGold> = shares.into_iter().map(|s| s.y).collect();
        let mut sent = 0u64;
        for (j, &y) in ys.iter().enumerate() {
            if j == party {
                continue;
            }
            let msg = self.frame_elems(&[y]);
            sent += self.fabric.send(party, j, &msg).expect("engine fabric") as u64;
        }
        self.net.send(party, sent);
        #[allow(clippy::needless_range_loop)] // `j` is the receiving party id, not just an index.
        for j in 0..self.m {
            if j == party {
                continue;
            }
            let got = self.fabric.recv(j, party).expect("frame in flight");
            ys[j] = self.unframe_elems(&got)[0];
        }
        self.sync_round();
        Shared { shares: ys }
    }

    /// Secret-shares a dealer/preprocessing value (no online cost).
    pub fn dealer_share(&mut self, v: FGold) -> Shared {
        let shares = share(v, self.t, self.m, &mut self.rng);
        Shared {
            shares: shares.into_iter().map(|s| s.y).collect(),
        }
    }

    /// Opens (publicly reconstructs) a batch of shared values.
    ///
    /// King-based opening: every party frames its shares to party 0, who
    /// reconstructs from the decoded frames and broadcasts the results.
    /// Two rounds regardless of batch size (three with the malicious
    /// consistency echo).
    pub fn open_batch(&mut self, xs: &[&Shared]) -> Result<Vec<FGold>, MpcError> {
        // Parties → king.
        for p in 1..self.m {
            let elems: Vec<FGold> = xs.iter().map(|x| x.shares[p]).collect();
            let msg = self.frame_elems(&elems);
            let sent = self.fabric.send(p, 0, &msg).expect("engine fabric") as u64;
            self.net.send(p, sent);
        }
        self.sync_round();
        // King reconstructs from its own share plus the decoded wire
        // shares of parties `1..=t`: one dot product per value against
        // the committee's basis.
        let mut opened: Vec<FGold> = xs.iter().map(|x| self.basis[0] * x.shares[0]).collect();
        for p in 1..self.m {
            let got = self.fabric.recv(0, p).expect("frame in flight");
            if let Some(&lambda) = self.basis.get(p) {
                for (acc, y) in opened.iter_mut().zip(self.unframe_elems(&got)) {
                    *acc += lambda * y;
                }
            }
        }
        self.net.metrics.opens += xs.len() as u64;
        // King → parties.
        let mut sent = 0u64;
        for p in 1..self.m {
            let msg = self.frame_elems(&opened);
            sent += self.fabric.send(0, p, &msg).expect("engine fabric") as u64;
        }
        self.net.send(0, sent);
        self.sync_round();
        // The values the protocol continues with come off the wire (any
        // non-king party's decoded broadcast; the king keeps its own).
        let mut result = opened;
        for p in 1..self.m {
            let got = self.fabric.recv(p, 0).expect("frame in flight");
            if p == 1 {
                result = self.unframe_elems(&got);
            }
        }
        if self.malicious {
            // Consistency check: parties echo their opened view around a
            // ring and cross-verify.
            if self.m > 1 {
                for p in 0..self.m {
                    let msg = self.frame_elems(&result);
                    let sent = self
                        .fabric
                        .send(p, (p + 1) % self.m, &msg)
                        .expect("engine fabric") as u64;
                    self.net.send(p, sent);
                }
                for p in 0..self.m {
                    let got = self
                        .fabric
                        .recv(p, (p + self.m - 1) % self.m)
                        .expect("frame in flight");
                    let echoed = self.unframe_elems(&got);
                    if echoed != result {
                        return Err(MpcError::OpenFailed(
                            "opening consistency echo mismatch".into(),
                        ));
                    }
                }
            } else {
                // Degenerate single-party committee: the echo has no
                // peer, but the model still charges the frame.
                let msg = self.frame_elems(&result);
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
    /// masked openings into one round trip.
    pub fn mul_batch(&mut self, pairs: &[(&Shared, &Shared)]) -> Result<Vec<Shared>, MpcError> {
        let k = pairs.len();
        // Dealer triples.
        let triples: Vec<(Shared, Shared, Shared, FGold, FGold)> = (0..k)
            .map(|_| {
                let a = FGold::new(self.rng.gen());
                let b = FGold::new(self.rng.gen());
                let sa = self.dealer_share(a);
                let sb = self.dealer_share(b);
                let sc = self.dealer_share(a * b);
                (sa, sb, sc, a, b)
            })
            .collect();
        self.net.consume_triples(k as u64);
        // d = x - a, e = y - b, opened in one batch.
        let ds: Vec<Shared> = pairs
            .iter()
            .zip(&triples)
            .map(|((x, _), (sa, _, _, _, _))| self.sub(x, sa))
            .collect();
        let es: Vec<Shared> = pairs
            .iter()
            .zip(&triples)
            .map(|((_, y), (_, sb, _, _, _))| self.sub(y, sb))
            .collect();
        let mut to_open: Vec<&Shared> = Vec::with_capacity(2 * k);
        to_open.extend(ds.iter());
        to_open.extend(es.iter());
        let opened = self.open_batch(&to_open)?;
        let (dvals, evals) = opened.split_at(k);
        // z = c + d·[b] + e·[a] + d·e.
        self.net.compute((self.m * 2 * k) as u64);
        Ok((0..k)
            .map(|i| {
                let (_, _, ref sc, _, _) = triples[i];
                let (ref sa, ref sb, _, _, _) = triples[i];
                let d = dvals[i];
                let e = evals[i];
                let term1 = self.mul_const(sb, d);
                let term2 = self.mul_const(sa, e);
                let mut z = self.add(sc, &term1);
                z = self.add(&z, &term2);
                self.add_const(&z, d * e)
            })
            .collect())
    }

    /// Multiplies two shared values.
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
    pub fn random(&mut self) -> Shared {
        let v = FGold::new(self.rng.gen());
        let shares = share(v, self.t, self.m, &mut self.rng);
        let mut ys: Vec<FGold> = shares.into_iter().map(|s| s.y).collect();
        for p in 0..self.m {
            let mut sent = 0u64;
            for (j, &y) in ys.iter().enumerate() {
                if j == p {
                    continue;
                }
                let msg = self.frame_elems(&[y]);
                sent += self.fabric.send(p, j, &msg).expect("engine fabric") as u64;
            }
            self.net.send(p, sent);
        }
        #[allow(clippy::needless_range_loop)] // `j` is the receiving party id, not just an index.
        for j in 0..self.m {
            for p in 0..self.m {
                if p == j {
                    continue;
                }
                let got = self.fabric.recv(j, p).expect("frame in flight");
                let echoed = self.unframe_elems(&got)[0];
                debug_assert_eq!(echoed, ys[j], "relayed share copies must agree");
                ys[j] = echoed;
            }
        }
        self.sync_round();
        Shared { shares: ys }
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

    /// Oblivious selection: `if bit { a } else { b }` (bit must be 0/1).
    pub fn select(&mut self, bit: &Shared, a: &Shared, b: &Shared) -> Result<Shared, MpcError> {
        let diff = self.sub(a, b);
        let prod = self.mul(bit, &diff)?;
        Ok(self.add(&prod, b))
    }

    /// XOR of two shared bits: `a + b - 2ab`.
    pub fn xor(&mut self, a: &Shared, b: &Shared) -> Result<Shared, MpcError> {
        let prod = self.mul(a, b)?;
        let two = self.mul_const(&prod, FGold::new(2));
        let sum = self.add(a, b);
        Ok(self.sub(&sum, &two))
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

impl MpcOps for MpcEngine {
    type Secret = Shared;

    fn parties(&self) -> usize {
        self.m
    }

    fn input(&mut self, party: usize, v: FGold) -> Result<Shared, MpcError> {
        Ok(MpcEngine::input(self, party, v))
    }

    fn zero(&self) -> Shared {
        MpcEngine::zero(self)
    }

    fn constant(&self, c: FGold) -> Shared {
        MpcEngine::constant(self, c)
    }

    fn add(&self, a: &Shared, b: &Shared) -> Shared {
        MpcEngine::add(self, a, b)
    }

    fn sub(&self, a: &Shared, b: &Shared) -> Shared {
        MpcEngine::sub(self, a, b)
    }

    fn add_const(&self, a: &Shared, c: FGold) -> Shared {
        MpcEngine::add_const(self, a, c)
    }

    fn mul_const(&self, a: &Shared, c: FGold) -> Shared {
        MpcEngine::mul_const(self, a, c)
    }

    fn random_bits(&mut self, k: usize) -> Result<Vec<Shared>, MpcError> {
        Ok(MpcEngine::random_bits(self, k).0)
    }

    fn mul_batch(&mut self, pairs: &[(&Shared, &Shared)]) -> Result<Vec<Shared>, MpcError> {
        MpcEngine::mul_batch(self, pairs)
    }

    fn open_batch(&mut self, xs: &[&Shared]) -> Result<Vec<FGold>, MpcError> {
        MpcEngine::open_batch(self, xs)
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
        let x = e.input(0, FGold::new(1234));
        assert_eq!(e.open(&x).unwrap(), FGold::new(1234));
    }

    #[test]
    fn openings_use_the_committee_basis_at_every_size() {
        for (m, t) in [(5, 2), (7, 3), (9, 4), (13, 6), (40, 19)] {
            for malicious in [false, true] {
                let mut e = MpcEngine::new(m, t, malicious, 7);
                let xs: Vec<Shared> = (0..4)
                    .map(|i| e.input(i, FGold::new(1000 + i as u64)))
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
        let a = e.input(0, FGold::new(100));
        let b = e.input(1, FGold::new(42));
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
        let a = e.input(0, FGold::new(6));
        let b = e.input(1, FGold::new(7));
        let prod = e.mul(&a, &b).unwrap();
        assert_eq!(e.open(&prod).unwrap(), FGold::new(42));
        assert_eq!(e.net.metrics.triples, 1);
    }

    #[test]
    fn batch_multiplication_single_round_trip() {
        let mut e = engine();
        let xs: Vec<Shared> = (0..10).map(|i| e.input(0, FGold::new(i + 1))).collect();
        let ys: Vec<Shared> = (0..10).map(|i| e.input(0, FGold::new(2 * i + 1))).collect();
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
    fn select_behaves_as_mux() {
        let mut e = engine();
        let a = e.input(0, FGold::new(111));
        let b = e.input(0, FGold::new(222));
        let one = e.constant(FGold::ONE);
        let zero = e.constant(FGold::ZERO);
        let pick_a = e.select(&one, &a, &b).unwrap();
        let pick_b = e.select(&zero, &a, &b).unwrap();
        assert_eq!(e.open(&pick_a).unwrap(), FGold::new(111));
        assert_eq!(e.open(&pick_b).unwrap(), FGold::new(222));
    }

    #[test]
    fn xor_truth_table() {
        let mut e = engine();
        for (a, b, want) in [(0u64, 0u64, 0u64), (0, 1, 1), (1, 0, 1), (1, 1, 0)] {
            let sa = e.input(0, FGold::new(a));
            let sb = e.input(0, FGold::new(b));
            let x = e.xor(&sa, &sb).unwrap();
            assert_eq!(e.open(&x).unwrap(), FGold::new(want), "{a} xor {b}");
        }
    }

    #[test]
    fn malicious_mode_costs_more_bytes() {
        let mut honest = MpcEngine::new(5, 2, false, 1);
        let mut malicious = MpcEngine::new(5, 2, true, 1);
        for e in [&mut honest, &mut malicious] {
            let a = e.input(0, FGold::new(3));
            let b = e.input(1, FGold::new(4));
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
    fn honest_majority_enforced() {
        let r = std::panic::catch_unwind(|| MpcEngine::new(4, 2, false, 0));
        assert!(r.is_err(), "2t < m must be enforced");
    }
}
