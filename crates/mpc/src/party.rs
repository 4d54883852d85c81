//! The distributed per-party engine: one [`Party`] per OS thread, real
//! frames on an [`arboretum_net::Transport`].
//!
//! Where [`crate::engine::MpcEngine`] animates a whole committee from a
//! single object, a `Party` holds only its own Shamir share of every
//! secret and must talk to its peers for anything non-linear. Running
//! `m` parties of a committee on `m` threads over evented endpoints
//! executes the same protocols [`crate::compare`] defines generically —
//! and because both engines issue identical communication sequences, the
//! fabric's measured payload bytes and rounds equal the analytic
//! [`crate::network::NetMeter`] model exactly (asserted in the
//! `fabric_validation` integration test).
//!
//! Preprocessing (Beaver triples, random bits) comes from a [`Dealer`]
//! shared behind a mutex, mirroring the engine's zero-online-cost dealer
//! model. The distributed path runs the semi-honest protocol (the
//! SPDZ-wise MAC layer is metered analytically only).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use arboretum_field::FGold;
use arboretum_net::{Message, NetError, Transport, TransportMetrics};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::MpcError;
use crate::ops::MpcOps;
use crate::shamir::{committee_basis, share};

/// Preprocessing dealer: generates consistent share material for every
/// party of one committee, on demand.
///
/// Parties may consume at different times (they run on different
/// threads), so the dealer buffers one queue per party and generates a
/// new sharing only when some party's queue runs dry. As long as all
/// parties request the same sequence of amounts — which they do, running
/// the same protocol — every party receives shares of the same
/// underlying values.
#[derive(Debug)]
pub struct Dealer {
    m: usize,
    t: usize,
    rng: StdRng,
    /// Scratch for the random coefficients of each sharing.
    coeffs: Vec<FGold>,
    bits: Vec<VecDeque<FGold>>,
    triples: Vec<VecDeque<(FGold, FGold, FGold)>>,
}

impl Dealer {
    /// Creates a dealer for an `m`-party committee with threshold `t`.
    pub fn new(m: usize, t: usize, seed: u64) -> Self {
        Self {
            m,
            t,
            rng: StdRng::seed_from_u64(seed),
            coeffs: Vec::with_capacity(t + 1),
            bits: (0..m).map(|_| VecDeque::new()).collect(),
            triples: (0..m).map(|_| VecDeque::new()).collect(),
        }
    }

    /// A fresh sharing of `v`, one share per party.
    fn deal(&mut self, v: FGold) -> Vec<FGold> {
        let mut shares = vec![FGold::ZERO; self.m];
        share(v, self.t, &mut self.coeffs, &mut shares, &mut self.rng);
        shares
    }

    /// Pops `k` random-bit shares for `party`, generating more sharings
    /// if its queue is short.
    pub fn bits(&mut self, party: usize, k: usize) -> Vec<FGold> {
        while self.bits[party].len() < k {
            let b = FGold::new(self.rng.gen_range(0..2u64));
            for (p, y) in self.deal(b).into_iter().enumerate() {
                self.bits[p].push_back(y);
            }
        }
        self.bits[party].drain(..k).collect()
    }

    /// Pops `k` Beaver-triple shares for `party`.
    pub fn triples(&mut self, party: usize, k: usize) -> Vec<(FGold, FGold, FGold)> {
        while self.triples[party].len() < k {
            let a = FGold::new(self.rng.gen());
            let b = FGold::new(self.rng.gen());
            let (sa, sb, sc) = (self.deal(a), self.deal(b), self.deal(a * b));
            for p in 0..self.m {
                self.triples[p].push_back((sa[p], sb[p], sc[p]));
            }
        }
        self.triples[party].drain(..k).collect()
    }
}

/// A dealer shared between the threads of one committee.
pub type SharedDealer = Arc<Mutex<Dealer>>;

/// Creates a [`SharedDealer`] for an `m`-party committee.
pub fn shared_dealer(m: usize, t: usize, seed: u64) -> SharedDealer {
    Arc::new(Mutex::new(Dealer::new(m, t, seed)))
}

/// One committee member running on its own thread.
pub struct Party<T: Transport> {
    /// This party's 0-based index.
    pub id: usize,
    /// Committee size.
    pub m: usize,
    /// Corruption threshold.
    pub t: usize,
    net: T,
    dealer: SharedDealer,
    /// Lagrange coefficients at zero over the points `1..=t+1` (what the
    /// king reconstructs with).
    basis: Vec<FGold>,
    rng: StdRng,
}

fn net_err(e: NetError) -> MpcError {
    MpcError::Net(e.to_string())
}

impl<T: Transport> Party<T> {
    /// Creates the party with id `transport.local_party()` (falling back
    /// to 0 for fabrics that can act as anyone).
    ///
    /// # Panics
    ///
    /// Panics unless `2t < m` (honest majority).
    pub fn new(m: usize, t: usize, net: T, dealer: SharedDealer, seed: u64) -> Self {
        assert!(2 * t < m, "honest majority requires 2t < m");
        let id = net.local_party().unwrap_or(0);
        Self {
            id,
            m,
            t,
            net,
            dealer,
            basis: committee_basis(t),
            rng: StdRng::seed_from_u64(seed ^ (id as u64) << 32),
        }
    }

    /// The underlying transport (e.g. to snapshot metrics after a run).
    pub fn transport(&self) -> &T {
        &self.net
    }

    /// A snapshot of the fabric-wide transport metrics.
    pub fn metrics(&self) -> TransportMetrics {
        self.net.metrics()
    }

    fn send_elems(&mut self, to: usize, elems: Vec<FGold>) -> Result<(), MpcError> {
        self.net
            .send(self.id, to, &Message::FieldElems(elems))
            .map_err(net_err)?;
        Ok(())
    }

    fn recv_elems(&mut self, from: usize) -> Result<Vec<FGold>, MpcError> {
        match self.net.recv(self.id, from).map_err(net_err)? {
            Message::FieldElems(elems) => Ok(elems),
            other => Err(MpcError::Net(format!(
                "unexpected message kind {} from party {from}",
                other.kind()
            ))),
        }
    }

    fn round(&mut self) {
        self.net.round(self.id);
    }
}

impl<T: Transport> MpcOps for Party<T> {
    /// This party's single share of the secret.
    type Secret = FGold;

    fn parties(&self) -> usize {
        self.m
    }

    fn input(&mut self, party: usize, v: FGold) -> Result<FGold, MpcError> {
        let mine = if party == self.id {
            let mut shares = vec![FGold::ZERO; self.m];
            share(v, self.t, &mut Vec::new(), &mut shares, &mut self.rng);
            for (j, &y) in shares.iter().enumerate() {
                if j != self.id {
                    self.send_elems(j, vec![y])?;
                }
            }
            shares[self.id]
        } else {
            let elems = self.recv_elems(party)?;
            *elems.first().ok_or(MpcError::PartyMismatch)?
        };
        self.round();
        Ok(mine)
    }

    fn zero(&self) -> FGold {
        FGold::ZERO
    }

    fn constant(&self, c: FGold) -> FGold {
        // The constant polynomial: every party's share is `c`.
        c
    }

    fn add(&self, a: &FGold, b: &FGold) -> FGold {
        *a + *b
    }

    fn sub(&self, a: &FGold, b: &FGold) -> FGold {
        *a - *b
    }

    fn add_const(&self, a: &FGold, c: FGold) -> FGold {
        *a + c
    }

    fn mul_const(&self, a: &FGold, c: FGold) -> FGold {
        *a * c
    }

    fn add_scaled(&self, acc: &mut FGold, c: FGold, x: &FGold) {
        *acc += c * *x;
    }

    fn random_bits(&mut self, k: usize) -> Result<Vec<FGold>, MpcError> {
        let mut d = self
            .dealer
            .lock()
            .map_err(|_| MpcError::Net("dealer mutex poisoned".into()))?;
        Ok(d.bits(self.id, k))
    }

    fn mul_batch(&mut self, pairs: &[(&FGold, &FGold)]) -> Result<Vec<FGold>, MpcError> {
        let k = pairs.len();
        let triples = {
            let mut d = self
                .dealer
                .lock()
                .map_err(|_| MpcError::Net("dealer mutex poisoned".into()))?;
            d.triples(self.id, k)
        };
        // d = x - a and e = y - b, opened in one batch.
        let ds: Vec<FGold> = pairs
            .iter()
            .zip(&triples)
            .map(|((x, _), (a, _, _))| **x - *a)
            .collect();
        let es: Vec<FGold> = pairs
            .iter()
            .zip(&triples)
            .map(|((_, y), (_, b, _))| **y - *b)
            .collect();
        let mut to_open: Vec<&FGold> = Vec::with_capacity(2 * k);
        to_open.extend(ds.iter());
        to_open.extend(es.iter());
        let opened = self.open_batch(&to_open)?;
        let (dvals, evals) = opened.split_at(k);
        // z = c + d·[b] + e·[a] + d·e.
        Ok((0..k)
            .map(|i| {
                let (a, b, c) = triples[i];
                c + dvals[i] * b + evals[i] * a + dvals[i] * evals[i]
            })
            .collect())
    }

    fn open_batch(&mut self, xs: &[&FGold]) -> Result<Vec<FGold>, MpcError> {
        if self.id != 0 {
            // Parties → king.
            self.send_elems(0, xs.iter().map(|x| **x).collect())?;
            self.round();
            // King → parties.
            let opened = self.recv_elems(0)?;
            self.round();
            if opened.len() != xs.len() {
                return Err(MpcError::OpenFailed(format!(
                    "king broadcast {} values, expected {}",
                    opened.len(),
                    xs.len()
                )));
            }
            return Ok(opened);
        }
        // King: collect every party's shares, reconstruct each value as
        // a dot product against the committee's basis, broadcast.
        let mut opened: Vec<FGold> = xs.iter().map(|x| self.basis[0] * **x).collect();
        for p in 1..self.m {
            let elems = self.recv_elems(p)?;
            if elems.len() != xs.len() {
                return Err(MpcError::OpenFailed(format!(
                    "party {p} sent {} shares, expected {}",
                    elems.len(),
                    xs.len()
                )));
            }
            if let Some(&lambda) = self.basis.get(p) {
                for (acc, &y) in opened.iter_mut().zip(&elems) {
                    *acc += lambda * y;
                }
            }
        }
        self.round();
        for p in 1..self.m {
            self.send_elems(p, opened.clone())?;
        }
        self.round();
        Ok(opened)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arboretum_net::{evented_fabric, EventedConfig, EventedEndpoint};
    use std::time::Duration;

    /// Runs `f` as every party of an `m`-party committee on `m` threads.
    fn run_committee<R, F>(m: usize, t: usize, f: F) -> Vec<Result<R, MpcError>>
    where
        R: Send,
        F: Fn(&mut Party<EventedEndpoint>) -> Result<R, MpcError> + Send + Sync,
    {
        let cfg = EventedConfig {
            timeout: Duration::from_secs(2),
            ..EventedConfig::default()
        };
        let dealer = shared_dealer(m, t, 7);
        let endpoints = evented_fabric(m, &cfg);
        std::thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|ep| {
                    let dealer = dealer.clone();
                    let f = &f;
                    s.spawn(move || {
                        let mut party = Party::new(m, t, ep, dealer, 99);
                        f(&mut party)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("party thread must not panic"))
                .collect()
        })
    }

    #[test]
    fn input_open_roundtrip_across_threads() {
        let got = run_committee(5, 2, |p| {
            let x = p.input(0, FGold::new(1234))?;
            let y = p.input(3, FGold::new(77))?;
            let s = p.add(&x, &y);
            p.open(&s)
        });
        for r in got {
            assert_eq!(r.unwrap(), FGold::new(1311));
        }
    }

    #[test]
    fn beaver_multiplication_across_threads() {
        let got = run_committee(5, 2, |p| {
            let a = p.input(0, FGold::new(6))?;
            let b = p.input(1, FGold::new(7))?;
            let prod = p.mul(&a, &b)?;
            p.open(&prod)
        });
        for r in got {
            assert_eq!(r.unwrap(), FGold::new(42));
        }
    }

    #[test]
    fn dealer_bits_are_consistent_shares() {
        let got = run_committee(5, 2, |p| {
            let bits = p.random_bits(8)?;
            let refs: Vec<&FGold> = bits.iter().collect();
            p.open_batch(&refs)
        });
        let mut opened = got.into_iter().map(|r| r.unwrap());
        let first = opened.next().unwrap();
        for b in &first {
            assert!(b.value() < 2, "opened bit must be 0/1, got {}", b.value());
        }
        for other in opened {
            assert_eq!(other, first, "all parties must open the same bits");
        }
    }
}
