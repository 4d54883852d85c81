//! Hash-based committee selection (Honeycrisp-style sortition, §5.1).
//!
//! The system keeps a random beacon block `B_i` and a Merkle tree of
//! registered devices. For query `i`, each device signs `(B_i, i, 0)`
//! with its *deterministic* signature scheme and hashes the signature;
//! the `c·m` devices with the lowest hashes form the committees, device
//! with the `x`-th lowest hash joining committee `⌊x/m⌋`. Determinism
//! means a device gets exactly one ticket — it cannot grind, and neither
//! can the aggregator (the Merkle tree pins the device set before `B` is
//! revealed).
//!
//! Two performance-critical properties at 10^5–10^6 devices:
//!
//! * Ticket `i` is a pure function of `(registry, block, query_idx, i)`,
//!   so [`select_committees`] generates tickets on the deterministic
//!   `par` kernels (bitwise-identical at any thread count) with the
//!   fixed-base exponentiation fast path under the signature.
//! * Seating only needs the `c·m` *lowest* tickets, so selection uses
//!   `select_nth_unstable`-style partial selection (O(n)) and sorts only
//!   that prefix. A test-only serial full-sort path seats **identical**
//!   committees because both order by the total key
//!   `(hash, device_idx)` — the explicit `device_idx` tie-break also
//!   removes the latent order dependence the plain `hash` key had on
//!   duplicate hashes.

use std::sync::Arc;

use arboretum_crypto::merkle::MerkleTree;
use arboretum_crypto::schnorr::{
    verify, verify_batch, BatchEntry, Keypair, PublicKey, SecretKey, Signature,
};
use arboretum_crypto::sha256::{sha256, Digest};
use arboretum_par::{par_map_arc, ThreadPool};

/// A registered device: its identity and its signing keys, in three
/// words.
///
/// The simulation holds every device's secret so that any of them can
/// sign; a real deployment holds only its own. The registry keeps one of
/// these per device, so it stores the secret scalar and the public point
/// and nothing derived from them: [`Device::keypair`] rebuilds the
/// signing state (the nonce key's HMAC midstates) when the device signs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Device {
    /// Stable device identifier.
    pub id: u64,
    /// The device's public key, pinned by the registry root.
    pub pk: PublicKey,
    /// The device's secret key (simulation-side).
    pub sk: SecretKey,
}

impl Device {
    /// Derives a device deterministically from its id (simulation).
    pub fn from_id(id: u64) -> Self {
        let Keypair { sk, pk, .. } = Keypair::from_seed(&id.to_be_bytes());
        Self { id, pk, sk }
    }

    /// The device's signing keypair, rebuilt from its secret.
    pub fn keypair(&self) -> Keypair {
        Keypair::from_secret(self.sk)
    }

    /// The registry leaf bytes: id plus public key.
    pub fn leaf(&self) -> [u8; 16] {
        let mut leaf = [0u8; 16];
        leaf[..8].copy_from_slice(&self.id.to_be_bytes());
        leaf[8..].copy_from_slice(&self.pk.0.to_bytes());
        leaf
    }
}

/// The device registry: the devices and the Merkle root over their
/// `(id, pk)` leaves.
///
/// Only the root is kept: the registry is pinned by it, and nothing
/// proves a device's inclusion, so the tree's levels would be a digest
/// and more a device held for no reader.
#[derive(Clone, Debug)]
pub struct Registry {
    /// Shared so the parallel ticket kernels can borrow the device set
    /// without copying it per task.
    devices: Arc<Vec<Device>>,
    root: Digest,
}

impl Registry {
    /// Builds the registry for a set of devices.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<Device>) -> Self {
        let root = MerkleTree::root_of(devices.iter().map(Device::leaf));
        Self {
            devices: Arc::new(devices),
            root,
        }
    }

    /// The Merkle root pinning the device set.
    pub fn root(&self) -> Digest {
        self.root
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the registry is empty (never constructible).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device access.
    pub fn device(&self, idx: usize) -> &Device {
        &self.devices[idx]
    }

    /// All devices (simulation-side iteration).
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }
}

/// One sortition ticket: the device, its signature, and the ticket hash.
#[derive(Clone, Debug)]
pub struct Ticket {
    /// The device's registry index.
    pub device_idx: usize,
    /// The deterministic signature over `(block, query, 0)`.
    pub signature: Signature,
    /// `SHA-256(signature)`, the sortition rank.
    pub hash: Digest,
}

/// The sortition message a device signs for query `query_idx` under
/// beacon block `block`.
pub fn sortition_message(block: &Digest, query_idx: u64) -> Vec<u8> {
    let mut m = b"arboretum/sortition/".to_vec();
    m.extend_from_slice(block);
    m.extend_from_slice(&query_idx.to_be_bytes());
    m.extend_from_slice(&0u64.to_be_bytes());
    m
}

/// Computes a device's ticket for a query round.
pub fn make_ticket(device: &Device, device_idx: usize, block: &Digest, query_idx: u64) -> Ticket {
    make_ticket_with_msg(device, device_idx, &sortition_message(block, query_idx))
}

/// [`make_ticket`] with the (round-constant) sortition message already
/// built — the bulk paths construct it once per round, not per device.
pub fn make_ticket_with_msg(device: &Device, device_idx: usize, msg: &[u8]) -> Ticket {
    let signature = device.keypair().sign(msg);
    Ticket {
        device_idx,
        signature,
        hash: sha256(&signature.to_bytes()),
    }
}

/// Verifies that a ticket is validly signed by the claimed device.
pub fn verify_ticket(pk: &PublicKey, block: &Digest, query_idx: u64, ticket: &Ticket) -> bool {
    let msg = sortition_message(block, query_idx);
    verify(pk, &msg, &ticket.signature) && sha256(&ticket.signature.to_bytes()) == ticket.hash
}

/// Batch-verifies a round's tickets against the registry.
///
/// The ticket-hash binding (`hash == SHA-256(signature)`) is checked
/// per ticket; the signatures go through the deterministic-combiner
/// batch Schnorr verification (`crypto::schnorr::verify_batch`), whose
/// bisection fallback attributes failures per signature. Returns
/// `Ok(())` or the exact indices (into `tickets`, ascending) of every
/// invalid ticket — a forged ticket never poisons the whole batch.
pub fn verify_tickets_batch(
    registry: &Registry,
    block: &Digest,
    query_idx: u64,
    tickets: &[Ticket],
) -> Result<(), Vec<usize>> {
    let msg = sortition_message(block, query_idx);
    let mut bad = Vec::new();
    // Cheap exact check first: the sortition rank must be the signature
    // hash. Entries failing it are excluded from the signature batch so
    // the combiner only ever sees well-formed tickets.
    let mut sig_positions = Vec::with_capacity(tickets.len());
    let mut entries = Vec::with_capacity(tickets.len());
    for (i, t) in tickets.iter().enumerate() {
        if sha256(&t.signature.to_bytes()) != t.hash {
            bad.push(i);
        } else {
            sig_positions.push(i);
            entries.push(BatchEntry {
                pk: registry.device(t.device_idx).pk,
                msg: &msg,
                sig: t.signature,
            });
        }
    }
    if let Err(sig_bad) = verify_batch(&entries) {
        bad.extend(sig_bad.into_iter().map(|j| sig_positions[j]));
        bad.sort_unstable();
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad)
    }
}

/// The selected committees: `committees[k]` lists registry indices of
/// committee `k`'s members.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Committees {
    /// Member registry indices per committee.
    pub committees: Vec<Vec<usize>>,
    /// Committee size used.
    pub m: usize,
}

/// The total sortition order: lowest hash first, registry index as the
/// tie-break. The tie-break makes seating independent of the order in
/// which tickets were produced even on (adversarially) colliding
/// hashes; with unique hashes it changes nothing.
#[inline]
fn ticket_order(a: &Ticket, b: &Ticket) -> std::cmp::Ordering {
    a.hash.cmp(&b.hash).then(a.device_idx.cmp(&b.device_idx))
}

/// Seats `c` committees of `m` from a round's tickets using O(n)
/// partial selection: `select_nth_unstable` partitions the `c·m` lowest
/// tickets (by [`ticket_order`]) to the front, and only that prefix is
/// sorted. Identical committees to a full sort of every ticket.
///
/// # Panics
///
/// Panics if there are fewer than `c·m` tickets.
pub fn seat_committees(mut tickets: Vec<Ticket>, c: usize, m: usize) -> Committees {
    let seats = c * m;
    assert!(
        tickets.len() >= seats,
        "{} tickets cannot seat {c} committees of {m}",
        tickets.len()
    );
    if seats > 0 && seats < tickets.len() {
        tickets.select_nth_unstable_by(seats - 1, ticket_order);
        tickets.truncate(seats);
    }
    tickets.sort_unstable_by(ticket_order);
    collect_committees(&tickets, c, m)
}

/// The pre-optimization seating path: a full O(n log n) sort of every
/// ticket. Test-only: the parity baseline for [`seat_committees`].
///
/// # Panics
///
/// Panics if there are fewer than `c·m` tickets.
#[cfg(test)]
fn seat_committees_reference(mut tickets: Vec<Ticket>, c: usize, m: usize) -> Committees {
    assert!(
        tickets.len() >= c * m,
        "{} tickets cannot seat {c} committees of {m}",
        tickets.len()
    );
    tickets.sort_by(ticket_order);
    collect_committees(&tickets, c, m)
}

/// Reads committee `k` off tickets `[k·m, (k+1)·m)` of the sorted prefix.
fn collect_committees(sorted: &[Ticket], c: usize, m: usize) -> Committees {
    let committees = (0..c)
        .map(|k| {
            sorted[k * m..(k + 1) * m]
                .iter()
                .map(|t| t.device_idx)
                .collect()
        })
        .collect();
    Committees { committees, m }
}

/// Runs sortition: selects `c` committees of `m` members each.
///
/// Tickets are generated on the process-default `par` pool (ticket `i`
/// is a pure function of `(registry, block, query_idx, i)`, so results
/// are bitwise identical at any thread count) and seated by O(n)
/// partial selection. Committees are identical to a serial, fully
/// sorted selection.
///
/// # Panics
///
/// Panics if the registry holds fewer than `c·m` devices.
pub fn select_committees(
    registry: &Registry,
    block: &Digest,
    query_idx: u64,
    c: usize,
    m: usize,
) -> Committees {
    select_committees_on(&arboretum_par::global(), registry, block, query_idx, c, m)
}

/// [`select_committees`] on an explicit thread pool (a zero-worker pool
/// generates tickets inline on the caller).
///
/// # Panics
///
/// Panics if the registry holds fewer than `c·m` devices.
pub fn select_committees_on(
    pool: &ThreadPool,
    registry: &Registry,
    block: &Digest,
    query_idx: u64,
    c: usize,
    m: usize,
) -> Committees {
    assert!(
        registry.len() >= c * m,
        "registry of {} devices cannot seat {c} committees of {m}",
        registry.len()
    );
    let msg = Arc::new(sortition_message(block, query_idx));
    let tickets = par_map_arc(pool, &registry.devices, {
        let msg = Arc::clone(&msg);
        move |i, d| make_ticket_with_msg(d, i, &msg)
    });
    seat_committees(tickets, c, m)
}

/// The pre-optimization selection path: serial ticket generation and a
/// full sort. Test-only: the parity baseline for [`select_committees`],
/// which must seat bitwise-identical committees.
///
/// # Panics
///
/// Panics if the registry holds fewer than `c·m` devices.
#[cfg(test)]
fn select_committees_reference(
    registry: &Registry,
    block: &Digest,
    query_idx: u64,
    c: usize,
    m: usize,
) -> Committees {
    assert!(
        registry.len() >= c * m,
        "registry of {} devices cannot seat {c} committees of {m}",
        registry.len()
    );
    let tickets: Vec<Ticket> = registry
        .devices()
        .iter()
        .enumerate()
        .map(|(i, d)| make_ticket(d, i, block, query_idx))
        .collect();
    seat_committees_reference(tickets, c, m)
}

/// Derives the next beacon block from committee-contributed randomness
/// (the XOR of member inputs, per §5.2), binding in the registry root to
/// prevent grinding.
pub fn next_block(contributions: &[Digest], registry_root: &Digest) -> Digest {
    let mut acc = [0u8; 32];
    for c in contributions {
        for (a, b) in acc.iter_mut().zip(c) {
            *a ^= b;
        }
    }
    let mut m = acc.to_vec();
    m.extend_from_slice(registry_root);
    sha256(&m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(n: usize) -> Registry {
        Registry::new((0..n as u64).map(Device::from_id).collect())
    }

    #[test]
    fn the_registry_root_is_the_tree_root_over_its_leaves() {
        // 1..=70 devices crosses every odd-node promotion pattern up to
        // seven levels.
        for n in 1..=70u64 {
            let devices: Vec<Device> = (0..n).map(Device::from_id).collect();
            let leaves: Vec<Vec<u8>> = devices.iter().map(|d| d.leaf().to_vec()).collect();
            assert_eq!(
                Registry::new(devices).root(),
                MerkleTree::new(&leaves).root(),
                "n={n}"
            );
        }
    }

    #[test]
    fn a_device_is_three_words_and_rebuilds_its_keypair() {
        assert_eq!(size_of::<Device>(), 24);
        let d = Device::from_id(7);
        let kp = Keypair::from_seed(&7u64.to_be_bytes());
        assert_eq!((d.keypair().sk, d.keypair().pk), (kp.sk, kp.pk));
        assert_eq!(d.keypair().sign(b"m"), kp.sign(b"m"));
    }

    #[test]
    fn committees_are_disjoint_and_sized() {
        let reg = registry(200);
        let block = sha256(b"beacon-0");
        let sel = select_committees(&reg, &block, 1, 4, 10);
        assert_eq!(sel.committees.len(), 4);
        let mut seen = std::collections::HashSet::new();
        for c in &sel.committees {
            assert_eq!(c.len(), 10);
            for &d in c {
                assert!(seen.insert(d), "device {d} seated twice");
            }
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let reg = registry(100);
        let block = sha256(b"beacon");
        let a = select_committees(&reg, &block, 7, 3, 5);
        let b = select_committees(&reg, &block, 7, 3, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_rounds_give_different_committees() {
        let reg = registry(500);
        let block = sha256(b"beacon");
        let a = select_committees(&reg, &block, 1, 2, 10);
        let b = select_committees(&reg, &block, 2, 2, 10);
        assert_ne!(a.committees, b.committees);
    }

    #[test]
    fn different_blocks_give_different_committees() {
        let reg = registry(500);
        let a = select_committees(&reg, &sha256(b"b1"), 1, 2, 10);
        let b = select_committees(&reg, &sha256(b"b2"), 1, 2, 10);
        assert_ne!(a.committees, b.committees);
    }

    #[test]
    fn tickets_verify_and_bind_device() {
        let reg = registry(10);
        let block = sha256(b"x");
        let t = make_ticket(reg.device(3), 3, &block, 0);
        assert!(verify_ticket(&reg.device(3).pk, &block, 0, &t));
        // Wrong device, round, or block must fail.
        assert!(!verify_ticket(&reg.device(4).pk, &block, 0, &t));
        assert!(!verify_ticket(&reg.device(3).pk, &block, 1, &t));
        assert!(!verify_ticket(&reg.device(3).pk, &sha256(b"y"), 0, &t));
    }

    #[test]
    fn tickets_cannot_be_reground() {
        // Deterministic signatures: a device gets exactly one ticket hash
        // per round.
        let reg = registry(5);
        let block = sha256(b"x");
        let t1 = make_ticket(reg.device(0), 0, &block, 3);
        let t2 = make_ticket(reg.device(0), 0, &block, 3);
        assert_eq!(t1.hash, t2.hash);
    }

    #[test]
    fn selection_is_roughly_uniform() {
        // Across many rounds, every device should serve sometimes.
        let n = 50;
        let reg = registry(n);
        let mut counts = vec![0u32; n];
        for round in 0..200u64 {
            let block = sha256(&round.to_be_bytes());
            let sel = select_committees(&reg, &block, round, 1, 5);
            for &d in &sel.committees[0] {
                counts[d] += 1;
            }
        }
        // Expected 20 selections each; allow wide slack.
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min >= 5, "some device starved: {min}");
        assert!(max <= 45, "some device over-selected: {max}");
    }

    #[test]
    fn beacon_evolution_depends_on_contributions_and_registry() {
        let r1 = sha256(b"root1");
        let r2 = sha256(b"root2");
        let c1 = [sha256(b"a"), sha256(b"b")];
        let c2 = [sha256(b"a"), sha256(b"c")];
        assert_ne!(next_block(&c1, &r1), next_block(&c2, &r1));
        assert_ne!(next_block(&c1, &r1), next_block(&c1, &r2));
        // XOR is order-independent: honest contribution ordering cannot
        // change the beacon.
        let c1_swapped = [sha256(b"b"), sha256(b"a")];
        assert_eq!(next_block(&c1, &r1), next_block(&c1_swapped, &r1));
    }

    #[test]
    #[should_panic(expected = "cannot seat")]
    fn undersized_registry_panics() {
        let reg = registry(10);
        select_committees(&reg, &sha256(b"b"), 0, 3, 5);
    }

    #[test]
    fn partial_selection_matches_reference_full_sort() {
        // Fast path (parallel tickets + select_nth prefix) and reference
        // path (serial + full sort) seat bitwise-identical committees,
        // including when every device is seated (c·m == n) and when the
        // pool is the inline zero-worker one.
        let reg = registry(337);
        for (c, m, q) in [(4, 10, 1), (1, 337, 0), (3, 5, 9), (5, 25, 2), (5, 7, 0)] {
            let block = sha256(&[c as u8, m as u8]);
            let fast = select_committees(&reg, &block, q, c, m);
            let reference = select_committees_reference(&reg, &block, q, c, m);
            assert_eq!(fast, reference, "c={c} m={m} q={q}");
            let inline = select_committees_on(
                &arboretum_par::ParConfig::serial().pool(),
                &reg,
                &block,
                q,
                c,
                m,
            );
            assert_eq!(inline, reference, "inline pool diverged at c={c} m={m}");
        }
    }

    /// A ticket with a forced hash (regression rig for duplicate-hash
    /// seating: `sort_by_key(|t| t.hash)` alone would seat colliding
    /// tickets in production order).
    fn forced(hash_byte: u8, device_idx: usize) -> Ticket {
        let t = make_ticket(
            &Device::from_id(device_idx as u64),
            device_idx,
            &sha256(b"x"),
            0,
        );
        Ticket {
            device_idx,
            signature: t.signature,
            hash: [hash_byte; 32],
        }
    }

    #[test]
    fn duplicate_hashes_seat_by_device_index_in_both_paths() {
        // Three tickets share the lowest hash but only two seats exist:
        // the (hash, device_idx) key must seat the two lowest indices
        // regardless of production order.
        let tickets = vec![
            forced(7, 4),
            forced(0, 9),
            forced(0, 2),
            forced(3, 1),
            forced(0, 5),
        ];
        let mut reversed = tickets.clone();
        reversed.reverse();
        let want = vec![vec![2, 5]];
        for ts in [tickets, reversed] {
            let fast = seat_committees(ts.clone(), 1, 2);
            let reference = seat_committees_reference(ts, 1, 2);
            assert_eq!(fast.committees, want);
            assert_eq!(reference.committees, want);
        }
    }

    #[test]
    fn batch_ticket_verification_accepts_honest_rounds() {
        let reg = registry(60);
        let block = sha256(b"batch-round");
        let tickets: Vec<Ticket> = reg
            .devices()
            .iter()
            .enumerate()
            .map(|(i, d)| make_ticket(d, i, &block, 3))
            .collect();
        assert_eq!(verify_tickets_batch(&reg, &block, 3, &tickets), Ok(()));
    }

    #[test]
    fn batch_ticket_verification_attributes_exact_forgeries() {
        use arboretum_crypto::group::Scalar;
        let reg = registry(50);
        let block = sha256(b"forged-round");
        let mut tickets: Vec<Ticket> = reg
            .devices()
            .iter()
            .enumerate()
            .map(|(i, d)| make_ticket(d, i, &block, 0))
            .collect();
        // Three forgery shapes: tampered response, ground (re-hashed)
        // ticket rank, and a signature stolen from another round.
        tickets[8].signature.s += Scalar::ONE;
        tickets[8].hash = sha256(&tickets[8].signature.to_bytes());
        tickets[19].hash = sha256(b"wishful low hash");
        tickets[33] = make_ticket(reg.device(33), 33, &block, 1);
        assert_eq!(
            verify_tickets_batch(&reg, &block, 0, &tickets),
            Err(vec![8, 19, 33])
        );
    }
}
