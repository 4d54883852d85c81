//! Aggregator step audits (§5.3).
//!
//! The aggregator commits to the results of every execution step in a
//! Merkle hash tree; each participant challenges a few random leaves and
//! verifies the returned contents and inclusion proofs. A Byzantine
//! aggregator that tampers with even one step is caught unless *every*
//! auditor happens to miss it; the per-device challenge count is chosen
//! so the overall miss probability stays below `p_max`.
//!
//! [`adversarial_audit`] checks each distinct response once. Its auditors
//! draw far more challenges than a log has steps, so a response — step,
//! contents and proof together — already verified is not hashed again,
//! and a step's expected contents are looked up once. Every draw still
//! gets its own response and its own record, in draw order: a forged or
//! equivocating answer differs from the honest one, so it is verified on
//! its own. Responses and records borrow from the logs; nothing is
//! copied per draw.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::HashMap;

use arboretum_crypto::merkle::{MerklePath, MerkleProof, MerkleTree};
use arboretum_crypto::sha256::Digest;
use rand::Rng;

use crate::adversary::DetectionKind;

/// A step log's contents: every step's bytes back to back in one arena,
/// and where each step ends.
///
/// A step costs its bytes and a 4-byte end, not a `Vec<u8>` header and a
/// heap block of its own; an epoch reserves its room when it opens and
/// writes each input step's label straight into the arena. Step `i` is
/// `&steps[i]`. The arena holds at most `u32::MAX` bytes; an epoch whose
/// log could pass that is refused when it opens.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Steps {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl Steps {
    /// An empty log with room for `steps` steps of `bytes` bytes in all.
    pub fn with_capacity(steps: usize, bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(steps),
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the log holds no step.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Removes every step, keeping the room.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Appends one step.
    pub fn push(&mut self, step: &[u8]) {
        self.bytes.extend_from_slice(step);
        self.end_step();
    }

    /// Appends the input step `input-{device}{verdict}`, writing the
    /// decimal index in place.
    pub(crate) fn push_input(&mut self, device: usize, verdict: &[u8]) {
        self.bytes.extend_from_slice(b"input-");
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut rest = device;
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.bytes.extend_from_slice(&digits[start..]);
        self.bytes.extend_from_slice(verdict);
        self.end_step();
    }

    fn end_step(&mut self) {
        assert!(
            self.bytes.len() <= u32::MAX as usize,
            "a step log holds at most 4 GiB"
        );
        self.ends.push(self.bytes.len() as u32);
    }

    /// Where step `i` lies in the arena.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        start..self.ends[i] as usize
    }

    /// Replaces step `i`'s contents, shifting the steps after it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn replace(&mut self, i: usize, contents: &[u8]) {
        let span = self.span(i);
        let (old, new) = (span.len(), contents.len());
        self.bytes.splice(span, contents.iter().copied());
        assert!(
            self.bytes.len() <= u32::MAX as usize,
            "a step log holds at most 4 GiB"
        );
        for end in &mut self.ends[i..] {
            *end = (*end as usize + new - old) as u32;
        }
    }

    /// The steps, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        (0..self.len()).map(|i| &self[i])
    }
}

impl std::ops::Index<usize> for Steps {
    type Output = [u8];

    fn index(&self, i: usize) -> &[u8] {
        &self.bytes[self.span(i)]
    }
}

impl From<Vec<Vec<u8>>> for Steps {
    fn from(steps: Vec<Vec<u8>>) -> Self {
        let mut out = Self::with_capacity(steps.len(), steps.iter().map(Vec::len).sum());
        for step in &steps {
            out.push(step);
        }
        out
    }
}

/// The aggregator's side of the audit: the step log and its tree.
#[derive(Clone, Debug)]
pub struct StepLog {
    steps: Steps,
    tree: MerkleTree,
}

impl StepLog {
    /// Builds the log from the serialized results of each step, as one
    /// [`Steps`] arena or one `Vec<u8>` a step.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn new(steps: impl Into<Steps>) -> Self {
        let steps = steps.into();
        let tree = MerkleTree::new(steps.iter());
        Self { steps, tree }
    }

    /// The published root.
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// The committed step contents, in order.
    pub(crate) fn steps(&self) -> &Steps {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the log is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Answers a challenge: the step contents and an inclusion proof.
    pub fn respond(&self, index: usize) -> (Vec<u8>, MerkleProof) {
        (self.steps[index].to_vec(), self.tree.prove(index))
    }

    /// Answers a challenge by reference: [`respond`](Self::respond)'s
    /// contents and proof, borrowed from the log.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn answer(&self, index: usize) -> StepResponse<'_> {
        StepResponse {
            contents: &self.steps[index],
            proof: self.tree.path(index),
        }
    }

    /// Tampers with one step *after* publishing the root (test helper for
    /// Byzantine behavior).
    pub fn tamper(&mut self, index: usize, new_contents: Vec<u8>) {
        self.steps.replace(index, &new_contents);
    }
}

/// Number of leaves each device must audit so that a single bad step
/// among `steps` escapes all `n_devices` audits with probability at most
/// `p_max`.
pub fn challenges_per_device(steps: usize, n_devices: u64, p_max: f64) -> usize {
    assert!(steps > 0 && n_devices > 0 && (0.0..1.0).contains(&p_max));
    // One device auditing k of s steps misses a fixed bad step w.p.
    // (1 - k/s); across n devices: (1 - k/s)^n <= p_max.
    for k in 1..=steps {
        let miss = (1.0 - k as f64 / steps as f64).powf(n_devices as f64);
        if miss <= p_max {
            return k;
        }
    }
    steps
}

/// One device's audit: challenge `k` random leaves, verify contents
/// against the recomputation oracle and proofs against the root.
///
/// `recompute` returns the expected contents of a step (in the real
/// system the device recomputes or cross-checks the step; in tests it is
/// the honest step list).
pub fn audit<R: Rng + ?Sized>(
    log: &StepLog,
    root: &Digest,
    k: usize,
    recompute: impl Fn(usize) -> Vec<u8>,
    rng: &mut R,
) -> bool {
    for _ in 0..k {
        let idx = rng.gen_range(0..log.len());
        let (contents, proof) = log.respond(idx);
        if contents != recompute(idx) {
            return false;
        }
        if !MerkleTree::verify(root, &contents, &proof) {
            return false;
        }
    }
    true
}

/// Marker suffix a cheating aggregator's published log carries on an
/// input step it silently dropped (the honest log records the step as
/// accepted, so the mismatch is attributable as a dropped upload).
pub const DROPPED_MARKER: &[u8] = b"-dropped";

/// What a responder serves for one challenged step: contents and an
/// inclusion proof, borrowed from the log it answers from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepResponse<'a> {
    /// The served step contents.
    pub contents: &'a [u8],
    /// The served inclusion proof.
    pub proof: MerklePath<'a>,
}

/// One auditor challenge against a published (possibly forged) log:
/// what the responder served, what the device expected, and whether the
/// inclusion proof verified against the published root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChallengeRecord<'a> {
    /// The challenged step index.
    pub step: usize,
    /// The contents the responder served.
    pub contents: &'a [u8],
    /// The contents the device's recomputation expects.
    pub expected: &'a [u8],
    /// Whether the served inclusion proof verified against the
    /// published root.
    pub proof_ok: bool,
}

impl ChallengeRecord<'_> {
    /// Whether the served contents match the device's recomputation.
    pub fn content_ok(&self) -> bool {
        self.contents == self.expected
    }
}

/// Runs the device-side audit against a possibly-malicious responder:
/// `n_auditors` devices each challenge `k` random steps, verifying the
/// served inclusion proof against `root` and the served contents
/// against `recompute`. Every challenge is recorded so the auditors can
/// pool their evidence through [`collate_detection`].
///
/// The responder is `FnMut` deliberately: an equivocating aggregator
/// answers repeated challenges on the same step differently. It is
/// called once per draw, in draw order. Each record's `proof_ok` is
/// [`MerkleTree::verify`] of that draw's own response, computed once per
/// distinct response; `recompute` is called once per distinct step.
pub fn adversarial_audit<'a, R: Rng + ?Sized>(
    total_steps: usize,
    root: &Digest,
    n_auditors: usize,
    k: usize,
    mut respond: impl FnMut(usize) -> StepResponse<'a>,
    recompute: impl Fn(usize) -> &'a [u8],
    rng: &mut R,
) -> Vec<ChallengeRecord<'a>> {
    let draws = n_auditors * k;
    let mut checked = Checked::new(total_steps, draws);
    let mut records = Vec::with_capacity(draws);
    for _ in 0..n_auditors {
        for _ in 0..k {
            let step = rng.gen_range(0..total_steps);
            let response = respond(step);
            let (expected, proof_ok) = checked.check(step, response, root, &recompute);
            records.push(ChallengeRecord {
                step,
                contents: response.contents,
                expected,
                proof_ok,
            });
        }
    }
    records
}

/// The responses an audit has verified: for each, its step's expected
/// contents and its proof's verdict. A step's distinct responses form a
/// chain through `next`, so an equivocating step holds two entries and
/// every other step one.
struct Checked<'a> {
    /// Per challenged step, the index in `entries` of its first
    /// response: at most one key a draw, however long the log.
    first: HashMap<usize, usize>,
    entries: Vec<CheckedResponse<'a>>,
}

struct CheckedResponse<'a> {
    response: StepResponse<'a>,
    expected: &'a [u8],
    proof_ok: bool,
    /// The step's next distinct response, if one was served.
    next: Option<usize>,
}

impl<'a> Checked<'a> {
    fn new(total_steps: usize, draws: usize) -> Self {
        let distinct = total_steps.min(draws);
        Self {
            first: HashMap::with_capacity(distinct),
            entries: Vec::with_capacity(distinct),
        }
    }

    /// The expected contents of `step` and whether `response`'s proof
    /// verifies against `root`, each computed only the first time.
    fn check(
        &mut self,
        step: usize,
        response: StepResponse<'a>,
        root: &Digest,
        recompute: &impl Fn(usize) -> &'a [u8],
    ) -> (&'a [u8], bool) {
        let mut last = None;
        let mut link = self.first.get(&step).copied();
        while let Some(i) = link {
            let entry = &self.entries[i];
            if entry.response == response {
                return (entry.expected, entry.proof_ok);
            }
            last = Some(i);
            link = entry.next;
        }
        let expected = last.map_or_else(|| recompute(step), |i| self.entries[i].expected);
        let proof_ok = response.proof.verify(root, response.contents);
        let new = self.entries.len();
        self.entries.push(CheckedResponse {
            response,
            expected,
            proof_ok,
            next: None,
        });
        match last {
            Some(i) => self.entries[i].next = Some(new),
            None => {
                self.first.insert(step, new);
            }
        }
        (expected, proof_ok)
    }
}

/// Pools the auditors' challenge records into at most one typed
/// detection against the aggregator.
///
/// The rules are behavior-blind — they look only at the evidence — and
/// ordered so each §5.3 cheat maps to exactly one class:
///
/// 1. a step answered with two different contents is equivocation;
/// 2. every proof failing means the published root does not commit the
///    served log;
/// 3. a step whose proofs fail (while others verify) is a leaf forged
///    after commitment;
/// 4. a committed content mismatch carrying the [`DROPPED_MARKER`] is a
///    dropped upload (the induced aggregate-digest mismatch is the same
///    root cause, so it is absorbed rather than double-reported);
/// 5. two mismatched steps holding each other's expected contents are a
///    reordering;
/// 6. any remaining committed mismatch (e.g. a wrong partial sum) is a
///    plain step mismatch, attributed to its smallest step.
pub fn collate_detection(records: &[ChallengeRecord]) -> Option<DetectionKind> {
    if records.is_empty() {
        return None;
    }
    use std::collections::BTreeMap;
    let mut by_step: BTreeMap<usize, Vec<&ChallengeRecord>> = BTreeMap::new();
    for r in records {
        by_step.entry(r.step).or_default().push(r);
    }

    // 1. Equivocation: two distinct answers for one step.
    for (&step, rs) in &by_step {
        if rs.iter().any(|r| r.contents != rs[0].contents) {
            return Some(DetectionKind::AuditEquivocation { step });
        }
    }
    // 2. Root mismatch: no served proof verifies anywhere.
    if records.iter().all(|r| !r.proof_ok) {
        return Some(DetectionKind::AuditRootMismatch);
    }
    // 3. Forged leaf: a step whose proofs fail against the root.
    for (&step, rs) in &by_step {
        if rs.iter().any(|r| !r.proof_ok) {
            return Some(DetectionKind::AuditForgedProof { step });
        }
    }
    // Remaining classes are committed mismatches: proofs pass, contents
    // disagree with the recomputation.
    let mismatched: Vec<(usize, &ChallengeRecord)> = by_step
        .iter()
        .filter_map(|(&step, rs)| {
            let r = rs[0];
            (!r.content_ok()).then_some((step, r))
        })
        .collect();
    // 4. Dropped upload.
    for &(step, r) in &mismatched {
        if r.contents.ends_with(DROPPED_MARKER) {
            return Some(DetectionKind::AuditDroppedUpload { step });
        }
    }
    // 5. Reordering: a pair of mismatched steps holding each other's
    //    expected contents.
    for (i, &(a, ra)) in mismatched.iter().enumerate() {
        for &(b, rb) in &mismatched[i + 1..] {
            if ra.contents == rb.expected && rb.contents == ra.expected {
                return Some(DetectionKind::AuditReorderedSteps {
                    earlier: a,
                    later: b,
                });
            }
        }
    }
    // 6. Plain committed mismatch.
    mismatched
        .first()
        .map(|&(step, _)| DetectionKind::AuditStepMismatch { step })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn steps(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("step-{i}-result").into_bytes())
            .collect()
    }

    /// A log as the epoch writes it: input labels written in place,
    /// then whole steps, among them an empty one.
    fn arena_and_vecs() -> (Steps, Vec<Vec<u8>>) {
        let devices = [0usize, 7, 9, 10, 99, 100, 12_345, usize::MAX];
        let mut arena = Steps::with_capacity(0, 0);
        let mut vecs = Vec::new();
        for (j, &i) in devices.iter().enumerate() {
            let verdict: &[u8] = if j % 3 == 0 { b"-binned-out" } else { b"-ok" };
            arena.push_input(i, verdict);
            vecs.push([format!("input-{i}").as_bytes(), verdict].concat());
        }
        for step in [&b"window-0-fold"[..], b"", b"decrypt-to-shares"] {
            arena.push(step);
            vecs.push(step.to_vec());
        }
        (arena, vecs)
    }

    #[test]
    fn the_arena_and_a_vec_a_step_commit_the_same_log() {
        let (arena, vecs) = arena_and_vecs();
        assert_eq!(Steps::from(vecs.clone()), arena);
        assert_eq!(
            arena.iter().collect::<Vec<_>>(),
            vecs.iter().map(Vec::as_slice).collect::<Vec<_>>()
        );
        let from_arena = StepLog::new(arena);
        let from_vecs = StepLog::new(vecs.clone());
        assert_eq!(from_arena.root(), from_vecs.root());
        assert_eq!(from_arena.root(), MerkleTree::new(&vecs).root());
        for i in 0..vecs.len() {
            assert_eq!(from_arena.answer(i), from_vecs.answer(i), "step {i}");
            assert_eq!(from_arena.respond(i), from_vecs.respond(i), "step {i}");
        }
    }

    #[test]
    fn replacing_a_step_shifts_the_ones_after_it() {
        for i in 0..11 {
            for contents in [&b""[..], b"x", b"a much longer step than any other"] {
                let (mut arena, mut vecs) = arena_and_vecs();
                arena.replace(i, contents);
                vecs[i] = contents.to_vec();
                assert_eq!(arena, Steps::from(vecs), "step {i}");
            }
        }
    }

    #[test]
    fn honest_aggregator_passes_audits() {
        let log = StepLog::new(steps(64));
        let root = log.root();
        let honest = steps(64);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert!(audit(&log, &root, 8, |i| honest[i].clone(), &mut rng));
        }
    }

    #[test]
    fn tampered_step_detected_with_high_probability() {
        let mut log = StepLog::new(steps(64));
        let root = log.root();
        log.tamper(17, b"forged".to_vec());
        let honest = steps(64);
        let mut rng = StdRng::seed_from_u64(2);
        // 200 devices auditing 8 leaves each: detection is essentially
        // certain.
        let mut caught = false;
        for _ in 0..200 {
            if !audit(&log, &root, 8, |i| honest[i].clone(), &mut rng) {
                caught = true;
                break;
            }
        }
        assert!(caught, "tampering must be detected");
    }

    #[test]
    fn tampering_breaks_inclusion_proof_even_with_matching_oracle() {
        // Even if the auditor cannot recompute (oracle returns the forged
        // contents), the inclusion proof against the published root fails.
        let mut log = StepLog::new(steps(16));
        let root = log.root();
        log.tamper(3, b"forged".to_vec());
        let mut rng = StdRng::seed_from_u64(3);
        let mut caught = false;
        for _ in 0..100 {
            if !audit(&log, &root, 4, |i| log.respond(i).0, &mut rng) {
                caught = true;
                break;
            }
        }
        assert!(caught);
    }

    fn record<'a>(
        step: usize,
        contents: &'a [u8],
        expected: &'a [u8],
        proof_ok: bool,
    ) -> ChallengeRecord<'a> {
        ChallengeRecord {
            step,
            contents,
            expected,
            proof_ok,
        }
    }

    #[test]
    fn collation_classifies_each_cheat_exactly_once() {
        // Honest transcript: no detection.
        assert_eq!(collate_detection(&[record(0, b"a", b"a", true)]), None);
        assert_eq!(collate_detection(&[]), None);
        // Equivocation outranks the invalid proof its forged answer carries.
        assert_eq!(
            collate_detection(&[
                record(2, b"x", b"x", true),
                record(2, b"x-equivocated", b"x", false),
                record(1, b"y", b"y", true),
            ]),
            Some(DetectionKind::AuditEquivocation { step: 2 })
        );
        // All proofs failing is a root mismatch, not per-step forgery.
        assert_eq!(
            collate_detection(&[record(0, b"a", b"a", false), record(3, b"b", b"b", false)]),
            Some(DetectionKind::AuditRootMismatch)
        );
        // One failing step among verifying ones is a forged leaf.
        assert_eq!(
            collate_detection(&[
                record(0, b"a", b"a", true),
                record(3, b"b-forged", b"b", false),
            ]),
            Some(DetectionKind::AuditForgedProof { step: 3 })
        );
        // The dropped marker wins over the induced aggregate mismatch.
        assert_eq!(
            collate_detection(&[
                record(1, b"input-1-dropped", b"input-1-ok", true),
                record(9, b"sum:222", b"sum:111", true),
            ]),
            Some(DetectionKind::AuditDroppedUpload { step: 1 })
        );
        // Swapped contents collate to one reordering.
        assert_eq!(
            collate_detection(&[
                record(4, b"input-5-ok", b"input-4-ok", true),
                record(5, b"input-4-ok", b"input-5-ok", true),
            ]),
            Some(DetectionKind::AuditReorderedSteps {
                earlier: 4,
                later: 5
            })
        );
        // A lone committed mismatch is a step mismatch.
        assert_eq!(
            collate_detection(&[record(9, b"sum:222", b"sum:111", true)]),
            Some(DetectionKind::AuditStepMismatch { step: 9 })
        );
    }

    #[test]
    fn adversarial_audit_records_every_challenge() {
        let log = StepLog::new(steps(16));
        let root = log.root();
        let honest = steps(16);
        let mut rng = StdRng::seed_from_u64(5);
        let records = adversarial_audit(
            log.len(),
            &root,
            10,
            3,
            |i| log.answer(i),
            |i| &honest[i],
            &mut rng,
        );
        assert_eq!(records.len(), 30);
        assert!(records.iter().all(|r| r.proof_ok && r.content_ok()));
        assert_eq!(collate_detection(&records), None);
    }

    #[test]
    fn challenge_count_meets_target() {
        // 1000 steps, a million devices: one challenge each is plenty.
        assert_eq!(challenges_per_device(1000, 1_000_000, 1e-9), 1);
        // 1000 steps, 20 devices: need many more.
        let k = challenges_per_device(1000, 20, 1e-9);
        assert!(k > 100, "few devices must audit more: {k}");
        // The bound holds.
        let miss = (1.0 - k as f64 / 1000.0).powf(20.0);
        assert!(miss <= 1e-9);
    }
}
