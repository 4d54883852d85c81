//! Cost-model validation (the paper's [44, §C]).
//!
//! The planner's cost model predicts per-vignette MPC costs from
//! calibrated constants; the MPC simulator independently meters the
//! *concrete* protocols (rounds, bytes, triples). This module runs both
//! and reports the ratio — the paper's point (§4.6) is that the model
//! need not be exact, only order-preserving, so the checks assert ratios
//! within a small constant factor and strict monotonicity.

use arboretum_field::FGold;
use arboretum_mpc::compare::{argmax_tournament, less_than};
use arboretum_mpc::engine::MpcEngine;
use arboretum_mpc::network::FIELD_BYTES;

/// One validation row: a protocol, its concrete metering, and the
/// model's prediction.
#[derive(Clone, Debug)]
pub struct ValidationRow {
    /// Protocol label.
    pub protocol: String,
    /// Concretely metered rounds.
    pub rounds: u64,
    /// Concretely metered bytes (total across parties).
    pub bytes: u64,
    /// Concretely consumed triples.
    pub triples: u64,
    /// The cost model's predicted rounds.
    pub predicted_rounds: u64,
    /// The cost model's predicted bytes.
    pub predicted_bytes: u64,
}

impl ValidationRow {
    /// Ratio of predicted to concrete rounds.
    pub fn round_ratio(&self) -> f64 {
        self.predicted_rounds as f64 / self.rounds.max(1) as f64
    }

    /// Ratio of predicted to concrete bytes.
    pub fn byte_ratio(&self) -> f64 {
        self.predicted_bytes as f64 / self.bytes.max(1) as f64
    }
}

/// Predicted communication for a width-`bits` comparison among `m`
/// parties: the borrow chain opens one masked value and runs one
/// multiplication per bit (each a batched open round-trip).
fn predict_compare(m: u64, bits: u64) -> (u64, u64) {
    // One masked open (2 rounds + malicious check) + `bits` sequential
    // multiplications (3 rounds each in malicious mode) + final XOR.
    let per_open_bytes = 2 * FIELD_BYTES as u64 * (2 * (m - 1) + m);
    let opens = bits + 3;
    (3 * opens, opens * per_open_bytes)
}

/// Runs a width-`bits` comparison concretely and compares to the model.
pub fn validate_compare(m: usize, bits: usize) -> ValidationRow {
    let t = (m - 1) / 2;
    let mut e = MpcEngine::new(m, t, true, 0xc0de);
    let x = e.input(0, FGold::new(123)).expect("input succeeds");
    let y = e.input(1, FGold::new(456)).expect("input succeeds");
    let before = e.net.metrics.clone();
    less_than(&mut e, &x, &y, bits).expect("comparison succeeds");
    let after = e.net.metrics.clone();
    let (pr, pb) = predict_compare(m as u64, bits as u64);
    ValidationRow {
        protocol: format!("compare_{bits}bit_m{m}"),
        rounds: after.rounds - before.rounds,
        bytes: after.bytes_sent_total - before.bytes_sent_total,
        triples: after.triples - before.triples,
        predicted_rounds: pr,
        predicted_bytes: pb,
    }
}

/// Runs a `k`-way argmax tournament concretely and compares to a model
/// of `⌈log₂ k⌉` levels, each one comparison plus one batched selection
/// deep, moving `k − 1` comparisons and `2(k − 1)` selections in all.
pub fn validate_argmax(m: usize, k: usize, bits: usize) -> ValidationRow {
    let t = (m - 1) / 2;
    let mut e = MpcEngine::new(m, t, true, 0xa12);
    let xs: Vec<_> = (0..k)
        .map(|i| {
            e.input(0, FGold::new(i as u64 * 7 + 1))
                .expect("input succeeds")
        })
        .collect();
    let before = e.net.metrics.clone();
    argmax_tournament(&mut e, &xs, bits).expect("argmax succeeds");
    let after = e.net.metrics.clone();
    let (cr, cb) = predict_compare(m as u64, bits as u64);
    // Rounds follow the depth: a level's comparisons share one chain
    // and its selections one opening (3 rounds in malicious mode).
    // Bytes follow the work: each of the `k − 1` matches is one
    // comparison plus two selections (one multiplication each).
    let per_open_bytes = 2 * FIELD_BYTES as u64 * (2 * (m as u64 - 1) + m as u64);
    let levels = u64::from(k.next_power_of_two().trailing_zeros());
    let pr = levels * (cr + 3);
    let pb = (k as u64 - 1) * (cb + 2 * per_open_bytes);
    ValidationRow {
        protocol: format!("argmax_{k}way_m{m}"),
        rounds: after.rounds - before.rounds,
        bytes: after.bytes_sent_total - before.bytes_sent_total,
        triples: after.triples - before.triples,
        predicted_rounds: pr,
        predicted_bytes: pb,
    }
}

/// The full validation table.
pub fn validation_rows() -> Vec<ValidationRow> {
    vec![
        validate_compare(5, 16),
        validate_compare(5, 32),
        validate_compare(9, 32),
        validate_compare(13, 40),
        validate_argmax(5, 4, 20),
        validate_argmax(5, 8, 20),
        validate_argmax(9, 8, 32),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_within_small_factor_of_concrete() {
        for row in validation_rows() {
            let rr = row.round_ratio();
            let br = row.byte_ratio();
            assert!(
                (0.3..3.0).contains(&rr),
                "{}: round ratio {rr:.2} ({} vs {})",
                row.protocol,
                row.predicted_rounds,
                row.rounds
            );
            assert!(
                (0.3..3.0).contains(&br),
                "{}: byte ratio {br:.2} ({} vs {})",
                row.protocol,
                row.predicted_bytes,
                row.bytes
            );
        }
    }

    #[test]
    fn model_preserves_ordering() {
        // What the planner actually needs (§4.6): candidate ordering.
        let c16 = validate_compare(5, 16);
        let c32 = validate_compare(5, 32);
        assert!(c32.rounds > c16.rounds);
        assert!(c32.predicted_rounds > c16.predicted_rounds);
        let a4 = validate_argmax(5, 4, 20);
        let a8 = validate_argmax(5, 8, 20);
        assert!(a8.bytes > a4.bytes);
        assert!(a8.predicted_bytes > a4.predicted_bytes);
    }

    #[test]
    fn bigger_committees_cost_more_bytes() {
        let m5 = validate_compare(5, 32);
        let m13 = validate_compare(13, 32);
        assert!(m13.bytes > m5.bytes);
        assert!(m13.predicted_bytes > m5.predicted_bytes);
        // Rounds are committee-size independent (same protocol depth).
        assert_eq!(m5.rounds, m13.rounds);
    }
}
