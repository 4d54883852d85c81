//! Simulated MPC network with byte, round, and latency accounting.
//!
//! The protocols in this crate execute in-process, but every communication
//! step is metered here: bytes sent per party, protocol rounds, and an
//! elapsed-time estimate under a configurable latency model. This is the
//! substrate for the paper's cost model (§4.6) and for the heterogeneity
//! experiments (§7.5), where WAN latency multiplied MPC wall-clock time
//! by ~7× and slow parties by ~1.5×.

/// Size in bytes of one field element on the wire.
pub const FIELD_BYTES: usize = 8;

/// Latency model between committee members.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// All links share one round-trip latency (seconds).
    Uniform(f64),
    /// Full per-party-pair one-way latency matrix (seconds); entry
    /// `[i][j]` is the latency from party `i` to party `j`.
    Matrix(Vec<Vec<f64>>),
}

impl LatencyModel {
    /// LAN defaults: 0.2 ms.
    pub fn lan() -> Self {
        Self::Uniform(0.0002)
    }

    /// The worst-case one-way latency across all links, which bounds each
    /// synchronous round.
    pub fn round_latency(&self) -> f64 {
        match self {
            Self::Uniform(l) => *l,
            Self::Matrix(m) => m
                .iter()
                .flat_map(|row| row.iter().copied())
                .fold(0.0, f64::max),
        }
    }

    /// Expands this model into a full `m × m` one-way latency matrix
    /// (the shape `arboretum-net`'s evented fabric consumes). A
    /// uniform model yields its latency on every off-diagonal link; a
    /// matrix smaller than `m` tiles by site assignment `i mod dim`.
    pub fn one_way_matrix(&self, m: usize) -> Vec<Vec<f64>> {
        match self {
            Self::Uniform(l) => (0..m)
                .map(|i| (0..m).map(|j| if i == j { 0.0 } else { *l }).collect())
                .collect(),
            Self::Matrix(mat) => {
                assert!(!mat.is_empty(), "latency matrix must be non-empty");
                (0..m)
                    .map(|i| {
                        let row = &mat[i % mat.len()];
                        (0..m).map(|j| row[j % row.len()]).collect()
                    })
                    .collect()
            }
        }
    }

    /// Builds the geo-distributed matrix used in §7.5: parties spread
    /// round-robin across Mumbai, New York, Paris, and Sydney, with
    /// one-way latencies from public inter-region RTT tables.
    pub fn geo_distributed(parties: usize) -> Self {
        // One-way latencies (seconds) between the four sites.
        const SITES: usize = 4;
        const L: [[f64; SITES]; SITES] = [
            // Mumbai      NewYork    Paris      Sydney
            [0.000_2, 0.093, 0.052, 0.110], // Mumbai
            [0.093, 0.000_2, 0.038, 0.100], // New York
            [0.052, 0.038, 0.000_2, 0.140], // Paris
            [0.110, 0.100, 0.140, 0.000_2], // Sydney
        ];
        let m = (0..parties)
            .map(|i| (0..parties).map(|j| L[i % SITES][j % SITES]).collect())
            .collect();
        Self::Matrix(m)
    }
}

/// Per-party compute-speed model (relative to the reference platform).
#[derive(Clone, Debug)]
pub struct ComputeModel {
    /// Slowdown factor per party (1.0 = reference server; a Raspberry
    /// Pi 4 measures ≈ 7.8× on RSA signing per §7.5).
    pub slowdown: Vec<f64>,
}

impl ComputeModel {
    /// All parties at reference speed.
    pub fn uniform(parties: usize) -> Self {
        Self {
            slowdown: vec![1.0; parties],
        }
    }

    /// `slow_count` parties run at `factor`× the reference cost (the
    /// §7.5 "slower devices" experiment: 4 Raspberry Pis among 42).
    pub fn with_slow_parties(parties: usize, slow_count: usize, factor: f64) -> Self {
        let mut slowdown = vec![1.0; parties];
        for s in slowdown.iter_mut().take(slow_count.min(parties)) {
            *s = factor;
        }
        Self { slowdown }
    }

    /// The per-round bottleneck: synchronous MPC rounds wait for the
    /// slowest party.
    pub fn bottleneck(&self) -> f64 {
        self.slowdown.iter().copied().fold(1.0, f64::max)
    }
}

/// Accumulated communication metrics for one MPC execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetMetrics {
    /// Communication rounds.
    pub rounds: u64,
    /// Total bytes sent, summed over parties.
    pub bytes_sent_total: u64,
    /// Bytes sent by the busiest party.
    pub bytes_sent_max: u64,
    /// Field multiplications performed (local compute proxy).
    pub field_mults: u64,
    /// Beaver triples consumed.
    pub triples: u64,
    /// Values opened (reconstructed in public).
    pub opens: u64,
}

/// The metered network shared by all parties of one MPC.
#[derive(Clone, Debug)]
pub struct NetMeter {
    parties: usize,
    per_party_sent: Vec<u64>,
    /// Running metrics.
    pub metrics: NetMetrics,
}

impl NetMeter {
    /// Creates a meter for `parties` parties.
    pub fn new(parties: usize) -> Self {
        Self {
            parties,
            per_party_sent: vec![0; parties],
            metrics: NetMetrics::default(),
        }
    }

    /// Number of parties.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Records `bytes` sent by `party`.
    pub fn send(&mut self, party: usize, bytes: u64) {
        self.per_party_sent[party] += bytes;
        self.metrics.bytes_sent_total += bytes;
        self.metrics.bytes_sent_max = self.metrics.bytes_sent_max.max(self.per_party_sent[party]);
    }

    /// Records every party sending `bytes` (an all-to-all or broadcast
    /// step where each party transmits the same amount).
    pub fn send_all(&mut self, bytes_each: u64) {
        for p in 0..self.parties {
            self.send(p, bytes_each);
        }
    }

    /// Marks the end of a communication round.
    pub fn round(&mut self) {
        self.metrics.rounds += 1;
    }

    /// Records local field multiplications (aggregate across parties).
    pub fn compute(&mut self, field_mults: u64) {
        self.metrics.field_mults += field_mults;
    }

    /// Records consumption of Beaver triples.
    pub fn consume_triples(&mut self, n: u64) {
        self.metrics.triples += n;
    }

    /// Bytes sent by one party.
    pub fn sent_by(&self, party: usize) -> u64 {
        self.per_party_sent[party]
    }

    /// Estimates wall-clock seconds for this execution.
    ///
    /// `per_mult_secs` is the reference-platform cost of one field
    /// multiplication; rounds each pay the worst link latency and the
    /// slowest party's compute bottleneck.
    pub fn elapsed_secs(
        &self,
        latency: &LatencyModel,
        compute: &ComputeModel,
        per_mult_secs: f64,
    ) -> f64 {
        let round_time = self.metrics.rounds as f64 * latency.round_latency();
        let compute_time = self.metrics.field_mults as f64 * per_mult_secs * compute.bottleneck();
        round_time + compute_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metering_accumulates() {
        let mut m = NetMeter::new(3);
        m.send(0, 100);
        m.send(1, 50);
        m.send(0, 25);
        m.round();
        assert_eq!(m.metrics.bytes_sent_total, 175);
        assert_eq!(m.metrics.bytes_sent_max, 125);
        assert_eq!(m.sent_by(0), 125);
        assert_eq!(m.metrics.rounds, 1);
    }

    #[test]
    fn send_all_charges_every_party() {
        let mut m = NetMeter::new(4);
        m.send_all(10);
        assert_eq!(m.metrics.bytes_sent_total, 40);
        assert_eq!(m.metrics.bytes_sent_max, 10);
    }

    #[test]
    fn round_latency_uniform_falls_back_to_the_single_value() {
        assert_eq!(LatencyModel::Uniform(0.025).round_latency(), 0.025);
        assert_eq!(LatencyModel::Uniform(0.0).round_latency(), 0.0);
        assert_eq!(LatencyModel::lan().round_latency(), 0.0002);
    }

    #[test]
    fn round_latency_takes_the_max_of_an_asymmetric_matrix() {
        // Asymmetric links: 0→1 is slow, 1→0 fast; the synchronous
        // round is bounded by the slowest directed link.
        let l = LatencyModel::Matrix(vec![vec![0.0, 0.120], vec![0.010, 0.0]]);
        assert_eq!(l.round_latency(), 0.120);
        // The max may sit on the diagonal-free lower triangle too.
        let l = LatencyModel::Matrix(vec![vec![0.0, 0.003], vec![0.200, 0.0]]);
        assert_eq!(l.round_latency(), 0.200);
    }

    #[test]
    fn round_latency_of_empty_and_degenerate_matrices() {
        // An empty matrix folds to 0.0 rather than panicking, and a
        // 1-party matrix is just its self-latency.
        assert_eq!(LatencyModel::Matrix(vec![]).round_latency(), 0.0);
        assert_eq!(LatencyModel::Matrix(vec![vec![0.0]]).round_latency(), 0.0);
    }

    #[test]
    fn one_way_matrix_expands_uniform_and_tiles_small_matrices() {
        let u = LatencyModel::Uniform(0.05).one_way_matrix(3);
        for (i, row) in u.iter().enumerate() {
            for (j, &l) in row.iter().enumerate() {
                assert_eq!(l, if i == j { 0.0 } else { 0.05 });
            }
        }
        // A 2x2 matrix tiled to 4 parties repeats by site index mod 2.
        let m = LatencyModel::Matrix(vec![vec![0.0, 0.1], vec![0.2, 0.0]]).one_way_matrix(4);
        assert_eq!(m.len(), 4);
        assert_eq!(m[0][1], 0.1);
        assert_eq!(m[2][3], 0.1);
        assert_eq!(m[1][0], 0.2);
        assert_eq!(m[3][2], 0.2);
        assert_eq!(m[0][2], 0.0, "same-site links are intra-site latency");
        // The geo model expands consistently with its own matrix.
        let geo = LatencyModel::geo_distributed(6);
        let expanded = geo.one_way_matrix(6);
        if let LatencyModel::Matrix(inner) = &geo {
            assert_eq!(&expanded, inner);
        }
    }

    #[test]
    fn geo_matrix_is_symmetric_and_slow() {
        let l = LatencyModel::geo_distributed(8);
        let lan = LatencyModel::lan();
        assert!(l.round_latency() > 50.0 * lan.round_latency());
        if let LatencyModel::Matrix(m) = &l {
            #[allow(clippy::needless_range_loop)]
            for i in 0..8 {
                for j in 0..8 {
                    assert!((m[i][j] - m[j][i]).abs() < 1e-12);
                }
            }
        } else {
            panic!("expected matrix");
        }
    }

    #[test]
    fn elapsed_scales_with_latency_and_slowdown() {
        let mut m = NetMeter::new(4);
        for _ in 0..100 {
            m.round();
        }
        m.compute(1_000_000);
        let per_mult = 1e-8;
        let lan = m.elapsed_secs(&LatencyModel::lan(), &ComputeModel::uniform(4), per_mult);
        let wan = m.elapsed_secs(
            &LatencyModel::geo_distributed(4),
            &ComputeModel::uniform(4),
            per_mult,
        );
        let slow = m.elapsed_secs(
            &LatencyModel::lan(),
            &ComputeModel::with_slow_parties(4, 1, 7.8),
            per_mult,
        );
        assert!(wan > lan * 5.0, "WAN should dominate: {wan} vs {lan}");
        assert!(
            slow > lan * 1.5,
            "slow party should bottleneck: {slow} vs {lan}"
        );
    }
}
