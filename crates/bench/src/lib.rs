//! Benchmark harnesses for the paper's evaluation (§7).
//!
//! * [`figures`] — regenerates the data behind every table and figure
//!   (Table 1/2, Figures 6–11) from the planner, cost model, and
//!   baselines; each binary in `src/bin/` prints one of them.
//! * [`energy`] — the Figure 11 battery-energy model.
//! * [`heterogeneity`] — the §7.5 geo-distribution and slow-device
//!   experiments, run concretely on the MPC simulator.
//! * [`parbench`] — serial-vs-parallel baseline for the aggregator's
//!   ⊞ hot path, emitting `BENCH_aggregation.json`.
//! * [`nttbench`] — old-vs-new NTT kernel comparison (division-based
//!   reference against the Shoup/Barrett rewrite), emitting
//!   `BENCH_ntt.json`.
//! * [`sortbench`] — old-vs-new sortition comparison (naive-ladder
//!   serial reference against the fixed-base/Straus + O(n)-selection +
//!   batch-verification rewrite), emitting `BENCH_sortition.json`.
//!
//! Criterion micro-benchmarks of the substrates (the inputs to the cost
//! model calibration) live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod figures;
pub mod heterogeneity;
pub mod netbench;
pub mod nttbench;
pub mod parbench;
pub mod sortbench;
pub mod validation;
