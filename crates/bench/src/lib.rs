//! Benchmark harnesses for the paper's evaluation (§7).
//!
//! * [`figures`] — regenerates the data behind every table and figure
//!   (Table 1/2, Figures 6–11) from the planner, cost model, and
//!   baselines; each binary in `src/bin/` prints one of them.
//! * [`energy`] — the Figure 11 battery-energy model.
//! * [`heterogeneity`] — the §7.5 geo-distribution and slow-device
//!   experiments, run concretely on the MPC simulator.
//! * [`validation`] — concrete MPC metering against the cost model's
//!   prediction for the same circuit.
//!
//! This crate models and extrapolates. Measured time lives in one place:
//! the end-to-end benchmark (`BENCHMARK.json` + `benchmark/`), whose
//! per-layer probes are the micro-costs a calibration would read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod figures;
pub mod heterogeneity;
pub mod validation;
