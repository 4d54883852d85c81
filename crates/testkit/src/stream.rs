//! Mid-stream adversary battery for windowed ingestion.
//!
//! The batch harness ([`crate::harness`]) proves "a malicious X is
//! detected by check Y" for one-shot executions. Streaming adds two
//! behaviors that only exist mid-epoch: a device tampering with its
//! upload in one specific ingestion window, and a committee seat
//! crashing *during* a VSR handoff at a window boundary. This module
//! turns both into the same kind of executable experiment:
//!
//! * a [`StreamAttackSchedule`] — a pure function of
//!   `(seed, n_devices, windows)` — picks one arriving device, the
//!   window it tampers in, the behavior it tampers with, and (when the
//!   epoch has a boundary) one committee seat that crashes at one
//!   boundary;
//! * [`run_stream_attack`] drives the full windowed epoch under that
//!   schedule plus two honest runs — the same schedule with everyone
//!   honest, and a *reference* stream over the surviving set (the same
//!   partition with the tampered device removed);
//! * the cross-checks demand exactly one typed
//!   [`Detection`](arboretum_runtime::Detection) per injected behavior
//!   with window-exact attribution, every honest window's checkpoint
//!   bitwise untouched, and the epoch's outputs/budget/audit bitwise
//!   equal to the reference stream.
//!
//! Any failing run dumps a replayable artifact (see
//! [`dump_stream_failure_artifact`]) and reproduces bitwise with
//! `arboretum attack --stream --seed N`.

use arboretum_crypto::sha256::seed_draw;
use arboretum_dp::budget::PrivacyCost;
use arboretum_net::FabricKind;
use arboretum_par::ParConfig;
use arboretum_runtime::adversary::{
    Adversary, DetectionClass, DetectionKind, DeviceBehavior, HonestAdversary, Subject,
};
use arboretum_runtime::executor::ExecutionConfig;
use arboretum_runtime::setup::build_session_setup;
use arboretum_runtime::stream::{execute_stream, ArrivalSchedule, StreamReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::path::PathBuf;

use crate::harness::{build_query, AttackConfig};
use crate::schedule::{device_catalog, COMMITTEE_SEATS};

/// Configuration of one mid-stream attack run.
#[derive(Clone, Debug)]
pub struct StreamAttackConfig {
    /// Seed deriving the arrival schedule, the attack schedule, and the
    /// execution randomness.
    pub seed: u64,
    /// Uploading devices (must keep the sortition floor of 25).
    pub n_devices: usize,
    /// One-hot categories (ignored for numeric runs).
    pub categories: usize,
    /// Ingestion windows in the epoch.
    pub windows: usize,
    /// Run the numeric (per-field range proof) pipeline instead of the
    /// one-hot pipeline.
    pub numeric: bool,
    /// Thread configuration for the aggregator's parallel phases.
    pub par: ParConfig,
    /// Network fabric for the close-phase MPC engine.
    pub fabric: Option<FabricKind>,
}

impl StreamAttackConfig {
    /// The standard sweep configuration for a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            n_devices: 48,
            categories: 4,
            windows: 4,
            numeric: false,
            par: ParConfig::serial(),
            fabric: None,
        }
    }
}

/// The seed-derived mid-stream attack plan: one device tampers in one
/// window, and (when the epoch has a boundary) one committee seat
/// crashes during one VSR handoff. A pure function of
/// `(seed, n_devices, windows)`, so any run replays bitwise.
#[derive(Clone, Debug)]
pub struct StreamAttackSchedule {
    /// The arrival/churn schedule the epoch runs under.
    pub arrivals: ArrivalSchedule,
    /// The window the tampered upload lands in.
    pub tamper_window: usize,
    /// The tampering device's registry index (guaranteed to arrive in
    /// [`Self::tamper_window`] while alive).
    pub tamper_device: usize,
    /// What the device does to its upload.
    pub tamper_behavior: DeviceBehavior,
    /// `(boundary, member)` of the handoff crash — `None` for
    /// single-window epochs, which have no boundary to crash at.
    pub crash: Option<(usize, usize)>,
}

impl StreamAttackSchedule {
    /// Derives the attack plan. The tamper target is drawn among devices
    /// that actually contribute (arrive while alive), scanning windows
    /// from the drawn one so the pick always lands on a real arrival.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the derived churn schedule leaves no
    /// contributing device to tamper with.
    pub fn derive(seed: u64, n_devices: usize, windows: usize) -> Result<Self, String> {
        let windows = windows.max(1);
        let arrivals = ArrivalSchedule::derive(seed, n_devices, windows);
        let start = (seed_draw(seed, b"stream-tamper-window", 0) % windows as u64) as usize;
        let (tamper_window, candidates) = (0..windows)
            .map(|k| (start + k) % windows)
            .map(|w| (w, arrivals.window(w)))
            .find(|(_, devices)| !devices.is_empty())
            .ok_or_else(|| "derived schedule has no contributing device to tamper".to_string())?;
        let tamper_device = candidates
            [(seed_draw(seed, b"stream-tamper-device", 0) % candidates.len() as u64) as usize];
        let tamper_behavior = device_catalog(seed_draw(seed, b"stream-tamper-behavior", 0));
        // One crashing seat out of m = 5 leaves 4 ≥ t+1 = 3 honest
        // batches, so the crash is always survivable — and always
        // detected.
        let crash = (windows >= 2).then(|| {
            let boundary =
                (seed_draw(seed, b"stream-crash-boundary", 0) % (windows as u64 - 1)) as usize;
            let member =
                (seed_draw(seed, b"stream-crash-member", 0) % COMMITTEE_SEATS as u64) as usize;
            (boundary, member)
        });
        Ok(Self {
            arrivals,
            tamper_window,
            tamper_device,
            tamper_behavior,
            crash,
        })
    }

    /// The arrival partition with the tampered device removed — the
    /// surviving set the reference stream runs over.
    fn reference_partition(&self) -> ArrivalSchedule {
        let mut windows = self.arrivals.windows();
        windows[self.tamper_window].retain(|&d| d != self.tamper_device);
        ArrivalSchedule::from_partition(&windows, self.arrivals.n_devices)
    }

    /// Transcript header for CLI output and failure artifacts.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "stream attack: {} devices over {} windows ({} contribute)\n",
            self.arrivals.n_devices,
            self.arrivals.n_windows,
            self.arrivals.survivors().len(),
        );
        out.push_str(&format!(
            "  device {} tampers in window {} with {:?}\n",
            self.tamper_device, self.tamper_window, self.tamper_behavior
        ));
        match self.crash {
            Some((boundary, member)) => out.push_str(&format!(
                "  committee seat {member} crashes during the handoff at boundary {boundary}\n"
            )),
            None => out.push_str("  single-window epoch: no handoff boundary to crash\n"),
        }
        out
    }
}

impl Adversary for StreamAttackSchedule {
    fn device_behavior(&self, window: usize, device: usize) -> DeviceBehavior {
        if window == self.tamper_window && device == self.tamper_device {
            self.tamper_behavior
        } else {
            DeviceBehavior::Honest
        }
    }

    fn handoff_crash(&self, boundary: usize, member: usize) -> bool {
        self.crash == Some((boundary, member))
    }
}

/// Everything one mid-stream attack run produced, plus every
/// cross-check failure.
#[derive(Clone, Debug)]
pub struct StreamAttackOutcome {
    /// The schedule that drove the run.
    pub schedule: StreamAttackSchedule,
    /// The adversarial epoch (detections included).
    pub adversarial: StreamReport,
    /// The same schedule with every device and seat honest.
    pub honest: StreamReport,
    /// The honest stream over the surviving set (tampered device
    /// removed) — what the adversarial epoch must equal bitwise.
    pub reference: StreamReport,
    /// Every cross-check that failed, human-readable. Empty = pass.
    pub problems: Vec<String>,
}

impl StreamAttackOutcome {
    /// Whether every cross-check passed.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    /// Transcript for CLI output and failure artifacts.
    pub fn summary(&self) -> String {
        let mut out = self.schedule.describe();
        out.push_str(&format!(
            "detections: {} (adversarial), {} (honest), {} (reference)\n",
            self.adversarial.detections.len(),
            self.honest.detections.len(),
            self.reference.detections.len(),
        ));
        out.push_str(&format!(
            "accepted: {} of {} arrivals; outputs {:?}\n",
            self.adversarial.report.accepted_inputs,
            self.adversarial.report.accepted_inputs + self.adversarial.report.rejected_inputs,
            self.adversarial.report.outputs,
        ));
        if self.ok() {
            out.push_str("verdict: PASS\n");
        } else {
            out.push_str("verdict: FAIL\n");
            for p in &self.problems {
                out.push_str(&format!("  problem: {p}\n"));
            }
        }
        out
    }
}

/// Runs one mid-stream attack and cross-checks the outcome.
///
/// # Errors
///
/// Returns `Err` when a pipeline stage fails outright (planning, setup,
/// or a stream execution error) — failed *cross-checks* are reported in
/// [`StreamAttackOutcome::problems`] instead.
pub fn run_stream_attack(cfg: &StreamAttackConfig) -> Result<StreamAttackOutcome, String> {
    let (deployment, lp, plan) = build_query(&AttackConfig {
        n_devices: cfg.n_devices,
        categories: cfg.categories,
        numeric: cfg.numeric,
        par: cfg.par,
        fabric: cfg.fabric,
        ..AttackConfig::new(cfg.seed)
    })?;
    let exec_cfg = ExecutionConfig {
        seed: cfg.seed,
        budget: PrivacyCost {
            epsilon: 100.0,
            delta: 1e-6,
        },
        par: cfg.par,
        fabric: cfg.fabric,
        ..ExecutionConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let setup = build_session_setup(&deployment, exec_cfg.committee_size, cfg.seed, &mut rng)
        .map_err(|e| format!("session setup: {e}"))?;
    let schedule = StreamAttackSchedule::derive(cfg.seed, cfg.n_devices, cfg.windows)?;
    let reference_arrivals = schedule.reference_partition();

    let run = |arrivals: &ArrivalSchedule, adv: &dyn Adversary, tag: &str| {
        execute_stream(
            &plan,
            &lp,
            &deployment,
            &exec_cfg,
            arrivals,
            Some(&setup),
            None,
            Some(adv),
        )
        .map_err(|e| format!("{tag} stream: {e}"))
    };
    let adversarial = run(&schedule.arrivals, &schedule, "adversarial")?;
    let honest = run(&schedule.arrivals, &HonestAdversary, "honest")?;
    let reference = run(&reference_arrivals, &HonestAdversary, "reference")?;

    let problems = cross_check(
        &deployment,
        &setup,
        &schedule,
        &adversarial,
        &honest,
        &reference,
    );
    Ok(StreamAttackOutcome {
        schedule,
        adversarial,
        honest,
        reference,
        problems,
    })
}

/// Every cross-check of the mid-stream battery, in claim order.
fn cross_check(
    deployment: &arboretum_runtime::executor::Deployment,
    setup: &arboretum_runtime::setup::SessionSetup,
    schedule: &StreamAttackSchedule,
    adversarial: &StreamReport,
    honest: &StreamReport,
    reference: &StreamReport,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut push = |cond: bool, msg: String| {
        if !cond {
            problems.push(msg);
        }
    };

    // (1) Exactly one typed detection per injected behavior, attributed
    // to the exact subject in the exact window.
    let expected_class = schedule
        .tamper_behavior
        .expected_class(deployment.schema.one_hot)
        .expect("catalog behaviors are all malicious");
    let device_hits: Vec<_> = adversarial
        .detections
        .iter()
        .filter(|d| d.subject == Subject::Device(schedule.tamper_device))
        .collect();
    push(
        device_hits.len() == 1,
        format!(
            "expected exactly 1 detection for device {}, got {}",
            schedule.tamper_device,
            device_hits.len()
        ),
    );
    for d in &device_hits {
        push(
            d.window == schedule.tamper_window,
            format!(
                "device detection attributed to window {}, expected {}",
                d.window, schedule.tamper_window
            ),
        );
        push(
            d.kind.class() == expected_class,
            format!(
                "device detection class {:?}, expected {:?}",
                d.kind.class(),
                expected_class
            ),
        );
    }
    let crash_hits: Vec<_> = adversarial
        .detections
        .iter()
        .filter(|d| d.kind.class() == DetectionClass::HandoffDropout)
        .collect();
    match schedule.crash {
        None => push(
            crash_hits.is_empty(),
            format!(
                "no crash injected but {} dropout detections",
                crash_hits.len()
            ),
        ),
        Some((boundary, member)) => {
            push(
                crash_hits.len() == 1,
                format!(
                    "expected exactly 1 dropout detection, got {}",
                    crash_hits.len()
                ),
            );
            let roster = &setup.committees.committees[0];
            for d in &crash_hits {
                push(
                    d.window == boundary,
                    format!(
                        "dropout attributed to window {}, expected boundary {boundary}",
                        d.window
                    ),
                );
                push(
                    d.kind == DetectionKind::HandoffDropout { boundary },
                    format!("dropout kind {:?}, expected boundary {boundary}", d.kind),
                );
                let expected_subject = Subject::CommitteeMember {
                    committee: 0,
                    member,
                    device: roster[member],
                };
                push(
                    d.subject == expected_subject,
                    format!(
                        "dropout subject {:?}, expected {expected_subject:?}",
                        d.subject
                    ),
                );
            }
        }
    }
    push(
        adversarial.detections.len() == device_hits.len() + crash_hits.len(),
        format!(
            "{} detections beyond the injected behaviors (false positives)",
            adversarial.detections.len() - device_hits.len() - crash_hits.len()
        ),
    );
    push(
        honest.detections.is_empty(),
        format!("honest run raised {} detections", honest.detections.len()),
    );
    push(
        reference.detections.is_empty(),
        format!(
            "reference run raised {} detections",
            reference.detections.len()
        ),
    );

    // (2) The adversarial epoch equals the reference stream (tampered
    // device excluded) bitwise: outputs, budget, audit, metrics, and
    // the accumulator at every checkpoint — the rejected upload never
    // touches the fold. Field by field, not `==`: `rejected_inputs`,
    // `verify_ops` (the tampered upload is verified, then rejected) and
    // the crash boundary's handoff rows legitimately differ.
    push(
        adversarial.report.outputs == reference.report.outputs,
        format!(
            "outputs {:?} != reference {:?}",
            adversarial.report.outputs, reference.report.outputs
        ),
    );
    push(
        adversarial.report.budget_after.epsilon.to_bits()
            == reference.report.budget_after.epsilon.to_bits(),
        "budget after differs from reference".to_string(),
    );
    push(
        adversarial.report.audit_ok && reference.report.audit_ok,
        "audit failed on an honest log".to_string(),
    );
    push(
        adversarial.report.mpc_metrics == reference.report.mpc_metrics,
        "MPC metrics differ from reference".to_string(),
    );
    push(
        adversarial.report.accepted_inputs == reference.report.accepted_inputs,
        format!(
            "accepted {} != reference {}",
            adversarial.report.accepted_inputs, reference.report.accepted_inputs
        ),
    );
    push(
        adversarial.report.rejected_inputs == reference.report.rejected_inputs + 1,
        format!(
            "rejected {} != reference {} + 1",
            adversarial.report.rejected_inputs, reference.report.rejected_inputs
        ),
    );
    push(
        adversarial.report.certificate.body() == reference.report.certificate.body(),
        "certificate body differs from reference".to_string(),
    );
    for (a, r) in adversarial.checkpoints.iter().zip(&reference.checkpoints) {
        push(
            a.accumulator_digest == r.accumulator_digest,
            format!("window {} accumulator differs from reference", a.window),
        );
    }

    // (3) Honest windows' checkpoints are bitwise untouched: before the
    // tamper window the accumulator chain matches the fully honest run,
    // and before the crash boundary so does the handoff chain (the
    // device tamper cannot perturb key handoffs at all).
    for (a, h) in adversarial
        .checkpoints
        .iter()
        .zip(&honest.checkpoints)
        .take(schedule.tamper_window)
    {
        push(
            a.accumulator_digest == h.accumulator_digest,
            format!(
                "pre-tamper window {} accumulator not bitwise untouched",
                a.window
            ),
        );
    }
    let crash_boundary = schedule
        .crash
        .map_or(schedule.arrivals.n_windows, |(b, _)| b);
    for (a, h) in adversarial.checkpoints.iter().zip(&honest.checkpoints) {
        if a.window < crash_boundary {
            push(
                a.handoff_digest == h.handoff_digest,
                format!(
                    "pre-crash boundary {} handoff not bitwise untouched",
                    a.window
                ),
            );
        }
    }
    problems
}

/// Writes a failure artifact for a non-passing outcome and returns its
/// path. The directory comes from `ADVERSARY_ARTIFACT_DIR`, defaulting
/// to `target/adversary-failures`; the artifact leads with the exact
/// reproduce command (the whole run is a pure function of the seed).
///
/// # Errors
///
/// Returns the underlying I/O error if the artifact cannot be written.
pub fn dump_stream_failure_artifact(
    cfg: &StreamAttackConfig,
    outcome: &StreamAttackOutcome,
) -> std::io::Result<PathBuf> {
    let dir = std::env::var("ADVERSARY_ARTIFACT_DIR")
        .unwrap_or_else(|_| "target/adversary-failures".into());
    std::fs::create_dir_all(&dir)?;
    let path = PathBuf::from(dir).join(format!("stream-seed-{}.txt", cfg.seed));
    let mut body = format!(
        "reproduce: cargo run --release --bin arboretum -- attack --stream --seed {} --windows {}{}\n\n",
        cfg.seed,
        cfg.windows,
        if cfg.numeric { " --numeric" } else { "" },
    );
    body.push_str(&outcome.summary());
    body.push_str("\ntyped detections (window-exact attribution):\n");
    for d in &outcome.adversarial.detections {
        body.push_str(&format!(
            "  window {} | {:?}: {:?}\n",
            d.window, d.subject, d.kind
        ));
    }
    body.push_str("\nper-window checkpoints (adversarial vs reference):\n");
    for (a, r) in outcome
        .adversarial
        .checkpoints
        .iter()
        .zip(&outcome.reference.checkpoints)
    {
        body.push_str(&format!(
            "  window {}: accepted {}/{} | accumulator {} vs {}\n",
            a.window,
            a.accepted,
            a.arrivals,
            a.accumulator_digest.as_ref().map_or("-".into(), hex_prefix),
            r.accumulator_digest.as_ref().map_or("-".into(), hex_prefix),
        ));
    }
    std::fs::write(&path, body)?;
    Ok(path)
}

/// First 8 bytes of a digest as lowercase hex, for compact transcripts.
fn hex_prefix(digest: &[u8; 32]) -> String {
    digest[..8].iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_stream_attack_passes_all_cross_checks() {
        let outcome = run_stream_attack(&StreamAttackConfig::new(3)).expect("stream attack failed");
        assert!(outcome.ok(), "problems:\n{}", outcome.summary());
        // Both mid-stream behaviors fired: the tamper and the crash.
        assert_eq!(outcome.adversarial.detections.len(), 2);
    }

    #[test]
    fn smoke_numeric_stream_attack_passes() {
        let cfg = StreamAttackConfig {
            numeric: true,
            windows: 3,
            ..StreamAttackConfig::new(7)
        };
        let outcome = run_stream_attack(&cfg).expect("stream attack failed");
        assert!(outcome.ok(), "problems:\n{}", outcome.summary());
    }

    #[test]
    fn single_window_epoch_has_no_crash_and_one_detection() {
        let cfg = StreamAttackConfig {
            windows: 1,
            ..StreamAttackConfig::new(11)
        };
        let outcome = run_stream_attack(&cfg).expect("stream attack failed");
        assert!(outcome.ok(), "problems:\n{}", outcome.summary());
        assert!(outcome.schedule.crash.is_none());
        assert_eq!(outcome.adversarial.detections.len(), 1);
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = StreamAttackSchedule::derive(42, 48, 4).unwrap();
        let b = StreamAttackSchedule::derive(42, 48, 4).unwrap();
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.tamper_window, b.tamper_window);
        assert_eq!(a.tamper_device, b.tamper_device);
        assert_eq!(a.tamper_behavior, b.tamper_behavior);
        assert_eq!(a.crash, b.crash);
    }
}
