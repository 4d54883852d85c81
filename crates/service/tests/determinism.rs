//! Serial-equivalence determinism: two analysts submitting interleaved
//! query streams — batch and windowed submissions mixed — from
//! concurrent OS threads produce per-query epochs (whole
//! `StreamReport`s, compared with `==`), audit records, and ledger
//! states identical to a serial replay of the same admission sequence —
//! across thread counts {1, 8} × shard counts {1, 2}. A batch query is
//! the all-at-once epoch: what the catalog executes for it is `==` to
//! `runtime::execute` over the same setup, seed and budget.

use arboretum_dp::budget::PrivacyCost;
use arboretum_par::ParConfig;
use arboretum_runtime::executor::{execute, Deployment, ExecutionConfig, ExecutionReport};
use arboretum_runtime::stream::{ArrivalSchedule, StreamReport};
use arboretum_service::{
    serve_connection, AuditRecord, CatalogConfig, QueryId, ServiceConfig, ServiceError,
    ServiceHandle, SessionCatalog,
};

use std::collections::BTreeMap;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 2] = [1, 8];
const SHARD_COUNTS: [usize; 2] = [1, 2];

const Q_TOP1: &str = "aggr = sum(db);\nr = em(aggr, 1.0);\noutput(r);";
const Q_TOP1_TIGHT: &str = "aggr = sum(db);\nr = em(aggr, 0.5);\noutput(r);";

/// One submission: the program and, for a streamed one, its windows.
type Submission = (&'static str, Option<usize>);

fn submit(handle: &ServiceHandle, analyst: &str, (src, windows): Submission) -> QueryId {
    match windows {
        None => handle.submit(analyst, src),
        Some(w) => handle.submit_stream(analyst, src, w),
    }
    .unwrap()
}

fn deployment() -> Deployment {
    let assignments: Vec<usize> = (0..30).map(|i| i % 3).collect();
    Deployment::one_hot(&assignments, 3)
}

fn service(workers: usize, threads: usize, shards: usize) -> ServiceHandle {
    let mut catalog = CatalogConfig::default();
    catalog.base.par = ParConfig::fixed(threads).with_shards(shards);
    ServiceHandle::start(
        deployment(),
        ServiceConfig {
            catalog,
            workers,
            pool_capacity: 2,
        },
    )
    .unwrap()
}

fn open_analysts(handle: &ServiceHandle) {
    handle
        .open_session("alice", PrivacyCost::pure(6.0))
        .unwrap();
    handle.open_session("bob", PrivacyCost::pure(6.0)).unwrap();
}

/// Writes the recorded admission interleaving to a reproduction
/// artifact (`SERVICE_ARTIFACT_DIR`, default `target/service-failures`)
/// and panics. CI uploads the directory when this job fails, so a racy
/// divergence is replayable from the artifact alone.
fn fail_with_interleaving(threads: usize, shards: usize, audit: &[AuditRecord], msg: &str) -> ! {
    let dir =
        std::env::var("SERVICE_ARTIFACT_DIR").unwrap_or_else(|_| "target/service-failures".into());
    let path = std::path::PathBuf::from(&dir).join(format!("threads{threads}-shards{shards}.txt"));
    let mut body = format!(
        "serial-equivalence divergence at threads={threads} shards={shards}\n{msg}\n\n\
         recorded admission interleaving (replay serially in this order):\n"
    );
    for r in audit {
        body.push_str(&format!(
            "  index={} analyst={} seq={} query_id={:?}\n",
            r.index, r.analyst, r.seq, r.query_id
        ));
    }
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(&path, &body);
        panic!("{msg}\nartifact: {}", path.display());
    }
    panic!("{msg}");
}

/// Runs alice's and bob's streams from two OS threads against a
/// concurrent service, then replays the recorded admission sequence on
/// a zero-worker (serial) service and compares everything bitwise.
fn assert_serial_equivalence(threads: usize, shards: usize) {
    let streams: [(&str, Vec<Submission>); 2] = [
        (
            "alice",
            vec![(Q_TOP1, None), (Q_TOP1_TIGHT, Some(3)), (Q_TOP1, None)],
        ),
        (
            "bob",
            vec![(Q_TOP1, Some(2)), (Q_TOP1, None), (Q_TOP1_TIGHT, Some(1))],
        ),
    ];

    // --- Concurrent run: one submitting thread per analyst. ---
    let concurrent = Arc::new(service(2, threads, shards));
    open_analysts(&concurrent);
    let submitters: Vec<_> = streams
        .iter()
        .map(|(analyst, sources)| {
            let handle = Arc::clone(&concurrent);
            let analyst = analyst.to_string();
            let sources = sources.clone();
            std::thread::spawn(move || {
                sources
                    .into_iter()
                    .map(|submission| submit(&handle, &analyst, submission))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for submitter in submitters {
        submitter.join().unwrap();
    }
    let audit = concurrent.audit_log();
    assert_eq!(audit.len(), 6, "all six submissions admitted");
    // Per-query results keyed by the interleaving-stable identity.
    let mut concurrent_results: BTreeMap<(String, u64), StreamReport> = BTreeMap::new();
    for record in &audit {
        let epoch = concurrent
            .wait_stream(record.query_id.expect("admitted"))
            .unwrap();
        assert!(
            epoch.report.setup.is_zero(),
            "service queries must amortize setup"
        );
        concurrent_results.insert((record.analyst.clone(), record.seq), epoch);
    }
    let concurrent_ledgers = (
        concurrent.ledger("alice").unwrap(),
        concurrent.ledger("bob").unwrap(),
        concurrent.deployment_ledger(),
    );

    // --- Serial replay: same admission sequence, zero workers. ---
    let serial = service(0, threads, shards);
    open_analysts(&serial);
    let source_of = |record: &AuditRecord| {
        let (_, sources) = streams
            .iter()
            .find(|(analyst, _)| *analyst == record.analyst)
            .unwrap();
        sources[record.seq as usize]
    };
    for record in &audit {
        let id = submit(&serial, &record.analyst, source_of(record));
        let report = serial.wait_stream(id).unwrap();
        assert_eq!(
            report.checkpoints.len(),
            source_of(record).1.unwrap_or(1),
            "one checkpoint per window, one window per batch query"
        );
        let concurrent_report = &concurrent_results[&(record.analyst.clone(), record.seq)];
        if *concurrent_report != report {
            fail_with_interleaving(
                threads,
                shards,
                &audit,
                &format!(
                    "query ({}, {}) diverged from serial replay:\n  concurrent {concurrent_report:#?}\n  serial     {report:#?}",
                    record.analyst, record.seq
                ),
            );
        }
    }
    if serial.audit_log() != audit {
        fail_with_interleaving(threads, shards, &audit, "audit records diverged");
    }
    let serial_ledgers = (
        serial.ledger("alice").unwrap(),
        serial.ledger("bob").unwrap(),
        serial.deployment_ledger(),
    );
    if serial_ledgers != concurrent_ledgers {
        fail_with_interleaving(threads, shards, &audit, "ledgers diverged");
    }
    assert_eq!(serial.plan_cache_stats(), concurrent.plan_cache_stats());
}

#[test]
fn interleaved_streams_match_serial_replay_across_pool_shapes() {
    let mut baseline: Option<BTreeMap<(String, u64), StreamReport>> = None;
    for threads in THREAD_COUNTS {
        for shards in SHARD_COUNTS {
            assert_serial_equivalence(threads, shards);
            // Reports are additionally invariant across the pool-shape
            // matrix itself: collect one serial run per shape and
            // compare against the first.
            let handle = service(0, threads, shards);
            open_analysts(&handle);
            let mut reports = BTreeMap::new();
            for (analyst, seq, submission) in [
                ("alice", 0, (Q_TOP1, None)),
                ("bob", 0, (Q_TOP1_TIGHT, Some(3))),
                ("alice", 1, (Q_TOP1, Some(1))),
            ] {
                let id = submit(&handle, analyst, submission);
                reports.insert(
                    (analyst.to_string(), seq as u64),
                    handle.wait_stream(id).unwrap(),
                );
            }
            match &baseline {
                None => baseline = Some(reports),
                Some(b) => assert_eq!(
                    b, &reports,
                    "threads={threads} shards={shards}: reports depend on pool shape"
                ),
            }
        }
    }
}

#[test]
fn queries_are_invariant_to_the_other_analysts_traffic() {
    // Alice alone vs. alice interleaved with bob: her reports must be
    // bitwise identical — another tenant's traffic is unobservable in
    // her results (only in the shared deployment ledger).
    let solo = service(0, 1, 1);
    solo.open_session("alice", PrivacyCost::pure(6.0)).unwrap();
    let solo_reports: Vec<ExecutionReport> = [Q_TOP1, Q_TOP1_TIGHT]
        .iter()
        .map(|src| solo.run("alice", src).unwrap())
        .collect();

    let shared = service(0, 1, 1);
    open_analysts(&shared);
    shared.run("bob", Q_TOP1).unwrap();
    let a0 = shared.run("alice", Q_TOP1).unwrap();
    shared.run("bob", Q_TOP1_TIGHT).unwrap();
    let a1 = shared.run("alice", Q_TOP1_TIGHT).unwrap();
    assert_eq!(solo_reports, vec![a0, a1]);
}

/// The four query shapes the benchmark's `service_mix` cycles.
const SERVICE_MIX: [&str; 4] = [
    "aggr = sum(db);\nresult = em(aggr, 8.0);\noutput(result);\n",
    "aggr = sum(db);\nnoised = laplace(aggr, 1, 8.0);\noutput(noised);\n",
    "aggr = sum(db);\nrg = emGap(aggr, 8.0);\nwinner = rg[0];\nmargin = rg[1];\n\
     output(winner);\noutput(margin);\n",
    "aggr = sum(db);\ntop = emTopK(aggr, 3, 8.0);\nfor i = 0 to 2 do\noutput(top[i]);\nendfor\n",
];

#[test]
fn a_batch_query_is_the_all_at_once_epoch() {
    let config = CatalogConfig {
        deployment_budget: PrivacyCost::pure(1e6),
        ..CatalogConfig::default()
    };
    let mut catalog = SessionCatalog::new(deployment(), config).unwrap();
    catalog
        .open_analyst("alice", PrivacyCost::pure(1e6))
        .unwrap();
    for (seq, source) in SERVICE_MIX.into_iter().enumerate() {
        let seq = seq as u64;
        let prepared = catalog.prepare(source).unwrap();
        let before = catalog.book().analyst("alice").unwrap().remaining();
        catalog
            .admit("alice", prepared.logical.certificate.cost)
            .unwrap();
        let epoch = catalog
            .execute(&prepared, "alice", seq, before, None, None)
            .unwrap();
        let cfg = ExecutionConfig {
            seed: catalog.query_seed("alice", seq),
            budget: before,
            ..catalog.config().base.clone()
        };
        let (report, detections) = execute(
            &prepared.plan,
            &prepared.logical,
            catalog.deployment(),
            &cfg,
            Some(catalog.setup()),
            None,
            None,
        )
        .unwrap();
        assert_eq!(epoch.report, report, "shape {seq}");
        assert_eq!(epoch.detections, detections, "shape {seq}");
        assert_eq!(epoch.checkpoints.len(), 1, "shape {seq}");
        assert_eq!(epoch.checkpoints[0].accepted, 30, "shape {seq}");
    }
}

#[test]
fn close_reports_one_window_for_a_batch_query_and_churn_for_a_streamed_one() {
    let handle = service(0, 1, 1);
    let script = format!(
        "OPEN alice 5.0 1e-6\nSUBMIT alice {q}\nCLOSE 0\nINGEST alice 1 {q}\nCLOSE 1\n",
        q = Q_TOP1.replace('\n', " ")
    );
    let mut out = Vec::new();
    serve_connection(&handle, script.as_bytes(), &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5, "{out}");
    // SUBMIT: every (honest) device arrives in the one window.
    assert!(
        lines[2].starts_with("OK id=0 ") && lines[2].ends_with(" windows=1 accepted=30 rejected=0"),
        "{}",
        lines[2]
    );
    // INGEST … 1: one window too, but of the seed-derived churn
    // schedule, so only its survivors upload.
    let catalog = SessionCatalog::new(deployment(), CatalogConfig::default()).unwrap();
    let survivors = ArrivalSchedule::derive(catalog.query_seed("alice", 1), 30, 1)
        .survivors()
        .len();
    assert!(survivors < 30, "want a schedule that churns");
    assert!(
        lines[4].starts_with("OK id=1 ")
            && lines[4].ends_with(&format!(" windows=1 accepted={survivors} rejected=0")),
        "{}",
        lines[4]
    );
}

#[test]
fn a_refused_window_count_leaves_the_admission_sequence_untouched() {
    let handle = service(0, 1, 1);
    open_analysts(&handle);
    let first = handle.submit("alice", Q_TOP1).unwrap();
    let before = (
        handle.audit_log(),
        handle.ledger("alice").unwrap(),
        handle.deployment_ledger(),
    );
    assert_eq!(
        handle.submit_stream("alice", Q_TOP1, 4_000_000_000_000),
        Err(ServiceError::TooManyWindows {
            windows: 4_000_000_000_000,
            devices: 30
        })
    );
    let after = (
        handle.audit_log(),
        handle.ledger("alice").unwrap(),
        handle.deployment_ledger(),
    );
    assert_eq!(after, before);
    // No id was consumed, and the analyst's next seed did not shift.
    let next = handle.submit("alice", Q_TOP1_TIGHT).unwrap();
    assert_eq!(next.0, first.0 + 1);
    assert_eq!(handle.audit_log().last().unwrap().seq, 1);
}
