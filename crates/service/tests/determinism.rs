//! Serial-equivalence determinism: two analysts submitting interleaved
//! query streams from concurrent OS threads produce per-query reports
//! (compared whole, with `==`), audit records, and ledger states
//! identical to a serial replay of the same admission sequence — across
//! thread counts {1, 8} × shard counts {1, 2}.

use arboretum_dp::budget::PrivacyCost;
use arboretum_par::ParConfig;
use arboretum_runtime::executor::{Deployment, ExecutionReport};
use arboretum_service::{AuditRecord, CatalogConfig, ServiceConfig, ServiceHandle};

use std::collections::BTreeMap;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 2] = [1, 8];
const SHARD_COUNTS: [usize; 2] = [1, 2];

const Q_TOP1: &str = "aggr = sum(db);\nr = em(aggr, 1.0);\noutput(r);";
const Q_TOP1_TIGHT: &str = "aggr = sum(db);\nr = em(aggr, 0.5);\noutput(r);";

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
    let streams: [(&str, Vec<&str>); 2] = [
        ("alice", vec![Q_TOP1, Q_TOP1_TIGHT, Q_TOP1]),
        ("bob", vec![Q_TOP1, Q_TOP1, Q_TOP1_TIGHT]),
    ];

    // --- Concurrent run: one submitting thread per analyst. ---
    let concurrent = Arc::new(service(2, threads, shards));
    open_analysts(&concurrent);
    let submitters: Vec<_> = streams
        .iter()
        .map(|(analyst, sources)| {
            let handle = Arc::clone(&concurrent);
            let analyst = analyst.to_string();
            let sources: Vec<String> = sources.iter().map(|s| s.to_string()).collect();
            std::thread::spawn(move || {
                sources
                    .iter()
                    .map(|src| handle.submit(&analyst, src).unwrap())
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
    let mut concurrent_results: BTreeMap<(String, u64), ExecutionReport> = BTreeMap::new();
    for record in &audit {
        let report = concurrent.wait(record.query_id.expect("admitted")).unwrap();
        assert!(
            report.setup.is_zero(),
            "service queries must amortize setup"
        );
        concurrent_results.insert((record.analyst.clone(), record.seq), report);
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
        let id = serial.submit(&record.analyst, source_of(record)).unwrap();
        let report = serial.wait(id).unwrap();
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
    let mut baseline: Option<BTreeMap<(String, u64), ExecutionReport>> = None;
    for threads in THREAD_COUNTS {
        for shards in SHARD_COUNTS {
            assert_serial_equivalence(threads, shards);
            // Reports are additionally invariant across the pool-shape
            // matrix itself: collect one serial run per shape and
            // compare against the first.
            let handle = service(0, threads, shards);
            open_analysts(&handle);
            let mut reports = BTreeMap::new();
            for (analyst, seq, src) in [
                ("alice", 0, Q_TOP1),
                ("bob", 0, Q_TOP1_TIGHT),
                ("alice", 1, Q_TOP1),
            ] {
                let id = handle.submit(analyst, src).unwrap();
                reports.insert((analyst.to_string(), seq as u64), handle.wait(id).unwrap());
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
