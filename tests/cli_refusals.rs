//! Deployments, epochs and thread counts the CLI cannot run are refused
//! with exit code 1 and one line on stderr — never a panic (exit 101),
//! an abort (exit 134) or a hang — and a removed option is a usage error
//! (exit 2).

use std::process::Command;

/// Runs the `arboretum` binary, returning its exit code and stderr.
fn arboretum(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_arboretum"))
        .args(args)
        .output()
        .expect("the arboretum binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

/// Writes a one-line `em` query to `name` and returns its path (one
/// file per test, since tests run in parallel).
fn query_file(name: &str) -> String {
    let query = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&query, "aggr = sum(db);\nr = em(aggr, 8.0);\noutput(r);\n").unwrap();
    query.to_str().unwrap().to_owned()
}

#[test]
fn undersized_and_empty_deployments_exit_1_with_one_line() {
    let query = query_file("refusal.arb");
    let query = query.as_str();
    for (args, says) in [
        (
            vec!["run", query, "--categories", "2", "--counts", "3,3"],
            "cannot seat",
        ),
        (
            vec!["run", query, "--categories", "2", "--counts", "0,0"],
            "at least one device",
        ),
        (vec!["serve", "--devices", "10"], "cannot seat"),
        (vec!["attack", "--devices", "10"], "cannot seat"),
        (vec!["attack", "--devices", "0"], "at least one device"),
        (
            vec!["attack", "--committees", "0"],
            "at least one committee",
        ),
        (vec!["attack", "--windows", "0"], "at least one window"),
        // Oversized deployments: refused before the 10¹¹ device
        // assignments (or 10¹¹ committees' seats) are allocated.
        (
            vec![
                "run",
                query,
                "--categories",
                "2",
                "--counts",
                "100000000000,1",
            ],
            "more devices than the 1048576 --participants",
        ),
        (
            vec![
                "run",
                query,
                "--categories",
                "2",
                "--counts",
                "18446744073709551615,1",
            ],
            "more devices than the 1048576 --participants",
        ),
        (
            vec!["attack", "--seed", "0", "--committees", "100000000000"],
            "registry of 48 devices cannot seat 100000000000 committees of 5",
        ),
        // Deployments past the CLI's 2^20-device maximum: refused before
        // their rows, registry and device assignments are built.
        (
            vec!["attack", "--devices", "100000000000"],
            "--devices 100000000000 exceeds the maximum of 1048576",
        ),
        (
            vec!["attack", "--devices", "1048577"],
            "--devices 1048577 exceeds the maximum of 1048576",
        ),
        (
            vec!["serve", "--devices", "100000000000"],
            "--devices 100000000000 exceeds the maximum of 1048576",
        ),
        (
            vec![
                "run",
                query,
                "--participants",
                "4194304",
                "--categories",
                "2",
                "--counts",
                "2097152,1",
            ],
            "--counts total 2097153 exceeds the maximum of 1048576",
        ),
        // More windows than devices: refused at open, where walking
        // 4·10¹² mostly empty windows used to hold the process.
        (
            vec![
                "run",
                query,
                "--categories",
                "4",
                "--counts",
                "12,12,12,12",
                "--windows",
                "4000000000000",
            ],
            "4000000000000 windows exceed the deployment's 48 devices",
        ),
        (
            vec![
                "attack",
                "--seed",
                "0",
                "--no-net",
                "--windows",
                "4000000000000",
            ],
            "4000000000000 windows exceed the deployment's 48 devices",
        ),
    ] {
        let (code, stderr) = arboretum(&args);
        assert_eq!(code, Some(1), "{args:?}: stderr {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr}");
        assert!(stderr.contains(says), "{args:?}: stderr {stderr}");
    }
}

/// A removed option exits 2 with one line naming it (`named`), then one
/// usage line.
fn assert_removed_option(args: &[&str], named: &str) {
    let (code, stderr) = arboretum(args);
    assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
    assert_eq!(
        stderr.lines().next(),
        Some(named),
        "{args:?}: stderr {stderr}"
    );
    let usage_lines = stderr.lines().filter(|l| l.starts_with("usage:")).count();
    assert_eq!(usage_lines, 1, "{args:?}: stderr {stderr}");
}

fn assert_removed_attack_option(option: &str) {
    assert_removed_option(
        &["attack", option],
        &format!("unknown attack option {option:?}"),
    );
}

#[test]
fn the_removed_stream_option_is_a_usage_error() {
    assert_removed_attack_option("--stream");
}

#[test]
fn the_removed_adaptive_option_is_a_usage_error() {
    assert_removed_attack_option("--adaptive");
}

#[test]
fn the_removed_fabric_option_is_a_usage_error() {
    assert_removed_attack_option("--fabric");
    let query = query_file("removed-fabric.arb");
    assert_removed_option(
        &["run", &query, "--fabric", "evented"],
        "unknown option \"--fabric\"",
    );
    assert_removed_option(
        &["serve", "--fabric", "evented"],
        "unknown serve option \"--fabric\"",
    );
}

#[test]
fn the_removed_shards_option_is_a_usage_error() {
    assert_removed_attack_option("--shards");
    let query = query_file("removed-shards.arb");
    assert_removed_option(
        &["run", &query, "--shards", "2"],
        "unknown option \"--shards\"",
    );
}

#[test]
fn thread_and_pool_counts_above_the_maximum_exit_1_with_one_line() {
    // Every thread (or pool of threads) is spawned up front, so an
    // unbounded count aborts allocating (exit 134) or panics spawning
    // (exit 101) before any work starts.
    let query = query_file("max-threads.arb");
    let query = query.as_str();
    for (args, says) in [
        (
            vec!["run", query, "--threads", "100000000000"],
            "--threads 100000000000 exceeds the maximum of 1024",
        ),
        (
            vec!["run", query, "--threads", "1025"],
            "--threads 1025 exceeds the maximum of 1024",
        ),
        (
            vec!["attack", "--seed", "0", "--threads", "100000000000"],
            "--threads 100000000000 exceeds the maximum of 1024",
        ),
        (
            vec!["serve", "--workers", "100000000000"],
            "--workers 100000000000 exceeds the maximum of 1024",
        ),
        (
            vec!["serve", "--pool-capacity", "100000000000"],
            "--pool-capacity 100000000000 exceeds the maximum of 1024",
        ),
        (
            vec!["serve", "--pool-capacity", "100000"],
            "--pool-capacity 100000 exceeds the maximum of 1024",
        ),
    ] {
        let (code, stderr) = arboretum(&args);
        assert_eq!(code, Some(1), "{args:?}: stderr {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr}");
        assert!(stderr.contains(says), "{args:?}: stderr {stderr}");
    }
}
