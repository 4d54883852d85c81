//! The std-only line protocol behind `arboretum serve`.
//!
//! One request per line, one response per line; responses start with
//! `OK` or `ERR`. The query language is semicolon-separated, so a
//! whole program fits on the `SUBMIT` line after the analyst name.
//!
//! ```text
//! OPEN <analyst> <epsilon> <delta>      open an analyst session; the
//!                                       allotment must be finite and
//!                                       non-negative
//! SUBMIT <analyst> <program...>         admit a query, reply OK id=<n>
//! WAIT <id>                             block for a result
//! RUN <analyst> <program...>            SUBMIT + WAIT in one round trip
//! INGEST <analyst> <windows> <program>  admit the query as an epoch of
//!                                       1..=devices ingestion windows,
//!                                       reply OK id=<n> windows=<w>
//! CLOSE <id>                            WAIT plus windows=, accepted=,
//!                                       rejected= summed over the
//!                                       epoch's per-window checkpoints
//! STATUS                                service counters
//! QUIT                                  close the connection
//! ```
//!
//! Every query is one ingestion epoch: `SUBMIT`/`RUN` admit it with all
//! devices arriving at once, `INGEST` with seed-derived arrivals and
//! churn over the given windows. `WAIT` and `CLOSE` therefore take any
//! admitted id; `CLOSE` on a `SUBMIT`ted query reports `windows=1`.

use arboretum_dp::budget::PrivacyCost;

use std::io::{BufRead, Write};

use crate::handle::ServiceHandle;
use crate::session::QueryId;

/// Serves the line protocol over any `BufRead`/`Write` pair until
/// `QUIT` or end of input. Every request produces exactly one
/// response line.
///
/// # Errors
///
/// Returns the first I/O error on the streams; protocol-level errors
/// are reported to the peer as `ERR` lines instead.
pub fn serve_connection<R: BufRead, W: Write>(
    handle: &ServiceHandle,
    input: R,
    mut output: W,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match respond(handle, line) {
            Response::Line(text) => writeln!(output, "{text}")?,
            Response::Quit(text) => {
                writeln!(output, "{text}")?;
                break;
            }
        }
        output.flush()?;
    }
    Ok(())
}

enum Response {
    Line(String),
    Quit(String),
}

fn respond(handle: &ServiceHandle, line: &str) -> Response {
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let text = match verb.to_ascii_uppercase().as_str() {
        "OPEN" => open(handle, rest),
        "SUBMIT" => submit(handle, rest),
        "WAIT" => wait(handle, rest),
        "RUN" => run(handle, rest),
        "INGEST" => ingest(handle, rest),
        "CLOSE" => close(handle, rest),
        "STATUS" => status(handle),
        "QUIT" => return Response::Quit("OK bye".to_string()),
        other => format!("ERR unknown command {other:?}"),
    };
    Response::Line(text)
}

fn open(handle: &ServiceHandle, rest: &str) -> String {
    let mut parts = rest.split_whitespace();
    let (analyst, eps, delta) = match (parts.next(), parts.next(), parts.next()) {
        (Some(a), Some(e), Some(d)) => (a, e, d),
        _ => return "ERR usage: OPEN <analyst> <epsilon> <delta>".to_string(),
    };
    let (Ok(epsilon), Ok(delta)) = (eps.parse::<f64>(), delta.parse::<f64>()) else {
        return "ERR epsilon/delta must be numbers".to_string();
    };
    match handle.open_session(analyst, PrivacyCost { epsilon, delta }) {
        Ok(()) => format!("OK opened {analyst} epsilon={epsilon} delta={delta}"),
        Err(e) => format!("ERR {e}"),
    }
}

fn submit(handle: &ServiceHandle, rest: &str) -> String {
    let Some((analyst, source)) = rest.split_once(char::is_whitespace) else {
        return "ERR usage: SUBMIT <analyst> <program>".to_string();
    };
    match handle.submit(analyst, source.trim()) {
        Ok(id) => format!("OK id={}", id.0),
        Err(e) => format!("ERR {e}"),
    }
}

fn wait(handle: &ServiceHandle, rest: &str) -> String {
    let Ok(id) = rest.trim().parse::<u64>() else {
        return "ERR usage: WAIT <id>".to_string();
    };
    report_line(handle, QueryId(id), false)
}

fn run(handle: &ServiceHandle, rest: &str) -> String {
    let Some((analyst, source)) = rest.split_once(char::is_whitespace) else {
        return "ERR usage: RUN <analyst> <program>".to_string();
    };
    match handle.submit(analyst, source.trim()) {
        Ok(id) => report_line(handle, id, false),
        Err(e) => format!("ERR {e}"),
    }
}

fn ingest(handle: &ServiceHandle, rest: &str) -> String {
    const USAGE: &str = "ERR usage: INGEST <analyst> <windows> <program>";
    let Some((analyst, rest)) = rest.split_once(char::is_whitespace) else {
        return USAGE.to_string();
    };
    let Some((windows, source)) = rest.trim().split_once(char::is_whitespace) else {
        return USAGE.to_string();
    };
    let Ok(windows) = windows.parse::<usize>() else {
        return "ERR windows must be a positive integer".to_string();
    };
    if windows == 0 {
        return "ERR windows must be a positive integer".to_string();
    }
    match handle.submit_stream(analyst, source.trim(), windows) {
        Ok(id) => format!("OK id={} windows={windows}", id.0),
        Err(e) => format!("ERR {e}"),
    }
}

fn close(handle: &ServiceHandle, rest: &str) -> String {
    let Ok(id) = rest.trim().parse::<u64>() else {
        return "ERR usage: CLOSE <id>".to_string();
    };
    report_line(handle, QueryId(id), true)
}

/// The result line of a finished query; `per_window` appends the
/// fields `CLOSE` adds to `WAIT`.
fn report_line(handle: &ServiceHandle, id: QueryId, per_window: bool) -> String {
    let epoch = match handle.wait_stream(id) {
        Ok(epoch) => epoch,
        Err(e) => return format!("ERR {e}"),
    };
    let mut line = format!(
        "OK id={} outputs={:?} budget_epsilon={} setup_amortized={}",
        id.0,
        epoch.report.outputs,
        epoch.report.budget_after.epsilon,
        epoch.report.setup.is_zero(),
    );
    if per_window {
        let windows = &epoch.checkpoints;
        line.push_str(&format!(
            " windows={} accepted={} rejected={}",
            windows.len(),
            windows.iter().map(|c| c.accepted).sum::<usize>(),
            windows.iter().map(|c| c.rejected).sum::<usize>(),
        ));
    }
    line
}

fn status(handle: &ServiceHandle) -> String {
    let (hits, misses) = handle.plan_cache_stats();
    let deployment = handle.deployment_ledger();
    format!(
        "OK queries={} plan_hits={hits} plan_misses={misses} deployment_epsilon_remaining={}",
        handle.queries_admitted(),
        deployment.remaining().epsilon,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::{ServiceConfig, ServiceHandle};
    use arboretum_runtime::executor::Deployment;

    fn service() -> ServiceHandle {
        let assignments: Vec<usize> = (0..30).map(|i| i % 3).collect();
        let deployment = Deployment::one_hot(&assignments, 3);
        ServiceHandle::start(
            deployment,
            ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
    }

    /// Serves `script` and returns the response lines.
    fn converse(handle: &ServiceHandle, script: &str) -> Vec<String> {
        let mut out = Vec::new();
        serve_connection(handle, script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        out.lines().map(str::to_string).collect()
    }

    #[test]
    fn session_round_trip_over_the_wire() {
        let handle = service();
        let script = "\
OPEN alice 5.0 1e-6
SUBMIT alice aggr = sum(db); r = em(aggr, 1.0); output(r);
WAIT 0
RUN alice aggr = sum(db); r = em(aggr, 1.0); output(r);
STATUS
QUIT
ignored after quit
";
        let lines = converse(&handle, script);
        assert_eq!(lines.len(), 6, "one response per request: {lines:?}");
        assert!(lines[0].starts_with("OK opened alice"));
        assert_eq!(lines[1], "OK id=0");
        assert!(lines[2].starts_with("OK id=0 outputs="));
        assert!(lines[2].contains("setup_amortized=true"));
        assert!(lines[3].starts_with("OK id=1 outputs="));
        assert!(lines[4].contains("plan_hits=1 plan_misses=1"));
        assert_eq!(lines[5], "OK bye");
    }

    #[test]
    fn streaming_session_over_the_wire() {
        let handle = service();
        let script = "\
OPEN alice 5.0 1e-6
INGEST alice 3 aggr = sum(db); r = em(aggr, 1.0); output(r);
CLOSE 0
SUBMIT alice aggr = sum(db); r = em(aggr, 1.0); output(r);
CLOSE 1
INGEST alice 0 aggr = sum(db); r = em(aggr, 1.0); output(r);
QUIT
";
        let lines = converse(&handle, script);
        assert_eq!(lines.len(), 7, "one response per request: {lines:?}");
        assert!(lines[0].starts_with("OK opened alice"));
        assert_eq!(lines[1], "OK id=0 windows=3");
        assert!(lines[2].starts_with("OK id=0 outputs="), "{}", lines[2]);
        assert!(lines[2].contains("setup_amortized=true"), "{}", lines[2]);
        assert!(lines[2].contains("windows=3"), "{}", lines[2]);
        assert_eq!(lines[3], "OK id=1");
        // A batch query is the one-window epoch holding every device.
        assert!(
            lines[4].starts_with("OK id=1 outputs=")
                && lines[4].ends_with(" windows=1 accepted=30 rejected=0"),
            "{}",
            lines[4]
        );
        assert_eq!(lines[5], "ERR windows must be a positive integer");
        assert_eq!(lines[6], "OK bye");
    }

    #[test]
    fn non_finite_or_negative_allotments_open_no_session() {
        let handle = service();
        let script = "\
OPEN eve NaN NaN
OPEN eve inf 1e-6
OPEN eve 5.0 -1e-6
OPEN eve -1 1e-6
RUN eve aggr = sum(db); r = em(aggr, 1.0); output(r);
OPEN eve 5.0 1e-6
RUN eve aggr = sum(db); r = em(aggr, 1.0); output(r);
QUIT
";
        let lines = converse(&handle, script);
        assert_eq!(lines.len(), 8, "one response per request: {lines:?}");
        for refused in &lines[..4] {
            assert!(refused.starts_with("ERR budget: allotment"), "{refused}");
        }
        assert!(lines[4].starts_with("ERR no session open"), "{}", lines[4]);
        assert!(lines[5].starts_with("OK opened eve"), "{}", lines[5]);
        assert!(lines[6].starts_with("OK id=0 outputs="), "{}", lines[6]);
        assert!(lines[6].contains("budget_epsilon=4 "), "{}", lines[6]);
        // The four refusals and the session-less RUN admitted nothing.
        assert_eq!(handle.audit_log().len(), 1);
    }

    #[test]
    fn window_count_above_the_deployment_is_refused_at_admission() {
        let handle = service();
        handle
            .open_session("alice", PrivacyCost::pure(5.0))
            .unwrap();
        let before = (
            handle.ledger("alice").unwrap(),
            handle.deployment_ledger(),
            handle.audit_log(),
            handle.plan_cache_stats(),
        );
        // 30 devices: 31 windows is one too many, 4·10¹² would hold a
        // worker for years if it were admitted.
        let script = "\
INGEST alice 4000000000000 aggr = sum(db); r = em(aggr, 1.0); output(r);
INGEST alice 31 aggr = sum(db); r = em(aggr, 1.0); output(r);
";
        let lines = converse(&handle, script);
        assert_eq!(
            lines,
            [
                "ERR 4000000000000 windows exceed the deployment's 30 devices",
                "ERR 31 windows exceed the deployment's 30 devices",
            ]
        );
        let after = (
            handle.ledger("alice").unwrap(),
            handle.deployment_ledger(),
            handle.audit_log(),
            handle.plan_cache_stats(),
        );
        assert_eq!(after, before, "a refused window count moved state");
        assert_eq!(handle.queries_admitted(), 0);
        // The service keeps serving, and the bound itself is admitted.
        let script = "\
RUN alice aggr = sum(db); r = em(aggr, 1.0); output(r);
INGEST alice 30 aggr = sum(db); r = em(aggr, 1.0); output(r);
CLOSE 1
";
        let lines = converse(&handle, script);
        assert!(lines[0].starts_with("OK id=0 outputs="), "{}", lines[0]);
        assert_eq!(lines[1], "OK id=1 windows=30");
        assert!(lines[2].contains(" windows=30 "), "{}", lines[2]);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let handle = service();
        let script = "\
SUBMIT ghost aggr = sum(db); r = em(aggr, 1.0); output(r);
OPEN alice 0.5 1e-6
SUBMIT alice aggr = sum(db); r = em(aggr, 1.0); output(r);
WAIT 99
BOGUS
QUIT
";
        let lines = converse(&handle, script);
        assert!(lines[0].starts_with("ERR no session open"));
        assert!(lines[1].starts_with("OK opened"));
        assert!(lines[2].starts_with("ERR budget:"), "{}", lines[2]);
        assert!(lines[3].starts_with("ERR unknown query id"));
        assert!(lines[4].starts_with("ERR unknown command"));
        assert_eq!(lines[5], "OK bye");
    }

    #[test]
    fn hostile_nesting_is_an_error_line_and_the_service_keeps_serving() {
        let handle = service();
        let deep = format!(
            "x = {}1{}; output(x);",
            "(".repeat(10_000),
            ")".repeat(10_000)
        );
        let script = format!(
            "OPEN alice 5.0 1e-6\n\
             RUN alice {deep}\n\
             STATUS\n\
             RUN alice aggr = sum(db); r = em(aggr, 1.0); output(r);\n\
             QUIT\n"
        );
        let lines = converse(&handle, &script);
        assert_eq!(lines.len(), 5, "one response per request: {lines:?}");
        assert!(lines[1].starts_with("ERR"), "{}", lines[1]);
        assert!(lines[1].contains("nesting deeper"), "{}", lines[1]);
        assert!(lines[2].starts_with("OK queries="), "{}", lines[2]);
        assert!(lines[3].starts_with("OK id="), "{}", lines[3]);
        assert_eq!(lines[4], "OK bye");
    }
}
