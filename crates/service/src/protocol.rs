//! The std-only line protocol behind `arboretum serve`.
//!
//! One request per line, one response per line; responses start with
//! `OK` or `ERR`. The query language is semicolon-separated, so a
//! whole program fits on the `SUBMIT` line after the analyst name.
//!
//! ```text
//! OPEN <analyst> <epsilon> <delta>      open an analyst session
//! SUBMIT <analyst> <program...>         admit a query, reply OK id=<n>
//! WAIT <id>                             block for a result
//! RUN <analyst> <program...>            SUBMIT + WAIT in one round trip
//! INGEST <analyst> <windows> <program>  admit a windowed streaming
//!                                       query, reply OK id=<n> windows=<w>
//! CLOSE <id>                            block for a streamed result
//!                                       (report + per-window fields)
//! STATUS                                service counters
//! QUIT                                  close the connection
//! ```

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
    report_line(handle, QueryId(id))
}

fn run(handle: &ServiceHandle, rest: &str) -> String {
    let Some((analyst, source)) = rest.split_once(char::is_whitespace) else {
        return "ERR usage: RUN <analyst> <program>".to_string();
    };
    match handle.submit(analyst, source.trim()) {
        Ok(id) => report_line(handle, id),
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
    let id = QueryId(id);
    match handle.wait(id) {
        Ok(report) => match handle.stream_summary(id) {
            Some(s) => format!(
                "OK id={} outputs={:?} budget_epsilon={} setup_amortized={} windows={} accepted={} rejected={}",
                id.0,
                report.outputs,
                report.budget_after.epsilon,
                report.setup.is_zero(),
                s.windows,
                s.accepted,
                s.rejected,
            ),
            None => format!("ERR query id {} is not a streaming session", id.0),
        },
        Err(e) => format!("ERR {e}"),
    }
}

fn report_line(handle: &ServiceHandle, id: QueryId) -> String {
    match handle.wait(id) {
        Ok(report) => format!(
            "OK id={} outputs={:?} budget_epsilon={} setup_amortized={}",
            id.0,
            report.outputs,
            report.budget_after.epsilon,
            report.setup.is_zero(),
        ),
        Err(e) => format!("ERR {e}"),
    }
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
        let mut out = Vec::new();
        serve_connection(&handle, script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6, "one response per request: {out}");
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
        let mut out = Vec::new();
        serve_connection(&handle, script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 7, "one response per request: {out}");
        assert!(lines[0].starts_with("OK opened alice"));
        assert_eq!(lines[1], "OK id=0 windows=3");
        assert!(lines[2].starts_with("OK id=0 outputs="), "{}", lines[2]);
        assert!(lines[2].contains("setup_amortized=true"), "{}", lines[2]);
        assert!(lines[2].contains("windows=3"), "{}", lines[2]);
        assert_eq!(lines[3], "OK id=1");
        assert_eq!(lines[4], "ERR query id 1 is not a streaming session");
        assert_eq!(lines[5], "ERR windows must be a positive integer");
        assert_eq!(lines[6], "OK bye");
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
        let mut out = Vec::new();
        serve_connection(&handle, script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
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
        let mut out = Vec::new();
        serve_connection(&handle, script.as_bytes(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "one response per request: {out}");
        assert!(lines[1].starts_with("ERR"), "{}", lines[1]);
        assert!(lines[1].contains("nesting deeper"), "{}", lines[1]);
        assert!(lines[2].starts_with("OK queries="), "{}", lines[2]);
        assert!(lines[3].starts_with("OK id="), "{}", lines[3]);
        assert_eq!(lines[4], "OK bye");
    }
}
