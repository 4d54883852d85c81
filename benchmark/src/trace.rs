//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; spans inside the program are a later change
//! (ROADMAP item 1's `runtime::trace`). They stay in memory and are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.phase`, e.g. `zkp.prove`.
    pub name: &'static str,
    /// The op (query) this span belongs to.
    pub op: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall seconds between start and end.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children. Returns `f`'s result and the span's wall seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, self.spans[id].seconds())
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: total self time in seconds — the span's duration
    /// minus what its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, secs) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += secs;
        }
        by_name
    }

    /// The spans as one JSON document, a span a line. `workload` and
    /// the span names are plain identifiers, so nothing needs escaping.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.op,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", 1, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let own = t.self_seconds();
        let children: f64 = spans[1].seconds() + spans[2].seconds();
        assert!((own["outer"] - (spans[0].seconds() - children)).abs() < 1e-12);
        assert!(own["inner"] >= 0.005);
        let doc = t.to_json("w", 3);
        assert!(doc.starts_with("{\"workload\": \"w\", \"seed\": 3, \"spans\": [\n{\"id\": 0, "));
        assert!(doc.contains(",\n{\"id\": 2, \"name\": \"inner\", \"op\": 1, \"parent\": 0, "));
        assert!(doc.ends_with("}\n]}\n"));
    }
}
