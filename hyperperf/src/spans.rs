//! The benchmark's span recorder. Spans are opened around calls into the
//! program from here; the program's own three spans (`client.call`,
//! `loop.frame`, `exec.job`) are adopted from the `obs` span log and
//! joined to the operation that caused them by trace id.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later ones are counted, not stored.
const CAP: usize = 50_000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name.
    pub name: &'static str,
    /// Trace id shared by every span of one operation.
    pub trace: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, same clock. Adopted spans carry only a duration in whole
    /// microseconds, so they are laid at their parent's start.
    pub end_ns: u64,
}

/// In-memory span store, written out when the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Traces opened since the last adoption, with the stored root's
    /// index (none once the cap is reached: still counted, not stored).
    by_trace: HashMap<u64, Option<usize>>,
    dropped: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            by_trace: HashMap::new(),
            dropped: 0,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a root span for a new trace; returns its handle.
    pub fn open(&mut self, name: &'static str, trace: u64) -> Option<usize> {
        if self.spans.len() >= CAP {
            self.dropped += 1;
            self.by_trace.insert(trace, None);
            return None;
        }
        let id = self.spans.len();
        self.by_trace.insert(trace, Some(id));
        // The clock is read last, so the span covers the call alone.
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            trace,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    /// Close a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: Option<usize>) {
        let now = self.now();
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = now;
        }
    }

    /// Move the program's span log into the recorder, each span under the
    /// root that carries its trace id. Returns the name and the duration
    /// in seconds of every span that joined a trace opened here.
    pub fn adopt_program_spans(&mut self) -> Vec<(&'static str, f64)> {
        let log = obs::registry().spans();
        obs::registry().clear_spans();
        let mut adopted = Vec::with_capacity(log.len());
        for rec in log {
            let Some(&root) = self.by_trace.get(&rec.trace) else {
                continue;
            };
            adopted.push((rec.name, rec.dur_us as f64 / 1e6));
            let Some(root) = root.filter(|_| self.spans.len() < CAP) else {
                self.dropped += 1;
                continue;
            };
            let start_ns = self.spans[root].start_ns;
            self.spans.push(Span {
                name: rec.name,
                trace: rec.trace,
                parent: Some(root),
                start_ns,
                end_ns: start_ns + rec.dur_us * 1000,
            });
        }
        // Roots of finished batches can no longer gain children.
        self.by_trace.clear();
        adopted
    }

    /// Spans stored, and spans counted beyond the cap.
    pub fn counts(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// Write every stored span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        writeln!(out, "{{\"dropped\": {}, \"spans\": [", self.dropped).expect("write to String");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"trace\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.trace, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_spans_join_their_root_by_trace_id() {
        let mut rec = Recorder::default();
        obs::trace::record_spans(true);
        let id = obs::trace::mint();
        let root = {
            let _scope = obs::trace::scope(id);
            let root = rec.open("bench.op", id);
            drop(obs::trace::span("exec.job"));
            rec.close(root);
            root
        };
        let adopted = rec.adopt_program_spans();
        obs::trace::record_spans(false);
        assert!(adopted.iter().any(|&(name, _)| name == "exec.job"));
        assert!(rec
            .spans
            .iter()
            .any(|s| s.parent == root && s.name == "exec.job"));
        let (stored, dropped) = rec.counts();
        assert!(stored >= 2);
        assert_eq!(dropped, 0);
    }
}
