//! Spans the benchmark records around its own calls into each layer, kept
//! in memory and written out when the run ends.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval of one request. `parent` names the span of the same
/// request that caused this one; `None` for the request's root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub request_id: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log; one per recording thread, merged afterwards.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (shared by every
    /// recorder of one run, so their spans line up).
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn span(
        &mut self,
        request_id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            request_id,
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// A span known only by its duration (reported by the program, not
    /// timed here), placed at the end of its parent's interval.
    pub fn span_ending_at(
        &mut self,
        request_id: u64,
        name: &'static str,
        parent: &'static str,
        end: Instant,
        duration_ns: u64,
    ) {
        let end_ns = self.ns(end);
        self.spans.push(Span {
            request_id,
            name,
            parent: Some(parent),
            start_ns: end_ns.saturating_sub(duration_ns),
            end_ns,
        });
    }
}

/// Self time of every span, grouped by span name: the span's duration
/// minus the part of its interval that its child spans (same request,
/// `parent` = its name) cover. Overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<u64>> {
    let mut children: HashMap<(u64, &'static str), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry((s.request_id, parent))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&(s.request_id, s.name)) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        out.entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns).saturating_sub(covered));
    }
    out
}

/// Write spans as JSON lines: `{request_id, name, parent, start_ns, end_ns}`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        writeln!(
            w,
            "{{\"request_id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.request_id, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        request_id: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            request_id,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = [
            span(1, "request", None, 0, 100),
            span(1, "parse", Some("request"), 10, 20),
            span(1, "exec", Some("request"), 30, 90),
            span(1, "kernel", Some("exec"), 40, 60),
            // overlapping children are covered once; one sticks out past
            // the parent's end and is clipped
            span(2, "request", None, 1000, 1100),
            span(2, "parse", Some("request"), 1010, 1050),
            span(2, "exec", Some("request"), 1040, 1120),
            // another request's children never count
            span(3, "request", None, 0, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], vec![30, 10, 50]);
        assert_eq!(t["parse"], vec![10, 40]);
        assert_eq!(t["exec"], vec![40, 80]);
        assert_eq!(t["kernel"], vec![20]);
    }

    #[test]
    fn recorder_places_reported_durations_at_the_parents_end() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch);
        let end = epoch + std::time::Duration::from_nanos(500);
        r.span(7, "engine", None, epoch, end);
        r.span_ending_at(7, "engine.exec", "engine", end, 200);
        assert_eq!(r.spans[1], span(7, "engine.exec", Some("engine"), 300, 500));
        assert_eq!(self_times(&r.spans)["engine"], vec![300]);
    }
}
