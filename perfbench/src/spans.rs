//! In-memory span recording for the traced runs.
//!
//! A span is one call into a layer, timed from the benchmark's side of
//! the boundary: name, start, end and the span that was open around it.
//! Calls too frequent to keep one span each (every `on_access` of a replay,
//! every `ingest` of a serve episode) are kept as duration samples instead;
//! their summed duration is charged to the enclosing span as child time,
//! so self time stays "duration minus everything inside it that was timed".

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Summed duration of per-call samples taken inside this span.
    pub sampled_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. Spans nest strictly: `end` closes the innermost
/// open span, and a new span's parent is whichever span is open, or the
/// recorder's root (a span of the thread that started this one).
pub struct Recorder {
    epoch: Instant,
    thread: usize,
    root: Option<u64>,
    next: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (its index in the recorder's log).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Recorder {
    /// A recorder for `thread`; every recorder of one run shares `epoch`
    /// so their timestamps are comparable. `root` parents its top-level
    /// spans.
    pub fn new(epoch: Instant, thread: usize, root: Option<u64>) -> Self {
        Recorder {
            epoch,
            thread,
            root,
            next: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Identifier of a span, for parenting another thread's spans.
    pub fn id(&self, span: Open) -> u64 {
        self.spans[span.0].id
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let parent = self.open.last().map(|&i| self.spans[i].id).or(self.root);
        let id = ((self.thread as u64) << 40) | self.next;
        self.next += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
            sampled_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
        Open(self.spans.len() - 1)
    }

    /// Closes `span`; returns its duration in seconds.
    pub fn end(&mut self, span: Open) -> f64 {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(span.0), "spans must nest");
        self.spans[span.0].end_ns = self.now_ns();
        self.spans[span.0].duration_ns() as f64 / 1e9
    }

    /// Charges `ns` of sampled per-call time to `span`.
    pub fn charge(&mut self, span: Open, ns: u64) {
        self.spans[span.0].sampled_ns += ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// [`Recorder::time`], also returning the span's seconds.
    pub fn time_s<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let s = self.begin(name);
        let out = f();
        (out, self.end(s))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (children on parallel threads overlap, so covered
/// time is the union of their intervals) and minus its sampled per-call
/// time. Parallel to `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered + s.sampled_ns)
        })
        .collect()
}

/// Summed duration (ns) of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Per span name: (spans, summed duration ns, summed self time ns).
pub fn summary(spans: &[Span]) -> std::collections::BTreeMap<&'static str, (u64, u64, u64)> {
    let mut by = std::collections::BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = by.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_ns;
    }
    by
}

/// One line per span name: count, total and self seconds.
pub fn summary_lines(spans: &[Span]) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<16} {:>8} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    )];
    for (name, (n, total, own)) in summary(spans) {
        lines.push(format!(
            "{name:<16} {n:>8} {:>12.6} {:>12.6}",
            total as f64 / 1e9,
            own as f64 / 1e9
        ));
    }
    lines
}

/// Writes the spans as one JSON document: the environment stamp, then one
/// object per span with its self time.
pub fn write_json(
    path: &std::path::Path,
    env: &[(&'static str, String)],
    spans: &[Span],
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let selfs = self_times(spans);
    let mut doc = String::from("{\"env\": {");
    for (i, (k, v)) in env.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(doc, "{sep}\"{k}\": \"{}\"", crate::json_escape(v));
    }
    doc.push_str("},\n\"spans\": [\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            doc,
            "{sep}{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"thread\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"sampled_ns\": {}, \"self_ns\": {self_ns}}}",
            s.name, s.id, s.thread, s.start_ns, s.end_ns, s.sampled_ns
        );
    }
    doc.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_samples() {
        let mut r = Recorder::new(Instant::now(), 0, None);
        let outer = r.begin("outer");
        // Time of the outer span's own, so its self time exceeds the charge.
        std::thread::sleep(std::time::Duration::from_millis(1));
        r.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.charge(outer, 1_000);
        r.end(outer);
        let spans = r.into_spans();
        assert_eq!(spans[1].parent, Some(spans[0].id));
        let selfs = self_times(&spans);
        assert_eq!(
            selfs[0],
            spans[0].duration_ns() - spans[1].duration_ns() - 1_000
        );
        assert_eq!(selfs[1], spans[1].duration_ns());
    }
}
