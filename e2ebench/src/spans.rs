//! In-memory spans around the benchmark's calls into each layer: name,
//! start, end and the span that caused it. They are kept in memory and
//! written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished or open span; times are microseconds since the recorder
/// was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `wire.launch`.
    pub name: String,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs (`None` while open).
    pub end_us: Option<f64>,
}

/// The span recorder of one benchmark run.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us: None,
        });
        id
    }

    /// Close an open span.
    pub fn close(&mut self, id: usize) {
        let end = self.now_us();
        let span = &mut self.spans[id];
        assert!(span.end_us.is_none(), "span {} closed twice", span.name);
        span.end_us = Some(end);
    }

    /// Run `f` inside a leaf span.
    pub fn leaf<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Per span name: `(count, total µs, self µs)`, where self time is a
    /// span's duration minus what its direct children cover. Sorted by
    /// total time, largest first.
    pub fn totals(&self) -> Vec<(String, usize, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), Some(end)) = (s.parent, s.end_us) {
                child_us[p] += end - s.start_us;
            }
        }
        let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
        for s in &self.spans {
            let Some(end) = s.end_us else { continue };
            let dur = end - s.start_us;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += dur - child_us[s.id];
                }
                None => rows.push((s.name.clone(), 1, dur, dur - child_us[s.id])),
            }
        }
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        rows
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end_us.map_or("null".to_string(), |e| format!("{e:.1}"));
            let _ = write!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {end}}}",
                s.id, s.name, s.start_us
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let root = spans.open("run", None);
        spans.leaf("child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        spans.close(root);
        let totals = spans.totals();
        let run = totals.iter().find(|r| r.0 == "run").unwrap();
        let child = totals.iter().find(|r| r.0 == "child").unwrap();
        assert!(run.2 >= child.2);
        assert!(run.3 < run.2 - 19_000.0, "{run:?}");
        assert!(spans.to_json().contains("\"parent\": 0"));
    }
}
