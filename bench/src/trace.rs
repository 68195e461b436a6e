//! Harness-side spans around calls into each layer's public functions.
//!
//! The program is not instrumented by this benchmark: a span is opened
//! in the harness before a call into a layer and closed after it
//! returns. Spans stay in memory and are written out once, at exit.
//! A layer's *self time* is its span minus the part of that interval its
//! child spans cover.

use crate::adapter::write_escaped;
use std::time::Instant;

/// One recorded interval. `parent` is the span that was open when this
/// one was entered.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Single-threaded span recorder. Threads that trace concurrently own
/// one tracer each (sharing `t0`) and are [`Tracer::absorb`]ed afterwards.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Self {
        Tracer {
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread or phase;
    /// [`Tracer::absorb`] brings its spans home.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.t0)
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Time one call as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Append another tracer's spans, re-numbering them past ours. Its
    /// top-level spans stay top-level.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Wall durations (seconds) of every span called `name`, in order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }

    /// Summed wall (seconds) of the spans called `name` directly under
    /// `parent`.
    pub fn child_total_s(&self, parent: SpanId, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent.0) && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// Per span name, in order of first appearance: how many spans, their
    /// summed wall seconds, and their summed self seconds.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let selfs = self_times_ns(&self.spans);
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for s in &self.spans {
            let (wall, own) = (s.dur_ns() as f64 / 1e9, selfs[s.id as usize] as f64 / 1e9);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += wall;
                    row.3 += own;
                }
                None => rows.push((s.name, 1, wall, own)),
            }
        }
        rows
    }

    /// The trace as a JSON array of `{id, name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!("{{\"id\": {}, \"name\": ", s.id));
            write_escaped(&mut out, s.name);
            out.push_str(&format!(
                ", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            ));
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

/// Self time of each span (indexed by id): its duration minus the union
/// of its children's intervals, clipped to the span itself.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = &mut children[s.id as usize];
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_cover() {
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 10, 30, Some(0)),
            span(2, 40, 60, Some(0)),
            span(3, 45, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 15, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // children overlap each other (concurrent threads) and one hangs
        // past the parent's end: cover is the clipped union [10,70)+[90,100)
        let spans = vec![
            span(0, 0, 100, None),
            span(1, 10, 50, Some(0)),
            span(2, 30, 70, Some(0)),
            span(3, 90, 140, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn enter_exit_nest_and_absorb_renumbers() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        let outer = a.enter("outer");
        a.time("inner", || std::hint::black_box(1 + 1));
        a.exit(outer);
        assert_eq!(a.spans[1].parent, Some(0));
        assert!(a.spans[0].end_ns >= a.spans[1].end_ns);

        let mut b = a.fork();
        let o = b.enter("other");
        b.time("leaf", || ());
        b.exit(o);
        assert_eq!(b.child_total_s(o, "leaf"), b.durations_s("leaf")[0]);
        assert_eq!(b.child_total_s(o, "other"), 0.0);
        a.absorb(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[2].id, 2);
        assert_eq!(a.spans[2].parent, None);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.durations_s("leaf").len(), 1);
        let summary = a.summary();
        assert_eq!(summary.len(), 4);
        assert_eq!((summary[0].0, summary[0].1), ("outer", 1));
        // outer's self time and inner's add up to outer's wall
        assert!((summary[0].3 + summary[1].3 - summary[0].2).abs() < 1e-12);
        let parsed = crate::adapter::parse_json(&a.to_json()).expect("trace is valid JSON");
        assert_eq!(parsed.as_array().map(<[_]>::len), Some(4));
    }
}
