//! The benchmark's own span recorder: one span around every call into a
//! layer's public function, kept in memory and written to
//! `benchmark/out/trace-<workload>.json` when the traced pass ends.
//!
//! The recorder is off in the end-to-end pass (`--trace 0`): `enter` then
//! returns a dead id and nothing is stored, so the timed laps never pay for
//! it. Spans *inside* the engines are a later issue; these are all recorded
//! from the benchmark's side of the API.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<u32>,
    /// Which lap of the workload the span belongs to (0 = outside any lap).
    lap: u32,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

const DEAD: SpanId = SpanId(u32::MAX);

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    lap: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), lap: 0 }
    }

    /// Spans entered from now on belong to lap `lap`.
    pub fn set_lap(&mut self, lap: u32) {
        self.lap = lap;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return DEAD;
        }
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            lap: self.lap,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if id.0 == DEAD.0 {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans[id.0 as usize].end_ns = now;
        // Spans nest: closing one closes anything opened inside it.
        while let Some(top) = self.open.pop() {
            if top == id.0 {
                break;
            }
        }
    }

    /// Record `f` as one leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Per-name totals with self time (span minus children).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Total nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Mean nanoseconds of the spans called `name` (0 when there is none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let count = self.spans.iter().filter(|s| s.name == name).count();
        self.total_ns(name) as f64 / count.max(1) as f64
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                json::obj([
                    ("id", Value::Num(i as f64)),
                    ("name", Value::Str(s.name.into())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                    ("lap", Value::Num(s.lap as f64)),
                ])
            })
            .collect();
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    json::obj([
                        ("count", Value::Num(t.count as f64)),
                        ("total_ns", Value::Num(t.total_ns as f64)),
                        ("self_ns", Value::Num(t.self_ns as f64)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        json::obj([
            ("workload", Value::Str(workload.into())),
            ("totals", json::obj(totals)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut r = Recorder::new(true);
        let outer = r.enter("outer");
        r.leaf("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.leaf("inner", || ());
        r.exit(outer);
        let t = r.totals();
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["outer"].self_ns, t["outer"].total_ns - t["inner"].total_ns);
        assert!(t["inner"].total_ns >= 2_000_000);

        let mut off = Recorder::new(false);
        let id = off.enter("x");
        off.exit(id);
        assert!(off.totals().is_empty());
    }
}
