//! The benchmark's own span recorder.
//!
//! Spans sit only at layer boundaries the crates' public API exposes (the
//! proposer decorator, the per-operation driver, client requests) plus the
//! *replayed* leaf calls: a layer that cannot be observed from outside
//! (`fine_tune` inside `tune_task_round`, say) is called again on a copy of
//! its inputs right after the operation, timed, and attached to the span it
//! stands in for with `replayed: true`. Spans stay in memory until the run
//! ends. With the recorder disabled every call is a no-op, so the untraced
//! run pays nothing.

use felix_records::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation id shared by every span of one round / task / cycle / job.
    pub op: u64,
    /// Ran outside its parent's interval, on a copy of the parent's inputs;
    /// its whole duration counts as covering the parent.
    pub replayed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Total and self time of every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTime {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
            replayed: false,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Recorder::begin`] (and any left open
    /// inside it).
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records a finished span from timestamps taken elsewhere (the proposer
    /// decorator's), as a child of `parent`.
    pub fn span_at(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
            replayed: false,
        });
        Some(self.spans.len() - 1)
    }

    /// Moves the end of a span recorded by [`Recorder::span_at`] (a job
    /// span opened at submit and closed when the job goes terminal).
    pub fn close_at(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            self.spans[id].end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// Records a stand-in of `dur_ns` for work inside `parent`: a leaf call
    /// replayed on a copy of its inputs, or a duration the program's own
    /// stats report (descent time from `TunerStats`).
    pub fn replayed(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        dur_ns: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let end = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end.saturating_sub(dur_ns),
            end_ns: end,
            parent,
            op,
            replayed: true,
        });
        Some(self.spans.len() - 1)
    }

    /// Appends another recorder's spans (a client thread's), re-basing its
    /// timestamps onto this recorder's epoch and its parent links onto the
    /// merged indices.
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part its children
    /// cover. Children that ran inside the parent cover the union of their
    /// intervals clipped to it; replayed children cover their whole
    /// duration. Never negative.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut inside: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut replayed = vec![0u64; self.spans.len()];
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            if s.replayed {
                replayed[p] += s.dur_ns();
            } else {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if b > a {
                    inside[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(inside.iter_mut().zip(&replayed))
            .map(|(s, (ivals, rep))| {
                ivals.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for &(a, b) in ivals.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns().saturating_sub(covered).saturating_sub(*rep)
            })
            .collect()
    }

    /// Per-name totals — the per-phase self-time table.
    pub fn phase_table(&self) -> BTreeMap<&'static str, PhaseTime> {
        let mut table: BTreeMap<&'static str, PhaseTime> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += s.dur_ns();
            row.self_ns += self_ns;
        }
        table
    }

    /// Sum of every span's self time over the sum of root-span durations.
    /// Children that ran inside their parent telescope to exactly 1; a
    /// replayed stand-in adds its own duration and removes the same from
    /// its parent, so the ratio stays 1 unless stand-ins claim more time
    /// than their parent had (self time clamps at 0 and the ratio rises).
    pub fn self_time_coverage(&self) -> f64 {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && !s.replayed)
            .map(Span::dur_ns)
            .sum();
        if roots == 0 {
            return 0.0;
        }
        // Stand-ins attributed to no span (probes run after the window)
        // appear in the phase table but belong to no root.
        let selfs: u64 = self
            .spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| !(s.replayed && s.parent.is_none()))
            .map(|(_, t)| t)
            .sum();
        selfs as f64 / roots as f64
    }

    /// The span file: every span plus the phase table.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op", Json::Num(s.op as f64)),
                    ("replayed", Json::Bool(s.replayed)),
                ])
            })
            .collect();
        let phases = self
            .phase_table()
            .into_iter()
            .map(|(name, t)| {
                Json::obj(vec![
                    ("name", Json::Str(name.to_string())),
                    ("count", Json::Num(t.count as f64)),
                    ("total_ms", Json::Num(t.total_ns as f64 / 1e6)),
                    ("self_ms", Json::Num(t.self_ns as f64 / 1e6)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("phases", Json::Arr(phases)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        replayed: bool,
    ) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            replayed,
        }
    }

    fn recorder(spans: Vec<Span>) -> Recorder {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // round [0,100): propose [10,70) with descent [20,50); two
        // overlapping children [60,90) and [80,95) of the round.
        let rec = recorder(vec![
            span("round", 0, 100, None, false),
            span("propose", 10, 70, Some(0), false),
            span("descent", 20, 50, Some(1), false),
            span("a", 60, 90, Some(0), false),
            span("b", 80, 95, Some(0), false),
        ]);
        // round: 100 - |[10,70) u [60,95)| = 100 - 85.
        assert_eq!(rec.self_times_ns(), vec![15, 30, 30, 30, 15]);
        let table = rec.phase_table();
        assert_eq!(
            table["round"],
            PhaseTime {
                count: 1,
                total_ns: 100,
                self_ns: 15
            }
        );
        assert_eq!(table["propose"].self_ns, 30);
    }

    #[test]
    fn replayed_children_cover_by_duration_and_clamp_at_zero() {
        let rec = recorder(vec![
            span("round", 0, 100, None, false),
            span("fine_tune", 500, 540, Some(0), true),
            span("probe", 900, 950, None, true),
        ]);
        assert_eq!(rec.self_times_ns(), vec![60, 40, 50]);
        assert!((rec.self_time_coverage() - 1.0).abs() < 1e-12);
        // A stand-in that claims more than its parent had shows as > 1.
        let over = recorder(vec![
            span("round", 0, 100, None, false),
            span("fine_tune", 500, 650, Some(0), true),
        ]);
        assert_eq!(over.self_times_ns(), vec![0, 150]);
        assert!((over.self_time_coverage() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn begin_end_nest_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("outer", 7);
        let inner = rec.begin("inner", 7);
        rec.end(inner);
        rec.end(outer);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        assert_eq!(rec.spans()[1].op, 7);

        let mut off = Recorder::new(false);
        let id = off.begin("outer", 0);
        off.replayed("x", 0, id, 10);
        off.end(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parent_links() {
        let mut a = recorder(vec![span("job", 0, 10, None, false)]);
        let b = recorder(vec![
            span("job", 0, 10, None, false),
            span("submit", 1, 2, Some(0), false),
        ]);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let doc = a.to_json();
        let text = doc.write();
        assert_eq!(Json::parse(&text).expect("span file parses"), doc);
    }
}
