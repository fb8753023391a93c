//! Per-level critical-path analysis.
//!
//! The superstep runtimes are bulk-synchronous: every phase's elapsed
//! time is the maximum over ranks, so a level's duration decomposes
//! exactly into the phase spans the BFS loop emitted inside it. The
//! analyzer groups spans by containment in each `level` span, names the
//! **bounding phase** (the phase with the largest share of the level)
//! and its **bottleneck rank** (from the longest round/compute event
//! inside that phase), and reports how much of total run time the level
//! spans cover. `to_summary_json` renders the machine-readable
//! `TRACE_summary.json` the CI smoke test checks.

use crate::event::{EventKind, Phase, TraceEvent};
use crate::json::{self, JsonWriter};
use crate::recorder::TraceBuffer;
use std::fmt::Write as _;

/// One phase's share of a level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSlice {
    pub phase: Phase,
    /// Total duration of this phase's spans inside the level (seconds).
    pub duration: f64,
    /// Rank bounding the phase's longest round/compute event, if the
    /// trace recorded one inside the phase.
    pub bottleneck: Option<u32>,
}

/// Critical-path record for one level span.
#[derive(Debug, Clone)]
pub struct LevelCritical {
    pub level: u32,
    pub t0: f64,
    pub t1: f64,
    /// Phase slices inside the level, largest first.
    pub phases: Vec<PhaseSlice>,
}

impl LevelCritical {
    /// The level span's duration.
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }

    /// The phase bounding this level (largest slice), if any phase span
    /// was recorded inside it.
    pub fn bounding(&self) -> Option<&PhaseSlice> {
        self.phases.first()
    }
}

/// The whole run's critical-path analysis.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Per-level records in time order.
    pub levels: Vec<LevelCritical>,
    /// End of the last recorded event (total traced time).
    pub total_time: f64,
}

impl CriticalPath {
    /// Analyze a recorded buffer.
    pub fn analyze(buf: &TraceBuffer) -> Self {
        let events = buf.world_events();
        Self::from_events(&events)
    }

    /// Analyze a flat world-event list (must contain the spans).
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let total_time = events.iter().map(|e| e.t1).fold(0.0f64, f64::max);
        let mut levels: Vec<LevelCritical> = Vec::new();
        for ev in events {
            let EventKind::Span {
                phase: Phase::Level,
                level,
            } = ev.kind
            else {
                continue;
            };
            let mut slices: Vec<PhaseSlice> = Vec::new();
            for inner in events.iter().filter(|e| {
                e.is_span()
                    && !matches!(
                        e.kind,
                        EventKind::Span {
                            phase: Phase::Level,
                            ..
                        }
                    )
                    && e.within(ev)
            }) {
                let EventKind::Span { phase, .. } = inner.kind else {
                    continue;
                };
                let bottleneck = bottleneck_of(events, inner);
                match slices.iter_mut().find(|s| s.phase == phase) {
                    // A phase can appear more than once per level (e.g.
                    // ring steps split across sub-spans): accumulate, and
                    // keep the bottleneck of the longest occurrence seen.
                    Some(s) => {
                        if inner.duration() > s.duration {
                            s.bottleneck = bottleneck.or(s.bottleneck);
                        }
                        s.duration += inner.duration();
                    }
                    None => slices.push(PhaseSlice {
                        phase,
                        duration: inner.duration(),
                        bottleneck,
                    }),
                }
            }
            slices.sort_by(|a, b| {
                b.duration
                    .total_cmp(&a.duration)
                    .then(a.phase.cmp(&b.phase))
            });
            levels.push(LevelCritical {
                level,
                t0: ev.t0,
                t1: ev.t1,
                phases: slices,
            });
        }
        levels.sort_by(|a, b| a.t0.total_cmp(&b.t0));
        Self { levels, total_time }
    }

    /// Fraction of total traced time covered by level spans.
    pub fn coverage(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 1.0;
        }
        let covered: f64 = self.levels.iter().map(LevelCritical::duration).sum();
        covered / self.total_time
    }

    /// Render the per-level table as aligned text.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("level      duration  bounding phase      share  bottleneck\n");
        for l in &self.levels {
            let (phase, share, rank) = match l.bounding() {
                Some(b) => (
                    b.phase.name(),
                    b.duration * 100.0 / l.duration().max(f64::MIN_POSITIVE),
                    b.bottleneck
                        .map_or("-".to_string(), |r| format!("rank {r}")),
                ),
                None => ("-", 0.0, "-".to_string()),
            };
            let _ = writeln!(
                out,
                "{:>5}  {:>10}  {:<16} {:>7.2}%  {}",
                l.level,
                fmt_secs(l.duration()),
                phase,
                share,
                rank
            );
        }
        let _ = writeln!(
            out,
            "coverage: {:.1}% of {} total traced time",
            self.coverage() * 100.0,
            fmt_secs(self.total_time)
        );
        out
    }

    /// Render the machine-readable `TRACE_summary.json` document.
    pub fn to_summary_json(&self) -> String {
        json::compact(|w| self.write_json(w))
    }

    /// Write the summary's members (`total_time`, `coverage`, `levels`)
    /// into the open object `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field("total_time", self.total_time)
            .field("coverage", self.coverage())
            .key("levels")
            .arr(|w| {
                for l in &self.levels {
                    w.obj(|w| {
                        w.field("level", l.level)
                            .field("t0", l.t0)
                            .field("t1", l.t1)
                            .field("duration", l.duration())
                            .key("bounding");
                        match l.bounding() {
                            Some(b) => write_slice(w, b),
                            None => {
                                w.value(None::<u32>);
                            }
                        }
                        w.key("phases").arr(|w| {
                            for s in &l.phases {
                                write_slice(w, s);
                            }
                        });
                    });
                }
            });
    }
}

fn write_slice(w: &mut JsonWriter, s: &PhaseSlice) {
    w.obj(|w| {
        w.field("phase", s.phase.name())
            .field("duration", s.duration)
            .field("bottleneck_rank", s.bottleneck);
    });
}

/// The bottleneck rank of the longest round/compute event inside `span`.
fn bottleneck_of(events: &[TraceEvent], span: &TraceEvent) -> Option<u32> {
    events
        .iter()
        .filter(|e| e.within(span))
        .filter_map(|e| match e.kind {
            EventKind::Round { bottleneck, .. } | EventKind::Compute { bottleneck, .. } => {
                Some((e.duration(), bottleneck))
            }
            _ => None,
        })
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, r)| r)
}

/// Compact human-readable seconds for the tables.
fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::OpKind;
    use crate::json;

    fn span(phase: Phase, level: u32, t0: f64, t1: f64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Span { phase, level },
            t0,
            t1,
        }
    }

    fn round(bottleneck: u32, t0: f64, t1: f64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Round {
                op: OpKind::Fold,
                messages: 1,
                verts: 1,
                bottleneck,
            },
            t0,
            t1,
        }
    }

    #[test]
    fn names_bounding_phase_and_bottleneck() {
        let events = vec![
            span(Phase::Level, 0, 0.0, 10.0),
            span(Phase::Expand, 0, 0.0, 2.0),
            span(Phase::Fold, 0, 2.0, 9.0),
            round(3, 2.5, 8.0),
            span(Phase::Absorb, 0, 9.0, 10.0),
            span(Phase::Level, 1, 10.0, 14.0),
            span(Phase::Expand, 1, 10.0, 13.0),
            round(1, 10.0, 12.5),
            span(Phase::Fold, 1, 13.0, 14.0),
        ];
        let cp = CriticalPath::from_events(&events);
        assert_eq!(cp.levels.len(), 2);
        assert_eq!(cp.total_time, 14.0);
        let l0 = &cp.levels[0];
        assert_eq!(l0.level, 0);
        assert_eq!(l0.duration(), 10.0);
        let b = l0.bounding().unwrap();
        assert_eq!(b.phase, Phase::Fold);
        assert_eq!(b.duration, 7.0);
        assert_eq!(b.bottleneck, Some(3));
        let b1 = cp.levels[1].bounding().unwrap();
        assert_eq!(b1.phase, Phase::Expand);
        assert_eq!(b1.bottleneck, Some(1));
        assert!((cp.coverage() - 1.0).abs() < 1e-12);
        let table = cp.render_table();
        assert!(table.contains("fold"));
    }

    #[test]
    fn summary_json_parses_and_carries_fields() {
        let events = vec![
            span(Phase::Level, 0, 0.0, 4.0),
            span(Phase::Fold, 0, 1.0, 4.0),
        ];
        let cp = CriticalPath::from_events(&events);
        let doc = cp.to_summary_json();
        let v = json::parse(&doc).expect("summary must be valid JSON");
        assert_eq!(v.get("total_time").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("coverage").unwrap().as_f64(), Some(1.0));
        let lvls = v.get("levels").unwrap().as_arr().unwrap();
        assert_eq!(lvls.len(), 1);
        let b = lvls[0].get("bounding").unwrap();
        assert_eq!(b.get("phase").unwrap().as_str(), Some("fold"));
        assert_eq!(b.get("duration").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn empty_trace_has_full_coverage_of_nothing() {
        let cp = CriticalPath::from_events(&[]);
        assert!(cp.levels.is_empty());
        assert_eq!(cp.coverage(), 1.0);
        assert!(json::parse(&cp.to_summary_json()).is_ok());
    }
}
