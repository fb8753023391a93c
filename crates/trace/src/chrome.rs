//! Chrome `trace_event` JSON exporter.
//!
//! Renders a [`TraceBuffer`] into the Trace Event Format consumed by
//! `chrome://tracing` and Perfetto: one process (`pid 0`), one thread
//! track per simulated rank, plus a "world" track carrying spans, rounds
//! and compute passes (whose scope is the whole synchronous machine).
//! Durations use complete events (`"ph":"X"`); instantaneous records
//! (checkpoints, deaths) use instant events (`"ph":"i"`). Timestamps are
//! microseconds on the run's clock.

use crate::event::{EventKind, TraceEvent};
use crate::json::{self, JsonWriter};
use crate::recorder::TraceBuffer;

/// Render `buf` as a Chrome trace_event JSON document.
pub fn chrome_trace(buf: &TraceBuffer) -> String {
    let ranks = buf.ranks();
    let thread_name = |w: &mut JsonWriter, tid: usize, name: &str| {
        w.obj(|w| {
            w.field("ph", "M")
                .field("pid", 0u32)
                .field("tid", tid)
                .field("name", "thread_name")
                .key("args")
                .obj(|w| {
                    w.field("name", name);
                });
        });
    };
    json::compact(|w| {
        w.field("displayTimeUnit", "ms")
            .key("traceEvents")
            .arr(|w| {
                w.obj(|w| {
                    w.field("ph", "M")
                        .field("pid", 0u32)
                        .field("name", "process_name")
                        .key("args")
                        .obj(|w| {
                            w.field("name", "bgl-bfs");
                        });
                });
                for r in 0..ranks {
                    thread_name(w, r, &format!("rank {r}"));
                }
                thread_name(w, ranks, "world");
                for (track, ev) in buf.events() {
                    w.obj(|w| write_event(w, track, &ev));
                }
            });
    })
}

fn write_event(w: &mut JsonWriter, tid: usize, ev: &TraceEvent) {
    let (name, cat): (String, &str) = match ev.kind {
        EventKind::Span { phase, level } => (format!("{} {level}", phase.name()), "span"),
        EventKind::Round { op, .. } => (format!("{} round", op.name()), "round"),
        EventKind::Send { from, to, .. } => (format!("send {from}->{to}"), "send"),
        EventKind::Retransmit { from, to, .. } => (format!("retransmit {from}->{to}"), "fault"),
        EventKind::Compute { comp, .. } => (format!("{} pass", comp.name()), "compute"),
        EventKind::TreeAllreduce => ("tree allreduce".into(), "control"),
        EventKind::Checkpoint { level } => (format!("checkpoint @{level}"), "resilience"),
        EventKind::RankDeath { rank, .. } => (format!("rank {rank} died"), "fault"),
        EventKind::Recovery { rank } => (format!("recover rank {rank}"), "resilience"),
        EventKind::Batch { batch, .. } => (format!("batch {batch}"), "server"),
    };
    w.field("name", name)
        .field("cat", cat)
        .field("pid", 0u32)
        .field("tid", tid)
        .field("ts", ev.t0 * 1e6);
    if matches!(
        ev.kind,
        EventKind::Checkpoint { .. } | EventKind::RankDeath { .. }
    ) {
        w.field("ph", "i").field("s", "g");
    } else {
        w.field("ph", "X").field("dur", ev.duration() * 1e6);
    }
    w.key("args").obj(|w| match ev.kind {
        EventKind::Span { level, .. } | EventKind::Checkpoint { level } => {
            w.field("level", level);
        }
        EventKind::Round {
            messages,
            verts,
            bottleneck,
            ..
        } => {
            w.field("messages", messages)
                .field("verts", verts)
                .field("bottleneck_rank", bottleneck);
        }
        EventKind::Send { bytes, hops, .. } => {
            w.field("bytes", bytes).field("hops", hops);
        }
        EventKind::Retransmit { retries, .. } => {
            w.field("retries", retries);
        }
        EventKind::Compute { bottleneck, .. } => {
            w.field("bottleneck_rank", bottleneck);
        }
        EventKind::TreeAllreduce => {}
        EventKind::RankDeath { round, .. } => {
            w.field("round", round);
        }
        EventKind::Recovery { rank } => {
            w.field("rank", rank);
        }
        EventKind::Batch { lanes, .. } => {
            w.field("lanes", lanes);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ComputeKind, OpKind, Phase};
    use crate::json;

    #[test]
    fn exporter_output_is_valid_json_with_expected_tracks() {
        let mut buf = TraceBuffer::new(2, 16);
        buf.push_world(TraceEvent {
            kind: EventKind::Span {
                phase: Phase::Level,
                level: 0,
            },
            t0: 0.0,
            t1: 2e-3,
        });
        buf.push_world(TraceEvent {
            kind: EventKind::Round {
                op: OpKind::Expand,
                messages: 3,
                verts: 40,
                bottleneck: 1,
            },
            t0: 1e-4,
            t1: 9e-4,
        });
        buf.push_world(TraceEvent {
            kind: EventKind::Compute {
                comp: ComputeKind::Hash,
                bottleneck: 0,
            },
            t0: 1e-3,
            t1: 1.5e-3,
        });
        buf.push_rank(
            1,
            TraceEvent {
                kind: EventKind::Send {
                    from: 1,
                    to: 0,
                    bytes: 320,
                    hops: 2,
                },
                t0: 1e-4,
                t1: 5e-4,
            },
        );
        buf.push_world(TraceEvent {
            kind: EventKind::RankDeath { rank: 1, round: 4 },
            t0: 2e-3,
            t1: 2e-3,
        });
        let doc = chrome_trace(&buf);
        let v = json::parse(&doc).expect("exporter must emit valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 metadata (process + 2 ranks... plus world) => 4 metadata + 5 events.
        assert_eq!(events.len(), 4 + 5);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"level 0"));
        assert!(names.contains(&"send 1->0"));
        assert!(names.contains(&"rank 1 died"));
        // The world track id is ranks() == 2.
        let world_span = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("level 0"))
            .unwrap();
        assert_eq!(world_span.get("tid").unwrap().as_f64(), Some(2.0));
        assert_eq!(world_span.get("ph").unwrap().as_str(), Some("X"));
        // ts/dur are microseconds.
        assert_eq!(world_span.get("dur").unwrap().as_f64(), Some(2e3));
    }
}
