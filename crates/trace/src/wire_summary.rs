//! Wire-level traffic totals replayed purely from recorded events.
//!
//! [`WireSummary::from_events`] folds a trace into the numbers the
//! codec work is judged by: logical bytes per operation class (from
//! `Round` events, which count *logical* vertices), actual bytes on the
//! wire (from `Send` events, which carry the encoded frame size),
//! and the modelled encode/decode time (`Compute`/`Codec` events).
//! The result lands in `TRACE_summary.json` next to the critical path,
//! so a golden trace documents its own compression ratio.

use crate::event::{ComputeKind, EventKind, OpKind, TraceEvent};
use crate::json::{self, JsonWriter};

/// Bytes one vertex occupies in an unencoded payload. Mirrors
/// `bgl_comm::VERT_BYTES` (this crate sits below the communication
/// layer, same as [`OpKind::from_index`] mirrors its class indices);
/// the comm crate pins the two together in a test.
pub const WIRE_VERT_BYTES: u64 = 8;

/// Per-operation-class logical traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTraffic {
    /// Synchronous message rounds recorded.
    pub rounds: u64,
    /// Point-to-point messages those rounds reported.
    pub messages: u64,
    /// Uncompressed payload bytes (`Round` vertices × [`WIRE_VERT_BYTES`]).
    pub logical_bytes: u64,
}

/// Wire totals for one recorded run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireSummary {
    /// Logical traffic by class, indexed like [`OpKind::from_index`].
    pub per_op: [OpTraffic; 3],
    /// Point-to-point `Send` events seen (event-level detail only —
    /// zero at span detail, in which case wire bytes are unknown).
    pub sends: u64,
    /// Encoded bytes those sends put on the wire.
    pub wire_bytes: u64,
    /// Total modelled codec (encode/decode) time in seconds.
    pub codec_time: f64,
}

impl WireSummary {
    /// Fold `events` into wire totals.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Self {
        let mut s = Self::default();
        for ev in events {
            match ev.kind {
                EventKind::Round {
                    op,
                    messages,
                    verts,
                    ..
                } => {
                    let t = &mut s.per_op[op.index()];
                    t.rounds += 1;
                    t.messages += u64::from(messages);
                    t.logical_bytes += verts * WIRE_VERT_BYTES;
                }
                EventKind::Send { bytes, .. } => {
                    s.sends += 1;
                    s.wire_bytes += bytes;
                }
                EventKind::Compute {
                    comp: ComputeKind::Codec,
                    ..
                } => s.codec_time += ev.duration(),
                _ => {}
            }
        }
        s
    }

    /// Total uncompressed payload bytes across all classes.
    pub fn logical_bytes(&self) -> u64 {
        self.per_op.iter().map(|t| t.logical_bytes).sum()
    }

    /// Logical-to-wire compression ratio (1.0 when nothing was sent or
    /// the trace carries no send events to measure).
    pub fn compression_ratio(&self) -> f64 {
        if self.sends == 0 || self.wire_bytes == 0 {
            return 1.0;
        }
        self.logical_bytes() as f64 / self.wire_bytes as f64
    }

    /// Render the `"wire"` object embedded in `TRACE_summary.json`.
    pub fn to_json(&self) -> String {
        json::compact(|w| self.write_json(w))
    }

    /// Write the wire object's members into the open object `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        for (i, t) in self.per_op.iter().enumerate() {
            w.key(OpKind::from_index(i).name()).obj(|w| {
                w.field("rounds", t.rounds)
                    .field("messages", t.messages)
                    .field("logical_bytes", t.logical_bytes);
            });
        }
        w.field("sends", self.sends)
            .field("logical_bytes", self.logical_bytes())
            .field("wire_bytes", self.wire_bytes)
            .field("compression_ratio", self.compression_ratio())
            .field("codec_time", self.codec_time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, t0: f64, t1: f64) -> TraceEvent {
        TraceEvent { kind, t0, t1 }
    }

    #[test]
    fn folds_rounds_sends_and_codec_time() {
        let events = [
            ev(
                EventKind::Round {
                    op: OpKind::Expand,
                    messages: 3,
                    verts: 10,
                    bottleneck: 0,
                },
                0.0,
                1.0,
            ),
            ev(
                EventKind::Round {
                    op: OpKind::Fold,
                    messages: 2,
                    verts: 4,
                    bottleneck: 1,
                },
                1.0,
                2.0,
            ),
            ev(
                EventKind::Send {
                    from: 0,
                    to: 1,
                    bytes: 30,
                    hops: 1,
                },
                0.1,
                0.2,
            ),
            ev(
                EventKind::Send {
                    from: 1,
                    to: 0,
                    bytes: 12,
                    hops: 2,
                },
                1.1,
                1.2,
            ),
            ev(
                EventKind::Compute {
                    comp: ComputeKind::Codec,
                    bottleneck: 0,
                },
                2.0,
                2.5,
            ),
            ev(
                EventKind::Compute {
                    comp: ComputeKind::Hash,
                    bottleneck: 0,
                },
                2.5,
                3.5,
            ),
        ];
        let s = WireSummary::from_events(events.iter());
        assert_eq!(s.per_op[0].rounds, 1);
        assert_eq!(s.per_op[0].messages, 3);
        assert_eq!(s.per_op[0].logical_bytes, 80);
        assert_eq!(s.per_op[1].logical_bytes, 32);
        assert_eq!(s.logical_bytes(), 112);
        assert_eq!(s.sends, 2);
        assert_eq!(s.wire_bytes, 42);
        assert!((s.compression_ratio() - 112.0 / 42.0).abs() < 1e-12);
        assert!((s.codec_time - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_reports_neutral_ratio() {
        let s = WireSummary::from_events([].iter());
        assert_eq!(s.compression_ratio(), 1.0);
        assert_eq!(s.logical_bytes(), 0);
    }

    #[test]
    fn json_shape_is_stable() {
        let s = WireSummary::from_events([].iter());
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "\"expand\"",
            "\"fold\"",
            "\"control\"",
            "\"sends\"",
            "\"wire_bytes\"",
            "\"compression_ratio\"",
            "\"codec_time\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
