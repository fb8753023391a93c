//! The [`TraceSink`] handle the runtimes carry.
//!
//! A disabled sink is a single `None` word: no rings, no heap, and every
//! emit call is one branch that immediately returns. The runtimes hoist
//! `is_enabled()`/`wants_sends()` checks around any work needed *to
//! build* an event (argmax scans, per-send bookkeeping), so a run with
//! tracing off executes the exact same instruction stream it did before
//! the subsystem existed — the zero-allocation test pins this.

use crate::event::{EventKind, Phase, TraceEvent};
use crate::recorder::{TraceBuffer, DEFAULT_RING_CAPACITY};

/// How much detail an enabled sink records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceDetail {
    /// Spans and phase-scope events only (rounds, compute passes,
    /// allreduces, checkpoints, deaths, retransmits).
    Span,
    /// Everything in `Span` plus one event per point-to-point send.
    #[default]
    Event,
}

impl TraceDetail {
    /// Parse a `--trace-level` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "span" => Some(TraceDetail::Span),
            "event" => Some(TraceDetail::Event),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct SinkState {
    detail: TraceDetail,
    buf: TraceBuffer,
}

/// Recorder handle: either disabled (one machine word, allocation-free)
/// or an enabled per-rank ring-buffer recorder.
#[derive(Debug, Clone, Default)]
pub struct TraceSink(Option<Box<SinkState>>);

impl TraceSink {
    /// The no-op sink.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// An enabled sink recording `ranks` rank tracks plus a world track,
    /// with the default ring capacity.
    pub fn enabled(ranks: usize, detail: TraceDetail) -> Self {
        Self::enabled_with_capacity(ranks, detail, DEFAULT_RING_CAPACITY)
    }

    /// [`TraceSink::enabled`] with an explicit per-ring capacity.
    fn enabled_with_capacity(ranks: usize, detail: TraceDetail, cap: usize) -> Self {
        Self(Some(Box::new(SinkState {
            detail,
            buf: TraceBuffer::new(ranks, cap),
        })))
    }

    /// Whether this sink records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether per-send events should be built and emitted.
    #[inline]
    pub fn wants_sends(&self) -> bool {
        matches!(&self.0, Some(st) if st.detail == TraceDetail::Event)
    }

    /// The detail level, if enabled.
    pub fn detail(&self) -> Option<TraceDetail> {
        self.0.as_ref().map(|st| st.detail)
    }

    /// Record a world-scoped event over `[t0, t1]`.
    #[inline]
    pub fn world_event(&mut self, kind: EventKind, t0: f64, t1: f64) {
        if let Some(st) = &mut self.0 {
            st.buf.push_world(TraceEvent { kind, t0, t1 });
        }
    }

    /// Record a rank-scoped event over `[t0, t1]`.
    #[inline]
    pub fn rank_event(&mut self, rank: usize, kind: EventKind, t0: f64, t1: f64) {
        if let Some(st) = &mut self.0 {
            st.buf.push_rank(rank, TraceEvent { kind, t0, t1 });
        }
    }

    /// Record a phase span (world-scoped).
    #[inline]
    pub fn span(&mut self, phase: Phase, level: u32, t0: f64, t1: f64) {
        self.world_event(EventKind::Span { phase, level }, t0, t1);
    }

    /// The recorded buffer, if enabled.
    pub fn buffer(&self) -> Option<&TraceBuffer> {
        self.0.as_ref().map(|st| &st.buf)
    }

    /// Take the buffer out, leaving the sink disabled.
    pub fn take_buffer(&mut self) -> Option<TraceBuffer> {
        self.0.take().map(|st| st.buf)
    }

    /// Drop recorded events, keeping the sink enabled and its ring
    /// allocations (used by world resets between measured searches).
    pub fn clear_events(&mut self) {
        if let Some(st) = &mut self.0 {
            st.buf.clear();
        }
    }

    /// Heap capacity currently allocated for events (0 when disabled).
    pub fn allocated(&self) -> usize {
        self.0.as_ref().map_or(0, |st| st.buf.allocated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_one_word_and_allocation_free() {
        let mut s = TraceSink::disabled();
        assert_eq!(
            std::mem::size_of::<TraceSink>(),
            std::mem::size_of::<usize>()
        );
        s.span(Phase::Level, 0, 0.0, 1.0);
        s.world_event(EventKind::TreeAllreduce, 0.0, 0.0);
        assert_eq!(s.allocated(), 0);
        assert!(!s.is_enabled());
        assert!(!s.wants_sends());
        assert!(s.buffer().is_none());
    }

    #[test]
    fn enabled_sink_records_and_clears() {
        let mut s = TraceSink::enabled(2, TraceDetail::Event);
        assert!(s.wants_sends());
        s.span(Phase::Expand, 3, 0.0, 1.0);
        s.rank_event(
            1,
            EventKind::Send {
                from: 1,
                to: 0,
                bytes: 8,
                hops: 1,
            },
            0.1,
            0.2,
        );
        let buf = s.buffer().unwrap();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.world_events().len(), 1);
        s.clear_events();
        assert!(s.buffer().unwrap().is_empty());
        assert!(s.is_enabled());
    }

    #[test]
    fn span_detail_suppresses_send_events() {
        let s = TraceSink::enabled(1, TraceDetail::Span);
        assert!(s.is_enabled());
        assert!(!s.wants_sends());
        assert_eq!(s.detail(), Some(TraceDetail::Span));
        assert_eq!(TraceDetail::parse("span"), Some(TraceDetail::Span));
        assert_eq!(TraceDetail::parse("event"), Some(TraceDetail::Event));
        assert_eq!(TraceDetail::parse("bogus"), None);
    }
}
