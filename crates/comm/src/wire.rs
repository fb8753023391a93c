//! Adaptive wire codecs for exchange payloads.
//!
//! The collectives ship sorted vertex lists almost exclusively, and
//! sorted lists compress well: delta+varint encoding exploits small
//! gaps (Lv et al., "Compression and Sieve"), and dense frontiers are
//! cheaper still as bitmaps (Buluç & Madduri). This module implements
//! four frame formats — raw list, delta+varint, fixed-range bitmap and
//! run-length bitmap — plus a density-driven adaptive chooser in the
//! same style as [`crate::VsetPolicy`]'s list/bitmap switch.
//!
//! **Determinism contract.** The format choice is a *pure function of
//! the payload content and the policy* — deliberately stateless, unlike
//! `VsetPolicy`'s keeps-band hysteresis. The superstep simulator
//! processes sends in a global order while the threaded runtime
//! processes them per rank; any cross-message state would make the two
//! runtimes pick different formats for the same message and break the
//! bit-identity the equivalence suite pins. The density threshold is
//! the vertex sets' own (`count ≥ 64` and `count << 6 >= span`); the
//! hysteresis band cannot exist on the wire.
//!
//! The simulator never materializes frames: [`measure`] returns the
//! exact encoded size ([`measure_iter`] that of a concatenation of
//! pieces, without building it), and [`encode`] (used by the threaded
//! runtime, which really ships bytes) is guaranteed to produce exactly
//! that many bytes for the same payload and policy — the property tests
//! pin this.

use crate::vset::dense_enough;
use crate::{Vert, VERT_BYTES};
use serde::{Deserialize, Serialize};

/// Which codec family the world applies to exchange payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WireMode {
    /// Codec off: payloads ship as raw vertex words with no framing.
    /// Wire bytes equal logical bytes and no encode/decode time is
    /// charged — bit-identical to the pre-codec behavior.
    #[default]
    Raw,
    /// Density-adaptive per-message choice among all four formats.
    Auto,
    /// Force delta+varint (raw fallback for unsorted payloads).
    Delta,
    /// Force a bitmap format (delta/raw fallback where invalid).
    Bitmap,
}

impl WireMode {
    /// Parse a CLI-style name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "raw" => Some(Self::Raw),
            "auto" => Some(Self::Auto),
            "delta" => Some(Self::Delta),
            "bitmap" => Some(Self::Bitmap),
            _ => None,
        }
    }

    /// The CLI-style name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Raw => "raw",
            Self::Auto => "auto",
            Self::Delta => "delta",
            Self::Bitmap => "bitmap",
        }
    }
}

/// Wire-codec policy. The adaptive chooser picks a bitmap frame by the
/// vertex sets' density rule: at least 64 vertices (below that the
/// framing overhead dominates) and ≥ 1 vertex per 64 slots, i.e. ≥ 1
/// set bit per bitmap word on average.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WirePolicy {
    /// Codec family.
    pub mode: WireMode,
}

impl WirePolicy {
    /// Codec off (the default): raw words, no framing, no charge.
    pub fn raw() -> Self {
        Self::with_mode(WireMode::Raw)
    }

    /// The density-adaptive chooser.
    pub fn auto() -> Self {
        Self::with_mode(WireMode::Auto)
    }

    /// A policy with the given mode.
    pub fn with_mode(mode: WireMode) -> Self {
        Self { mode }
    }

    /// Whether the codec layer is off entirely.
    pub fn is_raw(&self) -> bool {
        self.mode == WireMode::Raw
    }
}

impl Default for WirePolicy {
    fn default() -> Self {
        Self::raw()
    }
}

/// One frame format (the tag byte on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireFormat {
    /// Tag 0: varint count, then `count` 8-byte LE words.
    Raw,
    /// Tag 1: varint count, varint first value, then varint deltas.
    /// Valid for non-decreasing payloads (delta 0 carries duplicates).
    Delta,
    /// Tag 2: varint count, varint first value, varint word count, then
    /// a fixed-range bitmap of offsets. Valid for strictly increasing
    /// payloads.
    Bitmap,
    /// Tag 3: varint count, varint first value, then alternating
    /// varint run-length / gap pairs. Valid for strictly increasing
    /// payloads; wins on clustered sets.
    Rle,
}

impl WireFormat {
    fn tag(self) -> u8 {
        match self {
            Self::Raw => 0,
            Self::Delta => 1,
            Self::Bitmap => 2,
            Self::Rle => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Self::Raw),
            1 => Some(Self::Delta),
            2 => Some(Self::Bitmap),
            3 => Some(Self::Rle),
            _ => None,
        }
    }

    /// Display name (stats/CLI).
    pub fn name(self) -> &'static str {
        match self {
            Self::Raw => "raw",
            Self::Delta => "delta",
            Self::Bitmap => "bitmap",
            Self::Rle => "rle",
        }
    }
}

/// Frame-header bound: tag byte plus a maximal varint count. The
/// adaptive chooser never exceeds the raw *payload* size (8 bytes per
/// vertex) by more than this.
pub const HEADER_BOUND: u64 = 1 + MAX_VARINT_LEN;

/// A varint never exceeds 10 bytes for a 64-bit value.
const MAX_VARINT_LEN: u64 = 10;

/// The exact wire accounting for one payload under one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMeasure {
    /// Chosen frame format.
    pub format: WireFormat,
    /// Exact encoded frame size in bytes ([`encode`] produces exactly
    /// this many).
    pub wire_bytes: u64,
    /// Uncompressed payload size: `count * VERT_BYTES`.
    pub logical_bytes: u64,
}

/// Encoded LEB128 length of `v`.
fn varint_len(v: u64) -> u64 {
    if v == 0 {
        return 1;
    }
    (70 - u64::from(v.leading_zeros())) / 7
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7f).checked_shl(shift)?;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// One-pass payload shape scan: everything the chooser and the exact
/// size formulas need.
struct Scan {
    non_decreasing: bool,
    strictly_increasing: bool,
    /// Body bytes of a delta frame (first + deltas), valid when
    /// non-decreasing.
    delta_body: u64,
    /// Body bytes of an RLE frame (first + run/gap varints), valid when
    /// strictly increasing.
    rle_body: u64,
    first: Vert,
    last: Vert,
}

fn scan(verts: impl IntoIterator<Item = Vert>) -> Scan {
    let mut s = Scan {
        non_decreasing: true,
        strictly_increasing: true,
        delta_body: 0,
        rle_body: 0,
        first: 0,
        last: 0,
    };
    let mut verts = verts.into_iter();
    let Some(first) = verts.next() else {
        return s;
    };
    s.first = first;
    s.delta_body = varint_len(first);
    s.rle_body = varint_len(first);
    let mut prev = first;
    let mut run = 1u64;
    for v in verts {
        if v < prev {
            s.non_decreasing = false;
            s.strictly_increasing = false;
            break;
        }
        if v == prev {
            s.strictly_increasing = false;
        }
        s.delta_body += varint_len(v - prev);
        if v == prev.wrapping_add(1) {
            run += 1;
        } else if v > prev {
            s.rle_body += varint_len(run) + varint_len(v - prev - 1);
            run = 1;
        }
        prev = v;
    }
    s.last = prev;
    s.rle_body += varint_len(run);
    s
}

/// Frame size of a raw-format message.
fn raw_frame_bytes(count: usize) -> u64 {
    1 + varint_len(count as u64) + count as u64 * VERT_BYTES
}

/// Bitmap words spanned by `[first, last]`.
fn bitmap_words(first: Vert, last: Vert) -> u64 {
    (last - first) / 64 + 1
}

/// Choose the frame format for `payload` under `policy` and return its
/// exact encoded size. Pure: depends only on the arguments.
///
/// [`WireMode::Raw`] (codec off) is special-cased to *logical* bytes
/// with no framing — callers should skip the codec path entirely.
pub fn measure(payload: &[Vert], policy: &WirePolicy) -> WireMeasure {
    measure_iter(payload.len(), payload.iter().copied(), policy)
}

/// [`measure`] of the payload `verts` would form if collected, without
/// building it: the measure of a concatenation of pieces can be taken
/// by chaining the pieces. `count` must be the number of items `verts`
/// yields; raw mode answers from `count` alone and never iterates.
pub fn measure_iter(
    count: usize,
    verts: impl IntoIterator<Item = Vert>,
    policy: &WirePolicy,
) -> WireMeasure {
    let logical_bytes = count as u64 * VERT_BYTES;
    if policy.is_raw() {
        return WireMeasure {
            format: WireFormat::Raw,
            wire_bytes: logical_bytes,
            logical_bytes,
        };
    }
    let (format, wire_bytes) = choose(count, verts, policy);
    WireMeasure {
        format,
        wire_bytes,
        logical_bytes,
    }
}

/// The shared chooser behind [`measure_iter`] and [`encode`]: `count`
/// items of `verts` under `policy`.
fn choose(
    count: usize,
    verts: impl IntoIterator<Item = Vert>,
    policy: &WirePolicy,
) -> (WireFormat, u64) {
    let raw = raw_frame_bytes(count);
    if count == 0 {
        return (WireFormat::Raw, raw);
    }
    let s = scan(verts);
    let header = 1 + varint_len(count as u64);
    let delta = header + s.delta_body;
    let bitmap_pair = if s.strictly_increasing {
        let words = bitmap_words(s.first, s.last);
        let fixed = header + varint_len(s.first) + varint_len(words) + words * 8;
        let rle = header + s.rle_body;
        Some(if rle < fixed {
            (WireFormat::Rle, rle)
        } else {
            (WireFormat::Bitmap, fixed)
        })
    } else {
        None
    };
    match policy.mode {
        WireMode::Raw => (WireFormat::Raw, raw),
        WireMode::Delta => {
            if s.non_decreasing {
                (WireFormat::Delta, delta)
            } else {
                (WireFormat::Raw, raw)
            }
        }
        WireMode::Bitmap => match bitmap_pair {
            Some(b) => b,
            None if s.non_decreasing => (WireFormat::Delta, delta),
            None => (WireFormat::Raw, raw),
        },
        WireMode::Auto => {
            let span = (s.last - s.first).saturating_add(1);
            let candidate = match bitmap_pair {
                Some(b) if dense_enough(count, span) => b,
                _ if s.non_decreasing => (WireFormat::Delta, delta),
                _ => (WireFormat::Raw, raw),
            };
            // The adaptive chooser never ships a frame larger than the
            // raw frame — the proptest suite pins this bound.
            if candidate.1 <= raw {
                candidate
            } else {
                (WireFormat::Raw, raw)
            }
        }
    }
}

/// Encode `payload` into a framed byte vector. The frame length always
/// equals `measure(payload, policy).wire_bytes` for non-`Raw` modes.
pub fn encode(payload: &[Vert], policy: &WirePolicy) -> Vec<u8> {
    let (format, wire_bytes) = choose(payload.len(), payload.iter().copied(), policy);
    let mut out = Vec::with_capacity(wire_bytes as usize);
    out.push(format.tag());
    push_varint(&mut out, payload.len() as u64);
    match format {
        WireFormat::Raw => {
            for &v in payload {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        WireFormat::Delta => {
            if let Some((&first, rest)) = payload.split_first() {
                push_varint(&mut out, first);
                let mut prev = first;
                for &v in rest {
                    push_varint(&mut out, v - prev);
                    prev = v;
                }
            }
        }
        WireFormat::Bitmap => {
            let first = payload[0];
            // bgl-lint: allow(r1, reason = "choose() returns Raw for empty payloads, so the Bitmap arm sees at least one element")
            let last = *payload.last().unwrap();
            let words = bitmap_words(first, last);
            push_varint(&mut out, first);
            push_varint(&mut out, words);
            let mut bits = vec![0u64; words as usize];
            for &v in payload {
                let off = v - first;
                bits[(off / 64) as usize] |= 1u64 << (off % 64);
            }
            for w in bits {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        WireFormat::Rle => {
            let first = payload[0];
            push_varint(&mut out, first);
            let mut prev = first;
            let mut run = 1u64;
            for &v in &payload[1..] {
                if v == prev + 1 {
                    run += 1;
                } else {
                    push_varint(&mut out, run);
                    push_varint(&mut out, v - prev - 1);
                    run = 1;
                }
                prev = v;
            }
            push_varint(&mut out, run);
        }
    }
    debug_assert_eq!(out.len() as u64, wire_bytes);
    out
}

/// Decode a frame produced by [`encode`]. Returns `None` on a corrupt
/// frame (bad tag, truncated body, overflowing varint).
pub fn decode(frame: &[u8]) -> Option<Vec<Vert>> {
    let mut pos = 0usize;
    let format = WireFormat::from_tag(*frame.get(pos)?)?;
    pos += 1;
    let count = read_varint(frame, &mut pos)? as usize;
    let mut out = Vec::with_capacity(count);
    match format {
        WireFormat::Raw => {
            for _ in 0..count {
                let bytes = frame.get(pos..pos + 8)?;
                out.push(Vert::from_le_bytes(bytes.try_into().ok()?));
                pos += 8;
            }
        }
        WireFormat::Delta => {
            if count > 0 {
                let mut v = read_varint(frame, &mut pos)?;
                out.push(v);
                for _ in 1..count {
                    v = v.checked_add(read_varint(frame, &mut pos)?)?;
                    out.push(v);
                }
            }
        }
        WireFormat::Bitmap => {
            let first = read_varint(frame, &mut pos)?;
            let words = read_varint(frame, &mut pos)? as usize;
            for w in 0..words {
                let bytes = frame.get(pos..pos + 8)?;
                let mut word = u64::from_le_bytes(bytes.try_into().ok()?);
                pos += 8;
                while word != 0 {
                    let bit = word.trailing_zeros() as u64;
                    out.push(first.checked_add(w as u64 * 64 + bit)?);
                    word &= word - 1;
                }
            }
            if out.len() != count {
                return None;
            }
        }
        WireFormat::Rle => {
            if count > 0 {
                let mut v = read_varint(frame, &mut pos)?;
                loop {
                    let run = read_varint(frame, &mut pos)?;
                    for _ in 0..run {
                        out.push(v);
                        v = v.checked_add(1)?;
                    }
                    if out.len() >= count {
                        break;
                    }
                    let gap = read_varint(frame, &mut pos)?;
                    v = v.checked_add(gap)?;
                }
                if out.len() != count {
                    return None;
                }
            }
        }
    }
    if pos != frame.len() {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(payload: &[Vert], policy: &WirePolicy) -> WireFormat {
        let frame = encode(payload, policy);
        let m = measure(payload, policy);
        assert_eq!(frame.len() as u64, m.wire_bytes, "measure must be exact");
        assert_eq!(decode(&frame).expect("decode"), payload);
        assert_eq!(m.format, {
            let (f, _) = choose(payload.len(), payload.iter().copied(), policy);
            f
        });
        m.format
    }

    #[test]
    fn trace_crate_agrees_on_vertex_width() {
        // `bgl_trace::WireSummary` converts Round vertex counts back to
        // logical bytes with its own constant (it sits below this
        // crate); the two must never drift.
        assert_eq!(crate::VERT_BYTES, bgl_trace::WIRE_VERT_BYTES);
    }

    #[test]
    fn empty_payload_roundtrips_as_raw() {
        for mode in [WireMode::Auto, WireMode::Delta, WireMode::Bitmap] {
            assert_eq!(
                roundtrip(&[], &WirePolicy::with_mode(mode)),
                WireFormat::Raw
            );
        }
    }

    #[test]
    fn sparse_sorted_set_picks_delta() {
        let payload: Vec<Vert> = (0..100).map(|i| i * 1000 + 7).collect();
        assert_eq!(roundtrip(&payload, &WirePolicy::auto()), WireFormat::Delta);
    }

    #[test]
    fn dense_set_picks_a_bitmap_family() {
        // Every other slot of a small span: density 1/2 ≫ 1/64.
        let payload: Vec<Vert> = (0..512).map(|i| 10_000 + 2 * i).collect();
        let f = roundtrip(&payload, &WirePolicy::auto());
        assert!(matches!(f, WireFormat::Bitmap | WireFormat::Rle), "{f:?}");
    }

    #[test]
    fn clustered_runs_pick_rle() {
        // A few long runs with huge gaps: RLE beats the fixed bitmap.
        let mut payload = Vec::new();
        for base in [0u64, 1 << 20, 1 << 30] {
            payload.extend(base..base + 200);
        }
        // Force the bitmap family; the chooser must take RLE (the fixed
        // bitmap would span 2^30 slots).
        assert_eq!(
            roundtrip(&payload, &WirePolicy::with_mode(WireMode::Bitmap)),
            WireFormat::Rle
        );
    }

    #[test]
    fn unsorted_payload_falls_back_to_raw() {
        let payload = vec![5, 3, 9, 1];
        for mode in [WireMode::Auto, WireMode::Delta, WireMode::Bitmap] {
            assert_eq!(
                roundtrip(&payload, &WirePolicy::with_mode(mode)),
                WireFormat::Raw
            );
        }
    }

    #[test]
    fn duplicates_survive_delta_but_not_bitmaps() {
        let payload = vec![4, 4, 7, 7, 7, 9];
        assert_eq!(roundtrip(&payload, &WirePolicy::auto()), WireFormat::Delta);
        assert_eq!(
            roundtrip(&payload, &WirePolicy::with_mode(WireMode::Bitmap)),
            WireFormat::Delta
        );
    }

    #[test]
    fn auto_never_exceeds_raw_frame() {
        let adversarial: Vec<Vec<Vert>> = vec![
            vec![],
            vec![u64::MAX],
            vec![0, u64::MAX],
            (0..64).map(|i| i * (1 << 50)).collect(),
            vec![9, 8, 7],
        ];
        for payload in &adversarial {
            let m = measure(payload, &WirePolicy::auto());
            assert!(
                m.wire_bytes <= payload.len() as u64 * VERT_BYTES + HEADER_BOUND,
                "{payload:?} -> {m:?}"
            );
        }
    }

    #[test]
    fn raw_mode_measures_logical_bytes_unframed() {
        let payload = vec![1, 2, 3];
        let m = measure(&payload, &WirePolicy::raw());
        assert_eq!(m.wire_bytes, 24);
        assert_eq!(m.logical_bytes, 24);
    }

    #[test]
    fn measure_iter_measures_a_chain_of_pieces() {
        // An empty piece, a value repeated across a boundary, and a
        // decrease at the last boundary.
        let pieces: [&[Vert]; 4] = [&[5, 6, 7, 7], &[], &[7, 300, 301], &[2, 3]];
        for mode in [
            WireMode::Raw,
            WireMode::Delta,
            WireMode::Bitmap,
            WireMode::Auto,
        ] {
            let policy = WirePolicy::with_mode(mode);
            for n in 0..=pieces.len() {
                let whole = pieces[..n].concat();
                let chained = pieces[..n].iter().flat_map(|p| p.iter().copied());
                assert_eq!(
                    measure_iter(whole.len(), chained, &policy),
                    measure(&whole, &policy),
                    "{mode:?}, {n} pieces"
                );
            }
        }
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert_eq!(buf.len() as u64, varint_len(v), "v={v}");
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&[9, 0]), None); // bad tag
        assert_eq!(decode(&[0, 2, 1, 0, 0, 0, 0, 0, 0, 0]), None); // short
        let mut frame = encode(&[1, 2, 3], &WirePolicy::auto());
        frame.push(0); // trailing garbage
        assert_eq!(decode(&frame), None);
    }

    #[test]
    fn compression_pays_on_bfs_shaped_payloads() {
        // Contiguous owner-block destinations, the fold-message shape.
        let payload: Vec<Vert> = (50_000..58_000).filter(|v| v % 3 != 0).collect();
        let m = measure(&payload, &WirePolicy::auto());
        assert!(
            m.wire_bytes * 4 <= m.logical_bytes,
            "expected >=4x on dense sorted payloads, got {} vs {}",
            m.wire_bytes,
            m.logical_bytes
        );
    }
}
