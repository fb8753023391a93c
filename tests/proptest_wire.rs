//! Property-based checks on the wire codec (`bgl_comm::wire`): every
//! frame decodes back to exactly the payload it encoded, the declared
//! [`WireMeasure`] is the exact frame length, and the adaptive chooser
//! never ships more than the raw vertex list plus its declared header
//! bound.

use bgl_bfs::comm::wire::{self, HEADER_BOUND};
use bgl_bfs::comm::VERT_BYTES;
use bgl_bfs::{WireMode, WirePolicy};
use proptest::prelude::*;

fn any_mode() -> impl Strategy<Value = WireMode> {
    prop_oneof![
        Just(WireMode::Raw),
        Just(WireMode::Delta),
        Just(WireMode::Bitmap),
        Just(WireMode::Auto),
    ]
}

/// Sorted, deduplicated vertex sets — the shape every BFS exchange
/// actually ships. Values are folded into a bounded range so bitmap
/// framing gets exercised at many densities.
fn sorted_set(max_len: usize, span: u64) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0..span, 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode ∘ decode is the identity on sorted vertex sets, under
    /// every mode.
    #[test]
    fn roundtrip_on_sorted_sets(
        payload in sorted_set(300, 100_000),
        mode in any_mode(),
    ) {
        let policy = WirePolicy::with_mode(mode);
        let frame = wire::encode(&payload, &policy);
        prop_assert_eq!(wire::decode(&frame), Some(payload));
    }

    /// Dense sets (small span) push the chooser into bitmap/RLE frames;
    /// the roundtrip must still be exact.
    #[test]
    fn roundtrip_on_dense_sets(
        payload in sorted_set(300, 512),
        mode in any_mode(),
    ) {
        let policy = WirePolicy::with_mode(mode);
        let frame = wire::encode(&payload, &policy);
        prop_assert_eq!(wire::decode(&frame), Some(payload));
    }

    /// The codec tolerates arbitrary (unsorted, duplicated) payloads by
    /// falling back to list frames — decode is still exact, order and
    /// multiplicity preserved.
    #[test]
    fn roundtrip_on_arbitrary_payloads(
        payload in proptest::collection::vec(any::<u64>(), 0..120),
        mode in any_mode(),
    ) {
        let policy = WirePolicy::with_mode(mode);
        let frame = wire::encode(&payload, &policy);
        prop_assert_eq!(wire::decode(&frame), Some(payload));
    }

    /// `measure` predicts the exact encoded frame length, and its
    /// logical size is always `count * VERT_BYTES`.
    #[test]
    fn measure_is_exact(
        payload in sorted_set(300, 20_000),
        mode in any_mode(),
    ) {
        let policy = WirePolicy::with_mode(mode);
        let m = wire::measure(&payload, &policy);
        prop_assert_eq!(m.logical_bytes, payload.len() as u64 * VERT_BYTES);
        if policy.is_raw() {
            // Codec off: no framing at all, wire == logical.
            prop_assert_eq!(m.wire_bytes, m.logical_bytes);
        } else {
            prop_assert_eq!(m.wire_bytes, wire::encode(&payload, &policy).len() as u64);
        }
    }

    /// The adaptive chooser never exceeds the raw vertex list by more
    /// than the declared `HEADER_BOUND`, on any payload whatsoever.
    #[test]
    fn auto_never_beats_raw_by_more_than_header(
        payload in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let m = wire::measure(&payload, &WirePolicy::auto());
        prop_assert!(m.wire_bytes <= m.logical_bytes + HEADER_BOUND);
    }
}
