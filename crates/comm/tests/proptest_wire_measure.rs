//! Property-based check of `wire::measure_iter`: the measure of a chain
//! of pieces equals `wire::measure` of the pieces concatenated, under
//! every wire mode. Pieces may be empty, may repeat values inside and
//! across pieces, and may start below where the previous piece ended.

use bgl_comm::wire;
use bgl_comm::{Vert, WireMode, WirePolicy};
use proptest::prelude::*;

fn any_mode() -> impl Strategy<Value = WireMode> {
    prop_oneof![
        Just(WireMode::Raw),
        Just(WireMode::Delta),
        Just(WireMode::Bitmap),
        Just(WireMode::Auto),
    ]
}

/// Up to eight non-decreasing pieces, each a start plus running gaps
/// (a gap of 0 repeats a value, a gap of 1 extends a run). `chained`
/// pieces start at or after the previous piece's end, so the whole
/// concatenation is sorted; otherwise each starts anywhere below 4096,
/// which often drops below the previous piece's end.
fn pieces() -> impl Strategy<Value = Vec<Vec<Vert>>> {
    (
        prop::collection::vec((0u64..4096, prop::collection::vec(0u64..80, 0..48)), 0..8),
        any::<bool>(),
    )
        .prop_map(|(parts, chained)| {
            let mut end = 0;
            parts
                .into_iter()
                .map(|(start, gaps)| {
                    let mut v = if chained { end + start % 64 } else { start };
                    let piece: Vec<Vert> = std::iter::once(0)
                        .chain(gaps)
                        .map(|gap| {
                            v += gap;
                            v
                        })
                        .collect();
                    end = v;
                    piece
                })
                .map(|mut piece| {
                    // Some pieces are empty.
                    if piece.len() % 5 == 4 {
                        piece.clear();
                    }
                    piece
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn measure_of_a_chain_is_the_measure_of_its_concatenation(
        pieces in pieces(),
        mode in any_mode(),
    ) {
        let policy = WirePolicy::with_mode(mode);
        let concatenated: Vec<Vert> = pieces.concat();
        let chained = wire::measure_iter(
            concatenated.len(),
            pieces.iter().flatten().copied(),
            &policy,
        );
        prop_assert_eq!(chained, wire::measure(&concatenated, &policy));
    }
}
