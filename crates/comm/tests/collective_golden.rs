//! Golden pins for every public collective.
//!
//! Each case runs one collective twice in a fresh traced [`SimWorld`]
//! (so the second call runs on the clocks, counters and round numbers
//! the first left behind) and pins, bit for bit, what the simulation
//! produced: the four clocks, the whole `CommStats`, the event-level
//! trace, and the returned values. The cases cover the rows and the
//! strided columns of a 4×6 grid and one uneven, out-of-order partition
//! with groups of 1, 5 and 6 ranks (an idle group, an m = 1 two-phase
//! ring and a 2×3 subgrid), each under the raw and the adaptive wire
//! codec. Inputs are seeded, and some payloads are dense enough to
//! densify the union accumulators and to travel as bitmap frames. A
//! second table pins the ring collectives on a lossy fabric (drops,
//! truncations and duplicates), so their retransmit charges are pinned
//! too: a truncated attempt re-charges the message's whole wire size.
//!
//! A refactor of the collectives must leave this table unchanged. A
//! deliberate behaviour change regenerates it from the `actual` table
//! the failing assertion prints.

use bgl_comm::collectives::{
    allgather::allgather_ring,
    alltoall::{alltoallv, SendList},
    lane::{lane_alltoallv, lane_exchange, LaneSendList},
    reduce_scatter::reduce_scatter_union_ring,
    two_phase::{two_phase_expand, two_phase_fold},
    Groups,
};
use bgl_comm::{
    FaultPlan, LaneSet, OpClass, ProcessorGrid, SimWorld, TraceDetail, Vert, WirePolicy,
};

/// splitmix64: a tiny seeded generator, stable across platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Up to `max_len` distinct vertices drawn from `lo..lo + span`,
    /// sorted.
    fn sparse(&mut self, lo: Vert, span: u64, max_len: u64) -> Vec<Vert> {
        let len = self.below(max_len + 1);
        let mut v: Vec<Vert> = (0..len).map(|_| lo + self.below(span)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// About three quarters of `lo..lo + span`, sorted: dense enough to
    /// densify a union accumulator and to ride bitmap wire frames.
    fn dense(&mut self, lo: Vert, span: u64) -> Vec<Vert> {
        (lo..lo + span).filter(|_| self.below(4) != 0).collect()
    }
}

/// 64-bit FNV-1a.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rank-disjoint contributions (rank `r` draws from `r·1024..`), like
/// owned frontiers; every fifth rank is dense.
fn contributions(rng: &mut Rng, p: usize) -> Vec<Vec<Vert>> {
    (0..p)
        .map(|r| {
            let lo = r as Vert * 1024;
            if r % 5 == 0 {
                rng.dense(lo, 1024)
            } else {
                rng.sparse(lo, 1024, 24)
            }
        })
        .collect()
}

/// Union-fold blocks: `blocks[rank][j]` overlaps across ranks (so the
/// unions eliminate duplicates), and every block for position 0 is
/// dense.
fn blocks(rng: &mut Rng, groups: &Groups) -> Vec<Vec<Vec<Vert>>> {
    (0..groups.ranks())
        .map(|rank| {
            (0..groups.group_of(rank).len())
                .map(|j| {
                    if j == 0 {
                        rng.dense(0, 256)
                    } else {
                        rng.sparse(j as Vert * 4096, 512, 12)
                    }
                })
                .collect()
        })
        .collect()
}

/// Targeted sends to a random subset of each rank's group (itself
/// included), some of them empty and one in eight dense.
fn send_lists(rng: &mut Rng, groups: &Groups) -> Vec<SendList> {
    (0..groups.ranks())
        .map(|rank| {
            groups
                .group_of(rank)
                .iter()
                .filter_map(|&to| {
                    if rng.below(2) == 0 {
                        return None;
                    }
                    let payload = if rng.below(8) == 0 {
                        rng.dense(to as Vert * 2048, 1024)
                    } else {
                        rng.sparse(to as Vert * 2048, 2048, 16)
                    };
                    Some((to, payload))
                })
                .collect()
        })
        .collect()
}

fn lane_set(rng: &mut Rng, lo: Vert) -> LaneSet {
    let len = rng.below(10);
    LaneSet::from_pairs(
        (0..len)
            .map(|_| (lo + rng.below(256), rng.next() | 1))
            .collect(),
    )
}

fn lane_send_lists(rng: &mut Rng, groups: &Groups) -> Vec<LaneSendList> {
    (0..groups.ranks())
        .map(|rank| {
            groups
                .group_of(rank)
                .iter()
                .filter_map(|&to| {
                    if rng.below(2) == 0 {
                        return None;
                    }
                    Some((to, lane_set(rng, to as Vert * 512)))
                })
                .collect()
        })
        .collect()
}

/// Point-to-point lane sends between arbitrary ranks, repeated pairs
/// included.
fn lane_pairs(rng: &mut Rng, p: usize) -> Vec<(usize, usize, LaneSet)> {
    (0..2 * p)
        .map(|_| {
            let (from, to) = (rng.below(p as u64) as usize, rng.below(p as u64) as usize);
            (from, to, lane_set(rng, to as Vert * 512))
        })
        .collect()
}

/// A lossy fabric: every data round drops, truncates and duplicates
/// attempts.
fn lossy_plan() -> FaultPlan {
    FaultPlan::seeded(0x5eed)
        .with_drop_prob(0.15)
        .with_truncate_prob(0.15)
        .with_duplicate_prob(0.1)
}

/// Run `collective` twice on fresh seeded inputs and return its pinned
/// line; `lossy` runs it on [`lossy_plan`]'s fabric.
fn pin(
    collective: &str,
    groups: &Groups,
    grid: ProcessorGrid,
    wire: WirePolicy,
    lossy: bool,
) -> String {
    let mut world = SimWorld::bluegene(grid).with_wire_policy(wire);
    if lossy {
        world.set_fault_plan(lossy_plan());
    }
    world.enable_trace(TraceDetail::Event);
    let mut rng = Rng(fnv(collective) ^ groups.groups().len() as u64);
    let p = groups.ranks();
    let mut out = String::new();
    for _ in 0..2 {
        let got = match collective {
            "alltoallv" => {
                let sends = send_lists(&mut rng, groups);
                format!("{:?}", alltoallv(&mut world, OpClass::Fold, groups, sends))
            }
            "allgather_ring" => {
                let c = contributions(&mut rng, p);
                format!(
                    "{:?}",
                    allgather_ring(&mut world, OpClass::Expand, groups, c)
                )
            }
            "reduce_scatter_union_ring" => {
                let b = blocks(&mut rng, groups);
                let got = reduce_scatter_union_ring(&mut world, OpClass::Fold, groups, b);
                format!("{got:?}")
            }
            "two_phase_fold" => {
                let b = blocks(&mut rng, groups);
                format!("{:?}", two_phase_fold(&mut world, OpClass::Fold, groups, b))
            }
            "two_phase_expand" => {
                let c = contributions(&mut rng, p);
                let got = two_phase_expand(&mut world, OpClass::Expand, groups, c);
                format!("{got:?}")
            }
            "lane_alltoallv" => {
                let sends = lane_send_lists(&mut rng, groups);
                let got = lane_alltoallv(&mut world, OpClass::Fold, groups, sends);
                format!("{got:?}")
            }
            "lane_exchange" => {
                let sends = lane_pairs(&mut rng, p);
                format!("{:?}", lane_exchange(&mut world, OpClass::Fold, sends))
            }
            other => panic!("unknown collective {other}"),
        };
        out.push_str(&got);
    }
    if ["reduce_scatter_union_ring", "two_phase_fold"].contains(&collective) {
        assert!(
            world.stats.setops.densify_switches > 0,
            "{collective}: the inputs must densify a union accumulator"
        );
    }
    if lossy {
        let f = world.stats.faults;
        assert!(
            f.drops_injected > 0 && f.truncations_injected > 0 && f.duplicates_injected > 0,
            "{collective}: the lossy fabric must drop, truncate and duplicate: {f:?}"
        );
    }
    let trace = world.take_trace().expect("tracing is on");
    format!(
        "t={:016x} comm={:016x} memcpy={:016x} codec={:016x} stats={:016x} events={} trace={:016x} out={:016x}",
        world.time().to_bits(),
        world.comm_time().to_bits(),
        world.memcpy_time().to_bits(),
        world.codec_time().to_bits(),
        fnv(&format!("{:?}", world.stats)),
        trace.len(),
        fnv(&format!("{:?}", trace.events())),
        fnv(&out),
    )
}

const COLLECTIVES: [&str; 7] = [
    "alltoallv",
    "allgather_ring",
    "reduce_scatter_union_ring",
    "two_phase_fold",
    "two_phase_expand",
    "lane_alltoallv",
    "lane_exchange",
];

/// The three partitions every collective is pinned on.
fn partitions() -> [(&'static str, Groups, ProcessorGrid); 3] {
    let grid = ProcessorGrid::new(4, 6);
    let uneven_grid = ProcessorGrid::new(3, 4);
    [
        ("rows4x6", Groups::rows_of(grid), grid),
        ("cols4x6", Groups::cols_of(grid), grid),
        (
            "uneven",
            Groups::new(
                12,
                vec![vec![5], vec![11, 2, 8, 0, 6], vec![1, 10, 3, 7, 4, 9]],
            ),
            uneven_grid,
        ),
    ]
}

/// One line per collective, partition and wire codec.
fn actual_table(collectives: &[&str], lossy: bool) -> String {
    let mut table = String::new();
    for &collective in collectives {
        for (name, groups, grid) in &partitions() {
            for (wire_name, wire) in [("raw", WirePolicy::raw()), ("auto", WirePolicy::auto())] {
                let line = pin(collective, groups, *grid, wire, lossy);
                table.push_str(&format!("{collective} {name} {wire_name}: {line}\n"));
            }
        }
    }
    table
}

/// Fail with the whole actual table when any line differs.
fn check_table(actual: &str, expected: &str) {
    let stale: Vec<&str> = actual
        .lines()
        .zip(expected.lines().chain(std::iter::repeat("")))
        .filter(|(a, e)| a != e)
        .filter_map(|(a, _)| a.split(':').next())
        .collect();
    assert!(
        stale.is_empty() && actual.lines().count() == expected.lines().count(),
        "golden pins differ for {stale:?}; actual table:\n{actual}"
    );
}

const EXPECTED: &str = "\
alltoallv rows4x6 raw: t=3f1a33a077b55bce comm=3f1a33a077b55bce memcpy=0000000000000000 codec=0000000000000000 stats=6f854dcdc5822555 events=116 trace=5dcdfb4f78c1eafc out=df1cf03237890cc1
alltoallv rows4x6 auto: t=3f18cecca61dd522 comm=3eff636c73647588 memcpy=0000000000000000 codec=3f10f5f18944b7c0 stats=dfd83ec74b5285c5 events=120 trace=43ef50cbfa5fec75 out=df1cf03237890cc1
alltoallv cols4x6 raw: t=3f205c43a2c20c54 comm=3f205c43a2c20c54 memcpy=0000000000000000 codec=0000000000000000 stats=5cd47a19e7783043 events=77 trace=1bcb71b7895dc24b out=1badf1442bead914
alltoallv cols4x6 auto: t=3f1a9e0ad4e3ec60 comm=3ef5d40f2a0e58d2 memcpy=0000000000000000 codec=3f1529070a60562c stats=c379f9c0f7624642 events=81 trace=f2dd8a494b03b350 out=1badf1442bead914
alltoallv uneven raw: t=3f2056b429309fc3 comm=3f2056b429309fc3 memcpy=0000000000000000 codec=0000000000000000 stats=ce20865b574fcbcf events=41 trace=e92479d879b91212 out=7c23e8a860d0684f
alltoallv uneven auto: t=3f1b6db2416161d1 comm=3efcb8d4a3736e68 memcpy=0000000000000000 codec=3f143f7d18848637 stats=d786d400ff4ae483 events=45 trace=03d2df1f21c36bda out=7c23e8a860d0684f
allgather_ring rows4x6 raw: t=3f391ed9c74fda19 comm=3f391ed9c74fda19 memcpy=0000000000000000 codec=0000000000000000 stats=cde34ee72f90e378 events=250 trace=292dda3c77fd6813 out=72243e97a54f8313
allgather_ring rows4x6 auto: t=3f36c91a3abec2ca comm=3f04cdc26b1f07d8 memcpy=0000000000000000 codec=3f342f61ed5ae1cf stats=9d4dddbd67e8051c events=270 trace=6556e9ab034cf7bc out=72243e97a54f8313
allgather_ring cols4x6 raw: t=3f2edb7af1bee234 comm=3f2edb7af1bee234 memcpy=0000000000000000 codec=0000000000000000 stats=d358b19cd9efaaf9 events=150 trace=85d58c5f657da521 out=8da0d0446d037f69
allgather_ring cols4x6 auto: t=3f2be95e4cced964 comm=3ef85b5f461e102f memcpy=0000000000000000 codec=3f28ddf2640b175e stats=2d9d145424def779 events=162 trace=74bfc7fd6db6fe8e out=8da0d0446d037f69
allgather_ring uneven raw: t=3f3969eab07b13ce comm=3f3969eab07b13ce memcpy=0000000000000000 codec=0000000000000000 stats=e5f6d51a3a96efcd events=110 trace=bd3249660dbc8ce1 out=818b42fb05cd1d2d
allgather_ring uneven auto: t=3f370083e494200e comm=3f04fbc6e6716fe0 memcpy=0000000000000000 codec=3f34610b07c5f212 stats=4fa0bc1671a4aafc events=130 trace=ff15c1b7506b55cf out=818b42fb05cd1d2d
reduce_scatter_union_ring rows4x6 raw: t=3f2715c28c721014 comm=3f227d79cd32ece1 memcpy=3f026122fcfc8cd1 codec=0000000000000000 stats=c80593ecd35811c2 events=260 trace=87b38f6ef6b8334f out=45c54e5a1d80558e
reduce_scatter_union_ring rows4x6 auto: t=3f2594758e8c590c comm=3f01a12abecb9ad5 memcpy=3f026122fcfc8cd1 codec=3f1927c43f349e42 stats=dcedf6446138a3d1 events=280 trace=7d4346ad7da9cda5 out=45c54e5a1d80558e
reduce_scatter_union_ring cols4x6 raw: t=3f1b21f58bbf1698 comm=3f15b376a8094f22 memcpy=3ef5b9fb8ed71ddf codec=0000000000000000 stats=51c3e4a50243bd9a events=156 trace=963dd68dd9aa9948 out=f0ff713998d72b96
reduce_scatter_union_ring cols4x6 auto: t=3f195751694e09c2 comm=3ef4bff4461fe8a3 memcpy=3ef5b9fb8ed71ddf codec=3f0d71aae8209043 stats=071cc951477bd145 events=168 trace=e4096c3039a6f1b8 out=f0ff713998d72b96
reduce_scatter_union_ring uneven raw: t=3f2725a7b92d2404 comm=3f22967f70415572 memcpy=3f023ca123af3a49 codec=0000000000000000 stats=a8d7441e402ed0b8 events=120 trace=c524a94c9fa22f08 out=89d8b00f3848c152
reduce_scatter_union_ring uneven auto: t=3f25ae098a8fb2de comm=3f021682f944241c memcpy=3f023ca123af3a49 codec=3f19328106a5b689 stats=c0f15195ba3254e4 events=140 trace=9341ee635b84be76 out=89d8b00f3848c152
two_phase_fold rows4x6 raw: t=3f1d11a4f7dcb72e comm=3f166190254558b8 memcpy=3efac0534a5d79e1 codec=0000000000000000 stats=ca5f520954241c8a events=158 trace=7acf9a7bc6b63fc8 out=9324844c9feb3db3
two_phase_fold rows4x6 auto: t=3f1bd60a7f69adb4 comm=3ef7b11b7dd38f47 memcpy=3efac0534a5d79e1 codec=3f0e735d9abad6d5 stats=8efdc5701b605de4 events=170 trace=b40c012d2eba714e out=9324844c9feb3db3
two_phase_fold cols4x6 raw: t=3f12ca0e7c8f7a01 comm=3f0c4bec2a417832 memcpy=3ef290619dbaf79e codec=0000000000000000 stats=93707ed9ea5f8df2 events=106 trace=e50826aa5656a947 out=9aaa2cd9f87a16a0
two_phase_fold cols4x6 auto: t=3f11f28a905612ca comm=3eee88d7299d0762 memcpy=3ef290619dbaf79e codec=3f02faae876767ed stats=3a0c7a9c5b24b0b1 events=114 trace=54d29af73cb51187 out=9aaa2cd9f87a16a0
two_phase_fold uneven raw: t=3f27fc0ef37ca8b7 comm=3f22d31667f65e6c memcpy=3f04a3e22e19292e codec=0000000000000000 stats=b1ba9ee14ea98bf9 events=98 trace=65173dec52ec975a out=9200f6b998eb17cb
two_phase_fold uneven auto: t=3f26a47605599ff3 comm=3f0322f2734f82f5 memcpy=3f04a3e22e19292e codec=3f196581b9fee9d3 stats=085565de9859079c events=118 trace=1683e01a40741389 out=9200f6b998eb17cb
two_phase_expand rows4x6 raw: t=3f2ed711fb42b83c comm=3f2ed711fb42b83c memcpy=0000000000000000 codec=0000000000000000 stats=ab9827413f550c73 events=150 trace=508e8c6012ad3d9b out=2ce52680c0ff7569
two_phase_expand rows4x6 auto: t=3f2cd3940b21bae0 comm=3f002c6cd7e3502e memcpy=0000000000000000 codec=3f28c878d528e6d4 stats=af543df73028b6fb events=162 trace=9e32d380797ef19b out=2ce52680c0ff7569
two_phase_expand cols4x6 raw: t=3f24946de6d0e63d comm=3f24946de6d0e63d memcpy=0000000000000000 codec=0000000000000000 stats=129e1278be75b535 events=100 trace=081ff60ff609b862 out=d633d87babdf3681
two_phase_expand cols4x6 auto: t=3f2310592c2278e9 comm=3ef403484c813e1c memcpy=0000000000000000 codec=3f208ff022925126 stats=ad79a4800bfeabab events=108 trace=d5af763776fb4403 out=d633d87babdf3681
two_phase_expand uneven raw: t=3f397bf0b61d7c8d comm=3f397bf0b61d7c8d memcpy=0000000000000000 codec=0000000000000000 stats=031da186a30ee8b7 events=86 trace=5798dc1bcf003d53 out=3976684cbfbcfdf3
two_phase_expand uneven auto: t=3f40305b17c14913 comm=3f27f748b9e46dec memcpy=0000000000000000 codec=3f346511d2905b2d stats=6b458438b549b6b7 events=106 trace=b4bf2c748a0cfbd2 out=3976684cbfbcfdf3
lane_alltoallv rows4x6 raw: t=3f108253136c1260 comm=3f108253136c1260 memcpy=0000000000000000 codec=0000000000000000 stats=638be779835fadb9 events=218 trace=8866bc4d6bd1f1f4 out=aba0e519449c26fa
lane_alltoallv rows4x6 auto: t=3f111f8d0e1af5d0 comm=3f0fe07017c01026 memcpy=0000000000000000 codec=3ed2f55023aedbcb stats=b35b1f74893b507b events=222 trace=d177572f2dbbaa84 out=aba0e519449c26fa
lane_alltoallv cols4x6 raw: t=3f05decbf17f7118 comm=3f05decbf17f7118 memcpy=0000000000000000 codec=0000000000000000 stats=06531788ff4fdd6c events=124 trace=d324dfa947012968 out=bda4595e10e16a19
lane_alltoallv cols4x6 auto: t=3f06b714351c5a0a comm=3f050436a7b802f2 memcpy=0000000000000000 codec=3ecb2dd8d6457179 stats=275213e440ae78f3 events=128 trace=340816eaa92111d3 out=bda4595e10e16a19
lane_alltoallv uneven raw: t=3f0cfac9fee10384 comm=3f0cfac9fee10384 memcpy=0000000000000000 codec=0000000000000000 stats=5cf405946cf94fea events=92 trace=826dcbd69bc4b0c7 out=8be44117052f1179
lane_alltoallv uneven auto: t=3f0e40bf13136467 comm=3f0c4d74d9087bab memcpy=0000000000000000 codec=3ecf34a3a0ae8bc4 stats=78af74998ad6f90c events=96 trace=e8e09b9fd27afb6c out=8be44117052f1179
lane_exchange rows4x6 raw: t=3f107bce2c9e43a3 comm=3f107bce2c9e43a3 memcpy=0000000000000000 codec=0000000000000000 stats=6820118394093b95 events=170 trace=ea4f8e14b13de1fa out=fe9f9c693a5517e1
lane_exchange rows4x6 auto: t=3f10fe9260642b41 comm=3f100a4ba7174306 memcpy=0000000000000000 codec=3ece88d7299d0762 stats=cda7763b342654c1 events=174 trace=3d78ee994c1308df out=fe9f9c693a5517e1
lane_exchange cols4x6 raw: t=3f13fc613a01ae80 comm=3f13fc613a01ae80 memcpy=0000000000000000 codec=0000000000000000 stats=8adcc00fa12c30c6 events=168 trace=6bbe7a89702687fe out=830376b253860bd1
lane_exchange cols4x6 auto: t=3f149004f054bc45 comm=3f139e6d68e41a1c memcpy=0000000000000000 codec=3ece32f0ee144531 stats=d3d0b7f948d0f872 events=172 trace=be6e6b0fdf8e67e0 out=830376b253860bd1
lane_exchange uneven raw: t=3f107bce2c9e43a2 comm=3f107bce2c9e43a2 memcpy=0000000000000000 codec=0000000000000000 stats=547b761dec6e420c events=78 trace=818fae8f42a3824e out=c646fba11473748a
lane_exchange uneven auto: t=3f10f684cacf590c comm=3f100a4ba7174306 memcpy=0000000000000000 codec=3ecd87247702c0cf stats=ad9a50c33098a4c8 events=82 trace=f2825e82f0a2ca52 out=c646fba11473748a
";

#[test]
fn every_collective_matches_its_golden_pin() {
    check_table(&actual_table(&COLLECTIVES, false), EXPECTED);
}

/// The ring collective whose forwarded pieces carry a wire measure
/// (the all-gather) and the two-phase fold, on the lossy fabric.
const LOSSY_COLLECTIVES: [&str; 2] = ["allgather_ring", "two_phase_fold"];

const EXPECTED_LOSSY: &str = "\
allgather_ring rows4x6 raw: t=3f46a474cb3433f0 comm=3f46a474cb3433f0 memcpy=0000000000000000 codec=0000000000000000 stats=ead7c00177ebffaa events=316 trace=4f2fb00980aa6475 out=72243e97a54f8313
allgather_ring rows4x6 auto: t=3f40f163c265e575 comm=3f2b66cb2ee1d237 memcpy=0000000000000000 codec=3f342f61ed5ae1cf stats=01cc39a19ed0c826 events=336 trace=b66eddb21e24ee26 out=72243e97a54f8313
allgather_ring cols4x6 raw: t=3f410c3bb500a224 comm=3f410c3bb500a224 memcpy=0000000000000000 codec=0000000000000000 stats=2b2f6944d9a25954 events=201 trace=c38987e41d393960 out=8da0d0446d037f69
allgather_ring cols4x6 auto: t=3f39b646ed1e386d comm=3f2a8e9b7631597c memcpy=0000000000000000 codec=3f28ddf2640b175e stats=db69395bdddaadd4 events=213 trace=9ad3e58cd0c22695 out=8da0d0446d037f69
allgather_ring uneven raw: t=3f469da643a1148d comm=3f469da643a1148d memcpy=0000000000000000 codec=0000000000000000 stats=0a2d973e975bea4f events=140 trace=f5574dfb4dabf868 out=818b42fb05cd1d2d
allgather_ring uneven auto: t=3f3d3ef3d58cad9c comm=3f21bbd19b8d7716 memcpy=0000000000000000 codec=3f34610b07c5f212 stats=56385d1f847f2cd6 events=160 trace=aab236d9aa2eb4c1 out=818b42fb05cd1d2d
two_phase_fold rows4x6 raw: t=3f3d0c88d808f3a4 comm=3f3b6083a3631c05 memcpy=3efac0534a5d79e1 codec=0000000000000000 stats=0a077b03f5112955 events=194 trace=5f5dd19346ef1c45 out=9324844c9feb3db3
two_phase_fold rows4x6 auto: t=3f3d7fb8dcb9a00b comm=3f380547f4bc6d90 memcpy=3efac0534a5d79e1 codec=3f0e735d9abad6d5 stats=a823c7c1bb450b3f events=206 trace=ef80c97a38568201 out=9324844c9feb3db3
two_phase_fold cols4x6 raw: t=3f35a5c5f68c502f comm=3f347cbfdcb0a0b5 memcpy=3ef290619dbaf79e codec=0000000000000000 stats=6670dc93676d1d3d events=126 trace=1200305c0fbc6ee2 out=9aaa2cd9f87a16a0
two_phase_fold cols4x6 auto: t=3f363500b66333fb comm=3f32aca4cb9a9783 memcpy=3ef290619dbaf79e codec=3f02faae876767ed stats=661c511b861b3e70 events=134 trace=a7b99d9a798d2c2d out=9aaa2cd9f87a16a0
two_phase_fold uneven raw: t=3f3fca2377b94dbd comm=3f3d35a731f62897 memcpy=3f04a3e22e19292e codec=0000000000000000 stats=3842c4c340d9c352 events=119 trace=a0b18bf4af6441c2 out=9200f6b998eb17cb
two_phase_fold uneven auto: t=3f40665fa90cdf30 comm=3f37dee29dd6dec4 memcpy=3f04a3e22e19292e codec=3f196581b9fee9d3 stats=747f9a7d352a4a59 events=139 trace=255a119af202f7ed out=9200f6b998eb17cb
";

#[test]
fn ring_collectives_match_their_golden_pins_on_a_lossy_fabric() {
    check_table(&actual_table(&LOSSY_COLLECTIVES, true), EXPECTED_LOSSY);
}
