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
//! truncations, duplicates and one dead link), so their retransmit and
//! detour charges are pinned too: a truncated attempt re-charges the
//! message's whole wire size.
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
/// attempts, and the torus link between the first pair of ring
/// neighbours in `groups` that sit on adjacent nodes is dead.
fn lossy_plan(world: &SimWorld, groups: &Groups) -> FaultPlan {
    let dims = world.cost_model().machine().dims;
    let adjacent = |a: usize, b: usize| {
        let (a, b) = (world.mapping().coord_of(a), world.mapping().coord_of(b));
        let steps: usize = (0..3)
            .map(|d| {
                let n = dims.extent(d);
                let diff = (a.component(d) + n - b.component(d)) % n;
                diff.min(n - diff)
            })
            .sum();
        steps == 1
    };
    let (from, to) = groups
        .groups()
        .iter()
        .flat_map(|g| (0..g.len()).map(move |i| (g[i], g[(i + 1) % g.len()])))
        .find(|&(a, b)| a != b && adjacent(a, b))
        .expect("some ring neighbours sit on adjacent nodes");
    FaultPlan::seeded(0x5eed)
        .with_drop_prob(0.15)
        .with_truncate_prob(0.15)
        .with_duplicate_prob(0.1)
        .kill_link(world.mapping().coord_of(from), world.mapping().coord_of(to))
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
        let plan = lossy_plan(&world, groups);
        world.set_fault_plan(plan);
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
            f.drops_injected > 0
                && f.truncations_injected > 0
                && f.duplicates_injected > 0
                && f.detour_hops > 0,
            "{collective}: the lossy fabric must drop, truncate, duplicate and detour: {f:?}"
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
alltoallv rows4x6 raw: t=3f1a33a077b55bce comm=3f1a33a077b55bce memcpy=0000000000000000 codec=0000000000000000 stats=80db78c682273165 events=116 trace=5dcdfb4f78c1eafc out=df1cf03237890cc1
alltoallv rows4x6 auto: t=3f18cecca61dd522 comm=3eff636c73647588 memcpy=0000000000000000 codec=3f10f5f18944b7c0 stats=2212d7a25a9f0c55 events=120 trace=43ef50cbfa5fec75 out=df1cf03237890cc1
alltoallv cols4x6 raw: t=3f205c43a2c20c54 comm=3f205c43a2c20c54 memcpy=0000000000000000 codec=0000000000000000 stats=ef1e2188ef82dcfb events=77 trace=1bcb71b7895dc24b out=1badf1442bead914
alltoallv cols4x6 auto: t=3f1a9e0ad4e3ec60 comm=3ef5d40f2a0e58d2 memcpy=0000000000000000 codec=3f1529070a60562c stats=137647e01133c196 events=81 trace=f2dd8a494b03b350 out=1badf1442bead914
alltoallv uneven raw: t=3f2056b429309fc3 comm=3f2056b429309fc3 memcpy=0000000000000000 codec=0000000000000000 stats=893ba11cfc61f227 events=41 trace=e92479d879b91212 out=7c23e8a860d0684f
alltoallv uneven auto: t=3f1b6db2416161d1 comm=3efcb8d4a3736e68 memcpy=0000000000000000 codec=3f143f7d18848637 stats=09db0817d2aa0bbb events=45 trace=03d2df1f21c36bda out=7c23e8a860d0684f
allgather_ring rows4x6 raw: t=3f391ed9c74fda19 comm=3f391ed9c74fda19 memcpy=0000000000000000 codec=0000000000000000 stats=29583be2bc2cacac events=250 trace=292dda3c77fd6813 out=72243e97a54f8313
allgather_ring rows4x6 auto: t=3f36c91a3abec2ca comm=3f04cdc26b1f07d8 memcpy=0000000000000000 codec=3f342f61ed5ae1cf stats=b3e3807cfa68dfc0 events=270 trace=6556e9ab034cf7bc out=72243e97a54f8313
allgather_ring cols4x6 raw: t=3f2edb7af1bee234 comm=3f2edb7af1bee234 memcpy=0000000000000000 codec=0000000000000000 stats=a25eacfdcab12329 events=150 trace=85d58c5f657da521 out=8da0d0446d037f69
allgather_ring cols4x6 auto: t=3f2be95e4cced964 comm=3ef85b5f461e102f memcpy=0000000000000000 codec=3f28ddf2640b175e stats=bdd018dd071f8fa9 events=162 trace=74bfc7fd6db6fe8e out=8da0d0446d037f69
allgather_ring uneven raw: t=3f3969eab07b13ce comm=3f3969eab07b13ce memcpy=0000000000000000 codec=0000000000000000 stats=b700fc567e7eca1d events=110 trace=bd3249660dbc8ce1 out=818b42fb05cd1d2d
allgather_ring uneven auto: t=3f370083e494200e comm=3f04fbc6e6716fe0 memcpy=0000000000000000 codec=3f34610b07c5f212 stats=736d4f982b6779e0 events=130 trace=ff15c1b7506b55cf out=818b42fb05cd1d2d
reduce_scatter_union_ring rows4x6 raw: t=3f2715c28c721014 comm=3f227d79cd32ece1 memcpy=3f026122fcfc8cd1 codec=0000000000000000 stats=59424cc82f8ff886 events=260 trace=87b38f6ef6b8334f out=45c54e5a1d80558e
reduce_scatter_union_ring rows4x6 auto: t=3f2594758e8c590c comm=3f01a12abecb9ad5 memcpy=3f026122fcfc8cd1 codec=3f1927c43f349e42 stats=1f43fb2faf244ac1 events=280 trace=7d4346ad7da9cda5 out=45c54e5a1d80558e
reduce_scatter_union_ring cols4x6 raw: t=3f1b21f58bbf1698 comm=3f15b376a8094f22 memcpy=3ef5b9fb8ed71ddf codec=0000000000000000 stats=00ac37e5a03f6a0a events=156 trace=963dd68dd9aa9948 out=f0ff713998d72b96
reduce_scatter_union_ring cols4x6 auto: t=3f195751694e09c2 comm=3ef4bff4461fe8a3 memcpy=3ef5b9fb8ed71ddf codec=3f0d71aae8209043 stats=ee8e251de246f5f9 events=168 trace=e4096c3039a6f1b8 out=f0ff713998d72b96
reduce_scatter_union_ring uneven raw: t=3f2725a7b92d2404 comm=3f22967f70415572 memcpy=3f023ca123af3a49 codec=0000000000000000 stats=8ffbba31fdadd374 events=120 trace=c524a94c9fa22f08 out=89d8b00f3848c152
reduce_scatter_union_ring uneven auto: t=3f25ae098a8fb2de comm=3f021682f944241c memcpy=3f023ca123af3a49 codec=3f19328106a5b689 stats=51e092a28f3c7530 events=140 trace=9341ee635b84be76 out=89d8b00f3848c152
two_phase_fold rows4x6 raw: t=3f1d11a4f7dcb72e comm=3f166190254558b8 memcpy=3efac0534a5d79e1 codec=0000000000000000 stats=5577ced262d274fe events=158 trace=7acf9a7bc6b63fc8 out=9324844c9feb3db3
two_phase_fold rows4x6 auto: t=3f1bd60a7f69adb4 comm=3ef7b11b7dd38f47 memcpy=3efac0534a5d79e1 codec=3f0e735d9abad6d5 stats=fada25a70910f1f8 events=170 trace=b40c012d2eba714e out=9324844c9feb3db3
two_phase_fold cols4x6 raw: t=3f12ca0e7c8f7a01 comm=3f0c4bec2a417832 memcpy=3ef290619dbaf79e codec=0000000000000000 stats=3bbeb1d0224c85e2 events=106 trace=e50826aa5656a947 out=9aaa2cd9f87a16a0
two_phase_fold cols4x6 auto: t=3f11f28a905612ca comm=3eee88d7299d0762 memcpy=3ef290619dbaf79e codec=3f02faae876767ed stats=d2efe9e6e6c4b63d events=114 trace=54d29af73cb51187 out=9aaa2cd9f87a16a0
two_phase_fold uneven raw: t=3f27fc0ef37ca8b7 comm=3f22d31667f65e6c memcpy=3f04a3e22e19292e codec=0000000000000000 stats=10cc4fa49856e2e5 events=98 trace=65173dec52ec975a out=9200f6b998eb17cb
two_phase_fold uneven auto: t=3f26a47605599ff3 comm=3f0322f2734f82f5 memcpy=3f04a3e22e19292e codec=3f196581b9fee9d3 stats=0065ee5e9751dd4c events=118 trace=1683e01a40741389 out=9200f6b998eb17cb
two_phase_expand rows4x6 raw: t=3f2ed711fb42b83c comm=3f2ed711fb42b83c memcpy=0000000000000000 codec=0000000000000000 stats=6943149faa06226b events=150 trace=508e8c6012ad3d9b out=2ce52680c0ff7569
two_phase_expand rows4x6 auto: t=3f2cd3940b21bae0 comm=3f002c6cd7e3502e memcpy=0000000000000000 codec=3f28c878d528e6d4 stats=b9a1e443b6a1b793 events=162 trace=9e32d380797ef19b out=2ce52680c0ff7569
two_phase_expand cols4x6 raw: t=3f24946de6d0e63d comm=3f24946de6d0e63d memcpy=0000000000000000 codec=0000000000000000 stats=558eb29449daff05 events=100 trace=081ff60ff609b862 out=d633d87babdf3681
two_phase_expand cols4x6 auto: t=3f2310592c2278e9 comm=3ef403484c813e1c memcpy=0000000000000000 codec=3f208ff022925126 stats=021836c5ad6323c3 events=108 trace=d5af763776fb4403 out=d633d87babdf3681
two_phase_expand uneven raw: t=3f397bf0b61d7c8d comm=3f397bf0b61d7c8d memcpy=0000000000000000 codec=0000000000000000 stats=de57502319621f2f events=86 trace=5798dc1bcf003d53 out=3976684cbfbcfdf3
two_phase_expand uneven auto: t=3f40305b17c14913 comm=3f27f748b9e46dec memcpy=0000000000000000 codec=3f346511d2905b2d stats=52855d2c23a06d2f events=106 trace=b4bf2c748a0cfbd2 out=3976684cbfbcfdf3
lane_alltoallv rows4x6 raw: t=3f108253136c1260 comm=3f108253136c1260 memcpy=0000000000000000 codec=0000000000000000 stats=0f7c22136d674c69 events=218 trace=8866bc4d6bd1f1f4 out=aba0e519449c26fa
lane_alltoallv rows4x6 auto: t=3f111f8d0e1af5d0 comm=3f0fe07017c01026 memcpy=0000000000000000 codec=3ed2f55023aedbcb stats=9b89015c2a3eb113 events=222 trace=d177572f2dbbaa84 out=aba0e519449c26fa
lane_alltoallv cols4x6 raw: t=3f05decbf17f7118 comm=3f05decbf17f7118 memcpy=0000000000000000 codec=0000000000000000 stats=a98df27dc5be19d0 events=124 trace=d324dfa947012968 out=bda4595e10e16a19
lane_alltoallv cols4x6 auto: t=3f06b714351c5a0a comm=3f050436a7b802f2 memcpy=0000000000000000 codec=3ecb2dd8d6457179 stats=cee37586ca66aeeb events=128 trace=340816eaa92111d3 out=bda4595e10e16a19
lane_alltoallv uneven raw: t=3f0cfac9fee10384 comm=3f0cfac9fee10384 memcpy=0000000000000000 codec=0000000000000000 stats=9b58fa37d199133e events=92 trace=826dcbd69bc4b0c7 out=8be44117052f1179
lane_alltoallv uneven auto: t=3f0e40bf13136467 comm=3f0c4d74d9087bab memcpy=0000000000000000 codec=3ecf34a3a0ae8bc4 stats=1f801feaed2f61b0 events=96 trace=e8e09b9fd27afb6c out=8be44117052f1179
lane_exchange rows4x6 raw: t=3f107bce2c9e43a3 comm=3f107bce2c9e43a3 memcpy=0000000000000000 codec=0000000000000000 stats=3c8c2495592d0925 events=170 trace=ea4f8e14b13de1fa out=fe9f9c693a5517e1
lane_exchange rows4x6 auto: t=3f10fe9260642b41 comm=3f100a4ba7174306 memcpy=0000000000000000 codec=3ece88d7299d0762 stats=29fabe63225d77f1 events=174 trace=3d78ee994c1308df out=fe9f9c693a5517e1
lane_exchange cols4x6 raw: t=3f13fc613a01ae80 comm=3f13fc613a01ae80 memcpy=0000000000000000 codec=0000000000000000 stats=386024f46f58525a events=168 trace=6bbe7a89702687fe out=830376b253860bd1
lane_exchange cols4x6 auto: t=3f149004f054bc45 comm=3f139e6d68e41a1c memcpy=0000000000000000 codec=3ece32f0ee144531 stats=ba4c08d30bf96186 events=172 trace=be6e6b0fdf8e67e0 out=830376b253860bd1
lane_exchange uneven raw: t=3f107bce2c9e43a2 comm=3f107bce2c9e43a2 memcpy=0000000000000000 codec=0000000000000000 stats=16b92f81e070eab0 events=78 trace=818fae8f42a3824e out=c646fba11473748a
lane_exchange uneven auto: t=3f10f684cacf590c comm=3f100a4ba7174306 memcpy=0000000000000000 codec=3ecd87247702c0cf stats=47c3dc976d97ecbc events=82 trace=f2825e82f0a2ca52 out=c646fba11473748a
";

#[test]
fn every_collective_matches_its_golden_pin() {
    check_table(&actual_table(&COLLECTIVES, false), EXPECTED);
}

/// The ring collective whose forwarded pieces carry a wire measure
/// (the all-gather) and the two-phase fold, on the lossy fabric.
const LOSSY_COLLECTIVES: [&str; 2] = ["allgather_ring", "two_phase_fold"];

const EXPECTED_LOSSY: &str = "\
allgather_ring rows4x6 raw: t=3f46a8b8f14db596 comm=3f46a8b8f14db596 memcpy=0000000000000000 codec=0000000000000000 stats=e78b0e7e0d45e326 events=316 trace=cab2eae7b64b04fb out=72243e97a54f8313
allgather_ring rows4x6 auto: t=3f40f163c265e575 comm=3f2b66cb2ee1d237 memcpy=0000000000000000 codec=3f342f61ed5ae1cf stats=c5531e5ae3b5c66a events=336 trace=d9c529e4773bc394 out=72243e97a54f8313
allgather_ring cols4x6 raw: t=3f411144327da584 comm=3f411144327da584 memcpy=0000000000000000 codec=0000000000000000 stats=eeb6ab645e492483 events=201 trace=73b78eb8e0f1602a out=8da0d0446d037f69
allgather_ring cols4x6 auto: t=3f39c057e8183f2f comm=3f2aa2bd6c2566fe memcpy=0000000000000000 codec=3f28ddf2640b175e stats=5ff6afcc716a1a03 events=213 trace=779a9a3216ff4a46 out=8da0d0446d037f69
allgather_ring uneven raw: t=3f469da643a1148d comm=3f469da643a1148d memcpy=0000000000000000 codec=0000000000000000 stats=6aa3b4994770d38e events=140 trace=667c1b5482eb386e out=818b42fb05cd1d2d
allgather_ring uneven auto: t=3f3d3ef3d58cad9c comm=3f21bbd19b8d7716 memcpy=0000000000000000 codec=3f34610b07c5f212 stats=d67856074fa64f39 events=160 trace=aa2ae59c1eab6bcd out=818b42fb05cd1d2d
two_phase_fold rows4x6 raw: t=3f3d0c88d808f3a4 comm=3f3b6083a3631c05 memcpy=3efac0534a5d79e1 codec=0000000000000000 stats=8fe3bdeaab78f7b5 events=194 trace=1503b9990f37e411 out=9324844c9feb3db3
two_phase_fold rows4x6 auto: t=3f3d7fb8dcb9a00b comm=3f380547f4bc6d90 memcpy=3efac0534a5d79e1 codec=3f0e735d9abad6d5 stats=9f4c1e6a53f8a6c7 events=206 trace=9694848ac09a277f out=9324844c9feb3db3
two_phase_fold cols4x6 raw: t=3f35a5c5f68c502f comm=3f347cbfdcb0a0b5 memcpy=3ef290619dbaf79e codec=0000000000000000 stats=34a4742b0f9208c1 events=126 trace=a13f9aa2455b6b73 out=9aaa2cd9f87a16a0
two_phase_fold cols4x6 auto: t=3f363500b66333fb comm=3f32aca4cb9a9783 memcpy=3ef290619dbaf79e codec=3f02faae876767ed stats=eba4699b54c62400 events=134 trace=9ccad270b633fa15 out=9aaa2cd9f87a16a0
two_phase_fold uneven raw: t=3f3fd23d52c4580d comm=3f3d3dc10d0132e7 memcpy=3f04a3e22e19292e codec=0000000000000000 stats=ab3d216e7c5a3889 events=119 trace=7390c9d5ea0b5e19 out=9200f6b998eb17cb
two_phase_fold uneven auto: t=3f40698fb4427265 comm=3f37e542b442052d memcpy=3f04a3e22e19292e codec=3f196581b9fee9d3 stats=2d8c23ff4cb48e14 events=139 trace=ffb76c77f383e6b3 out=9200f6b998eb17cb
";

#[test]
fn ring_collectives_match_their_golden_pins_on_a_lossy_fabric() {
    check_table(&actual_table(&LOSSY_COLLECTIVES, true), EXPECTED_LOSSY);
}
