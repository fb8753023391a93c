//! Evidence for the `bgl-server` serving layer: runs one seeded
//! Zipfian workload through the query server at several batch widths
//! (cache off), certifies every lane of the widest batch against its
//! standalone single-source run, and compares cache-on vs cache-off
//! serving. Writes `BENCH_server.json`.
//!
//! With `--check` the binary exits non-zero when the numbers miss the
//! PR's acceptance floors (CI smoke; every gate reads the simulated
//! clock and deterministic counters — no wall time, so the step is
//! stable on slow runners):
//!
//! * every lane of a B=16 batch over the workload's source pool is
//!   bit-identical to its standalone `bfs2d::try_run` and passes the
//!   Graph500-style validator;
//! * batched serving at B=16 sustains ≥ 1.5× the simulated-time
//!   throughput of B=1 with the cache disabled;
//! * with the cache on, the mean cache-hit service time is ≥ 10×
//!   cheaper than the mean engine service time, and hits actually
//!   occur;
//! * nothing is rejected or expired.
//!
//! ```text
//! cargo run --release -p bgl-bench --bin bench_server [-- --check]
//! ```

use bfs_core::{bfs2d, multi, BfsConfig};
use bgl_bench::harness::{write_report, Args};
use bgl_comm::{ProcessorGrid, SimWorld, WirePolicy};
use bgl_graph::{DistGraph, GraphSpec};
use bgl_server::{BglServer, ServerConfig, WorkloadSpec};
use bgl_trace::json::{self, Fixed};

const HELP: &str = "\
bench_server — batched query-serving throughput benchmark

Writes BENCH_server.json (override with --out).

Flags:
  --n N           vertices in the benchmark graph (default 60000)
  --degree K      mean degree (default 16)
  --graph G       rmat | poisson (default rmat)
  --seed S        generator seed (default 4242)
  --rows R        processor grid rows (default 8)
  --cols C        processor grid cols (default 8)
  --queries Q     workload size (default 64)
  --hot H         Zipf source-pool size (default 16)
  --theta T       Zipf exponent (default 1.0)
  --zipf-seed S   workload seed (default 99)
  --widths LIST   batch widths to sweep (default 1,4,16,64)
  --cache-cap C   cache capacity for the cache-on run (default 64)
  --arrivals A    queries arriving per tick in the cache-on run
                  (default 4; the cache-off sweep is a closed burst)
  --out PATH      output path (default BENCH_server.json)
  --check         exit non-zero if acceptance floors are missed (CI)
";

/// Batched-over-single throughput floor checked by `--check`.
const MIN_BATCH_SPEEDUP: f64 = 1.5;
/// Cache-hit-over-engine service-time floor checked by `--check`.
const MIN_CACHE_SPEEDUP: f64 = 10.0;
/// The sweep width the gates read (also the identity-check width).
const GATE_WIDTH: usize = 16;

struct SweepRun {
    width: usize,
    served: u64,
    batches: u64,
    occupancy_mean: f64,
    waves: u64,
    engine_sim_s: f64,
    throughput: f64,
}

/// Serve `workload` to completion. `arrivals_per_tick == 0` submits
/// everything up front (closed burst — the throughput sweep's shape);
/// otherwise queries arrive in chunks with one pump per tick (open
/// arrivals — later repeats of a hot source find its levels cached).
fn serve_workload(
    graph: &DistGraph,
    wire: WirePolicy,
    config: ServerConfig,
    workload: &[bgl_server::QueryKind],
    arrivals_per_tick: usize,
) -> BglServer {
    let world = SimWorld::bluegene(graph.grid()).with_wire_policy(wire);
    let mut srv = BglServer::new(graph.clone(), world, config);
    if arrivals_per_tick == 0 {
        for &q in workload {
            srv.submit(q).expect("queue sized for the whole workload");
        }
    } else {
        for chunk in workload.chunks(arrivals_per_tick) {
            for &q in chunk {
                srv.submit(q).expect("queue sized for the whole workload");
            }
            srv.pump();
        }
    }
    srv.run_to_completion();
    srv
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let n = args.u64("n", 60_000);
    let degree = args.f64("degree", 16.0);
    let seed = args.u64("seed", 4242);
    let rows = args.u64("rows", 8) as usize;
    let cols = args.u64("cols", 8) as usize;
    let queries = args.u64("queries", 64) as usize;
    let hot = args.u64("hot", 16) as usize;
    let theta = args.f64("theta", 1.0);
    let zipf_seed = args.u64("zipf-seed", 99);
    let widths: Vec<usize> = args
        .u64_list("widths", &[1, 4, 16, 64])
        .into_iter()
        .map(|w| w as usize)
        .collect();
    let cache_cap = args.u64("cache-cap", 64) as usize;
    let arrivals = args.u64("arrivals", 4) as usize;
    let out = args.str("out").unwrap_or("BENCH_server.json").to_string();
    let check = args.bool("check", false);
    let kind = args.str("graph").unwrap_or("rmat");

    let spec = match kind {
        "rmat" => GraphSpec::rmat(n, degree, seed),
        "poisson" => GraphSpec::poisson(n, degree, seed),
        other => panic!("--graph: {other:?} (expected rmat or poisson)"),
    };
    let grid = ProcessorGrid::new(rows, cols);
    eprintln!("server workload: {kind} n={n} degree={degree} grid {rows}x{cols}");
    let graph = DistGraph::build(spec, grid);
    let wire = WirePolicy::auto();

    let wspec = WorkloadSpec {
        queries,
        hot_sources: hot,
        theta,
        mix: bgl_server::QueryMix::default(),
        seed: zipf_seed,
    };
    let workload = wspec.generate(n);
    let pool = wspec.source_pool(n);
    eprintln!(
        "  workload: {queries} queries over a {}-source Zipf(θ={theta}) pool",
        pool.len()
    );

    // --- Lane identity: one B-wide batch over the whole source pool,
    // every lane vs its standalone single-source run + validator. ----
    let gate_sources: Vec<u64> = pool.iter().copied().take(GATE_WIDTH).collect();
    let mut mworld = SimWorld::bluegene(grid).with_wire_policy(wire);
    let mres = multi::try_run(
        &graph,
        &mut mworld,
        &multi::MultiConfig::default(),
        &gate_sources,
    )?;
    let mut lanes_identical = true;
    for (lane, &s) in gate_sources.iter().enumerate() {
        let mut w = SimWorld::bluegene(grid).with_wire_policy(wire);
        let single = bfs2d::try_run(&graph, &mut w, &BfsConfig::paper_optimized(), s)?;
        if mres.lane_levels[lane] != single.levels {
            eprintln!("  lane {lane} (source {s}) diverged from its single-source run");
            lanes_identical = false;
        }
    }
    let lanes_validated = multi::validate_lanes(&graph.spec, &mres).is_ok();
    eprintln!(
        "  identity: {} lanes vs single-source, identical: {lanes_identical}, validated: \
         {lanes_validated}",
        gate_sources.len()
    );

    // --- Throughput sweep over batch widths, cache off. --------------
    let mut sweep: Vec<SweepRun> = Vec::new();
    for &width in &widths {
        let srv = serve_workload(
            &graph,
            wire,
            ServerConfig {
                batch_width: width,
                queue_capacity: queries.max(1),
                cache_capacity: 0,
                validate_batches: width == GATE_WIDTH,
                ..ServerConfig::default()
            },
            &workload,
            0,
        );
        let s = srv.stats();
        let throughput = if s.engine_sim_time > 0.0 {
            s.served_total() as f64 / s.engine_sim_time
        } else {
            0.0
        };
        eprintln!(
            "  B={width:<3} {} batches, occupancy {:>5.2}, {:>3} waves, sim {:>8.3} ms, \
             {:>8.1} q/s",
            s.batches,
            s.occupancy_mean(),
            s.waves_total,
            s.engine_sim_time * 1e3,
            throughput
        );
        sweep.push(SweepRun {
            width,
            served: s.served_total(),
            batches: s.batches,
            occupancy_mean: s.occupancy_mean(),
            waves: s.waves_total,
            engine_sim_s: s.engine_sim_time,
            throughput,
        });
    }

    // --- Cache on vs off at the gate width. ---------------------------
    let cached = serve_workload(
        &graph,
        wire,
        ServerConfig {
            batch_width: GATE_WIDTH,
            queue_capacity: queries.max(1),
            cache_capacity: cache_cap,
            ..ServerConfig::default()
        },
        &workload,
        arrivals.max(1),
    );
    let cs = cached.stats();
    let hit_s = cs.cache_time_per_query();
    let miss_s = cs.engine_time_per_query();
    let cache_speedup = if hit_s > 0.0 { miss_s / hit_s } else { 0.0 };
    let cached_qps = cs.qps();
    eprintln!(
        "  cache on : {} engine / {} cache served, hit {:.3} µs vs engine {:.3} µs per query \
         ({cache_speedup:.1}x), {cached_qps:.1} q/s",
        cs.served_engine,
        cs.served_cache,
        hit_s * 1e6,
        miss_s * 1e6
    );

    let find = |w: usize| sweep.iter().find(|r| r.width == w);
    let batch_speedup = match (find(1), find(GATE_WIDTH)) {
        (Some(b1), Some(b16)) if b1.throughput > 0.0 => b16.throughput / b1.throughput,
        _ => 0.0,
    };
    eprintln!("  batched B={GATE_WIDTH} vs B=1 simulated throughput: {batch_speedup:.2}x");

    let clean = sweep.iter().all(|r| r.served == queries as u64)
        && cs.served_total() == queries as u64
        && cs.expired == 0;

    let doc = json::pretty(|w| {
        w.key("graph").obj(|w| {
            w.field("kind", kind)
                .field("n", n)
                .field("degree", degree)
                .field("seed", seed)
                .field("grid", format!("{rows}x{cols}"));
        });
        w.key("workload").obj(|w| {
            w.field("queries", queries)
                .field("hot_sources", pool.len())
                .field("theta", theta)
                .field("seed", zipf_seed);
        });
        w.field("lanes_identical", lanes_identical)
            .field("lanes_validated", lanes_validated)
            .key("sweep_cache_off")
            .arr(|w| {
                for r in &sweep {
                    w.obj(|w| {
                        w.field("batch_width", r.width)
                            .field("served", r.served)
                            .field("batches", r.batches)
                            .field("occupancy_mean", Fixed(r.occupancy_mean, 3))
                            .field("waves", r.waves)
                            .field("engine_sim_ms", Fixed(r.engine_sim_s * 1e3, 3))
                            .field("throughput_qps", Fixed(r.throughput, 3));
                    });
                }
            })
            .field("batch_speedup_16_over_1", Fixed(batch_speedup, 3));
        w.key("cache_on").obj(|w| {
            w.field("capacity", cache_cap)
                .field("arrivals_per_tick", arrivals.max(1))
                .field("served_engine", cs.served_engine)
                .field("served_cache", cs.served_cache)
                .field("hits", cached.cache().hits)
                .field("misses", cached.cache().misses)
                .field("hit_s_per_query", Fixed(hit_s, 9))
                .field("engine_s_per_query", Fixed(miss_s, 9))
                .field("cache_speedup", Fixed(cache_speedup, 3))
                .field("qps", Fixed(cached_qps, 3));
        });
        w.field("all_served", clean);
    });
    write_report(&out, &doc)?;

    if check {
        let mut failed = false;
        if !lanes_identical {
            eprintln!("FAIL: batched lanes differ from single-source runs");
            failed = true;
        }
        if !lanes_validated {
            eprintln!("FAIL: a batched lane failed Graph500-style validation");
            failed = true;
        }
        if batch_speedup < MIN_BATCH_SPEEDUP {
            eprintln!(
                "FAIL: B={GATE_WIDTH} throughput {batch_speedup:.2}x over B=1 is below the \
                 {MIN_BATCH_SPEEDUP}x floor"
            );
            failed = true;
        }
        if cs.served_cache == 0 {
            eprintln!("FAIL: the Zipf workload produced no cache hits");
            failed = true;
        }
        if cache_speedup < MIN_CACHE_SPEEDUP {
            eprintln!(
                "FAIL: cache hits {cache_speedup:.1}x cheaper than engine serving, below the \
                 {MIN_CACHE_SPEEDUP}x floor"
            );
            failed = true;
        }
        if !clean {
            eprintln!("FAIL: some queries were rejected or expired");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed");
    }
    Ok(())
}
