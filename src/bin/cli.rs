//! `bgl-bfs` — command-line front end for the SC'05 distributed BFS
//! reproduction.
//!
//! ```text
//! bgl-bfs search --n 100000 --k 10 --rows 8 --cols 8 --source 0 [--target 99]
//! bgl-bfs path   --n 100000 --k 10 --rows 8 --cols 8 --source 0 --target 99
//! bgl-bfs serve  --n 60000 --k 16 --rows 8 --cols 8 --batch 16 --queries 64
//! bgl-bfs theory --n 40000000 --p 400
//! bgl-bfs memory --per-rank 100000 --k 10 --rows 128 --cols 256
//! bgl-bfs info
//! ```
//!
//! Each command accepts a fixed flag set; unknown flags and
//! contradictory combinations (for instance `--bidir` with fault
//! injection, or `--dead-at` without a `--dead-rank` to kill) are
//! rejected with a diagnostic and a non-zero exit instead of being
//! silently ignored.

use bgl_bfs::comm::{ChunkPolicy, WireMode, WirePolicy, MAX_LANES};
use bgl_bfs::core::{bfs2d, bidir, memory, multi, path, theory, validate};
use bgl_bfs::server::{ArrivalProcess, QueryMix};
use bgl_bfs::torus::MachineConfig;
use bgl_bfs::trace::write_artifacts;
use bgl_bfs::{
    BfsConfig, BglServer, DirectionPolicy, DistGraph, FaultPlan, GraphSpec, ProcessorGrid,
    ResilientConfig, ServerConfig, SimWorld, TraceDetail, WorkloadSpec,
};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;

const HELP: &str = "\
bgl-bfs — scalable distributed-parallel BFS (Yoo et al., SC'05) on a simulated BlueGene/L

USAGE: bgl-bfs <command> [--flag value]...

COMMANDS
  search   run a BFS (flags: --n --k --seed --rows --cols --source [--target] [--bidir])
           host execution: [--engine-threads N] — worker threads for the per-rank
           compute (default one per core, 1 = sequential; results are bit-identical
           for every count)
           direction: [--direction off|adaptive|bottom-up] — Beamer-style per-level
           top-down/bottom-up switching from allreduced frontier and unexplored-edge
           counts (levels are bit-identical to top-down; default off)
           per-level table: [--levels] — print the per-level summary (implied by
           --direction adaptive|bottom-up)
           wire codec: [--wire auto|raw|delta|bitmap] — adaptive payload compression for
           expand/fold exchanges; encode/decode time is charged through the cost model
           fault injection (non-bidir): [--drop-rate 0.1] [--dead-rank 3 [--dead-at 4]]
           [--fault-seed 7] — runs the checkpoint/recover engine and prints fault counters
           resilience: [--parity-group g] — XOR parity-group size for checkpointed
           delta logs (default 4; any single rank death per group is reconstructed)
           validation: [--validate] — Graph500-style check of the level labelling
           (rooted tree, tree edges exist, levels differ by <= 1); nonzero exit on failure
           tracing: [--trace] [--trace-out results/trace] [--trace-level span|event] —
           writes TRACE_chrome.json + TRACE_summary.json and prints the per-level
           critical path and the hottest torus links
  path     extract shortest paths (--n --k --seed --rows --cols --source)
           one walk: [--target T]; batched lane wave (up to 64 targets sharing
           each control round): [--targets T1,T2,...]; [--wire auto|raw|delta|bitmap]
  serve    run a Zipfian query workload through the batched query server
           graph: --n --k --seed --rows --cols
           server: [--batch B<=64] [--queue-cap Q] [--deadline TICKS] [--cache-cap C]
           [--engine-threads N] [--wire auto|raw|delta|bitmap] [--validate]
           workload: [--queries N] [--hot POOL] [--theta T] [--workload-seed S]
           arrivals: [--arrivals PER_TICK] [--arrival-process fixed|poisson|bursty]
           [--burst F] [--arrival-seed S] — seeded open-loop streams for queue-depth
           and deadline-miss sweeps
           replay: [--arrival-record PATH] writes the tick schedule this run used;
           [--arrival-replay PATH] replays a recorded schedule verbatim (exactly
           reproduces the original run's SERVER_summary.json)
           output: [--summary-out SERVER_summary.json] — QPS, latency, batch
           occupancy, path-walk, and per-class cache stats from the simulated clock
  theory   print the §3.1 message-length analysis (--n --p [--kmax])
  memory   per-node memory feasibility (--per-rank --k --rows --cols [--chunk])
  info     machine presets
  help     this text
";

struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    map.insert(key.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    map.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            } else {
                eprintln!("warning: ignoring {:?}", args[i]);
                i += 1;
            }
        }
        Flags(map)
    }

    fn u64(&self, key: &str, default: u64) -> u64 {
        self.choice(key, |v| v.parse().ok()).unwrap_or(default)
    }

    fn f64(&self, key: &str, default: f64) -> f64 {
        self.choice(key, |v| v.parse().ok()).unwrap_or(default)
    }

    /// `--key` parsed by `parse`, or `None` when absent. [`flag_error`]
    /// has already checked every value, so a failure here is still a
    /// usage error (exit 2), never a panic.
    fn choice<T>(&self, key: &str, parse: fn(&str) -> Option<T>) -> Option<T> {
        self.0.get(key).map(|v| {
            parse(v).unwrap_or_else(|| usage_exit(&format!("--{key} {v:?}: invalid value")))
        })
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

/// Flags shared by every graph-building command.
const GRAPH_FLAGS: &[&str] = &["n", "k", "seed", "rows", "cols"];
/// Fault-injection flags (they select the resilient engine).
const FAULT_FLAGS: &[&str] = &[
    "drop-rate",
    "dead-rank",
    "dead-at",
    "fault-seed",
    "parity-group",
];

/// The flag set each command accepts. Anything outside the list is a
/// typo or a flag for a different command — reject it loudly rather
/// than silently computing something else than the user asked for.
fn allowed_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let mut v: Vec<&str> = match cmd {
        "search" => [
            GRAPH_FLAGS,
            FAULT_FLAGS,
            &[
                "source",
                "target",
                "bidir",
                "engine-threads",
                "direction",
                "levels",
                "wire",
                "validate",
                "trace",
                "trace-out",
                "trace-level",
            ],
        ]
        .concat(),
        "path" => [GRAPH_FLAGS, &["source", "target", "targets", "wire"]].concat(),
        "serve" => [
            GRAPH_FLAGS,
            &[
                "batch",
                "queue-cap",
                "deadline",
                "cache-cap",
                "engine-threads",
                "wire",
                "validate",
                "queries",
                "hot",
                "theta",
                "workload-seed",
                "arrivals",
                "arrival-process",
                "burst",
                "arrival-seed",
                "arrival-replay",
                "arrival-record",
                "summary-out",
            ],
        ]
        .concat(),
        "theory" => vec!["n", "p", "kmax"],
        "memory" => vec!["per-rank", "k", "rows", "cols", "chunk"],
        "info" => vec![],
        _ => return None,
    };
    v.sort_unstable();
    Some(v)
}

/// What `--key`'s value should have been, when `v` is not that. Every
/// flag is checked before a command runs, so a typo in a value exits
/// with a diagnostic instead of panicking (or running half a command).
fn bad_value(key: &str, v: &str) -> Option<&'static str> {
    let (ok, expected) = match key {
        // Switches and output paths take any value.
        "bidir" | "levels" | "validate" | "trace" | "trace-out" | "arrival-replay"
        | "arrival-record" | "summary-out" => return None,
        "k" | "drop-rate" | "theta" | "burst" | "kmax" | "arrivals" => {
            (v.parse::<f64>().is_ok(), "a number")
        }
        "n" | "rows" | "cols" | "p" | "per-rank" => {
            (v.parse::<u64>().is_ok_and(|x| x > 0), "a positive integer")
        }
        "batch" => (
            v.parse::<usize>()
                .is_ok_and(|b| (1..=MAX_LANES).contains(&b)),
            "an integer in 1..=64",
        ),
        "direction" => (direction_policy(v).is_some(), "off, adaptive, or bottom-up"),
        "wire" => (WireMode::parse(v).is_some(), "auto, raw, delta, or bitmap"),
        "trace-level" => (TraceDetail::parse(v).is_some(), "span or event"),
        "arrival-process" => (
            matches!(v, "fixed" | "poisson" | "bursty"),
            "fixed, poisson, or bursty",
        ),
        "targets" => (
            parse_targets(v).is_some(),
            "1..=64 comma-separated vertices",
        ),
        _ => (v.parse::<u64>().is_ok(), "a non-negative integer"),
    };
    (!ok).then_some(expected)
}

/// First problem with this command's flags, if any: an unknown flag, a
/// malformed value, or a contradictory combination. `None` means the
/// invocation is clean.
fn flag_error(cmd: &str, flags: &Flags) -> Option<String> {
    let allowed = allowed_flags(cmd)?;
    let mut keys: Vec<&str> = flags.0.keys().map(String::as_str).collect();
    keys.sort_unstable();
    for key in keys {
        if !allowed.contains(&key) {
            return Some(format!(
                "--{key} is not a flag of `{cmd}` (it accepts: {})",
                allowed
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
    }
    for (key, v) in &flags.0 {
        if let Some(expected) = bad_value(key, v) {
            return Some(format!("--{key} {v:?}: expected {expected}"));
        }
    }
    if cmd == "search" || cmd == "path" {
        // Vertex flags name vertices of the generated graph, 0..n.
        let n = flags.u64("n", DEFAULT_N);
        for key in ["source", "target"] {
            let v = flags.u64(key, 0);
            if v >= n {
                return Some(format!("--{key} {v}: expected a vertex below --n {n}"));
            }
        }
        if let Some(list) = flags.0.get("targets") {
            if let Some(t) = parse_targets(list).and_then(|ts| ts.into_iter().find(|&t| t >= n)) {
                return Some(format!("--targets {list}: vertex {t} is not below --n {n}"));
            }
        }
    }
    if cmd == "path" && flags.has("target") && flags.has("targets") {
        return Some(
            "--target and --targets contradict: one names a single walk, the other a \
             batched lane wave — pick one"
                .to_string(),
        );
    }
    if cmd == "serve" {
        let process = flags.0.get("arrival-process").map(String::as_str);
        if flags.has("burst") && process != Some("bursty") {
            return Some(
                "--burst shapes the bursty arrival process; add --arrival-process bursty"
                    .to_string(),
            );
        }
        if flags.has("arrival-replay") && process.is_some() {
            return Some(
                "--arrival-replay replays a recorded schedule verbatim; it contradicts --arrival-process — pick one"
                    .to_string(),
            );
        }
        let fixed = process.is_none_or(|p| p == "fixed") && !flags.has("arrival-replay");
        if fixed
            && flags
                .0
                .get("arrivals")
                .is_some_and(|v| v.parse::<u64>().is_err())
        {
            return Some(
                "--arrivals: the fixed arrival process takes a whole number of queries per tick"
                    .to_string(),
            );
        }
        return None;
    }
    if cmd != "search" {
        return None;
    }
    // `search` has modes that cannot be combined.
    if flags.has("bidir") {
        if let Some(f) = FAULT_FLAGS.iter().find(|f| flags.has(f)) {
            return Some(format!(
                "--bidir runs the fault-free bi-directional engine; --{f} requires the \
                 resilient uni-directional search — drop one of them"
            ));
        }
        if flags.has("direction") {
            return Some(
                "--bidir and --direction contradict: direction optimization applies to the \
                 uni-directional search only"
                    .to_string(),
            );
        }
    }
    if flags.has("dead-at") && !flags.has("dead-rank") {
        return Some(
            "--dead-at names a death level but no --dead-rank to kill; add --dead-rank R"
                .to_string(),
        );
    }
    if flags.has("parity-group") && !flags.has("drop-rate") && !flags.has("dead-rank") {
        return Some(
            "--parity-group configures the resilient engine but no fault is injected; add \
             --drop-rate P or --dead-rank R"
                .to_string(),
        );
    }
    None
}

/// Apply `--engine-threads N`: how many host worker threads run the
/// per-rank compute (absent or 0 = one per core, 1 = sequential).
/// Results and simulated clocks are identical for every count.
fn apply_engine_threads(flags: &Flags) {
    if flags.has("engine-threads") {
        rayon::set_worker_threads(flags.u64("engine-threads", 0) as usize);
    }
}

fn direction_policy(s: &str) -> Option<DirectionPolicy> {
    match s {
        "off" | "top-down" => Some(DirectionPolicy::TopDown),
        "adaptive" => Some(DirectionPolicy::Adaptive),
        "bottom-up" => Some(DirectionPolicy::BottomUp),
        _ => None,
    }
}

fn direction_from(flags: &Flags) -> DirectionPolicy {
    flags
        .choice("direction", direction_policy)
        .unwrap_or_default()
}

fn wire_policy_from(flags: &Flags) -> WirePolicy {
    flags
        .choice("wire", WireMode::parse)
        .map_or_else(WirePolicy::raw, WirePolicy::with_mode)
}

/// `--trace` / `--trace-out` / `--trace-level` imply tracing; the level
/// defaults to full event detail.
fn trace_detail_from(flags: &Flags) -> Option<TraceDetail> {
    if !flags.has("trace") && !flags.has("trace-out") && !flags.has("trace-level") {
        return None;
    }
    Some(
        flags
            .choice("trace-level", TraceDetail::parse)
            .unwrap_or_default(),
    )
}

/// `--targets T1,T2,…`: 1..=64 vertices, or `None` if malformed.
fn parse_targets(list: &str) -> Option<Vec<u64>> {
    let targets: Vec<u64> = list
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().ok())
        .collect::<Option<_>>()?;
    (1..=MAX_LANES).contains(&targets.len()).then_some(targets)
}

/// Drain the world's trace, write the on-disk artifacts, and print the
/// critical-path and link-hotspot tables.
fn emit_trace_artifacts(world: &mut SimWorld, flags: &Flags) {
    let Some(buf) = world.take_trace() else {
        return;
    };
    let default_dir = "results/trace".to_string();
    let dir = flags.0.get("trace-out").unwrap_or(&default_dir);
    let machine = *world.cost_model().machine();
    let report = or_exit(
        write_artifacts(&buf, world.mapping(), &machine, Path::new(dir)),
        &format!("--trace-out {dir:?}"),
    );
    println!(
        "trace: wrote {} and {}",
        report.chrome_path.display(),
        report.summary_path.display()
    );
    print!("{}", report.critical.render_table());
    if report.wire.sends > 0 && report.wire.wire_bytes < report.wire.logical_bytes() {
        println!(
            "trace wire: {:.2} MB logical -> {:.2} MB on the wire ({:.2}x) across {} sends",
            report.wire.logical_bytes() as f64 / 1e6,
            report.wire.wire_bytes as f64 / 1e6,
            report.wire.compression_ratio(),
            report.wire.sends
        );
    }
    if report.heatmap.sends() > 0 {
        println!("hottest links (of {} used):", report.heatmap.links_used());
        print!("{}", report.heatmap.render_table(5));
    }
    if report.dropped_events > 0 {
        println!(
            "trace: {} events overwritten by full rings (raise ring capacity for complete traces)",
            report.dropped_events
        );
    }
}

/// Graph500-style check of the final level labelling; exits nonzero on
/// failure. Applies to every engine path (plain and resilient alike) —
/// a recovered run must produce exactly as valid a labelling as a
/// fault-free one.
fn validate_or_exit(spec: &GraphSpec, levels: &[u32], source: u64) {
    match validate::validate_against_spec(spec, levels, source) {
        Ok(report) => println!(
            "validation OK: {} reached, depth {}, {} tree edges",
            report.reached, report.depth, report.tree_edges
        ),
        Err(e) => {
            eprintln!("error: BFS output failed Graph500-style validation: {e}");
            std::process::exit(1);
        }
    }
}

/// Unwrap a result, or print `error: {what}: {e}` and exit 1 — the
/// diagnostic exit every subcommand uses for a typed communication or
/// I/O error instead of a panic.
fn or_exit<T, E: Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1);
    })
}

/// Print `error: {msg}` and exit 2: the usage-error exit for bad flags
/// and values.
fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The per-level summary table (direction, frontier, message volumes,
/// probe counts, simulated time).
fn print_level_table(stats: &bgl_bfs::core::RunStats) {
    println!(
        "{:>5} {:>4} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "level", "dir", "frontier", "expand", "fold", "td probes", "bu probes", "sim ms"
    );
    for l in &stats.levels {
        println!(
            "{:>5} {:>4} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10.3}",
            l.level,
            l.direction.label(),
            l.frontier,
            l.expand_received,
            l.fold_received,
            l.td_probes,
            l.bu_probes,
            l.sim_time * 1e3
        );
    }
}

fn grid_from(flags: &Flags) -> ProcessorGrid {
    ProcessorGrid::new(flags.u64("rows", 4) as usize, flags.u64("cols", 4) as usize)
}

/// Vertex count when `--n` is absent.
const DEFAULT_N: u64 = 100_000;

fn spec_from(flags: &Flags) -> GraphSpec {
    GraphSpec::poisson(
        flags.u64("n", DEFAULT_N),
        flags.f64("k", 10.0),
        flags.u64("seed", 42),
    )
}

fn cmd_search(flags: &Flags) {
    apply_engine_threads(flags);
    let spec = spec_from(flags);
    let grid = grid_from(flags);
    let source = flags.u64("source", 0);
    println!(
        "G(n={}, k={}) on {}x{} — building…",
        spec.n,
        spec.avg_degree,
        grid.rows(),
        grid.cols()
    );
    let graph = DistGraph::build(spec, grid);

    let mut plan = FaultPlan::seeded(flags.u64("fault-seed", 7));
    if flags.has("drop-rate") {
        plan = plan.with_drop_prob(flags.f64("drop-rate", 0.0));
    }
    if flags.has("dead-rank") {
        plan = plan.kill_rank_at(
            flags.u64("dead-rank", 0) as usize % grid.len(),
            flags.u64("dead-at", 4),
        );
    }
    let faulty = plan.is_active();
    let trace = trace_detail_from(flags);
    let wire = wire_policy_from(flags);

    let mut world = SimWorld::bluegene(grid).with_wire_policy(wire);
    if let Some(detail) = trace {
        world.enable_trace(detail);
    }

    if flags.has("bidir") {
        // Contradictory fault flags were rejected before dispatch.
        let target = flags.u64("target", spec.n - 1);
        let r = or_exit(
            bidir::try_run(
                &graph,
                &mut world,
                &BfsConfig::paper_optimized(),
                source,
                target,
            ),
            "communication fault during bi-directional search",
        );
        match r.distance {
            Some(d) => println!("bi-directional distance {source} → {target}: {d}"),
            None => println!("{source} and {target} are not connected"),
        }
        println!(
            "simulated {:.3} ms ({:.3} ms comm), {} vertices moved",
            r.stats.sim_time * 1e3,
            r.stats.comm_time * 1e3,
            r.stats.total_received()
        );
        emit_trace_artifacts(&mut world, flags);
        return;
    }

    let direction = direction_from(flags);
    let mut config = BfsConfig::paper_optimized().with_direction(direction);
    if flags.has("target") {
        config = config.with_target(flags.u64("target", 0));
    }
    let r = if faulty {
        world = SimWorld::bluegene(grid)
            .with_fault_plan(plan)
            .with_wire_policy(wire);
        if let Some(detail) = trace {
            world.enable_trace(detail);
        }
        let resilient = ResilientConfig {
            parity_group_size: flags.u64("parity-group", 4) as usize,
        };
        let res = or_exit(
            bfs2d::run_resilient(&graph, &mut world, &config, source, &resilient),
            "search did not survive the fault plan",
        );
        if res.recoveries > 0 {
            println!(
                "recovered {} rank death(s) ({:?}) in {:.3} ms of recovery time",
                res.recoveries,
                res.recovered_ranks,
                res.recovery_time * 1e3
            );
        }
        if res.degraded_restarts > 0 {
            println!(
                "degraded mode: {} full restart(s) from the last checkpoint \
                 (parity reconstruction unavailable)",
                res.degraded_restarts
            );
        }
        res.result
    } else {
        or_exit(
            bfs2d::try_run(&graph, &mut world, &config, source),
            "communication fault during BFS \
             (inject faults via --drop-rate/--dead-rank to run the resilient engine)",
        )
    };
    println!(
        "reached {}/{} vertices in {} levels",
        r.stats.reached,
        spec.n,
        r.stats.num_levels()
    );
    if let Some(t) = config.target {
        match r.target_level {
            Some(l) => println!("target {t} found at level {l}"),
            None => println!("target {t} not reachable from {source}"),
        }
    }
    println!(
        "simulated {:.3} ms ({:.3} ms comm, {:.3} ms compute); expand/fold per level: {:.1} / {:.1} verts; redundancy {:.1}%",
        r.stats.sim_time * 1e3,
        r.stats.comm_time * 1e3,
        r.stats.compute_time * 1e3,
        r.stats.avg_expand_len_per_level(),
        r.stats.avg_fold_len_per_level(),
        r.stats.redundancy_ratio_percent()
    );
    if !wire.is_raw() {
        println!(
            "wire codec ({}): {:.2} MB logical -> {:.2} MB on the wire ({:.2}x), \
             {:.3} ms encode/decode",
            wire.mode.name(),
            r.stats.comm.total_logical_bytes() as f64 / 1e6,
            r.stats.comm.total_wire_bytes() as f64 / 1e6,
            r.stats.compression_ratio(),
            r.stats.codec_time * 1e3
        );
    }
    let so = r.stats.comm.setops;
    if so.list_unions + so.bitmap_unions > 0 {
        println!(
            "union-fold: {} list / {} bitmap merges ({:.0}% bitmap), {} densify switches",
            so.list_unions,
            so.bitmap_unions,
            r.stats.bitmap_union_fraction() * 100.0,
            so.densify_switches
        );
    }
    if direction != DirectionPolicy::TopDown {
        let (td, bu) = r.stats.direction_split();
        println!(
            "direction ({}): {td} top-down / {bu} bottom-up levels, {} hash probes total",
            match direction {
                DirectionPolicy::Adaptive => "adaptive",
                DirectionPolicy::BottomUp => "bottom-up",
                DirectionPolicy::TopDown => unreachable!(),
            },
            r.stats.total_probes()
        );
    }
    if flags.has("levels") || direction != DirectionPolicy::TopDown {
        print_level_table(&r.stats);
    }
    if flags.has("validate") {
        validate_or_exit(&spec, &r.levels, source);
    }
    let f = &r.stats.comm.faults;
    if faulty || f.any() {
        println!(
            "faults: {} drops, {} truncations, {} duplicates => {} retransmissions; \
             {} recoveries",
            f.drops_injected,
            f.truncations_injected,
            f.duplicates_injected,
            f.retransmissions,
            f.recoveries
        );
    }
    emit_trace_artifacts(&mut world, flags);
}

fn cmd_path(flags: &Flags) {
    let spec = spec_from(flags);
    let grid = grid_from(flags);
    let source = flags.u64("source", 0);
    let graph = DistGraph::build(spec, grid);
    let mut world = SimWorld::bluegene(grid).with_wire_policy(wire_policy_from(flags));
    let r = or_exit(
        bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), source),
        "communication fault during BFS",
    );

    if let Some(list) = flags.0.get("targets") {
        // Batched lane wave: every target shares each per-hop control
        // round of the walk.
        let targets = parse_targets(list)
            .unwrap_or_else(|| usage_exit(&format!("--targets {list:?}: invalid value")));
        let batched = or_exit(
            path::try_multi(&graph, &mut world, &r.levels, source, &targets),
            "communication fault during batched path walk",
        );
        println!(
            "batched walk: {} lanes, {} hops, {} control rounds, {:.3} ms sim",
            targets.len(),
            batched.hops,
            batched.rounds,
            batched.sim_time * 1e3
        );
        for (t, p) in targets.iter().zip(&batched.paths) {
            match p {
                Some(p) => println!(
                    "  {t}: {} hops: {}",
                    p.len() - 1,
                    p.iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(" -> ")
                ),
                None => println!("  {t}: not reachable from {source}"),
            }
        }
        return;
    }

    let target = flags.u64("target", spec.n - 1);
    let walk = path::try_extract_path(&graph, &mut world, &r.levels, source, target);
    match or_exit(walk, "communication fault during path extraction") {
        Some(p) => {
            println!("shortest path ({} hops):", p.len() - 1);
            println!(
                "  {}",
                p.iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(" -> ")
            );
        }
        None => println!("{target} is not reachable from {source}"),
    }
}

fn cmd_serve(flags: &Flags) {
    apply_engine_threads(flags);
    let spec = spec_from(flags);
    let grid = grid_from(flags);
    let config = ServerConfig {
        batch_width: flags.u64("batch", 16) as usize,
        queue_capacity: flags.u64("queue-cap", 1024) as usize,
        deadline_ticks: flags.has("deadline").then(|| flags.u64("deadline", 8)),
        cache_capacity: flags.u64("cache-cap", 64) as usize,
        multi: multi::MultiConfig::default(),
        validate_batches: flags.has("validate"),
    };
    let wspec = WorkloadSpec {
        queries: flags.u64("queries", 64) as usize,
        hot_sources: flags.u64("hot", 16) as usize,
        theta: flags.f64("theta", 1.0),
        mix: QueryMix::default(),
        seed: flags.u64("workload-seed", 99),
    };
    let mean = flags.f64("arrivals", 4.0);
    let process = if let Some(path) = flags.0.get("arrival-replay") {
        let what = format!("--arrival-replay {path:?}");
        let text = or_exit(std::fs::read_to_string(path), &what);
        or_exit(ArrivalProcess::replay_from_text(&text), &what)
    } else {
        match flags.0.get("arrival-process").map(String::as_str) {
            None | Some("fixed") => ArrivalProcess::Fixed {
                per_tick: flags.u64("arrivals", 4).max(1) as usize,
            },
            Some("poisson") => ArrivalProcess::Poisson { mean },
            Some("bursty") => ArrivalProcess::Bursty {
                mean,
                burst: flags.f64("burst", 8.0),
            },
            Some(other) => usage_exit(&format!("--arrival-process {other:?}: invalid value")),
        }
    };
    println!(
        "G(n={}, k={}) on {}x{} — serving {} Zipf(θ={}) queries, batch width {}, \
         arrivals {:?}…",
        spec.n,
        spec.avg_degree,
        grid.rows(),
        grid.cols(),
        wspec.queries,
        wspec.theta,
        config.batch_width,
        process
    );
    let workload = wspec.generate(spec.n);
    let schedule = process.schedule(workload.len(), flags.u64("arrival-seed", 7));
    if let Some(path) = flags.0.get("arrival-record") {
        or_exit(
            std::fs::write(path, ArrivalProcess::schedule_to_text(&schedule)),
            &format!("--arrival-record {path:?}"),
        );
        println!("recorded arrival schedule to {path}");
    }
    let graph = DistGraph::build(spec, grid);
    let world = SimWorld::bluegene(grid).with_wire_policy(wire_policy_from(flags));
    let mut srv = BglServer::new(graph, world, config);
    let mut pending = workload.into_iter();
    for count in schedule {
        for q in pending.by_ref().take(count) {
            if srv.submit(q).is_err() {
                eprintln!("warning: queue full, query rejected (raise --queue-cap)");
            }
        }
        srv.pump();
    }
    srv.run_to_completion();

    let s = srv.stats();
    println!(
        "served {} of {} queries in {} ticks: {} by engine batches, {} from cache, \
         {} expired, {} rejected",
        s.served_total(),
        s.submitted + s.rejected,
        srv.tick(),
        s.served_engine,
        s.served_cache,
        s.expired,
        s.rejected
    );
    println!(
        "batches: {} ({} validated), mean occupancy {:.2}, {} waves ({} bottom-up), engine \
         {:.3} ms sim, cache {:.3} ms sim",
        s.batches,
        s.validated_batches,
        s.occupancy_mean(),
        s.waves_total,
        s.bu_waves,
        s.engine_sim_time * 1e3,
        s.cache_sim_time * 1e3
    );
    println!(
        "path walks: {} waves, {} lanes (mean {:.2}), {} hops, {} rounds, {:.3} ms sim",
        s.path_walks,
        s.path_walk_lanes,
        s.path_walk_occupancy_mean(),
        s.path_walk_hops,
        s.path_walk_rounds,
        s.path_walk_sim_time * 1e3
    );
    println!(
        "qps (simulated): {:.1}; latency mean {:.2} ticks, max {}; queue depth mean {:.2}, max {}",
        s.qps(),
        s.latency_ticks_mean(),
        s.latency_ticks_max,
        s.queue_depth_mean(),
        s.queue_depth_max
    );
    let c = srv.cache();
    println!(
        "cache: {} hits / {} misses, {} evictions (capacity {})",
        c.hits,
        c.misses,
        c.evictions,
        c.capacity()
    );
    let out = flags
        .0
        .get("summary-out")
        .cloned()
        .unwrap_or_else(|| "SERVER_summary.json".to_string());
    or_exit(
        std::fs::write(&out, srv.summary_json()),
        &format!("--summary-out {out:?}"),
    );
    println!("wrote {out}");
}

fn cmd_theory(flags: &Flags) {
    let n = flags.u64("n", 40_000_000) as f64;
    let p = flags.u64("p", 400) as f64;
    let kmax = flags.f64("kmax", 1e4);
    println!(
        "§3.1 analysis for n = {n}, P = {p} (square mesh √P = {:.0}):\n",
        p.sqrt()
    );
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14}",
        "k", "1D fold", "2D expand", "2D fold", "worst n/P·k"
    );
    for k in [1.0, 5.0, 10.0, 20.0, 34.0, 50.0, 100.0, 200.0] {
        let rt = p.sqrt();
        println!(
            "{:>6} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
            k,
            theory::expected_len_1d(n, k, p),
            theory::expected_len_2d_expand(n, k, p, rt),
            theory::expected_len_2d_fold(n, k, p, rt),
            theory::worst_case_len(n, k, p)
        );
    }
    match theory::crossover_degree(n, p, kmax) {
        Some(k) => println!(
            "\n1D/2D crossover degree: k = {k:.2} (the paper reports 34 at P = 400; \
             the exact root of its equation is ≈ 31.3)"
        ),
        None => println!("\nno 1D/2D crossover below k = {kmax}"),
    }
}

fn cmd_memory(flags: &Flags) {
    let grid = grid_from(flags);
    let per_rank = flags.u64("per-rank", 100_000);
    let k = flags.f64("k", 10.0);
    let n = per_rank * grid.len() as u64;
    let spec = GraphSpec::poisson(n, k, 0);
    let machine = MachineConfig::bluegene_l_half();
    let chunk = match flags.u64("chunk", 65536) {
        0 => ChunkPolicy::Unbounded,
        c => ChunkPolicy::fixed(c as usize),
    };
    let est = memory::estimate(&spec, grid, &machine, chunk);
    println!(
        "n = {n} (|V|/rank = {per_rank}, k = {k}) on {}x{} — per-node budget:",
        grid.rows(),
        grid.cols()
    );
    println!("  edge entries : {:>10.1} MB", est.edge_bytes / 1e6);
    println!("  column index : {:>10.1} MB", est.col_index_bytes / 1e6);
    println!("  row index    : {:>10.1} MB", est.row_index_bytes / 1e6);
    println!("  owned state  : {:>10.1} MB", est.owned_bytes / 1e6);
    println!("  buffers      : {:>10.1} MB", est.buffer_bytes / 1e6);
    println!("  fold bitmap  : {:>10.1} MB", est.bitmap_bytes / 1e6);
    println!(
        "  total        : {:>10.1} MB of {:.0} MB/node ({:.1}%) => {}",
        est.total() / 1e6,
        est.capacity_bytes / 1e6,
        est.utilization() * 100.0,
        if est.fits() { "FITS" } else { "DOES NOT FIT" }
    );
    let cap = memory::max_per_rank_vertices(k, grid, &machine, chunk);
    println!("  max |V|/rank at k = {k}: {cap}");
}

fn cmd_info() {
    for (name, m) in [
        (
            "BlueGene/L full (64x32x32)",
            MachineConfig::bluegene_l_full(),
        ),
        (
            "BlueGene/L half (32x32x32)",
            MachineConfig::bluegene_l_half(),
        ),
        ("MCR Linux cluster", MachineConfig::mcr_cluster()),
    ] {
        println!(
            "{name}: {} nodes, {} MB/node, link {:.0} MB/s, α = {:.1} µs, hash {:.0} Mprobe/s",
            m.node_count(),
            m.memory_per_node / (1024 * 1024),
            m.link_bandwidth / 1e6,
            m.software_overhead * 1e6,
            m.hash_rate / 1e6
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        print!("{HELP}");
        return;
    };
    let flags = Flags::parse(&args[1..]);
    if let Some(problem) = flag_error(cmd, &flags) {
        usage_exit(&problem);
    }
    match cmd.as_str() {
        "search" => cmd_search(&flags),
        "path" => cmd_path(&flags),
        "serve" => cmd_serve(&flags),
        "theory" => cmd_theory(&flags),
        "memory" => cmd_memory(&flags),
        "info" => cmd_info(),
        "help" | "--help" | "-h" => print!("{HELP}"),
        other => {
            eprintln!("unknown command {other:?}\n");
            print!("{HELP}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(s: &str) -> Flags {
        Flags::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_key_value_pairs() {
        let f = flags("--n 500 --k 12.5 --bidir");
        assert_eq!(f.u64("n", 0), 500);
        assert!((f.f64("k", 0.0) - 12.5).abs() < 1e-12);
        assert!(f.has("bidir"));
        assert!(!f.has("target"));
    }

    #[test]
    fn defaults_when_missing() {
        let f = flags("");
        assert_eq!(f.u64("rows", 4), 4);
        assert_eq!(f.f64("k", 10.0), 10.0);
    }

    #[test]
    fn grid_and_spec_construction() {
        let f = flags("--rows 2 --cols 8 --n 1000 --k 4 --seed 9");
        let g = grid_from(&f);
        assert_eq!((g.rows(), g.cols()), (2, 8));
        let spec = spec_from(&f);
        assert_eq!(spec.n, 1000);
        assert_eq!(spec.seed, 9);
    }

    #[test]
    fn bad_integer_rejected() {
        for (cmd, line, mention) in [
            ("search", "--n abc", "--n \"abc\""),
            ("search", "--k ten", "--k"),
            ("search", "--rows 0", "positive"),
            ("serve", "--queries -3", "--queries"),
            ("theory", "--kmax lots", "--kmax"),
            // Vertex flags must name a vertex of the graph: no clamping.
            ("search", "--n 1000 --source 5000", "--source 5000"),
            ("search", "--source 100000", "--source 100000"),
            ("search", "--n 1000 --target 1000", "--target 1000"),
            ("search", "--n 1000 --bidir --target 1000", "--target 1000"),
            ("search", "--n 1000 --bidir --source 1000", "--source 1000"),
            ("path", "--n 1000 --source 1000", "--source 1000"),
            ("path", "--n 1000 --target 5000", "--target 5000"),
            ("path", "--n 1000 --source 0 --targets 5,99999", "99999"),
        ] {
            let e = flag_error(cmd, &flags(line)).expect(line);
            assert!(e.contains(mention), "{line}: {e}");
        }
    }

    #[test]
    fn batch_width_must_fit_a_lane_mask() {
        for line in ["--batch 0", "--batch 65", "--batch many"] {
            let e = flag_error("serve", &flags(line)).expect(line);
            assert!(e.contains("1..=64"), "{line}: {e}");
        }
        for line in ["--batch 1", "--batch 64"] {
            assert_eq!(flag_error("serve", &flags(line)), None, "{line}");
        }
    }

    #[test]
    fn direction_flag_parses() {
        assert_eq!(direction_from(&flags("")), DirectionPolicy::TopDown);
        assert_eq!(
            direction_from(&flags("--direction off")),
            DirectionPolicy::TopDown
        );
        assert_eq!(
            direction_from(&flags("--direction adaptive")),
            DirectionPolicy::Adaptive
        );
        assert_eq!(
            direction_from(&flags("--direction bottom-up")),
            DirectionPolicy::BottomUp
        );
    }

    #[test]
    fn bad_direction_rejected() {
        let e = flag_error("search", &flags("--direction sideways")).expect("search");
        assert!(e.contains("--direction") && e.contains("adaptive"), "{e}");
    }

    #[test]
    fn unknown_enumerated_values_are_rejected() {
        for (cmd, line, mention) in [
            ("search", "--wire zip", "--wire"),
            ("path", "--wire zip", "--wire"),
            ("search", "--trace-level verbose", "--trace-level"),
            ("serve", "--arrival-process gaussian", "--arrival-process"),
            ("serve", "--arrivals 2.5", "--arrivals"),
            ("path", "--targets 1,x,3", "--targets"),
        ] {
            let e = flag_error(cmd, &flags(line)).expect(line);
            assert!(e.contains(mention), "{cmd} {line}: {e}");
        }
        // Fractional arrival rates are fine for the random processes.
        assert_eq!(
            flag_error("serve", &flags("--arrivals 2.5 --arrival-process poisson")),
            None
        );
    }

    #[test]
    fn clean_invocations_pass_flag_validation() {
        // The CI smoke invocations, among others, must stay accepted.
        for (cmd, line) in [
            (
                "search",
                "--n 30000 --k 8 --rows 2 --cols 4 --drop-rate 0.1 --dead-rank 3 --dead-at 4 \
                 --parity-group 4 --direction adaptive --validate",
            ),
            (
                "search",
                "--n 50000 --k 8 --rows 4 --cols 4 --trace --trace-out /tmp/t --wire auto",
            ),
            (
                "search",
                "--source 0 --target 99 --bidir --engine-threads 2",
            ),
            ("path", "--n 1000 --source 0 --target 99"),
            ("path", "--n 1000 --source 0 --targets 5,9,99 --wire delta"),
            ("path", "--n 1000 --source 999 --targets 0,999"),
            ("search", "--n 1000 --source 999 --target 0 --bidir"),
            (
                "serve",
                "--n 8000 --batch 8 --queries 16 --cache-cap 8 --deadline 6 --summary-out /tmp/s",
            ),
            (
                "serve",
                "--n 8000 --queries 32 --arrivals 3 --arrival-process poisson --arrival-seed 5",
            ),
            (
                "serve",
                "--n 8000 --queries 32 --arrival-process bursty --burst 10 --arrival-seed 3",
            ),
            ("theory", "--n 40000000 --p 400 --kmax 1e4"),
            ("memory", "--per-rank 100000 --k 10 --chunk 0"),
            ("info", ""),
            ("definitely-not-a-command", "--whatever x"),
        ] {
            assert_eq!(flag_error(cmd, &flags(line)), None, "{cmd} {line}");
        }
    }

    #[test]
    fn unknown_flags_are_rejected_per_command() {
        // A search flag is not a path/theory flag, and typos don't pass.
        for (cmd, line, mention) in [
            ("search", "--n 100 --sorce 5", "--sorce"),
            ("path", "--n 100 --drop-rate 0.1", "--drop-rate"),
            ("path", "--trace", "--trace"),
            ("serve", "--n 100 --direction adaptive", "--direction"),
            ("theory", "--rows 4", "--rows"),
            ("info", "--n 100", "--n"),
        ] {
            let e = flag_error(cmd, &flags(line)).expect(cmd);
            assert!(e.contains(mention), "{cmd}: {e}");
        }
    }

    #[test]
    fn contradictory_search_combinations_are_rejected() {
        for (line, mention) in [
            ("--bidir --drop-rate 0.1", "--bidir"),
            ("--bidir --dead-rank 3", "--bidir"),
            ("--bidir --parity-group 4", "--bidir"),
            ("--bidir --direction adaptive", "--direction"),
            ("--dead-at 4", "--dead-rank"),
            ("--parity-group 4", "--parity-group"),
        ] {
            let e = flag_error("search", &flags(line)).expect(line);
            assert!(e.contains(mention), "{line}: {e}");
        }
        // The same flags in working combinations stay accepted.
        for line in [
            "--dead-rank 3 --dead-at 4",
            "--parity-group 4 --drop-rate 0.05",
            "--bidir --target 9",
        ] {
            assert_eq!(flag_error("search", &flags(line)), None, "{line}");
        }
    }

    #[test]
    fn contradictory_path_and_serve_combinations_are_rejected() {
        let e = flag_error("path", &flags("--target 5 --targets 1,2")).expect("path");
        assert!(e.contains("--targets"), "{e}");
        let e = flag_error("serve", &flags("--burst 10")).expect("serve");
        assert!(e.contains("--burst"), "{e}");
        let e = flag_error("serve", &flags("--burst 10 --arrival-process poisson")).expect("serve");
        assert!(e.contains("--burst"), "{e}");
        // --burst is fine once the process actually is bursty.
        assert_eq!(
            flag_error("serve", &flags("--burst 10 --arrival-process bursty")),
            None
        );
        // Replaying a recorded schedule contradicts picking a generator.
        let e = flag_error(
            "serve",
            &flags("--arrival-replay sched.txt --arrival-process poisson"),
        )
        .expect("serve");
        assert!(e.contains("--arrival-replay"), "{e}");
        for line in [
            "--arrival-replay sched.txt",
            "--arrival-record sched.txt --arrival-process poisson",
        ] {
            assert_eq!(flag_error("serve", &flags(line)), None, "{line}");
        }
    }
}
