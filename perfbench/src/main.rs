//! `perfbench`: the repository's benchmark, on both clocks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <search-poisson|search-rmat|serve-zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a
//! separate run that records spans and the simulated-clock trace and
//! reports the per-layer metrics. Every answer is checked; the last line
//! of standard output is one JSON object, and the exit code is 0 only
//! for a correct run. See `perfbench/README.md`.

mod fidelity;
mod layers;
mod report;
mod search;
mod serve;
mod setup;
mod spans;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};
use spans::Spans;
use std::path::Path;

const USAGE: &str = "usage: perfbench --workload <search-poisson|search-rmat|serve-zipf> \
--seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let started = std::time::Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !matches!(
        args.workload.as_str(),
        "search-poisson" | "search-rmat" | "serve-zipf"
    ) {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    }

    // Engine workers capped at the host's cores.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::set_worker_threads(nproc);
    let build = report::build_id();
    let mut rep = Report::new(if args.trace { PER_LAYER } else { END_TO_END });
    rep.line(format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    rep.line(format!(
        "host: nproc={nproc} engine_workers={} profile={} build={build:016x}; the threaded runtime \
         is left out on purpose: it spawns one OS thread per simulated rank",
        rayon::current_num_threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    ));

    fidelity::check(&mut rep);
    let mut sp = Spans::new(args.trace);
    match args.workload.as_str() {
        "search-poisson" => search::run(
            &search::poisson(),
            args.seed,
            args.seconds,
            args.trace,
            &mut rep,
            &mut sp,
        ),
        "search-rmat" => search::run(
            &search::rmat(),
            args.seed,
            args.seconds,
            args.trace,
            &mut rep,
            &mut sp,
        ),
        _ => serve::run(
            &serve::zipf(),
            args.seed,
            args.seconds,
            args.trace,
            &mut rep,
            &mut sp,
        ),
    }
    if !args.trace {
        match report::peak_rss_mb() {
            Some(mb) => rep.set("peak_rss_mb", mb, "VmHWM of the whole run"),
            None => rep
                .tally
                .error("cannot read VmHWM from /proc/self/status".into()),
        }
    }

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let key = format!(
        "{}-seed{}-trace{}-{build:016x}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = report::check_across_runs(&out.join("fingerprints"), &key, rep.fingerprint()) {
        rep.tally.error(e);
    }
    if args.trace {
        let path = out.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, sp.to_json()));
        match written {
            Ok(()) => rep.line(format!(
                "spans: {} written to {}",
                sp.spans().len(),
                path.display()
            )),
            Err(e) => rep.tally.error(format!("{}: {e}", path.display())),
        }
    }
    rep.line(format!(
        "run wall time: {:.3} s",
        started.elapsed().as_secs_f64()
    ));
    let correct = rep.print();
    std::process::exit(if correct { 0 } else { 1 });
}
