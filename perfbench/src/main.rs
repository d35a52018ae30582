//! The repository benchmark. One workload per process:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_steady|serve_onboard|world_mesh \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of the named workload.
//! `--trace 1` runs the named workload untraced, then every workload
//! traced, each for a quarter of the time, and prints every per-layer
//! metric from the traced pass of the workload whose layers it describes.
//! The named workload's traced and untraced passes give the tracing
//! overhead. The last stdout line is one JSON object; any wrong output
//! makes the process exit 1. See `perfbench/README.md`.

mod mesh;
mod onboard;
mod steady;
mod util;

use std::fmt::Write as _;
use util::Outcome;

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Seconds measured when `--seconds` is absent (`BENCHMARK.json`'s
/// `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Reconciliation tolerances of the traced run (share of the whole).
/// serve_onboard: compile stage sum against admit miss − admit hit.
pub const RECONCILE_COMPILE_TOL: f64 = 0.5;
/// world_mesh: the PDES windows' share of `run_until_parallel` wall. The
/// rest is the call's own start (worker pool, shard plan) and the steps
/// between windows; 93-97% coverage is typical.
pub const RECONCILE_WINDOW_TOL: f64 = 0.25;

const WORKLOADS: [&str; 3] = ["serve_steady", "serve_onboard", "world_mesh"];
const END_TO_END: [&str; 6] =
    ["ops_per_s", "latency_p50_us", "latency_p90_us", "cpu_us_per_op", "peak_rss_mb", "setup_s"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: "", seed: DEFAULT_SEED, seconds: DEFAULT_SECONDS, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value}; one of {WORKLOADS:?}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
    }
    Ok(args)
}

fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    match workload {
        "serve_steady" => Ok(steady::run(seed, seconds, traced)),
        "serve_onboard" => onboard::run(seed, seconds, traced),
        "world_mesh" => Ok(mesh::run(seed, seconds, traced)),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match measure(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the passes `args` asks for, prints the result and returns
/// whether every output was correct.
fn measure(args: &Args) -> Result<bool, String> {
    let steal0 = util::host_steal_ms();
    let mut passes: Vec<(&str, Outcome)> = Vec::new();
    let mut metrics: Vec<util::Metric> = Vec::new();
    if !args.trace {
        let mut out = run(args.workload, args.seed, args.seconds, false)?;
        out.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
        metrics.append(&mut out.metrics);
        passes.push((args.workload, out));
    } else {
        // Each workload's traced pass gets the same budget whichever
        // workload is named, so every per-layer metric has one home pass.
        let quarter = args.seconds / 4.0;
        passes.push((args.workload, run(args.workload, args.seed, quarter, false)?));
        for w in WORKLOADS {
            passes.push((w, run(w, args.seed, quarter, true)?));
        }
        let cpu = |(_, o): &(&str, Outcome)| o.get("cpu_us_per_op").unwrap_or(f64::NAN);
        let traced = passes[1..].iter().find(|(w, _)| *w == args.workload).map_or(f64::NAN, cpu);
        let overhead = traced / cpu(&passes[0]) - 1.0;
        for (_, out) in passes.iter_mut().skip(1) {
            metrics
                .extend(out.metrics.drain(..).filter(|m| !END_TO_END.contains(&m.name.as_str())));
        }
        metrics.push(util::Metric {
            name: "bench.trace_overhead_share".into(),
            value: overhead,
            unit: "ratio",
        });
    }
    let steal_ms = util::host_steal_ms() - steal0;
    if args.trace {
        metrics.push(util::Metric {
            name: "bench.host_steal_ms".into(),
            value: steal_ms as f64,
            unit: "ms",
        });
    }

    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (workload, out) in &passes {
        attempted += out.attempted;
        failed += out.failed;
        for line in &out.notes {
            println!("# {line}");
        }
        for m in &out.mismatches {
            eprintln!("MISMATCH [{workload}] {m}");
            correct = false;
        }
        if args.trace && !out.spans.spans.is_empty() {
            let path = std::path::PathBuf::from(format!(
                "perfbench/out/spans-{workload}-seed{}.tsv",
                args.seed
            ));
            out.spans.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("# spans -> {}", path.display());
        }
    }
    println!("# host steal during the run: {steal_ms} ms");
    if failed > 0 {
        println!(
            "# failed_ratio {:.6} ({failed} of {attempted} ops)",
            failed as f64 / attempted as f64
        );
    }
    let mut json = String::new();
    for m in &metrics {
        if !m.value.is_finite() {
            eprintln!("MISMATCH metric {} is not a number", m.name);
            correct = false;
        }
        println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(json, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        attempted.max(1)
    );
    Ok(correct)
}
