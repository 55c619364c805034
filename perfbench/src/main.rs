//! perfbench: end-to-end benchmark of the aerothermo workspace with a
//! per-layer ledger.
//!
//! ```text
//! perfbench --workload <solve_ladder|sweep_mix|serve> --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` the per-layer ledger.
//! Exits 1 when an output check fails. See `README.md` for the workloads,
//! the metric table and how to read the self-time tree.

mod ladder;
mod ledger;
mod report;
mod rng;
mod serve;
mod spans;
mod stats;
mod sweep_mix;

use std::path::{Path, PathBuf};
use std::time::Instant;

use report::{Check, Metric};
use spans::Tracer;

/// Fresh-process set-ups measured per run besides the run's own; the
/// reported `setup_s` is the median of all of them.
const SETUP_CHILDREN: usize = 10;

/// Where runs keep scratch files, spans and results (relative to the
/// directory the benchmark is run from).
const STATE_DIR: &str = ".perfbench";

/// Everything a workload needs to know about this run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Threads, connections and sweep workers: `available_parallelism`.
    pub nproc: usize,
    pub tracer: Tracer,
    /// Per-process scratch directory (relative, so socket paths stay short).
    pub dir: PathBuf,
    /// Process start, the zero of `setup_s`.
    pub start: Instant,
}

impl Ctx {
    pub fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    /// Whether to start another round of a workload that began at `t0`
    /// and has finished `rounds`: always the first, then only while one
    /// more round of the mean length still ends within `--seconds`, so the
    /// number of rounds does not flip with small changes in speed.
    pub fn another_round(&self, t0: Instant, rounds: u64) -> bool {
        let elapsed = t0.elapsed().as_secs_f64();
        rounds == 0 || elapsed * (rounds + 1) as f64 / rounds as f64 <= self.seconds
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                };
            }
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !["solve_ladder", "sweep_mix", "serve"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be solve_ladder, sweep_mix or serve, got '{}'",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The set-up phase alone, timed from process start; prints `setup_s <v>`.
fn setup_only(ctx: &Ctx) {
    let setup_s = match ctx.workload.as_str() {
        "solve_ladder" => {
            let s = ladder::setup(ctx);
            let t = ctx.start.elapsed().as_secs_f64();
            drop(s);
            t
        }
        "sweep_mix" => {
            let s = sweep_mix::setup(ctx);
            let t = ctx.start.elapsed().as_secs_f64();
            drop(s);
            t
        }
        _ => {
            let s = serve::setup(ctx).expect("serve set-up");
            let t = ctx.start.elapsed().as_secs_f64();
            s.stop();
            t
        }
    };
    println!("setup_s {setup_s}");
}

/// Run `--setup-only` in fresh processes and collect their set-up times.
fn setup_samples(args: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let res = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed"])
            .arg(args.seed.to_string())
            .args(["--seconds", "1", "--trace", "0", "--setup-only"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&res.stdout);
        let v = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok());
        match (res.status.success(), v) {
            (true, Some(v)) => out.push(v),
            _ => return Err(format!("set-up probe failed: {}", res.status)),
        }
    }
    Ok(out)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = Path::new(STATE_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: creating {}: {e}", dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        tracer: Tracer::new(args.trace),
        dir: dir.clone(),
        start,
    };
    if args.setup_only {
        setup_only(&ctx);
        std::fs::remove_dir_all(&dir).ok();
        return;
    }

    let mut outcome = match ctx.workload.as_str() {
        "solve_ladder" => ladder::run(&ctx),
        "sweep_mix" => sweep_mix::run(&ctx),
        _ => serve::run(&ctx),
    };
    let rss = peak_rss_mb();
    if ctx.tracer.enabled() {
        ledger::complete(&ctx, &mut outcome);
    }
    // Traced runs report the ledger, not set-up, so they skip the probes.
    let children = if args.trace { 0 } else { SETUP_CHILDREN };
    let mut setups = vec![outcome.setup_s];
    match setup_samples(&args, children) {
        Ok(v) => setups.extend(v),
        Err(e) => outcome.checks.push(Check::fail("set-up probes", &e)),
    }
    outcome.e2e.insert(
        0,
        Metric::new(
            "setup_s",
            "s",
            stats::median(&setups),
            setups.len(),
            "time to the first timed op; median over fresh processes",
        ),
    );
    outcome.e2e.insert(
        1,
        Metric::new(
            "peak_rss_mb",
            "MB",
            rss,
            1,
            "VmHWM at the end of the workload",
        ),
    );
    outcome.check(
        "no operation failed",
        outcome.failed == 0,
        format!("{} of {} failed", outcome.failed, outcome.attempted),
    );
    std::fs::remove_dir_all(&dir).ok();
    let ok = report::finish(&ctx, &outcome, Path::new(STATE_DIR));
    if !ok {
        std::process::exit(1);
    }
}
