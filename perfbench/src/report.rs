//! Results: the human-readable report, the machine block, the results
//! file and the final JSON line.

use std::fmt::Write as _;
use std::path::Path;

use aerothermo_numerics::json::{self, write_f64, write_string, Value};

use crate::Ctx;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a count or a single measurement).
    pub samples: usize,
    pub note: String,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples,
            note: note.into(),
        }
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
    /// A failure caused by a documented program defect: reported on every
    /// run as a failure, but it does not clear `correct` (README.md,
    /// "Known defects").
    pub known_defect: Option<&'static str>,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ok,
            detail: detail.into(),
            known_defect: None,
        }
    }

    pub fn fail(name: &str, detail: &str) -> Self {
        Self::new(name, false, detail)
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// This process's own set-up time \[s\].
    pub setup_s: f64,
    /// End-to-end metrics (the gated set, shared by every workload).
    pub e2e: Vec<Metric>,
    /// The workload's own end-to-end figures under their issue names.
    pub detail: Vec<Metric>,
    /// Per-layer ledger (traced runs only).
    pub layers: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Thread/worker/connection sizing of this workload.
    pub workers: String,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check::new(name, ok, detail));
    }

    pub fn layer(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.layers
            .push(Metric::new(name, unit, value, samples, ""));
    }

    pub fn has_layer(&self, name: &str) -> bool {
        self.layers.iter().any(|m| m.name == name)
    }
}

/// The like-for-like guard: results whose blocks differ in anything but
/// `seed` and `commit` are not comparable.
struct Machine {
    num_cpus: usize,
    rayon_threads: usize,
    workers: String,
    features: Vec<&'static str>,
    seed: u64,
    commit: String,
}

impl Machine {
    fn probe(ctx: &Ctx, workers: &str) -> Self {
        Self {
            num_cpus: ctx.nproc,
            rayon_threads: rayon::current_num_threads(),
            workers: workers.to_string(),
            features: aerothermo_numerics::simd::active_features(),
            seed: ctx.seed,
            commit: commit_id(),
        }
    }

    fn to_json(&self) -> String {
        let features: Vec<String> = self.features.iter().map(|f| write_string(f)).collect();
        format!(
            "{{\"num_cpus\": {}, \"rayon_threads\": {}, \"workers\": {}, \"features\": [{}], \"seed\": {}, \"commit\": {}}}",
            self.num_cpus,
            self.rayon_threads,
            write_string(&self.workers),
            features.join(", "),
            self.seed,
            write_string(&self.commit)
        )
    }

    /// The fields that must match for two results to be compared.
    fn key(v: &Value) -> String {
        let f = |k: &str| v.get(k).map(|x| format!("{x:?}")).unwrap_or_default();
        format!(
            "{}|{}|{}|{}",
            f("num_cpus"),
            f("rayon_threads"),
            f("workers"),
            f("features")
        )
    }
}

/// `git:<HEAD>` inside a git checkout, else `src:<digest>` of the sources
/// the benchmark builds from (FNV-1a over sorted paths and contents).
fn commit_id() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
    {
        let head = String::from_utf8_lossy(&out.stdout).trim().to_string();
        if out.status.success() && !head.is_empty() {
            return format!("git:{head}");
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/src",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = f.to_string_lossy().into_owned().into_bytes();
        for b in bytes
            .iter()
            .chain(std::fs::read(f).unwrap_or_default().iter())
        {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src:{h:016x}")
}

fn collect_files(p: &Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

fn num(v: f64) -> String {
    // A failed operation makes a percentile infinite; keep the line valid
    // JSON with a value no bound can accept.
    if v.is_finite() {
        write_f64(v)
    } else {
        "1e300".into()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let items: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                write_string(&m.name),
                num(m.value),
                write_string(m.unit),
                m.samples
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn print_metrics(title: &str, ms: &[Metric]) {
    if ms.is_empty() {
        return;
    }
    println!("{title}:");
    for m in ms {
        println!(
            "  {:<40} {:>16.6} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
}

/// The newest untraced result of this workload on a comparable machine.
fn latest_untraced(results: &Path, workload: &str, key: &str) -> Option<Value> {
    let mut best: Option<(u128, Value)> = None;
    for e in std::fs::read_dir(results).ok()?.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        // `<workload>-seed<n>-trace0-<unix ms>.json`
        let Some(stamp) = name
            .strip_prefix(&format!("{workload}-"))
            .and_then(|rest| rest.split_once("-trace0-"))
            .and_then(|(_, t)| t.trim_end_matches(".json").parse::<u128>().ok())
        else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(e.path()) else {
            continue;
        };
        let Ok(v) = json::parse(&text) else { continue };
        if v.get("machine").map(Machine::key).as_deref() != Some(key) {
            continue;
        }
        if best.as_ref().is_none_or(|(t, _)| stamp > *t) {
            best = Some((stamp, v));
        }
    }
    best.map(|(_, v)| v)
}

/// Print the report, write the results (and, traced, the spans), print
/// the final JSON line. Returns whether every check passed.
pub fn finish(ctx: &Ctx, o: &Outcome, state: &Path) -> bool {
    let machine = Machine::probe(ctx, &o.workers);
    let trace = u8::from(ctx.tracer.enabled());
    let correct = o.checks.iter().all(|c| c.ok || c.known_defect.is_some());
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let tag = format!("{}-seed{}-trace{trace}-{stamp}", ctx.workload, ctx.seed);

    println!(
        "perfbench {} seed={} seconds={} trace={trace}",
        ctx.workload, ctx.seed, ctx.seconds
    );
    println!("machine: {}", machine.to_json());
    print_metrics("end-to-end", &o.e2e);
    print_metrics("workload figures", &o.detail);
    println!(
        "operations: attempted={} failed={} error_ratio={}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    println!("checks:");
    for c in &o.checks {
        let verdict = match (c.ok, c.known_defect) {
            (true, _) => "PASS".to_string(),
            (false, Some(d)) => format!("FAIL (known defect: {d})"),
            (false, None) => "FAIL".to_string(),
        };
        println!("  {verdict:<6} {}: {}", c.name, c.detail);
    }

    let mut extra = String::new();
    if ctx.tracer.enabled() {
        print_metrics("per-layer ledger", &o.layers);
        let tree = ctx.tracer.self_time_tree();
        let wall: f64 = tree.iter().map(|r| r.self_s).sum();
        println!(
            "self-time tree ({wall:.6} s of self time; each root's rows sum to its wall, \
             and roots on concurrent threads overlap):"
        );
        println!(
            "  {:<64} {:>8} {:>12} {:>7}",
            "path", "count", "self_s", "share"
        );
        let mut tree_json = Vec::new();
        for r in &tree {
            println!(
                "  {:<64} {:>8} {:>12.6} {:>6.2}%",
                r.path,
                r.count,
                r.self_s,
                100.0 * r.self_s / wall.max(1e-12)
            );
            tree_json.push(format!(
                "{{\"path\": {}, \"count\": {}, \"self_s\": {}}}",
                write_string(&r.path),
                r.count,
                write_f64(r.self_s)
            ));
        }
        let traces = state.join("traces");
        let spans_path = traces.join(format!("{tag}.spans.json"));
        if std::fs::create_dir_all(&traces).is_ok()
            && std::fs::write(&spans_path, ctx.tracer.to_json()).is_ok()
        {
            println!("spans: {}", spans_path.display());
        }
        let _ = write!(extra, ", \"tree\": [{}]", tree_json.join(", "));
        let key = Machine::key(&json::parse(&machine.to_json()).expect("machine block is JSON"));
        match latest_untraced(&state.join("results"), &ctx.workload, &key) {
            Some(base) => {
                println!("tracing overhead (traced minus newest comparable untraced run):");
                let mut rows = Vec::new();
                for m in &o.e2e {
                    let b = base
                        .get("e2e")
                        .and_then(|e| e.get(&m.name))
                        .and_then(|x| x.get("value"))
                        .and_then(Value::as_f64);
                    if let Some(b) = b {
                        let d = m.value - b;
                        println!(
                            "  {:<24} traced {:>14.6} untraced {:>14.6} diff {:>+12.6} {} ({:+.2}%)",
                            m.name,
                            m.value,
                            b,
                            d,
                            m.unit,
                            100.0 * d / b
                        );
                        rows.push(format!("{}: {}", write_string(&m.name), num(d)));
                    }
                }
                let _ = write!(extra, ", \"tracing_overhead\": {{{}}}", rows.join(", "));
            }
            None => println!(
                "tracing overhead: no comparable untraced result yet (run with --trace 0 first)"
            ),
        }
    }

    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"known_defect\": {}, \"detail\": {}}}",
                write_string(&c.name),
                c.ok,
                c.known_defect.map_or_else(|| "null".into(), write_string),
                write_string(&c.detail)
            )
        })
        .collect();
    let results = state.join("results");
    let doc = format!(
        "{{\"workload\": {}, \"trace\": {trace}, \"seconds\": {}, \"machine\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"e2e\": {}, \"detail\": {}, \"layers\": {}, \"checks\": [{}]{extra}}}\n",
        write_string(&ctx.workload),
        write_f64(ctx.seconds),
        machine.to_json(),
        o.attempted,
        o.failed,
        metrics_json(&o.e2e),
        metrics_json(&o.detail),
        metrics_json(&o.layers),
        checks.join(", ")
    );
    if std::fs::create_dir_all(&results).is_ok() {
        let path = results.join(format!("{tag}.json"));
        if std::fs::write(&path, doc).is_ok() {
            println!("results: {}", path.display());
        }
    }

    let shown = if ctx.tracer.enabled() {
        &o.layers
    } else {
        &o.e2e
    };
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                write_string(&m.name),
                num(m.value),
                write_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
    correct
}
