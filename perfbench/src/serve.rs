//! `serve`: an in-process `Daemon` on a Unix socket, driven in a closed
//! loop. The read phase sends seeded 64-point `query_batch` requests along
//! trajectory segments on one connection (about 5% of the points fall
//! outside the surrogate corridor and take the exact fallback); the mixed
//! phase keeps that stream going while a second connection submits a
//! seeded plan, polls `status` until it completes and fetches `results`.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use aerothermo_atmosphere::us76::Us76;
use aerothermo_core::surrogate::{ExactResponse, RadiativeModel, StagnationResponse};
use aerothermo_core::{HeatingModel, SurrogateBuilder, SurrogateQuery, SurrogateTable};
use aerothermo_gas::eq_table::air9_table;
use aerothermo_numerics::json::{self, write_f64, Value};
use aerothermo_numerics::telemetry::SolverError;
use aerothermo_service::{Client, Daemon, ServiceConfig};
use aerothermo_sweep::{
    load_records, run_sweep, CaseSpec, GasSpec, LevelSpec, SweepOptions, SweepPlan,
};

use crate::report::{Metric, Outcome};
use crate::rng::Rng;
use crate::stats::{median, time_median, Samples};
use crate::sweep_mix;
use crate::Ctx;

/// Points per request in the workload's query stream.
const BATCH: usize = 64;
/// Share of points outside the corridor (exact fallback).
const FALLBACK_SHARE: f64 = 0.05;
/// `status` polling interval of the job connection.
const POLL: Duration = Duration::from_millis(25);
/// A job still running after this long counts as timed out.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The daemon this workload runs: defaults, with `nproc` accept threads
/// and one sweep worker per job.
pub fn config(ctx: &Ctx, tag: &str) -> ServiceConfig {
    ServiceConfig {
        socket_path: ctx.path(&format!("{tag}.sock")),
        data_dir: ctx.path(&format!("{tag}-data")),
        // Two connections (queries, job) must be served at once.
        accept_threads: ctx.nproc.max(2),
        workers: 1,
        ..ServiceConfig::default()
    }
}

/// The daemon's exact stagnation path, rebuilt from its configuration.
pub fn exact_response(cfg: &ServiceConfig) -> ExactResponse<'static> {
    ExactResponse {
        atmosphere: &Us76,
        gas: air9_table(),
        model: HeatingModel::earth_sutton_graves(),
        radiative: RadiativeModel::TauberSuttonEarthSmooth,
        nose_radius: cfg.nose_radius,
    }
}

/// The surrogate the daemon should be serving, built here, and its build time.
pub fn reference_table(cfg: &ServiceConfig) -> (SurrogateTable, f64) {
    let mut exact = exact_response(cfg);
    let t0 = Instant::now();
    let table = SurrogateBuilder::new(cfg.corridor.0, cfg.corridor.1)
        .initial_grid(cfg.grid.0, cfg.grid.1)
        .tolerance(cfg.tolerance)
        .build(&mut exact)
        .expect("building the reference surrogate");
    (table, t0.elapsed().as_secs_f64())
}

/// Seeded query batches along trajectory segments inside the corridor,
/// with a fixed share of points moved above it.
pub struct Stream {
    rng: Rng,
    corridor: ((f64, f64), (f64, f64)),
}

impl Stream {
    pub fn new(seed: u64, cfg: &ServiceConfig) -> Self {
        Self {
            rng: Rng::new(seed ^ 0x0051_E47E),
            corridor: cfg.corridor,
        }
    }

    pub fn batch(&mut self, n: usize) -> (Vec<f64>, Vec<f64>) {
        let ((h0, h1), (v0, v1)) = self.corridor;
        let r = &mut self.rng;
        let (mut h, mut v) = (r.range(h0 + 5e3, h1), r.range(v0 + 1e3, v1));
        let (dh, dv) = (r.range(20.0, 80.0), r.range(5.0, 20.0));
        let mut hs = Vec::with_capacity(n);
        let mut vs = Vec::with_capacity(n);
        for _ in 0..n {
            hs.push(h);
            vs.push(v);
            h = (h - dh).max(h0);
            v = (v - dv).max(v0);
        }
        let outside = (FALLBACK_SHARE * n as f64).round() as usize;
        for _ in 0..outside {
            let k = r.below(n);
            hs[k] = r.range(h1 + 2e3, h1 + 8e3);
            vs[k] = r.range(6e3, 8e3);
        }
        (hs, vs)
    }
}

/// Expected answer for one point: the surrogate inside the corridor, the
/// exact path outside it.
fn expected(
    table: &SurrogateTable,
    exact: &mut ExactResponse,
    h: f64,
    v: f64,
) -> Result<(SurrogateQuery, bool), SolverError> {
    if table.contains(h, v) {
        Ok((table.query(h, v), false))
    } else {
        Ok((exact.evaluate(h, v)?, true))
    }
}

/// Points whose reply differs bitwise from the expected answer.
fn mismatches(
    resp: &Value,
    hs: &[f64],
    vs: &[f64],
    table: &SurrogateTable,
    exact: &mut ExactResponse,
) -> usize {
    let Some(items) = resp.get("results").and_then(Value::as_array) else {
        return hs.len();
    };
    if items.len() != hs.len() {
        return hs.len();
    }
    let mut bad = 0;
    for ((item, &h), &v) in items.iter().zip(hs).zip(vs) {
        let Ok((q, fallback)) = expected(table, exact, h, v) else {
            bad += 1;
            continue;
        };
        let bits = |k: &str| item.get(k).and_then(Value::as_f64).map(f64::to_bits);
        let ok = item.get("exact") == Some(&Value::Bool(fallback))
            && bits("p_stag") == Some(q.p_stag.to_bits())
            && bits("t_stag") == Some(q.t_stag.to_bits())
            && bits("q_conv") == Some(q.q_conv.to_bits())
            && bits("q_rad") == Some(q.q_rad.to_bits());
        bad += usize::from(!ok);
    }
    bad
}

/// The mixed phase's job: Titan VSL plus correlations, fixed per seed.
pub fn job_plan(seed: u64) -> SweepPlan {
    let mut rng = Rng::new(seed ^ 0x0B5E_4AB5);
    let mut plan = SweepPlan::new(format!("serve_job_seed{seed}"));
    for k in 0..4 {
        plan.push(CaseSpec::new(
            format!("vsl-titan-{k}"),
            GasSpec::Titan { ch4: 0.05 },
            LevelSpec::Vsl {
                n_points: 40,
                radiating: false,
            },
            sweep_mix::titan_flow(&mut rng),
        ));
    }
    for k in 0..8 {
        plan.push(CaseSpec::new(
            format!("corr-titan-{k}"),
            GasSpec::Titan { ch4: 0.05 },
            LevelSpec::Correlation { k_sg: 1.7e-4 },
            sweep_mix::titan_flow(&mut rng),
        ));
    }
    plan
}

pub struct Setup {
    daemon: Daemon,
    client: Client,
    cfg: ServiceConfig,
}

impl Setup {
    /// Shut the daemon down and join its accept threads.
    pub fn stop(mut self) {
        self.client.shutdown().ok();
        drop(self.client);
        self.daemon.run_until_shutdown();
    }
}

/// `Daemon::start`, connect, and the first query (which builds the
/// resident surrogate).
pub fn setup_with(cfg: ServiceConfig) -> Result<Setup, SolverError> {
    let daemon = Daemon::start(cfg.clone())?;
    let mut client = Client::connect(&cfg.socket_path)?;
    let ((h0, h1), (v0, v1)) = cfg.corridor;
    client.query(0.5 * (h0 + h1), 0.5 * (v0 + v1))?;
    Ok(Setup {
        daemon,
        client,
        cfg,
    })
}

pub fn setup(ctx: &Ctx) -> Result<Setup, SolverError> {
    setup_with(config(ctx, "serve"))
}

/// Query-stream totals for one phase.
#[derive(Default)]
struct Phase {
    latency: Samples,
    points: usize,
    wrong: usize,
    attempted: u64,
    failed: u64,
}

fn query_loop(
    ctx: &Ctx,
    s: &mut Setup,
    stream: &mut Stream,
    check: &mut (SurrogateTable, ExactResponse<'static>),
    name: &str,
    until: impl Fn() -> bool,
) -> Phase {
    let tr = &ctx.tracer;
    let root = tr.begin(name, None, 0);
    let mut p = Phase::default();
    let mut req = 0u64;
    loop {
        let (hs, vs) = stream.batch(BATCH);
        let sp = tr.begin("query_batch", root, req);
        let t0 = Instant::now();
        let r = s.client.query_batch(&hs, &vs);
        let dt = t0.elapsed().as_secs_f64();
        tr.end(sp);
        p.attempted += 1;
        match r {
            Ok(v) => {
                p.latency.push(dt);
                p.points += hs.len();
                p.wrong += tr.span("verify", root, req, || {
                    mismatches(&v, &hs, &vs, &check.0, &mut check.1)
                });
            }
            Err(_) => {
                p.failed += 1;
                p.latency.miss();
            }
        }
        req += 1;
        if until() {
            break;
        }
    }
    tr.end(root);
    p
}

/// What the job connection saw.
#[derive(Default)]
struct Jobs {
    wall: Samples,
    stores: Vec<String>,
    records: Vec<usize>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn job_loop(ctx: &Ctx, socket: &str, plan: &SweepPlan, min_secs: f64) -> Jobs {
    let tr = &ctx.tracer;
    let root = tr.begin("mixed.job", None, 0);
    let mut j = Jobs::default();
    let t_phase = Instant::now();
    let mut client = match Client::connect(socket) {
        Ok(c) => c,
        Err(e) => {
            j.attempted += 1;
            j.failed += 1;
            j.errors.push(e.to_string());
            return j;
        }
    };
    let mut req = 0u64;
    loop {
        let t0 = Instant::now();
        j.attempted += 1;
        let submitted = tr.span("submit", root, req, || client.submit(plan, None, None));
        let id = match submitted {
            Ok(id) => id,
            Err(e) => {
                j.failed += 1;
                j.wall.miss();
                j.errors.push(e.to_string());
                break;
            }
        };
        let status = loop {
            tr.span("poll_wait", root, req, || std::thread::sleep(POLL));
            j.attempted += 1;
            match tr.span("status", root, req, || client.status(&id)) {
                Ok(_) if t0.elapsed() > JOB_TIMEOUT => {
                    break Err(SolverError::BadInput(format!("job {id} timed out")));
                }
                Ok(st) if st.get("phase").and_then(Value::as_str) == Some("running") => {}
                Ok(st) => break Ok(st),
                Err(e) => break Err(e),
            }
        };
        let done = t0.elapsed().as_secs_f64();
        match status {
            Ok(st) if st.get("phase").and_then(Value::as_str) == Some("completed") => {
                j.wall.push(done);
                if let Some(store) = st.get("store").and_then(Value::as_str) {
                    j.stores.push(store.to_string());
                }
            }
            Ok(st) => {
                j.failed += 1;
                j.wall.miss();
                j.errors
                    .push(format!("job {id} ended {:?}", st.get("phase")));
            }
            Err(e) => {
                j.failed += 1;
                j.wall.miss();
                j.errors.push(e.to_string());
            }
        }
        j.attempted += 1;
        match tr.span("results", root, req, || client.results(&id)) {
            Ok(v) => j.records.push(
                v.get("records")
                    .and_then(Value::as_array)
                    .map_or(0, <[Value]>::len),
            ),
            Err(e) => {
                j.failed += 1;
                j.errors.push(e.to_string());
            }
        }
        req += 1;
        if t_phase.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    tr.end(root);
    j
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome {
        workers: format!("accept threads {}, job workers 1, connections 2", ctx.nproc),
        ..Outcome::default()
    };
    let mut s = match setup(ctx) {
        Ok(s) => s,
        Err(e) => {
            o.setup_s = ctx.start.elapsed().as_secs_f64();
            o.attempted = 1;
            o.failed = 1;
            o.check("daemon starts and answers", false, e.to_string());
            return o;
        }
    };
    o.setup_s = ctx.start.elapsed().as_secs_f64();
    let (table, build_s) = reference_table(&s.cfg);
    let mut check = (table, exact_response(&s.cfg));
    let mut stream = Stream::new(ctx.seed, &s.cfg);
    let plan = job_plan(ctx.seed);
    let half = 0.5 * ctx.seconds;

    let t_read = Instant::now();
    let read = query_loop(ctx, &mut s, &mut stream, &mut check, "read", || {
        t_read.elapsed().as_secs_f64() >= half
    });

    let stop = AtomicBool::new(false);
    let socket = s.cfg.socket_path.clone();
    let (mixed, jobs) = std::thread::scope(|sc| {
        let jobs = sc.spawn(|| {
            // Stop the query stream even if the job loop panics.
            let _stop = StopOnDrop(&stop);
            job_loop(ctx, &socket, &plan, half)
        });
        let mixed = query_loop(
            ctx,
            &mut s,
            &mut stream,
            &mut check,
            "mixed.queries",
            || stop.load(Ordering::SeqCst),
        );
        (mixed, jobs.join().expect("job connection thread panicked"))
    });

    // The reference for the job's records: the same plan run in-process.
    let reference =
        run_sweep(&plan, &SweepOptions::default()).map(|r| sweep_mix::fingerprint(&r.outcomes));
    let job_fps: Vec<_> = jobs
        .stores
        .iter()
        .map(|p| load_records(p).map(|r| sweep_mix::fingerprint(&r)))
        .collect();
    s.stop();

    o.attempted = read.attempted + mixed.attempted + jobs.attempted;
    o.failed = read.failed + mixed.failed + jobs.failed;
    // Points per median round trip: a mean would follow the host's
    // wake-up stalls, which swing several-fold between runs.
    let rate = BATCH as f64 / read.latency.median();
    let (tl, tail) = read.latency.tail();
    let (mtl, mtail) = mixed.latency.tail();
    o.e2e.extend([
        Metric::new(
            "p50_ms",
            "ms",
            1e3 * read.latency.median(),
            read.latency.len(),
            "64-point query_batch round trip, read phase (query_p50_us)",
        ),
        Metric::new(
            "throughput_per_s",
            "1/s",
            rate,
            read.latency.len(),
            "points per second at the median read-phase round trip (query_points_per_s)",
        ),
    ]);
    o.detail.extend([
        Metric::new(
            "query_p50_us",
            "us",
            1e6 * read.latency.median(),
            read.latency.len(),
            "read phase",
        ),
        Metric::new(
            format!("query_{tl}_us"),
            "us",
            1e6 * tail,
            read.latency.len(),
            "read phase",
        ),
        Metric::new(
            "query_points_per_s",
            "1/s",
            rate,
            read.latency.len(),
            "read phase",
        ),
        Metric::new(
            "mixed_query_p50_us",
            "us",
            1e6 * mixed.latency.median(),
            mixed.latency.len(),
            "while a job runs",
        ),
        Metric::new(
            format!("mixed_query_{mtl}_us"),
            "us",
            1e6 * mtail,
            mixed.latency.len(),
            "while a job runs",
        ),
        Metric::new(
            "mixed_job_s",
            "s",
            jobs.wall.median(),
            jobs.wall.len(),
            "submit to completed, polled every 25 ms",
        ),
        Metric::new(
            "reference_surrogate_build_s",
            "s",
            build_s,
            1,
            "untimed reference table for the answer checks",
        ),
    ]);

    let points = read.points + mixed.points;
    let wrong = read.wrong + mixed.wrong;
    o.check(
        "answers are bitwise equal to the reference surrogate and exact path",
        wrong == 0,
        format!("{wrong} of {points} points differ"),
    );
    o.check(
        "jobs complete",
        jobs.errors.is_empty() && jobs.wall.len() > 0,
        if jobs.errors.is_empty() {
            format!("{} jobs", jobs.wall.len())
        } else {
            jobs.errors.join("; ")
        },
    );
    let n = plan.cases.len();
    o.check(
        "results replies carry every record",
        jobs.records.iter().all(|&r| r == n),
        format!("{:?} records vs {n} cases", jobs.records),
    );
    let matched = match &reference {
        Ok(fp) => job_fps.iter().all(|j| j.as_ref().is_ok_and(|j| j == fp)),
        Err(_) => false,
    };
    o.check(
        "job records match an in-process run_sweep of the plan",
        matched && !job_fps.is_empty(),
        format!(
            "{} job stores compared by normalized_fingerprint",
            job_fps.len()
        ),
    );
    o
}

/// The request line `Client::query_batch` sends.
fn request_line(hs: &[f64], vs: &[f64]) -> String {
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|&x| write_f64(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\"op\": \"query_batch\", \"altitude\": [{}], \"velocity\": [{}]}}",
        list(hs),
        list(vs)
    )
}

/// The response line the daemon writes for these answers.
fn response_line(hs: &[f64], vs: &[f64], answers: &[(SurrogateQuery, bool)]) -> String {
    let items: Vec<String> = hs
        .iter()
        .zip(vs)
        .zip(answers)
        .map(|((&h, &v), (q, exact))| {
            format!(
                "{{\"altitude\": {}, \"velocity\": {}, \"p_stag\": {}, \"t_stag\": {}, \
                 \"q_conv\": {}, \"q_rad\": {}, \"exact\": {exact}}}",
                write_f64(h),
                write_f64(v),
                write_f64(q.p_stag),
                write_f64(q.t_stag),
                write_f64(q.q_conv),
                write_f64(q.q_rad),
            )
        })
        .collect();
    let fallbacks = answers.iter().filter(|a| a.1).count();
    format!(
        "{{\"ok\": true, \"n\": {}, \"exact_fallbacks\": {fallbacks}, \"results\": [{}]}}",
        items.len(),
        items.join(", ")
    )
}

/// The exact response bytes for `line`, read over a raw connection.
fn raw_roundtrip(socket: &str, line: &str) -> std::io::Result<String> {
    let mut stream = UnixStream::connect(socket)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut out = String::new();
    BufReader::new(stream).read_line(&mut out)?;
    Ok(out.trim_end().to_string())
}

/// Ledger for the surrogate, JSON and service layers: a fresh daemon,
/// `query_batch` round trips at 1, 64 and 1000 points, and replays of the
/// encode, parse and kernel work on the exact request and response bytes.
pub fn replay_layers(ctx: &Ctx, o: &mut Outcome) {
    let tr = &ctx.tracer;
    let cfg = config(ctx, "ledger");
    let (table, build_s) = tr.span("ledger.surrogate_build", None, 0, || reference_table(&cfg));
    o.layer("core.surrogate.build_s", "s", build_s, 1);
    let mut exact = exact_response(&cfg);
    let mut stream = Stream::new(ctx.seed, &cfg);

    // Kernel probes.
    let ((h0, h1), (v0, v1)) = cfg.corridor;
    let mut rng = Rng::new(ctx.seed);
    let hs: Vec<f64> = (0..4096).map(|_| rng.range(h0, h1)).collect();
    let vs: Vec<f64> = (0..4096).map(|_| rng.range(v0, v1)).collect();
    let mut out = vec![SurrogateQuery::default(); hs.len()];
    let per_batch = tr.span("probe.surrogate_query", None, 0, || {
        time_median(200, || {
            table.query_batch(
                std::hint::black_box(&hs),
                std::hint::black_box(&vs),
                &mut out,
            )
        })
    });
    o.layer(
        "core.surrogate.query_ns_per_point",
        "ns",
        1e9 * per_batch / hs.len() as f64,
        200,
    );
    let outside: Vec<(f64, f64)> = (0..200)
        .map(|_| (rng.range(h1 + 2e3, h1 + 8e3), rng.range(6e3, 8e3)))
        .collect();
    let mut k = 0;
    let fallback = tr.span("probe.exact_fallback", None, 0, || {
        time_median(outside.len(), || {
            let (h, v) = outside[k];
            k += 1;
            std::hint::black_box(exact.evaluate(h, v).expect("exact fallback"));
        })
    });
    o.layer(
        "core.exact_fallback_us",
        "us",
        1e6 * fallback,
        outside.len(),
    );

    let root = tr.begin("ledger.service", None, 0);
    let mut s = match setup_with(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            o.check("ledger daemon starts", false, e.to_string());
            return;
        }
    };
    for (n, reps) in [(1usize, 300usize), (64, 300), (1000, 40)] {
        let (hs, vs) = stream.batch(n);
        let req = request_line(&hs, &vs);
        let mut rt = Vec::with_capacity(reps);
        let mut ok = true;
        for r in 0..reps {
            let sp = tr.begin(&format!("query_batch.{n}"), root, r as u64);
            let t0 = Instant::now();
            ok &= s.client.query_batch(&hs, &vs).is_ok();
            rt.push(t0.elapsed().as_secs_f64());
            tr.end(sp);
        }
        let answers: Vec<(SurrogateQuery, bool)> = hs
            .iter()
            .zip(&vs)
            .map(|(&h, &v)| expected(&table, &mut exact, h, v).expect("expected answer"))
            .collect();
        let resp = response_line(&hs, &vs, &answers);
        let raw = raw_roundtrip(&s.cfg.socket_path, &req);
        o.check(
            format!("replayed {n}-point response is byte-identical to the daemon's"),
            ok && raw.as_deref().is_ok_and(|r| r == resp),
            match &raw {
                Ok(r) => format!("{} response bytes", r.len()),
                Err(e) => e.to_string(),
            },
        );
        let client_encode = time_median(reps, || {
            std::hint::black_box(request_line(std::hint::black_box(&hs), &vs));
        });
        let server_parse = time_median(reps, || {
            std::hint::black_box(json::parse(std::hint::black_box(&req)).expect("request parses"));
        });
        let kernel = time_median(reps, || {
            for (&h, &v) in hs.iter().zip(&vs) {
                std::hint::black_box(expected(&table, &mut exact, h, v).expect("answer"));
            }
        });
        let server_encode = time_median(reps, || {
            std::hint::black_box(response_line(std::hint::black_box(&hs), &vs, &answers));
        });
        let client_parse = time_median(reps, || {
            std::hint::black_box(
                json::parse(std::hint::black_box(&resp)).expect("response parses"),
            );
        });
        let roundtrip = median(&rt);
        let attributed = client_encode + server_parse + kernel + server_encode + client_parse;
        o.layer(
            format!("numerics.json.encode_us.{n}"),
            "us",
            1e6 * (client_encode + server_encode),
            reps,
        );
        o.layer(
            format!("numerics.json.parse_us.{n}"),
            "us",
            1e6 * (server_parse + client_parse),
            reps,
        );
        o.layer(
            format!("service.roundtrip_us.{n}"),
            "us",
            1e6 * roundtrip,
            reps,
        );
        o.layer(
            format!("service.unattributed_us.{n}"),
            "us",
            1e6 * (roundtrip - attributed),
            reps,
        );
        o.detail.push(Metric::new(
            format!("service.kernel_us.{n}"),
            "us",
            1e6 * kernel,
            reps,
            format!(
                "round trip {:.1} us = client encode {:.1} + server parse {:.1} + kernel {:.1} + server encode {:.1} + client parse {:.1} + unattributed {:.1}",
                1e6 * roundtrip,
                1e6 * client_encode,
                1e6 * server_parse,
                1e6 * kernel,
                1e6 * server_encode,
                1e6 * client_parse,
                1e6 * (roundtrip - attributed)
            ),
        ));
    }
    tr.end(root);
    s.stop();
}
