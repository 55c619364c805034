//! The `aerothermod` daemon: a bounded accept pool on one Unix-domain
//! listener, a line-delimited JSON dispatch loop, and the resident query
//! engine (equilibrium gas table + adaptively sampled heating surrogate)
//! that makes repeat queries cheap.
//!
//! No async runtime: `accept_threads` OS threads block in `accept()` on
//! the shared listener, and each serves its connection to completion
//! (thread-per-connection on a bounded pool; excess connections queue in
//! the kernel backlog). Sweep jobs run on detached threads through the
//! existing [`aerothermo_sweep::run_sweep`] worker pool, so the protocol
//! layer adds no numerical path of its own.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use aerothermo_atmosphere::us76::Us76;
use aerothermo_core::surrogate::{ExactResponse, RadiativeModel, StagnationResponse};
use aerothermo_core::{HeatingModel, SurrogateBuilder, SurrogateQuery, SurrogateTable};
use aerothermo_gas::eq_table::air9_table;
use aerothermo_numerics::json::{self, write_f64, write_string, Value};
use aerothermo_numerics::metrics;
use aerothermo_numerics::telemetry::{counters, Counter, SolverError};
use aerothermo_sweep::{ShardSpec, ShardStrategy, SweepPlan};

use crate::jobs::{Job, JobRegistry};
use crate::ServiceConfig;

/// Longest request line the daemon reads, newline excluded. [`crate::Client`]
/// refuses to send anything longer; a connection that exceeds it gets one
/// `ok:false` answer and is closed.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Recover from poisoning instead of cascading (a panicking handler is
/// already contained by `catch_unwind`; its locks must stay usable).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by every accept thread.
struct Shared {
    cfg: ServiceConfig,
    jobs: JobRegistry,
    /// The resident heating surrogate, built lazily on first query and
    /// then reused by every later request on every connection.
    table: Mutex<Option<Arc<SurrogateTable>>>,
    stop: AtomicBool,
}

impl Shared {
    /// The exact stagnation-response path the surrogate approximates
    /// (and the fallback for out-of-corridor queries). The equilibrium
    /// air table behind it is `OnceLock`-resident for the process
    /// lifetime — the warm cache this daemon exists to keep.
    fn exact_response(&self) -> ExactResponse<'static> {
        ExactResponse {
            atmosphere: &Us76,
            gas: air9_table(),
            model: HeatingModel::earth_sutton_graves(),
            radiative: RadiativeModel::TauberSuttonEarthSmooth,
            nose_radius: self.cfg.nose_radius,
        }
    }

    /// Return the resident surrogate, building it on first use. The
    /// build runs under the lock so concurrent first queries wait for
    /// one build instead of racing duplicates.
    fn ensure_table(&self) -> Result<Arc<SurrogateTable>, SolverError> {
        let mut guard = relock(&self.table);
        if let Some(t) = guard.as_ref() {
            return Ok(Arc::clone(t));
        }
        let (h_range, v_range) = self.cfg.corridor;
        let mut exact = self.exact_response();
        let table = SurrogateBuilder::new(h_range, v_range)
            .initial_grid(self.cfg.grid.0, self.cfg.grid.1)
            .tolerance(self.cfg.tolerance)
            .build(&mut exact)?;
        let table = Arc::new(table);
        *guard = Some(Arc::clone(&table));
        Ok(table)
    }

    /// Answer one heating query: surrogate inside the corridor, exact
    /// path (counted as a fallback) outside it.
    fn answer(&self, altitude: f64, velocity: f64) -> Result<(SurrogateQuery, bool), SolverError> {
        let table = self.ensure_table()?;
        if table.contains(altitude, velocity) {
            Ok((table.query(altitude, velocity), false))
        } else {
            counters::add(Counter::SurrogateExactFallbacks, 1);
            let q = self.exact_response().evaluate(altitude, velocity)?;
            Ok((q, true))
        }
    }
}

/// A running daemon: the bound listener plus its accept pool.
pub struct Daemon {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Bind the socket, recover the job registry from the data
    /// directory, and start the accept pool. Returns once the daemon is
    /// accepting connections.
    ///
    /// A stale socket file (previous daemon killed without cleanup) is
    /// detected by a probe connect and removed; a *live* daemon on the
    /// same path is an error.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] on bind failures, a live socket
    /// occupant, or an unreadable/corrupt data directory.
    pub fn start(cfg: ServiceConfig) -> Result<Self, SolverError> {
        let jobs = JobRegistry::open(&cfg.data_dir)?;
        let listener = Arc::new(bind_or_replace_stale(&cfg.socket_path)?);
        let shared = Arc::new(Shared {
            cfg,
            jobs,
            table: Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let handles = (0..shared.cfg.accept_threads.max(1))
            .map(|k| {
                let shared = Arc::clone(&shared);
                let listener = Arc::clone(&listener);
                std::thread::Builder::new()
                    .name(format!("aerothermod-accept-{k}"))
                    .spawn(move || accept_loop(&shared, &listener))
                    .expect("spawning accept thread")
            })
            .collect();
        Ok(Self { shared, handles })
    }

    /// The bound socket path.
    #[must_use]
    pub fn socket_path(&self) -> &str {
        &self.shared.cfg.socket_path
    }

    /// Jobs currently known to the registry (recovered + submitted).
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.shared.jobs.list().len()
    }

    /// Block until a `shutdown` request stops the daemon, then join the
    /// accept pool and remove the socket file.
    pub fn run_until_shutdown(self) {
        for h in self.handles {
            let _ = h.join();
        }
        std::fs::remove_file(&self.shared.cfg.socket_path).ok();
    }
}

/// Bind `path`, replacing a *stale* socket file (probe connect refused)
/// but refusing to evict a live daemon.
fn bind_or_replace_stale(path: &str) -> Result<UnixListener, SolverError> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(SolverError::BadInput(format!(
                    "socket '{path}' is already served by a live daemon"
                )));
            }
            std::fs::remove_file(path).map_err(|e| {
                SolverError::BadInput(format!("removing stale socket '{path}': {e}"))
            })?;
            UnixListener::bind(path)
                .map_err(|e| SolverError::BadInput(format!("binding '{path}': {e}")))
        }
        Err(e) => Err(SolverError::BadInput(format!("binding '{path}': {e}"))),
    }
}

/// One accept thread: block in `accept()`, serve the connection to
/// completion, repeat until the stop flag is raised (a `shutdown`
/// handler wakes blocked siblings with dummy connects).
fn accept_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                serve_connection(shared, stream);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Serve one connection: hand-rolled newline framing (a `BufReader`
/// would drop partial lines across read-timeout ticks), one response
/// line per request line, until EOF or shutdown.
fn serve_connection(shared: &Arc<Shared>, mut stream: UnixStream) {
    // The periodic timeout lets the thread notice a shutdown raised on
    // another connection instead of blocking forever on an idle client.
    stream
        .set_read_timeout(Some(Duration::from_millis(250)))
        .ok();
    let mut out = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reply = |resp: &str| {
        out.write_all(resp.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush())
            .is_ok()
    };
    let too_long = err_json(
        &SolverError::BadInput(format!(
            "request line exceeds the {MAX_REQUEST_BYTES}-byte limit; closing the connection"
        ))
        .to_string(),
    );
    let mut pending: Vec<u8> = Vec::new();
    // Length of the prefix of `pending` already known to hold no newline.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                pending.extend_from_slice(&chunk[..n]);
                while let Some(pos) = pending[scanned..].iter().position(|&b| b == b'\n') {
                    if scanned + pos > MAX_REQUEST_BYTES {
                        reply(&too_long);
                        return;
                    }
                    let line: Vec<u8> = pending.drain(..=scanned + pos).collect();
                    scanned = 0;
                    let line = String::from_utf8_lossy(&line);
                    let line = line.trim();
                    if !line.is_empty() && !reply(&respond(shared, line)) {
                        return;
                    }
                }
                scanned = pending.len();
                if scanned > MAX_REQUEST_BYTES {
                    reply(&too_long);
                    return;
                }
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn err_json(msg: &str) -> String {
    format!("{{\"ok\": false, \"error\": {}}}", write_string(msg))
}

/// Produce exactly one response line for one request line. Handler
/// panics are contained per request: the connection (and daemon) stay
/// up and the client sees a structured error.
fn respond(shared: &Arc<Shared>, line: &str) -> String {
    match catch_unwind(AssertUnwindSafe(|| handle(shared, line))) {
        Ok(Ok(resp)) => resp,
        Ok(Err(e)) => err_json(&e.to_string()),
        Err(_) => err_json("internal error: request handler panicked"),
    }
}

fn req_job(shared: &Shared, v: &Value) -> Result<Arc<Job>, SolverError> {
    let id = v
        .get("job")
        .and_then(Value::as_str)
        .ok_or_else(|| SolverError::BadInput("request missing string 'job'".into()))?;
    shared
        .jobs
        .get(id)
        .ok_or_else(|| SolverError::BadInput(format!("unknown job '{id}'")))
}

fn req_f64(v: &Value, key: &str) -> Result<f64, SolverError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| SolverError::BadInput(format!("request missing number '{key}'")))
}

fn opt_usize(v: &Value, key: &str) -> Result<Option<usize>, SolverError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) if x.is_null() => Ok(None),
        Some(x) => x
            .as_f64()
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .map(|n| Some(n as usize))
            .ok_or_else(|| {
                SolverError::BadInput(format!("'{key}' must be a non-negative integer"))
            }),
    }
}

fn status_json(job: &Job) -> String {
    format!(
        "{{\"ok\": true, \"job\": {}, \"plan\": {}, \"phase\": {}, \"done\": {}, \
         \"total\": {}, \"error\": {}, \"store\": {}, \"events\": {}, \"shard\": {}}}",
        write_string(&job.id),
        write_string(&job.plan_name),
        write_string(job.phase().name()),
        job.done.load(Ordering::SeqCst).min(job.total),
        job.total,
        job.error()
            .map_or_else(|| "null".into(), |e| write_string(&e)),
        write_string(&job.store_path),
        write_string(&job.events_path),
        job.shard
            .map_or_else(|| "null".into(), |s| write_string(&s.to_string())),
    )
}

fn query_item(altitude: f64, velocity: f64, q: &SurrogateQuery, exact: bool) -> String {
    format!(
        "{{\"altitude\": {}, \"velocity\": {}, \"p_stag\": {}, \"t_stag\": {}, \
         \"q_conv\": {}, \"q_rad\": {}, \"exact\": {exact}}}",
        write_f64(altitude),
        write_f64(velocity),
        write_f64(q.p_stag),
        write_f64(q.t_stag),
        write_f64(q.q_conv),
        write_f64(q.q_rad),
    )
}

/// Spawn a detached sweep thread for `job`.
fn spawn_run(job: Arc<Job>, workers: usize, halt_after: Option<usize>) {
    std::thread::Builder::new()
        .name(format!("aerothermod-{}", job.id))
        .spawn(move || job.run(workers, halt_after))
        .expect("spawning job thread");
}

fn handle(shared: &Arc<Shared>, line: &str) -> Result<String, SolverError> {
    let v = json::parse(line).map_err(|e| SolverError::BadInput(format!("request JSON: {e}")))?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| SolverError::BadInput("request missing string 'op'".into()))?;
    match op {
        "ping" => Ok(format!(
            "{{\"ok\": true, \"pong\": true, \"pid\": {}, \"jobs\": {}}}",
            std::process::id(),
            shared.jobs.list().len(),
        )),
        "submit" => {
            let plan_v = v
                .get("plan")
                .ok_or_else(|| SolverError::BadInput("submit missing object 'plan'".into()))?;
            let plan = SweepPlan::from_json(plan_v)?;
            let workers = opt_usize(&v, "workers")?
                .unwrap_or(shared.cfg.workers)
                .max(1);
            let halt_after = opt_usize(&v, "halt_after")?;
            let job = shared.jobs.submit(&plan)?;
            let (id, total) = (job.id.clone(), job.total);
            spawn_run(job, workers, halt_after);
            Ok(format!(
                "{{\"ok\": true, \"job\": {}, \"planned\": {total}}}",
                write_string(&id),
            ))
        }
        "submit_shard" => {
            let plan_v = v.get("plan").ok_or_else(|| {
                SolverError::BadInput("submit_shard missing object 'plan'".into())
            })?;
            let plan = SweepPlan::from_json(plan_v)?;
            let shard_s = v.get("shard").and_then(Value::as_str).ok_or_else(|| {
                SolverError::BadInput("submit_shard missing string 'shard' (i/n)".into())
            })?;
            let strategy = match v.get("strategy").and_then(Value::as_str) {
                Some(s) => ShardStrategy::parse(s)?,
                None => ShardStrategy::default(),
            };
            let spec = ShardSpec::parse(shard_s, strategy)?;
            let workers = opt_usize(&v, "workers")?
                .unwrap_or(shared.cfg.workers)
                .max(1);
            let halt_after = opt_usize(&v, "halt_after")?;
            let job = shared.jobs.submit_shard(&plan, spec)?;
            let (id, total) = (job.id.clone(), job.total);
            spawn_run(job, workers, halt_after);
            Ok(format!(
                "{{\"ok\": true, \"job\": {}, \"planned\": {total}, \"shard\": {}}}",
                write_string(&id),
                write_string(&spec.to_string()),
            ))
        }
        "federate" => {
            let ids: Vec<String> = v
                .get("jobs")
                .and_then(Value::as_array)
                .ok_or_else(|| SolverError::BadInput("federate missing array 'jobs'".into()))?
                .iter()
                .map(|x| {
                    x.as_str().map(str::to_string).ok_or_else(|| {
                        SolverError::BadInput("'jobs' entries must be job id strings".into())
                    })
                })
                .collect::<Result<_, _>>()?;
            let (store, report) = shared.jobs.federate(&ids)?;
            // The report serializer is multi-line for on-disk readability;
            // collapse it for the line protocol (string newlines are
            // escaped by the writer, so this is purely structural).
            let report_json = report.to_json().replace('\n', " ");
            Ok(format!(
                "{{\"ok\": true, \"store\": {}, \"report\": {}}}",
                write_string(&store),
                report_json.trim(),
            ))
        }
        "status" => {
            let job = req_job(shared, &v)?;
            Ok(status_json(&job))
        }
        "results" => {
            let job = req_job(shared, &v)?;
            let doc = std::fs::read_to_string(&job.store_path).unwrap_or_default();
            // A torn trailing line (daemon killed mid-write) is dropped,
            // matching the store loader's crash tolerance.
            let mut lines: Vec<&str> = doc.lines().filter(|l| !l.trim().is_empty()).collect();
            if !doc.ends_with('\n') {
                lines.pop();
            }
            Ok(format!(
                "{{\"ok\": true, \"job\": {}, \"records\": [{}]}}",
                write_string(&job.id),
                lines.join(", "),
            ))
        }
        "cancel" => {
            let job = req_job(shared, &v)?;
            job.cancel.store(true, Ordering::SeqCst);
            Ok(status_json(&job))
        }
        "resume" => {
            let id = v
                .get("job")
                .and_then(Value::as_str)
                .ok_or_else(|| SolverError::BadInput("request missing string 'job'".into()))?;
            let workers = opt_usize(&v, "workers")?
                .unwrap_or(shared.cfg.workers)
                .max(1);
            let halt_after = opt_usize(&v, "halt_after")?;
            let job = shared.jobs.resume(id)?;
            let resp = status_json(&job);
            spawn_run(job, workers, halt_after);
            Ok(resp)
        }
        "query" => {
            let (h, u) = (req_f64(&v, "altitude")?, req_f64(&v, "velocity")?);
            let (q, exact) = shared.answer(h, u)?;
            Ok(format!(
                "{{\"ok\": true, \"result\": {}}}",
                query_item(h, u, &q, exact),
            ))
        }
        "query_batch" => {
            let nums = |key: &str| -> Result<Vec<f64>, SolverError> {
                v.get(key)
                    .and_then(Value::as_array)
                    .ok_or_else(|| {
                        SolverError::BadInput(format!("query_batch missing array '{key}'"))
                    })?
                    .iter()
                    .map(|x| {
                        x.as_f64().ok_or_else(|| {
                            SolverError::BadInput(format!("'{key}' entries must be numbers"))
                        })
                    })
                    .collect()
            };
            let (hs, us) = (nums("altitude")?, nums("velocity")?);
            if hs.len() != us.len() {
                return Err(SolverError::BadInput(format!(
                    "query_batch length mismatch: {} altitudes vs {} velocities",
                    hs.len(),
                    us.len()
                )));
            }
            let mut items = Vec::with_capacity(hs.len());
            let mut fallbacks = 0usize;
            for (&h, &u) in hs.iter().zip(&us) {
                let (q, exact) = shared.answer(h, u)?;
                fallbacks += usize::from(exact);
                items.push(query_item(h, u, &q, exact));
            }
            Ok(format!(
                "{{\"ok\": true, \"n\": {}, \"exact_fallbacks\": {fallbacks}, \"results\": [{}]}}",
                items.len(),
                items.join(", "),
            ))
        }
        "metrics" => {
            let format = v
                .get("format")
                .and_then(Value::as_str)
                .unwrap_or("prometheus");
            let snap = metrics::snapshot();
            match format {
                "prometheus" => Ok(format!(
                    "{{\"ok\": true, \"format\": \"prometheus\", \"metrics\": {}}}",
                    write_string(&snap.prometheus_text()),
                )),
                "json" => Ok(format!(
                    "{{\"ok\": true, \"format\": \"json\", \"metrics\": {}}}",
                    snap.to_json(),
                )),
                other => Err(SolverError::BadInput(format!(
                    "unknown metrics format '{other}' (expected 'prometheus' or 'json')"
                ))),
            }
        }
        "shutdown" => {
            shared.stop.store(true, Ordering::SeqCst);
            // Wake siblings blocked in accept(); each accepted dummy is
            // dropped after the post-accept stop check.
            for _ in 0..shared.cfg.accept_threads.max(1) {
                UnixStream::connect(&shared.cfg.socket_path).ok();
            }
            Ok("{\"ok\": true, \"stopping\": true}".into())
        }
        other => Err(SolverError::BadInput(format!("unknown op '{other}'"))),
    }
}
