//! Blocking client for the `aerothermod` line protocol, shared by the
//! `aeroctl` CLI, the integration drills, and CI.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use aerothermo_numerics::json::{self, write_f64, write_string, Value};
use aerothermo_numerics::telemetry::SolverError;
use aerothermo_sweep::SweepPlan;

/// One connection to a running daemon. Requests are serialized on the
/// connection: `call` writes a line and blocks for the response line.
pub struct Client {
    stream: UnixStream,
    pending: Vec<u8>,
}

impl Client {
    /// Connect to the daemon at `socket_path`.
    ///
    /// # Errors
    /// [`SolverError::BadInput`] if the socket is absent or refuses.
    pub fn connect(socket_path: &str) -> Result<Self, SolverError> {
        let stream = UnixStream::connect(socket_path)
            .map_err(|e| SolverError::BadInput(format!("connecting to '{socket_path}': {e}")))?;
        Ok(Self {
            stream,
            pending: Vec::new(),
        })
    }

    /// Connect, retrying until the daemon binds its socket or `timeout`
    /// elapses — the startup handshake for freshly spawned daemons.
    ///
    /// # Errors
    /// The last connection error once the deadline passes.
    pub fn connect_with_retry(socket_path: &str, timeout: Duration) -> Result<Self, SolverError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect(socket_path) {
                Ok(mut c) => match c.ping() {
                    Ok(()) => return Ok(c),
                    Err(e) if Instant::now() >= deadline => return Err(e),
                    Err(_) => {}
                },
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => {}
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Send one raw request line and return the parsed response value.
    /// `{"ok": false}` responses surface as `Err` carrying the server's
    /// error message.
    ///
    /// # Errors
    /// Transport failures, malformed responses, server-side errors, and
    /// requests longer than [`crate::server::MAX_REQUEST_BYTES`] (refused
    /// before sending).
    pub fn call(&mut self, request: &str) -> Result<Value, SolverError> {
        let io = |e: std::io::Error| SolverError::BadInput(format!("daemon socket: {e}"));
        debug_assert!(!request.contains('\n'), "requests must be single lines");
        if request.len() > crate::server::MAX_REQUEST_BYTES {
            return Err(SolverError::BadInput(format!(
                "request of {} bytes exceeds the daemon's {}-byte limit",
                request.len(),
                crate::server::MAX_REQUEST_BYTES
            )));
        }
        self.stream.write_all(request.as_bytes()).map_err(io)?;
        self.stream.write_all(b"\n").map_err(io)?;
        self.stream.flush().map_err(io)?;

        let line = self.read_line().map_err(io)?;
        let v = json::parse(&line)
            .map_err(|e| SolverError::BadInput(format!("daemon response JSON: {e}")))?;
        match v.get("ok") {
            Some(Value::Bool(true)) => Ok(v),
            Some(Value::Bool(false)) => Err(SolverError::BadInput(format!(
                "daemon error: {}",
                v.get("error").and_then(Value::as_str).unwrap_or("unknown")
            ))),
            _ => Err(SolverError::BadInput(format!(
                "daemon response missing 'ok': {line}"
            ))),
        }
    }

    /// Read bytes until one full newline-terminated response line.
    fn read_line(&mut self) -> std::io::Result<String> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=pos).collect();
                return Ok(String::from_utf8_lossy(&line).trim().to_string());
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection mid-response",
                ));
            }
            self.pending.extend_from_slice(&chunk[..n]);
        }
    }

    /// Liveness check.
    ///
    /// # Errors
    /// Transport or protocol failures.
    pub fn ping(&mut self) -> Result<(), SolverError> {
        self.call("{\"op\": \"ping\"}").map(|_| ())
    }

    /// Submit `plan`, returning the assigned job id. `workers` and
    /// `halt_after` override the daemon defaults when given.
    ///
    /// # Errors
    /// Plan validation and transport failures.
    pub fn submit(
        &mut self,
        plan: &SweepPlan,
        workers: Option<usize>,
        halt_after: Option<usize>,
    ) -> Result<String, SolverError> {
        // The plan serializer is multi-line for on-disk readability;
        // collapse it for the line protocol (embedded string newlines
        // are escaped by the serializer, so this is purely structural).
        let plan_json = plan.to_json().replace('\n', " ");
        let mut req = String::from("{\"op\": \"submit\"");
        if let Some(w) = workers {
            req.push_str(&format!(", \"workers\": {w}"));
        }
        if let Some(k) = halt_after {
            req.push_str(&format!(", \"halt_after\": {k}"));
        }
        req.push_str(&format!(", \"plan\": {plan_json}}}"));
        let v = self.call(&req)?;
        v.get("job")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| SolverError::BadInput("submit response missing 'job'".into()))
    }

    /// Submit one shard of `plan` (`shard` is the `i/n` slice string;
    /// `strategy` is `round_robin`/`cost_balanced`, daemon default when
    /// `None`), returning the assigned job id.
    ///
    /// # Errors
    /// Plan/shard validation and transport failures.
    pub fn submit_shard(
        &mut self,
        plan: &SweepPlan,
        shard: &str,
        strategy: Option<&str>,
        workers: Option<usize>,
        halt_after: Option<usize>,
    ) -> Result<String, SolverError> {
        let plan_json = plan.to_json().replace('\n', " ");
        let mut req = format!(
            "{{\"op\": \"submit_shard\", \"shard\": {}",
            write_string(shard)
        );
        if let Some(s) = strategy {
            req.push_str(&format!(", \"strategy\": {}", write_string(s)));
        }
        if let Some(w) = workers {
            req.push_str(&format!(", \"workers\": {w}"));
        }
        if let Some(k) = halt_after {
            req.push_str(&format!(", \"halt_after\": {k}"));
        }
        req.push_str(&format!(", \"plan\": {plan_json}}}"));
        let v = self.call(&req)?;
        v.get("job")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| SolverError::BadInput("submit_shard response missing 'job'".into()))
    }

    /// Federate the stores of finished shard `jobs` into the canonical
    /// store; the response carries the merged store path and the
    /// federation report object.
    ///
    /// # Errors
    /// Unknown/running/mismatched jobs, conflicting overlaps, transport
    /// failures.
    pub fn federate(&mut self, jobs: &[String]) -> Result<Value, SolverError> {
        let ids = jobs
            .iter()
            .map(|j| write_string(j))
            .collect::<Vec<_>>()
            .join(", ");
        self.call(&format!("{{\"op\": \"federate\", \"jobs\": [{ids}]}}"))
    }

    /// Poll the status object for `job`.
    ///
    /// # Errors
    /// Unknown jobs and transport failures.
    pub fn status(&mut self, job: &str) -> Result<Value, SolverError> {
        self.call(&format!(
            "{{\"op\": \"status\", \"job\": {}}}",
            write_string(job)
        ))
    }

    /// Poll `status` until the phase leaves `running`, returning the
    /// final status object.
    ///
    /// # Errors
    /// Transport failures, or `BadInput` once `timeout` elapses.
    pub fn wait(&mut self, job: &str, timeout: Duration) -> Result<Value, SolverError> {
        self.wait_with(job, timeout, |_| {})
    }

    /// [`Client::wait`] with a per-poll observer: `on_poll` sees every
    /// still-running status object (the `aeroctl wait` progress line).
    ///
    /// Polling backs off exponentially — 50 ms doubling to a 1 s cap —
    /// so a long sweep costs a handful of requests instead of a busy
    /// 20 Hz status loop, while short jobs still return promptly.
    ///
    /// # Errors
    /// Transport failures, or `BadInput` once `timeout` elapses.
    pub fn wait_with(
        &mut self,
        job: &str,
        timeout: Duration,
        mut on_poll: impl FnMut(&Value),
    ) -> Result<Value, SolverError> {
        const BACKOFF_CAP: Duration = Duration::from_secs(1);
        let deadline = Instant::now() + timeout;
        let mut backoff = Duration::from_millis(50);
        loop {
            let st = self.status(job)?;
            let phase = st.get("phase").and_then(Value::as_str).unwrap_or("");
            if phase != "running" {
                return Ok(st);
            }
            on_poll(&st);
            let now = Instant::now();
            if now >= deadline {
                return Err(SolverError::BadInput(format!(
                    "timed out waiting for job '{job}' (still running)"
                )));
            }
            std::thread::sleep(backoff.min(deadline - now));
            backoff = (backoff * 2).min(BACKOFF_CAP);
        }
    }

    /// Fetch the per-case records of `job` (the raw store lines as
    /// parsed JSON values, in execution order).
    ///
    /// # Errors
    /// Unknown jobs and transport failures.
    pub fn results(&mut self, job: &str) -> Result<Value, SolverError> {
        self.call(&format!(
            "{{\"op\": \"results\", \"job\": {}}}",
            write_string(job)
        ))
    }

    /// Raise the cooperative cancel flag on `job`.
    ///
    /// # Errors
    /// Unknown jobs and transport failures.
    pub fn cancel(&mut self, job: &str) -> Result<Value, SolverError> {
        self.call(&format!(
            "{{\"op\": \"cancel\", \"job\": {}}}",
            write_string(job)
        ))
    }

    /// Resume an interrupted/halted/cancelled job through the store's
    /// completed-case skip logic.
    ///
    /// # Errors
    /// Unknown or still-running jobs, and transport failures.
    pub fn resume(&mut self, job: &str, workers: Option<usize>) -> Result<Value, SolverError> {
        let mut req = format!("{{\"op\": \"resume\", \"job\": {}", write_string(job));
        if let Some(w) = workers {
            req.push_str(&format!(", \"workers\": {w}"));
        }
        req.push('}');
        self.call(&req)
    }

    /// One stagnation-heating query at `(altitude [m], velocity [m/s])`.
    ///
    /// # Errors
    /// Exact-path evaluation and transport failures.
    pub fn query(&mut self, altitude: f64, velocity: f64) -> Result<Value, SolverError> {
        self.call(&format!(
            "{{\"op\": \"query\", \"altitude\": {}, \"velocity\": {}}}",
            write_f64(altitude),
            write_f64(velocity),
        ))
    }

    /// Batched stagnation-heating queries.
    ///
    /// # Errors
    /// Length mismatches, exact-path evaluation, transport failures.
    pub fn query_batch(
        &mut self,
        altitude: &[f64],
        velocity: &[f64],
    ) -> Result<Value, SolverError> {
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|&x| write_f64(x))
                .collect::<Vec<_>>()
                .join(", ")
        };
        self.call(&format!(
            "{{\"op\": \"query_batch\", \"altitude\": [{}], \"velocity\": [{}]}}",
            list(altitude),
            list(velocity),
        ))
    }

    /// Fetch the daemon's metrics exposition. `format` is
    /// `"prometheus"` (default wire format, returned as a string field)
    /// or `"json"` (returned as a structured object).
    ///
    /// # Errors
    /// Unknown formats and transport failures.
    pub fn metrics(&mut self, format: &str) -> Result<Value, SolverError> {
        self.call(&format!(
            "{{\"op\": \"metrics\", \"format\": {}}}",
            write_string(format),
        ))
    }

    /// Ask the daemon to stop accepting and exit.
    ///
    /// # Errors
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<(), SolverError> {
        self.call("{\"op\": \"shutdown\"}").map(|_| ())
    }
}
