//! Service-level determinism drill: a sweep submitted through a live
//! `aerothermod` daemon — killed mid-job, restarted, and resumed — must
//! leave a store bitwise identical (order-normalized) to a direct
//! in-process [`run_sweep`] of the same plan. Plus: the resident
//! surrogate table must survive across requests (built once, reused),
//! hostile request lines (too deep, too long) must get an error rather
//! than kill the daemon, and the `metrics` op must expose every span label
//! as a timing.

use std::process::{Child, Command, Stdio};
use std::time::Duration;

use aerothermo_numerics::json::Value;
use aerothermo_service::Client;
use aerothermo_sweep::{
    load_records, normalized_fingerprint, run_sweep, CaseSpec, FlowSpec, GasSpec, LevelSpec,
    SweepOptions, SweepPlan,
};

/// The CI smoke plan (4 correlation + 2 VSL cases), built in Rust so the
/// drill and the workflow exercise the same numbers.
fn smoke_plan() -> SweepPlan {
    let air = |rho: f64, u: f64| FlowSpec::new(rho, u, 220.0, f64::NAN, 0.5, 1500.0);
    let titan = |rho: f64, u: f64| FlowSpec::new(rho, u, 165.0, f64::NAN, 0.6, 1800.0);
    let corr_air = LevelSpec::Correlation { k_sg: 0.000174 };
    let corr_titan = LevelSpec::Correlation { k_sg: 0.00017 };
    let vsl = LevelSpec::Vsl {
        n_points: 20,
        radiating: false,
    };
    SweepPlan {
        name: "service_drill_smoke".into(),
        cases: vec![
            CaseSpec::new(
                "corr-air9-a",
                GasSpec::Air9,
                corr_air.clone(),
                air(3e-5, 9000.0),
            ),
            CaseSpec::new("corr-air9-b", GasSpec::Air9, corr_air, air(1e-4, 7000.0)),
            CaseSpec::new(
                "corr-titan-a",
                GasSpec::Titan { ch4: 0.05 },
                corr_titan.clone(),
                titan(3e-5, 10000.0),
            ),
            CaseSpec::new(
                "corr-titan-b",
                GasSpec::Titan { ch4: 0.05 },
                corr_titan,
                titan(1e-4, 8000.0),
            ),
            CaseSpec::new("vsl-air9", GasSpec::Air9, vsl.clone(), air(1e-4, 7000.0)),
            CaseSpec::new(
                "vsl-titan",
                GasSpec::Titan { ch4: 0.05 },
                vsl,
                titan(1e-4, 8000.0),
            ),
        ],
    }
}

struct TestDirs {
    root: std::path::PathBuf,
}

impl TestDirs {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("aerothermod-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        Self { root }
    }

    fn path(&self, name: &str) -> String {
        self.root.join(name).to_str().unwrap().to_string()
    }
}

impl Drop for TestDirs {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
    }
}

/// Spawn the daemon binary this crate just built.
fn spawn_daemon(socket: &str, data_dir: &str, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_aerothermod"))
        .arg(format!("--socket={socket}"))
        .arg(format!("--data-dir={data_dir}"))
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning aerothermod")
}

fn connect(socket: &str) -> Client {
    Client::connect_with_retry(socket, Duration::from_secs(60)).expect("daemon came up")
}

fn phase_of(st: &Value) -> String {
    st.get("phase")
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_string()
}

#[test]
fn killed_daemon_resumes_to_bitwise_identical_store() {
    let dirs = TestDirs::new("drill");
    let socket = dirs.path("aerothermod.sock");
    let data_dir = dirs.path("data");
    let plan = smoke_plan();

    // Phase 1: submit with a halt budget so the daemon stops mid-job at
    // a deterministic-ish point (2-4 of 6 cases recorded, never all 6),
    // then SIGKILL it — the job is left outstanding on disk.
    let mut daemon = spawn_daemon(&socket, &data_dir, &[]);
    let mut client = connect(&socket);
    let job = client
        .submit(&plan, Some(2), Some(2))
        .expect("submit accepted");
    assert_eq!(job, "job-0001");
    let st = client.wait(&job, Duration::from_secs(300)).expect("halt");
    assert_eq!(
        phase_of(&st),
        "halted",
        "halt budget should stop the job early"
    );
    let store_path = st.get("store").and_then(Value::as_str).unwrap().to_string();
    let partial = load_records(&store_path).expect("partial store parses");
    assert!(
        !partial.is_empty() && partial.len() < plan.cases.len(),
        "drill needs a genuinely partial store, got {} of {} records",
        partial.len(),
        plan.cases.len()
    );
    daemon.kill().expect("kill daemon");
    daemon.wait().expect("reap daemon");

    // Phase 2: restart on the same data dir (and same socket path — the
    // stale socket file must be detected and replaced). The startup scan
    // must classify the job as interrupted, and resume must finish it.
    let mut daemon = spawn_daemon(&socket, &data_dir, &[]);
    let mut client = connect(&socket);
    let st = client.status(&job).expect("job recovered from disk");
    assert_eq!(phase_of(&st), "interrupted");
    client.resume(&job, Some(2)).expect("resume accepted");
    let st = client.wait(&job, Duration::from_secs(600)).expect("finish");
    assert_eq!(phase_of(&st), "completed");
    assert_eq!(st.get("done").and_then(Value::as_f64), Some(6.0));

    // The results endpoint serves exactly the store records.
    let res = client.results(&job).expect("results served");
    let records = res.get("records").and_then(Value::as_array).unwrap();
    assert_eq!(records.len(), 6, "one served record per case");

    client.shutdown().expect("clean shutdown");
    daemon.wait().expect("daemon exits after shutdown");

    // Phase 3: the same plan run directly in this process, no daemon.
    let direct_store = dirs.path("direct.store.jsonl");
    let report = run_sweep(
        &plan,
        &SweepOptions {
            workers: 2,
            store_path: Some(direct_store.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("direct sweep runs");
    assert!(report.all_green(), "direct sweep must be green");

    // The acceptance gate: order-normalized, the daemon-run store (kill +
    // resume included) is bitwise identical to the direct store.
    let service_records = load_records(&store_path).expect("service store parses");
    let direct_records = load_records(&direct_store).expect("direct store parses");
    assert_eq!(service_records.len(), 6);
    assert_eq!(
        normalized_fingerprint(&service_records),
        normalized_fingerprint(&direct_records),
        "service store diverged from direct run_sweep"
    );
}

#[test]
fn resident_surrogate_serves_repeat_batches_without_rebuilding() {
    let dirs = TestDirs::new("resident");
    let socket = dirs.path("aerothermod.sock");
    let data_dir = dirs.path("data");

    // Small corridor + coarse grid keeps the lazy build cheap.
    let mut daemon = spawn_daemon(
        &socket,
        &data_dir,
        &[
            "--corridor=50000,60000,5000,7000",
            "--grid=5,5",
            "--tolerance=0.1",
            "--nose-radius=0.5",
        ],
    );
    let mut client = connect(&socket);

    let counters_of = |client: &mut Client| -> std::collections::BTreeMap<String, f64> {
        let v = client.metrics("json").expect("metrics served");
        let m = v.get("metrics").expect("metrics member");
        m.get("counters")
            .and_then(Value::as_object)
            .map(|obj| {
                obj.iter()
                    .filter_map(|(k, x)| x.as_f64().map(|n| (k.clone(), n)))
                    .collect()
            })
            .unwrap_or_default()
    };

    // 3 in-corridor points + 1 below the corridor floor (exact fallback).
    let hs = [52_000.0, 55_000.0, 58_000.0, 30_000.0];
    let vs = [5_500.0, 6_000.0, 6_500.0, 6_000.0];
    let first = client.query_batch(&hs, &vs).expect("first batch");
    assert_eq!(
        first.get("exact_fallbacks").and_then(Value::as_f64),
        Some(1.0)
    );
    let items = first.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(items.len(), 4);
    for q in items {
        let qc = q.get("q_conv").and_then(Value::as_f64).unwrap();
        assert!(
            qc.is_finite() && qc > 0.0,
            "q_conv must be positive, got {qc}"
        );
    }
    let after_first = counters_of(&mut client);
    assert_eq!(
        after_first.get("surrogate_builds"),
        Some(&1.0),
        "first batch triggers exactly one lazy build: {after_first:?}"
    );
    let q1 = after_first.get("surrogate_queries").copied().unwrap_or(0.0);
    assert!(
        q1 >= 3.0,
        "3 in-corridor queries must hit the table, got {q1}"
    );

    // Second batch on a *new connection*: the table must be resident
    // (no second build), and the answers bitwise equal to the first.
    let mut client2 = connect(&socket);
    let second = client2.query_batch(&hs, &vs).expect("second batch");
    let bits = |v: &Value| -> Vec<(u64, u64)> {
        v.get("results")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|q| {
                (
                    q.get("q_conv").and_then(Value::as_f64).unwrap().to_bits(),
                    q.get("t_stag").and_then(Value::as_f64).unwrap().to_bits(),
                )
            })
            .collect()
    };
    assert_eq!(
        bits(&first),
        bits(&second),
        "resident answers must be bitwise stable"
    );
    let after_second = counters_of(&mut client2);
    assert_eq!(
        after_second.get("surrogate_builds"),
        Some(&1.0),
        "second batch must reuse the resident table: {after_second:?}"
    );
    let q2 = after_second
        .get("surrogate_queries")
        .copied()
        .unwrap_or(0.0);
    assert!(
        q2 >= q1 + 3.0,
        "repeat batch must hit the table again ({q1} -> {q2})"
    );
    assert_eq!(
        after_second.get("surrogate_exact_fallbacks"),
        Some(&2.0),
        "one out-of-corridor point per batch: {after_second:?}"
    );

    client2.shutdown().expect("clean shutdown");
    daemon.wait().expect("daemon exits");
}

#[test]
fn deeply_nested_request_is_refused_and_daemon_stays_up() {
    let dirs = TestDirs::new("deep");
    let socket = dirs.path("aerothermod.sock");
    let mut daemon = spawn_daemon(&socket, &dirs.path("data"), &[]);
    let mut client = connect(&socket);

    let err = client
        .call(&"[".repeat(100_000))
        .expect_err("a 100 000-deep request must get ok:false");
    assert!(err.to_string().contains("nesting"), "{err}");
    client.ping().expect("the next ping still answers");

    client.shutdown().expect("clean shutdown");
    daemon.wait().expect("daemon exits after shutdown");
}

#[test]
fn oversized_request_line_is_refused_and_daemon_stays_up() {
    use aerothermo_service::server::MAX_REQUEST_BYTES;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dirs = TestDirs::new("long");
    let socket = dirs.path("aerothermod.sock");
    let mut daemon = spawn_daemon(&socket, &dirs.path("data"), &[]);
    let mut client = connect(&socket);

    // One byte past the limit and no newline: the daemon must answer
    // instead of buffering until memory runs out.
    let mut raw = UnixStream::connect(&socket).expect("raw connection");
    // A daemon that keeps buffering never answers: fail, do not hang.
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    raw.write_all(&vec![b'a'; MAX_REQUEST_BYTES + 1])
        .expect("the daemon reads the whole oversized line");
    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).expect("an error line");
    let v = aerothermo_numerics::json::parse(line.trim()).expect("JSON error line");
    assert!(matches!(v.get("ok"), Some(Value::Bool(false))), "{line}");
    let msg = v.get("error").and_then(Value::as_str).unwrap_or("");
    assert!(msg.contains(&MAX_REQUEST_BYTES.to_string()), "{msg}");
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).ok(),
        Some(0),
        "connection closed"
    );

    let err = client
        .call(&"a".repeat(MAX_REQUEST_BYTES + 1))
        .expect_err("the client refuses to send it");
    assert!(err.to_string().contains("limit"), "{err}");
    connect(&socket)
        .ping()
        .expect("a new connection still answers ping");

    client.shutdown().expect("clean shutdown");
    daemon.wait().expect("daemon exits after shutdown");
}

#[test]
fn metrics_op_lists_every_span_label_as_a_timing() {
    let dirs = TestDirs::new("timings");
    let socket = dirs.path("aerothermod.sock");
    let mut daemon = spawn_daemon(&socket, &dirs.path("data"), &[]);
    let mut client = connect(&socket);

    // One VSL case runs tridiagonal sweeps and equilibrium Newton solves.
    let mut plan = smoke_plan();
    plan.cases.retain(|c| c.id == "vsl-air9");
    let job = client
        .submit(&plan, Some(1), None)
        .expect("submit accepted");
    let st = client.wait(&job, Duration::from_secs(300)).expect("finish");
    assert_eq!(phase_of(&st), "completed");

    let v = client.metrics("json").expect("metrics served");
    let timings = v
        .get("metrics")
        .and_then(|m| m.get("timings"))
        .expect("timings member");
    for label in ["newton_solve", "tridiag_solve"] {
        let calls = timings
            .get(label)
            .and_then(|t| t.get("calls"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("no '{label}' timing in {timings:?}"));
        assert!(calls > 0.0, "{label}: calls {calls}");
    }

    client.shutdown().expect("clean shutdown");
    daemon.wait().expect("daemon exits after shutdown");
}
