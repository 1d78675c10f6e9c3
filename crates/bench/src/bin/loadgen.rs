//! `loadgen` — protocol-level load generator for the `parulel serve`
//! daemon.
//!
//! Unlike the figure/table harnesses, which call the engine in-process,
//! this binary measures the *serving* path end to end: it boots a real
//! TCP daemon (the `poll(2)` dispatcher over one scheduler shard, as
//! `parulel serve --workers 1` runs it), then drives N concurrent
//! sessions per workload through
//! the line-delimited JSON protocol — `open` with the bare program,
//! every initial fact delivered as batched `inject` frames (the
//! incremental path the daemon exists for), `run` to fixpoint, a
//! `metrics` report, `close`. Each client runs on its own thread with
//! its own socket, so frames from all sessions interleave at the
//! server exactly as they would under independent producers.
//!
//! Emits `BENCH_serve.json` (parulel-bench/v1): per-workload rows with
//! the usual measured columns (summed over sessions, taken from the
//! daemon's own parulel-metrics/v1 reports) plus serving-specific
//! extras — sustained `injects_per_sec`, `p50_frame_ms` /
//! `p99_frame_ms` round-trip latency, and `peak_sessions` resident.
//!
//! A second phase measures the durability layer: each workload is
//! re-driven against a WAL-enabled daemon under `--wal-sync never`
//! (log, no fsync) and `--wal-sync always` (fsync before every ack),
//! the sessions are persisted via a graceful `shutdown`, and a fresh
//! server recovers them from disk. Those rows carry `wal_sync`,
//! `wal_bytes`, `wal_overhead_pct` (throughput cost of `always` vs
//! `never`), and `recovery_ms`.
//!
//! A third phase measures **contention**: one session runs a long
//! closure while seven neighbors keep pinging and injecting. It is
//! driven twice on the same dispatcher — first unsliced (one shard,
//! `run_quantum` 0: a run holds the only shard until it finishes), then
//! sharded with step-quantum slicing — and both rows carry the
//! neighbors' p50/p99 frame latency, so the scheduler's fairness win is
//! a number, not a claim.
//!
//! A fourth phase measures **scale**: 100/1k/10k resident sessions
//! multiplexed over 16 connections against the sharded scheduler, with
//! frame-latency percentiles and a fairness metric (max/mean
//! per-session cycle share — 1.0 is perfectly even service).
//!
//! ```text
//! loadgen [SESSIONS] [--scale N,N,...]
//!   SESSIONS   concurrent sessions per workload in phases 1-2  [8]
//!   --scale    session counts for the scaling phase  [100,1000,10000]
//! ```

use parulel_bench::{BenchReport, Table};
use parulel_engine::Json;
use parulel_server::{spawn_sched_tcp, Server, ServerConfig, SyncPolicy, WalConfig};
use parulel_workloads::{Closure, LabelProp, Market, Scenario};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// WME changes per `inject` frame: small enough that a workload takes
/// many frames (exercising the queue), big enough to amortize framing.
const BATCH: usize = 16;

/// The CLI's default `--run-quantum`.
const QUANTUM: u64 = 32;

/// Boots a daemon on an ephemeral TCP port: `workers` scheduler shards,
/// each a server from `server`, sharing one admission gauge as
/// `parulel serve` builds them.
fn spawn_daemon(
    workers: usize,
    quantum: u64,
    server: impl Fn() -> Server,
) -> (SocketAddr, JoinHandle<()>) {
    let mut servers: Vec<Server> = Vec::with_capacity(workers);
    for _ in 0..workers {
        let mut shard = server();
        if let Some(first) = servers.first() {
            shard.share_admission(first.admission_gauge());
        }
        servers.push(shard);
    }
    spawn_sched_tcp(servers, quantum, "127.0.0.1:0").expect("bind daemon")
}

/// Sends `shutdown` and waits for the daemon to exit.
fn shutdown_daemon(addr: SocketAddr, daemon: JoinHandle<()>) {
    Wire::connect(addr).call(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon exits");
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders one scenario's initial facts as `inject`-frame add objects,
/// in the WM's deterministic order.
fn fact_batches(s: &dyn Scenario) -> Vec<String> {
    let program = s.program();
    let adds: Vec<String> = s
        .initial_wm()
        .sorted_snapshot()
        .iter()
        .map(|w| {
            let decl = program.classes.decl(w.class);
            let fields: Vec<String> = w
                .fields
                .iter()
                .map(|v| match v {
                    parulel_core::Value::Int(i) => i.to_string(),
                    parulel_core::Value::Float(f) => format!("{f:?}"),
                    parulel_core::Value::Sym(sym) => {
                        format!("\"{}\"", escape(&program.interner.resolve(*sym)))
                    }
                })
                .collect();
            format!(
                r#"{{"class":"{}","fields":[{}]}}"#,
                program.interner.resolve(decl.name),
                fields.join(",")
            )
        })
        .collect();
    adds.chunks(BATCH)
        .map(|chunk| format!(r#"[{}]"#, chunk.join(",")))
        .collect()
}

/// What one client thread brings back: the daemon's metrics report for
/// its session plus every frame's round-trip latency.
struct SessionResult {
    report: Json,
    injected: usize,
    latencies_ms: Vec<f64>,
}

/// Drives one full session over its own TCP connection. With
/// `close: false` the session is left open so the daemon's graceful
/// shutdown persists it to the WAL for the recovery measurement.
fn drive_session(
    addr: SocketAddr,
    name: &str,
    source: &str,
    batches: &[String],
    close: bool,
) -> SessionResult {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut latencies_ms = Vec::new();
    let mut injected = 0usize;

    let send = |frame: String,
                    writer: &mut TcpStream,
                    reader: &mut BufReader<TcpStream>,
                    latencies_ms: &mut Vec<f64>|
     -> Json {
        let start = Instant::now();
        writer.write_all(frame.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let doc = Json::parse(response.trim()).expect("response is JSON");
        assert_eq!(
            doc.get("ok"),
            Some(&Json::Bool(true)),
            "{name}: {response}"
        );
        doc
    };

    send(
        format!(
            r#"{{"op":"open","session":"{name}","program":"{}","metrics":"full"}}"#,
            escape(source)
        ),
        &mut writer,
        &mut reader,
        &mut latencies_ms,
    );
    for batch in batches {
        let doc = send(
            format!(r#"{{"op":"inject","session":"{name}","adds":{batch}}}"#),
            &mut writer,
            &mut reader,
            &mut latencies_ms,
        );
        injected += doc.get("queued").and_then(|q| q.as_f64()).unwrap_or(0.0) as usize;
    }
    let run = send(
        format!(r#"{{"op":"run","session":"{name}"}}"#),
        &mut writer,
        &mut reader,
        &mut latencies_ms,
    );
    assert_eq!(
        run.get("status").and_then(|s| s.as_str()),
        Some("quiescent"),
        "{name}: run did not reach fixpoint"
    );
    let metrics = send(
        format!(r#"{{"op":"metrics","session":"{name}","report":true}}"#),
        &mut writer,
        &mut reader,
        &mut latencies_ms,
    );
    let report = metrics.get("report").cloned().unwrap_or(Json::Null);
    if close {
        send(
            format!(r#"{{"op":"close","session":"{name}"}}"#),
            &mut writer,
            &mut reader,
            &mut latencies_ms,
        );
    }
    SessionResult {
        report,
        injected,
        latencies_ms,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One durable run of a workload: the same client fleet as the main
/// phase, but against a WAL-enabled daemon, finished with a graceful
/// `shutdown` (which persists every open session) instead of `close`.
struct DurableLeg {
    wall: Duration,
    injected: usize,
    results: Vec<SessionResult>,
    wal_bytes: u64,
    recovery_ms: f64,
    sessions_recovered: f64,
}

fn durable_leg(
    name: &str,
    source: &str,
    batches: &Arc<Vec<String>>,
    sessions: usize,
    sync: SyncPolicy,
) -> DurableLeg {
    let dir = std::env::temp_dir().join(format!(
        "parulel-loadgen-{}-{name}-{}",
        std::process::id(),
        sync.tag()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = WalConfig::new(&dir, sync);
    let (addr, daemon) = spawn_daemon(1, QUANTUM, || {
        Server::with_wal(
            ServerConfig {
                max_sessions: sessions + 1,
                metrics: parulel_engine::MetricsLevel::Full,
                ..ServerConfig::default()
            },
            wal.clone(),
        )
    });

    let started = Instant::now();
    let mut clients = Vec::new();
    for i in 0..sessions {
        let (name, source, batches) =
            (name.to_string(), source.to_string(), Arc::clone(batches));
        clients.push(std::thread::spawn(move || {
            drive_session(addr, &format!("{name}-{i}"), &source, &batches, false)
        }));
    }
    let results: Vec<SessionResult> =
        clients.into_iter().map(|c| c.join().expect("client")).collect();
    let wall = started.elapsed();
    let injected = results.iter().map(|r| r.injected).sum();

    // Graceful shutdown: compacts + fsyncs every open session's WAL so
    // the recovery measurement below starts from persisted state.
    shutdown_daemon(addr, daemon);
    let wal_bytes = dir_bytes(&dir);

    // Cold-start recovery: a fresh server scans the directory, loads
    // each session's snapshot, and replays the tail.
    let mut recovered = Server::with_wal(
        ServerConfig {
            max_sessions: sessions + 1,
            metrics: parulel_engine::MetricsLevel::Full,
            ..ServerConfig::default()
        },
        wal.clone(),
    );
    let recovery_started = Instant::now();
    let report = parulel_server::recover(&mut recovered, &wal);
    let recovery_ms = recovery_started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        report.sessions_recovered, sessions,
        "{name}/{}: recovery lost sessions: {}",
        sync.tag(),
        report.summary()
    );
    let _ = std::fs::remove_dir_all(&dir);

    DurableLeg {
        wall,
        injected,
        results,
        wal_bytes,
        recovery_ms,
        sessions_recovered: report.sessions_recovered as f64,
    }
}

// ---------------------------------------------------------------------
// Phases 3-4: contention and scale, driven against the sharded
// scheduler (and, for contention, an unsliced single shard).

/// The transitive-closure program the contention/scaling phases drive:
/// a chain of edges makes run length directly proportional to chain
/// length, so victim runs are long and scaling runs are short by
/// construction.
const CHAIN_PROGRAM: &str = "(literalize edge from to)\
(literalize reach from to)\
(p seed (edge ^from <a> ^to <b>) -(reach ^from <a> ^to <b>) --> (make reach ^from <a> ^to <b>))\
(p close (reach ^from <a> ^to <b>) (edge ^from <b> ^to <c>) -(reach ^from <a> ^to <c>) --> (make reach ^from <a> ^to <c>))";

/// `inject` batches adding the chain `from->from+1->...->to`.
fn chain_batches(from: i64, to: i64) -> Vec<String> {
    let adds: Vec<String> = (from..to)
        .map(|i| format!(r#"{{"class":"edge","fields":[{i},{}]}}"#, i + 1))
        .collect();
    adds.chunks(BATCH)
        .map(|chunk| format!(r#"[{}]"#, chunk.join(",")))
        .collect()
}

/// A minimal protocol client for the contention/scaling phases.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Wire {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// One frame round trip; panics on a refused frame.
    fn call(&mut self, frame: &str) -> Json {
        self.writer.write_all(frame.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read");
        let doc = Json::parse(response.trim()).expect("response is JSON");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{frame} -> {response}");
        doc
    }

    /// `call` with the round trip recorded in milliseconds.
    fn timed(&mut self, frame: &str, latencies_ms: &mut Vec<f64>) -> Json {
        let start = Instant::now();
        let doc = self.call(frame);
        latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        doc
    }
}

fn open_chain_frame(session: &str) -> String {
    format!(
        r#"{{"op":"open","session":"{session}","program":"{}"}}"#,
        escape(CHAIN_PROGRAM)
    )
}

/// What one contention leg measured.
struct ContentionLeg {
    victim_run_ms: f64,
    victim_cycles: f64,
    victim_firings: f64,
    neighbor_p50_ms: f64,
    neighbor_p99_ms: f64,
    neighbor_frames: usize,
}

/// Runs the contention workload against a daemon at `addr`: one victim
/// session runs a `chain`-length closure; `neighbors` sessions ping and
/// inject until the run completes.
fn contention_leg(addr: SocketAddr, chain: i64, neighbors: usize) -> ContentionLeg {
    let mut victim = Wire::connect(addr);
    victim.call(&open_chain_frame("victim"));
    for batch in chain_batches(1, chain) {
        victim.call(&format!(r#"{{"op":"inject","session":"victim","adds":{batch}}}"#));
    }

    // Neighbors probe on a fixed schedule and only *record* while the
    // victim's run is in flight. Latency is measured against the
    // intended send time, with one sample backfilled per missed slot —
    // otherwise a neighbor stalled for seconds behind the run yields a
    // single slow sample and the percentiles hide exactly the stall
    // this phase exists to expose (coordinated omission).
    const PROBE_INTERVAL: Duration = Duration::from_millis(5);
    let start = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let neighbor_threads: Vec<_> = (0..neighbors)
        .map(|i| {
            let (start, done) = (Arc::clone(&start), Arc::clone(&done));
            std::thread::spawn(move || {
                let name = format!("n{i}");
                let mut wire = Wire::connect(addr);
                wire.call(&open_chain_frame(&name));
                while !start.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let mut latencies_ms = Vec::new();
                let mut next = 1i64;
                let mut intended = Instant::now();
                while !done.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    if now < intended {
                        std::thread::sleep(intended - now);
                    }
                    // Alternate the two frame kinds the satellite asks
                    // for: state-changing inject, stateless ping.
                    if next % 2 == 0 {
                        wire.call(&format!(
                            r#"{{"op":"inject","session":"{name}","adds":[{{"class":"edge","fields":[{next},{}]}}]}}"#,
                            next + 1
                        ));
                    } else {
                        wire.call(r#"{"op":"ping"}"#);
                    }
                    next += 1;
                    let now = Instant::now();
                    latencies_ms.push(now.duration_since(intended).as_secs_f64() * 1e3);
                    intended += PROBE_INTERVAL;
                    // Backfill: every probe slot this response straddled
                    // counts as a sample at its own (still unserved) age.
                    while now > intended {
                        latencies_ms.push(now.duration_since(intended).as_secs_f64() * 1e3);
                        intended += PROBE_INTERVAL;
                    }
                }
                wire.call(&format!(r#"{{"op":"close","session":"{name}"}}"#));
                latencies_ms
            })
        })
        .collect();

    // Give the neighbors a beat to connect and open, then fire the run
    // and release them at the same instant.
    std::thread::sleep(Duration::from_millis(150));
    let run_started = Instant::now();
    start.store(true, Ordering::SeqCst);
    let run = victim.call(r#"{"op":"run","session":"victim"}"#);
    let victim_run_ms = run_started.elapsed().as_secs_f64() * 1e3;
    done.store(true, Ordering::SeqCst);

    let mut latencies: Vec<f64> = neighbor_threads
        .into_iter()
        .flat_map(|t| t.join().expect("neighbor"))
        .collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    victim.call(r#"{"op":"close","session":"victim"}"#);
    ContentionLeg {
        victim_run_ms,
        victim_cycles: num(&run, "cycles"),
        victim_firings: num(&run, "firings"),
        neighbor_p50_ms: percentile(&latencies, 0.50),
        neighbor_p99_ms: percentile(&latencies, 0.99),
        neighbor_frames: latencies.len(),
    }
}

/// Zero-valued measured columns for rows where per-phase engine timings
/// are not collected (`metrics_level: "off"`): the scheduler phases
/// measure *serving* latency, not kernel phase splits.
fn zeroed_phase_columns(row: Json) -> Json {
    row.set("match_ms", 0.0)
        .set("redact_ms", 0.0)
        .set("fire_ms", 0.0)
        .set("apply_ms", 0.0)
        .set("peak_conflict_set", 0.0)
        .set("metrics_level", "off")
        .set("top_rules", Vec::<Json>::new())
}

/// One scaling row: `total` sessions multiplexed over `conns`
/// connections against a sharded daemon.
struct ScaleRow {
    wall: Duration,
    frames: usize,
    p50: f64,
    p99: f64,
    cycles: f64,
    firings: f64,
    peak_wm: f64,
    fairness: f64,
    peak_sessions: f64,
}

fn scale_leg(workers: usize, quantum: u64, total: usize, conns: usize) -> ScaleRow {
    let (addr, daemon) = spawn_daemon(workers, quantum, || {
        Server::new(ServerConfig {
            max_sessions: total + conns,
            metrics: parulel_engine::MetricsLevel::Off,
            ..ServerConfig::default()
        })
    });

    let started = Instant::now();
    let drivers: Vec<_> = (0..conns)
        .map(|c| {
            std::thread::spawn(move || {
                let mut wire = Wire::connect(addr);
                let mut latencies_ms = Vec::new();
                let mut cycles = Vec::new();
                let mut firings = 0.0;
                let mut peak_wm = 0.0f64;
                let mine = (c..total).step_by(conns);
                // Open every owned session first (peak residency =
                // `total`), then run them all, then close them all.
                for s in mine.clone() {
                    let name = format!("s{s}");
                    wire.timed(&open_chain_frame(&name), &mut latencies_ms);
                    for batch in chain_batches(1, 8) {
                        wire.timed(
                            &format!(r#"{{"op":"inject","session":"{name}","adds":{batch}}}"#),
                            &mut latencies_ms,
                        );
                    }
                }
                for s in mine.clone() {
                    let run = wire.timed(
                        &format!(r#"{{"op":"run","session":"s{s}"}}"#),
                        &mut latencies_ms,
                    );
                    cycles.push(num(&run, "cycles"));
                    firings += num(&run, "firings");
                    peak_wm = peak_wm.max(num(&run, "wm"));
                }
                for s in mine {
                    wire.timed(
                        &format!(r#"{{"op":"close","session":"s{s}"}}"#),
                        &mut latencies_ms,
                    );
                }
                (latencies_ms, cycles, firings, peak_wm)
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::new();
    let mut cycles: Vec<f64> = Vec::new();
    let mut firings = 0.0;
    let mut peak_wm = 0.0f64;
    for driver in drivers {
        let (l, c, f, w) = driver.join().expect("driver");
        latencies.extend(l);
        cycles.extend(c);
        firings += f;
        peak_wm = peak_wm.max(w);
    }
    let wall = started.elapsed();
    latencies.sort_by(|a, b| a.total_cmp(b));

    let mut control = Wire::connect(addr);
    let metrics = control.call(r#"{"op":"metrics"}"#);
    let peak_sessions = num(&metrics, "peak_sessions");
    shutdown_daemon(addr, daemon);

    // Fairness: max/mean per-session cycle share. Sessions run the same
    // workload, so perfectly even service is exactly 1.0; a starved or
    // favored session shows up as a skewed max.
    let mean = cycles.iter().sum::<f64>() / (cycles.len() as f64).max(1.0);
    let fairness = cycles.iter().copied().fold(0.0, f64::max) / mean.max(1e-9);

    ScaleRow {
        wall,
        frames: latencies.len(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        cycles: cycles.iter().sum(),
        firings,
        peak_wm,
        fairness,
        peak_sessions,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sessions: usize = 8;
    let mut scale: Vec<usize> = vec![100, 1000, 10_000];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--scale" {
            let list = it.next().expect("--scale needs N,N,...");
            scale = list
                .split(',')
                .map(|n| n.trim().parse().expect("--scale entries must be integers"))
                .collect();
        } else {
            sessions = arg.parse().expect("SESSIONS must be an integer");
        }
    }

    let scenarios: Vec<Box<dyn Scenario>> = vec![
        Box::new(Closure::new(32, 64, 7)),
        Box::new(LabelProp::new(48, 96, 11)),
        Box::new(Market::new(24, 6, 5)),
    ];

    println!(
        "loadgen: {sessions} concurrent sessions per workload over TCP\n\
         (open, {BATCH}-change inject batches, run to fixpoint, metrics, close)\n"
    );

    let (addr, daemon) = spawn_daemon(1, QUANTUM, || {
        Server::new(ServerConfig {
            max_sessions: sessions * scenarios.len() + 1,
            metrics: parulel_engine::MetricsLevel::Full,
            ..ServerConfig::default()
        })
    });

    let mut t = Table::new(&[
        "workload",
        "sessions",
        "injects/s",
        "p50 ms",
        "p99 ms",
        "cycles",
        "firings",
    ]);
    let mut rep = BenchReport::new(
        "serve",
        "protocol loadgen: concurrent sessions through `parulel serve` over TCP",
    );

    for scenario in &scenarios {
        let name = scenario.name().to_string();
        let source = scenario.source().to_string();
        let batches = Arc::new(fact_batches(scenario.as_ref()));

        let started = Instant::now();
        let mut clients = Vec::new();
        for i in 0..sessions {
            let (name, source, batches) = (name.clone(), source.clone(), Arc::clone(&batches));
            clients.push(std::thread::spawn(move || {
                drive_session(addr, &format!("{name}-{i}"), &source, &batches, true)
            }));
        }
        let results: Vec<SessionResult> =
            clients.into_iter().map(|c| c.join().expect("client")).collect();
        let wall = started.elapsed();

        let mut latencies: Vec<f64> = results
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        latencies.sort_by(|a, b| a.total_cmp(b));
        let injected: usize = results.iter().map(|r| r.injected).sum();
        let frames = latencies.len();
        let injects_per_sec = injected as f64 / wall.as_secs_f64().max(1e-9);
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);

        // Measured columns come from the daemon's own per-session
        // reports: counters summed, peaks maxed over the fleet.
        let reports: Vec<&Json> = results.iter().map(|r| &r.report).collect();
        let sum = |key: &str| reports.iter().map(|r| num(r, key)).sum::<f64>();
        let max = |key: &str| reports.iter().map(|r| num(r, key)).fold(0.0, f64::max);
        let top_rules = reports[0]
            .get("rules")
            .and_then(|r| r.as_arr())
            .map(|rules| rules.iter().take(5).cloned().collect::<Vec<_>>())
            .unwrap_or_default();
        let peak_sessions = num(
            &Wire::connect(addr).call(r#"{"op":"metrics"}"#),
            "peak_sessions",
        );

        t.row(vec![
            name.clone(),
            sessions.to_string(),
            format!("{injects_per_sec:.0}"),
            format!("{p50:.3}"),
            format!("{p99:.3}"),
            format!("{:.0}", sum("cycles")),
            format!("{:.0}", sum("firings")),
        ]);
        rep.push(
            Json::obj()
                .set("workload", name.as_str())
                .set("matcher", "rete")
                .set("shards", 1usize)
                .set("cycles", sum("cycles"))
                .set("firings", sum("firings"))
                .set("wall_ms", wall.as_secs_f64() * 1e3)
                .set("match_ms", sum("match_ms"))
                .set("redact_ms", sum("redact_ms"))
                .set("fire_ms", sum("fire_ms"))
                .set("apply_ms", sum("apply_ms"))
                .set("peak_wm", max("peak_wm"))
                .set("peak_conflict_set", max("peak_conflict_set"))
                .set("metrics_level", "full")
                .set("top_rules", top_rules)
                .set("transport", "tcp")
                .set("sessions", sessions)
                .set("frames", frames)
                .set("injected_wmes", injected)
                .set("injects_per_sec", injects_per_sec)
                .set("p50_frame_ms", p50)
                .set("p99_frame_ms", p99)
                .set("peak_sessions", peak_sessions),
        );
    }

    shutdown_daemon(addr, daemon);

    t.print();

    // ---- Phase 2: durability. Same fleet, WAL-enabled daemon, graceful
    // shutdown, then a timed cold-start recovery. `never` is the no-fsync
    // baseline; `always` is the full log-and-fsync-before-ack contract.
    println!(
        "\ndurability: {sessions} sessions per workload, WAL on, \
         persist via shutdown, then timed recovery\n"
    );
    let mut dt = Table::new(&[
        "workload",
        "wal_sync",
        "injects/s",
        "overhead %",
        "wal KiB",
        "recovery ms",
    ]);
    for scenario in &scenarios {
        let name = scenario.name().to_string();
        let source = scenario.source().to_string();
        let batches = Arc::new(fact_batches(scenario.as_ref()));

        let baseline = durable_leg(&name, &source, &batches, sessions, SyncPolicy::Never);
        let durable = durable_leg(&name, &source, &batches, sessions, SyncPolicy::Always);

        let rate = |leg: &DurableLeg| leg.injected as f64 / leg.wall.as_secs_f64().max(1e-9);
        let (base_rate, sync_rate) = (rate(&baseline), rate(&durable));
        // Throughput cost of fsync-per-frame relative to log-only; small
        // workloads are noisy, so clamp at 0 rather than report a
        // nonsense negative overhead.
        let overhead_pct = if base_rate > 0.0 {
            ((base_rate - sync_rate) / base_rate * 100.0).max(0.0)
        } else {
            0.0
        };

        let reports: Vec<&Json> = durable.results.iter().map(|r| &r.report).collect();
        let sum = |key: &str| reports.iter().map(|r| num(r, key)).sum::<f64>();
        let max = |key: &str| reports.iter().map(|r| num(r, key)).fold(0.0, f64::max);
        let top_rules = reports[0]
            .get("rules")
            .and_then(|r| r.as_arr())
            .map(|rules| rules.iter().take(5).cloned().collect::<Vec<_>>())
            .unwrap_or_default();

        dt.row(vec![
            name.clone(),
            "always".into(),
            format!("{sync_rate:.0}"),
            format!("{overhead_pct:.1}"),
            format!("{:.1}", durable.wal_bytes as f64 / 1024.0),
            format!("{:.3}", durable.recovery_ms),
        ]);
        rep.push(
            Json::obj()
                .set("workload", name.as_str())
                .set("matcher", "rete")
                .set("shards", 1usize)
                .set("cycles", sum("cycles"))
                .set("firings", sum("firings"))
                .set("wall_ms", durable.wall.as_secs_f64() * 1e3)
                .set("match_ms", sum("match_ms"))
                .set("redact_ms", sum("redact_ms"))
                .set("fire_ms", sum("fire_ms"))
                .set("apply_ms", sum("apply_ms"))
                .set("peak_wm", max("peak_wm"))
                .set("peak_conflict_set", max("peak_conflict_set"))
                .set("metrics_level", "full")
                .set("top_rules", top_rules)
                .set("transport", "tcp")
                .set("sessions", sessions)
                .set("injected_wmes", durable.injected)
                .set("injects_per_sec", sync_rate)
                .set("wal_sync", "always")
                .set("wal_bytes", durable.wal_bytes)
                .set("wal_overhead_pct", overhead_pct)
                .set("no_sync_injects_per_sec", base_rate)
                .set("recovery_ms", durable.recovery_ms)
                .set("sessions_recovered", durable.sessions_recovered),
        );
    }
    dt.print();

    // ---- Phase 3: contention. One long closure run, 7 neighbors
    // pinging and injecting. An unsliced single shard serializes
    // everything behind the run; the sharded scheduler time-slices it.
    // Both rows land in the report so the improvement is auditable.
    const NEIGHBORS: usize = 7;
    const CHAIN: i64 = 448;
    const WORKERS: usize = 4;
    println!(
        "\ncontention: 1 long closure run (chain {CHAIN}) vs {NEIGHBORS} \
         ping+inject neighbors\n"
    );
    let contention = |workers: usize, quantum: u64| {
        let (addr, daemon) = spawn_daemon(workers, quantum, || {
            Server::new(ServerConfig {
                max_sessions: NEIGHBORS + 2,
                metrics: parulel_engine::MetricsLevel::Off,
                ..ServerConfig::default()
            })
        });
        let leg = contention_leg(addr, CHAIN, NEIGHBORS);
        shutdown_daemon(addr, daemon);
        leg
    };
    let unsliced_leg = contention(1, 0);
    let sched_leg = contention(WORKERS, QUANTUM);

    let improvement = unsliced_leg.neighbor_p99_ms / sched_leg.neighbor_p99_ms.max(1e-9);
    let mut ct = Table::new(&[
        "scheduler",
        "workers",
        "victim run ms",
        "neighbor p50 ms",
        "neighbor p99 ms",
        "neighbor frames",
    ]);
    for (tag, workers, quantum, leg) in [
        ("unsliced", 1usize, 0u64, &unsliced_leg),
        ("sharded", WORKERS, QUANTUM, &sched_leg),
    ] {
        ct.row(vec![
            tag.to_string(),
            workers.to_string(),
            format!("{:.1}", leg.victim_run_ms),
            format!("{:.3}", leg.neighbor_p50_ms),
            format!("{:.3}", leg.neighbor_p99_ms),
            leg.neighbor_frames.to_string(),
        ]);
        let mut row = zeroed_phase_columns(
            Json::obj()
                .set("workload", "contention")
                .set("matcher", "rete")
                .set("shards", 1usize)
                .set("cycles", leg.victim_cycles)
                .set("firings", leg.victim_firings)
                .set("wall_ms", leg.victim_run_ms)
                .set("peak_wm", (CHAIN * (CHAIN - 1)) as f64 / 2.0),
        )
        .set("transport", "tcp")
        .set("scheduler", tag)
        .set("workers", workers)
        .set("run_quantum", quantum)
        .set("sessions", NEIGHBORS + 1)
        .set("victim_run_ms", leg.victim_run_ms)
        .set("neighbor_p50_ms", leg.neighbor_p50_ms)
        .set("neighbor_p99_ms", leg.neighbor_p99_ms)
        .set("neighbor_frames", leg.neighbor_frames);
        if tag == "sharded" {
            row = row.set("p99_improvement_x", improvement);
        }
        rep.push(row);
    }
    ct.print();
    println!("\nneighbor p99 improvement (unsliced -> sharded): {improvement:.1}x\n");

    // ---- Phase 4: scale. Thousands of resident sessions multiplexed
    // over 16 connections against the sharded scheduler.
    const CONNS: usize = 16;
    println!("scaling: sessions resident over {CONNS} connections, workers={WORKERS}\n");
    let mut st = Table::new(&[
        "sessions",
        "frames/s",
        "p50 ms",
        "p99 ms",
        "fairness max/mean",
        "peak resident",
    ]);
    for &total in &scale {
        let row = scale_leg(WORKERS, QUANTUM, total, CONNS.min(total));
        let frames_per_sec = row.frames as f64 / row.wall.as_secs_f64().max(1e-9);
        st.row(vec![
            total.to_string(),
            format!("{frames_per_sec:.0}"),
            format!("{:.3}", row.p50),
            format!("{:.3}", row.p99),
            format!("{:.3}", row.fairness),
            format!("{:.0}", row.peak_sessions),
        ]);
        rep.push(
            zeroed_phase_columns(
                Json::obj()
                    .set("workload", "scaling")
                    .set("matcher", "rete")
                    .set("shards", 1usize)
                    .set("cycles", row.cycles)
                    .set("firings", row.firings)
                    .set("wall_ms", row.wall.as_secs_f64() * 1e3)
                    .set("peak_wm", row.peak_wm),
            )
            .set("transport", "tcp")
            .set("scheduler", "sharded")
            .set("workers", WORKERS)
            .set("run_quantum", QUANTUM)
            .set("sessions", total)
            .set("frames", row.frames)
            .set("frames_per_sec", frames_per_sec)
            .set("p50_frame_ms", row.p50)
            .set("p99_frame_ms", row.p99)
            .set("fairness_max_over_mean", row.fairness)
            .set("peak_sessions", row.peak_sessions),
        );
    }
    st.print();

    rep.emit();
}
