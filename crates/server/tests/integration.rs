//! The acceptance test for `parulel serve`: many concurrent sessions of
//! the closure workload over real TCP connections to the dispatcher
//! (one scheduler shard, default run quantum), to fixpoint, with
//! one session budget-tripped mid-run — its structured `engine` error
//! frame must not disturb any other session's final working memory.
//!
//! Every client drives its own socket from its own thread, so frames
//! from all sessions interleave arbitrarily at the server; the per-
//! session fingerprints must nevertheless equal the one a solo run
//! produces.

use parulel_server::{Server, ServerConfig};
use parulel_workloads::{closure::Closure, Scenario};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;

const SESSIONS: usize = 8;
const BATCH: usize = 8;

/// Starts a one-shard daemon on an ephemeral TCP port.
fn spawn_daemon(max_sessions: usize) -> (SocketAddr, JoinHandle<()>) {
    let server = Server::new(ServerConfig {
        max_sessions,
        ..ServerConfig::default()
    });
    parulel_server::spawn_sched_tcp(vec![server], 32, "127.0.0.1:0").expect("bind")
}

/// Sends one frame on a fresh connection and returns its response.
fn request(addr: SocketAddr, frame: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(frame.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut response = String::new();
    BufReader::new(stream).read_line(&mut response).unwrap();
    response
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// The frames one closure session sends: open (program only — the edges
/// arrive as injects, exercising the incremental path), batched injects,
/// run, close.
fn session_frames(name: &str, source: &str, edges: &[(i64, i64)], extra_open: &str) -> Vec<String> {
    let mut frames = vec![format!(
        r#"{{"op":"open","session":"{name}","program":"{}"{extra_open}}}"#,
        escape(source)
    )];
    for batch in edges.chunks(BATCH) {
        let adds: Vec<String> = batch
            .iter()
            .map(|(a, b)| format!(r#"{{"class":"edge","fields":[{a},{b}]}}"#))
            .collect();
        frames.push(format!(
            r#"{{"op":"inject","session":"{name}","adds":[{}]}}"#,
            adds.join(",")
        ));
    }
    frames.push(format!(r#"{{"op":"run","session":"{name}"}}"#));
    frames.push(format!(r#"{{"op":"close","session":"{name}"}}"#));
    frames
}

/// Runs frames against a fresh solo server; returns the run frame's
/// fingerprint.
fn solo_fingerprint(source: &str, edges: &[(i64, i64)]) -> String {
    let mut server = Server::new(ServerConfig::default());
    let mut fingerprint = None;
    for frame in session_frames("solo", source, edges, "") {
        let response = server.handle_line(&frame).expect("response");
        assert!(response.starts_with(r#"{"ok":true"#), "{response}");
        if response.contains(r#""op":"run""#) {
            let doc = parulel_engine::Json::parse(&response).unwrap();
            assert_eq!(doc.get("status").and_then(|s| s.as_str()), Some("quiescent"));
            fingerprint = doc
                .get("fingerprint")
                .and_then(|f| f.as_str())
                .map(str::to_string);
        }
    }
    fingerprint.expect("run frame carried a fingerprint")
}

#[test]
fn eight_concurrent_closure_sessions_survive_a_neighbors_budget_trip() {
    let scenario = Closure::new(24, 40, 7);
    let source = scenario.source().to_string();
    let edges: Vec<(i64, i64)> = scenario.edges().to_vec();
    let expected = solo_fingerprint(&source, &edges);

    let (addr, dispatcher) = spawn_daemon(SESSIONS + 1);

    let mut clients = Vec::new();
    // 8 healthy sessions…
    for i in 0..SESSIONS {
        let (source, edges) = (source.clone(), edges.clone());
        clients.push(std::thread::spawn(move || -> (String, Option<String>) {
            let name = format!("closure-{i}");
            let stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut fingerprint = None;
            for frame in session_frames(&name, &source, &edges, "") {
                writer.write_all(frame.as_bytes()).unwrap();
                writer.write_all(b"\n").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                assert!(response.starts_with(r#"{"ok":true"#), "{name}: {response}");
                if response.contains(r#""op":"run""#) {
                    fingerprint = parulel_engine::Json::parse(&response)
                        .unwrap()
                        .get("fingerprint")
                        .and_then(|f| f.as_str())
                        .map(str::to_string);
                }
            }
            (name, fingerprint)
        }));
    }
    // …and one doomed one: a WM budget that must trip on cycle 1.
    let doomed = {
        let (source, edges) = (source.clone(), edges.clone());
        std::thread::spawn(move || -> String {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut error_frame = String::new();
            for frame in session_frames("doomed", &source, &edges, r#","max_wm":45"#) {
                writer.write_all(frame.as_bytes()).unwrap();
                writer.write_all(b"\n").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                if frame.contains(r#""op":"run""#) {
                    error_frame = response.trim().to_string();
                    break; // the close would only see unknown-session
                }
                assert!(response.starts_with(r#"{"ok":true"#), "doomed: {response}");
            }
            error_frame
        })
    };

    let error_frame = doomed.join().expect("doomed client");
    let doc = parulel_engine::Json::parse(&error_frame).expect("error frame is JSON");
    assert_eq!(doc.get("ok"), Some(&parulel_engine::Json::Bool(false)));
    let err = doc.get("error").expect("structured error");
    assert_eq!(err.get("kind").and_then(|k| k.as_str()), Some("engine"));
    assert_eq!(err.get("engine_kind").and_then(|k| k.as_str()), Some("wm"));
    assert_eq!(doc.get("closed"), Some(&parulel_engine::Json::Bool(true)));

    for client in clients {
        let (name, fingerprint) = client.join().expect("client thread");
        assert_eq!(
            fingerprint.as_deref(),
            Some(expected.as_str()),
            "{name}: final WM diverged from the solo run"
        );
    }

    // All sessions closed (the doomed one by its trip); the daemon is
    // still serving, and it saw all nine resident at peak.
    let metrics = request(addr, r#"{"op":"metrics"}"#);
    let doc = parulel_engine::Json::parse(&metrics).unwrap();
    assert_eq!(doc.get("sessions").unwrap().as_f64(), Some(0.0));
    let peak = doc.get("peak_sessions").unwrap().as_f64().unwrap();
    assert!(peak >= SESSIONS as f64, "peak {peak} < {SESSIONS}");
    let shutdown = request(addr, r#"{"op":"shutdown"}"#);
    assert!(shutdown.starts_with(r#"{"ok":true"#), "{shutdown}");
    dispatcher.join().expect("dispatcher thread");
}

/// Live hot-swap under concurrency: eight TCP sessions run the closure
/// workload while one of them is `reload`ed twice mid-stream — once to
/// the identical program (must report all-unchanged) and once to a
/// program with an extra log-only `audit` rule (must report it added).
/// Neither swap may disturb that session's final working memory, and
/// the seven untouched neighbors must land on the solo fingerprint.
#[test]
fn reloading_one_session_leaves_seven_neighbors_undisturbed() {
    let scenario = Closure::new(24, 40, 7);
    let source = scenario.source().to_string();
    let edges: Vec<(i64, i64)> = scenario.edges().to_vec();
    let expected = solo_fingerprint(&source, &edges);
    // Same class table, one extra rule that only writes to the log —
    // the reachability fixpoint (and thus the fingerprint) is identical.
    let source_v2 = format!("{source}\n(p audit (reach ^from <a> ^to <b>) --> (write audit <a> <b>))");

    let (addr, dispatcher) = spawn_daemon(SESSIONS);

    let mut clients = Vec::new();
    for i in 0..SESSIONS {
        let (source, source_v2, edges) = (source.clone(), source_v2.clone(), edges.clone());
        clients.push(std::thread::spawn(move || -> (String, Option<String>) {
            let name = format!("closure-{i}");
            let stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut send = |frame: &str| -> String {
                writer.write_all(frame.as_bytes()).unwrap();
                writer.write_all(b"\n").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                response
            };
            let mut fingerprint = None;
            let frames = session_frames(&name, &source, &edges, "");
            let midpoint = frames.len() / 2;
            for (k, frame) in frames.iter().enumerate() {
                // Session 0 gets hot-swapped between inject batches:
                // identity first, then the audit variant.
                if i == 0 && k == midpoint {
                    for (swap, want) in
                        [(&source, r#""changed":[]"#), (&source_v2, r#""added":["audit"]"#)]
                    {
                        let r = send(&format!(
                            r#"{{"op":"reload","session":"{name}","program":"{}"}}"#,
                            escape(swap)
                        ));
                        assert!(r.starts_with(r#"{"ok":true"#), "{name}: {r}");
                        assert!(r.contains(want), "{name}: {r}");
                    }
                }
                let response = send(frame);
                assert!(response.starts_with(r#"{"ok":true"#), "{name}: {response}");
                if response.contains(r#""op":"run""#) {
                    fingerprint = parulel_engine::Json::parse(&response)
                        .unwrap()
                        .get("fingerprint")
                        .and_then(|f| f.as_str())
                        .map(str::to_string);
                }
            }
            (name, fingerprint)
        }));
    }
    for client in clients {
        let (name, fingerprint) = client.join().expect("client thread");
        assert_eq!(
            fingerprint.as_deref(),
            Some(expected.as_str()),
            "{name}: final WM diverged from the solo run"
        );
    }
    let shutdown = request(addr, r#"{"op":"shutdown"}"#);
    assert!(shutdown.starts_with(r#"{"ok":true"#), "{shutdown}");
    dispatcher.join().expect("dispatcher thread");
}
