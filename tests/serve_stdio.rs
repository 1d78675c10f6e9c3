//! `parulel serve --stdio` end to end through the real binary: the
//! protocol stream is the process's stdin/stdout, and the daemon stops
//! on a `shutdown` frame or at EOF once every response is written.
//!
//! The transcript below is pinned byte for byte, so it doubles as the
//! oracle for any change to how stdio is served.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Transitive closure over a two-edge seed WM.
const CLOSURE: &str = "(literalize edge from to)\
(literalize reach from to)\
(p seed (edge ^from <a> ^to <b>) -(reach ^from <a> ^to <b>) --> (make reach ^from <a> ^to <b>))\
(p close (reach ^from <a> ^to <b>) (edge ^from <b> ^to <c>) -(reach ^from <a> ^to <c>) --> (make reach ^from <a> ^to <c>))\
(wm (edge ^from 1 ^to 2) (edge ^from 2 ^to 3))";

/// A 100-cycle counter: long enough to be sliced into several run
/// quanta at the default `--run-quantum`.
const COUNTER: &str = "(literalize count n)\
(p step (count ^n <n>) (test (< <n> 100)) --> (modify 1 ^n (+ <n> 1)))\
(wm (count ^n 0))";

fn open_frame(session: &str, program: &str) -> String {
    format!(
        r#"{{"op":"open","session":"{session}","program":"{}"}}"#,
        program.replace('\\', "\\\\").replace('"', "\\\"")
    )
}

fn spawn(args: &[&str], stdin: Stdio) -> Child {
    Command::new(env!("CARGO_BIN_EXE_parulel"))
        .arg("serve")
        .arg("--stdio")
        .args(args)
        .stdin(stdin)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn parulel serve --stdio")
}

/// Waits (at most 60 s) for the daemon to exit, reading its stdout all
/// the while, and returns the exit code and everything it wrote.
fn finish(mut child: Child) -> (i32, String) {
    let mut stdout = child.stdout.take().expect("daemon stdout");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).expect("utf-8 stdout");
        out
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("parulel serve --stdio did not exit");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    (
        status.code().unwrap_or(-1),
        reader.join().expect("stdout reader"),
    )
}

/// Runs `parulel serve --stdio <args>` with `input` on stdin (then EOF)
/// and returns the exit code and everything written to stdout.
fn serve(args: &[&str], input: &str) -> (i32, String) {
    let mut child = spawn(args, Stdio::piped());
    let mut stdin = child.stdin.take().expect("daemon stdin");
    let input = input.to_string();
    // Writes from a thread: the daemon may stop reading (after
    // `shutdown`) before the whole input is consumed.
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(input.as_bytes());
    });
    let result = finish(child);
    let _ = writer.join();
    result
}

/// [`serve`] with stdin redirected from a regular file holding `input`:
/// every read returns data at once, so the daemon never waits for input.
fn serve_file(args: &[&str], input: &str, tag: &str) -> (i32, String) {
    let dir = tmp_dir(tag);
    let path = dir.join("frames.jsonl");
    std::fs::write(&path, input).unwrap();
    let file = std::fs::File::open(&path).unwrap();
    let result = finish(spawn(args, Stdio::from(file)));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parulel-stdio-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The value of a string field in a rendered response frame.
fn field<'a>(response: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":\"");
    let start = response
        .find(&tag)
        .unwrap_or_else(|| panic!("{key} in {response}"))
        + tag.len();
    let len = response[start..].find('"').expect("closing quote");
    &response[start..start + len]
}

#[test]
fn stdio_transcript_is_byte_identical() {
    let input = [
        String::new(),
        "not json".to_string(),
        open_frame("s1", CLOSURE),
        r#"{"op":"inject","session":"s1","adds":[{"class":"edge","fields":[3,4]}]}"#.to_string(),
        r#"{"op":"run","session":"s1"}"#.to_string(),
        open_frame("c", COUNTER),
        r#"{"op":"run","session":"c"}"#.to_string(),
        r#"{"op":"metrics"}"#.to_string(),
        r#"{"op":"shutdown"}"#.to_string(),
        r#"{"op":"ping"}"#.to_string(),
    ]
    .join("\n")
        + "\n";
    let (code, stdout) = serve(&[], &input);
    assert_eq!(code, 0, "{stdout}");
    let expected = [
        r#"{"ok":false,"error":{"kind":"parse","msg":"bad frame: expected 'null' at offset 0"}}"#,
        r#"{"ok":true,"op":"open","session":"s1","policy":"fire-all","rules":2,"wm":2}"#,
        r#"{"ok":true,"op":"inject","session":"s1","queued":1,"depth":1}"#,
        r#"{"ok":true,"op":"run","session":"s1","drained":1,"status":"quiescent","cycles":3,"firings":6,"wm":9,"fingerprint":"735c3f975f38542b"}"#,
        r#"{"ok":true,"op":"open","session":"c","policy":"fire-all","rules":1,"wm":1}"#,
        r#"{"ok":true,"op":"run","session":"c","drained":0,"status":"quiescent","cycles":100,"firings":100,"wm":1,"fingerprint":"0e55249417764273"}"#,
        r#"{"ok":true,"op":"metrics","sessions":2,"peak_sessions":2,"max_sessions":64,"frames":7,"errors":1,"session_list":["c","s1"]}"#,
        r#"{"ok":true,"op":"shutdown","sessions_closed":2}"#,
    ];
    let got: Vec<&str> = stdout.lines().collect();
    assert_eq!(got, expected, "frames after shutdown must be ignored");
}

#[test]
fn eof_without_shutdown_exits_cleanly_with_every_response() {
    let mut input = open_frame("c", COUNTER) + "\n";
    for _ in 0..3 {
        input.push_str(r#"{"op":"run","session":"c"}"#);
        input.push('\n');
        input.push_str(r#"{"op":"ping"}"#);
        input.push('\n');
    }
    let (code, stdout) = serve(&[], &input);
    assert_eq!(code, 0, "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 7, "{stdout}");
    assert!(
        lines.iter().all(|l| l.starts_with(r#"{"ok":true"#)),
        "{stdout}"
    );
    assert!(lines[1].contains(r#""cycles":100"#), "{stdout}");
    assert!(lines[3].contains(r#""cycles":0"#), "{stdout}");
}

#[test]
fn wal_survives_eof_and_restart_recovers_the_fingerprint() {
    let dir = tmp_dir("wal");
    let wal = ["--wal-dir", dir.to_str().unwrap(), "--wal-sync", "always"];
    let first = [
        open_frame("s1", CLOSURE),
        r#"{"op":"inject","session":"s1","adds":[{"class":"edge","fields":[3,4]}]}"#.to_string(),
        r#"{"op":"run","session":"s1"}"#.to_string(),
    ]
    .join("\n")
        + "\n";
    let (code, stdout) = serve(&wal, &first);
    assert_eq!(code, 0, "{stdout}");
    let before = field(stdout.lines().nth(2).expect("run response"), "fingerprint").to_string();

    let second = [r#"{"op":"ping"}"#, r#"{"op":"run","session":"s1"}"#].join("\n") + "\n";
    let (code, stdout) = serve(&wal, &second);
    assert_eq!(code, 0, "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].contains(r#""recovered_sessions":1"#), "{stdout}");
    assert_eq!(field(lines[1], "fingerprint"), before, "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stdio_shards_across_workers_with_identical_fingerprints() {
    let mut frames = Vec::new();
    for name in ["a", "b", "c", "d", "e"] {
        frames.push(open_frame(name, CLOSURE));
        frames.push(open_frame(&format!("{name}-count"), COUNTER));
    }
    for name in ["a", "b", "c", "d", "e"] {
        frames.push(format!(r#"{{"op":"run","session":"{name}"}}"#));
        frames.push(format!(r#"{{"op":"run","session":"{name}-count"}}"#));
    }
    let input = frames.join("\n") + "\n";
    let (code, one) = serve(&["--workers", "1"], &input);
    assert_eq!(code, 0, "{one}");
    let (code, two) = serve(&["--workers", "2"], &input);
    assert_eq!(code, 0, "{two}");
    assert_eq!(one.lines().count(), frames.len(), "{one}");
    assert!(one.lines().all(|l| l.starts_with(r#"{"ok":true"#)), "{one}");
    assert_eq!(one, two, "sharding must not change any session's responses");
}

#[test]
fn a_flood_from_a_file_is_answered_in_full_at_any_worker_count() {
    // Far more frames than one shard inbox holds, read from a file as
    // fast as the daemon can take them. Over stdio nothing is refused
    // with `backpressure`: the daemon stops reading until responses
    // drain, so the output is the same at any shard count.
    let sessions: Vec<String> = (0..8).map(|k| format!("s{k}")).collect();
    let mut frames: Vec<String> = sessions.iter().map(|s| open_frame(s, CLOSURE)).collect();
    for i in 0..3000 {
        let session = &sessions[i % sessions.len()];
        frames.push(if i % 3 == 2 {
            r#"{"op":"ping"}"#.to_string()
        } else {
            // Distinct self-loops keep the final closure runs cheap.
            format!(
                r#"{{"op":"inject","session":"{session}","adds":[{{"class":"edge","fields":[{i},{i}]}}]}}"#
            )
        });
    }
    for s in &sessions {
        frames.push(format!(r#"{{"op":"run","session":"{s}"}}"#));
    }
    let input = frames.join("\n") + "\n";
    let (code, one) = serve_file(&["--workers", "1"], &input, "flood-1");
    assert_eq!(code, 0);
    let (code, two) = serve_file(&["--workers", "2"], &input, "flood-2");
    assert_eq!(code, 0);
    assert_eq!(one.lines().count(), frames.len());
    let refused: Vec<&str> = one
        .lines()
        .filter(|l| !l.starts_with(r#"{"ok":true"#))
        .collect();
    assert!(
        refused.is_empty(),
        "{} refused, first: {:?}",
        refused.len(),
        refused.first()
    );
    assert!(one == two, "sharding must not change any response");
}

#[test]
fn an_unterminated_last_line_is_still_answered() {
    let (code, stdout) = serve(&[], r#"{"op":"ping"}"#);
    assert_eq!(code, 0, "{stdout}");
    assert_eq!(stdout, "{\"ok\":true,\"op\":\"ping\"}\n");
}
