//! `serve_stream`: the real `parulel serve --tcp --workers 2` daemon with
//! a write-ahead log, driven open loop over two connections.
//!
//! Many small order-matching sessions are opened at set-up, then every
//! session follows a seeded script: an `inject` batch of orders, a `run`,
//! and after every [`cfg::QUERY_EVERY`]-th turn a `query`. Frames go out
//! on a fixed schedule whatever the daemon's replies (open loop), and
//! each frame is timed from its scheduled send time to its response, so
//! a stall is charged to every frame it delays.
//!
//! The run is: set-up (repeated; daemon spawn through all sessions
//! opened), the measured phase at [`cfg::NOMINAL_FPS`], the rate ladder,
//! a graceful `shutdown`, a restart on the same WAL directory (timed to
//! the first `ping` answer) and a fingerprint check of every recovered
//! session. Every `run` answer is then checked against an in-process
//! `Engine` replay of the same accepted frames.
//!
//! The generator is this one thread: it multiplexes both sockets with
//! `ppoll(2)`, so a response is timestamped when it arrives rather than
//! when the next send is due.

use crate::config::serve as cfg;
use crate::trace::Tracer;
use crate::util::{
    cpu_ticks, median, ms, proc_sample, quantile, sorted, steal_pct, written_bytes, Failure,
};
use crate::{Args, Outcome};
use parulel_core::{Delta, Value};
use parulel_engine::{Engine, EngineOptions, FiringPolicy, RunStats};
use parulel_server::{Server, ServerConfig, SyncPolicy, WalConfig};
use parulel_workloads::Scenario;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- input

/// splitmix64: a small seeded generator, so the inputs depend on
/// nothing but `--seed`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verb {
    Open,
    Inject,
    Run,
    Query,
}

impl Verb {
    fn name(self) -> &'static str {
        match self {
            Verb::Open => "open",
            Verb::Inject => "inject",
            Verb::Run => "run",
            Verb::Query => "query",
        }
    }
}

/// One order: `(is_buy, id, symbol, price)`.
type Order = (bool, i64, i64, i64);

/// One frame of the stream, with what the replay needs to repeat it.
struct Frame {
    session: usize,
    verb: Verb,
    line: String,
    orders: Vec<Order>,
}

fn session_name(k: usize) -> String {
    format!("m{k:02}")
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// A session's seeded script: inject, run, and a query after every
/// `QUERY_EVERY`-th turn.
struct Script {
    rng: Rng,
    next_id: i64,
    turn: u64,
    /// Position within the turn: 0 inject, 1 run, 2 query.
    pos: u8,
}

impl Script {
    fn next_frame(&mut self, session: usize) -> Frame {
        let name = session_name(session);
        let (verb, line, orders) = match self.pos {
            0 => {
                let n = 1 + self.rng.next() % cfg::MAX_BATCH;
                let mut orders = Vec::with_capacity(n as usize);
                let mut adds = String::new();
                for i in 0..n {
                    let buy = self.rng.next().is_multiple_of(2);
                    let sym = self.rng.range(0, cfg::SYMBOLS - 1);
                    // Overlapping price bands: most orders fill soon, so
                    // each session's book stays shallow.
                    let price = if buy {
                        self.rng.range(30, 100)
                    } else {
                        self.rng.range(1, 70)
                    };
                    let id = self.next_id;
                    self.next_id += 1;
                    orders.push((buy, id, sym, price));
                    let class = if buy { "buy" } else { "sell" };
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(
                        adds,
                        "{sep}{{\"class\":\"{class}\",\"fields\":[{id},{sym},{price}]}}"
                    );
                }
                self.pos = 1;
                (
                    Verb::Inject,
                    format!("{{\"op\":\"inject\",\"session\":\"{name}\",\"adds\":[{adds}]}}"),
                    orders,
                )
            }
            1 => {
                self.turn += 1;
                self.pos = if self.turn.is_multiple_of(cfg::QUERY_EVERY) {
                    2
                } else {
                    0
                };
                (
                    Verb::Run,
                    format!("{{\"op\":\"run\",\"session\":\"{name}\"}}"),
                    Vec::new(),
                )
            }
            _ => {
                self.pos = 0;
                (
                    Verb::Query,
                    format!(
                        "{{\"op\":\"query\",\"session\":\"{name}\",\"class\":\"trade\",\"limit\":{}}}",
                        cfg::QUERY_LIMIT
                    ),
                    Vec::new(),
                )
            }
        };
        Frame {
            session,
            verb,
            line,
            orders,
        }
    }
}

/// Every session's script plus the round-robin cursor over sessions.
struct Stream {
    scripts: Vec<Script>,
    cursor: usize,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            scripts: (0..cfg::SESSIONS)
                .map(|k| Script {
                    rng: Rng::new(seed, k as u64 + 1),
                    next_id: 1,
                    turn: 0,
                    pos: 0,
                })
                .collect(),
            cursor: 0,
        }
    }

    fn next(&mut self) -> Frame {
        let k = self.cursor;
        self.cursor = (self.cursor + 1) % cfg::SESSIONS;
        self.scripts[k].next_frame(k)
    }
}

fn connection_of(session: usize) -> usize {
    session % cfg::CONNECTIONS
}

// --------------------------------------------------------------- daemon

/// A running daemon. Dropping it kills and reaps the process, so no
/// error path leaves it behind.
struct Daemon {
    child: Child,
    /// Held open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(bin: &Path, wal_dir: &Path, log: &Path) -> Result<Daemon, String> {
        let log = std::fs::File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let mut child = Command::new(bin)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .args(["--workers", &cfg::WORKERS.to_string()])
            .arg("--wal-dir")
            .arg(wal_dir)
            .args(["--wal-sync", cfg::WAL_SYNC])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before listening".into());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("listening on tcp ") {
                        break a.parse().map_err(|e| format!("bad address {a:?}: {e}"))?;
                    }
                }
            }
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Waits for the process to exit after a `shutdown` frame.
    fn wait_exit(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ------------------------------------------------------- open-loop I/O

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until a socket is readable (or writable, where asked) or
/// `timeout` passes.
fn wait_ready(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `PollFd`s laid out as `struct pollfd`; `ts` outlives the call; a
    // null signal mask leaves the mask unchanged. The return value only
    // reports readiness, which the caller rediscovers by non-blocking I/O.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

struct Conn {
    sock: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// Frame indices awaiting a response, in send order (the daemon
    /// answers each connection in request order).
    inflight: VecDeque<usize>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        sock.set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        sock.set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        Ok(Conn {
            sock,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            inflight: VecDeque::new(),
        })
    }

    fn flush(&mut self) -> Result<(), String> {
        while !self.wbuf.is_empty() {
            match self.sock.write(&self.wbuf) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        Ok(())
    }

    /// Reads what is available and appends the complete response lines
    /// to `out`. A closed connection is an error only once no complete
    /// line is left to deliver (the daemon closes after `shutdown`).
    fn read_lines(&mut self, out: &mut Vec<String>) -> Result<(), String> {
        let mut buf = [0u8; 65536];
        let mut closed = None;
        loop {
            match self.sock.read(&mut buf) {
                Ok(0) => {
                    closed = Some("daemon closed the connection".to_string());
                    break;
                }
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    closed = Some(format!("read: {e}"));
                    break;
                }
            }
        }
        let before = out.len();
        let mut start = 0;
        while let Some(nl) = self.rbuf[start..].iter().position(|&b| b == b'\n') {
            out.push(String::from_utf8_lossy(&self.rbuf[start..start + nl]).into_owned());
            start += nl + 1;
        }
        self.rbuf.drain(..start);
        match closed {
            Some(e) if out.len() == before => Err(e),
            _ => Ok(()),
        }
    }
}

/// The fate of one sent frame.
#[derive(Clone, Default)]
struct Rec {
    due: Option<Instant>,
    sent: Option<Instant>,
    done: Option<Instant>,
    ok: bool,
    /// Kept for `run` and `query` answers (checked against the replay)
    /// and for every refusal.
    response: Option<String>,
}

impl Rec {
    /// Scheduled send to response, ms; `None` if unanswered.
    fn latency_ms(&self) -> Option<f64> {
        Some(ms(self.done?.saturating_duration_since(self.due?)))
    }

    fn lag_ms(&self) -> Option<f64> {
        Some(ms(self.sent?.saturating_duration_since(self.due?)))
    }
}

/// What a phase observed besides the per-frame records.
#[derive(Default)]
struct PhaseStats {
    /// Frames in flight, sampled every 5 ms.
    backlog: Vec<usize>,
    backlog_peak: usize,
    threads_peak: u64,
    /// Sending stopped early because the backlog ran away.
    aborted: bool,
}

/// How a phase paces its frames.
#[derive(Clone, Copy)]
enum Pace {
    /// Open loop: `count` frames, frame `i` due `i / rate` seconds after
    /// the start whatever the daemon's replies.
    Open { rate: f64, count: usize },
    /// Closed loop: keep up to `window` frames in flight on each
    /// connection for `seconds`.
    Closed { window: usize, seconds: f64 },
}

/// Runs one phase: sends frames from `source` on their sessions'
/// connections as `pace` allows and collects every response. Stops
/// sending when more than `abort_backlog` frames are in flight.
fn drive(
    conns: &mut [Conn],
    source: &mut dyn FnMut() -> Frame,
    pace: Pace,
    abort_backlog: usize,
    daemon_pid: &str,
) -> Result<Phase, String> {
    let mut ph = Phase {
        frames: Vec::new(),
        recs: Vec::new(),
        stats: PhaseStats::default(),
    };
    let start = Instant::now() + Duration::from_millis(2);
    let due_at = |i: usize, rate: f64| start + Duration::from_secs_f64(i as f64 / rate);
    let mut held: Option<Frame> = None;
    let mut lines = Vec::new();
    let mut last_sample: Option<Instant> = None;
    let mut last_progress = Instant::now();
    loop {
        let now = Instant::now();
        while !ph.stats.aborted {
            let due = match pace {
                Pace::Open { rate, count } => {
                    let due = due_at(ph.frames.len(), rate);
                    if ph.frames.len() >= count || due > now {
                        break;
                    }
                    due
                }
                Pace::Closed { seconds, .. } => {
                    if now.duration_since(start) >= Duration::from_secs_f64(seconds) {
                        break;
                    }
                    now
                }
            };
            let frame = held.take().unwrap_or_else(&mut *source);
            let c = &mut conns[connection_of(frame.session)];
            if let Pace::Closed { window, .. } = pace {
                if c.inflight.len() >= window {
                    held = Some(frame);
                    break;
                }
            }
            c.wbuf.extend_from_slice(frame.line.as_bytes());
            c.wbuf.push(b'\n');
            c.inflight.push_back(ph.frames.len());
            ph.recs.push(Rec {
                due: Some(due),
                sent: Some(now),
                ..Rec::default()
            });
            ph.frames.push(frame);
        }
        let inflight: usize = conns.iter().map(|c| c.inflight.len()).sum();
        ph.stats.backlog_peak = ph.stats.backlog_peak.max(inflight);
        if inflight > abort_backlog {
            ph.stats.aborted = true;
        }
        for c in conns.iter_mut() {
            c.flush()?;
        }
        let next_due = match pace {
            _ if ph.stats.aborted => None,
            Pace::Open { rate, count } => {
                (ph.frames.len() < count).then(|| due_at(ph.frames.len(), rate))
            }
            Pace::Closed { seconds, .. } => {
                Some(start + Duration::from_secs_f64(seconds)).filter(|&end| end > now)
            }
        };
        if next_due.is_none() && inflight == 0 {
            return Ok(ph);
        }
        if last_sample.is_none_or(|t| now.duration_since(t) >= Duration::from_millis(5)) {
            last_sample = Some(now);
            ph.stats.backlog.push(inflight);
            if let Some(p) = proc_sample(daemon_pid) {
                ph.stats.threads_peak = ph.stats.threads_peak.max(p.threads);
            }
        }
        if now.duration_since(last_progress) > Duration::from_secs(30) {
            return Err(format!("{inflight} frames unanswered for 30 s"));
        }
        // Closed loop sends on answers, so it only needs to wake for them.
        let timeout = match (pace, next_due) {
            (Pace::Open { .. }, Some(due)) => due.saturating_duration_since(now),
            _ => Duration::from_millis(5),
        }
        .min(Duration::from_millis(5));
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.sock.as_raw_fd(),
                events: POLLIN | if c.wbuf.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        wait_ready(&mut fds, timeout);
        for c in conns.iter_mut() {
            lines.clear();
            c.read_lines(&mut lines)?;
            if lines.is_empty() {
                continue;
            }
            let at = Instant::now();
            last_progress = at;
            for line in lines.drain(..) {
                let i = c
                    .inflight
                    .pop_front()
                    .ok_or_else(|| format!("unexpected response {line}"))?;
                let r = &mut ph.recs[i];
                r.done = Some(at);
                r.ok = line.contains("\"ok\":true");
                if !r.ok || matches!(ph.frames[i].verb, Verb::Run | Verb::Query) {
                    r.response = Some(line);
                }
            }
        }
    }
}

/// One closed-loop request on a connection (set-up, checks, control).
fn request(conn: &mut Conn, line: &str) -> Result<String, String> {
    conn.wbuf.extend_from_slice(line.as_bytes());
    conn.wbuf.push(b'\n');
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut lines = Vec::new();
    loop {
        conn.flush()?;
        let mut fds = [PollFd {
            fd: conn.sock.as_raw_fd(),
            events: POLLIN | if conn.wbuf.is_empty() { 0 } else { POLLOUT },
            revents: 0,
        }];
        wait_ready(&mut fds, Duration::from_millis(5));
        conn.read_lines(&mut lines)?;
        if let Some(l) = lines.pop() {
            return Ok(l);
        }
        if Instant::now() > deadline {
            return Err(format!("no answer to {line}"));
        }
    }
}

/// Extracts a string field from a response line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// Extracts a non-negative integer field from a response line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

// -------------------------------------------------------------- phases

/// One timed phase of the stream: its frames, their records, and what
/// the generator saw.
struct Phase {
    frames: Vec<Frame>,
    recs: Vec<Rec>,
    stats: PhaseStats,
}

impl Phase {
    fn latencies(&self, verb: Option<Verb>) -> Vec<f64> {
        self.frames
            .iter()
            .zip(&self.recs)
            .filter(|(f, r)| r.sent.is_some() && verb.is_none_or(|v| f.verb == v))
            .map(|(_, r)| {
                if r.ok {
                    r.latency_ms().unwrap_or(f64::INFINITY)
                } else {
                    // A refused frame misses every latency limit.
                    f64::INFINITY
                }
            })
            .collect()
    }

    fn lag_p99(&self) -> f64 {
        let lags: Vec<f64> = self.recs.iter().filter_map(Rec::lag_ms).collect();
        quantile(&sorted(lags), 0.99)
    }

    fn sent(&self) -> usize {
        self.recs.iter().filter(|r| r.sent.is_some()).count()
    }

    fn failed(&self) -> usize {
        self.recs
            .iter()
            .filter(|r| r.sent.is_some() && !r.ok)
            .count()
    }

    /// Answered frames per second over the phase's send window.
    fn achieved_fps(&self) -> f64 {
        let first = self.recs.iter().filter_map(|r| r.sent).min();
        let last = self.recs.iter().filter_map(|r| r.done).max();
        match (first, last) {
            (Some(a), Some(b)) if b > a => {
                self.recs.iter().filter(|r| r.ok).count() as f64 / b.duration_since(a).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// A rung passes when inject p99 stays under the latency limit, the
    /// generator kept its schedule, nothing was refused, and the backlog
    /// neither ran away nor kept growing.
    fn verdict(&self, lag_limit: f64) -> &'static str {
        if self.stats.aborted {
            "backlog ran away"
        } else if self.failed() > 0 {
            "frames refused"
        } else if self.lag_p99() > lag_limit {
            "generator lag"
        } else if p(&self.latencies(Some(Verb::Inject)), 0.99) > cfg::LATENCY_LIMIT_MS {
            "over limit"
        } else if self.backlog_growing() {
            "backlog growing"
        } else {
            "pass"
        }
    }

    /// The backlog grows when the mean in-flight count over the last
    /// quarter of the phase exceeds twice that of the first quarter plus
    /// two frames.
    fn backlog_growing(&self) -> bool {
        let n = self.stats.backlog.len();
        if n < 8 {
            return false;
        }
        let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
        mean(&self.stats.backlog[n - n / 4..]) > 2.0 * mean(&self.stats.backlog[..n / 4]) + 2.0
    }
}

/// The connections, the daemon, and everything sent so far.
struct Bench {
    daemon: Daemon,
    conns: Vec<Conn>,
    stream: Stream,
    /// Every phase on this daemon; the first is the sessions' `open`s.
    phases: Vec<Phase>,
}

impl Bench {
    fn phase(&mut self, pace: Pace) -> Result<&Phase, String> {
        let abort = match pace {
            // Past this many frames in flight every later frame misses
            // the limit (Little's law); stop before shard inboxes fill.
            Pace::Open { rate, .. } => {
                ((rate * cfg::LATENCY_LIMIT_MS / 1e3) * 4.0).max(64.0) as usize
            }
            Pace::Closed { .. } => usize::MAX,
        };
        let pid = self.daemon.pid();
        let stream = &mut self.stream;
        let ph = drive(&mut self.conns, &mut || stream.next(), pace, abort, &pid)?;
        self.phases.push(ph);
        Ok(self.phases.last().expect("phase just pushed"))
    }
}

/// Set-up: spawn the daemon on a fresh WAL directory, connect, and open
/// every session (all `open` frames pipelined, then every answer).
fn set_up(args: &Args, wal: &Path, log: &Path, stream_text: &str) -> Result<(Bench, f64), String> {
    let _ = std::fs::remove_dir_all(wal);
    let t = Instant::now();
    let daemon = Daemon::spawn(&args.parulel_bin, wal, log)?;
    let mut conns = Vec::new();
    for _ in 0..cfg::CONNECTIONS {
        conns.push(Conn::connect(daemon.addr)?);
    }
    let opens: Vec<Frame> = (0..cfg::SESSIONS)
        .map(|k| Frame {
            session: k,
            verb: Verb::Open,
            line: format!(
                "{{\"op\":\"open\",\"session\":\"{}\",\"program\":\"{}\"}}",
                session_name(k),
                escape(stream_text)
            ),
            orders: Vec::new(),
        })
        .collect();
    let mut source = opens.into_iter();
    let pace = Pace::Open {
        rate: f64::INFINITY,
        count: cfg::SESSIONS,
    };
    let open = drive(
        &mut conns,
        &mut || source.next().expect("one open per session"),
        pace,
        usize::MAX,
        &daemon.pid(),
    )?;
    let secs = t.elapsed().as_secs_f64();
    if let Some(r) = open.recs.iter().find(|r| !r.ok) {
        return Err(format!(
            "open refused: {}",
            r.response.as_deref().unwrap_or("")
        ));
    }
    Ok((
        Bench {
            daemon,
            conns,
            stream: Stream::new(args.seed),
            phases: vec![open],
        },
        secs,
    ))
}

/// Graceful shutdown through the protocol; returns the response.
fn shut_down(daemon: &mut Daemon, conn: &mut Conn) -> Result<String, String> {
    let resp = request(conn, "{\"op\":\"shutdown\"}")?;
    daemon.wait_exit()?;
    Ok(resp)
}

// -------------------------------------------------------------- replay

/// The class ids the replay needs, by name.
fn class_id(program: &parulel_core::Program, name: &str) -> parulel_core::ClassId {
    program
        .classes
        .id_of(program.interner.intern(name))
        .expect("market program declares the class")
}

/// Engine-layer totals of one replay pass.
#[derive(Default)]
struct ReplayTotals {
    compile_ms: f64,
    vm_ms: f64,
    build_ms: f64,
    inject_ms: f64,
    steps_ms: f64,
    wall_ms: f64,
    step_ms: Vec<f64>,
    stats: Vec<RunStats>,
    beta_tokens: f64,
    alpha_wmes: f64,
    alpha_nodes: f64,
    alpha_share_hits: f64,
}

/// Every frame the daemon accepted, in send order, with its index in
/// the whole stream and its record.
fn accepted(b: &Bench) -> Vec<(u64, &Frame, &Rec)> {
    b.phases
        .iter()
        .flat_map(|p| p.frames.iter().zip(&p.recs))
        .enumerate()
        .filter(|(_, (_, r))| r.ok)
        .map(|(id, (f, r))| (id as u64, f, r))
        .collect()
}

/// Replays the accepted frames through one in-process `Engine` per
/// session and checks every `run` fingerprint and `query` count the
/// daemon returned. With a tracer, every layer call gets a span (group
/// = the frame's index in the stream).
fn engine_replay(
    b: &Bench,
    text: &str,
    mut tr: Option<&mut Tracer>,
) -> Result<(ReplayTotals, Vec<String>), Failure> {
    let wall = Instant::now();
    let mut t = ReplayTotals::default();
    let mut engines: Vec<Option<Engine>> = (0..cfg::SESSIONS).map(|_| None).collect();
    let mut queued: Vec<Vec<Delta>> = vec![Vec::new(); cfg::SESSIONS];
    let opts = EngineOptions {
        collect_log: false,
        ..EngineOptions::default()
    };
    for (id, f, r) in accepted(b) {
        let root = tr
            .as_deref_mut()
            .map(|tr| tr.open("replay.frame", id, None));
        let mut timed = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
            match tr.as_deref_mut() {
                Some(tr) => {
                    let ((), s) = tr.span(name, id, root, &mut *f);
                    tr.duration_ms(s)
                }
                None => {
                    let t = Instant::now();
                    f();
                    ms(t.elapsed())
                }
            }
        };
        let s = f.session;
        match f.verb {
            Verb::Open => {
                let mut compiled = None;
                t.compile_ms += timed("lang.compile", &mut || {
                    compiled = Some(parulel_lang::compile_with_wm(text))
                });
                let (program, wm) = compiled
                    .expect("compiled")
                    .map_err(|e| Failure::Incorrect(format!("replay compile: {e}")))?;
                let shared = Arc::new(program.clone());
                t.vm_ms += timed("vm.build", &mut || {
                    std::hint::black_box(parulel_vm::Evaluator::new(shared.clone(), opts.eval));
                });
                let mut engine = None;
                t.build_ms += timed("engine.with_policy", &mut || {
                    engine = Some(Engine::with_policy(
                        &program,
                        wm.clone(),
                        FiringPolicy::fire_all(),
                        opts.clone(),
                    ))
                });
                engines[s] = engine;
            }
            Verb::Inject => {
                let engine = engines[s].as_ref().expect("session opened");
                let program = engine.program();
                let (buy, sell) = (class_id(program, "buy"), class_id(program, "sell"));
                let mut delta = Delta::new();
                for &(is_buy, oid, sym, price) in &f.orders {
                    let fields: Arc<[Value]> =
                        vec![Value::Int(oid), Value::Int(sym), Value::Int(price)].into();
                    delta.adds.push((if is_buy { buy } else { sell }, fields));
                }
                queued[s].push(delta);
            }
            Verb::Run => {
                let engine = engines[s].as_mut().expect("session opened");
                let deltas = std::mem::take(&mut queued[s]);
                t.inject_ms += timed("engine.inject", &mut || {
                    for d in &deltas {
                        engine.inject(d);
                    }
                });
                let mut failed = None;
                loop {
                    if engine.halted() {
                        break;
                    }
                    let before = engine.stats().clone();
                    let (stepped, d) = match tr.as_deref_mut() {
                        Some(tr) => {
                            let (out, sid) = tr.span("engine.step", id, root, || engine.step());
                            let after = engine.stats();
                            tr.derived_children(
                                sid,
                                &[
                                    ("match", after.match_time.saturating_sub(before.match_time)),
                                    (
                                        "redact",
                                        after.redact_time.saturating_sub(before.redact_time),
                                    ),
                                    ("fire", after.fire_time.saturating_sub(before.fire_time)),
                                    ("apply", after.apply_time.saturating_sub(before.apply_time)),
                                ],
                            );
                            (out, tr.duration_ms(sid))
                        }
                        None => {
                            let t0 = Instant::now();
                            let out = engine.step();
                            (out, ms(t0.elapsed()))
                        }
                    };
                    t.step_ms.push(d);
                    t.steps_ms += d;
                    match stepped {
                        Ok(true) => {}
                        Ok(false) => break,
                        Err(e) => {
                            failed = Some(e.to_string());
                            break;
                        }
                    }
                }
                if let Some(e) = failed {
                    return Err(Failure::Incorrect(format!(
                        "replay of {} failed where the daemon answered ok: {e}",
                        session_name(s)
                    )));
                }
                let want = parulel_server::fingerprint_hex(engine.wm());
                let got = r
                    .response
                    .as_deref()
                    .and_then(|l| str_field(l, "fingerprint"));
                if got != Some(want.as_str()) {
                    return Err(Failure::Incorrect(format!(
                        "{} run fingerprint {got:?} != replay {want}",
                        session_name(s)
                    )));
                }
            }
            Verb::Query => {
                let engine = engines[s].as_ref().expect("session opened");
                let trade = class_id(engine.program(), "trade");
                let want = engine.wm().iter_class(trade).count() as u64;
                let got = r.response.as_deref().and_then(|l| num_field(l, "count"));
                if got != Some(want) {
                    return Err(Failure::Incorrect(format!(
                        "{} query count {got:?} != replay {want}",
                        session_name(s)
                    )));
                }
            }
        }
        if let (Some(tr), Some(root)) = (tr.as_deref_mut(), root) {
            tr.close(root);
        }
    }
    t.wall_ms = ms(wall.elapsed());
    let mut finals = Vec::new();
    for e in engines.iter().flatten() {
        t.stats.push(e.stats().clone());
        let m = e.matcher_metrics();
        t.beta_tokens += m.beta_tokens as f64;
        t.alpha_wmes += m.alpha_wmes as f64;
        t.alpha_nodes += m.alpha_nodes as f64;
        t.alpha_share_hits += m.alpha_share_hits as f64;
        finals.push(parulel_server::fingerprint_hex(e.wm()));
    }
    Ok((t, finals))
}

/// Per-verb `Server::handle_line` times of one in-process replay, and
/// the time per frame in stream order.
struct ServerReplay {
    by_verb: BTreeMap<&'static str, Vec<f64>>,
    per_frame: BTreeMap<u64, f64>,
    total_ms: f64,
    written: u64,
    frames: usize,
}

/// Replays the accepted frames through an in-process `Server`, with the
/// daemon's WAL settings when `wal` is given. `parulel serve` without
/// flags runs `ServerConfig::default()`.
fn server_replay(
    b: &Bench,
    wal: Option<&Path>,
    tr: &mut Tracer,
    span: &'static str,
) -> ServerReplay {
    let mut server = match wal {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            Server::with_wal(ServerConfig::default(), daemon_wal_config(dir))
        }
        None => Server::new(ServerConfig::default()),
    };
    let mut out = ServerReplay {
        by_verb: BTreeMap::new(),
        per_frame: BTreeMap::new(),
        total_ms: 0.0,
        written: 0,
        frames: 0,
    };
    let written = written_bytes();
    for (id, f, _) in accepted(b) {
        let (_, s) = tr.span(span, id, None, || server.handle_line(&f.line));
        let d = tr.duration_ms(s);
        out.by_verb.entry(f.verb.name()).or_default().push(d);
        out.per_frame.insert(id, d);
        out.total_ms += d;
        out.frames += 1;
    }
    out.written = written_bytes() - written;
    out
}

/// The WAL configuration `parulel serve --wal-sync interval` uses.
fn daemon_wal_config(dir: &Path) -> WalConfig {
    let sync = SyncPolicy::parse(cfg::WAL_SYNC).expect("valid sync policy");
    WalConfig::new(dir, sync)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copying WAL file: {e}"))?;
    }
    Ok(())
}

// ------------------------------------------------------------------ run

fn p(v: &[f64], q: f64) -> f64 {
    quantile(&sorted(v.to_vec()), q)
}

/// `serve_stream`, both modes.
pub fn run(args: &Args) -> Result<Outcome, Failure> {
    let broken = Failure::Incorrect;
    // Created first: client frame spans are recorded from instants taken
    // during the live phases, which must not precede the tracer's origin.
    let mut tr = Tracer::new();
    let work: PathBuf = args.work_dir.join("serve");
    std::fs::create_dir_all(&work).map_err(|e| broken(format!("creating work dir: {e}")))?;
    let text = parulel_workloads::Market::new(0, 1, 0).source().to_string();

    // Set-up, repeated; the last daemon carries the stream.
    let mut setup_s = Vec::new();
    let mut bench = None;
    for rep in 0..cfg::SETUPS {
        let wal = work.join(format!("wal-{rep}"));
        let (mut b, secs) = set_up(args, &wal, &work.join("daemon.log"), &text).map_err(broken)?;
        setup_s.push(secs);
        if rep + 1 < cfg::SETUPS {
            shut_down(&mut b.daemon, &mut b.conns[0]).map_err(broken)?;
            let _ = std::fs::remove_dir_all(&wal);
        } else {
            bench = Some((b, wal));
        }
    }
    let (mut b, wal) = bench.expect("at least one set-up");
    let cpu0 = proc_sample(&b.daemon.pid()).unwrap_or_default().cpu_s;
    let ticks0 = cpu_ticks();

    // The measured phase (also the ladder's first rung), saturation, then
    // the rest of the ladder until a rung fails.
    let lag_limit = cfg::MAX_LAG_SHARE * cfg::LATENCY_LIMIT_MS;
    let count = (cfg::NOMINAL_FPS * args.seconds * cfg::NOMINAL_SHARE).ceil() as usize;
    let nominal = b
        .phase(Pace::Open {
            rate: cfg::NOMINAL_FPS,
            count,
        })
        .map_err(broken)?;
    let nominal_lag = nominal.lag_p99();
    // A generator that fell behind did not offer the load its latencies
    // claim: the run's client-side latencies are then not reported.
    let valid = nominal_lag <= lag_limit;
    let nominal_idx = b.phases.len() - 1;
    let proc_nominal = proc_sample(&b.daemon.pid()).unwrap_or_default();
    let steal = steal_pct(ticks0, cpu_ticks());
    let cpu_ms_per_frame = 1e3 * (proc_nominal.cpu_s - cpu0) / b.phases[nominal_idx].sent() as f64;
    let saturation_fps = b
        .phase(Pace::Closed {
            window: cfg::SATURATION_WINDOW,
            seconds: args.seconds * cfg::SATURATION_SHARE,
        })
        .map_err(broken)?
        .achieved_fps();
    let mut ladder = String::from(
        "rung_fps  achieved_fps  inject_p99_ms  lag_p99_ms  backlog_peak  failed  verdict\n",
    );
    let mut max_rate = 0.0;
    for (k, &rate) in std::iter::once(&cfg::NOMINAL_FPS)
        .chain(&cfg::LADDER_FPS)
        .enumerate()
    {
        let ph = if k == 0 {
            &b.phases[nominal_idx]
        } else {
            b.phase(Pace::Open {
                rate,
                count: cfg::RUNG_FRAMES,
            })
            .map_err(broken)?
        };
        let verdict = ph.verdict(lag_limit);
        let _ = writeln!(
            ladder,
            "{rate:>8.0}  {:>12.1}  {:>13.3}  {:>10.3}  {:>12}  {:>6}  {verdict}",
            ph.achieved_fps(),
            p(&ph.latencies(Some(Verb::Inject)), 0.99),
            ph.lag_p99(),
            ph.stats.backlog_peak,
            ph.failed()
        );
        if verdict != "pass" {
            break;
        }
        max_rate = ph.achieved_fps();
    }
    let proc_end = proc_sample(&b.daemon.pid()).unwrap_or_default();
    let threads_peak = b
        .phases
        .iter()
        .map(|p| p.stats.threads_peak)
        .max()
        .unwrap_or(0);

    // Pre-shutdown state: every session's fingerprint and the WAL
    // counters; then a graceful shutdown that must persist every session.
    let mut before = Vec::new();
    for k in 0..cfg::SESSIONS {
        let resp = request(&mut b.conns[connection_of(k)], &metrics_frame(k)).map_err(broken)?;
        before.push(str_field(&resp, "fingerprint").unwrap_or("").to_string());
    }
    let totals = request(&mut b.conns[0], "{\"op\":\"metrics\"}").map_err(broken)?;
    let wal_records = num_field(&totals, "wal_records").unwrap_or(0) as f64;
    let wal_snapshots = num_field(&totals, "wal_snapshots").unwrap_or(0) as f64;
    let shutdown = shut_down(&mut b.daemon, &mut b.conns[0]).map_err(broken)?;
    if num_field(&shutdown, "persisted") != Some(cfg::SESSIONS as u64) {
        return Err(broken(format!(
            "shutdown did not persist every session: {shutdown}"
        )));
    }
    let wal_copy = work.join("wal-copy");
    if args.trace {
        copy_dir(&wal, &wal_copy).map_err(broken)?;
    }

    // Restart on the same WAL directory: spawn to first `ping` answer.
    let t = Instant::now();
    let mut daemon =
        Daemon::spawn(&args.parulel_bin, &wal, &work.join("daemon-restart.log")).map_err(broken)?;
    let mut conn = Conn::connect(daemon.addr).map_err(broken)?;
    let ping = request(&mut conn, "{\"op\":\"ping\"}").map_err(broken)?;
    let recovery_s = t.elapsed().as_secs_f64();
    if num_field(&ping, "recovered_sessions") != Some(cfg::SESSIONS as u64) {
        return Err(broken(format!(
            "restart did not recover every session: {ping}"
        )));
    }
    for (k, want) in before.iter().enumerate() {
        let resp = request(&mut conn, &metrics_frame(k)).map_err(broken)?;
        if str_field(&resp, "fingerprint") != Some(want.as_str()) {
            return Err(broken(format!(
                "{} recovered as {resp}; its fingerprint before shutdown was {want}",
                session_name(k)
            )));
        }
    }
    shut_down(&mut daemon, &mut conn).map_err(broken)?;
    drop(conn);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&wal);

    // Correctness: the in-process replay must agree with every answer.
    let (replay, finals) = engine_replay(&b, &text, None)?;
    if finals != before {
        return Err(broken(
            "final replay fingerprints differ from the daemon's".into(),
        ));
    }

    let nominal = &b.phases[nominal_idx];
    let all = nominal.latencies(None);
    let inject = nominal.latencies(Some(Verb::Inject));
    let result = nominal.latencies(Some(Verb::Run));
    let query = nominal.latencies(Some(Verb::Query));
    let attempted = b.phases.iter().map(Phase::sent).sum::<usize>() as u64;
    let failed = b.phases.iter().map(Phase::failed).sum::<usize>() as u64;
    let error_rate = failed as f64 / attempted as f64;
    let checked = |verb| {
        b.phases
            .iter()
            .flat_map(|p| p.frames.iter().zip(&p.recs))
            .filter(|(f, r)| r.ok && f.verb == verb)
            .count()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} sessions over {} connections, --workers {}, --wal-sync {}; measured phase {} fps open loop, {} frames; \
         host steal {steal:.2}%",
        cfg::SESSIONS,
        cfg::CONNECTIONS,
        cfg::WORKERS,
        cfg::WAL_SYNC,
        cfg::NOMINAL_FPS,
        nominal.sent()
    );
    if !valid {
        let _ = writeln!(
            out,
            "INVALID: generator lag p99 {nominal_lag:.3} ms exceeds {lag_limit} ms; client latencies below are not reported"
        );
    }
    for (name, v) in [
        ("inject", &inject),
        ("result", &result),
        ("query", &query),
        ("frame", &all),
    ] {
        let _ = writeln!(
            out,
            "{name}_ms p50 {:.3} p99 {:.3} (n={}, {} beyond p99)",
            p(v, 0.5),
            p(v, 0.99),
            v.len(),
            crate::util::beyond(v.len(), 0.99)
        );
    }
    let _ = write!(
        out,
        "rate ladder (pass: inject p99 <= {} ms, generator lag p99 <= {lag_limit} ms, no refusals, no growing backlog):\n{ladder}",
        cfg::LATENCY_LIMIT_MS
    );
    let _ = writeln!(
        out,
        "max_rate_fps {max_rate:.1}; saturation_fps {saturation_fps:.1} (closed loop, {} in flight per connection); \
         recovery_s {recovery_s:.4}\n\
         cpu_ms per frame {cpu_ms_per_frame:.4} (daemon, measured phase); setup_s {:.4} (median of {setup_s:?}); \
         peak_rss_mb {:.2} after the measured phase, {:.2} at the end; error_rate {error_rate:.5}; \
         generator lag p99 {nominal_lag:.3} ms",
        cfg::SATURATION_WINDOW,
        median(&setup_s),
        proc_nominal.hwm_kib as f64 / 1024.0,
        proc_end.hwm_kib as f64 / 1024.0
    );
    let _ = writeln!(
        out,
        "correctness: {} run fingerprints and {} query counts match an in-process Engine replay; \
         {} sessions recovered with their pre-shutdown fingerprints",
        checked(Verb::Run),
        checked(Verb::Query),
        cfg::SESSIONS
    );

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    if !args.trace {
        m.insert("cpu_ms_per_op", cpu_ms_per_frame);
        m.insert("setup_s", median(&setup_s));
        m.insert("peak_rss_mb", proc_nominal.hwm_kib as f64 / 1024.0);
        return Ok(Outcome {
            attempted,
            failed,
            metrics: m,
            text: out,
        });
    }

    // Traced run: client-side frame spans from the recorded times, the
    // engine replay again with spans (its extra time over the untraced
    // replay is the tracing overhead), the server replays with WAL off
    // and on, and in-process recovery of the copied WAL directory.
    let mut id = 0u64;
    for ph in &b.phases {
        for r in &ph.recs {
            if let (Some(due), Some(sent), Some(done)) = (r.due, r.sent, r.done) {
                let root = tr.record("client.frame", id, None, due, done);
                tr.record("loadgen.lag", id, Some(root), due, sent);
                tr.record("daemon.roundtrip", id, Some(root), sent, done);
            }
            id += 1;
        }
    }
    let (traced, _) = engine_replay(&b, &text, Some(&mut tr))?;
    let (untraced, _) = engine_replay(&b, &text, None)?;
    let untraced_ms = replay.wall_ms.min(untraced.wall_ms);
    let off = server_replay(&b, None, &mut tr, "server.handle_line");
    let on = server_replay(
        &b,
        Some(&work.join("wal-replay")),
        &mut tr,
        "server.handle_line+wal",
    );
    let _ = std::fs::remove_dir_all(work.join("wal-replay"));
    let mut recovered = Server::with_wal(ServerConfig::default(), daemon_wal_config(&wal_copy));
    let (report, rs) = tr.span("recovery.recover", 0, None, || {
        parulel_server::recover(&mut recovered, &daemon_wal_config(&wal_copy))
    });
    let recovery_ms = tr.duration_ms(rs);
    for (k, want) in before.iter().enumerate() {
        let resp = recovered.handle_line(&metrics_frame(k)).unwrap_or_default();
        if str_field(&resp, "fingerprint") != Some(want.as_str()) {
            return Err(broken(format!(
                "in-process recovery of {} gave {resp}, want {want}",
                session_name(k)
            )));
        }
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&wal_copy);

    // Dispatch overhead: client round trip from actual send minus the
    // in-process (WAL on) time of the same frame, measured-phase frames.
    let first_id = b.phases[..nominal_idx]
        .iter()
        .map(|p| p.frames.len())
        .sum::<usize>() as u64;
    let mut overhead = Vec::new();
    for (i, r) in nominal.recs.iter().enumerate() {
        let inproc = on.per_frame.get(&(first_id + i as u64));
        if let (Some(sent), Some(done), Some(inproc)) = (r.sent, r.done, inproc) {
            overhead.push(ms(done.saturating_duration_since(sent)) - inproc);
        }
    }

    let sum = |f: &dyn Fn(&RunStats) -> f64| traced.stats.iter().map(f).sum::<f64>();
    let eligible = sum(&|s| s.total_eligible as f64).max(1.0);
    let phase_ms = |f: &dyn Fn(&RunStats) -> Duration| sum(&|s| ms(f(s)));
    let (match_ms, redact_ms, fire_ms, apply_ms) = (
        phase_ms(&|s| s.match_time),
        phase_ms(&|s| s.redact_time),
        phase_ms(&|s| s.fire_time),
        phase_ms(&|s| s.apply_time),
    );
    let sessions = cfg::SESSIONS as f64;
    m.insert("lang.compile_ms", traced.compile_ms / sessions);
    m.insert("vm.build_ms", traced.vm_ms / sessions);
    m.insert("match.seed_ms", (traced.build_ms - traced.vm_ms) / sessions);
    m.insert("match.ms", match_ms + traced.inject_ms);
    m.insert("match.beta_tokens", traced.beta_tokens);
    m.insert("match.alpha_wmes", traced.alpha_wmes);
    m.insert("match.alpha_nodes", traced.alpha_nodes);
    m.insert("match.alpha_share_hits", traced.alpha_share_hits);
    m.insert(
        "match.cs_peak",
        traced
            .stats
            .iter()
            .map(|s| s.peak_eligible as f64)
            .fold(0.0, f64::max),
    );
    m.insert("match.imbalance", 1.0);
    m.insert("engine.redact_ms", redact_ms);
    m.insert("engine.redacted_meta", sum(&|s| s.redacted_meta as f64));
    m.insert("engine.meta_rounds", sum(&|s| s.meta_rounds as f64));
    m.insert(
        "engine.redact_ratio",
        sum(&|s| s.redacted_meta as f64) / eligible,
    );
    m.insert("engine.fire_ms", fire_ms);
    m.insert("engine.apply_ms", apply_ms);
    m.insert("engine.cycles", sum(&|s| s.cycles as f64));
    m.insert("engine.firings", sum(&|s| s.firings as f64));
    m.insert("engine.fire_ratio", sum(&|s| s.firings as f64) / eligible);
    m.insert("engine.step_ms_p50", p(&traced.step_ms, 0.5));
    m.insert("engine.step_ms_p99", p(&traced.step_ms, 0.99));
    m.insert(
        "engine.unattributed_ms",
        traced.steps_ms - (match_ms + redact_ms + fire_ms + apply_ms),
    );
    for (verb, key50, key99) in [
        ("open", "server.open_ms_p50", "server.open_ms_p99"),
        ("inject", "server.inject_ms_p50", "server.inject_ms_p99"),
        ("run", "server.run_ms_p50", "server.run_ms_p99"),
        ("query", "server.query_ms_p50", "server.query_ms_p99"),
    ] {
        let v = off.by_verb.get(verb).cloned().unwrap_or_default();
        m.insert(key50, p(&v, 0.5));
        m.insert(key99, p(&v, 0.99));
    }
    m.insert("dispatch.overhead_ms_p50", p(&overhead, 0.5));
    m.insert("dispatch.overhead_ms_p99", p(&overhead, 0.99));
    let frames = on.frames.max(1) as f64;
    m.insert(
        "wal.cost_ms_per_frame",
        (on.total_ms - off.total_ms) / frames,
    );
    m.insert(
        "wal.bytes_per_frame",
        on.written.saturating_sub(off.written) as f64 / frames,
    );
    m.insert("wal.records", wal_records);
    m.insert("wal.snapshots", wal_snapshots);
    m.insert("recovery.ms", recovery_ms);
    m.insert("recovery.sessions", report.sessions_recovered as f64);
    m.insert("proc.threads_peak", threads_peak as f64);
    m.insert("proc.cpu_s", proc_end.cpu_s - cpu0);
    m.insert("loadgen.lag_ms_p99", nominal_lag);
    m.insert("loadgen.backlog_peak", nominal.stats.backlog_peak as f64);
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced.wall_ms - untraced_ms) / untraced_ms,
    );
    if valid {
        m.insert("inject_ms_p50", p(&inject, 0.5));
        m.insert("inject_ms_p99", p(&inject, 0.99));
        m.insert("result_ms_p50", p(&result, 0.5));
        m.insert("result_ms_p99", p(&result, 0.99));
        m.insert("query_ms_p50", p(&query, 0.5));
        m.insert("query_ms_p99", p(&query, 0.99));
        m.insert("frame_ms_p50", p(&all, 0.5));
        m.insert("frame_ms_p99", p(&all, 0.99));
    }
    m.insert("loadgen.valid", f64::from(u8::from(valid)));
    m.insert("host.steal_pct", steal);
    m.insert("max_rate_fps", max_rate);
    m.insert("saturation_fps", saturation_fps);
    m.insert("recovery_s", recovery_s);
    m.insert("error_rate", error_rate);

    let spans = args
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tr.write_jsonl(&spans)
        .map_err(|e| Failure::Invalid(format!("writing {}: {e}", spans.display())))?;
    let _ = writeln!(
        out,
        "tracing overhead: engine replay {:.3} ms traced vs {untraced_ms:.3} ms untraced\n\
         per-span time ({} spans written to {}):\n{}",
        traced.wall_ms,
        tr.len(),
        spans.display(),
        tr.layer_table()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        text: out,
    })
}

fn metrics_frame(session: usize) -> String {
    format!(
        "{{\"op\":\"metrics\",\"session\":\"{}\"}}",
        session_name(session)
    )
}
