//! The readiness-driven dispatcher: one `poll(2)` event loop feeding
//! the sharded scheduler. It is the daemon's only serving stack: TCP,
//! Unix-socket and stdio connections all go through it.
//!
//! One thread owns every connection. It sleeps in `poll(2)` over the
//! listener, all connections, and a self-pipe; it wakes only when bytes
//! arrive, a shard worker finishes a response, or a signal lands (the
//! handler writes the self-pipe — see [`install_signal_handlers`]).
//! There are **no per-connection threads and no read timeouts**: ten
//! thousand idle connections cost zero wakeups.
//!
//! Frames are split off each connection's byte stream, assigned a
//! per-connection sequence number, and routed to shard inboxes via
//! [`Sched::submit`]. Workers answer through a completion queue (plus a
//! self-pipe poke); the dispatcher reorders completions back into
//! request order per connection before writing — responses on one
//! connection always come back in the order the requests went in, even
//! when frames fan out to different shards. A line longer than
//! [`MAX_FRAME_BYTES`] is answered with a `frame_too_large` error and
//! discarded through its newline; the connection stays open.
//!
//! Served over stdio (no listener), the loop has exactly one
//! connection, stdin/stdout, and returns once stdin reaches EOF and
//! every response is written, or on a `shutdown` frame. That connection
//! never has more frames in flight than a shard inbox holds, so a file
//! or a fast pipe waits for its responses instead of being refused.
//!
//! The `poll(2)`/`pipe(2)`/`signal(2)` calls go through direct `extern
//! "C"` declarations (std links libc; the build stays offline with zero
//! new dependencies).

use crate::protocol::{kind, Failure};
use crate::sched::{Reply, Sched, Submitted};
use crate::server::Server;
use parulel_engine::Json;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The longest request line the dispatcher accepts, newline excluded.
/// The largest frames any client sends are `open`/`reload` program text
/// and `restore` snapshot hex; a connection's unterminated input never
/// buffers more than this plus one read.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Capacity of each scheduler shard's frame inbox. A network client's
/// frames queued beyond it come back as `backpressure` error frames (the
/// inject-queue pattern applied to the scheduling layer); the stdio
/// connection stops reading at this many frames in flight instead.
pub const SHARD_INBOX: usize = 256;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn pipe(fds: *mut i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
}

const F_SETFL: i32 = 4;
const O_NONBLOCK: i32 = 0x800;

/// Set by the SIGTERM/SIGINT handler; checked after every `poll(2)`.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The self-pipe write end the signal handler pokes so `poll(2)` wakes
/// at once. `-1` when no dispatcher is running.
static SIGNAL_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: an atomic store and (when a dispatcher is
    // registered) one write(2) — both on the POSIX safe list.
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
    let fd = SIGNAL_WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        let byte = b"S";
        // SAFETY: `byte` is a live one-byte buffer; a stale or closed fd
        // only makes write(2) fail, which is ignored.
        unsafe {
            let _ = write(fd, byte.as_ptr(), 1);
        }
    }
}

/// Installs flag-setting handlers for SIGTERM and SIGINT. Uses libc's
/// `signal(2)` directly — std already links it, and glibc's `signal`
/// gives BSD semantics (the handler stays installed). Idempotent. Only
/// listeners install them: over stdio the natural stop is EOF, and
/// Ctrl-C keeps killing an interactive pipe at once.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` is an `extern "C"` handler that only touches
    // atomics and calls write(2), both async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Worker→dispatcher completion channel: finished responses plus the
/// self-pipe poke that wakes `poll(2)`.
struct Completions {
    queue: Mutex<Vec<(u64, u64, String)>>,
    wake_fd: i32,
}

impl Completions {
    fn push(&self, conn: u64, seq: u64, response: String) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push((conn, seq, response));
        // A full pipe already guarantees a pending wakeup; EAGAIN is
        // success here.
        let byte = b"w";
        unsafe {
            let _ = write(self.wake_fd, byte.as_ptr(), 1);
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, String),
}

impl Listener {
    fn fd(&self) -> i32 {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> io::Result<Sock> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                stream.set_nonblocking(true)?;
                Ok(Sock::Tcp(stream))
            }
            Listener::Unix(l, _) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(true)?;
                Ok(Sock::Unix(stream))
            }
        }
    }
}

enum Sock {
    Tcp(TcpStream),
    Unix(UnixStream),
    /// Reads fd 0, writes fd 1. Both stay blocking: they share a file
    /// description with the parent shell, so `O_NONBLOCK` would leak
    /// into it. Reads are gated by a zero-timeout `poll(2)` instead, and
    /// go straight to `read(2)` — std's `Stdin` buffer would hide bytes
    /// from `poll`.
    Stdio,
}

impl Sock {
    fn fd(&self) -> i32 {
        match self {
            Sock::Tcp(s) => s.as_raw_fd(),
            Sock::Unix(s) => s.as_raw_fd(),
            Sock::Stdio => 0,
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Unix(s) => s.read(buf),
            Sock::Stdio => {
                let mut ready = PollFd {
                    fd: 0,
                    events: POLLIN,
                    revents: 0,
                };
                // SAFETY: `ready` is one valid `PollFd`, matching nfds 1.
                if unsafe { poll(&mut ready, 1, 0) } <= 0 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                // SAFETY: read(2) writes at most `buf.len()` bytes into
                // `buf`, which is exclusively borrowed.
                let n = unsafe { read(0, buf.as_mut_ptr(), buf.len()) };
                if n < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(n as usize)
            }
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Unix(s) => s.write(buf),
            Sock::Stdio => {
                // SAFETY: write(2) reads at most `buf.len()` bytes of `buf`.
                let n = unsafe { write(1, buf.as_ptr(), buf.len()) };
                if n < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(n as usize)
            }
        }
    }
}

/// One connection's dispatcher-side state.
struct Conn {
    sock: Sock,
    /// Input not yet split into frames: at most one partial line.
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already searched for a newline.
    scanned: usize,
    /// The current line was refused as too large; its bytes are dropped
    /// through the next newline.
    discarding: bool,
    /// Bytes queued for write (response frames, newline-terminated).
    wbuf: Vec<u8>,
    /// Next sequence number assigned to an incoming frame.
    next_seq: u64,
    /// Next sequence number whose response may be written.
    next_flush: u64,
    /// Responses that completed out of order, keyed by sequence.
    pending: BTreeMap<u64, String>,
    /// Read side saw EOF; the connection drops once `wbuf` drains and
    /// no responses are outstanding.
    eof: bool,
}

impl Conn {
    fn new(sock: Sock) -> Conn {
        Conn {
            sock,
            rbuf: Vec::new(),
            scanned: 0,
            discarding: false,
            wbuf: Vec::new(),
            next_seq: 0,
            next_flush: 0,
            pending: BTreeMap::new(),
            eof: false,
        }
    }

    fn outstanding(&self) -> bool {
        self.next_flush < self.next_seq || !self.wbuf.is_empty()
    }

    /// Whether the connection must submit nothing more until responses
    /// drain. Only stdio is held back: it has no client that could retry
    /// a `backpressure` refusal, so it keeps its frames in flight below
    /// one inbox's capacity and no inbox can fill.
    fn saturated(&self) -> bool {
        matches!(self.sock, Sock::Stdio) && self.next_seq - self.next_flush >= SHARD_INBOX as u64
    }

    /// Buffered input not yet searched for a frame, which the connection
    /// may submit once it is no longer saturated.
    fn backlogged(&self) -> bool {
        self.scanned < self.rbuf.len()
    }

    /// Files a completed response and flushes every consecutively-ready
    /// response into the write buffer (per-connection request order).
    fn complete(&mut self, seq: u64, response: String) {
        self.pending.insert(seq, response);
        while let Some(r) = self.pending.remove(&self.next_flush) {
            self.wbuf.extend_from_slice(r.as_bytes());
            self.wbuf.push(b'\n');
            self.next_flush += 1;
        }
    }

    /// Answers an over-long line in its request-order slot.
    fn refuse_oversized(&mut self) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let failure = Failure::new(
            kind::FRAME_TOO_LARGE,
            format!("frame exceeds {MAX_FRAME_BYTES} bytes; discarded through its newline"),
        );
        self.complete(seq, failure.to_frame(None, None).render());
    }

    /// Writes as much of `wbuf` as the socket accepts right now.
    fn flush(&mut self) -> io::Result<()> {
        while !self.wbuf.is_empty() {
            match self.sock.write(&self.wbuf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

fn make_pipe() -> io::Result<(i32, i32)> {
    let mut fds = [0i32; 2];
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    for fd in fds {
        unsafe {
            fcntl(fd, F_SETFL, O_NONBLOCK);
        }
    }
    Ok((fds[0], fds[1]))
}

/// Serves `listener` through `sched` until a `shutdown` frame or
/// SIGTERM/SIGINT; with no listener, serves stdin/stdout until a
/// `shutdown` frame or EOF. The scheduler is consumed: its workers are
/// joined before this returns.
fn event_loop(mut sched: Sched, listener: Option<Listener>) -> io::Result<()> {
    if listener.is_some() {
        install_signal_handlers();
    }
    let (pipe_r, pipe_w) = make_pipe()?;
    SIGNAL_WAKE_FD.store(pipe_w, Ordering::SeqCst);
    let completions = Arc::new(Completions {
        queue: Mutex::new(Vec::new()),
        wake_fd: pipe_w,
    });
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut next_conn = 0u64;
    if listener.is_none() {
        conns.insert(next_conn, Conn::new(Sock::Stdio));
        next_conn += 1;
    }
    let mut down = false;

    while !down {
        let mut fds = vec![
            PollFd {
                fd: pipe_r,
                events: POLLIN,
                revents: 0,
            },
            PollFd {
                fd: listener.as_ref().map_or(-1, Listener::fd),
                events: POLLIN,
                revents: 0,
            },
        ];
        let mut ids = Vec::with_capacity(conns.len());
        // The self-pipe covers every wake source, so poll(2) blocks
        // until something happens, unless buffered frames are ready.
        let mut timeout = -1;
        for (&id, conn) in &conns {
            let mut events = 0i16;
            if !conn.eof && !conn.saturated() {
                events |= POLLIN;
                if conn.backlogged() {
                    timeout = 0;
                }
            }
            if !conn.wbuf.is_empty() {
                events |= POLLOUT;
            }
            // A negative fd is skipped by poll(2). A connection with no
            // interest must not be polled at all: a half-closed peer
            // reports POLLHUP on every pass and the loop would spin
            // while its outstanding runs finish.
            fds.push(PollFd {
                fd: if events == 0 { -1 } else { conn.sock.fd() },
                events,
                revents: 0,
            });
            ids.push(id);
        }
        // EINTR falls through to the same recheck.
        unsafe {
            poll(fds.as_mut_ptr(), fds.len() as u64, timeout);
        }

        drain_pipe(pipe_r);
        deliver(&completions, &mut conns);

        if SIGNAL_SHUTDOWN.load(Ordering::SeqCst) {
            // Graceful signal shutdown: drain runs (their responses
            // flush below), persist, stop.
            let merged = sched.shutdown(&Json::obj().set("op", "shutdown"));
            if let Some(persisted) = merged.get("persisted").and_then(Json::as_f64) {
                if persisted > 0.0 {
                    eprintln!(
                        "parulel serve: signal received; persisted {} session(s)",
                        persisted as u64
                    );
                }
            }
            deliver(&completions, &mut conns);
            break;
        }

        // Accept every pending connection (readiness-driven: only when
        // poll reported the listener, but re-checking is harmless and
        // keeps the loop simple after spurious wakes).
        while let Some(Ok(sock)) = listener.as_ref().map(Listener::accept) {
            conns.insert(next_conn, Conn::new(sock));
            next_conn += 1;
        }

        // Readable connections, and those with buffered frames they may
        // submit again: pull bytes, split frames, route.
        let mut dead: Vec<u64> = Vec::new();
        for (slot, &id) in ids.iter().enumerate() {
            let revents = fds[slot + 2].revents;
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            let ready = revents & (POLLIN | POLLERR | POLLHUP) != 0 || conn.backlogged();
            if ready && !conn.eof {
                match read_frames(id, conn, &sched, &completions) {
                    ReadOutcome::Open => {}
                    ReadOutcome::Closed => {
                        if !conn.outstanding() {
                            dead.push(id);
                        }
                    }
                    ReadOutcome::Shutdown(reply) => {
                        let merged = sched.shutdown(&Json::obj().set("op", "shutdown"));
                        reply(merged.render());
                        deliver(&completions, &mut conns);
                        down = true;
                        break;
                    }
                }
            }
        }
        if down {
            break;
        }
        for id in dead {
            conns.remove(&id);
        }

        // Deliver anything workers finished while we were reading, then
        // flush writable connections.
        deliver(&completions, &mut conns);
        let mut dropped: Vec<u64> = Vec::new();
        for (&id, conn) in conns.iter_mut() {
            if conn.flush().is_err() {
                dropped.push(id);
                continue;
            }
            if conn.eof && !conn.outstanding() {
                dropped.push(id);
            }
        }
        for id in dropped {
            conns.remove(&id);
        }
        // Over stdio, the one connection closing is the end of service.
        if listener.is_none() && conns.is_empty() {
            break;
        }
    }

    // A no-op after a shutdown. At stdio EOF every response is written
    // and no run is parked, so the idle workers just stop: no shutdown
    // frame, no compaction.
    sched.join();
    // Best-effort final flush of everything still buffered (the
    // shutdown response itself, drained-run responses on neighbor
    // connections), bounded so a stuck peer cannot wedge the exit.
    deliver(&completions, &mut conns);
    let deadline = Instant::now() + Duration::from_secs(3);
    while Instant::now() < deadline {
        let mut pending = false;
        for conn in conns.values_mut() {
            let _ = conn.flush();
            if !conn.wbuf.is_empty() {
                pending = true;
            }
        }
        if !pending {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    SIGNAL_WAKE_FD.store(-1, Ordering::SeqCst);
    unsafe {
        close(pipe_r);
        close(pipe_w);
    }
    if let Some(Listener::Unix(_, path)) = &listener {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

fn drain_pipe(fd: i32) {
    let mut buf = [0u8; 256];
    loop {
        let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
        if n <= 0 || (n as usize) < buf.len() {
            break;
        }
    }
}

fn deliver(completions: &Completions, conns: &mut BTreeMap<u64, Conn>) {
    let batch: Vec<(u64, u64, String)> = {
        let mut queue = completions.queue.lock().expect("completion queue poisoned");
        std::mem::take(&mut *queue)
    };
    for (conn_id, seq, response) in batch {
        // Responses for connections that died in flight are dropped.
        if let Some(conn) = conns.get_mut(&conn_id) {
            conn.complete(seq, response);
        }
    }
}

enum ReadOutcome {
    Open,
    Closed,
    Shutdown(Reply),
}

/// Routes every buffered complete line, then reads whatever the
/// connection has, until it would block or is saturated. At EOF an
/// unterminated last line is still a frame.
fn read_frames(
    id: u64,
    conn: &mut Conn,
    sched: &Sched,
    completions: &Arc<Completions>,
) -> ReadOutcome {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(reply) = split_frames(id, conn, sched, completions) {
            return ReadOutcome::Shutdown(reply);
        }
        if conn.saturated() {
            return ReadOutcome::Open;
        }
        match conn.sock.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                conn.rbuf.push(b'\n');
                if let Some(reply) = split_frames(id, conn, sched, completions) {
                    return ReadOutcome::Shutdown(reply);
                }
                return ReadOutcome::Closed;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Open,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.eof = true;
                return ReadOutcome::Closed;
            }
        }
    }
}

/// Splits the complete lines out of `conn.rbuf` and submits each to the
/// scheduler with this connection's next sequence number, stopping early
/// once the connection is saturated. Only bytes not searched before are
/// scanned, and `rbuf` is drained once, so a long line costs linear time
/// however many reads it takes. Returns the reply of a `shutdown` frame,
/// which ends the connection's input.
fn split_frames(
    id: u64,
    conn: &mut Conn,
    sched: &Sched,
    completions: &Arc<Completions>,
) -> Option<Reply> {
    let mut start = 0;
    while !conn.saturated() {
        let Some(offset) = conn.rbuf[conn.scanned..].iter().position(|&b| b == b'\n') else {
            conn.scanned = conn.rbuf.len();
            break;
        };
        let end = conn.scanned + offset;
        conn.scanned = end + 1;
        let line_start = std::mem::replace(&mut start, end + 1);
        if std::mem::take(&mut conn.discarding) {
            // The tail of a line already refused as too large.
            continue;
        }
        if end - line_start > MAX_FRAME_BYTES {
            conn.refuse_oversized();
            continue;
        }
        let line = String::from_utf8_lossy(&conn.rbuf[line_start..end]).into_owned();
        if line.trim().is_empty() {
            continue;
        }
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let sink = Arc::clone(completions);
        let reply: Reply = Box::new(move |response| sink.push(id, seq, response));
        if let Submitted::Shutdown(reply) = sched.submit(&line, reply) {
            return Some(reply);
        }
    }
    conn.rbuf.drain(..start);
    conn.scanned -= start;
    if conn.backlogged() {
        // Saturated with whole lines still buffered; they go first.
        return None;
    }
    // What is left is one partial line.
    if conn.rbuf.len() > MAX_FRAME_BYTES && !conn.discarding {
        conn.refuse_oversized();
        conn.discarding = true;
    }
    if conn.discarding {
        conn.rbuf.clear();
        conn.scanned = 0;
    }
    None
}

/// Binds `addr` and serves TCP through the sharded scheduler on a
/// background thread until a `shutdown` frame or SIGTERM/SIGINT; returns
/// the bound address and the dispatcher thread's handle.
pub fn spawn_sched_tcp(
    servers: Vec<Server>,
    quantum: u64,
    addr: &str,
) -> io::Result<(SocketAddr, thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = thread::spawn(move || {
        let sched = Sched::start(servers, quantum, SHARD_INBOX);
        let _ = event_loop(sched, Some(Listener::Tcp(listener)));
    });
    Ok((bound, handle))
}

/// Binds a Unix socket at `path` (replacing a stale file) and serves it
/// through the sharded scheduler. Blocks the caller.
pub fn serve_sched_unix(servers: Vec<Server>, quantum: u64, path: &str) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let sched = Sched::start(servers, quantum, SHARD_INBOX);
    let listener = Listener::Unix(listener, path.to_string());
    event_loop(sched, Some(listener))
}

/// Serves the process's stdin/stdout as one connection of the sharded
/// scheduler until a `shutdown` frame, or EOF once every response is
/// written. Blocks the caller.
pub fn serve_sched_stdio(servers: Vec<Server>, quantum: u64) -> io::Result<()> {
    let sched = Sched::start(servers, quantum, SHARD_INBOX);
    event_loop(sched, None)
}
