//! The one TCP line server. Every `nvc` network daemon (the hub, the
//! discovery registry) speaks one JSON object per line through
//! [`serve_lines`]: one selector thread drives every connection
//! nonblocking (C10K-style), a small worker pool runs
//! [`LineService::handle_line`] off the loop.
//!
//! ```text
//!            ┌───────────────── selector thread ─────────────────┐
//!  accept ──►│ register(fd) ── readable ──► line buffer ──┐      │
//!            │                                            ▼      │
//!            │ writable ◄── per-conn output queue ◄── seq reorder│
//!            └───────▲──────────────────────────────────┬────────┘
//!                    │ waker (self-pipe)                │ job queue
//!                    └────────── request workers ◄──────┘
//!                                (service.handle_line)
//! ```
//!
//! Invariants the loop maintains:
//!
//! * **Partial lines survive wakeups.** Bytes read are appended to a
//!   per-connection buffer; only complete `\n`-terminated lines are
//!   dispatched. A scan cursor makes each byte searched for `\n` once,
//!   and the buffer compacts once per read batch, so a pipelined burst
//!   costs linear time. `MAX_LINE` bounds the unterminated tail only.
//! * **Responses are written in request order per connection.** Each
//!   dispatched line gets a sequence number; worker results park in a
//!   reorder map until their turn. (Workers may finish out of order —
//!   a cache hit overtaking a model forward.)
//! * **Every connection is bounded both ways.** At most
//!   `MAX_IN_FLIGHT` lines per connection are dispatched but not yet
//!   answered; past that the loop stops reading the socket, and as
//!   responses drain it dispatches the lines already buffered without
//!   waiting for a new readable event. Unsent output waits in a
//!   per-connection queue; past `max_output_buffer` queued bytes the
//!   loop also stops reading until the queue drains below half. A
//!   pipelining or slow-reading client throttles only itself.
//! * **Idle connections cost zero CPU.** No per-connection timers; the
//!   loop's own `IDLE_TICK` is one wakeup for the whole process.
//! * **Gauges stay truthful on every exit path.** `active_connections`
//!   decrements on EOF, error, or hangup, not just on clean closes.
//!
//! The `shutdown` verb is ack-first: `handle_line` flips the service's
//! flag, the loop flushes the ack, and only then does
//! [`LineService::shutdown`] (the hub's blocking drain + cache persist)
//! run on the exiting loop thread. The loop never exits while a
//! dispatched request is outstanding, so the ack cannot be dropped.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nvc_obs::{Counter, Gauge};
use parking_lot::Mutex;
use polling::{Event, Interest, Poller, Waker};

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKER: usize = 1;
const TOKEN_FIRST_CONN: usize = 16;

/// Defensive re-check interval for the selector wait; one wakeup per
/// tick for the whole process, independent of connection count.
const IDLE_TICK: Duration = Duration::from_millis(500);

/// Read chunk size. Lines longer than this simply span multiple reads.
const READ_CHUNK: usize = 8192;

/// Hard bound on one line; a peer streaming an unbounded "line" is cut
/// off rather than allowed to grow the buffer forever.
const MAX_LINE: usize = 16 * 1024 * 1024;

/// Lines per connection dispatched to the workers but not yet answered.
const MAX_IN_FLIGHT: u64 = 64;

/// A protocol that answers one line at a time. The hub and the
/// discovery registry implement it; [`serve_lines`] does the rest.
pub trait LineService: Send + Sync + 'static {
    /// Answers one protocol line: the response line, and `false` when
    /// it acknowledges a shutdown.
    fn handle_line(&self, line: &str) -> (String, bool);

    /// True once shutdown has begun: the loop stops accepting and
    /// dispatching, and exits once it has quiesced.
    fn is_shutting_down(&self) -> bool;

    /// Runs once on the loop thread after shutdown has quiesced (no
    /// request outstanding, the shutdown ack flushed) and before the
    /// remaining connections close. Must be idempotent.
    fn shutdown(&self);
}

/// How [`serve_lines`] runs one service.
pub struct LineServerConfig {
    /// Thread-name prefix (`{name}-event`, `{name}-req-{i}`) and log tag.
    pub name: &'static str,
    /// Request worker threads (clamped to ≥ 1). Responses are written
    /// back in per-connection request order regardless.
    pub workers: usize,
    /// Queued unsent output per connection past which the loop stops
    /// reading from it (clamped to ≥ one read chunk).
    pub max_output_buffer: usize,
    /// Counts every accepted connection.
    pub connections: Arc<Counter>,
    /// Tracks the connections currently open.
    pub active_connections: Arc<Gauge>,
}

/// A running line server: selector thread plus request workers.
pub struct LineServer {
    /// The selector thread first: its exit closes the job queue the
    /// workers wait on.
    threads: Mutex<Vec<JoinHandle<()>>>,
    waker: Arc<Waker>,
}

impl LineServer {
    /// Wakes the loop (so an externally initiated shutdown is noticed
    /// immediately) and joins every thread. Returns once the service
    /// is shutting down and the loop has quiesced. Idempotent.
    pub fn join(&self) {
        let _ = self.waker.wake();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

/// Starts the selector thread and request workers serving `service`
/// on `listener`.
///
/// # Errors
///
/// Returns an error when the listener cannot switch to nonblocking mode
/// or the selector cannot be created.
pub fn serve_lines<S: LineService>(
    service: Arc<S>,
    listener: TcpListener,
    cfg: LineServerConfig,
) -> io::Result<LineServer> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER)?);

    let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<Done>();
    let job_rx = Arc::new(std::sync::Mutex::new(job_rx));

    let (name, workers) = (cfg.name, cfg.workers.max(1));
    let mut lp = EventLoop {
        service: Arc::clone(&service),
        listener,
        poller,
        job_tx,
        max_out: cfg.max_output_buffer.max(READ_CHUNK),
        cfg,
        conns: HashMap::new(),
        next_token: TOKEN_FIRST_CONN,
    };
    let loop_waker = Arc::clone(&waker);
    let mut threads = vec![std::thread::Builder::new()
        .name(format!("{name}-event"))
        .spawn(move || lp.run(&loop_waker, &done_rx))
        .expect("spawn line-server event loop")];
    for i in 0..workers {
        let service = Arc::clone(&service);
        let job_rx = Arc::clone(&job_rx);
        let done_tx = done_tx.clone();
        let waker = Arc::clone(&waker);
        threads.push(
            std::thread::Builder::new()
                .name(format!("{name}-req-{i}"))
                .spawn(move || worker_loop(&*service, &job_rx, &done_tx, &waker))
                .expect("spawn line-server request worker"),
        );
    }
    Ok(LineServer {
        threads: Mutex::new(threads),
        waker,
    })
}

/// A complete line on its way to the workers.
struct Job {
    token: usize,
    seq: u64,
    line: String,
}

/// A finished response on its way back to the loop.
struct Done {
    token: usize,
    seq: u64,
    response: String,
    keep_going: bool,
    /// The trace id the line ran under (0 when tracing is off), so the
    /// wire write joins its request.
    trace: u64,
}

fn worker_loop<S: LineService>(
    service: &S,
    jobs: &std::sync::Mutex<Receiver<Job>>,
    done: &Sender<Done>,
    waker: &Waker,
) {
    loop {
        // One worker parks inside `recv` holding the lock; its peers
        // queue on the mutex. Each arriving job releases exactly one.
        let Ok(job) = jobs.lock().unwrap_or_else(|e| e.into_inner()).recv() else {
            return; // loop exited, channel closed
        };
        // One trace id per protocol line.
        let trace = nvc_obs::tracing_enabled()
            .then(nvc_obs::next_trace_id)
            .unwrap_or(0);
        let (response, keep_going) = {
            let _scope = (trace != 0).then(|| nvc_obs::trace_scope(trace));
            service.handle_line(&job.line)
        };
        let sent = done.send(Done {
            token: job.token,
            seq: job.seq,
            response,
            keep_going,
            trace,
        });
        if sent.is_err() {
            return; // loop gone
        }
        let _ = waker.wake();
    }
}

struct Conn {
    stream: TcpStream,
    /// Bytes read and not yet compacted away. `read_buf[..line_start]`
    /// are dispatched lines; `read_buf[line_start..scanned]` holds no
    /// newline; `read_buf[scanned..]` is not yet searched.
    read_buf: Vec<u8>,
    line_start: usize,
    scanned: usize,
    /// Unsent response bytes (front = next byte on the wire).
    out: VecDeque<u8>,
    /// Trace id of the newest response queued in `out`.
    out_trace: u64,
    /// Sequence assigned to the next dispatched line.
    next_seq: u64,
    /// Sequence whose response must hit `out` next.
    write_seq: u64,
    /// Out-of-order completed responses parked until their turn.
    ready: BTreeMap<u64, Done>,
    /// Peer sent EOF; close once all responses have flushed.
    read_closed: bool,
    /// Reading suspended by the output-buffer bound.
    paused: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            line_start: 0,
            scanned: 0,
            out: VecDeque::new(),
            out_trace: 0,
            next_seq: 0,
            write_seq: 0,
            ready: BTreeMap::new(),
            read_closed: false,
            paused: false,
            interest: Interest::READ,
        }
    }

    fn desired_interest(&self) -> Interest {
        let mut want = Interest::NONE;
        if !self.read_closed && !self.paused && !self.at_cap() {
            want = want.and(Interest::READ);
        }
        if !self.out.is_empty() {
            want = want.and(Interest::WRITE);
        }
        want
    }

    /// Requests dispatched whose responses have not yet been promoted
    /// into the output queue.
    fn outstanding(&self) -> u64 {
        self.next_seq - self.write_seq
    }

    fn at_cap(&self) -> bool {
        self.outstanding() >= MAX_IN_FLIGHT
    }

    /// Buffered bytes not yet searched for a line: the in-flight cap
    /// stopped the split.
    fn backlogged(&self) -> bool {
        self.scanned < self.read_buf.len()
    }

    /// The connection has nothing left to do once the peer is gone.
    fn finished(&self) -> bool {
        self.read_closed && self.outstanding() == 0 && self.out.is_empty() && !self.backlogged()
    }

    /// Dispatches buffered complete lines until none is left or the
    /// in-flight cap is reached (while shutting down, lines are
    /// dropped: the connection is about to close). Returns `false` when
    /// the connection must close: the workers are gone, or the
    /// unterminated tail exceeds `MAX_LINE`.
    fn split_lines(&mut self, token: usize, job_tx: &Sender<Job>, dispatch: bool) -> bool {
        while !self.at_cap() {
            let Some(nl) = self.read_buf[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            else {
                self.scanned = self.read_buf.len();
                return self.read_buf.len() - self.line_start <= MAX_LINE;
            };
            let end = self.scanned + nl;
            let line = String::from_utf8_lossy(&self.read_buf[self.line_start..end]);
            let line = line.trim();
            if dispatch && !line.is_empty() {
                let job = Job {
                    token,
                    seq: self.next_seq,
                    line: line.to_string(),
                };
                if job_tx.send(job).is_err() {
                    return false;
                }
                self.next_seq += 1;
            }
            self.line_start = end + 1;
            self.scanned = self.line_start;
        }
        true
    }

    /// Drops the dispatched lines from the front of the buffer.
    fn compact(&mut self) {
        self.read_buf.drain(..self.line_start);
        self.scanned -= self.line_start;
        self.line_start = 0;
    }

    /// Reads until the socket would block or the in-flight cap is
    /// reached (reading resumes as responses drain), dispatching
    /// complete lines as they arrive. Returns `false` when the
    /// connection must close.
    fn read_ready(&mut self, token: usize, job_tx: &Sender<Job>, dispatch: bool) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        while !self.at_cap() {
            let t_read = Instant::now();
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    nvc_obs::record_span("tcp_read", 0, t_read, t_read.elapsed());
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    if !self.split_lines(token, job_tx, dispatch) {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Moves in-order completed responses into the output queue.
    /// Returns `true` when one of them was a shutdown ack.
    fn promote_ready(&mut self) -> bool {
        let mut saw_ack = false;
        while let Some(done) = self.ready.remove(&self.write_seq) {
            self.write_seq += 1;
            self.out.extend(done.response.as_bytes());
            self.out.push_back(b'\n');
            self.out_trace = done.trace;
            saw_ack |= !done.keep_going;
        }
        saw_ack
    }

    /// Writes queued bytes until empty or the socket would block.
    /// Returns `false` when the connection must close.
    fn flush_out(&mut self) -> bool {
        while !self.out.is_empty() {
            let (front, _) = self.out.as_slices();
            let t_write = Instant::now();
            match self.stream.write(front) {
                Ok(0) => return false,
                Ok(n) => {
                    nvc_obs::record_span("tcp_write", self.out_trace, t_write, t_write.elapsed());
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }
}

/// The selector thread's state.
struct EventLoop<S> {
    service: Arc<S>,
    listener: TcpListener,
    poller: Poller,
    job_tx: Sender<Job>,
    max_out: usize,
    cfg: LineServerConfig,
    conns: HashMap<usize, Conn>,
    next_token: usize,
}

impl<S: LineService> EventLoop<S> {
    fn run(&mut self, waker: &Waker, done_rx: &Receiver<Done>) {
        let mut events: Vec<Event> = Vec::new();
        // Tokens whose state changed this iteration (only these need
        // their interest re-armed — keeps per-wakeup work O(ready), not
        // O(conns)).
        let mut touched: Vec<usize> = Vec::new();
        let mut dead: Vec<usize> = Vec::new();
        // The connection owed the shutdown ack, once one exists.
        let mut ack_conn: Option<usize> = None;

        loop {
            let _ = self.poller.wait(&mut events, Some(IDLE_TICK));
            touched.clear();
            dead.clear();
            let dispatch = !self.service.is_shutting_down();

            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => {
                        if dispatch {
                            self.accept_ready();
                        }
                    }
                    TOKEN_WAKER => waker.drain(),
                    token => {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            continue; // closed earlier this iteration
                        };
                        touched.push(token); // writable: flushed below
                        if ev.readable && !conn.read_ready(token, &self.job_tx, dispatch) {
                            dead.push(token);
                        }
                    }
                }
            }

            // Route finished responses into their connections' in-order
            // output.
            while let Ok(done) = done_rx.try_recv() {
                let token = done.token;
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue; // connection died while the request ran
                };
                touched.push(token);
                conn.ready.insert(done.seq, done);
                if conn.promote_ready() {
                    ack_conn = Some(token);
                }
            }

            // Once per wakeup for each connection that changed: flush,
            // dispatch buffered lines below the in-flight cap, compact
            // the read buffer, apply backpressure, reap drained EOF
            // conns, re-arm interest.
            touched.sort_unstable();
            touched.dedup();
            for &token in &touched {
                if dead.contains(&token) {
                    continue;
                }
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                let alive = conn.flush_out() && conn.split_lines(token, &self.job_tx, dispatch);
                conn.compact();
                if !alive {
                    dead.push(token);
                    continue;
                }
                conn.paused = if conn.paused {
                    conn.out.len() > self.max_out / 2 // resume below half
                } else {
                    conn.out.len() > self.max_out
                };
                if conn.finished() {
                    dead.push(token);
                    continue;
                }
                let want = conn.desired_interest();
                if want != conn.interest {
                    let _ = self.poller.modify(conn.stream.as_raw_fd(), token, want);
                    conn.interest = want;
                }
            }
            for &token in &dead {
                self.close_conn(token);
            }

            if self.service.is_shutting_down() {
                // Never exit while a dispatched request is outstanding
                // (its response — possibly the shutdown ack itself — is
                // still owed), and never before the ack has flushed.
                let quiesced = self.conns.values().all(|c| c.outstanding() == 0);
                let ack_flushed = match ack_conn {
                    None => true, // externally initiated shutdown
                    Some(t) => self.conns.get(&t).is_none_or(|c| c.out.is_empty()),
                };
                if quiesced && ack_flushed {
                    // Blocking work is fine here: the loop is
                    // terminating and every remaining connection closes
                    // right after.
                    self.service.shutdown();
                    let open: Vec<usize> = self.conns.keys().copied().collect();
                    for token in open {
                        self.close_conn(token);
                    }
                    return;
                }
            }
        }
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue; // selector refused the fd: drop the socket
                    }
                    self.cfg.connections.inc();
                    self.cfg.active_connections.inc();
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Transient accept failures (ECONNABORTED, fd
                    // exhaustion) must not kill the loop.
                    eprintln!("{}: accept failed (retrying): {e}", self.cfg.name);
                    return;
                }
            }
        }
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.cfg.active_connections.dec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;
    use std::io::{BufRead, BufReader};
    use std::net::SocketAddr;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Condvar;

    /// Answers `ping`, acks `shutdown`, echoes the length of anything
    /// else. Its shutdown hook can be gated to stand in for a slow
    /// drain.
    #[derive(Default)]
    struct Stub {
        shutting_down: AtomicBool,
        gate_drain: bool,
        drain_released: std::sync::Mutex<bool>,
        drain_cv: Condvar,
        drained: AtomicBool,
    }

    impl Stub {
        fn release_drain(&self) {
            *self.drain_released.lock().unwrap() = true;
            self.drain_cv.notify_all();
        }
    }

    impl LineService for Stub {
        fn handle_line(&self, line: &str) -> (String, bool) {
            let op = Json::parse(line)
                .ok()
                .and_then(|v| v.get("op").and_then(Json::as_str).map(str::to_string));
            match op.as_deref() {
                Some("ping") => (r#"{"ok":true,"pong":true}"#.to_string(), true),
                Some("shutdown") => {
                    self.shutting_down.store(true, Ordering::Release);
                    (r#"{"ok":true,"shutdown":true}"#.to_string(), false)
                }
                _ => (format!(r#"{{"ok":true,"len":{}}}"#, line.len()), true),
            }
        }

        fn is_shutting_down(&self) -> bool {
            self.shutting_down.load(Ordering::Acquire)
        }

        fn shutdown(&self) {
            self.shutting_down.store(true, Ordering::Release);
            if self.gate_drain {
                let mut released = self.drain_released.lock().unwrap();
                while !*released {
                    released = self.drain_cv.wait(released).unwrap();
                }
            }
            self.drained.store(true, Ordering::Release);
        }
    }

    struct Running {
        stub: Arc<Stub>,
        server: LineServer,
        addr: SocketAddr,
        active: Arc<Gauge>,
    }

    impl Drop for Running {
        fn drop(&mut self) {
            self.stub.shutting_down.store(true, Ordering::Release);
            self.stub.release_drain();
            self.server.join();
        }
    }

    fn start(stub: Stub) -> Running {
        let stub = Arc::new(stub);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let active = Arc::new(Gauge::default());
        let server = serve_lines(
            Arc::clone(&stub),
            listener,
            LineServerConfig {
                name: "test-lines",
                workers: 2,
                max_output_buffer: 64 * 1024,
                connections: Arc::new(Counter::default()),
                active_connections: Arc::clone(&active),
            },
        )
        .unwrap();
        Running {
            stub,
            server,
            addr,
            active,
        }
    }

    fn read_json(reader: &mut impl BufRead) -> Json {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    fn is_pong(v: &Json) -> bool {
        v.get("pong").and_then(Json::as_bool) == Some(true)
    }

    /// A request split across writes (and read wakeups) reassembles,
    /// and a second pipelined line behind it is answered in order.
    #[test]
    fn partial_writes_reassemble_across_reads() {
        let srv = start(Stub::default());
        let mut stream = TcpStream::connect(srv.addr).unwrap();
        let req = format!(r#"{{"op":"echo","pad":"{}"}}"#, "y".repeat(300));
        let (head, tail) = req.split_at(req.len() / 2);
        stream.write_all(head.as_bytes()).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(60));
        stream.write_all(tail.as_bytes()).unwrap();
        stream.write_all(b"\n{\"op\":\"ping\"}\n").unwrap();
        let mut reader = BufReader::new(stream);
        let first = read_json(&mut reader);
        assert_eq!(
            first.get("len").and_then(Json::as_f64),
            Some(req.len() as f64),
            "split request must reassemble"
        );
        assert!(is_pong(&read_json(&mut reader)));
    }

    /// A peer dripping one byte at a time still gets its response:
    /// partial lines survive arbitrarily many selector wakeups.
    #[test]
    fn slow_loris_single_byte_writes_reassemble() {
        let srv = start(Stub::default());
        let mut stream = TcpStream::connect(srv.addr).unwrap();
        stream.set_nodelay(true).unwrap();
        for b in br#"{"op":"ping"}"#.iter().chain(b"\n") {
            stream.write_all(std::slice::from_ref(b)).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(is_pong(&read_json(&mut BufReader::new(stream))));
    }

    /// A line far larger than the read chunk spans many reads and is
    /// dispatched exactly once.
    #[test]
    fn giant_line_spanning_many_read_chunks() {
        let srv = start(Stub::default());
        let mut stream = TcpStream::connect(srv.addr).unwrap();
        let line = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(64 * 1024));
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut reader = BufReader::new(stream);
        assert!(is_pong(&read_json(&mut reader)));
        assert!(is_pong(&read_json(&mut reader)));
    }

    /// Two connections interleave partial writes; per-connection
    /// buffers never bleed into each other.
    #[test]
    fn interleaved_partial_writes_across_connections() {
        let srv = start(Stub::default());
        let mut a = TcpStream::connect(srv.addr).unwrap();
        let mut b = TcpStream::connect(srv.addr).unwrap();
        let req = r#"{"op":"echo","who":"a"}"#;
        let (head, tail) = req.split_at(req.len() / 2);
        a.write_all(head.as_bytes()).unwrap();
        b.write_all(br#"{"op":"pi"#).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        a.write_all(tail.as_bytes()).unwrap();
        a.write_all(b"\n").unwrap();
        b.write_all(b"ng\"}\n").unwrap();
        let la = read_json(&mut BufReader::new(a));
        let lb = read_json(&mut BufReader::new(b));
        assert_eq!(
            la.get("len").and_then(Json::as_f64),
            Some(req.len() as f64),
            "conn A's split line must reassemble"
        );
        assert!(is_pong(&lb), "conn B's split ping must reassemble");
    }

    /// Sockets dropped without any protocol goodbye release the
    /// `active_connections` gauge: the selector observes EOF/error.
    #[test]
    fn abruptly_dropped_sockets_release_the_gauge() {
        let srv = start(Stub::default());
        let mut streams = Vec::new();
        for _ in 0..8 {
            let mut s = TcpStream::connect(srv.addr).unwrap();
            s.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            assert!(is_pong(&read_json(&mut BufReader::new(
                s.try_clone().unwrap()
            ))));
            streams.push(s);
        }
        assert_eq!(srv.active.get(), 8);
        drop(streams);
        let deadline = Instant::now() + Duration::from_secs(5);
        while srv.active.get() != 0 {
            assert!(
                Instant::now() < deadline,
                "gauge stuck at {} after abrupt drops",
                srv.active.get()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The shutdown ack reaches the client before the service's drain
    /// hook runs: the hook blocks until the test has read the ack.
    #[test]
    fn shutdown_ack_arrives_before_drain() {
        let srv = start(Stub {
            gate_drain: true,
            ..Stub::default()
        });
        let mut stream = TcpStream::connect(srv.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let ack = read_json(&mut BufReader::new(stream.try_clone().unwrap()));
        assert_eq!(ack.get("shutdown").and_then(Json::as_bool), Some(true));
        assert!(
            !srv.stub.drained.load(Ordering::Acquire),
            "drain must wait for the ack"
        );
        srv.stub.release_drain();
        srv.server.join();
        assert!(srv.stub.drained.load(Ordering::Acquire));
        assert_eq!(srv.active.get(), 0, "every connection closes on exit");
    }
}
