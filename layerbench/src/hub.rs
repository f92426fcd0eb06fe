//! The release `nvc hub` as an OS process, and the closed-loop clients
//! that drive it over loopback TCP.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nvc_serve::Json;

use crate::inputs::Inputs;
use crate::stats::{host_cpu_ticks, steal_share};

/// Environment knobs that would change what the hub runs; the benchmark
/// measures the defaults, so none leaks in from the caller.
pub const SCRUBBED_ENV: [&str; 7] = [
    "NVC_TRACE",
    "NVC_OPS",
    "NVC_KERNEL_MODE",
    "NVC_MATMUL_THREADS",
    "NVC_MATMUL_POOL",
    "NVC_MATMUL_GRAIN",
    "NVC_PIN_WORKERS",
];

/// A running `nvc hub` serving one checkpoint as model `prod`.
pub struct HubProc {
    child: Child,
    stderr: Option<JoinHandle<Vec<String>>>,
    pub addr: String,
    /// Spawn → first successful `ping`: checkpoint load, bind, accept.
    pub setup_s: f64,
}

impl HubProc {
    /// Spawns the hub and waits for its first `ping` reply. `ops` turns
    /// the kernel op timers on (`NVC_OPS=1`).
    pub fn spawn(nvc: &Path, checkpoint: &Path, ops: bool) -> Result<HubProc, String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(nvc);
        cmd.arg("hub")
            .arg("--model")
            .arg(format!("prod={}", checkpoint.display()))
            .args(["--listen", "127.0.0.1:0"])
            // The hub shuts down cleanly on stdin EOF, so it cannot
            // outlive the benchmark.
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for var in SCRUBBED_ENV {
            cmd.env_remove(var);
        }
        if ops {
            cmd.env("NVC_OPS", "1");
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn nvc hub: {e}"))?;
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let mut addr = None;
        let mut log = Vec::new();
        for line in lines.by_ref() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
            log.push(line);
        }
        // Keep draining stderr so the hub never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            log.extend(lines.map_while(Result::ok));
            log
        });
        let mut hub = HubProc {
            child,
            stderr: Some(stderr),
            addr: String::new(),
            setup_s: 0.0,
        };
        let Some(addr) = addr else {
            let log = hub.stop();
            return Err(format!("nvc hub did not start:\n{}", log.join("\n")));
        };
        hub.addr = addr;
        let mut conn = Conn::open(&hub.addr)?;
        let pong = conn.call(r#"{"op":"ping"}"#)?;
        if !pong.contains("\"pong\":true") {
            return Err(format!("unexpected ping reply: {pong}"));
        }
        hub.setup_s = t0.elapsed().as_secs_f64();
        Ok(hub)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The hub's `stats` object.
    pub fn stats(&self) -> Result<Json, String> {
        let reply = Conn::open(&self.addr)?.call(r#"{"op":"stats"}"#)?;
        let v = Json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
        v.get("stats")
            .cloned()
            .ok_or_else(|| "no stats".to_string())
    }

    /// User + system CPU seconds the hub has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("/proc stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in clock ticks
        // (USER_HZ, 100 on Linux).
        let rest = stat.rsplit_once(')').ok_or("bad /proc stat")?.1;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
        Ok((tick(11) + tick(12)) / 100.0)
    }

    /// Sends `shutdown`, waits for exit and returns the hub's log.
    pub fn stop(&mut self) -> Vec<String> {
        if let Ok(mut conn) = Conn::open(&self.addr) {
            let _ = conn.call(r#"{"op":"shutdown"}"#);
        }
        // Closing stdin is the hub's second shutdown path.
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for HubProc {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            self.stop();
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM".to_string())
}

/// One client connection speaking JSON lines.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // Without NODELAY, Nagle holds each small request back ~40 ms.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
        })
    }

    /// Sends one line and reads the full reply line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer
            .write_all(&out)
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => {
                reply.truncate(reply.trim_end().len());
                Ok(reply)
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// One request as the client saw it.
pub struct Sample {
    /// Index into the workload sequence.
    pub idx: usize,
    /// Send time, relative to the start of the run.
    pub sent: Duration,
    /// Send → full reply line.
    pub rtt: Duration,
    /// The reply, or why there was none.
    pub reply: Result<String, String>,
}

/// [`host_cpu_ticks`] sampled through a run, with the time since its
/// start, every [`STEAL_SAMPLE`].
pub type StealTrace = Vec<(Duration, (u64, u64))>;

/// How often a run samples the host's steal counter.
const STEAL_SAMPLE: Duration = Duration::from_millis(100);

/// A closed-loop run: `clients` connections, each sending its next
/// request only after the previous reply arrived, taking requests in
/// sequence order from one shared counter until `run` has elapsed or
/// the sequence is exhausted. `on_reply` sees the sequence index of
/// every reply as it arrives. A sampler thread records the host's steal
/// counter alongside, so slices of the run can be told apart by how
/// much CPU the hypervisor took.
pub fn closed_loop(
    addr: &str,
    inputs: &Inputs,
    clients: usize,
    run: Duration,
    on_reply: impl Fn(usize) + Sync,
) -> (Vec<Sample>, StealTrace) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let (per_client, trace): (Vec<Vec<Sample>>, StealTrace) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut trace = Vec::new();
            loop {
                let ticks = host_cpu_ticks();
                let t = start.elapsed();
                trace.push((t, ticks));
                if t >= run {
                    return trace;
                }
                std::thread::sleep(STEAL_SAMPLE.min(run - t));
            }
        });
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (next, on_reply) = (&next, &on_reply);
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut conn = Conn::open(addr);
                    loop {
                        let sent = start.elapsed();
                        if sent >= run {
                            break;
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= inputs.sequence.len() {
                            break;
                        }
                        let t = Instant::now();
                        let reply = match &mut conn {
                            Ok(c) => c.call(inputs.line(idx)),
                            Err(e) => Err(e.clone()),
                        };
                        if reply.is_err() {
                            // A broken connection is reopened for the
                            // next request; this one counts as failed.
                            conn = Conn::open(addr);
                        }
                        on_reply(idx);
                        out.push(Sample {
                            idx,
                            sent,
                            rtt: t.elapsed(),
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        let samples = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (samples, sampler.join().expect("steal sampler"))
    });
    let mut all: Vec<Sample> = per_client.into_iter().flatten().collect();
    all.sort_by_key(|s| s.idx);
    (all, trace)
}

/// Share of host CPU time stolen between `from` and `to` of a run.
pub fn steal_between(trace: &StealTrace, from: Duration, to: Duration) -> f64 {
    let before = trace.iter().rev().find(|s| s.0 <= from).or(trace.first());
    let after = trace.iter().find(|s| s.0 >= to).or(trace.last());
    match (before, after) {
        (Some(a), Some(b)) => steal_share(a.1, b.1),
        _ => 0.0,
    }
}
