//! The load generator: raw length-prefixed frames over loopback TCP,
//! at most two threads and two connections.

use crate::check::Ans;
use divr_service::json::{self, Value};
use divr_service::proto::{read_frame, write_frame};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

const MAX_RESPONSE: usize = 64 << 20;

/// One blocking connection.
pub struct Conn(TcpStream);

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn(stream))
    }

    pub fn call(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.0, payload)?;
        read_frame(&mut self.0, MAX_RESPONSE)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })
    }

    pub fn call_json(&mut self, payload: &[u8]) -> io::Result<Value> {
        let bytes = self.call(payload)?;
        parse(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    pub fn stats(&mut self) -> io::Result<Value> {
        self.call_json(br#"{"op":"stats"}"#)
    }

    pub fn ping(&mut self) -> io::Result<()> {
        let pong = self.call_json(br#"{"op":"ping"}"#)?;
        if pong.get("op").and_then(Value::as_str) == Some("pong") {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "ping not answered",
            ))
        }
    }
}

pub fn parse(bytes: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    json::parse(text).map_err(|e| e.to_string())
}

/// What the check of one response decided: `Ok(Some(answers))` keeps
/// the answers for a later comparison, `Ok(None)` keeps nothing.
pub type Checked = Result<Option<Vec<Ans>>, String>;

/// One completed frame.
pub struct Done {
    pub frame: usize,
    pub latency_us: f64,
    /// Completion time, in seconds since the loop started.
    pub at_s: f64,
    pub request_bytes: usize,
    pub checked: Checked,
}

pub struct LoopRun {
    pub done: Vec<Done>,
    /// How far behind its due time the open-loop generator sent each
    /// frame (empty for a closed loop).
    pub late_us: Vec<f64>,
    pub io_errors: Vec<String>,
    /// Window length, and the CPU time (clock ticks) the hypervisor
    /// stole from this machine during each window.
    pub window_s: f64,
    pub steal: Vec<f64>,
}

/// Splits `duration` into equal windows of about `window_s` seconds.
fn windows_of(duration: Duration, window_s: f64) -> (usize, f64) {
    let windows = ((duration.as_secs_f64() / window_s).round() as usize).max(1);
    (windows, duration.as_secs_f64() / windows as f64)
}

/// CPU time the hypervisor has taken from this machine so far: the
/// `steal` column of `/proc/stat`, in clock ticks (0 where unavailable).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Reads the steal counter at each window boundary, from whichever load
/// thread first passes it.
struct StealClock {
    width_s: f64,
    next: AtomicUsize,
    samples: Mutex<Vec<(usize, u64)>>,
}

impl StealClock {
    fn new(width_s: f64) -> StealClock {
        StealClock {
            width_s,
            next: AtomicUsize::new(1),
            samples: Mutex::new(vec![(0, steal_ticks())]),
        }
    }

    fn poll(&self, elapsed_s: f64) {
        let boundary = (elapsed_s / self.width_s) as usize;
        let next = self.next.load(Ordering::Relaxed);
        if boundary >= next
            && self
                .next
                .compare_exchange(next, boundary + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            let ticks = steal_ticks();
            self.samples
                .lock()
                .expect("steal samples are pushed without panicking")
                .push((boundary, ticks));
        }
    }

    /// Ticks stolen in each of `windows` windows; a window with no
    /// sample at its edge gets the average over the span that covers it.
    fn per_window(self, windows: usize) -> Vec<f64> {
        let mut samples = self
            .samples
            .into_inner()
            .expect("steal samples are pushed without panicking");
        // Two load threads may push their samples out of order.
        samples.sort_unstable_by_key(|&(boundary, _)| boundary);
        let last = samples.last().map_or(0, |&(b, _)| b);
        samples.push((windows.max(last + 1), steal_ticks()));
        (0..windows)
            .map(|w| {
                let lo = samples.iter().rev().find(|&&(b, _)| b <= w).copied();
                let hi = samples.iter().find(|&&(b, _)| b > w).copied();
                match (lo, hi) {
                    (Some((b0, t0)), Some((b1, t1))) => {
                        t1.saturating_sub(t0) as f64 / (b1 - b0) as f64
                    }
                    _ => 0.0,
                }
            })
            .collect()
    }
}

/// A closed loop on `conns` connections: each sends its next frame as
/// soon as the previous answer arrives, until `duration` has passed.
/// Frame indices come from one shared counter, so frame `i` has the
/// same content whichever connection sends it. Each response is checked
/// on the load thread after its latency is taken, so memory does not
/// grow with the number of frames.
pub fn closed_loop<C>(
    addr: SocketAddr,
    conns: usize,
    duration: Duration,
    window_s: f64,
    make: &(dyn Fn(usize) -> (Vec<u8>, C) + Sync),
    check: &(dyn Fn(usize, C, &[u8]) -> Checked + Sync),
) -> LoopRun {
    let (windows, width) = windows_of(duration, window_s);
    let clock = StealClock::new(width);
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_thread: Vec<(Vec<Done>, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let (next, clock) = (&next, &clock);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut conn = match Conn::connect(addr) {
                        Ok(c) => c,
                        Err(e) => return (done, Some(e.to_string())),
                    };
                    while started.elapsed() < duration {
                        let frame = next.fetch_add(1, Ordering::Relaxed);
                        let (payload, context) = make(frame);
                        let sent = Instant::now();
                        match conn.call(&payload) {
                            Ok(response) => {
                                let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                                let at_s = started.elapsed().as_secs_f64();
                                clock.poll(at_s);
                                done.push(Done {
                                    frame,
                                    latency_us,
                                    at_s,
                                    request_bytes: payload.len(),
                                    checked: check(frame, context, &response),
                                });
                            }
                            Err(e) => return (done, Some(format!("frame {frame}: {e}"))),
                        }
                    }
                    (done, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut done = Vec::new();
    let mut io_errors = Vec::new();
    for (d, err) in per_thread {
        done.extend(d);
        io_errors.extend(err);
    }
    done.sort_by_key(|d| d.frame);
    LoopRun {
        done,
        late_us: Vec::new(),
        io_errors,
        window_s: width,
        steal: clock.per_window(windows),
    }
}

/// An open loop on one pipelined connection: a sender thread writes
/// frame `i` at `start + i / rate` whether or not earlier answers have
/// come back, and this thread reads the answers in order. Latency is
/// timed from each frame's due time, so a stall also counts against
/// the frames queued behind it. One connection keeps the daemon's view
/// of reads and writes in schedule order, which makes every answer
/// reproducible.
pub fn open_loop(
    addr: SocketAddr,
    rate_hz: f64,
    frames: usize,
    duration: Duration,
    window_s: f64,
    make: &(dyn Fn(usize) -> Vec<u8> + Sync),
    check: &(dyn Fn(usize, &[u8]) -> Checked + Sync),
) -> LoopRun {
    let (windows, width) = windows_of(duration, window_s);
    let failed = |e: io::Error| LoopRun {
        done: Vec::new(),
        late_us: Vec::new(),
        io_errors: vec![e.to_string()],
        window_s: width,
        steal: vec![0.0; windows],
    };
    let mut io_errors = Vec::new();
    let stream = match TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|()| s)) {
        Ok(s) => s,
        Err(e) => return failed(e),
    };
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(e) => return failed(e),
    };
    let clock = StealClock::new(width);
    let started = Instant::now();
    let due = |i: usize| started + Duration::from_secs_f64(i as f64 / rate_hz);
    let (tx, rx) = mpsc::channel::<(usize, usize)>();
    let mut done = Vec::new();
    let (late_us, send_error) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut writer = stream;
            let mut late = Vec::new();
            for i in 0..frames {
                let at = due(i);
                if at.duration_since(started) >= duration {
                    break;
                }
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let payload = make(i);
                late.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e6);
                if let Err(e) = write_frame(&mut writer, &payload) {
                    return (late, Some(format!("frame {i}: {e}")));
                }
                if tx.send((i, payload.len())).is_err() {
                    break;
                }
            }
            (late, None)
        });
        for (i, request_bytes) in rx {
            match read_frame(&mut reader, MAX_RESPONSE) {
                Ok(Some(response)) => {
                    let now = Instant::now();
                    let at_s = now.duration_since(started).as_secs_f64();
                    clock.poll(at_s);
                    done.push(Done {
                        frame: i,
                        latency_us: now.saturating_duration_since(due(i)).as_secs_f64() * 1e6,
                        at_s,
                        request_bytes,
                        checked: check(i, &response),
                    });
                }
                Ok(None) => {
                    io_errors.push(format!("frame {i}: daemon closed the connection"));
                    break;
                }
                Err(e) => {
                    io_errors.push(format!("frame {i}: {e}"));
                    break;
                }
            }
        }
        // Unblocks a sender still writing into a socket nobody reads.
        let _ = reader.shutdown(std::net::Shutdown::Both);
        sender.join().expect("sender thread panicked")
    });
    io_errors.extend(send_error);
    LoopRun {
        done,
        late_us,
        io_errors,
        window_s: width,
        steal: clock.per_window(windows),
    }
}

/// A counter from a `stats` frame, by path below `"stats"`.
pub fn counter(stats: &Value, path: &[&str]) -> i64 {
    let mut cur = stats.get("stats").unwrap_or(&Value::Null);
    for key in path {
        cur = cur.get(key).unwrap_or(&Value::Null);
    }
    cur.as_i64().unwrap_or(0)
}

/// Daemon-health checks over the timed window (`before` is read after
/// set-up, `after` when the window closes). Timings are never taken
/// from the daemon's histograms: they are power-of-two bucketed and
/// record one batch time under every objective.
pub fn health(
    before: &Value,
    after: &Value,
    expect_no_misses: bool,
    writes: Option<u64>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let delta = |path: &[&str]| counter(after, path) - counter(before, path);
    for path in [
        &["admission", "rejected_qps"][..],
        &["admission", "rejected_cache"],
        &["admission", "rejected_queue"],
        &["admission", "degraded"],
        &["robustness", "deadline_exceeded"],
        &["robustness", "draining_refused"],
        &["durability", "wal_io_errors"],
    ] {
        let d = delta(path);
        if d != 0 {
            problems.push(format!("daemon counter {} = {d} (want 0)", path.join(".")));
        }
    }
    if expect_no_misses && delta(&["cache", "misses"]) != 0 {
        problems.push(format!(
            "cache.misses after set-up = {} (want 0)",
            delta(&["cache", "misses"])
        ));
    }
    if let Some(writes) = writes {
        let records = delta(&["durability", "wal_records"]);
        if records != writes as i64 {
            problems.push(format!(
                "persist.wal_records = {records}, writes sent = {writes}"
            ));
        }
    }
    problems
}
