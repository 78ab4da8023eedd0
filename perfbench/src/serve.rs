//! `serve-3d-local`: an in-process daemon driven over loopback by one
//! client thread on two keep-alive pipelined connections.

use crate::common::{check_path, quantile, scaled_rate, Checks, Chunk, Router, Speed};
use crate::sys;
use oblivion_core::PathQuery;
use oblivion_core::{ObliviousRouter, RoutedPath};
use oblivion_mesh::{Coord, Mesh};
use oblivion_serve::wire::{format_coord, format_path_line_with_id};
use oblivion_serve::{Control, ServeConfig, ServeSummary};
use rand::rngs::StdRng;
use rand::RngCore;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Connections the client keeps open (at most `nproc` = 2).
pub const CONNS: usize = 2;
/// Lines in flight per connection in the closed loop: about 27 ms of
/// worker time on both. A client slow to wake never starves the worker,
/// and a stall while the host takes the worker's core away delays every
/// line in flight alike (see README).
pub const DEPTH: usize = 2048;
/// An open-loop line sent later than this after its scheduled time
/// counts as late.
const LATE: Duration = Duration::from_micros(200);
/// Bytes the closed loop reads at a time: about 28 replies on this
/// workload, so each read's kernel stamp is close to every reply it ends.
const READ: usize = 2048;

/// One request line and the exact reply it must get.
pub struct Line {
    /// Request bytes, LF included.
    pub request: Vec<u8>,
    /// Expected reply bytes, LF included.
    pub reply: Vec<u8>,
}

/// Encodes queries as `PATH <seed> <src> <dst> id=q<i>` lines and
/// computes each expected reply in process with `select_path`, checking
/// each expected path against the paper's guarantees.
pub fn lines(router: &Router, queries: &[PathQuery], checks: &mut Checks) -> Vec<Line> {
    let r = router.dynamic();
    let dim = r.mesh().dim();
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let id = format!("q{i}");
            let mut rng = StdRng::seed_from_u64(q.seed);
            let routed = r.select_path(&q.src, &q.dst, &mut rng);
            if let Err(e) = check_path(router, q, &routed) {
                checks.broken(format!("expected reply to line {i}: {e}"));
            }
            Line {
                request: format!(
                    "PATH {} {} {} id={id}\n",
                    q.seed,
                    format_coord(&q.src, dim),
                    format_coord(&q.dst, dim)
                )
                .into_bytes(),
                reply: format_path_line_with_id(&routed.path, dim, Some(&id)).into_bytes(),
            }
        })
        .collect()
}

/// The router handed to the daemon: the router under test, with the
/// host-speed kernel run on the worker thread at most every 5 ms, between
/// bursts, so goodput can be scaled by the speed of the core that served
/// it. The kernel takes a fixed share of worker time (about 2%), whatever
/// the router's own speed. On its first burst it pins the worker to the
/// first core of [`sys::serve_cores`].
pub struct SpeedRouter<'a> {
    inner: &'a dyn ObliviousRouter,
    meter: Mutex<(Instant, Speed)>,
    pinned: AtomicBool,
}

impl<'a> SpeedRouter<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn ObliviousRouter) -> Self {
        Self {
            inner,
            meter: Mutex::new((Instant::now(), Speed::default())),
            pinned: AtomicBool::new(false),
        }
    }

    /// The speed measured since the last call.
    pub fn take(&self) -> Speed {
        std::mem::take(&mut self.meter.lock().expect("speed meter poisoned").1)
    }
}

impl ObliviousRouter for SpeedRouter<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn mesh(&self) -> &Mesh {
        self.inner.mesh()
    }
    fn state_bytes(&self) -> u64 {
        self.inner.state_bytes()
    }
    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        self.inner.select_path(s, t, rng)
    }
    fn route_batch(&self, queries: &[PathQuery], out: &mut Vec<RoutedPath>) {
        if !self.pinned.swap(true, Ordering::Relaxed) {
            if let Some((worker, _)) = sys::serve_cores() {
                sys::pin(worker);
            }
        }
        {
            let mut m = self.meter.lock().expect("speed meter poisoned");
            if m.0.elapsed() >= Duration::from_millis(5) {
                m.1.run(20);
                m.0 = Instant::now();
            }
        }
        self.inner.route_batch(queries, out);
    }
}

/// Runs the daemon for `router` on a scoped thread, hands its address to
/// `client`, then shuts it down and returns the client's value with the
/// drained summary.
pub fn with_server<T>(
    router: &dyn ObliviousRouter,
    client: impl FnOnce(std::net::SocketAddr) -> T,
) -> std::io::Result<(T, ServeSummary)> {
    // One request worker (see README), no health listener.
    let cfg = ServeConfig {
        threads: 1,
        health_port: None,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|s| {
        let server = s.spawn(|| oblivion_serve::run(router, &cfg, &ctl));
        let Some(addr) = ctl.wait_addr(Duration::from_secs(10)) else {
            ctl.request_shutdown();
            let _ = server.join();
            return Err(std::io::Error::other("server did not bind"));
        };
        let value = client(addr);
        ctl.request_shutdown();
        let summary = server
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))??;
        Ok((value, summary))
    })
}

/// A client connection: socket, unparsed reply bytes, and the in-order
/// queue of `(line index, time the line counts from)` awaiting replies.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    outstanding: VecDeque<(usize, Instant)>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            outstanding: VecDeque::new(),
        })
    }

    /// Takes every complete reply off the read buffer, checking each
    /// against its expected bytes; calls `done(sent_at)` per reply.
    fn replies(&mut self, lines: &[Line], checks: &mut Checks, mut done: impl FnMut(Instant)) {
        let mut start = 0;
        while let Some(nl) = self.rbuf[start..].iter().position(|&b| b == b'\n') {
            let reply = &self.rbuf[start..start + nl + 1];
            start += nl + 1;
            match self.outstanding.pop_front() {
                Some((idx, at)) => {
                    if reply != lines[idx].reply.as_slice() {
                        checks.fail(format!(
                            "reply to line {idx} differs: {}",
                            String::from_utf8_lossy(&reply[..reply.len().min(80)])
                        ));
                    }
                    done(at);
                }
                None => checks.broken("reply with no request outstanding".into()),
            }
        }
        self.rbuf.drain(..start);
    }

    /// Reads what the socket has; `false` on EOF or error.
    fn fill(&mut self) -> bool {
        let mut buf = [0u8; 65536];
        match self.stream.read(&mut buf) {
            Ok(0) => false,
            Ok(n) => {
                self.rbuf.extend_from_slice(&buf[..n]);
                true
            }
            Err(e) => matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        }
    }

    /// Writes what the socket accepts of the write buffer.
    fn flush(&mut self) -> bool {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return false,
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(_) => return false,
            }
        }
        true
    }
}

/// Closed-loop result.
pub struct ClosedLoop {
    /// Replies per second at the reference host speed: median over
    /// windows of the phase.
    pub goodput: f64,
    /// Replies per second of wall time, unscaled.
    pub wall_goodput: f64,
    /// Per window: p50, p90 and p99 of the microseconds from a line's send
    /// to its reply, scaled by the window's host speed to the reference
    /// speed. Windows keep memory flat whatever the goodput.
    pub latency_us: Vec<[f64; 3]>,
    /// `(sent, received)` per reply, when spans were asked for.
    pub spans: Vec<(Instant, Instant)>,
    /// Share of replies timed by a kernel receive timestamp rather than
    /// by the read that took them.
    pub stamped_frac: f64,
    /// Share of the phase the host took the worker's core away.
    pub steal_frac: f64,
}

/// Phase A: every connection keeps `DEPTH` lines in flight for `budget`;
/// a reply frees a slot for the next line. Lines cycle through `lines`
/// starting at `*next`. Each window's figures are scaled by the speed
/// `meter` saw on the worker to `reference` speed.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: std::net::SocketAddr,
    lines: &[Line],
    next: &mut usize,
    budget: Duration,
    meter: &SpeedRouter,
    reference: f64,
    spans: bool,
    checks: &mut Checks,
) -> std::io::Result<ClosedLoop> {
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()?;
    for c in &conns {
        c.stream.set_nonblocking(true)?;
        sys::stamp_arrivals(c.stream.as_raw_fd())?;
    }
    // The client sleeps in `poll` between replies, on a core of its own:
    // unpinned, it would be woken onto the worker's core (see `sys`).
    let cores = sys::serve_cores();
    let restore = cores.and_then(|(_, client)| sys::pin(client));
    let worker_cpu = cores.map(|(worker, _)| worker);
    let result = closed_loop_on(
        &mut conns, lines, next, budget, meter, worker_cpu, reference, spans, checks,
    );
    if let Some(old) = restore {
        sys::set_mask(&old);
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn closed_loop_on(
    conns: &mut [Conn],
    lines: &[Line],
    next: &mut usize,
    budget: Duration,
    meter: &SpeedRouter,
    worker_cpu: Option<usize>,
    reference: f64,
    spans: bool,
    checks: &mut Checks,
) -> std::io::Result<ClosedLoop> {
    let started = Instant::now();
    let end = started + budget;
    let window = budget / 32;
    let mut windows: Vec<Chunk> = Vec::new();
    let mut window_start = started;
    let mut replies = 0u64;
    meter.take();
    let mut out = ClosedLoop {
        goodput: 0.0,
        wall_goodput: 0.0,
        latency_us: Vec::new(),
        spans: Vec::new(),
        stamped_frac: 0.0,
        steal_frac: 0.0,
    };
    // Time the host takes the worker's core away counts as a slower host:
    // each window's kernel speed is scaled by the share of it the core ran.
    let stolen = || worker_cpu.and_then(sys::steal_secs).unwrap_or(0.0);
    let mut stolen_at = stolen();
    let mut stolen_sum = 0.0;
    // Kernel stamps are wall-clock times; this pair maps them onto `Instant`.
    let epoch = (
        Instant::now(),
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default(),
    );
    let arrival = |stamp: Option<Duration>| match stamp {
        Some(t) if t >= epoch.1 => epoch.0.checked_add(t - epoch.1),
        Some(t) => epoch.0.checked_sub(epoch.1 - t),
        None => None,
    };
    let (mut stamped, mut total) = (0u64, 0u64);
    let mut chunk = [0u8; READ];
    // Reserved once, so memory grows with the pages a window touches, not
    // in doubling steps that would move peak RSS with goodput.
    let mut window_us: Vec<f64> = Vec::with_capacity(1 << 20);
    let send = |c: &mut Conn, n: usize, next: &mut usize, checks: &mut Checks| {
        for _ in 0..n {
            let idx = *next % lines.len();
            *next += 1;
            c.wbuf.extend_from_slice(&lines[idx].request);
            c.outstanding.push_back((idx, Instant::now()));
            checks.attempted += 1;
        }
    };
    for c in conns.iter_mut() {
        send(c, DEPTH, next, checks);
        c.flush();
    }
    let mut sending = true;
    loop {
        let now = Instant::now();
        if sending && (now >= end || now - window_start >= window) {
            let secs = (now - window_start).as_secs_f64();
            let stolen_now = stolen();
            let steal = (stolen_now - stolen_at).clamp(0.0, 0.9 * secs);
            stolen_sum += steal;
            stolen_at = stolen_now;
            let speed = meter.take().rate() * (1.0 - steal / secs);
            windows.push(Chunk {
                ops: replies as f64,
                secs,
                speed,
            });
            let scale = speed / reference;
            let q = |q: f64| quantile(&window_us, q) * scale;
            out.latency_us.push([q(0.5), q(0.9), q(0.99)]);
            window_us.clear();
            window_start = now;
            replies = 0;
            sending = now < end;
        }
        if !sending && conns.iter().all(|c| c.outstanding.is_empty()) {
            break;
        }
        let mut progressed = false;
        for c in conns.iter_mut() {
            if c.outstanding.is_empty() {
                continue;
            }
            // Small reads, so each stamp is close to the replies it ends.
            let mut got = 0;
            loop {
                let (n, stamp) = match sys::recv_stamped(c.stream.as_raw_fd(), &mut chunk) {
                    Ok((0, _)) => {
                        checks.broken("server closed a connection".into());
                        return Ok(out);
                    }
                    Ok(read) => read,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        checks.broken("read from server failed".into());
                        return Ok(out);
                    }
                };
                c.rbuf.extend_from_slice(&chunk[..n]);
                let read_at = Instant::now();
                let recv = arrival(stamp).map_or(read_at, |t| t.min(read_at));
                c.replies(lines, checks, |at| {
                    got += 1;
                    total += 1;
                    stamped += stamp.is_some() as u64;
                    if sending {
                        window_us.push(recv.saturating_duration_since(at).as_secs_f64() * 1e6);
                    }
                    if spans {
                        out.spans.push((at, recv));
                    }
                });
            }
            progressed |= got > 0;
            if sending {
                replies += got as u64;
                send(c, got, next, checks);
            }
            if !c.flush() {
                checks.broken("write to server failed".into());
                return Ok(out);
            }
        }
        if !progressed {
            if Instant::now() > end + Duration::from_secs(5) {
                checks.broken("replies missing after the closed loop".into());
                break;
            }
            let fds: Vec<_> = conns
                .iter()
                .filter(|c| !c.outstanding.is_empty())
                .map(|c| (c.stream.as_raw_fd(), !c.wbuf.is_empty()))
                .collect();
            sys::wait(&fds, 1);
        }
    }
    let ops: f64 = windows.iter().map(|w| w.ops).sum();
    let secs: f64 = windows.iter().map(|w| w.secs).sum();
    out.goodput = scaled_rate(&windows, reference);
    out.wall_goodput = ops / secs.max(1e-12);
    out.stamped_frac = stamped as f64 / total.max(1) as f64;
    out.steal_frac = stolen_sum / secs.max(1e-12);
    Ok(out)
}

/// Open-loop result.
pub struct OpenLoop {
    /// Microseconds from each line's scheduled send time to its reply.
    pub latency_us: Vec<f64>,
    /// Share of lines sent more than 200 µs after their scheduled time.
    pub late_frac: f64,
}

/// Phase B: lines are due at a fixed `rate` (lines/s, alternating
/// connections) for `budget`, whatever the replies do; each latency is
/// timed from the line's scheduled send time.
pub fn open_loop(
    addr: std::net::SocketAddr,
    lines: &[Line],
    next: &mut usize,
    budget: Duration,
    rate: f64,
    checks: &mut Checks,
) -> std::io::Result<OpenLoop> {
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|_| Conn::open(addr))
        .collect::<Result<_, _>>()?;
    for c in &conns {
        c.stream.set_nonblocking(true)?;
    }
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let total = (budget.as_secs_f64() * rate) as u64;
    let mut k = 0u64;
    let mut late = 0u64;
    let mut latency_us = Vec::with_capacity(total as usize);
    let give_up = start + budget + Duration::from_secs(5);
    loop {
        let now = Instant::now();
        while k < total {
            let due = start + interval.mul_f64(k as f64);
            if due > now {
                break;
            }
            let c = &mut conns[(k % CONNS as u64) as usize];
            let idx = *next % lines.len();
            *next += 1;
            c.wbuf.extend_from_slice(&lines[idx].request);
            c.outstanding.push_back((idx, due));
            checks.attempted += 1;
            if now - due > LATE {
                late += 1;
            }
            k += 1;
        }
        let mut progressed = false;
        for c in &mut conns {
            if !c.flush() || !c.fill() {
                checks.broken("open-loop connection failed".into());
                return Ok(OpenLoop {
                    latency_us,
                    late_frac: 1.0,
                });
            }
            let recv = Instant::now();
            c.replies(lines, checks, |due| {
                progressed = true;
                latency_us.push((recv - due).as_secs_f64() * 1e6);
            });
        }
        if k >= total && conns.iter().all(|c| c.outstanding.is_empty()) {
            break;
        }
        if Instant::now() > give_up {
            checks.broken("replies missing after the open loop".into());
            break;
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    Ok(OpenLoop {
        latency_us,
        late_frac: late as f64 / total.max(1) as f64,
    })
}

/// Whole-run checks on the drained summary: conservation, and no line
/// malformed, shed or expired.
pub fn check_summary(s: &ServeSummary, sent: u64, checks: &mut Checks) {
    let st = &s.stats;
    if !st.conserved() {
        checks.broken(format!(
            "accepted {} != settled {}",
            st.accepted,
            st.settled()
        ));
    }
    if st.completed != sent {
        checks.broken(format!("server completed {} of {sent} lines", st.completed));
    }
    let errors = st.bad_request + st.shed_overloaded + st.deadline_exceeded + st.io_errors;
    if errors > 0 {
        checks.broken(format!(
            "malformed {} shed {} deadline {} io {}",
            st.bad_request, st.shed_overloaded, st.deadline_exceeded, st.io_errors
        ));
    }
}
