//! The companion load generator: closed-loop concurrent clients with
//! retry + capped exponential backoff, and a latency/throughput report.
//!
//! Every request is attempted up to `retries + 1` times; transport
//! errors and retryable wire errors (`OVERLOADED`, `DEADLINE_EXCEEDED`,
//! `SHUTTING_DOWN`) back off `base * 2^attempt` capped at `cap` and try
//! again — which is exactly what lets the chaos scenario kill -9 the
//! server mid-load, restart it, and still finish with every request
//! answered and zero malformed responses. `BAD_REQUEST` and malformed
//! responses are never retried: the former is a client bug, the latter
//! a server bug, and hiding either behind a retry would defeat the gate.
//!
//! Two workers, one reply path. Every reply is framed by the crate's one
//! line reader and judged by its one classifier
//! (`classify_path_reply`): echoed ID, endpoints, mesh-adjacent hops.
//! One tally books each attempt's outcome in the report's counters. The
//! workers differ only in how requests reach the wire:
//! - per-request (the default, and the worker for `open_loop` and
//!   `hedge_after`): every attempt opens a fresh connection, writes one
//!   line and reads one reply; an armed hedge races a second connection;
//! - pipelined (`keep_alive`, or `pipeline > 1`): one persistent
//!   connection per thread, up to `pipeline` request lines written as a
//!   single burst before any reply is read. Replies are consumed in
//!   order and every echoed ID is verified, so a desynchronized stream
//!   lands in the `malformed` bucket and fails the run. A transport
//!   error or a malformed reply mid-window drops the connection, counts
//!   every unanswered request as `transport`, reconnects, and
//!   re-enqueues what the retry budget allows.
//!
//! **Open loop vs closed loop.** By default both workers are
//! closed-loop: a thread has one request (or one window) in flight, and
//! latency runs from the start of the attempt that succeeded. A slow
//! reply delays the *next* request, so the measured tail hides exactly
//! the stalls it should expose (coordinated omission). With `open_loop`
//! the per-request worker schedules arrival `i` at `start + i/rate` and
//! charges every microsecond from the *scheduled* arrival — queue time
//! behind a straggler, retries, hedges — to that request's latency, so
//! p99/p999 are the tails a real open client population would see. When
//! every worker is busy the launch happens late and is counted in
//! `late_launches`; the wait is still charged to latency.
//!
//! **Multi-tenant mix.** With a non-empty `tenants` list each request
//! is deterministically assigned a mesh id by weight (a pure function
//! of `(seed, request id)`, so reruns and retries land on the same
//! tenant) and sent with the `MESH <id> ` wire prefix; the report then
//! carries a per-tenant partition of successes, failures, sheds, and
//! latency quantiles — which is how the tenant-isolation experiment
//! shows one tenant's overload shedding only that tenant's traffic. An
//! empty list sends bare lines, byte-identical to the single-tenant
//! generator.
//!
//! **Hedged requests.** With `hedge_after`, an attempt that has been
//! quiet past the stall threshold fires a *duplicate* attempt on a
//! second connection (a distinct trace ID, `<id>h`). The first full
//! reply wins; the loser's connection is dropped unread and counted in
//! `hedge_wasted` — server-side its line settles as an io error (or a
//! completion whose bytes land in a closed socket), so the server's
//! conservation law balances on every scrape despite the duplicates.

use crate::client::{
    classify_path_reply, path_request_line, transport, ClientError, PipelinedConn,
};
use crate::wire::ErrorKind;
use oblivion_mesh::{Coord, Mesh};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::ErrorKind as IoKind;
use std::net::{SocketAddr, ToSocketAddrs as _};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:4701`.
    pub addr: String,
    /// The mesh requests are drawn on (must match the server's).
    pub mesh: Mesh,
    /// Total requests to complete.
    pub requests: usize,
    /// Concurrent client threads (closed loop: each thread has at most
    /// one request in flight).
    pub concurrency: usize,
    /// Retries per request after the first attempt.
    pub retries: u32,
    /// Base backoff delay.
    pub backoff: Duration,
    /// Backoff cap.
    pub backoff_cap: Duration,
    /// Per-attempt socket budget (connect + write + read).
    pub timeout: Duration,
    /// Seed for the request stream (src/dst pairs and path seeds).
    pub seed: u64,
    /// Reuse one connection per thread instead of one per request.
    pub keep_alive: bool,
    /// Request lines in flight per connection before any reply is read
    /// (`>= 1`; values above 1 imply keep-alive).
    pub pipeline: usize,
    /// Open-loop mode: launch request `i` at `start + i/rate` no matter
    /// how slow earlier requests are, and measure latency from the
    /// *scheduled* arrival (coordinated-omission-corrected tails).
    pub open_loop: bool,
    /// Target arrival rate in requests/second (open-loop mode only;
    /// must be positive there).
    pub rate: f64,
    /// Hedging policy: fire a duplicate attempt on a second connection
    /// once the primary has been quiet this long. Incompatible with the
    /// keep-alive/pipelined transports.
    pub hedge_after: Option<HedgeAfter>,
    /// Weighted tenant mix: `(mesh id, weight)` pairs. Empty means no
    /// `MESH` prefix (the single-tenant wire); one entry pins every
    /// request to that mesh; several entries split the stream
    /// deterministically in proportion to the weights.
    pub tenants: Vec<(String, f64)>,
}

/// When a stalled attempt fires its hedge (the duplicate request).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HedgeAfter {
    /// Hedge once the attempt exceeds the running p99 of this worker's
    /// own completed requests (armed only after a small warmup, so the
    /// estimate is never built on noise).
    P99,
    /// Hedge after a fixed stall threshold.
    After(Duration),
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            mesh: Mesh::new_mesh(&[16, 16]),
            requests: 200,
            concurrency: 8,
            retries: 8,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            timeout: Duration::from_millis(2000),
            seed: 42,
            keep_alive: false,
            pipeline: 1,
            open_loop: false,
            rate: 0.0,
            hedge_after: None,
            tenants: Vec::new(),
        }
    }
}

/// Aggregated outcome of a load-generation run.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests that eventually succeeded.
    pub ok: u64,
    /// Requests that exhausted their retry budget.
    pub failed: u64,
    /// Responses that violated the protocol (must be zero).
    pub malformed: u64,
    /// `BAD_REQUEST` answers (must be zero for a correct client).
    pub bad_request: u64,
    /// Retries performed across all requests.
    pub retries: u64,
    /// `OVERLOADED` rejections observed (before retry).
    pub overloaded: u64,
    /// `DEADLINE_EXCEEDED` answers observed.
    pub deadline: u64,
    /// `SHUTTING_DOWN` answers observed.
    pub shutting_down: u64,
    /// Transport-level failures observed (refused, reset, timeout).
    pub transport: u64,
    /// `UNKNOWN_MESH` answers observed (mesh id not registered yet —
    /// retryable, since an `ADMIN ADD` may be in flight).
    pub unknown_mesh: u64,
    /// `MESH_RETIRED` answers observed (the tenant was retired
    /// mid-stream — retryable against a replacement mesh).
    pub mesh_retired: u64,
    /// Hedge attempts fired (duplicate requests on a second connection).
    pub hedge_launched: u64,
    /// Hedged pairs where the duplicate answered first.
    pub hedge_won: u64,
    /// Cancelled duplicates: every resolved hedged pair abandons its
    /// loser unread and counts it here (the server settles that line on
    /// its own ledger, so both sides stay conserved).
    pub hedge_wasted: u64,
    /// Open-loop launches that started after their scheduled arrival
    /// (all workers were busy); the wait is charged to latency.
    pub late_launches: u64,
    /// Per-success latency samples in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-tenant partition of the run, keyed by mesh id (empty unless
    /// the config carries a tenant mix).
    pub tenants: std::collections::BTreeMap<String, TenantLoad>,
}

/// One tenant's slice of a multi-tenant run: its own success/failure
/// counts, shed observations, and latency samples — the evidence the
/// isolation experiment needs to show tenant B's tail unmoved while
/// tenant A sheds.
#[derive(Debug, Clone, Default)]
pub struct TenantLoad {
    /// Requests on this tenant that eventually succeeded.
    pub ok: u64,
    /// Requests on this tenant that exhausted their retry budget.
    pub failed: u64,
    /// `OVERLOADED` answers observed on this tenant's requests.
    pub overloaded: u64,
    /// Success latencies in microseconds, sorted ascending in the
    /// final report.
    pub latencies_us: Vec<u64>,
}

impl TenantLoad {
    /// The `q` quantile (0..=1) of this tenant's success latencies, ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let idx = ((self.latencies_us.len() - 1) as f64 * q).round() as usize;
        self.latencies_us[idx] as f64 / 1e3
    }

    fn merge(&mut self, other: TenantLoad) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.overloaded += other.overloaded;
        self.latencies_us.extend(other.latencies_us);
    }
}

impl LoadgenReport {
    /// The `q` quantile (0..=1) of the success latencies, in ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let idx = ((self.latencies_us.len() - 1) as f64 * q).round() as usize;
        self.latencies_us[idx] as f64 / 1e3
    }

    /// Successful requests per second.
    pub fn goodput(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Attempts that were answered `OVERLOADED`, as a fraction of all
    /// attempts.
    pub fn shed_rate(&self) -> f64 {
        let attempts = self.ok + self.failed + self.retries;
        self.overloaded as f64 / (attempts as f64).max(1.0)
    }

    /// Folds a worker-local report into this one (latencies unsorted;
    /// the caller sorts once at the end).
    pub fn merge(&mut self, other: LoadgenReport) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.malformed += other.malformed;
        self.bad_request += other.bad_request;
        self.retries += other.retries;
        self.overloaded += other.overloaded;
        self.deadline += other.deadline;
        self.shutting_down += other.shutting_down;
        self.transport += other.transport;
        self.unknown_mesh += other.unknown_mesh;
        self.mesh_retired += other.mesh_retired;
        self.hedge_launched += other.hedge_launched;
        self.hedge_won += other.hedge_won;
        self.hedge_wasted += other.hedge_wasted;
        self.late_launches += other.late_launches;
        self.latencies_us.extend(other.latencies_us);
        for (id, t) in other.tenants {
            self.tenants.entry(id).or_default().merge(t);
        }
    }

    /// The mutable per-tenant slice for `tenant`, materializing the row
    /// on first touch; `None` when the run has no tenant mix.
    fn tenant_mut(&mut self, tenant: Option<&str>) -> Option<&mut TenantLoad> {
        tenant.map(|t| self.tenants.entry(t.to_string()).or_default())
    }

    /// Books the outcome of attempt `attempt` of request `id`: a success
    /// with its latency charged from `since`, or a failure in its error
    /// counter. Returns whether the request should be retried.
    fn settle(
        &mut self,
        cfg: &LoadgenConfig,
        id: usize,
        attempt: u32,
        outcome: Result<Vec<Coord>, ClientError>,
        since: Instant,
    ) -> bool {
        let tenant = tenant_of(cfg, id as u64);
        let e = match outcome {
            Ok(_) => {
                let us = since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                self.ok += 1;
                self.latencies_us.push(us);
                if let Some(t) = self.tenant_mut(tenant) {
                    t.ok += 1;
                    t.latencies_us.push(us);
                }
                return false;
            }
            Err(e) => e,
        };
        match &e {
            ClientError::Transport(_) => self.transport += 1,
            ClientError::Malformed(why) => {
                eprintln!("loadgen: malformed reply: {why}");
                self.malformed += 1;
            }
            ClientError::Server(ErrorKind::Overloaded, _) => {
                self.overloaded += 1;
                if let Some(t) = self.tenant_mut(tenant) {
                    t.overloaded += 1;
                }
            }
            ClientError::Server(ErrorKind::DeadlineExceeded, _) => self.deadline += 1,
            ClientError::Server(ErrorKind::ShuttingDown, _) => self.shutting_down += 1,
            ClientError::Server(ErrorKind::BadRequest, _) => self.bad_request += 1,
            ClientError::Server(ErrorKind::UnknownMesh, _) => self.unknown_mesh += 1,
            ClientError::Server(ErrorKind::MeshRetired, _) => self.mesh_retired += 1,
        }
        if e.retryable() && attempt < cfg.retries {
            self.retries += 1;
            return true;
        }
        self.failed += 1;
        if let Some(t) = self.tenant_mut(tenant) {
            t.failed += 1;
        }
        false
    }

    /// Human+grep-friendly rendering (the chaos gate greps the
    /// `key=value` line).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "loadgen: ok={} failed={} malformed={} bad_request={} retries={} \
             overloaded={} deadline={} shutting_down={} transport={} \
             unknown_mesh={} mesh_retired={}",
            self.ok,
            self.failed,
            self.malformed,
            self.bad_request,
            self.retries,
            self.overloaded,
            self.deadline,
            self.shutting_down,
            self.transport,
            self.unknown_mesh,
            self.mesh_retired
        );
        let _ = writeln!(
            s,
            "  goodput {:.1} req/s over {:.2} s  latency ms p50 {:.2}  p90 {:.2}  \
             p99 {:.2}  p99.9 {:.2}",
            self.goodput(),
            self.elapsed.as_secs_f64(),
            self.latency_ms(0.50),
            self.latency_ms(0.90),
            self.latency_ms(0.99),
            self.latency_ms(0.999),
        );
        let _ = writeln!(
            s,
            "  hedging launched={} won={} wasted={}  late_launches={}",
            self.hedge_launched, self.hedge_won, self.hedge_wasted, self.late_launches
        );
        for (id, t) in &self.tenants {
            let _ = writeln!(
                s,
                "  tenant {id}: ok={} failed={} overloaded={} p50_ms={:.2} p99_ms={:.2}",
                t.ok,
                t.failed,
                t.overloaded,
                t.latency_ms(0.50),
                t.latency_ms(0.99)
            );
        }
        s
    }
}

/// Draws the deterministic `(seed, src, dst)` triple for request `id`.
/// Self-pairs are skipped so every request crosses at least one link.
pub fn request_of(mesh: &Mesh, run_seed: u64, id: u64) -> (u64, Coord, Coord) {
    let mut rng = StdRng::seed_from_u64(run_seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id + 1)));
    loop {
        let mut src = Coord::origin(mesh.dim());
        let mut dst = Coord::origin(mesh.dim());
        for axis in 0..mesh.dim() {
            src[axis] = rng.gen_range(0..mesh.side(axis));
            dst[axis] = rng.gen_range(0..mesh.side(axis));
        }
        if src != dst {
            return (rng.next_u64(), src, dst);
        }
    }
}

/// Deterministically assigns request `id` its tenant from the weighted
/// mix — a pure function of `(cfg.seed, id)`, so every retry of the
/// same request lands on the same mesh and reruns reproduce the split.
/// `None` when the config has no tenant mix (bare single-tenant wire).
pub fn tenant_of(cfg: &LoadgenConfig, id: u64) -> Option<&str> {
    let (first, rest) = cfg.tenants.split_first()?;
    if rest.is_empty() {
        return Some(first.0.as_str());
    }
    // splitmix64 finalizer over (seed, id): well-mixed, dependency-free.
    let mut h = cfg.seed ^ 0xD6E8_FEB8_6659_FD93u64.wrapping_mul(id.wrapping_add(1));
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    let total: f64 = cfg.tenants.iter().map(|(_, w)| w.max(0.0)).sum();
    let mut acc = 0.0;
    for (t, w) in &cfg.tenants {
        acc += w.max(0.0) / total.max(1e-12);
        if u < acc {
            return Some(t.as_str());
        }
    }
    cfg.tenants.last().map(|(t, _)| t.as_str())
}

fn backoff_delay(cfg: &LoadgenConfig, attempt: u32) -> Duration {
    let exp = cfg
        .backoff
        .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
    exp.min(cfg.backoff_cap)
}

/// One request attempt: its global id, retry attempt, and the
/// deterministic request triple.
struct Pending {
    id: usize,
    attempt: u32,
    seed: u64,
    src: Coord,
    dst: Coord,
}

impl Pending {
    fn of(cfg: &LoadgenConfig, id: usize, attempt: u32) -> Pending {
        let (seed, src, dst) = request_of(&cfg.mesh, cfg.seed, id as u64);
        Pending {
            id,
            attempt,
            seed,
            src,
            dst,
        }
    }

    fn trace_id(&self) -> String {
        format!("lg-{}.{}", self.id, self.attempt)
    }

    /// The wire line for this attempt under trace ID `id`, with its
    /// tenant's `MESH` prefix when a mix is configured.
    fn request_line(&self, cfg: &LoadgenConfig, id: &str) -> String {
        let tenant = tenant_of(cfg, self.id as u64);
        path_request_line(&cfg.mesh, tenant, self.seed, &self.src, &self.dst, Some(id))
    }

    /// Classifies the reply `line` sent under trace ID `id`.
    fn classify(
        &self,
        cfg: &LoadgenConfig,
        line: &str,
        id: &str,
    ) -> Result<Vec<Coord>, ClientError> {
        classify_path_reply(&cfg.mesh, line, &self.src, &self.dst, Some(id))
    }
}

/// The per-thread loop for the keep-alive/pipelined transport. Windows
/// of up to `cfg.pipeline` requests are written as one burst; replies
/// are read back in order with their ID echoes verified.
fn pipelined_worker(
    cfg: &LoadgenConfig,
    addr: SocketAddr,
    next: &AtomicUsize,
    local: &mut LoadgenReport,
) {
    let window_cap = cfg.pipeline.max(1);
    let mut todo: VecDeque<Pending> = VecDeque::new();
    let mut conn: Option<PipelinedConn> = None;
    loop {
        // Assemble a window: local retries first, then fresh ids.
        let mut window: Vec<Pending> = Vec::with_capacity(window_cap);
        while window.len() < window_cap {
            if let Some(p) = todo.pop_front() {
                window.push(p);
                continue;
            }
            let id = next.fetch_add(1, Ordering::Relaxed);
            if id >= cfg.requests {
                break;
            }
            window.push(Pending::of(cfg, id, 0));
        }
        if window.is_empty() {
            return;
        }
        let burst: String = window
            .iter()
            .map(|p| p.request_line(cfg, &p.trace_id()))
            .collect();
        // Connect (or reuse the kept-alive connection), then one write
        // for the whole burst.
        if conn.is_none() {
            conn = PipelinedConn::connect(addr, cfg.timeout).ok();
        }
        let t0 = Instant::now();
        let deadline = t0 + cfg.timeout;
        if let Some(c) = conn.as_mut() {
            if c.send_burst(&burst, deadline).is_err() {
                conn = None;
            }
        }
        // Read the replies in request order. Once the connection is gone
        // every unanswered request is a transport failure, re-enqueued
        // as the retry budget allows.
        let mut backoff_attempt: Option<u32> = None;
        for p in window {
            let outcome = match conn.as_mut() {
                Some(c) => c
                    .recv_line(deadline)
                    .and_then(|line| p.classify(cfg, &line, &p.trace_id())),
                None => Err(transport(IoKind::NotConnected, "pipelined connection lost")),
            };
            if matches!(
                outcome,
                Err(ClientError::Transport(_) | ClientError::Malformed(_))
            ) {
                // The stream cannot be trusted past a lost or malformed
                // reply.
                conn = None;
            }
            if local.settle(cfg, p.id, p.attempt, outcome, t0) {
                backoff_attempt = Some(backoff_attempt.map_or(p.attempt, |a| a.min(p.attempt)));
                todo.push_back(Pending::of(cfg, p.id, p.attempt + 1));
            }
        }
        if let Some(a) = backoff_attempt {
            std::thread::sleep(backoff_delay(cfg, a));
        }
    }
}

/// Completed requests a worker must observe before a `p99` hedge arms.
const HEDGE_WARMUP: usize = 20;
/// Recompute the cached p99 hedge threshold every this many successes.
const HEDGE_REFRESH: usize = 16;
/// Granularity of the two-connection poll while a hedge is in flight.
const HEDGE_POLL: Duration = Duration::from_millis(1);

/// Resolves the stall threshold for the next attempt. `p99` mode keeps
/// a per-worker cache — `(samples when computed, threshold)` — and
/// recomputes from the worker's own success latencies every
/// [`HEDGE_REFRESH`] completions; before [`HEDGE_WARMUP`] samples it
/// returns `None` (no hedging yet).
fn hedge_threshold(
    cfg: &LoadgenConfig,
    local: &LoadgenReport,
    cache: &mut (usize, Option<Duration>),
) -> Option<Duration> {
    match cfg.hedge_after {
        None => None,
        Some(HedgeAfter::After(d)) => Some(d),
        Some(HedgeAfter::P99) => {
            let n = local.latencies_us.len();
            if n < HEDGE_WARMUP {
                return None;
            }
            if cache.1.is_none() || n >= cache.0 + HEDGE_REFRESH {
                let mut v = local.latencies_us.clone();
                let idx = (v.len() - 1) * 99 / 100;
                let (_, p99, _) = v.select_nth_unstable(idx);
                let t = Duration::from_micros(*p99).max(Duration::from_millis(1));
                *cache = (n, Some(t));
            }
            cache.1
        }
    }
}

/// One attempt on a fresh connection, hedged when `hedge_after` is set:
/// send on the primary, wait alone until the stall threshold, then fire
/// the duplicate on a second connection and poll both — first full
/// reply wins, the loser is dropped unread and counted as
/// `hedge_wasted`. The race itself is bounded: if *neither* copy answers
/// within the race budget, both drew stragglers and waiting longer is
/// throwing good time after bad — the pair is abandoned (wasted +
/// transport) and the attempt retried fresh. The budget starts at one
/// more threshold and doubles with the attempt number (escalating
/// patience): early attempts abandon near 2x the threshold, which is
/// where the tail cut comes from, while late attempts wait out even a
/// saturated server so retries are guaranteed to converge instead of
/// storming. With no hedge this is one connection, one line, one reply.
fn hedged_attempt(
    cfg: &LoadgenConfig,
    addr: SocketAddr,
    p: &Pending,
    hedge_after: Option<Duration>,
    local: &mut LoadgenReport,
) -> Result<Vec<Coord>, ClientError> {
    let t0 = Instant::now();
    let overall = t0 + cfg.timeout;
    let primary_id = p.trace_id();
    let mut primary = PipelinedConn::connect(addr, cfg.timeout).map_err(ClientError::Transport)?;
    primary
        .send_burst(&p.request_line(cfg, &primary_id), overall)
        .map_err(ClientError::Transport)?;
    // Phase 1: the primary alone, up to the hedge threshold (or the
    // whole budget when hedging is off / not yet armed).
    let Some(h) = hedge_after else {
        return primary
            .recv_line(overall)
            .and_then(|line| p.classify(cfg, &line, &primary_id));
    };
    match primary.recv_line((t0 + h).min(overall)) {
        // Quiet past the threshold with budget left: hedge below.
        Err(ClientError::Transport(e))
            if e.kind() == IoKind::TimedOut && Instant::now() < overall => {}
        reply => return reply.and_then(|line| p.classify(cfg, &line, &primary_id)),
    }
    // Phase 2: fire the duplicate (trace id `<id>h` so server traces
    // tell the pair apart) and poll both connections until someone
    // produces a full reply or the race budget runs out.
    local.hedge_launched += 1;
    let hedge_id = format!("{primary_id}h");
    let budget = overall
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1));
    let hedge = PipelinedConn::connect(addr, budget).ok().and_then(|mut c| {
        c.send_burst(&p.request_line(cfg, &hedge_id), overall)
            .is_ok()
            .then_some(c)
    });
    let race_deadline = (Instant::now() + h.saturating_mul(1u32 << p.attempt.min(8))).min(overall);
    let mut racers = [(Some(primary), primary_id), (hedge, hedge_id)];
    loop {
        if Instant::now() >= race_deadline {
            // Neither copy answered inside the race budget: both drew
            // stragglers. The duplicate was cancelled unanswered and
            // the attempt is handed back as retryable.
            if racers[1].0.is_some() {
                local.hedge_wasted += 1;
            }
            return Err(transport(IoKind::TimedOut, "hedge race budget expired"));
        }
        for i in 0..2 {
            let Some(c) = racers[i].0.as_mut() else {
                continue;
            };
            match c.recv_line((Instant::now() + HEDGE_POLL).min(race_deadline)) {
                Err(ClientError::Transport(e)) if e.kind() == IoKind::TimedOut => {}
                Err(ClientError::Transport(_)) => racers[i].0 = None,
                reply => {
                    if i == 1 && reply.is_ok() {
                        local.hedge_won += 1;
                    }
                    if racers[1 - i].0.is_some() {
                        local.hedge_wasted += 1;
                    }
                    return reply.and_then(|line| p.classify(cfg, &line, &racers[i].1));
                }
            }
        }
        if racers.iter().all(|(c, _)| c.is_none()) {
            // Both connections died; no cancellation happened, so
            // nothing is wasted — just a transport failure to retry.
            return Err(transport(
                IoKind::ConnectionReset,
                "both hedged connections closed",
            ));
        }
    }
}

/// The per-thread loop for the per-request transport: one logical
/// request at a time, each attempt on a fresh connection (a hedge needs
/// an independent second connection anyway). In open-loop mode the
/// launch waits for the scheduled arrival and latency is measured from
/// it, including any late-launch wait, retries, and hedge time; in
/// closed loop it runs from the start of the attempt that succeeded.
fn paced_worker(
    cfg: &LoadgenConfig,
    addr: SocketAddr,
    next: &AtomicUsize,
    start: Instant,
    local: &mut LoadgenReport,
) {
    let mut p99_cache: (usize, Option<Duration>) = (0, None);
    loop {
        let id = next.fetch_add(1, Ordering::Relaxed);
        if id >= cfg.requests {
            return;
        }
        let sched = cfg.open_loop.then(|| {
            let sched = start + Duration::from_secs_f64(id as f64 / cfg.rate.max(1e-9));
            let now = Instant::now();
            if now < sched {
                std::thread::sleep(sched - now);
            } else if now > sched {
                local.late_launches += 1;
            }
            sched
        });
        let mut attempt = 0u32;
        loop {
            let p = Pending::of(cfg, id, attempt);
            let threshold = hedge_threshold(cfg, local, &mut p99_cache);
            let began = Instant::now();
            let outcome = hedged_attempt(cfg, addr, &p, threshold, local);
            if !local.settle(cfg, id, attempt, outcome, sched.unwrap_or(began)) {
                break;
            }
            std::thread::sleep(backoff_delay(cfg, attempt));
            attempt += 1;
        }
    }
}

/// Runs the load generation and aggregates the report. `keep_alive` or
/// `pipeline > 1` selects the pipelined worker unless `open_loop` or
/// `hedge_after` asks for the per-request one, which is also the
/// default.
pub fn run_loadgen(cfg: &LoadgenConfig) -> LoadgenReport {
    let started = Instant::now();
    let Some(addr) = cfg.addr.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
        // Unresolvable address: every request is a transport failure;
        // report rather than panic.
        eprintln!("loadgen: cannot resolve {}", cfg.addr);
        return LoadgenReport {
            failed: cfg.requests as u64,
            transport: cfg.requests as u64,
            elapsed: started.elapsed(),
            ..LoadgenReport::default()
        };
    };
    let pipelined =
        (cfg.keep_alive || cfg.pipeline > 1) && !cfg.open_loop && cfg.hedge_after.is_none();
    let next: AtomicUsize = AtomicUsize::new(0);
    let merged: Mutex<LoadgenReport> = Mutex::new(LoadgenReport::default());
    oblivion_sim::pool::run_crew(cfg.concurrency.max(1), |_w| {
        let mut local = LoadgenReport::default();
        if pipelined {
            pipelined_worker(cfg, addr, &next, &mut local);
        } else {
            paced_worker(cfg, addr, &next, started, &mut local);
        }
        let mut m = merged.lock().unwrap_or_else(|e| e.into_inner());
        m.merge(local);
    });
    let mut report = merged.into_inner().unwrap_or_else(|e| e.into_inner());
    report.latencies_us.sort_unstable();
    for t in report.tenants.values_mut() {
        t.latencies_us.sort_unstable();
    }
    report.elapsed = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_deterministic_and_self_loop_free() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        for id in 0..200 {
            let a = request_of(&mesh, 7, id);
            let b = request_of(&mesh, 7, id);
            assert_eq!(a, b);
            assert_ne!(a.1, a.2, "self-pair at id {id}");
            assert!(mesh.contains(&a.1) && mesh.contains(&a.2));
        }
        assert_ne!(request_of(&mesh, 7, 0), request_of(&mesh, 8, 0));
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let cfg = LoadgenConfig {
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            ..LoadgenConfig::default()
        };
        assert_eq!(backoff_delay(&cfg, 0), Duration::from_millis(10));
        assert_eq!(backoff_delay(&cfg, 1), Duration::from_millis(20));
        assert_eq!(backoff_delay(&cfg, 2), Duration::from_millis(40));
        assert_eq!(backoff_delay(&cfg, 3), Duration::from_millis(80));
        assert_eq!(backoff_delay(&cfg, 30), Duration::from_millis(80));
        assert_eq!(backoff_delay(&cfg, 63), Duration::from_millis(80));
    }

    #[test]
    fn report_quantiles_and_rates() {
        let r = LoadgenReport {
            ok: 4,
            latencies_us: vec![1000, 2000, 3000, 4000],
            elapsed: Duration::from_secs(2),
            overloaded: 1,
            retries: 1,
            ..LoadgenReport::default()
        };
        assert_eq!(r.latency_ms(0.0), 1.0);
        assert_eq!(r.latency_ms(1.0), 4.0);
        assert!((r.goodput() - 2.0).abs() < 1e-9);
        assert!((r.shed_rate() - 0.2).abs() < 1e-9);
        assert!(r.render().contains("malformed=0"));
        assert!(r.render().contains("hedging launched=0 won=0 wasted=0"));
    }

    #[test]
    fn hedge_threshold_fixed_p99_and_off() {
        let mut cache = (0usize, None);
        let mut cfg = LoadgenConfig {
            hedge_after: Some(HedgeAfter::After(Duration::from_millis(7))),
            ..LoadgenConfig::default()
        };
        let local = LoadgenReport::default();
        assert_eq!(
            hedge_threshold(&cfg, &local, &mut cache),
            Some(Duration::from_millis(7))
        );

        cfg.hedge_after = Some(HedgeAfter::P99);
        // Unarmed before the warmup.
        assert_eq!(hedge_threshold(&cfg, &local, &mut cache), None);
        let mut local = LoadgenReport {
            latencies_us: (1..=100u64).map(|i| i * 1000).collect(),
            ..LoadgenReport::default()
        };
        let t = hedge_threshold(&cfg, &local, &mut cache).expect("armed after warmup");
        // p99 of 1..=100 ms is 99 ms.
        assert_eq!(t, Duration::from_millis(99));
        // Cached until HEDGE_REFRESH more samples arrive.
        local.latencies_us.push(1_000_000);
        assert_eq!(
            hedge_threshold(&cfg, &local, &mut cache),
            Some(Duration::from_millis(99))
        );

        cfg.hedge_after = None;
        assert_eq!(hedge_threshold(&cfg, &local, &mut cache), None);
    }

    #[test]
    fn tenant_mix_is_deterministic_and_roughly_proportional() {
        let mut cfg = LoadgenConfig::default();
        assert_eq!(tenant_of(&cfg, 0), None);
        cfg.tenants = vec![("a".into(), 1.0)];
        assert_eq!(tenant_of(&cfg, 9), Some("a"));
        cfg.tenants = vec![("a".into(), 0.8), ("b".into(), 0.2)];
        let mut a = 0u32;
        for id in 0..1000u64 {
            let t = tenant_of(&cfg, id).expect("mix is set");
            assert_eq!(tenant_of(&cfg, id), Some(t), "retry must re-pick id {id}");
            if t == "a" {
                a += 1;
            } else {
                assert_eq!(t, "b");
            }
        }
        let share = f64::from(a) / 1000.0;
        assert!((0.7..0.9).contains(&share), "a's share drifted: {share}");
        // A different run seed reshuffles the assignment.
        let reseeded = LoadgenConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert!((0..1000u64).any(|id| tenant_of(&cfg, id) != tenant_of(&reseeded, id)));
    }

    #[test]
    fn report_renders_and_merges_tenant_partitions() {
        let mut a = LoadgenReport::default();
        a.tenants.insert(
            "a".into(),
            TenantLoad {
                ok: 3,
                failed: 1,
                overloaded: 2,
                latencies_us: vec![1000, 2000, 3000],
            },
        );
        let mut b = LoadgenReport::default();
        b.tenants.insert(
            "a".into(),
            TenantLoad {
                ok: 1,
                ..TenantLoad::default()
            },
        );
        b.tenants.insert(
            "b".into(),
            TenantLoad {
                ok: 2,
                latencies_us: vec![500, 700],
                ..TenantLoad::default()
            },
        );
        a.merge(b);
        assert_eq!(a.tenants["a"].ok, 4);
        assert_eq!(a.tenants["a"].overloaded, 2);
        assert_eq!(a.tenants["b"].ok, 2);
        let rendered = a.render();
        assert!(rendered.contains("tenant a: ok=4 failed=1 overloaded=2"));
        assert!(rendered.contains("tenant b: ok=2 failed=0 overloaded=0"));
        assert!(rendered.contains("unknown_mesh=0 mesh_retired=0"));
        assert!((a.tenants["b"].latency_ms(1.0) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn merge_and_render_carry_hedge_counters() {
        let mut a = LoadgenReport {
            hedge_launched: 2,
            hedge_won: 1,
            hedge_wasted: 2,
            late_launches: 3,
            ..LoadgenReport::default()
        };
        let b = LoadgenReport {
            hedge_launched: 1,
            late_launches: 1,
            ..LoadgenReport::default()
        };
        a.merge(b);
        assert_eq!(a.hedge_launched, 3);
        assert_eq!(a.hedge_won, 1);
        assert_eq!(a.hedge_wasted, 2);
        assert_eq!(a.late_launches, 4);
        assert!(a
            .render()
            .contains("hedging launched=3 won=1 wasted=2  late_launches=4"));
    }
}
