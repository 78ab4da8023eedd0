//! Request accounting with a conservation law, live gauges and
//! per-phase latency histograms behind one consistent-snapshot lock.
//!
//! The unit of account is the **request line**, not the connection:
//! with keep-alive pipelining one socket carries many requests, and
//! every request line the server admits is counted exactly once in
//! exactly one terminal bucket, so at any quiescent point:
//!
//! ```text
//! accepted = completed + bad_request + shed_overloaded
//!          + deadline_exceeded + drain_rejected + io_errors
//!          + unknown_mesh + mesh_retired
//! ```
//!
//! A request line is *admitted* ([`ServeStats::admit`]) the moment a
//! worker frames it off the socket; a connection turned away whole at
//! admission contributes one shed unit
//! ([`ServeStats::shed_at_admission`]); an idle keep-alive connection
//! that closes cleanly between requests contributes none. Socket-level
//! churn is tracked by separate `conns_opened` / `conns_closed`
//! counters and the `open_conns` gauge **outside** the law.
//!
//! The live form of the law holds at *every* instant, not just at
//! quiescence: `accepted = settled + connections`, where `connections`
//! is the gauge of admitted-but-unsettled request units. All transitions
//! are applied atomically under a single mutex, and
//! [`ServeStats::snapshot`] copies the whole ledger under that same
//! mutex — so a `METRICS` scrape taken mid-stampede can never observe a
//! half-applied transition, even when a worker settles a 64-deep
//! pipeline burst in one call. [`StatsSnapshot::check_conservation`] is
//! the one implementation of the live law; the soak tests run it on
//! live scrapes, `oblivion top --check` on every frame, and `serve` at
//! drain.
//!
//! This ledger is the only model of serve telemetry. `METRICS`
//! ([`crate::metrics`]), the `--stats-every` JSONL lines and the
//! drained run report all read its series through
//! [`StatsSnapshot::COUNTERS`] and [`StatsSnapshot::GAUGES`]; the CLI
//! publishes the drained snapshot into `oblivion-obs` once, for
//! `--metrics-out`.
//!
//! Lock cost: one uncontended mutex acquisition per transition,
//! nanoseconds against a syscall-bound request path — consistency is
//! worth far more here than lock-free increments that can tear.

use oblivion_obs::Histogram;
use std::sync::Mutex;

/// The explicit phases a served request moves through, each timed into
/// its own histogram (microseconds). A phase observation covers at
/// least one admitted request unit — per-connection phases (accept,
/// queue wait) are recorded with the connection's first unit, per-burst
/// phases (parse, route, write) once per non-empty burst — so every
/// phase count is `<= accepted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accept to enqueue: the acceptor's own handling time.
    Accept,
    /// Enqueue to worker pickup: time spent waiting in the admission
    /// queue.
    QueueWait,
    /// Reading and parsing the request line.
    Parse,
    /// Selecting the path (including any simulated service time).
    RouteCompute,
    /// Writing the reply bytes.
    ReplyWrite,
}

/// Number of request phases.
pub const PHASE_COUNT: usize = 5;

impl Phase {
    /// Every phase, in hot-path order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Accept,
        Phase::QueueWait,
        Phase::Parse,
        Phase::RouteCompute,
        Phase::ReplyWrite,
    ];

    /// Short phase name (also the `METRICS` exposition label).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Accept => "accept",
            Phase::QueueWait => "queue_wait",
            Phase::Parse => "parse",
            Phase::RouteCompute => "route_compute",
            Phase::ReplyWrite => "reply_write",
        }
    }

    /// The `oblivion-obs` runtime-histogram name this phase is
    /// published under in `--metrics-out` run reports.
    pub fn obs_name(self) -> &'static str {
        match self {
            Phase::Accept => "serve_phase_accept_us",
            Phase::QueueWait => "serve_phase_queue_wait_us",
            Phase::Parse => "serve_phase_parse_us",
            Phase::RouteCompute => "serve_phase_route_compute_us",
            Phase::ReplyWrite => "serve_phase_reply_write_us",
        }
    }
}

/// The terminal buckets of the conservation law: a settle transition
/// names the one bucket its units land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Requests answered with `OK` (paths and probes).
    Completed,
    /// Requests answered `ERR BAD_REQUEST`.
    BadRequest,
    /// Requests rejected `ERR OVERLOADED` at admission (queues full).
    ShedOverloaded,
    /// Requests answered `ERR DEADLINE_EXCEEDED`.
    DeadlineExceeded,
    /// Requests rejected `ERR SHUTTING_DOWN` after the drain budget ran
    /// out.
    DrainRejected,
    /// Requests whose connection died before an answer could be
    /// written.
    IoError,
    /// Requests answered `ERR UNKNOWN_MESH` (a `MESH <id>` prefix
    /// naming an id never registered; charged to no tenant).
    UnknownMesh,
    /// Requests answered `ERR MESH_RETIRED` (the id was live once and
    /// was retired; charged to the retired tenant's ledger).
    MeshRetired,
}

impl Counter {
    /// Every terminal bucket, in declaration order.
    pub const ALL: [Counter; 8] = [
        Counter::Completed,
        Counter::BadRequest,
        Counter::ShedOverloaded,
        Counter::DeadlineExceeded,
        Counter::DrainRejected,
        Counter::IoError,
        Counter::UnknownMesh,
        Counter::MeshRetired,
    ];
}

/// The chaos-injected event kinds (see `crate::chaos`): bookkeeping
/// counters **outside** the conservation law, like connection churn —
/// an injected stall still settles its requests as completions, an
/// injected reset settles them as `io_errors`; the chaos counters just
/// say how many events were injected, never where units went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// A per-request compute stall (fixed + heavy-tailed) was injected.
    Stall,
    /// A burst's reply was written slow, in two chunks.
    SlowWrite,
    /// A connection was killed mid-pipeline.
    Reset,
    /// A worker slept through an injected pause before dispatching.
    WorkerPause,
}

/// Live request accounting (see module docs for the conservation law):
/// the ledger is a [`StatsSnapshot`] behind one lock, so a snapshot is a
/// copy taken under that lock. Gauges are `i64` so an accounting bug
/// shows up as a visible negative level instead of a wrapped `u64`.
#[derive(Default)]
pub struct ServeStats {
    ledger: Mutex<StatsSnapshot>,
}

impl ServeStats {
    fn lock(&self) -> std::sync::MutexGuard<'_, StatsSnapshot> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `n` request lines framed off a socket in one burst: they enter
    /// `accepted` and the unsettled-units gauges in a single atomic
    /// transition, so no scrape can see a half-admitted burst.
    pub fn admit(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut l = self.lock();
        l.accepted += n;
        l.connections += n as i64;
        l.in_flight += n as i64;
    }

    /// `n` admitted units settle into one terminal bucket at once — the
    /// write-side twin of [`ServeStats::admit`] for a burst answered
    /// with a single vectored write.
    pub fn settle_batch(&self, which: Counter, n: u64) {
        if n == 0 {
            return;
        }
        let mut l = self.lock();
        let bucket = StatsSnapshot::bucket(which);
        let v = (bucket.get)(&l) + n;
        (bucket.set)(&mut l, v);
        l.in_flight -= n as i64;
        l.connections -= n as i64;
    }

    /// A socket came off the listener: connection-churn telemetry,
    /// outside the conservation law.
    pub fn conn_opened(&self) {
        let mut l = self.lock();
        l.conns_opened += 1;
        l.open_conns += 1;
    }

    /// A socket closed (any reason). Every [`ServeStats::conn_opened`]
    /// must be paired with exactly one close.
    pub fn conn_closed(&self) {
        let mut l = self.lock();
        l.conns_closed += 1;
        l.open_conns -= 1;
    }

    /// A worker adopted a queued connection: the queue-depth gauge
    /// falls, nothing else moves (units are admitted later, as lines are
    /// framed).
    pub fn conn_dequeued(&self) {
        self.lock().queue_depth -= 1;
    }

    /// Pre-publish half of an enqueue: bumps the queue-depth gauge
    /// *before* the job becomes visible to workers. The acceptor must
    /// call this before the push — otherwise a fast worker's
    /// [`ServeStats::conn_dequeued`] can land first and a scrape
    /// observes a negative depth. Returns the provisional depth (the
    /// in-queue count the moment the push lands).
    pub fn enqueue_started(&self) -> u64 {
        let mut l = self.lock();
        l.queue_depth += 1;
        l.queue_depth as u64
    }

    /// Commit half: the push succeeded at `depth` — record the
    /// high-water mark. Deliberately *not* folded into
    /// [`ServeStats::enqueue_started`]: a rejected push must leave the
    /// high-water mark untouched (the shed job was never in the queue).
    pub fn enqueue_committed(&self, depth: u64) {
        let mut l = self.lock();
        l.max_queue_depth = l.max_queue_depth.max(depth as i64);
    }

    /// Rollback half: the push was rejected (queue full) — undo the
    /// provisional depth bump. The caller settles the connection via
    /// [`ServeStats::shed_at_admission`].
    pub fn enqueue_aborted(&self) {
        self.lock().queue_depth -= 1;
    }

    /// A connection turned away whole at admission is one request unit,
    /// accepted and shed in one transition: it is never enqueued, so
    /// the unsettled-units gauges do not move.
    pub fn shed_at_admission(&self) {
        let mut l = self.lock();
        l.accepted += 1;
        l.shed_overloaded += 1;
    }

    /// `n` admitted lines were attributed to tenant `id` (their `MESH`
    /// prefix resolved to a live mesh): the tenant's `accepted` and
    /// `in_flight` move together.
    pub fn tenant_admit(&self, id: &str, n: u64) {
        if n == 0 {
            return;
        }
        let mut l = self.lock();
        let t = l.tenant_mut(id);
        t.accepted += n;
        t.in_flight += n as i64;
    }

    /// `n` tenant-attributed lines settle into one tenant bucket; the
    /// caller also settles them globally (the two ledgers share the
    /// lock but move in separate calls — each law is checked on its own
    /// ledger).
    pub fn tenant_settle(&self, id: &str, which: Counter, n: u64) {
        if n == 0 {
            return;
        }
        let mut l = self.lock();
        let t = l.tenant_mut(id);
        let Some(bucket) = TenantSnapshot::bucket(which) else {
            debug_assert!(false, "{which:?} is not a tenant bucket");
            return;
        };
        let v = (bucket.get)(t) + n;
        (bucket.set)(t, v);
        t.in_flight -= n as i64;
    }

    /// A line naming a retired mesh: attributed and settled in one
    /// atomic transition (there is nothing to route, so the tenant
    /// never sees it in flight).
    pub fn tenant_mesh_retired(&self, id: &str, n: u64) {
        if n == 0 {
            return;
        }
        let mut l = self.lock();
        let t = l.tenant_mut(id);
        t.accepted += n;
        t.mesh_retired += n;
    }

    /// Publishes a tenant's routing-state gauge (at registration and
    /// `ADMIN ADD`; zeroed on retire, when the state is freed). Also
    /// materializes the tenant's ledger row, so a quiet tenant still
    /// shows in `METRICS`.
    pub fn set_tenant_state_bytes(&self, id: &str, bytes: u64) {
        self.lock().tenant_mut(id).state_bytes = bytes;
    }

    /// A probe answered on the health listener (outside the law).
    pub fn health_probe(&self) {
        self.lock().health_probes += 1;
    }

    /// A chaos event was injected (outside the law — the affected
    /// request units still settle through their normal buckets).
    pub fn chaos_event(&self, event: ChaosEvent) {
        let mut l = self.lock();
        *match event {
            ChaosEvent::Stall => &mut l.chaos_stalls,
            ChaosEvent::SlowWrite => &mut l.chaos_slow_writes,
            ChaosEvent::Reset => &mut l.chaos_resets,
            ChaosEvent::WorkerPause => &mut l.chaos_worker_pauses,
        } += 1;
    }

    /// Records one phase duration (microseconds).
    pub fn record_phase(&self, phase: Phase, us: u64) {
        self.lock().phases[phase as usize].1.record(us);
    }

    /// Copies the whole ledger under one lock: the returned snapshot is
    /// transition-consistent, so [`StatsSnapshot::check_conservation`]
    /// holds for every snapshot ever taken, even mid-stampede.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.lock().clone()
    }
}

/// One named scalar series of a snapshot `S`: the series name and the
/// field that holds it, readable and writable so the renderers and the
/// `METRICS` parser share one list.
pub struct Series<S, T> {
    /// Series name: the `--metrics-out` and `serve_stats` key.
    /// `METRICS` prefixes it with `oblivion_`.
    pub name: &'static str,
    /// Reads the value.
    pub get: fn(&S) -> T,
    /// Writes the value.
    pub set: fn(&mut S, T),
}

/// A [`Series`] row for the field `$field` of the snapshot type.
macro_rules! series {
    ($name:literal, $field:ident) => {
        Series {
            name: $name,
            get: |s| s.$field,
            set: |s, v| s.$field = v,
        }
    };
}

/// A point-in-time, transition-consistent copy of [`ServeStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Request units admitted: framed request lines, plus one per
    /// connection turned away whole at admission.
    pub accepted: u64,
    /// Requests answered with `OK` (paths and probes).
    pub completed: u64,
    /// Requests answered `ERR BAD_REQUEST`.
    pub bad_request: u64,
    /// Request units rejected `ERR OVERLOADED`: whole connections shed
    /// at admission (queues full) and lines over a tenant's quota.
    pub shed_overloaded: u64,
    /// Requests answered `ERR DEADLINE_EXCEEDED`.
    pub deadline_exceeded: u64,
    /// Queued requests rejected `ERR SHUTTING_DOWN` after the drain
    /// budget ran out.
    pub drain_rejected: u64,
    /// Requests whose connection died before an answer could be written.
    pub io_errors: u64,
    /// Requests answered `ERR UNKNOWN_MESH`.
    pub unknown_mesh: u64,
    /// Requests answered `ERR MESH_RETIRED`.
    pub mesh_retired: u64,
    /// Probes answered on the dedicated health listener.
    pub health_probes: u64,
    /// Per-tenant ledger slices, sorted by mesh id.
    pub tenants: Vec<TenantSnapshot>,
    /// Chaos-injected compute stalls (outside the law).
    pub chaos_stalls: u64,
    /// Chaos-injected slow two-chunk reply writes (outside the law).
    pub chaos_slow_writes: u64,
    /// Chaos-injected mid-pipeline connection resets (outside the law).
    pub chaos_resets: u64,
    /// Chaos-injected worker pauses (outside the law).
    pub chaos_worker_pauses: u64,
    /// Sockets taken off the request listener (churn telemetry, outside
    /// the law).
    pub conns_opened: u64,
    /// Sockets closed, any reason.
    pub conns_closed: u64,
    /// High-water mark of the admission queue depth.
    pub max_queue_depth: i64,
    /// Connections currently waiting in the admission queue.
    pub queue_depth: i64,
    /// Request units currently being handled by a worker.
    pub in_flight: i64,
    /// Admitted request units not yet settled.
    pub connections: i64,
    /// Sockets currently open on the request listener.
    pub open_conns: i64,
    /// Per-phase latency histograms (microseconds), by phase name.
    pub phases: [(&'static str, Histogram); PHASE_COUNT],
}

impl StatsSnapshot {
    /// Every counter series, in exposition order.
    pub const COUNTERS: [Series<StatsSnapshot, u64>; 16] = [
        series!("serve_accepted", accepted),
        Self::bucket(Counter::Completed),
        Self::bucket(Counter::BadRequest),
        Self::bucket(Counter::ShedOverloaded),
        Self::bucket(Counter::DeadlineExceeded),
        Self::bucket(Counter::DrainRejected),
        Self::bucket(Counter::IoError),
        Self::bucket(Counter::UnknownMesh),
        Self::bucket(Counter::MeshRetired),
        series!("serve_health_probes", health_probes),
        series!("serve_chaos_stalls", chaos_stalls),
        series!("serve_chaos_slow_writes", chaos_slow_writes),
        series!("serve_chaos_resets", chaos_resets),
        series!("serve_chaos_worker_pauses", chaos_worker_pauses),
        series!("serve_conns_opened", conns_opened),
        series!("serve_conns_closed", conns_closed),
    ];

    /// Every gauge series, in exposition order.
    pub const GAUGES: [Series<StatsSnapshot, i64>; 5] = [
        series!("serve_queue_depth", queue_depth),
        series!("serve_in_flight", in_flight),
        series!("serve_connections", connections),
        series!("serve_open_conns", open_conns),
        series!("serve_max_queue_depth", max_queue_depth),
    ];

    /// The series a terminal bucket lives in: the one list of bucket
    /// fields, which the counter list and the law are built from.
    const fn bucket(which: Counter) -> Series<StatsSnapshot, u64> {
        match which {
            Counter::Completed => series!("serve_completed", completed),
            Counter::BadRequest => series!("serve_bad_request", bad_request),
            Counter::ShedOverloaded => series!("serve_shed_overloaded", shed_overloaded),
            Counter::DeadlineExceeded => series!("serve_deadline_exceeded", deadline_exceeded),
            Counter::DrainRejected => series!("serve_drain_rejected", drain_rejected),
            Counter::IoError => series!("serve_io_errors", io_errors),
            Counter::UnknownMesh => series!("serve_unknown_mesh", unknown_mesh),
            Counter::MeshRetired => series!("serve_mesh_retired", mesh_retired),
        }
    }

    /// The terminal buckets every accepted unit must land in.
    fn terminal_buckets(&self) -> [u64; 8] {
        Counter::ALL.map(|c| (Self::bucket(c).get)(self))
    }

    /// Sum of the terminal buckets every accepted unit must land in
    /// (saturating: only a forged snapshot can overflow it).
    pub fn settled(&self) -> u64 {
        checked_sum(&self.terminal_buckets()).unwrap_or(u64::MAX)
    }

    /// The quiescent conservation law: every accepted unit is settled.
    /// Only meaningful after drain or with no request in flight;
    /// mid-run, use [`check_conservation`](Self::check_conservation).
    pub fn conserved(&self) -> bool {
        self.accepted == self.settled()
    }

    /// The live conservation law, valid at every instant; returns a
    /// diagnosis of the first violated clause:
    ///
    /// * gauges non-negative, and `accepted = completed + bad + shed +
    ///   deadline + drain + io + unknown_mesh + mesh_retired +
    ///   connections`;
    /// * socket churn, outside the law, balances itself: `conns_opened
    ///   = conns_closed + open_conns`;
    /// * a chaos reset kills a whole connection, so resets never exceed
    ///   the sockets ever opened;
    /// * each tenant's own law `accepted_t = settled_t + in_flight_t`,
    ///   and tenant attribution never claims more than the global
    ///   ledger admitted (`sum(accepted_t) <= accepted`): a line is
    ///   attributed at parse time, strictly after it was admitted;
    /// * every phase histogram count `<= accepted`.
    ///
    /// Sums are overflow-checked, so a forged scrape is diagnosed, not
    /// a panic.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (name, v) in [
            ("queue_depth", self.queue_depth),
            ("in_flight", self.in_flight),
            ("connections", self.connections),
        ] {
            if v < 0 {
                return Err(format!("gauge {name} is negative: {v}"));
            }
        }
        let (opened, closed, open) = (self.conns_opened, self.conns_closed, self.open_conns);
        if open < 0 || checked_sum(&[closed, open as u64]) != Some(opened) {
            return Err(format!(
                "connection churn violated: opened {opened} != closed {closed} + open {open}"
            ));
        }
        if self.chaos_resets > opened {
            return Err(format!(
                "chaos resets {} exceed connections opened {opened}",
                self.chaos_resets
            ));
        }
        let accepted = self.accepted;
        let settled = checked_sum(&self.terminal_buckets());
        let connections = self.connections as u64;
        if settled.and_then(|s| s.checked_add(connections)) != Some(accepted) {
            return Err(format!(
                "conservation violated: accepted {accepted} != settled {} + connections \
                 {connections}",
                self.settled()
            ));
        }
        let mut tenant_accepted_sum = 0u64;
        for t in &self.tenants {
            let id = &t.id;
            if t.in_flight < 0 {
                return Err(format!(
                    "tenant {id} in_flight is negative: {}",
                    t.in_flight
                ));
            }
            let settled = checked_sum(&t.terminal_buckets());
            if settled.and_then(|s| s.checked_add(t.in_flight as u64)) != Some(t.accepted) {
                return Err(format!(
                    "tenant {id} conservation violated: accepted {} != settled {} + \
                     in_flight {}",
                    t.accepted,
                    t.settled(),
                    t.in_flight
                ));
            }
            tenant_accepted_sum = tenant_accepted_sum.saturating_add(t.accepted);
        }
        if tenant_accepted_sum > accepted {
            return Err(format!(
                "tenant ledgers over-claim: sum of tenant accepted {tenant_accepted_sum} \
                 exceeds global accepted {accepted}"
            ));
        }
        for (name, h) in &self.phases {
            if h.count > accepted {
                return Err(format!(
                    "phase histogram {name} count {} exceeds accepted {accepted}",
                    h.count
                ));
            }
        }
        Ok(())
    }

    /// One phase's histogram.
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase as usize].1
    }

    /// Total chaos events injected, across every kind.
    pub fn chaos_events(&self) -> u64 {
        self.chaos_stalls + self.chaos_slow_writes + self.chaos_resets + self.chaos_worker_pauses
    }

    /// One tenant's ledger slice, by mesh id (`None` if the id has no
    /// row yet).
    pub fn tenant(&self, id: &str) -> Option<&TenantSnapshot> {
        self.tenants.iter().find(|t| t.id == id)
    }
}

/// The empty ledger: every counter and gauge zero, every phase
/// histogram empty.
impl Default for StatsSnapshot {
    fn default() -> Self {
        StatsSnapshot {
            accepted: 0,
            completed: 0,
            bad_request: 0,
            shed_overloaded: 0,
            deadline_exceeded: 0,
            drain_rejected: 0,
            io_errors: 0,
            unknown_mesh: 0,
            mesh_retired: 0,
            health_probes: 0,
            tenants: Vec::new(),
            chaos_stalls: 0,
            chaos_slow_writes: 0,
            chaos_resets: 0,
            chaos_worker_pauses: 0,
            conns_opened: 0,
            conns_closed: 0,
            max_queue_depth: 0,
            queue_depth: 0,
            in_flight: 0,
            connections: 0,
            open_conns: 0,
            phases: Phase::ALL.map(|p| (p.name(), Histogram::new())),
        }
    }
}

impl StatsSnapshot {
    /// Tenant `id`'s row, inserted at its sorted place if new.
    fn tenant_mut(&mut self, id: &str) -> &mut TenantSnapshot {
        let at = match self.tenants.binary_search_by(|t| t.id.as_str().cmp(id)) {
            Ok(at) => at,
            Err(at) => {
                let row = TenantSnapshot {
                    id: id.to_string(),
                    ..TenantSnapshot::default()
                };
                self.tenants.insert(at, row);
                at
            }
        };
        &mut self.tenants[at]
    }
}

/// The sum of `values`, or `None` on `u64` overflow.
fn checked_sum(values: &[u64]) -> Option<u64> {
    values.iter().try_fold(0u64, |acc, &v| acc.checked_add(v))
}

/// A point-in-time copy of one tenant's ledger slice (same snapshot
/// consistency as the global [`StatsSnapshot`] it rides in).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// The mesh id.
    pub id: String,
    /// Lines attributed to this tenant (counted at parse time, once
    /// the `MESH` prefix resolved to this live mesh).
    pub accepted: u64,
    /// Attributed lines answered `OK`.
    pub completed: u64,
    /// Attributed lines answered `ERR BAD_REQUEST`.
    pub bad_request: u64,
    /// Attributed lines shed `ERR OVERLOADED` by this tenant's quota.
    pub shed_overloaded: u64,
    /// Attributed lines answered `ERR DEADLINE_EXCEEDED`.
    pub deadline_exceeded: u64,
    /// Attributed lines rejected `ERR SHUTTING_DOWN`.
    pub drain_rejected: u64,
    /// Attributed lines whose connection died before the reply.
    pub io_errors: u64,
    /// Lines naming this id after it was retired.
    pub mesh_retired: u64,
    /// Attributed-but-unsettled lines.
    pub in_flight: i64,
    /// Bytes of routing state kept alive for this tenant (zero once
    /// retired).
    pub state_bytes: u64,
}

impl TenantSnapshot {
    /// Every per-tenant counter series, in exposition order (each
    /// sample carries a `{mesh="<id>"}` label).
    pub const COUNTERS: [Series<TenantSnapshot, u64>; 8] = [
        series!("serve_tenant_accepted", accepted),
        Self::charged(Counter::Completed),
        Self::charged(Counter::BadRequest),
        Self::charged(Counter::ShedOverloaded),
        Self::charged(Counter::DeadlineExceeded),
        Self::charged(Counter::DrainRejected),
        Self::charged(Counter::IoError),
        Self::charged(Counter::MeshRetired),
    ];

    /// The per-tenant in-flight gauge series.
    pub const IN_FLIGHT: Series<TenantSnapshot, i64> = series!("serve_tenant_in_flight", in_flight);

    /// The per-tenant routing-state gauge series: the registry's
    /// accounted footprint of keeping that mesh registered.
    pub const STATE_BYTES: Series<TenantSnapshot, u64> =
        series!("serve_mesh_state_bytes", state_bytes);

    /// The series a terminal bucket lives in, for the buckets a tenant
    /// can be charged (not `UnknownMesh`: an unknown id has no tenant).
    const fn bucket(which: Counter) -> Option<Series<TenantSnapshot, u64>> {
        Some(match which {
            Counter::Completed => series!("serve_tenant_completed", completed),
            Counter::BadRequest => series!("serve_tenant_bad_request", bad_request),
            Counter::ShedOverloaded => series!("serve_tenant_shed_overloaded", shed_overloaded),
            Counter::DeadlineExceeded => {
                series!("serve_tenant_deadline_exceeded", deadline_exceeded)
            }
            Counter::DrainRejected => series!("serve_tenant_drain_rejected", drain_rejected),
            Counter::IoError => series!("serve_tenant_io_errors", io_errors),
            Counter::MeshRetired => series!("serve_tenant_mesh_retired", mesh_retired),
            Counter::UnknownMesh => return None,
        })
    }

    /// [`Self::bucket`] for a bucket a tenant can be charged. Only
    /// called in const context, so a wrong `which` fails the build.
    const fn charged(which: Counter) -> Series<TenantSnapshot, u64> {
        match Self::bucket(which) {
            Some(series) => series,
            None => panic!("not a tenant bucket"),
        }
    }

    /// This tenant's terminal buckets (`UnknownMesh` reads as zero).
    fn terminal_buckets(&self) -> [u64; 8] {
        Counter::ALL.map(|c| Self::bucket(c).map_or(0, |b| (b.get)(self)))
    }

    /// Sum of this tenant's terminal buckets (saturating, as
    /// [`StatsSnapshot::settled`]).
    pub fn settled(&self) -> u64 {
        checked_sum(&self.terminal_buckets()).unwrap_or(u64::MAX)
    }
}

/// Walks one connection through the production transition sequence:
/// opened, queued, adopted, one line admitted with `phases` recorded and
/// settled into `bucket`, closed. Shared by the serve unit tests.
#[cfg(test)]
pub(crate) fn serve_one(s: &ServeStats, bucket: Counter, phases: &[(Phase, u64)]) {
    s.conn_opened();
    let depth = s.enqueue_started();
    s.enqueue_committed(depth);
    s.conn_dequeued();
    s.admit(1);
    for &(phase, us) in phases {
        s.record_phase(phase, us);
    }
    s.settle_batch(bucket, 1);
    s.conn_closed();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_bucket_lands_in_the_conservation_law() {
        let s = ServeStats::default();
        for c in [
            Counter::Completed,
            Counter::BadRequest,
            Counter::DeadlineExceeded,
            Counter::DrainRejected,
            Counter::IoError,
            Counter::UnknownMesh,
            Counter::MeshRetired,
        ] {
            serve_one(&s, c, &[]);
        }
        s.shed_at_admission();
        let snap = s.snapshot();
        assert_eq!(snap.accepted, 8);
        assert!(snap.conserved(), "{snap:?}");
        assert_eq!(snap.check_conservation(), Ok(()), "{snap:?}");
        // Health probes are outside the law.
        s.health_probe();
        assert!(s.snapshot().conserved());
        // An unsettled admit breaks the quiescent law but not the live
        // one: the unit is on the books.
        s.admit(1);
        let snap = s.snapshot();
        assert!(!snap.conserved());
        assert_eq!(snap.check_conservation(), Ok(()), "{snap:?}");
        assert_eq!(snap.connections, 1);
    }

    /// The interleaving that motivated the split enqueue: a worker's
    /// `conn_dequeued()` lands between the acceptor's push and its
    /// commit. With accounting preceding publication the depth gauge
    /// dips to zero, never below; a rejected push rolls back cleanly and
    /// leaves the high-water mark untouched.
    #[test]
    fn pre_publish_enqueue_never_goes_negative() {
        let s = ServeStats::default();
        s.conn_opened();
        let depth = s.enqueue_started();
        assert_eq!(depth, 1);
        s.conn_dequeued(); // the race: pop before the commit
        let snap = s.snapshot();
        assert_eq!(snap.queue_depth, 0, "{snap:?}");
        s.enqueue_committed(depth);
        s.admit(1);
        s.settle_batch(Counter::Completed, 1);
        s.conn_closed();
        let snap = s.snapshot();
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.max_queue_depth, 1);
        assert!(snap.conserved(), "{snap:?}");

        let s = ServeStats::default();
        s.conn_opened();
        s.enqueue_started();
        s.enqueue_aborted();
        s.shed_at_admission();
        s.conn_closed();
        let snap = s.snapshot();
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(
            snap.max_queue_depth, 0,
            "shed job must not set the high-water"
        );
        assert!(snap.conserved(), "{snap:?}");
    }

    #[test]
    fn gauges_track_every_transition() {
        let s = ServeStats::default();
        s.conn_opened();
        let depth = s.enqueue_started();
        s.enqueue_committed(depth);
        let snap = s.snapshot();
        assert_eq!(
            (snap.connections, snap.queue_depth, snap.in_flight),
            (0, 1, 0)
        );
        s.conn_dequeued();
        let snap = s.snapshot();
        assert_eq!(
            (snap.connections, snap.queue_depth, snap.in_flight),
            (0, 0, 0)
        );
        s.admit(1);
        let snap = s.snapshot();
        assert_eq!(
            (snap.connections, snap.queue_depth, snap.in_flight),
            (1, 0, 1)
        );
        s.settle_batch(Counter::Completed, 1);
        let snap = s.snapshot();
        assert_eq!(
            (snap.connections, snap.queue_depth, snap.in_flight),
            (0, 0, 0)
        );
        assert_eq!(snap.max_queue_depth, 1);
        assert_eq!(snap.check_conservation(), Ok(()));
    }

    #[test]
    fn phase_counts_stay_within_accepted() {
        let s = ServeStats::default();
        serve_one(&s, Counter::Completed, &[]);
        s.record_phase(Phase::Accept, 2);
        s.record_phase(Phase::QueueWait, 15);
        s.record_phase(Phase::Parse, 3);
        s.record_phase(Phase::RouteCompute, 40);
        s.record_phase(Phase::ReplyWrite, 5);
        let snap = s.snapshot();
        assert_eq!(snap.check_conservation(), Ok(()), "{snap:?}");
        assert_eq!(snap.phase(Phase::QueueWait).count, 1);
        assert_eq!(snap.phase(Phase::QueueWait).sum, 15);
        for (name, h) in &snap.phases {
            assert_eq!(h.count, 1, "phase {name}");
        }
        // One more observation than accepted units breaks the law.
        s.record_phase(Phase::Parse, 3);
        assert!(s.snapshot().check_conservation().is_err());
    }

    #[test]
    fn series_names_cover_every_counter() {
        let s = ServeStats::default();
        for _ in 0..3 {
            s.enqueue_started();
        }
        s.enqueue_committed(3);
        let names: Vec<&str> = StatsSnapshot::COUNTERS.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 16);
        assert!(names.contains(&"serve_unknown_mesh"));
        assert!(names.contains(&"serve_mesh_retired"));
        assert!(names.contains(&"serve_accepted"));
        assert!(names.contains(&"serve_shed_overloaded"));
        assert!(names.contains(&"serve_conns_opened"));
        assert!(names.contains(&"serve_conns_closed"));
        for name in [
            "serve_chaos_stalls",
            "serve_chaos_slow_writes",
            "serve_chaos_resets",
            "serve_chaos_worker_pauses",
        ] {
            assert!(names.contains(&name), "{name}");
        }
        assert_eq!(s.snapshot().max_queue_depth, 3);
    }

    /// Chaos events are bookkeeping outside the law: injecting them
    /// moves no terminal bucket and breaks no conservation form, and
    /// the units they touched still settle normally.
    #[test]
    fn chaos_events_stay_outside_the_conservation_law() {
        let s = ServeStats::default();
        s.conn_opened();
        let depth = s.enqueue_started();
        s.enqueue_committed(depth);
        s.conn_dequeued();
        s.admit(3);
        s.chaos_event(ChaosEvent::Stall);
        s.chaos_event(ChaosEvent::WorkerPause);
        let snap = s.snapshot();
        assert_eq!(snap.check_conservation(), Ok(()), "{snap:?}");
        assert_eq!(snap.chaos_stalls, 1);
        assert_eq!(snap.chaos_worker_pauses, 1);
        // Two stalled lines complete; a reset kills the last one as io.
        s.settle_batch(Counter::Completed, 2);
        s.chaos_event(ChaosEvent::Reset);
        s.settle_batch(Counter::IoError, 1);
        s.conn_closed();
        let snap = s.snapshot();
        assert!(snap.conserved(), "{snap:?}");
        assert_eq!(snap.check_conservation(), Ok(()), "{snap:?}");
        assert_eq!(snap.chaos_resets, 1);
        assert_eq!(snap.chaos_events(), 3);
        assert_eq!((snap.completed, snap.io_errors), (2, 1));
    }

    /// The pipelined flow: a worker frames a burst, admits it in one
    /// transition, and settles it in one transition — the law must hold
    /// at every point in between, and socket churn stays outside it.
    #[test]
    fn batched_admit_and_settle_conserve() {
        let s = ServeStats::default();
        s.conn_opened();
        let depth = s.enqueue_started();
        s.enqueue_committed(depth);
        s.conn_dequeued();
        s.admit(32);
        let snap = s.snapshot();
        assert_eq!(snap.accepted, 32);
        assert_eq!(snap.connections, 32);
        assert_eq!(snap.in_flight, 32);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!((snap.conns_opened, snap.open_conns), (1, 1));
        assert_eq!(snap.check_conservation(), Ok(()), "{snap:?}");
        assert!(!snap.conserved());
        s.settle_batch(Counter::Completed, 30);
        s.settle_batch(Counter::BadRequest, 1);
        s.settle_batch(Counter::DeadlineExceeded, 1);
        s.conn_closed();
        let snap = s.snapshot();
        assert!(snap.conserved(), "{snap:?}");
        assert_eq!(snap.check_conservation(), Ok(()), "{snap:?}");
        assert_eq!(snap.completed, 30);
        assert_eq!(
            (snap.in_flight, snap.connections, snap.open_conns),
            (0, 0, 0)
        );
        assert_eq!(snap.conns_closed, 1);
        // Zero-sized transitions are no-ops, not lock traffic bugs.
        s.admit(0);
        s.settle_batch(Counter::Completed, 0);
        assert!(s.snapshot().conserved());
    }

    /// A connection turned away whole at admission: one shed unit,
    /// accepted and shed in one transition, plus open/close churn.
    #[test]
    fn whole_connection_shed_counts_one_unit() {
        let s = ServeStats::default();
        s.conn_opened();
        s.shed_at_admission();
        s.conn_closed();
        let snap = s.snapshot();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.shed_overloaded, 1);
        assert!(snap.conserved(), "{snap:?}");
        assert_eq!(snap.check_conservation(), Ok(()), "{snap:?}");
    }

    /// Tenant ledgers conserve on their own and never over-claim the
    /// global `accepted`: attribution follows admission, settles are
    /// paired, retired lines attribute-and-settle atomically.
    #[test]
    fn tenant_ledgers_conserve_and_stay_within_global() {
        let s = ServeStats::default();
        s.set_tenant_state_bytes("a", 4096);
        s.set_tenant_state_bytes("b", 2048);
        s.admit(6);
        s.tenant_admit("a", 3);
        s.tenant_admit("b", 2); // one admitted line stays unattributed
        let snap = s.snapshot();
        assert_eq!(snap.check_conservation(), Ok(()), "{snap:?}");
        assert_eq!(snap.tenant("a").unwrap().in_flight, 3);
        assert_eq!(snap.tenant("a").unwrap().state_bytes, 4096);
        // Mid-settle scrape: each law holds on its own ledger.
        s.tenant_settle("a", Counter::Completed, 2);
        s.tenant_settle("a", Counter::ShedOverloaded, 1);
        let snap = s.snapshot();
        assert_eq!(snap.check_conservation(), Ok(()), "{snap:?}");
        s.settle_batch(Counter::Completed, 2);
        s.settle_batch(Counter::ShedOverloaded, 1);
        s.tenant_settle("b", Counter::IoError, 2);
        s.settle_batch(Counter::IoError, 2);
        // A retired line: global admit + settle, tenant atomic pair.
        s.admit(1);
        s.tenant_mesh_retired("b", 1);
        s.settle_batch(Counter::MeshRetired, 1);
        s.set_tenant_state_bytes("b", 0);
        // The unattributed line settles globally only.
        s.settle_batch(Counter::BadRequest, 1);
        let snap = s.snapshot();
        assert!(snap.conserved(), "{snap:?}");
        assert_eq!(snap.check_conservation(), Ok(()), "{snap:?}");
        let b = snap.tenant("b").unwrap();
        assert_eq!((b.accepted, b.io_errors, b.mesh_retired), (3, 2, 1));
        assert_eq!(b.state_bytes, 0);
        assert_eq!(snap.mesh_retired, 1);
        assert_eq!(
            snap.tenants
                .iter()
                .map(|t| t.id.as_str())
                .collect::<Vec<_>>(),
            ["a", "b"],
            "snapshot rows sort by mesh id"
        );
        // A tenant claiming more than the global ledger admitted is
        // diagnosed.
        s.tenant_admit("a", 10);
        s.tenant_settle("a", Counter::Completed, 10);
        let why = s.snapshot().check_conservation().unwrap_err();
        assert!(why.contains("over-claim"), "{why}");
    }

    #[test]
    fn snapshots_are_consistent_under_concurrent_hammering() {
        // 4 writer threads push connections through the full lifecycle
        // while a reader thread scrapes continuously: every single
        // snapshot must satisfy the live law. This is the property the
        // single-lock design exists for.
        let s = ServeStats::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..2_000u64 {
                        if i % 7 == 0 {
                            s.shed_at_admission();
                        } else {
                            let depth = s.enqueue_started();
                            s.enqueue_committed(depth);
                            s.conn_dequeued();
                            s.admit(1);
                            s.record_phase(Phase::RouteCompute, i % 100);
                            s.settle_batch(
                                if i % 3 == 0 {
                                    Counter::DeadlineExceeded
                                } else {
                                    Counter::Completed
                                },
                                1,
                            );
                        }
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..5_000 {
                    let snap = s.snapshot();
                    if let Err(why) = snap.check_conservation() {
                        panic!("inconsistent scrape: {why}");
                    }
                }
            });
        });
        let end = s.snapshot();
        assert_eq!(end.accepted, 8_000);
        assert!(end.conserved(), "{end:?}");
    }
}
