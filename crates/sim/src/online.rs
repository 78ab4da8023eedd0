//! Continuous-arrival (online) simulation.
//!
//! The paper's opening motivation: "Oblivious algorithms are by their
//! nature distributed and capable of solving **online** routing problems,
//! where packets continuously arrive in the network." This module makes
//! that setting measurable: every node injects packets as a Bernoulli
//! process of rate `λ` (packets per node per step), destinations drawn
//! from a traffic pattern; each packet's path is fixed at injection by an
//! externally supplied path source (the oblivious router); links carry one
//! packet per step. The classic evaluation is mean latency vs offered
//! load: a good router's latency stays flat until `λ` approaches the
//! pattern's capacity limit, then diverges.
//!
//! Two engines share one contract. [`OnlineSim::run`] is the sequential
//! reference; [`OnlineSim::run_sharded`] partitions the mesh's links into
//! spatial shards and simulates them on a thread pool (see
//! [`crate::sharded`]). Both draw injections from the same main RNG
//! stream and give packet `k` a private path-selection RNG derived from
//! `(seed, k)`, so they produce **identical results** — the differential
//! tests in `tests/parallel_online.rs` hold them to that, field for
//! field, for any thread count.

use crate::checkpoint::{capture_obs, CheckpointCfg, EngineState, PacketState, StopReason};
use crate::stepper::{Adverse, BoundaryScalars, FaultClock, Pending, PhaseTimer, StepObs, Stepper};
use crate::SchedulingPolicy;
use oblivion_faults::{FaultPlan, RecoveryPolicy};
use oblivion_mesh::{Coord, EdgeId, Mesh, Path};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Where an injected packet wants to go.
pub trait TrafficPattern {
    /// Draws a destination for a packet injected at `src` (may equal
    /// `src`; such packets are counted as delivered instantly).
    fn destination(&self, src: &Coord, rng: &mut StdRng) -> Coord;
    /// Pattern name for reports.
    fn name(&self) -> String;
}

/// Uniformly random destinations.
pub struct UniformTraffic {
    mesh: Mesh,
}

impl UniformTraffic {
    /// Creates the pattern for a mesh.
    pub fn new(mesh: Mesh) -> Self {
        Self { mesh }
    }
}

impl TrafficPattern for UniformTraffic {
    fn destination(&self, _src: &Coord, rng: &mut StdRng) -> Coord {
        let id = oblivion_mesh::NodeId(rng.gen_range(0..self.mesh.node_count()));
        self.mesh.coord(id)
    }
    fn name(&self) -> String {
        "uniform".into()
    }
}

/// Deterministic per-source destination function (transpose, complement…).
pub struct FixedTraffic {
    /// Name for reports.
    pub pattern_name: String,
    /// The destination map.
    pub map: fn(&Coord) -> Coord,
}

impl TrafficPattern for FixedTraffic {
    fn destination(&self, src: &Coord, _rng: &mut StdRng) -> Coord {
        (self.map)(src)
    }
    fn name(&self) -> String {
        self.pattern_name.clone()
    }
}

/// A source of paths: called once per injected packet. Implemented by
/// wrapping an oblivious router; kept as a closure trait so the simulator
/// does not depend on `oblivion-core`.
pub trait PathSource {
    /// Produces the full path a packet injected at `s` for `t` will take.
    fn path(&self, s: &Coord, t: &Coord, rng: &mut StdRng) -> Path;

    /// Redraws a path for an in-flight packet stranded at `current` by a
    /// fault (the `resample` recovery policy). For an oblivious source a
    /// redraw is just another independent selection, so this defaults to
    /// [`Self::path`]; wrappers over `ObliviousRouter` forward to its
    /// `resample_path` entry point instead.
    fn resample(&self, current: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        self.path(current, t, rng)
    }
}

impl<F: Fn(&Coord, &Coord, &mut StdRng) -> Path> PathSource for F {
    fn path(&self, s: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        self(s, t, rng)
    }
}

/// Fault setup for an online run: the materialized plan plus what a
/// packet does when its next hop is down. `Copy` (it only borrows the
/// plan), so both engines can pass it around freely.
#[derive(Clone, Copy)]
pub struct Faults<'a> {
    /// The read-only fault schedule, queried at contention time.
    pub plan: &'a FaultPlan,
    /// What a blocked packet does.
    pub recovery: RecoveryPolicy,
    /// Adverse events (budget-consuming retries, resamples, dropped
    /// traversals) a packet survives before it is dead-lettered.
    pub retry_budget: u32,
}

/// Graceful-degradation tallies of a faulted run; `None` on
/// [`OnlineResult::faults`] when no fault plan was attached. All fields
/// are order-free sums, so they are bit-identical between the sequential
/// and sharded engines at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Packets abandoned after exhausting their retry budget, plus those
    /// addressed to a dead node.
    pub dead_letters: u64,
    /// Dead letters charged at injection (destination node was dead).
    pub dead_on_injection: u64,
    /// Path redraws performed by the `resample` recovery policy.
    pub resamples: u64,
    /// Traversals lost to per-link packet drop.
    pub drops: u64,
    /// Packet-steps spent blocked behind a down link.
    pub blocked: u64,
    /// Injection attempts skipped because the source node was dead.
    pub src_down_skips: u64,
    /// Links with at least one down interval in the plan.
    pub failed_links: u64,
    /// Dead nodes in the plan.
    pub failed_nodes: u64,
}

impl FaultStats {
    pub(crate) fn for_plan(plan: &FaultPlan) -> Self {
        Self {
            failed_links: plan.failed_links() as u64,
            failed_nodes: plan.failed_nodes() as u64,
            ..Self::default()
        }
    }
}

/// SplitMix64 mix, the standard seed expander (same constants as
/// `oblivion_core`'s parallel router driver).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The private path-selection RNG of the `idx`-th injected packet. A pure
/// function of `(seed, idx)`, so path selection can run in any order — or
/// in parallel — without changing the outcome.
pub(crate) fn route_rng_for(seed: u64, idx: u64) -> StdRng {
    let base = seed ^ 0xDEAD_BEEF;
    StdRng::seed_from_u64(splitmix64(base ^ splitmix64(idx)))
}

/// Contention key of packet `id` for the one-packet-per-link rule: the
/// minimum key wins. Appending the packet id makes keys unique, so the
/// winner is independent of the order contenders are examined in.
pub(crate) fn policy_key(
    policy: SchedulingPolicy,
    arrived_at: u64,
    rank: u64,
    remaining: u64,
    id: u64,
) -> (u64, u64) {
    match policy {
        SchedulingPolicy::Fifo => (arrived_at, id),
        SchedulingPolicy::FurthestToGo => (u64::MAX - remaining, id),
        SchedulingPolicy::ClosestToGo => (remaining, id),
        SchedulingPolicy::RandomRank => (rank, id),
    }
}

/// Deterministic statistics of a sharded run (identical for every thread
/// count; see [`crate::sharded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSummary {
    /// Number of spatial shards the mesh's links were partitioned into.
    pub shards: usize,
    /// Total cross-shard packet handoffs over the run.
    pub handoffs: u64,
    /// Largest per-step spread between the busiest and idlest shard's
    /// live packet count.
    pub max_imbalance: u64,
}

/// Result of an online run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineResult {
    /// Steps simulated.
    pub steps: u64,
    /// Packets injected (excluding self-addressed no-ops).
    pub injected: usize,
    /// Packets delivered within the horizon.
    pub delivered: usize,
    /// Mean latency (injection → delivery) of delivered packets.
    pub mean_latency: f64,
    /// 95th-percentile latency of delivered packets.
    pub p95_latency: f64,
    /// Packets still in flight at the horizon.
    pub in_flight: usize,
    /// Delivered packets per node per step — the accepted throughput.
    pub throughput: f64,
    /// Total traversals of each link over the run, indexed by `EdgeId` —
    /// the online analogue of the offline congestion map.
    pub link_loads: Vec<u64>,
    /// Shard statistics when the sharded engine ran; `None` for
    /// [`OnlineSim::run`].
    pub sharding: Option<ShardSummary>,
    /// Fault tallies when a fault plan was attached; `None` otherwise.
    pub faults: Option<FaultStats>,
}

impl OnlineResult {
    /// Builds the result from raw per-run tallies. Latencies are integer
    /// step counts summed exactly in `u64`, so the derived means are
    /// bit-identical no matter what order deliveries were recorded in —
    /// the property the sharded engine's determinism contract rests on.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        mesh: &Mesh,
        steps: u64,
        injected: usize,
        mut latencies: Vec<u64>,
        in_flight: usize,
        link_loads: Vec<u64>,
        sharding: Option<ShardSummary>,
        faults: Option<FaultStats>,
    ) -> Self {
        let delivered = latencies.len();
        let mean_latency = if delivered > 0 {
            latencies.iter().sum::<u64>() as f64 / delivered as f64
        } else {
            0.0
        };
        let p95_latency = if delivered > 0 {
            latencies.sort_unstable();
            latencies[((delivered - 1) as f64 * 0.95) as usize] as f64
        } else {
            0.0
        };
        Self {
            steps,
            injected,
            delivered,
            mean_latency,
            p95_latency,
            in_flight,
            throughput: delivered as f64 / (mesh.node_count() as f64 * steps as f64),
            link_loads,
            sharding,
            faults,
        }
    }

    /// Fraction of injected packets delivered within the horizon — the
    /// headline graceful-degradation metric. `1.0` for an empty run.
    pub fn delivered_fraction(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// `true` when two runs produced the same simulation outcome —
    /// every field except [`Self::sharding`], which records *how* the
    /// work was organized rather than *what* happened. Used by the
    /// differential tests comparing the sequential and sharded engines.
    pub fn same_outcome(&self, other: &Self) -> bool {
        self.steps == other.steps
            && self.injected == other.injected
            && self.delivered == other.delivered
            && self.mean_latency.to_bits() == other.mean_latency.to_bits()
            && self.p95_latency.to_bits() == other.p95_latency.to_bits()
            && self.in_flight == other.in_flight
            && self.throughput.to_bits() == other.throughput.to_bits()
            && self.link_loads == other.link_loads
            && self.faults == other.faults
    }
}

/// Configuration of an online run.
pub struct OnlineSim<'a> {
    mesh: &'a Mesh,
    policy: SchedulingPolicy,
    /// Injection probability per node per step.
    rate: f64,
    faults: Option<Faults<'a>>,
}

struct Flight {
    path: Path,
    pos: usize,
    injected_at: u64,
    arrived_at: u64,
    rank: u64,
    /// Injection index: the packet's run-global identity for fault
    /// decisions (drop hashes, resample RNGs).
    inj: u64,
    /// Fault-recovery clock (shared transition rules in `stepper`).
    clock: FaultClock,
    dead: bool,
}

/// Installs a freshly resampled path on `f`, drawn from the plan's
/// derived RNG for `(f.inj, attempts)`. The packet restarts at position
/// 0 of the new path and may not act again before `t + 1`.
fn resample_flight(
    f: &mut Flight,
    fx: &Faults<'_>,
    paths: &dyn PathSource,
    mesh: &Mesh,
    attempts: u32,
    t: u64,
) {
    let cur = f.path.nodes()[f.pos];
    let dst = *f.path.nodes().last().expect("non-empty path");
    let mut rng = fx.plan.resample_rng(f.inj, attempts);
    let np = paths.resample(&cur, &dst, &mut rng);
    debug_assert!(np.is_valid(mesh), "resampled path invalid");
    f.path = np;
    f.pos = 0;
    f.clock.resampled(attempts, t);
}

impl<'a> OnlineSim<'a> {
    /// Creates an online simulation at injection rate `rate` (packets per
    /// node per step, `0 ≤ rate ≤ 1`).
    pub fn new(mesh: &'a Mesh, policy: SchedulingPolicy, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        Self {
            mesh,
            policy,
            rate,
            faults: None,
        }
    }

    /// Attaches a fault plan and recovery policy. Fault decisions never
    /// touch the main injection RNG stream (they use the plan's own
    /// derived randomness), so a run with a trivial plan is bit-identical
    /// to a run with no plan at all — except that the result then carries
    /// `Some(FaultStats)`.
    pub fn with_faults(mut self, faults: Faults<'a>) -> Self {
        self.faults = Some(faults);
        self
    }

    pub(crate) fn fault_setup(&self) -> Option<Faults<'a>> {
        self.faults
    }

    /// The mesh being simulated.
    pub fn mesh(&self) -> &'a Mesh {
        self.mesh
    }

    /// The link-contention policy.
    pub fn policy(&self) -> SchedulingPolicy {
        self.policy
    }

    /// The per-node Bernoulli injection rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Runs for `steps` steps (plus a drain phase of up to `steps` more in
    /// which no new packets are injected), returning latency/throughput
    /// statistics. Sequential reference engine; produces the same result
    /// as [`Self::run_sharded`] at any thread count.
    pub fn run(
        &self,
        pattern: &dyn TrafficPattern,
        paths: &dyn PathSource,
        steps: u64,
        seed: u64,
    ) -> OnlineResult {
        match self.run_ckpt(pattern, paths, steps, seed, None, None) {
            Ok(r) => r,
            Err(stop) => unreachable!("uncheckpointed run cannot stop early: {stop}"),
        }
    }

    /// [`Self::run`] with checkpoint/restore: `ckpt` enables periodic and
    /// shutdown snapshots, `resume` continues from a decoded snapshot. A
    /// resumed run produces an [`OnlineResult`] identical to an
    /// uninterrupted run of the same configuration.
    pub fn run_ckpt(
        &self,
        pattern: &dyn TrafficPattern,
        paths: &dyn PathSource,
        steps: u64,
        seed: u64,
        ckpt: Option<&CheckpointCfg<'_>>,
        resume: Option<&EngineState>,
    ) -> Result<OnlineResult, StopReason> {
        let _span = oblivion_obs::span("online_sim");
        let mut sp = Stepper::new(self.rate, self.faults, steps, seed, ckpt, resume);
        let nodes: Vec<Coord> = self.mesh.coords().collect();
        let mut flights: Vec<Flight> = Vec::new();
        let mut active: Vec<usize> = Vec::new();
        let mut latencies: Vec<u64> = Vec::new();
        let mut link_loads = vec![0u64; self.mesh.edge_count()];
        let mut pending: Vec<Pending> = Vec::new();
        let mut contenders: HashMap<usize, Vec<usize>> = HashMap::new();

        if let Some(st) = resume {
            latencies = st.latencies.clone();
            link_loads.clone_from(&st.link_loads);
            // Rebuild the flight arena at its pre-stop length: live
            // packets in place, inert dummies where delivered/dead ones
            // sat, so post-resume packets get identical indices (ids).
            let mut live = st.packets.iter().peekable();
            for id in 0..st.arena_len as usize {
                if live.peek().is_some_and(|p| p.id as usize == id) {
                    let p = live.next().expect("peeked");
                    flights.push(Flight {
                        path: p.to_path(self.mesh),
                        pos: p.pos as usize,
                        injected_at: p.injected_at,
                        arrived_at: p.arrived,
                        rank: p.rank,
                        inj: p.inj,
                        clock: FaultClock::restore(p.attempts, p.backoff_until),
                        dead: false,
                    });
                    active.push(id);
                } else {
                    flights.push(Flight {
                        path: Path::trivial(self.mesh.coord(oblivion_mesh::NodeId(0))),
                        pos: 0,
                        injected_at: 0,
                        arrived_at: 0,
                        rank: 0,
                        inj: 0,
                        clock: FaultClock::default(),
                        dead: true,
                    });
                }
            }
        }
        let mut timer = PhaseTimer::idle();
        while sp.running(active.len()) {
            if let Some(stop) = sp.boundary(|scalars| {
                capture_sequential(
                    self.mesh,
                    scalars,
                    &flights,
                    &active,
                    &latencies,
                    &link_loads,
                )
            }) {
                return Err(stop);
            }
            timer.start();
            // Injection phase: draw from the main RNG (stepper), then
            // route each pending inline — its private route RNG is a pure
            // function of `(seed, idx)`, so routing order is immaterial.
            sp.draw_injections(self.mesh, &nodes, pattern, &mut pending);
            let t = sp.t;
            for pj in &pending {
                let mut prng = route_rng_for(seed, pj.idx);
                let path = paths.path(&pj.src, &pj.dst, &mut prng);
                debug_assert!(path.is_valid(self.mesh));
                if path.is_empty() {
                    latencies.push(0);
                    continue;
                }
                flights.push(Flight {
                    path,
                    pos: 0,
                    injected_at: t,
                    arrived_at: t,
                    rank: pj.rank,
                    inj: pj.idx,
                    clock: FaultClock::default(),
                    dead: false,
                });
                active.push(flights.len() - 1);
            }
            timer.inject_done();
            // Movement phase. A packet whose next link is down does not
            // contend this step; its recovery policy decides what it
            // does instead.
            contenders.clear();
            for &i in &active {
                let e = {
                    let f = &flights[i];
                    let p = f.path.nodes();
                    self.mesh.edge_id(&p[f.pos], &p[f.pos + 1])
                };
                if let Some(fx) = &sp.faults {
                    if fx.plan.link_down(e, t) {
                        let fs = sp.fstats.as_mut().unwrap();
                        fs.blocked += 1;
                        let f = &mut flights[i];
                        match f.clock.adverse(fx, t) {
                            Adverse::Hold => {}
                            Adverse::DeadLetter => {
                                f.dead = true;
                                fs.dead_letters += 1;
                            }
                            Adverse::Resample { attempts } => {
                                fs.resamples += 1;
                                resample_flight(f, fx, paths, self.mesh, attempts, t);
                            }
                        }
                        continue;
                    }
                }
                contenders.entry(e.0).or_default().push(i);
            }
            let max_group = contenders.values().map(Vec::len).max().unwrap_or(0) as u64;
            let busy = contenders.len() as u64;
            for (&e, group) in &contenders {
                let &winner = group
                    .iter()
                    .min_by_key(|&&i| {
                        let f = &flights[i];
                        policy_key(
                            self.policy,
                            f.arrived_at,
                            f.rank,
                            (f.path.len() - f.pos) as u64,
                            i as u64,
                        )
                    })
                    .unwrap();
                let f = &mut flights[winner];
                // The winning traversal can still lose the packet to
                // per-link drop; the recovery policy then decides
                // whether it is re-sent (from the same node) or dies.
                if let Some(fx) = &sp.faults {
                    if fx.plan.drops(EdgeId(e), t, f.inj) {
                        let fs = sp.fstats.as_mut().unwrap();
                        fs.drops += 1;
                        match f.clock.adverse(fx, t) {
                            Adverse::Hold => {}
                            Adverse::DeadLetter => {
                                f.dead = true;
                                fs.dead_letters += 1;
                            }
                            Adverse::Resample { attempts } => {
                                fs.resamples += 1;
                                resample_flight(f, fx, paths, self.mesh, attempts, t);
                            }
                        }
                        continue;
                    }
                    // A completed hop clears the recovery state.
                    f.clock.progressed();
                }
                f.pos += 1;
                f.arrived_at = t + 1;
                link_loads[e] += 1;
                if f.pos == f.path.len() {
                    latencies.push(t + 1 - f.injected_at);
                }
            }
            active.retain(|&i| !flights[i].dead && flights[i].pos < flights[i].path.len());
            timer.move_done();
            sp.end_step(
                active.len(),
                StepObs {
                    max_group,
                    busy,
                    shard: None,
                },
            );
        }

        sp.finish(None);
        Ok(OnlineResult::assemble(
            self.mesh,
            steps,
            sp.injected,
            latencies,
            active.len(),
            link_loads,
            None,
            sp.fstats,
        ))
    }

    /// Runs the same simulation on the sharded parallel engine with
    /// `threads` worker threads (`1` runs inline with no threads spawned).
    ///
    /// Deterministic: the outcome — every [`OnlineResult`] field,
    /// including [`OnlineResult::sharding`] — is a pure function of the
    /// configuration, `steps`, and `seed`; the thread count only changes
    /// wall-clock time. The outcome also matches [`Self::run`] (see
    /// [`OnlineResult::same_outcome`]).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn run_sharded(
        &self,
        pattern: &dyn TrafficPattern,
        paths: &(dyn PathSource + Sync),
        steps: u64,
        seed: u64,
        threads: usize,
    ) -> OnlineResult {
        match self.run_sharded_ckpt(pattern, paths, steps, seed, threads, None, None) {
            Ok(r) => r,
            Err(stop) => unreachable!("uncheckpointed run cannot stop early: {stop}"),
        }
    }

    /// [`Self::run_sharded`] with checkpoint/restore. Snapshots are
    /// captured at step boundaries, where the coordinator has exclusive
    /// access, and their bytes are canonical: the same configuration
    /// stopped at the same step yields the same snapshot (and CRC) at any
    /// thread count — and the same final result after resume.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sharded_ckpt(
        &self,
        pattern: &dyn TrafficPattern,
        paths: &(dyn PathSource + Sync),
        steps: u64,
        seed: u64,
        threads: usize,
        ckpt: Option<&CheckpointCfg<'_>>,
        resume: Option<&EngineState>,
    ) -> Result<OnlineResult, StopReason> {
        crate::sharded::run_sharded_ckpt(self, pattern, paths, steps, seed, threads, ckpt, resume)
    }
}

/// Builds the canonical [`EngineState`] of the sequential engine at the
/// start of a step. Latencies are sorted (their order is immaterial to
/// the result) so that, with observability disabled, the bytes match the
/// sharded engine's capture at the same step (the sharded engine keeps
/// two extra obs counters and real handoff/imbalance totals).
fn capture_sequential(
    mesh: &Mesh,
    scalars: &BoundaryScalars<'_>,
    flights: &[Flight],
    active: &[usize],
    latencies: &[u64],
    link_loads: &[u64],
) -> EngineState {
    let packets = active
        .iter()
        .map(|&i| {
            let f = &flights[i];
            PacketState {
                id: i as u64,
                inj: f.inj,
                injected_at: f.injected_at,
                arrived: f.arrived_at,
                rank: f.rank,
                pos: f.pos as u64,
                attempts: f.clock.attempts,
                backoff_until: f.clock.backoff_until,
                path: f
                    .path
                    .nodes()
                    .iter()
                    .map(|c| mesh.node_id(c).0 as u64)
                    .collect(),
            }
        })
        .collect();
    let mut sorted_latencies = latencies.to_vec();
    sorted_latencies.sort_unstable();
    EngineState {
        t: scalars.t,
        rng: scalars.rng.state(),
        injected: scalars.injected as u64,
        inj_idx: scalars.inj_idx,
        arena_len: flights.len() as u64,
        handoffs_total: 0,
        max_imbalance: 0,
        latencies: sorted_latencies,
        link_loads: link_loads.to_vec(),
        packets,
        fstats: *scalars.fstats,
        obs: capture_obs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shortest_paths(mesh: &Mesh) -> impl Fn(&Coord, &Coord, &mut StdRng) -> Path + Sync + '_ {
        move |s: &Coord, t: &Coord, _rng: &mut StdRng| {
            // Dimension-order shortest path.
            let mut nodes = vec![*s];
            let mut cur = *s;
            for axis in 0..mesh.dim() {
                while let Some(next) = mesh.step_towards(&cur, t[axis], axis) {
                    nodes.push(next);
                    cur = next;
                }
            }
            Path::new_unchecked(nodes)
        }
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.0);
        let r = sim.run(
            &UniformTraffic::new(mesh.clone()),
            &shortest_paths(&mesh),
            100,
            1,
        );
        assert_eq!(r.injected, 0);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.throughput, 0.0);
        assert!(r.link_loads.iter().all(|&l| l == 0));
    }

    #[test]
    fn low_rate_latency_near_distance() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.01);
        let r = sim.run(
            &UniformTraffic::new(mesh.clone()),
            &shortest_paths(&mesh),
            500,
            2,
        );
        assert!(r.injected > 0);
        // Uncongested: latency ~= mean distance (~16/3 per axis * 2 ≈ 5.3).
        assert!(r.mean_latency < 12.0, "latency {}", r.mean_latency);
        assert!(r.delivered + r.in_flight <= r.injected);
    }

    #[test]
    fn saturation_grows_latency() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let pattern = UniformTraffic::new(mesh.clone());
        let lat = |rate: f64| {
            let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, rate);
            sim.run(&pattern, &shortest_paths(&mesh), 400, 3)
                .mean_latency
        };
        let low = lat(0.02);
        let high = lat(0.9);
        assert!(
            high > 2.0 * low,
            "saturated latency {high} should dwarf unloaded latency {low}"
        );
    }

    #[test]
    fn drain_phase_delivers_everything_at_low_rate() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let sim = OnlineSim::new(&mesh, SchedulingPolicy::FurthestToGo, 0.02);
        let r = sim.run(
            &UniformTraffic::new(mesh.clone()),
            &shortest_paths(&mesh),
            200,
            4,
        );
        assert_eq!(r.in_flight, 0, "low-rate run should fully drain");
        assert_eq!(r.delivered, r.injected);
        // Every delivered packet traversed at least one link (or was an
        // instant delivery), so the load map accounts for the traffic.
        assert!(r.link_loads.iter().sum::<u64>() >= r.delivered as u64 / 2);
    }

    #[test]
    fn fixed_traffic_pattern() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let pattern = FixedTraffic {
            pattern_name: "transpose".into(),
            map: |c| Coord::new(&[c[1], c[0]]),
        };
        assert_eq!(pattern.name(), "transpose");
        let sim = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 0.05);
        let r = sim.run(&pattern, &shortest_paths(&mesh), 300, 5);
        assert!(r.delivered > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mesh = Mesh::new_mesh(&[8, 8]);
        let pattern = UniformTraffic::new(mesh.clone());
        let run = |seed| {
            let sim = OnlineSim::new(&mesh, SchedulingPolicy::RandomRank, 0.1);
            let r = sim.run(&pattern, &shortest_paths(&mesh), 200, seed);
            (r.injected, r.delivered, r.mean_latency.to_bits())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn per_packet_route_rng_is_stable() {
        // The k-th packet's route RNG must not depend on how many packets
        // came before it in the same step — only on (seed, k).
        let mut a = route_rng_for(42, 7);
        let mut b = route_rng_for(42, 7);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        let mut c = route_rng_for(42, 8);
        let mut d = route_rng_for(43, 7);
        let x = route_rng_for(42, 7).gen::<u64>();
        assert_ne!(c.gen::<u64>(), x);
        assert_ne!(d.gen::<u64>(), x);
    }

    #[test]
    #[should_panic]
    fn bad_rate_rejected() {
        let mesh = Mesh::new_mesh(&[4, 4]);
        let _ = OnlineSim::new(&mesh, SchedulingPolicy::Fifo, 1.5);
    }
}
