//! `sim-2d-online`: the sharded online engine on one thread.

use crate::common::Speed;
use oblivion_core::ObliviousRouter;
use oblivion_mesh::{Coord, Mesh, Path};
use oblivion_sim::{OnlineResult, OnlineSim, PathSource, SchedulingPolicy, UniformTraffic};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Injection probability per node per step: loaded, below saturation.
pub const RATE: f64 = 0.015;

/// The router as the engine's path source, as the CLI wires it.
pub struct Source<'a>(pub &'a dyn ObliviousRouter);

impl PathSource for Source<'_> {
    fn path(&self, s: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        self.0.select_path(s, t, rng).path
    }
    fn resample(&self, current: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        self.0.resample_path(current, t, rng).path
    }
}

/// Packets between host-speed samples (about one simulated step).
pub const SPEED_EVERY: u64 = 64;

/// The path source of untraced runs: the router, with a few units of the
/// host-speed kernel run every `SPEED_EVERY` packets, so a repetition can
/// be scaled by the speed the host ran at across it. The stretches between
/// samples time the engine at about one step each.
pub struct SpeedSource<'a> {
    inner: Source<'a>,
    calls: AtomicU64,
    meter: Mutex<Meter>,
}

#[derive(Default)]
struct Meter {
    speed: Speed,
    last: Option<Instant>,
    /// Host µs of each stretch of `SPEED_EVERY` packets, with the kernel
    /// speed sampled just before it.
    stretches: Vec<(f64, f64)>,
}

impl<'a> SpeedSource<'a> {
    /// Wraps `router`.
    pub fn new(router: &'a dyn ObliviousRouter) -> Self {
        Self {
            inner: Source(router),
            calls: AtomicU64::new(0),
            meter: Mutex::new(Meter::default()),
        }
    }

    /// The kernel tally and the `(µs, speed)` stretches of the run.
    pub fn finish(self) -> (Speed, Vec<(f64, f64)>) {
        let m = self.meter.into_inner().expect("speed meter poisoned");
        (m.speed, m.stretches)
    }
}

impl PathSource for SpeedSource<'_> {
    fn path(&self, s: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        if self.calls.fetch_add(1, Relaxed).is_multiple_of(SPEED_EVERY) {
            let mut m = self.meter.lock().expect("speed meter poisoned");
            let t0 = Instant::now();
            let mut sample = Speed::default();
            sample.run(20);
            let t1 = Instant::now();
            if let Some(last) = m.last {
                m.stretches
                    .push(((t0 - last).as_secs_f64() * 1e6, sample.rate()));
            }
            m.last = Some(t1);
            m.speed.run_from(&sample);
        }
        self.inner.path(s, t, rng)
    }
    fn resample(&self, current: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        self.inner.resample(current, t, rng)
    }
}

/// The traced source: times every route call and keeps the pairs asked.
/// Like [`SpeedSource`] it samples the host speed every `SPEED_EVERY`
/// packets, outside the timed calls.
pub struct TimedSource<'a> {
    inner: Source<'a>,
    /// Kernel units run and their seconds.
    pub speed: Mutex<Speed>,
    /// Nanoseconds inside the router.
    pub route_ns: AtomicU64,
    /// Route calls.
    pub calls: AtomicU64,
    /// `(src, dst)` of every call, in order.
    pub pairs: Mutex<Vec<(Coord, Coord)>>,
}

impl<'a> TimedSource<'a> {
    /// Wraps `router`.
    pub fn new(router: &'a dyn ObliviousRouter) -> Self {
        Self {
            inner: Source(router),
            speed: Mutex::new(Speed::default()),
            route_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            pairs: Mutex::new(Vec::new()),
        }
    }
}

impl PathSource for TimedSource<'_> {
    fn path(&self, s: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
        if self.calls.fetch_add(1, Relaxed).is_multiple_of(SPEED_EVERY) {
            self.speed.lock().expect("speed meter poisoned").run(20);
        }
        let t0 = Instant::now();
        let p = self.inner.path(s, t, rng);
        self.route_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.pairs.lock().expect("pair log poisoned").push((*s, *t));
        p
    }
}

/// The simulated statistics a run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Link traversals.
    pub hops: u64,
    /// Mean packet latency in steps.
    pub mean_latency: f64,
    /// 95th-percentile packet latency in steps.
    pub p95_latency: f64,
    /// Traversals of the busiest link.
    pub max_link_load: u64,
    /// Cross-shard packet handoffs.
    pub handoffs: u64,
    /// Steps run, drain included.
    pub steps_run: u64,
}

impl SimStats {
    /// Extracts the statistics of a result.
    pub fn of(r: &OnlineResult) -> Self {
        SimStats {
            injected: r.injected as u64,
            delivered: r.delivered as u64,
            hops: r.link_loads.iter().sum(),
            mean_latency: r.mean_latency,
            p95_latency: r.p95_latency,
            max_link_load: r.link_loads.iter().copied().max().unwrap_or(0),
            handoffs: r.sharding.map_or(0, |s| s.handoffs),
            steps_run: r.steps,
        }
    }

    /// The statistics as `(name, value)` pairs, in `reference.json` order.
    pub fn fields(&self) -> [(&'static str, f64); 8] {
        [
            ("injected", self.injected as f64),
            ("delivered", self.delivered as f64),
            ("hops", self.hops as f64),
            ("mean_latency_steps", self.mean_latency),
            ("p95_latency_steps", self.p95_latency),
            ("max_link_load", self.max_link_load as f64),
            ("shard_handoffs", self.handoffs as f64),
            ("steps_run", self.steps_run as f64),
        ]
    }
}

/// One simulation of `steps` steps plus drain through
/// `OnlineSim::run_sharded` with one thread; returns the result and the
/// host seconds it took.
pub fn run_once(
    mesh: &Mesh,
    source: &(dyn PathSource + Sync),
    steps: u64,
    seed: u64,
) -> (OnlineResult, f64) {
    let sim = OnlineSim::new(mesh, SchedulingPolicy::Fifo, RATE);
    let traffic = UniformTraffic::new(mesh.clone());
    let t0 = Instant::now();
    let r = sim.run_sharded(&traffic, source, steps, seed, 1);
    (r, t0.elapsed().as_secs_f64())
}
