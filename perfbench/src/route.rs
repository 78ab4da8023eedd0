//! `route-2d-long`: bursts of 64 through `ObliviousRouter::route_batch`,
//! plus the self-check decorators.

use crate::common::{check_path, scaled_rate, Checks, Chunk, Router, Speed, CHUNK_UNITS};
use oblivion_core::{ObliviousRouter, PathQuery, RoutedPath};
use oblivion_mesh::{Coord, Mesh, Path};
use rand::RngCore;
use std::time::{Duration, Instant};

/// Queries per `route_batch` call: the server's default burst.
pub const BURST: usize = 64;

/// Bursts per chunk: each chunk starts with a host-speed sample.
const CHUNK_BURSTS: usize = 32;

/// Timings of the untraced route loop.
pub struct RouteRun {
    /// Microseconds per `route_batch` call, scaled to the reference speed.
    pub batch_us: Vec<f64>,
    /// Paths per second at the reference speed: median over chunks.
    pub paths_per_s: f64,
    /// Paths per second of wall time inside `route_batch`, unscaled.
    pub wall_paths_per_s: f64,
}

/// Routes `queries` in bursts, cycling through them, for `budget` of wall
/// time after a short warm-up, checking every path. Only the
/// `route_batch` calls are timed; every chunk of bursts starts with a
/// host-speed sample that scales its figures to `reference` speed.
pub fn run(
    router: &Router,
    entry: &dyn ObliviousRouter,
    queries: &[PathQuery],
    budget: Duration,
    reference: f64,
    checks: &mut Checks,
) -> RouteRun {
    let mut out: Vec<RoutedPath> = Vec::with_capacity(BURST);
    let bursts: Vec<&[PathQuery]> = queries.chunks(BURST).collect();
    let warm_until = Instant::now() + budget.mul_f64(0.05);
    let mut i = 0;
    while Instant::now() < warm_until {
        entry.route_batch(bursts[i % bursts.len()], &mut out);
        i += 1;
    }
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut batch_us = Vec::new();
    let end = Instant::now() + budget;
    let mut i = 0;
    while Instant::now() < end {
        if i % CHUNK_BURSTS == 0 {
            chunks.push(Chunk {
                ops: 0.0,
                secs: 0.0,
                speed: Speed::sample(CHUNK_UNITS).rate(),
            });
        }
        let chunk = chunks.last_mut().expect("a chunk is open");
        let burst = bursts[i % bursts.len()];
        let t0 = Instant::now();
        entry.route_batch(burst, &mut out);
        let dt = t0.elapsed().as_secs_f64();
        chunk.ops += burst.len() as f64;
        chunk.secs += dt;
        batch_us.push(dt * 1e6 * chunk.speed / reference);
        if out.len() != burst.len() {
            checks.broken(format!(
                "route_batch answered {} of {}",
                out.len(),
                burst.len()
            ));
        }
        for (q, rp) in burst.iter().zip(&out) {
            checks.op(check_path(router, q, rp));
        }
        i += 1;
    }
    let ops: f64 = chunks.iter().map(|c| c.ops).sum();
    let secs: f64 = chunks.iter().map(|c| c.secs).sum();
    RouteRun {
        paths_per_s: scaled_rate(&chunks, reference),
        wall_paths_per_s: ops / secs.max(1e-12),
        batch_us,
    }
}

/// A decorator that breaks every 16th path by dropping its last hop: the
/// output checks must catch it.
pub struct WrongEndpoint<'a>(pub &'a dyn ObliviousRouter);

/// A decorator that adds a fixed busy delay per path: the throughput
/// bound must catch it.
pub struct Delay<'a>(pub &'a dyn ObliviousRouter, pub Duration);

fn truncate(rp: &mut RoutedPath) {
    let nodes = rp.path.nodes();
    if nodes.len() >= 2 {
        rp.path = Path::new_unchecked(nodes[..nodes.len() - 1].to_vec());
    }
}

impl ObliviousRouter for WrongEndpoint<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn mesh(&self) -> &Mesh {
        self.0.mesh()
    }
    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        let mut rp = self.0.select_path(s, t, rng);
        truncate(&mut rp);
        rp
    }
    fn route_batch(&self, queries: &[PathQuery], out: &mut Vec<RoutedPath>) {
        self.0.route_batch(queries, out);
        for rp in out.iter_mut().step_by(16) {
            truncate(rp);
        }
    }
}

impl ObliviousRouter for Delay<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn mesh(&self) -> &Mesh {
        self.0.mesh()
    }
    fn select_path(&self, s: &Coord, t: &Coord, rng: &mut dyn RngCore) -> RoutedPath {
        spin(self.1);
        self.0.select_path(s, t, rng)
    }
    fn route_batch(&self, queries: &[PathQuery], out: &mut Vec<RoutedPath>) {
        spin(self.1 * queries.len() as u32);
        self.0.route_batch(queries, out);
    }
}

fn spin(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}
