//! Shared pieces: arguments, the routers under test, output checks,
//! order statistics and the result line.

use oblivion_core::{stretch_bound, Busch2D, BuschD, ObliviousRouter, PathQuery, RoutedPath};
use oblivion_mesh::{Coord, Mesh, NodeId, Submesh};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// `reference.json` of the benchmark (phase-B rate, sim statistics).
    pub reference: String,
    /// Self-check decorator: `wrong-endpoint` or `delay-us=<n>`.
    pub inject: Option<String>,
}

impl Args {
    /// Parses `--key value` pairs.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let get = |key: &str| -> Option<String> {
            argv.iter()
                .position(|a| a == key)
                .and_then(|i| argv.get(i + 1).cloned())
        };
        let workload = get("--workload").ok_or("missing --workload")?;
        let num = |v: Option<String>, what: &str| -> Result<f64, String> {
            v.ok_or(format!("missing {what}"))?
                .parse::<f64>()
                .map_err(|e| format!("bad {what}: {e}"))
        };
        let seed = get("--seed")
            .ok_or("missing --seed")?
            .parse::<u64>()
            .map_err(|e| format!("bad --seed: {e}"))?;
        let seconds = num(get("--seconds"), "--seconds")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let trace = match get("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("bad --trace `{other}`")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            reference: get("--reference").unwrap_or_else(|| "perfbench/reference.json".into()),
            inject: get("--inject"),
        })
    }
}

/// One of the two router families under test.
pub enum Router {
    /// `Busch2D` (Section 3, stretch ≤ 64).
    Two(Busch2D),
    /// `BuschD` (Section 4, stretch ≤ `stretch_bound(d)`).
    D(BuschD),
}

impl Router {
    /// The router as the program's public trait object.
    pub fn dynamic(&self) -> &dyn ObliviousRouter {
        match self {
            Router::Two(r) => r,
            Router::D(r) => r,
        }
    }

    /// The access-graph chain stage (used only by the traced split).
    pub fn chain_into(&self, s: &Coord, t: &Coord, chain: &mut Vec<Submesh>) {
        match self {
            Router::Two(r) => r.chain_into(s, t, chain),
            Router::D(r) => r.chain_into(s, t, chain),
        }
    }

    /// The paper's stretch guarantee for this router's mesh.
    pub fn stretch_limit(&self) -> f64 {
        match self {
            Router::Two(_) => 64.0,
            Router::D(r) => stretch_bound(r.mesh().dim()),
        }
    }
}

/// Builds the router `name` (`busch2d` or `buschd`) on `mesh`.
pub fn build_router(name: &str, mesh: &Mesh) -> Router {
    match name {
        "busch2d" => Router::Two(Busch2D::new(mesh.clone())),
        _ => Router::D(BuschD::new(mesh.clone())),
    }
}

/// Uniform random pairs with `src != dst`, each with its own query seed.
pub fn uniform_queries(mesh: &Mesh, n: usize, seed: u64) -> Vec<PathQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = mesh.node_count();
    (0..n)
        .map(|_| {
            let s = rng.gen_range(0..nodes);
            let mut t = rng.gen_range(0..nodes - 1);
            if t >= s {
                t += 1;
            }
            PathQuery {
                seed: rng.next_u64(),
                src: mesh.coord(NodeId(s)),
                dst: mesh.coord(NodeId(t)),
            }
        })
        .collect()
}

/// Checks one routed path against the paper's guarantees: a valid walk
/// with the asked endpoints, stretch within the router's theorem, and
/// random bits within the Lemma 5.4 budget `8·d·log2(2·dist·d)`.
pub fn check_path(router: &Router, q: &PathQuery, rp: &RoutedPath) -> Result<(), String> {
    let mesh = router.dynamic().mesh();
    let p = &rp.path;
    if p.nodes().is_empty() || p.source() != &q.src || p.target() != &q.dst {
        return Err(format!(
            "path for {:?}->{:?} has wrong endpoints",
            q.src, q.dst
        ));
    }
    if !p.is_valid(mesh) {
        return Err(format!("path for {:?}->{:?} is not a walk", q.src, q.dst));
    }
    let stretch = p.stretch(mesh);
    if stretch > router.stretch_limit() {
        return Err(format!("stretch {stretch} over the theorem bound"));
    }
    let d = mesh.dim() as f64;
    let dist = mesh.dist(&q.src, &q.dst) as f64;
    let budget = 8.0 * d * (2.0 * dist * d).log2().max(1.0);
    if rp.random_bits as f64 > budget {
        return Err(format!(
            "{} random bits over the budget {budget}",
            rp.random_bits
        ));
    }
    Ok(())
}

/// Output checks of one run: every attempted operation that fails a check
/// counts once in `failed`.
#[derive(Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Whole-run checks that failed (conservation, reference mismatch).
    pub broken: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed when `r` is an error.
    pub fn op(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.fail(e);
        }
    }

    /// Counts one more failure of an already counted operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("check failed: {why}");
        }
    }

    /// Records a failed whole-run check.
    pub fn broken(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.broken.push(why);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// Renders the `metrics` object.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { -1.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Median of unsorted samples (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Times `setup`: each sample is one batch of calls long enough to read
/// a clock well (at least 1 ms), divided by the batch size and scaled by
/// the host speed measured right after it; returns the median seconds per
/// call over `samples` batches, and the last value.
pub fn timed_setup<T>(samples: usize, reference: f64, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut batch = 1usize;
    let mut times = Vec::with_capacity(samples);
    let mut last = setup();
    while times.len() < samples {
        let t0 = Instant::now();
        for _ in 0..batch {
            last = std::hint::black_box(setup());
        }
        let dt = t0.elapsed();
        if dt < Duration::from_millis(1) {
            batch *= 2;
            continue;
        }
        let speed = Speed::sample(CHUNK_UNITS).rate();
        times.push(dt.as_secs_f64() / batch as f64 * speed / reference);
    }
    (median(&times), last)
}

/// Kernel units run per speed sample (about 2 ms).
pub const CHUNK_UNITS: u32 = 300;

/// Splits time-ordered samples into `windows` consecutive groups and
/// returns each group's p50, p90 and p99.
pub fn window_quantiles(xs: &[f64], windows: usize) -> Vec<[f64; 3]> {
    let per = xs.len().div_ceil(windows.max(1)).max(1);
    xs.chunks(per)
        .map(|c| [quantile(c, 0.5), quantile(c, 0.9), quantile(c, 0.99)])
        .collect()
}

/// The median over windows of each window's quantile `k` (0: p50, 1: p90,
/// 2: p99), so a burst of interference from outside moves one window, not
/// the figure.
pub fn across_windows(windows: &[[f64; 3]], k: usize) -> f64 {
    median(&windows.iter().map(|w| w[k]).collect::<Vec<_>>())
}

/// Host-speed meter. On a shared 2-vCPU guest, the vCPUs run at a speed
/// that drifts by ±20% over seconds as other guests load the host, which no
/// run length averages away. The benchmark therefore interleaves a fixed kernel of its
/// own (SipHash map inserts and lookups, vector growth: the kind of work
/// the router does) with the measured work, and scales CPU-bound figures
/// by the speed that kernel saw at the same moment.
#[derive(Default, Clone, Copy)]
pub struct Speed {
    units: f64,
    secs: f64,
}

impl Speed {
    /// Runs `units` of the kernel and adds them to the tally.
    pub fn run(&mut self, units: u32) {
        use std::collections::HashMap;
        let t0 = Instant::now();
        let mut acc = 0u64;
        for u in 0..units {
            let mut map: HashMap<u64, u32> = HashMap::with_capacity(64);
            let mut v: Vec<u64> = Vec::new();
            let mut x = u as u64 ^ 0x9E37_79B9_7F4A_7C15;
            for i in 0..128u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = x % 96;
                if let Some(&j) = map.get(&k) {
                    v.truncate(j as usize);
                } else {
                    map.insert(k, v.len() as u32);
                    v.push(k + i);
                }
            }
            acc = acc.wrapping_add(v.iter().sum::<u64>());
        }
        std::hint::black_box(acc);
        self.units += units as f64;
        self.secs += t0.elapsed().as_secs_f64();
    }

    /// Adds another meter's tally to this one.
    pub fn run_from(&mut self, other: &Speed) {
        self.units += other.units;
        self.secs += other.secs;
    }

    /// Kernel units per second over everything run so far.
    pub fn rate(&self) -> f64 {
        self.units / self.secs.max(1e-12)
    }

    /// Seconds spent in the kernel.
    pub fn secs(&self) -> f64 {
        self.secs
    }

    /// A fresh meter that has run `units`.
    pub fn sample(units: u32) -> Speed {
        let mut s = Speed::default();
        s.run(units);
        s
    }
}

/// A stretch of measured work and the host speed seen around it.
pub struct Chunk {
    /// Operations done.
    pub ops: f64,
    /// Seconds they took.
    pub secs: f64,
    /// Kernel units per second at the time.
    pub speed: f64,
}

/// Median over chunks of the operation rate, scaled to a host that runs
/// the kernel at `reference` units per second.
pub fn scaled_rate(chunks: &[Chunk], reference: f64) -> f64 {
    let rates: Vec<f64> = chunks
        .iter()
        .filter(|c| c.secs > 0.0)
        .map(|c| c.ops / c.secs * reference / c.speed)
        .collect();
    median(&rates)
}
