//! The traced split: one span per layer call, kept in memory until the
//! run ends. Only this module names stage functions (`chain_into`,
//! `BitMeter`, `path_through_chain`, `Path::remove_cycles`) and the wire
//! layer's pieces; end-to-end runs go through the public entry points.

use crate::alloc;
use crate::common::{median, Router, Speed};
use crate::route::BURST;
use crate::serve::Line;
use oblivion_core::{path_through_chain, BitMeter, PathQuery, RandomnessMode, RoutedPath};
use oblivion_mesh::Submesh;
use oblivion_serve::wire::{format_path_line_with_id, parse_request, Request, MAX_REQUEST_LINE};
use oblivion_wire::{FrameBuf, Framed};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Kernel units per host-speed sample of the traced split (about 0.6 ms,
/// once per burst).
const SPAN_UNITS: u32 = 100;

/// Layer names, indexed by [`Span::layer`].
pub const LAYERS: [&str; 9] = [
    "path",
    "core.seed",
    "decomp.chain",
    "core.waypoints",
    "mesh.remove_cycles",
    "wire.frame",
    "serve.parse",
    "core.route",
    "serve.format",
];

/// One timed call: layer, the operation it served, the span that caused
/// it (`u32::MAX` for a root), and start/end in ns since the trace epoch.
#[derive(Clone, Copy)]
pub struct Span {
    /// Index into [`LAYERS`].
    pub layer: u8,
    /// Path or line number.
    pub op: u32,
    /// Index of the parent span.
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Host-speed factor when the span ran: its durations times this are
    /// nanoseconds at the reference speed (see [`Speed`]).
    pub scale: f32,
}

/// In-memory span store.
pub struct Trace {
    epoch: Instant,
    scale: f32,
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace with room for `cap` spans.
    pub fn new(cap: usize) -> Self {
        Trace {
            epoch: Instant::now(),
            scale: 1.0,
            spans: Vec::with_capacity(cap),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Samples the host speed; spans pushed from now on carry its factor
    /// to `reference` speed.
    pub fn sample_speed(&mut self, reference: f64) {
        self.scale = (Speed::sample(SPAN_UNITS).rate() / reference) as f32;
    }

    /// Records a span from `start` to `end`; returns its index.
    pub fn push(&mut self, layer: u8, op: u32, parent: u32, start: Instant, end: Instant) -> u32 {
        let span = Span {
            layer,
            op,
            parent,
            start: self.ns(start),
            end: self.ns(end),
            scale: self.scale,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Total self time per layer (duration minus the children's), in ns
    /// at the reference speed.
    pub fn self_ns(&self) -> [f64; LAYERS.len()] {
        let mut total = [0f64; LAYERS.len()];
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end - s.start).saturating_sub(child[i]);
            total[s.layer as usize] += own as f64 * f64::from(s.scale);
        }
        total
    }
}

/// What the staged split measured over a path population.
#[derive(Default)]
pub struct StageReport {
    /// Paths split.
    pub paths: u64,
    /// Paths whose staged nodes or bits differ from `route_batch`.
    pub mismatches: u64,
    /// Self ns per path of seed, chain, way-points, cycle removal.
    pub stage_ns: [f64; 4],
    /// Allocations per path (0 when the allocator does not count).
    pub allocs_per_path: f64,
    /// Bytes allocated per path.
    pub bytes_per_path: f64,
    /// Nodes of the walk before cycle removal, per path.
    pub walk_nodes: f64,
    /// Nodes of the emitted path, per path.
    pub path_nodes: f64,
    /// Mean chain length (submeshes).
    pub chain_len: f64,
    /// Mean random bits.
    pub bits_mean: f64,
    /// Maximum random bits.
    pub bits_max: u64,
    /// Largest stretch.
    pub stretch_max: f64,
    /// Paths per second of the traced split (for the tracing overhead).
    pub paths_per_s: f64,
}

/// Splits each query's selection into its stages, timing each call and
/// checking that the stages reproduce `route_batch`'s nodes and random
/// bits for every path.
pub fn split(
    router: &Router,
    queries: &[PathQuery],
    reference: f64,
    trace: &mut Trace,
) -> StageReport {
    let entry = router.dynamic();
    let mesh = entry.mesh();
    let mut rep = StageReport::default();
    let mut out: Vec<RoutedPath> = Vec::new();
    let mut chain: Vec<Submesh> = Vec::new();
    let (mut walk, mut nodes, mut chain_len, mut bits) = (0u64, 0u64, 0u64, 0u64);
    let mut busy = 0.0;
    let (a0, b0) = alloc::counts();
    for (b, burst) in queries.chunks(BURST).enumerate() {
        entry.route_batch(burst, &mut out);
        trace.sample_speed(reference);
        let burst_start = Instant::now();
        alloc::set_counting(true);
        for (i, (q, want)) in burst.iter().zip(&out).enumerate() {
            let op = (b * BURST + i) as u32;
            let t0 = Instant::now();
            let mut rng = StdRng::seed_from_u64(q.seed);
            let t1 = Instant::now();
            router.chain_into(&q.src, &q.dst, &mut chain);
            let t2 = Instant::now();
            let mut meter = BitMeter::new(&mut rng);
            let mut path = path_through_chain(mesh, &chain, RandomnessMode::Recycled, &mut meter);
            let used = meter.bits_used();
            let t3 = Instant::now();
            let walked = path.nodes().len();
            path.remove_cycles();
            let t4 = Instant::now();
            let root = trace.push(0, op, u32::MAX, t0, t4);
            trace.push(1, op, root, t0, t1);
            trace.push(2, op, root, t1, t2);
            trace.push(3, op, root, t2, t3);
            trace.push(4, op, root, t3, t4);
            if path.nodes() != want.path.nodes() || used != want.random_bits {
                rep.mismatches += 1;
            }
            walk += walked as u64;
            nodes += path.nodes().len() as u64;
            chain_len += chain.len() as u64;
            bits += used;
            rep.bits_max = rep.bits_max.max(used);
            rep.stretch_max = rep.stretch_max.max(path.stretch(mesh));
        }
        alloc::set_counting(false);
        busy += burst_start.elapsed().as_secs_f64();
    }
    let (a1, b1) = alloc::counts();
    let n = queries.len().max(1) as f64;
    rep.paths = queries.len() as u64;
    let self_ns = trace.self_ns();
    for (k, ns) in rep.stage_ns.iter_mut().enumerate() {
        *ns = self_ns[k + 1] / n;
    }
    rep.allocs_per_path = (a1 - a0) as f64 / n;
    rep.bytes_per_path = (b1 - b0) as f64 / n;
    rep.walk_nodes = walk as f64 / n;
    rep.path_nodes = nodes as f64 / n;
    rep.chain_len = chain_len as f64 / n;
    rep.bits_mean = bits as f64 / n;
    rep.paths_per_s = n / busy.max(1e-9);
    rep
}

/// `route_batch` time over `queries` with obs on ÷ with obs off (median
/// of alternating passes). Leaves obs as it found it.
pub fn obs_slowdown(router: &Router, queries: &[PathQuery], passes: usize) -> f64 {
    let was_on = oblivion_obs::is_enabled();
    let mut out = Vec::new();
    let mut time = |on: bool| {
        if on {
            oblivion_obs::enable();
        } else {
            oblivion_obs::disable();
        }
        let t0 = Instant::now();
        for burst in queries.chunks(BURST) {
            router.dynamic().route_batch(burst, &mut out);
        }
        t0.elapsed().as_secs_f64()
    };
    let mut ratios = Vec::new();
    for _ in 0..passes {
        let off = time(false);
        let on = time(true);
        ratios.push(on / off.max(1e-12));
    }
    if was_on {
        oblivion_obs::enable();
    } else {
        oblivion_obs::disable();
    }
    median(&ratios)
}

/// What replaying a request stream through the wire layers measured.
#[derive(Default)]
pub struct WireReport {
    /// Lines replayed.
    pub lines: u64,
    /// Self ns per line of framing, parsing, routing and formatting.
    pub frame_ns: f64,
    /// Parse ns per line.
    pub parse_ns: f64,
    /// Route ns per line.
    pub route_ns: f64,
    /// Format ns per line.
    pub format_ns: f64,
    /// Reply bytes per line.
    pub reply_bytes: f64,
    /// Replies that differ from the expected bytes.
    pub mismatches: u64,
}

/// Replays the exact request bytes of `lines` burst by burst, as a
/// worker answers a pipelined connection: `FrameBuf` (4 KiB reads),
/// `parse_request`, one `route_batch` and `format_path_line_with_id`,
/// timing each call and checking every reply's bytes.
pub fn wire_replay(
    router: &Router,
    lines: &[Line],
    reference: f64,
    trace: &mut Trace,
) -> WireReport {
    let entry = router.dynamic();
    let mesh = entry.mesh();
    let dim = mesh.dim();
    let mut rep = WireReport {
        lines: lines.len() as u64,
        ..WireReport::default()
    };
    let mut fb = FrameBuf::new(MAX_REQUEST_LINE);
    let mut frames: Vec<Framed> = Vec::with_capacity(BURST);
    let mut queries = Vec::with_capacity(BURST);
    let mut ids = Vec::with_capacity(BURST);
    let mut out: Vec<RoutedPath> = Vec::with_capacity(BURST);
    let mut replies: Vec<String> = Vec::with_capacity(BURST);
    let mut reply_bytes = 0u64;
    for (b, burst) in lines.chunks(BURST).enumerate() {
        let op = (b * BURST) as u32;
        let stream: Vec<u8> = burst
            .iter()
            .flat_map(|l| l.request.iter().copied())
            .collect();
        trace.sample_speed(reference);
        let t0 = Instant::now();
        for chunk in stream.chunks(4096) {
            fb.extend(chunk);
            while let Some(f) = fb.next_line() {
                frames.push(f);
            }
        }
        let t1 = Instant::now();
        for f in frames.drain(..) {
            match f {
                Framed::Line(line) => match parse_request(&line, mesh) {
                    Ok(Request::Path { seed, src, dst, id }) => {
                        queries.push(PathQuery { seed, src, dst });
                        ids.push(id);
                    }
                    _ => rep.mismatches += 1,
                },
                Framed::Bad(_) => rep.mismatches += 1,
            }
        }
        let t2 = Instant::now();
        entry.route_batch(&queries, &mut out);
        let t3 = Instant::now();
        for (rp, id) in out.iter().zip(&ids) {
            replies.push(format_path_line_with_id(&rp.path, dim, id.as_deref()));
        }
        let t4 = Instant::now();
        trace.push(5, op, u32::MAX, t0, t1);
        trace.push(6, op, u32::MAX, t1, t2);
        trace.push(7, op, u32::MAX, t2, t3);
        trace.push(8, op, u32::MAX, t3, t4);
        if replies.len() != burst.len() {
            rep.mismatches += 1;
        }
        for (reply, line) in replies.drain(..).zip(burst) {
            reply_bytes += reply.len() as u64;
            if reply.as_bytes() != line.reply.as_slice() {
                rep.mismatches += 1;
            }
        }
        queries.clear();
        ids.clear();
    }
    let self_ns = trace.self_ns();
    let n = lines.len().max(1) as f64;
    rep.frame_ns = self_ns[5] / n;
    rep.parse_ns = self_ns[6] / n;
    rep.route_ns = self_ns[7] / n;
    rep.format_ns = self_ns[8] / n;
    rep.reply_bytes = reply_bytes as f64 / n;
    rep
}
