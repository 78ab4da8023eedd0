//! Checkpoint capture/restore for the online engines.
//!
//! The serialized unit is an [`EngineState`]: everything the sequential
//! and sharded engines need to continue a run as if it had never stopped
//! — the main injection RNG state, the injection cursor, every in-flight
//! packet (path, position, scheduling rank, fault-recovery clocks), the
//! accumulated latencies and link loads, fault tallies, and (when
//! observability is on) the deterministic counter/histogram state.
//!
//! **Canonical bytes.** Packets are sorted by id and latencies by value
//! at capture time, so the sharded engine's payload for a given
//! `(config, seed, step)` is byte-identical no matter how many threads
//! produced it — the snapshot CRC doubles as a thread-invariant
//! fingerprint. The sequential engine's snapshot of the same run differs
//! only in the sharded-engine bookkeeping (`handoffs_total`,
//! `max_imbalance`, and — when observability is on — the sharded
//! engine's two extra counters), which it reports as zero.
//!
//! **Identity preservation.** Packet ids are arena/flight indices, and
//! the contention tie-break key ends in the id — so restore rebuilds the
//! arena at its full pre-crash length ([`EngineState::arena_len`]),
//! placing inert dummies where delivered or dead-lettered packets sat.
//! Packets injected after resume then receive exactly the ids they would
//! have had in an uninterrupted run.

use crate::online::FaultStats;
use oblivion_ckpt::{ByteReader, ByteWriter, CkptError, Store};
use oblivion_mesh::{Mesh, NodeId, Path};
use oblivion_obs::{Histogram, HISTOGRAM_BUCKETS};

/// Checkpointing policy for one run, handed to
/// [`crate::OnlineSim::run_ckpt`] / [`crate::OnlineSim::run_sharded_ckpt`].
pub struct CheckpointCfg<'a> {
    /// Where snapshots are written (two-generation atomic store).
    pub store: &'a Store,
    /// Save every `every` steps; `0` saves only on graceful shutdown.
    pub every: u64,
    /// Test hook: stop *without saving* at this step, as if the process
    /// had been killed there (resume then comes from the last periodic
    /// snapshot). `None` in production.
    pub stop_at: Option<u64>,
    /// Hash of the run configuration; stored in every snapshot and
    /// required to match on load.
    pub config_hash: u64,
    /// Generation of the snapshot this run resumed from (`0` if fresh);
    /// new snapshots are numbered from `resume_generation + 1`.
    pub resume_generation: u64,
    /// Step of the snapshot this run resumed from, so the engine does not
    /// immediately re-save an identical snapshot at the resume boundary.
    pub resume_step: Option<u64>,
}

/// The run stopped before completion (graceful shutdown or the
/// [`CheckpointCfg::stop_at`] test hook). No final metrics exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted {
    /// First step that was *not* executed.
    pub step: u64,
    /// Generation of the snapshot written at the interruption point, if
    /// one was (`stop_at` stops dead without saving — that is its job).
    pub generation: Option<u64>,
}

/// Why a checkpointed run returned early.
#[derive(Debug)]
pub enum StopReason {
    /// Stopped on request; resume from the checkpoint directory.
    Interrupted(Interrupted),
    /// A snapshot could not be written or restored.
    Error(CkptError),
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Interrupted(i) => match i.generation {
                Some(g) => write!(
                    f,
                    "interrupted at step {}; checkpoint generation {g} saved, rerun to resume",
                    i.step
                ),
                None => write!(f, "interrupted at step {} without saving", i.step),
            },
            StopReason::Error(e) => write!(f, "{e}"),
        }
    }
}

/// One in-flight packet, engine-neutral.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketState {
    /// Arena/flight index — the packet's contention-tie-break identity.
    pub id: u64,
    /// Global injection index (identity for fault decisions).
    pub inj: u64,
    /// Step the packet was injected at.
    pub injected_at: u64,
    /// Step the packet reached its current node.
    pub arrived: u64,
    /// Random scheduling rank drawn at injection.
    pub rank: u64,
    /// Index of the node the packet currently occupies on its path.
    pub pos: u64,
    /// Fault-recovery budget units consumed so far.
    pub attempts: u32,
    /// Step before which fault recovery makes no further decision.
    pub backoff_until: u64,
    /// The path as mesh node ids (current edge is recomputed on restore).
    pub path: Vec<u64>,
}

impl PacketState {
    /// Rebuilds the packet's [`Path`] (validated during decode).
    pub fn to_path(&self, mesh: &Mesh) -> Path {
        Path::new_unchecked(
            self.path
                .iter()
                .map(|&n| mesh.coord(NodeId(n as usize)))
                .collect(),
        )
    }
}

/// Deterministic observability state carried through a checkpoint.
#[derive(Debug, Clone, Default)]
pub struct ObsState {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms by name.
    pub histograms: Vec<(String, Histogram)>,
}

/// Full simulation state at a step boundary — the snapshot payload.
#[derive(Debug, Clone)]
pub struct EngineState {
    /// Next step to execute.
    pub t: u64,
    /// Main injection RNG state (xoshiro256++ words).
    pub rng: [u64; 4],
    /// Packets injected so far.
    pub injected: u64,
    /// Next global injection index.
    pub inj_idx: u64,
    /// Total packets ever given an arena slot (live + delivered + dead):
    /// restore rebuilds the arena to this length so later packets get
    /// identical ids.
    pub arena_len: u64,
    /// Cross-shard handoffs so far (0 when captured by the sequential
    /// engine).
    pub handoffs_total: u64,
    /// Largest per-step shard imbalance so far (0 for sequential).
    pub max_imbalance: u64,
    /// Latencies of packets delivered so far (sorted; includes the zeros
    /// of instant self-deliveries).
    pub latencies: Vec<u64>,
    /// Per-edge traversal totals, indexed by `EdgeId`.
    pub link_loads: Vec<u64>,
    /// In-flight packets, sorted by id.
    pub packets: Vec<PacketState>,
    /// Fault tallies (`None` when the run has no fault plan).
    pub fstats: Option<FaultStats>,
    /// Deterministic observability state (`None` when obs was disabled).
    pub obs: Option<ObsState>,
}

impl EngineState {
    /// Serializes to the snapshot payload format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.t);
        for s in self.rng {
            w.u64(s);
        }
        w.u64(self.injected);
        w.u64(self.inj_idx);
        w.u64(self.arena_len);
        w.u64(self.handoffs_total);
        w.u64(self.max_imbalance);
        w.u64_slice(&self.latencies);
        w.u64_slice(&self.link_loads);
        w.usize(self.packets.len());
        for p in &self.packets {
            w.u64(p.id);
            w.u64(p.inj);
            w.u64(p.injected_at);
            w.u64(p.arrived);
            w.u64(p.rank);
            w.u64(p.pos);
            w.u32(p.attempts);
            w.u64(p.backoff_until);
            w.u64_slice(&p.path);
        }
        match &self.fstats {
            None => w.u8(0),
            Some(fs) => {
                w.u8(1);
                for v in [
                    fs.dead_letters,
                    fs.dead_on_injection,
                    fs.resamples,
                    fs.drops,
                    fs.blocked,
                    fs.src_down_skips,
                    fs.failed_links,
                    fs.failed_nodes,
                ] {
                    w.u64(v);
                }
            }
        }
        match &self.obs {
            None => w.u8(0),
            Some(obs) => {
                w.u8(1);
                w.usize(obs.counters.len());
                for (name, v) in &obs.counters {
                    w.str(name);
                    w.u64(*v);
                }
                w.usize(obs.histograms.len());
                for (name, h) in &obs.histograms {
                    w.str(name);
                    w.u64(h.count);
                    w.u64(h.sum);
                    w.u64(h.min);
                    w.u64(h.max);
                    for &b in &h.buckets {
                        w.u64(b);
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Deserializes and validates a snapshot payload against `mesh`.
    ///
    /// The CRC layer already rejects accidental corruption; these checks
    /// reject *structurally impossible* states (paths that are not walks,
    /// out-of-range node ids, unsorted packets) so the engines can trust
    /// a decoded state without panicking.
    pub fn decode(bytes: &[u8], mesh: &Mesh) -> Result<Self, CkptError> {
        let mut r = ByteReader::new(bytes);
        let t = r.u64("t")?;
        let mut rng = [0u64; 4];
        for s in &mut rng {
            *s = r.u64("rng")?;
        }
        let injected = r.u64("injected")?;
        let inj_idx = r.u64("inj_idx")?;
        let arena_len = r.u64("arena_len")?;
        let handoffs_total = r.u64("handoffs_total")?;
        let max_imbalance = r.u64("max_imbalance")?;
        let latencies = r.u64_vec("latencies")?;
        let link_loads = r.u64_vec("link_loads")?;
        if link_loads.len() != mesh.edge_count() {
            return Err(CkptError::Malformed {
                field: "link_loads",
                detail: format!(
                    "{} edges in snapshot, mesh has {}",
                    link_loads.len(),
                    mesh.edge_count()
                ),
            });
        }
        let n_packets = r.len_prefix(8 * 8, "packets")?;
        let mut packets = Vec::with_capacity(n_packets);
        let mut prev_id: Option<u64> = None;
        for _ in 0..n_packets {
            let p = PacketState {
                id: r.u64("packet.id")?,
                inj: r.u64("packet.inj")?,
                injected_at: r.u64("packet.injected_at")?,
                arrived: r.u64("packet.arrived")?,
                rank: r.u64("packet.rank")?,
                pos: r.u64("packet.pos")?,
                attempts: r.u32("packet.attempts")?,
                backoff_until: r.u64("packet.backoff_until")?,
                path: r.u64_vec("packet.path")?,
            };
            if prev_id.is_some_and(|prev| p.id <= prev) || p.id >= arena_len {
                return Err(CkptError::Malformed {
                    field: "packet.id",
                    detail: format!("id {} out of order or beyond arena length", p.id),
                });
            }
            prev_id = Some(p.id);
            if p.path.len() < 2 || p.pos + 1 >= p.path.len() as u64 {
                return Err(CkptError::Malformed {
                    field: "packet.pos",
                    detail: format!("position {} on a {}-node path", p.pos, p.path.len()),
                });
            }
            if p.path.iter().any(|&n| n as usize >= mesh.node_count()) {
                return Err(CkptError::Malformed {
                    field: "packet.path",
                    detail: "node id beyond mesh".into(),
                });
            }
            if !p.to_path(mesh).is_valid(mesh) {
                return Err(CkptError::Malformed {
                    field: "packet.path",
                    detail: "not a valid walk in the mesh".into(),
                });
            }
            packets.push(p);
        }
        let fstats = match r.u8("fstats.flag")? {
            0 => None,
            1 => Some(FaultStats {
                dead_letters: r.u64("fstats")?,
                dead_on_injection: r.u64("fstats")?,
                resamples: r.u64("fstats")?,
                drops: r.u64("fstats")?,
                blocked: r.u64("fstats")?,
                src_down_skips: r.u64("fstats")?,
                failed_links: r.u64("fstats")?,
                failed_nodes: r.u64("fstats")?,
            }),
            other => {
                return Err(CkptError::Malformed {
                    field: "fstats.flag",
                    detail: format!("flag byte {other}"),
                })
            }
        };
        let obs = match r.u8("obs.flag")? {
            0 => None,
            1 => {
                let nc = r.len_prefix(16, "obs.counters")?;
                let mut counters = Vec::with_capacity(nc);
                for _ in 0..nc {
                    let name = r.str("obs.counter.name")?;
                    let v = r.u64("obs.counter.value")?;
                    counters.push((name, v));
                }
                let nh = r.len_prefix(8 * (4 + HISTOGRAM_BUCKETS), "obs.histograms")?;
                let mut histograms = Vec::with_capacity(nh);
                for _ in 0..nh {
                    let name = r.str("obs.histogram.name")?;
                    let count = r.u64("obs.histogram")?;
                    let sum = r.u64("obs.histogram")?;
                    let min = r.u64("obs.histogram")?;
                    let max = r.u64("obs.histogram")?;
                    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
                    for b in &mut buckets {
                        *b = r.u64("obs.histogram.bucket")?;
                    }
                    histograms.push((
                        name,
                        Histogram {
                            count,
                            sum,
                            min,
                            max,
                            buckets,
                        },
                    ));
                }
                Some(ObsState {
                    counters,
                    histograms,
                })
            }
            other => {
                return Err(CkptError::Malformed {
                    field: "obs.flag",
                    detail: format!("flag byte {other}"),
                })
            }
        };
        r.finish("payload")?;
        Ok(Self {
            t,
            rng,
            injected,
            inj_idx,
            arena_len,
            handoffs_total,
            max_imbalance,
            latencies,
            link_loads,
            packets,
            fstats,
            obs,
        })
    }

    /// Reinstates the deterministic observability state (no-op when the
    /// snapshot carried none or obs is disabled in this process).
    pub fn restore_obs(&self) {
        if let (Some(obs), true) = (&self.obs, oblivion_obs::is_enabled()) {
            oblivion_obs::restore_deterministic(&obs.counters, &obs.histograms);
        }
    }
}

/// Captures the deterministic half of the obs registry, if enabled.
pub(crate) fn capture_obs() -> Option<ObsState> {
    if !oblivion_obs::is_enabled() {
        return None;
    }
    let snap = oblivion_obs::snapshot();
    Some(ObsState {
        counters: snap.counters,
        histograms: snap.histograms,
    })
}

/// Per-run checkpoint driver: decides, at each step boundary, whether to
/// stop, save, or continue. Owned by the engine's coordinator; `capture`
/// is only invoked when a snapshot is actually needed.
pub(crate) struct Driver<'a, 'b> {
    cfg: &'b CheckpointCfg<'a>,
    next_gen: u64,
}

impl<'a, 'b> Driver<'a, 'b> {
    pub(crate) fn new(cfg: &'b CheckpointCfg<'a>) -> Self {
        let next_gen = cfg.resume_generation + 1;
        Self { cfg, next_gen }
    }

    /// Runs the step-boundary protocol for step `t`. Returns `Some` when
    /// the engine must stop and propagate the reason.
    pub(crate) fn at_step(
        &mut self,
        t: u64,
        capture: impl FnOnce() -> EngineState,
    ) -> Option<StopReason> {
        if self.cfg.stop_at == Some(t) {
            // Simulated kill: stop dead, saving nothing.
            return Some(StopReason::Interrupted(Interrupted {
                step: t,
                generation: None,
            }));
        }
        if oblivion_ckpt::signal::shutdown_requested() {
            return Some(match self.save(t, capture()) {
                Ok(generation) => StopReason::Interrupted(Interrupted {
                    step: t,
                    generation: Some(generation),
                }),
                Err(e) => StopReason::Error(e),
            });
        }
        if self.cfg.every > 0
            && t > 0
            && t.is_multiple_of(self.cfg.every)
            && self.cfg.resume_step != Some(t)
        {
            if let Err(e) = self.save(t, capture()) {
                return Some(StopReason::Error(e));
            }
        }
        None
    }

    fn save(&mut self, t: u64, state: EngineState) -> Result<u64, CkptError> {
        let payload = state.encode();
        let generation = self.next_gen;
        self.cfg
            .store
            .save(generation, t, self.cfg.config_hash, &payload)?;
        self.next_gen += 1;
        Ok(generation)
    }
}
