//! The shared step protocol of every online engine.
//!
//! `online.rs` (sequential reference) and `sharded.rs` (thread pool)
//! share one per-step ritual — termination test, checkpoint boundary,
//! injection draws with fault gating, fault-recovery clocks, per-step
//! observability, finale counters. [`Stepper`] is that protocol, written
//! once.
//!
//! The engines remain the pluggable *phase drivers*: each still owns its
//! movement/contention machinery (a flight list, a sharded arena), but
//! every decision that defines the simulation's deterministic outcome —
//! when the run ends, what the main RNG draws, how a blocked packet's
//! retry clock advances, which obs values a step emits — flows through
//! this module. A policy change here lands in both engines at once, and
//! the differential suites hold them byte-identical.
//!
//! Step shape (driven by the engine's loop):
//!
//! ```text
//! while stepper.running(alive) {
//!     stepper.boundary(capture)?;        // checkpoint / stop protocol
//!     stepper.draw_injections(.., &mut pending);
//!     /* engine routes `pending`, moves packets, tallies a StepObs */
//!     stepper.end_step(alive, obs);      // per-step obs + t advance
//! }
//! stepper.finish(shard_finale);          // finale counters
//! ```

use crate::checkpoint::{CheckpointCfg, Driver, EngineState, StopReason};
use crate::online::{FaultStats, Faults, TrafficPattern};
use oblivion_mesh::{Coord, Mesh};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A packet drawn for injection this step, awaiting routing. Routing is
/// deliberately *not* part of the draw: each packet's path comes from a
/// private RNG derived from `(seed, idx)`, so engines may route pendings
/// inline or on a thread pool without touching the main RNG stream.
pub(crate) struct Pending {
    /// Injection node.
    pub(crate) src: Coord,
    /// Destination drawn from the traffic pattern.
    pub(crate) dst: Coord,
    /// Random scheduling rank drawn at injection.
    pub(crate) rank: u64,
    /// Global injection index — seeds the packet's private route RNG and
    /// identifies it to the fault plan.
    pub(crate) idx: u64,
}

/// What a packet whose progress was interrupted by a fault does next.
/// Pure function of `(policy, budget, attempts so far, backoff deadline,
/// now)` — the single copy every engine's recovery behaviour flows
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultDecision {
    /// Still inside a backoff window: do nothing this step.
    Hold,
    /// Consume one budget unit and sleep until `until`.
    Backoff { attempts: u32, until: u64 },
    /// Consume one budget unit and redraw the path (resample policy).
    Resample { attempts: u32 },
    /// Budget exhausted: abandon the packet.
    DeadLetter,
}

fn fault_decision(
    recovery: oblivion_faults::RecoveryPolicy,
    retry_budget: u32,
    attempts: u32,
    backoff_until: u64,
    now: u64,
) -> FaultDecision {
    use oblivion_faults::RecoveryPolicy;
    if now < backoff_until {
        return FaultDecision::Hold;
    }
    let attempts = attempts + 1;
    if attempts > retry_budget {
        return FaultDecision::DeadLetter;
    }
    match recovery {
        RecoveryPolicy::Wait => FaultDecision::Backoff {
            attempts,
            // Bounded exponential backoff: 1, 2, 4, … capped at 64 steps.
            until: now + (1u64 << (attempts - 1).min(6)),
        },
        RecoveryPolicy::DropAfterBudget => FaultDecision::Backoff {
            attempts,
            until: now + 1,
        },
        RecoveryPolicy::Resample => FaultDecision::Resample { attempts },
    }
}

/// A packet's MTTR/MTBF fault-recovery clock: budget consumed so far and
/// the step before which no further recovery decision is made. The
/// sequential engine embeds one per flight; the sharded engine round-trips
/// it through its arena atomics — but the transition rules live only
/// here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FaultClock {
    /// Fault-recovery budget units consumed so far.
    pub(crate) attempts: u32,
    /// Step before which recovery makes no further decision.
    pub(crate) backoff_until: u64,
}

/// The engine-visible outcome of an adverse event (blocked by a down
/// link, or a dropped traversal) after the clock has advanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Adverse {
    /// The packet stays put this step (inside, or newly entering, a
    /// backoff window). The clock has already been updated.
    Hold,
    /// Budget exhausted: the engine dead-letters the packet.
    DeadLetter,
    /// The engine redraws the packet's path from the plan's derived RNG
    /// for `(inj, attempts)`, then calls [`FaultClock::resampled`].
    Resample {
        /// Budget units consumed including this event.
        attempts: u32,
    },
}

impl FaultClock {
    /// Restores a clock from its checkpointed fields.
    pub(crate) fn restore(attempts: u32, backoff_until: u64) -> Self {
        Self {
            attempts,
            backoff_until,
        }
    }

    /// Advances the clock for an adverse event at step `now` and returns
    /// what the engine does with the packet.
    pub(crate) fn adverse(&mut self, fx: &Faults<'_>, now: u64) -> Adverse {
        match fault_decision(
            fx.recovery,
            fx.retry_budget,
            self.attempts,
            self.backoff_until,
            now,
        ) {
            FaultDecision::Hold => Adverse::Hold,
            FaultDecision::Backoff { attempts, until } => {
                self.attempts = attempts;
                self.backoff_until = until;
                Adverse::Hold
            }
            FaultDecision::DeadLetter => Adverse::DeadLetter,
            FaultDecision::Resample { attempts } => Adverse::Resample { attempts },
        }
    }

    /// A completed hop clears the recovery state.
    pub(crate) fn progressed(&mut self) {
        self.attempts = 0;
        self.backoff_until = 0;
    }

    /// Records a resample performed at step `now` with `attempts` budget
    /// units consumed; the packet may not act again before `now + 1`.
    pub(crate) fn resampled(&mut self, attempts: u32, now: u64) {
        self.attempts = attempts;
        self.backoff_until = now + 1;
    }
}

/// Scalar state exposed to an engine's snapshot capture at a step
/// boundary — the stepper-owned half of an [`EngineState`].
pub(crate) struct BoundaryScalars<'s> {
    /// Next step to execute.
    pub(crate) t: u64,
    /// The main injection RNG.
    pub(crate) rng: &'s StdRng,
    /// Packets injected so far.
    pub(crate) injected: usize,
    /// Next global injection index.
    pub(crate) inj_idx: u64,
    /// Fault tallies so far.
    pub(crate) fstats: &'s Option<FaultStats>,
}

/// Deterministic per-step observability values an engine tallies during
/// its movement phase and hands to [`Stepper::end_step`].
pub(crate) struct StepObs {
    /// Largest per-link contender group this step.
    pub(crate) max_group: u64,
    /// Links with at least one contender this step.
    pub(crate) busy: u64,
    /// `Some((handoffs, imbalance))` for the shard-partitioned engines;
    /// `None` for the sequential engine.
    pub(crate) shard: Option<(u64, u64)>,
}

/// Finale values of a shard-partitioned run, for [`Stepper::finish`].
pub(crate) struct ShardFinale {
    /// Number of spatial shards.
    pub(crate) shards: usize,
    /// Work-stealing events (wall-clock side; not deterministic).
    pub(crate) steals: u64,
}

/// Wall-clock per-step phase timers (obs "runtime" side — never part of
/// the determinism contract). The timer is gated on observability so the
/// uninstrumented hot path pays one relaxed load.
pub(crate) struct PhaseTimer {
    inject: Option<std::time::Instant>,
    moving: Option<std::time::Instant>,
}

impl PhaseTimer {
    /// A timer with no phase running (before the first step).
    pub(crate) fn idle() -> Self {
        Self {
            inject: None,
            moving: None,
        }
    }

    /// Starts timing the injection phase of a step.
    pub(crate) fn start(&mut self) {
        self.inject = oblivion_obs::is_enabled().then(std::time::Instant::now);
        self.moving = None;
    }

    /// Injection (draw + routing) done: record it, start the move phase.
    pub(crate) fn inject_done(&mut self) {
        if let Some(started) = self.inject.take() {
            oblivion_obs::record_runtime(
                "online_phase_inject_us",
                started.elapsed().as_micros() as u64,
            );
            self.moving = Some(std::time::Instant::now());
        }
    }

    /// Movement phase done: record it.
    pub(crate) fn move_done(&mut self) {
        if let Some(started) = self.moving.take() {
            oblivion_obs::record_runtime(
                "online_phase_move_us",
                started.elapsed().as_micros() as u64,
            );
        }
    }
}

/// The unified step protocol: owns the simulation clock, the main
/// injection RNG, the injection cursor, the fault tallies, and the
/// checkpoint driver. One per run, held by the engine's coordinator.
pub(crate) struct Stepper<'fx, 'st, 'cfg> {
    /// Next step to execute.
    pub(crate) t: u64,
    /// Measurement window (no injections at `t >= steps`).
    pub(crate) steps: u64,
    /// Hard stop (drain bound): `2 * steps`.
    pub(crate) horizon: u64,
    /// The main injection RNG — the only RNG whose draw order matters.
    pub(crate) rng: StdRng,
    /// Packets injected so far (excluding self-addressed no-ops).
    pub(crate) injected: usize,
    /// Next global injection index.
    pub(crate) inj_idx: u64,
    /// Fault tallies; `Some` iff a fault plan is attached.
    pub(crate) fstats: Option<FaultStats>,
    /// The attached fault setup, if any.
    pub(crate) faults: Option<Faults<'fx>>,
    rate: f64,
    driver: Option<Driver<'st, 'cfg>>,
}

impl<'fx, 'st, 'cfg> Stepper<'fx, 'st, 'cfg> {
    /// Builds the stepper for a run, restoring the stepper-owned scalars
    /// (clock, RNG, injection cursor, fault tallies, obs registry) from
    /// `resume` when present. Engine-owned state (packets, latencies,
    /// link loads) is the engine's to restore.
    pub(crate) fn new(
        rate: f64,
        faults: Option<Faults<'fx>>,
        steps: u64,
        seed: u64,
        ckpt: Option<&'cfg CheckpointCfg<'st>>,
        resume: Option<&EngineState>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0u64;
        let mut injected = 0usize;
        let mut inj_idx = 0u64;
        let mut fstats = faults.map(|fx| FaultStats::for_plan(fx.plan));
        if let Some(st) = resume {
            st.restore_obs();
            rng = StdRng::from_state(st.rng);
            t = st.t;
            injected = st.injected as usize;
            inj_idx = st.inj_idx;
            if fstats.is_some() {
                if let Some(fs) = st.fstats {
                    fstats = Some(fs);
                }
            }
        }
        Self {
            t,
            steps,
            horizon: 2 * steps,
            rng,
            injected,
            inj_idx,
            fstats,
            faults,
            rate,
            driver: ckpt.map(Driver::new),
        }
    }

    /// The loop condition: inside the horizon, and either still injecting
    /// or still carrying live packets.
    pub(crate) fn running(&self, alive: usize) -> bool {
        self.t < self.horizon && (self.t < self.steps || alive > 0)
    }

    /// Runs the checkpoint step-boundary protocol (periodic save,
    /// graceful shutdown, the `stop_at` kill hook). `capture` is invoked
    /// only when a snapshot is actually written. Returns `Some` when the
    /// engine must stop and propagate the reason.
    pub(crate) fn boundary(
        &mut self,
        capture: impl FnOnce(&BoundaryScalars<'_>) -> EngineState,
    ) -> Option<StopReason> {
        let driver = self.driver.as_mut()?;
        let scalars = BoundaryScalars {
            t: self.t,
            rng: &self.rng,
            injected: self.injected,
            inj_idx: self.inj_idx,
            fstats: &self.fstats,
        };
        driver.at_step(self.t, || capture(&scalars))
    }

    /// Draws this step's injections from the main RNG into `out` (cleared
    /// first), applying the fault gates in their canonical order: a dead
    /// source injects nothing (before any state changes, so the RNG
    /// stream matches the no-fault run); a packet addressed to a dead
    /// node is dead-lettered at injection but still counts as injected
    /// and consumes its index. No draws happen outside the measurement
    /// window.
    pub(crate) fn draw_injections(
        &mut self,
        mesh: &Mesh,
        nodes: &[Coord],
        pattern: &dyn TrafficPattern,
        out: &mut Vec<Pending>,
    ) {
        out.clear();
        if self.t >= self.steps {
            return;
        }
        for src in nodes {
            if self.rng.gen_bool(self.rate) {
                let dst = pattern.destination(src, &mut self.rng);
                if dst == *src {
                    continue;
                }
                if let Some(fx) = &self.faults {
                    if fx.plan.node_down(mesh.node_id(src)) {
                        self.fstats.as_mut().unwrap().src_down_skips += 1;
                        continue;
                    }
                }
                self.injected += 1;
                let rank: u64 = self.rng.gen();
                let idx = self.inj_idx;
                self.inj_idx += 1;
                if let Some(fx) = &self.faults {
                    if fx.plan.node_down(mesh.node_id(&dst)) {
                        let fs = self.fstats.as_mut().unwrap();
                        fs.dead_letters += 1;
                        fs.dead_on_injection += 1;
                        continue;
                    }
                }
                out.push(Pending {
                    src: *src,
                    dst,
                    rank,
                    idx,
                });
            }
        }
    }

    /// Emits the step's deterministic observability and advances the
    /// clock. `alive` is the in-flight count *after* the step's
    /// movement phase.
    pub(crate) fn end_step(&mut self, alive: usize, obs: StepObs) {
        if oblivion_obs::is_enabled() {
            oblivion_obs::counter_add("online_steps", 1);
            oblivion_obs::record("queue_len_per_step", obs.max_group);
            oblivion_obs::record("busy_links_per_step", obs.busy);
            if let Some((handoffs, imbalance)) = obs.shard {
                oblivion_obs::counter_add("online_shard_handoffs", handoffs);
                oblivion_obs::record("shard_imbalance_per_step", imbalance);
            }
            // End-of-step in-flight count: deterministic, so it lives on
            // the gauge side and must match across engines step for step.
            oblivion_obs::gauge_set("sim_in_flight", alive as i64);
        }
        self.t += 1;
    }

    /// Emits the run's finale counters (shard totals for the partitioned
    /// engines, fault totals for faulted runs).
    pub(crate) fn finish(&self, shard: Option<ShardFinale>) {
        if !oblivion_obs::is_enabled() {
            return;
        }
        if let Some(sf) = shard {
            oblivion_obs::counter_add("online_shards", sf.shards as u64);
            oblivion_obs::runtime_counter_add("online_pool_steals", sf.steals);
        }
        if let Some(fs) = &self.fstats {
            oblivion_obs::counter_add("online_fault_blocked", fs.blocked);
            oblivion_obs::counter_add("online_fault_resamples", fs.resamples);
            oblivion_obs::counter_add("online_fault_drops", fs.drops);
            oblivion_obs::counter_add("online_dead_letters", fs.dead_letters);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivion_faults::RecoveryPolicy;

    #[test]
    fn clock_backoff_is_capped_exponential() {
        // attempts 1..: 1, 2, 4, ... capped at 64 steps of backoff.
        let mut until = Vec::new();
        let mut attempts = 0;
        for now in [10u64, 100, 200, 300, 400, 500, 600, 700, 800] {
            match fault_decision(RecoveryPolicy::Wait, 100, attempts, 0, now) {
                FaultDecision::Backoff {
                    attempts: a,
                    until: u,
                } => {
                    attempts = a;
                    until.push(u - now);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(until, vec![1, 2, 4, 8, 16, 32, 64, 64, 64]);
    }

    #[test]
    fn clock_holds_inside_backoff_window() {
        let mut clock = FaultClock::restore(3, 50);
        let fx_plan = oblivion_faults::FaultPlan::new(
            &oblivion_mesh::Mesh::new_mesh(&[2, 2]),
            &oblivion_faults::FaultConfig::default(),
            1,
            10,
        );
        let fx = Faults {
            plan: &fx_plan,
            recovery: RecoveryPolicy::Wait,
            retry_budget: 10,
        };
        assert_eq!(clock.adverse(&fx, 49), Adverse::Hold);
        assert_eq!(
            clock,
            FaultClock::restore(3, 50),
            "hold leaves clock untouched"
        );
        assert_eq!(clock.adverse(&fx, 50), Adverse::Hold);
        assert_eq!(clock.attempts, 4, "past the window: budget consumed");
        assert!(clock.backoff_until > 50);
        clock.progressed();
        assert_eq!(clock, FaultClock::default());
    }

    #[test]
    fn clock_dead_letters_past_budget() {
        let fx_plan = oblivion_faults::FaultPlan::new(
            &oblivion_mesh::Mesh::new_mesh(&[2, 2]),
            &oblivion_faults::FaultConfig::default(),
            1,
            10,
        );
        let fx = Faults {
            plan: &fx_plan,
            recovery: RecoveryPolicy::Resample,
            retry_budget: 2,
        };
        let mut clock = FaultClock::default();
        assert_eq!(clock.adverse(&fx, 0), Adverse::Resample { attempts: 1 });
        clock.resampled(1, 0);
        assert_eq!(clock.backoff_until, 1);
        assert_eq!(clock.adverse(&fx, 1), Adverse::Resample { attempts: 2 });
        clock.resampled(2, 1);
        assert_eq!(clock.adverse(&fx, 2), Adverse::DeadLetter);
    }
}
