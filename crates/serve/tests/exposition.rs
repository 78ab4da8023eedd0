//! The `METRICS` exposition as a wire format: pinned bytes, an exact
//! round trip through `parse_exposition`, and hostile input.
//!
//! * The renderer's bytes for one fixed ledger are pinned by a golden
//!   file, and so are the `oblivion top` frames rendered from it.
//! * For ledgers built from random production-transition sequences,
//!   `parse_exposition(render_exposition(s))` gives back `s` and the
//!   uptime, up to histogram `min`/`max`, which the format does not
//!   carry.
//! * Every strict prefix of a rendered exposition is rejected, and
//!   single-byte flips parse or fail without panicking.

use oblivion_serve::stats::{
    ChaosEvent, Counter, Phase, ServeStats, StatsSnapshot, TenantSnapshot,
};
use oblivion_serve::{parse_exposition, render_exposition, top};
use proptest::prelude::*;
use std::time::Duration;

fn golden_ledger() -> ServeStats {
    let s = ServeStats::default();
    for _ in 0..3 {
        s.conn_opened();
    }
    for _ in 0..2 {
        let depth = s.enqueue_started();
        s.enqueue_committed(depth);
    }
    s.enqueue_started();
    s.enqueue_aborted();
    s.shed_at_admission();
    s.conn_closed();
    s.conn_dequeued();
    s.admit(40);
    s.set_tenant_state_bytes("alpha", 4096);
    s.set_tenant_state_bytes("beta", 512);
    s.tenant_admit("alpha", 20);
    s.tenant_settle("alpha", Counter::Completed, 18);
    s.tenant_settle("alpha", Counter::ShedOverloaded, 1);
    s.tenant_admit("beta", 10);
    s.tenant_settle("beta", Counter::BadRequest, 2);
    s.tenant_mesh_retired("beta", 3);
    s.settle_batch(Counter::Completed, 25);
    s.settle_batch(Counter::BadRequest, 3);
    s.settle_batch(Counter::DeadlineExceeded, 2);
    s.settle_batch(Counter::UnknownMesh, 1);
    s.settle_batch(Counter::MeshRetired, 3);
    s.settle_batch(Counter::IoError, 1);
    s.settle_batch(Counter::DrainRejected, 1);
    s.health_probe();
    s.health_probe();
    for e in [
        ChaosEvent::Stall,
        ChaosEvent::SlowWrite,
        ChaosEvent::Reset,
        ChaosEvent::WorkerPause,
    ] {
        s.chaos_event(e);
    }
    s.chaos_event(ChaosEvent::Stall);
    for (phase, us) in [
        (Phase::Accept, 0),
        (Phase::Accept, 3),
        (Phase::QueueWait, 17),
        (Phase::QueueWait, 250),
        (Phase::Parse, 1),
        (Phase::Parse, 2),
        (Phase::Parse, 3),
        (Phase::RouteCompute, 40),
        (Phase::RouteCompute, 1000),
        (Phase::RouteCompute, 70_000),
    ] {
        s.record_phase(phase, us);
    }
    s.conn_closed();
    s
}

#[test]
fn render_is_byte_identical_to_the_golden_exposition() {
    let text = render_exposition(&golden_ledger().snapshot(), Duration::from_millis(98_765));
    assert_eq!(text, include_str!("data/metrics_golden.txt"));
    let (snap, uptime) = parse_exposition(&text).expect("golden parses");
    assert_eq!(uptime, Duration::from_millis(98_765));
    assert_eq!(
        without_bounds(snap.clone()),
        without_bounds(golden_ledger().snapshot())
    );
    snap.check_conservation().expect("golden ledger conserves");
}

#[test]
fn top_frames_are_byte_identical_to_the_golden_frames() {
    let s = golden_ledger();
    let scrape = |s: &ServeStats, ms| {
        let text = render_exposition(&s.snapshot(), Duration::from_millis(ms));
        parse_exposition(&text).expect("render output parses")
    };
    let (first, up1) = scrape(&s, 1_000);
    s.admit(5);
    s.tenant_admit("alpha", 3);
    s.settle_batch(Counter::Completed, 4);
    let (second, up2) = scrape(&s, 3_000);
    let f1 = top::render_frame(None, &first, up1, Duration::ZERO, "h:1", 1);
    let f2 = top::render_frame(Some(&first), &second, up2, Duration::from_secs(2), "h:1", 2);
    assert_eq!(format!("{f1}{f2}"), include_str!("data/top_golden.txt"));
}

/// The snapshot with histogram `min`/`max` cleared: the exposition
/// carries bucket counts only, so parsed bounds are bucket edges.
fn without_bounds(mut s: StatsSnapshot) -> StatsSnapshot {
    for (_, h) in &mut s.phases {
        if h.count > 0 {
            (h.min, h.max) = (0, 0);
        }
    }
    s
}

const TENANTS: [&str; 3] = ["a", "b.1", "zeta-2"];
const BUCKETS: [Counter; 7] = [
    Counter::Completed,
    Counter::BadRequest,
    Counter::ShedOverloaded,
    Counter::DeadlineExceeded,
    Counter::DrainRejected,
    Counter::IoError,
    Counter::MeshRetired,
];

/// One step of a random ledger history: `(transition, amount, selector,
/// raw value)`.
type Op = (u8, u64, u8, u64);

/// Replays a history through the production transitions. Histories are
/// arbitrary, so a ledger may break its laws (settling more than it
/// admitted); the format must round-trip it all the same.
fn ledger(ops: &[Op]) -> ServeStats {
    let s = ServeStats::default();
    for &(op, n, sel, raw) in ops {
        let id = TENANTS[sel as usize % TENANTS.len()];
        let bucket = BUCKETS[sel as usize % BUCKETS.len()];
        match op {
            0 => s.conn_opened(),
            1 => s.conn_closed(),
            2 => {
                let depth = s.enqueue_started();
                s.enqueue_committed(depth);
            }
            3 => {
                s.enqueue_started();
                s.enqueue_aborted();
                s.shed_at_admission();
            }
            4 => s.conn_dequeued(),
            5 => s.admit(n),
            6 => s.settle_batch(bucket, n),
            7 => s.settle_batch(Counter::UnknownMesh, n),
            8 => s.tenant_admit(id, n),
            9 => s.tenant_settle(
                id,
                if bucket == Counter::MeshRetired {
                    Counter::Completed
                } else {
                    bucket
                },
                n,
            ),
            10 => s.tenant_mesh_retired(id, n),
            11 => s.set_tenant_state_bytes(id, raw),
            12 => s.health_probe(),
            13 => s.chaos_event(
                [
                    ChaosEvent::Stall,
                    ChaosEvent::SlowWrite,
                    ChaosEvent::Reset,
                    ChaosEvent::WorkerPause,
                ][sel as usize % 4],
            ),
            _ => s.record_phase(
                Phase::ALL[sel as usize % Phase::ALL.len()],
                raw >> (raw % 64),
            ),
        }
    }
    s
}

fn history() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..16, 0u64..6, any::<u8>(), any::<u64>()), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn parse_inverts_render(ops in history(), uptime_ms in 0u64..(1 << 40)) {
        let snap = ledger(&ops).snapshot();
        let uptime = Duration::from_millis(uptime_ms);
        let text = render_exposition(&snap, uptime);
        let parsed = parse_exposition(&text);
        prop_assert!(parsed.is_ok(), "{:?}\n{text}", parsed.err());
        let (back, back_uptime) = parsed.unwrap();
        prop_assert_eq!(back_uptime, uptime);
        prop_assert_eq!(render_exposition(&back, back_uptime), text);
        prop_assert_eq!(without_bounds(back), without_bounds(snap));
    }

    #[test]
    fn single_byte_flips_never_panic(ops in history(), flips in prop::collection::vec((any::<usize>(), 1u8..128), 64)) {
        let text = render_exposition(&ledger(&ops).snapshot(), Duration::from_millis(1_234));
        for (at, mask) in flips {
            let mut bytes = text.clone().into_bytes();
            let at = at % bytes.len();
            bytes[at] ^= mask; // stays ASCII, so stays UTF-8
            let flipped = String::from_utf8(bytes).expect("ASCII flip");
            if let Ok((snap, uptime)) = parse_exposition(&flipped) {
                // Whatever parses must be usable by every reader.
                let _ = snap.check_conservation();
                let _ = top::render_frame(Some(&snap), &snap, uptime, Duration::from_secs(1), "h", 1);
                let _ = render_exposition(&snap, uptime);
            }
        }
    }
}

proptest! {
    /// Forged scrapes may carry any value a series can hold: the round
    /// trip stays exact and every reader diagnoses instead of
    /// overflowing.
    #[test]
    fn extreme_values_round_trip_and_never_panic(
        counters in prop::collection::vec(any::<u64>(), 16),
        gauges in prop::collection::vec(any::<i64>(), 5),
        tenant in prop::collection::vec(any::<u64>(), 10),
    ) {
        let s = ServeStats::default();
        s.set_tenant_state_bytes("a", tenant[9]);
        let mut snap = s.snapshot();
        for (c, v) in StatsSnapshot::COUNTERS.iter().zip(counters) {
            (c.set)(&mut snap, v);
        }
        for (g, v) in StatsSnapshot::GAUGES.iter().zip(gauges) {
            (g.set)(&mut snap, v);
        }
        let t = &mut snap.tenants[0];
        for (c, &v) in TenantSnapshot::COUNTERS.iter().zip(&tenant) {
            (c.set)(t, v);
        }
        (TenantSnapshot::IN_FLIGHT.set)(t, tenant[8] as i64);
        let text = render_exposition(&snap, Duration::MAX);
        let (back, uptime) = parse_exposition(&text).expect("extreme values parse");
        prop_assert_eq!(&back, &snap);
        let _ = back.check_conservation();
        let _ = back.settled();
        let _ = top::render_frame(Some(&back), &back, uptime, Duration::from_secs(1), "h", 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_strict_prefix_is_rejected(ops in history()) {
        let text = render_exposition(&ledger(&ops).snapshot(), Duration::from_millis(7));
        for end in 0..text.len() {
            prop_assert!(parse_exposition(&text[..end]).is_err(), "prefix of {end} bytes parsed");
        }
    }
}
