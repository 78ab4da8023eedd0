//! Chaos-injection contract tests.
//!
//! Three properties keep the chaos layer honest:
//! 1. **Determinism** — the injected schedule is a pure function of
//!    `chaos seed x request stream`: two servers with the same seed fed
//!    the same sequential requests produce identical per-request
//!    outcomes and identical injected-event counters.
//! 2. **Zero-cost off switch** — a server with a trivial (all-zero)
//!    chaos config answers byte-identically to a vanilla server and
//!    counts zero events.
//! 3. **Conservation under fire** — an open-loop hedged load against a
//!    chaotic server conserves the request ledger on *every* METRICS
//!    scrape and in the final book: injected stalls settle as
//!    completions (or deadline), injected resets as io errors, and
//!    hedged losers never double-settle.

use oblivion_core::BuschD;
use oblivion_mesh::Mesh;
use oblivion_serve::{
    parse_exposition, run_loadgen, ChaosConfig, Client, Control, HedgeAfter, LoadgenConfig,
    ServeConfig,
};
use std::time::Duration;

/// Requests server shutdown when dropped. A panicking assertion unwinds
/// through `thread::scope`, which still waits for every spawned thread —
/// without this guard a failed assert deadlocks behind a server nobody
/// told to stop, and the panic message is never printed.
struct StopOnDrop<'a>(&'a Control);
impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

fn chaotic_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        stall_prob: 0.3,
        stall: Duration::from_millis(2),
        write_prob: 0.3,
        write_stall: Duration::from_millis(1),
        reset_prob: 0.25,
        pause_prob: 0.1,
        pause: Duration::from_millis(1),
    }
}

/// Runs `n` sequential single-connection requests against a server with
/// the given chaos config; returns (per-request outcomes, final stats).
fn run_sequential(
    mesh: &Mesh,
    chaos: Option<ChaosConfig>,
    n: u64,
) -> (Vec<String>, oblivion_serve::StatsSnapshot) {
    let router = BuschD::new(mesh.clone());
    let cfg = ServeConfig {
        port: 0,
        health_port: None,
        threads: 2,
        deadline: Duration::from_secs(2),
        announce: false,
        chaos,
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let _stop = StopOnDrop(&ctl);
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let client = Client::to(addr, Duration::from_secs(5));
        let mut outcomes = Vec::with_capacity(n as usize);
        for id in 0..n {
            let (seed, src, dst) = oblivion_serve::loadgen::request_of(mesh, 11, id);
            let line = format!(
                "PATH {seed} {} {}\n",
                oblivion_serve::wire::format_coord(&src, mesh.dim()),
                oblivion_serve::wire::format_coord(&dst, mesh.dim())
            );
            // Transport detail (reset vs eof) can depend on socket
            // timing; the *decision* to kill the connection is what must
            // be deterministic, so all transport errors fold together.
            outcomes.push(match client.round_trip(&line) {
                Ok(payload) => format!("OK {payload}"),
                Err(oblivion_serve::ClientError::Transport(_)) => "transport".to_string(),
                Err(e) => format!("{e:?}"),
            });
        }
        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        assert!(summary.stats.conserved(), "{:?}", summary.stats);
        (outcomes, summary.stats)
    })
}

#[test]
fn chaos_schedule_is_a_pure_function_of_the_seed() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let (out_a, stats_a) = run_sequential(&mesh, Some(chaotic_config(0xC4A0)), 120);
    let (out_b, stats_b) = run_sequential(&mesh, Some(chaotic_config(0xC4A0)), 120);
    assert_eq!(out_a, out_b, "same seed, same requests, different replies");
    for (name, a, b) in [
        ("stalls", stats_a.chaos_stalls, stats_b.chaos_stalls),
        (
            "slow_writes",
            stats_a.chaos_slow_writes,
            stats_b.chaos_slow_writes,
        ),
        ("resets", stats_a.chaos_resets, stats_b.chaos_resets),
        (
            "worker_pauses",
            stats_a.chaos_worker_pauses,
            stats_b.chaos_worker_pauses,
        ),
    ] {
        assert_eq!(a, b, "chaos_{name} diverged across same-seed runs");
    }
    // The probabilities above make a silent no-op plan vanishingly
    // unlikely: the schedule must actually have fired.
    assert!(stats_a.chaos_stalls > 0, "{stats_a:?}");
    assert!(stats_a.chaos_resets > 0, "{stats_a:?}");
    assert_eq!(stats_a.io_errors, stats_a.chaos_resets, "{stats_a:?}");

    // A different seed must produce a different schedule (the counters
    // all colliding is possible but astronomically unlikely).
    let (_, stats_c) = run_sequential(&mesh, Some(chaotic_config(0xC4A1)), 120);
    assert!(
        stats_c.chaos_stalls != stats_a.chaos_stalls
            || stats_c.chaos_slow_writes != stats_a.chaos_slow_writes
            || stats_c.chaos_resets != stats_a.chaos_resets
            || stats_c.chaos_worker_pauses != stats_a.chaos_worker_pauses,
        "different seeds produced an identical schedule: {stats_a:?}"
    );
}

#[test]
fn trivial_chaos_is_byte_identical_to_vanilla() {
    let mesh = Mesh::new_mesh(&[8, 8]);
    let trivial = ChaosConfig {
        seed: 99,
        ..ChaosConfig::default()
    };
    assert!(trivial.is_trivial());
    let (chaotic, stats_chaos) = run_sequential(&mesh, Some(trivial), 80);
    let (vanilla, stats_plain) = run_sequential(&mesh, None, 80);
    assert_eq!(chaotic, vanilla, "trivial chaos changed reply bytes");
    for s in [&stats_chaos, &stats_plain] {
        assert_eq!(s.chaos_stalls, 0, "{s:?}");
        assert_eq!(s.chaos_slow_writes, 0, "{s:?}");
        assert_eq!(s.chaos_resets, 0, "{s:?}");
        assert_eq!(s.chaos_worker_pauses, 0, "{s:?}");
        assert_eq!(s.io_errors, 0, "{s:?}");
    }
}

#[test]
fn hedged_open_loop_load_conserves_on_every_mid_chaos_scrape() {
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = BuschD::new(mesh.clone());
    let cfg = ServeConfig {
        port: 0,
        health_port: Some(0),
        threads: 3,
        deadline: Duration::from_secs(2),
        work: Duration::from_micros(300),
        announce: false,
        chaos: Some(ChaosConfig {
            seed: 7,
            stall_prob: 0.25,
            stall: Duration::from_millis(10),
            write_prob: 0.2,
            write_stall: Duration::from_millis(2),
            reset_prob: 0.2,
            pause_prob: 0.05,
            pause: Duration::from_millis(2),
        }),
        ..ServeConfig::default()
    };
    let ctl = Control::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let _stop = StopOnDrop(&ctl);
        let addr = ctl.wait_addr(Duration::from_secs(5)).expect("no bind");
        let health = ctl.health_addr().expect("no health listener");
        let lg = LoadgenConfig {
            addr: addr.to_string(),
            mesh: mesh.clone(),
            requests: 200,
            concurrency: 8,
            retries: 8,
            timeout: Duration::from_secs(4),
            seed: 7,
            open_loop: true,
            rate: 300.0,
            hedge_after: Some(HedgeAfter::After(Duration::from_millis(15))),
            ..LoadgenConfig::default()
        };
        let stampede = scope.spawn(move || run_loadgen(&lg));

        // The soak half of the ledger audit: with stalls, resets, and
        // abandoned hedge losers all in flight, *every* scrape must
        // still satisfy the live conservation law.
        let scraper = Client::to(health, Duration::from_secs(2));
        let mut scrapes = 0u32;
        while !stampede.is_finished() || scrapes < 10 {
            let text = scraper.scrape().expect("scrape failed under chaos");
            let (snap, _) = parse_exposition(&text)
                .unwrap_or_else(|why| panic!("unparseable scrape #{scrapes}: {why}\n{text}"));
            snap.check_conservation()
                .unwrap_or_else(|why| panic!("scrape #{scrapes} violates conservation: {why}"));
            scrapes += 1;
            std::thread::sleep(Duration::from_millis(5));
        }

        let report = stampede.join().expect("stampede panicked");
        assert_eq!(report.malformed, 0, "{}", report.render());
        assert_eq!(report.failed, 0, "{}", report.render());
        assert_eq!(report.ok, 200, "{}", report.render());
        // The chaos profile above reliably trips the hedge threshold.
        assert!(report.hedge_launched > 0, "{}", report.render());
        assert!(
            report.hedge_won <= report.hedge_launched,
            "{}",
            report.render()
        );
        assert!(
            report.hedge_wasted <= report.hedge_launched,
            "{}",
            report.render()
        );

        ctl.request_shutdown();
        let summary = server.join().expect("server panicked").expect("run failed");
        let s = &summary.stats;
        assert!(s.conserved(), "{s:?}");
        assert_eq!(s.check_conservation(), Ok(()), "{s:?}");
        assert!(s.chaos_stalls > 0, "{s:?}");
        assert!(s.chaos_resets > 0, "{s:?}");
    });
}
