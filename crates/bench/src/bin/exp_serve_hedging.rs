//! **E27 — straggler mitigation under chaos: hedging vs retry vs nothing.**
//!
//! Runs one in-process `oblivion-serve` instance with deterministic
//! chaos injection (heavy-tailed compute stalls, slow writes,
//! connection resets, worker pauses — all a pure function of the chaos
//! seed) and drives it with the **open-loop** load generator, so every
//! latency is measured from the request's *scheduled* arrival and the
//! tails are coordinated-omission-corrected. Three mitigation policies
//! face the same chaotic server at the same arrival rate:
//!
//! 1. **none** — one attempt, generous budget: the corrected p999 is
//!    whatever the injected stall distribution says it is.
//! 2. **retry-after-timeout** — the classic knob: give up after a short
//!    per-attempt timeout and try again from scratch (new connection,
//!    fresh chaos draw), paying the full timeout plus backoff before
//!    each recovery.
//! 3. **hedged** — after a short stall, fire a duplicate on a second
//!    connection and take the first answer; the loser is cancelled and
//!    counted (`hedge_wasted`), never double-settled. Hedging can
//!    trigger far earlier than a retry timeout because a false alarm
//!    costs one duplicate request, not an abandoned attempt — that
//!    asymmetry is the policy's whole advantage.
//!
//! The claim under test: hedging cuts the corrected p999 by **≥ 2x**
//! against no mitigation and beats retry-after-timeout, at a duplicate
//! cost of a few percent — while the request-unit conservation law
//! holds on every live METRICS scrape taken mid-chaos.
//!
//! Absolute ms depend on the host; the ordering, the ≥2x tail cut, and
//! conservation are the reproducible part.

use oblivion_bench::table::{f2, Table};
use oblivion_core::BuschD;
use oblivion_mesh::Mesh;
use oblivion_obs::Json;
use oblivion_serve::{
    parse_exposition, run_loadgen, ChaosConfig, Client, Control, HedgeAfter, LoadgenConfig,
    LoadgenReport, ServeConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

// The arrival rate and chaos intensity are tuned together so injected
// stalls are a *tail* phenomenon, not saturation: expected stall load is
// ~0.4 worker-seconds per second against 4 workers (~10% utilization).
// Saturate the pool with stalls and every policy drowns in queueing —
// there is no spare capacity for a hedge (or a retry) to exploit.
const REQUESTS: usize = 1200;
const RATE: f64 = 200.0;

/// Stops the scraper and the server when dropped, so a failed assertion
/// mid-experiment unwinds cleanly through the thread scope (which waits
/// for every spawned thread) instead of deadlocking behind a server and
/// scraper nobody told to stop.
struct StopOnDrop<'a> {
    ctl: &'a Control,
    stop_scraper: &'a AtomicBool,
}
impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.stop_scraper.store(true, Ordering::SeqCst);
        self.ctl.request_shutdown();
    }
}

/// One mitigation policy: a name plus the loadgen knobs that differ.
struct Policy {
    name: &'static str,
    retries: u32,
    timeout: Duration,
    hedge_after: Option<HedgeAfter>,
}

fn run_policy(addr: &str, mesh: &Mesh, p: &Policy) -> LoadgenReport {
    let lg = LoadgenConfig {
        addr: addr.to_string(),
        mesh: mesh.clone(),
        requests: REQUESTS,
        concurrency: 16,
        retries: p.retries,
        backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        timeout: p.timeout,
        seed: 0xE27,
        open_loop: true,
        rate: RATE,
        hedge_after: p.hedge_after,
        ..LoadgenConfig::default()
    };
    let r = run_loadgen(&lg);
    assert_eq!(
        r.malformed,
        0,
        "{}: malformed responses\n{}",
        p.name,
        r.render()
    );
    assert_eq!(r.bad_request, 0, "{}: client sent a bad request", p.name);
    r
}

fn main() {
    oblivion_bench::report::start();
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = BuschD::new(mesh.clone());
    let chaos = ChaosConfig {
        seed: 0xE27,
        stall_prob: 0.06,
        stall: Duration::from_millis(15),
        write_prob: 0.05,
        write_stall: Duration::from_millis(2),
        reset_prob: 0.08,
        pause_prob: 0.01,
        pause: Duration::from_millis(5),
    };
    let cfg = ServeConfig {
        port: 0,
        health_port: Some(0),
        threads: 4,
        work: Duration::from_micros(300),
        deadline: Duration::from_secs(2),
        drain: Duration::from_secs(10),
        announce: false,
        chaos: Some(chaos.clone()),
        ..ServeConfig::default()
    };
    println!(
        "E27: straggler mitigation under chaos (16x16, busch-d, {} workers, open loop \
         {RATE:.0} req/s, chaos seed {:#x}: stall p={} scale {} ms, reset p={}, \
         write p={}, pause p={})\n",
        cfg.threads,
        chaos.seed,
        chaos.stall_prob,
        chaos.stall.as_millis(),
        chaos.reset_prob,
        chaos.write_prob,
        chaos.pause_prob,
    );

    let policies = [
        Policy {
            name: "none",
            retries: 0,
            timeout: Duration::from_secs(4),
            hedge_after: None,
        },
        Policy {
            name: "retry-after-timeout",
            retries: 6,
            timeout: Duration::from_millis(60),
            hedge_after: None,
        },
        Policy {
            name: "hedged",
            retries: 4,
            timeout: Duration::from_secs(4),
            // Aggressive on purpose: ~5x the p50, far below the retry
            // policy's 60 ms timeout. A premature hedge only wastes a
            // duplicate, so the trigger can sit near the body of the
            // latency distribution instead of past its tail.
            hedge_after: Some(HedgeAfter::After(Duration::from_millis(10))),
        },
    ];

    let ctl = Control::new();
    let stop_scraper = AtomicBool::new(false);
    let scrapes = AtomicU64::new(0);
    let mut table = Table::new(vec![
        "policy",
        "ok",
        "failed",
        "retries",
        "hedge l/w/x",
        "late",
        "p50 ms",
        "p99 ms",
        "p999 ms",
    ]);
    let mut rows: Vec<Json> = Vec::new();
    let mut p999 = std::collections::HashMap::new();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let _stop = StopOnDrop {
            ctl: &ctl,
            stop_scraper: &stop_scraper,
        };
        let addr = ctl
            .wait_addr(Duration::from_secs(10))
            .expect("server did not bind");
        let health = ctl.health_addr().expect("health listener did not bind");

        // Live conservation auditor: mid-chaos scrapes — with stalls
        // sleeping, resets killing pipelines, and hedge losers being
        // abandoned — must all satisfy the law, not just the final book.
        let stop_scraper = &stop_scraper;
        let scrapes = &scrapes;
        let scraper = scope.spawn(move || {
            let client = Client::to(health, Duration::from_secs(2));
            while !stop_scraper.load(Ordering::SeqCst) {
                let text = client.scrape().expect("METRICS scrape failed mid-chaos");
                let (snap, _) = parse_exposition(&text)
                    .unwrap_or_else(|why| panic!("unparseable scrape: {why}\n{text}"));
                snap.check_conservation()
                    .unwrap_or_else(|why| panic!("conservation violated on a live scrape: {why}"));
                scrapes.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(25));
            }
        });

        let addr_s = addr.to_string();
        for p in &policies {
            let r = run_policy(&addr_s, &mesh, p);
            table.row(vec![
                p.name.into(),
                r.ok.to_string(),
                r.failed.to_string(),
                r.retries.to_string(),
                format!("{}/{}/{}", r.hedge_launched, r.hedge_won, r.hedge_wasted),
                r.late_launches.to_string(),
                f2(r.latency_ms(0.50)),
                f2(r.latency_ms(0.99)),
                f2(r.latency_ms(0.999)),
            ]);
            let mut row = Json::obj();
            row.set("policy", p.name)
                .set("ok", r.ok)
                .set("failed", r.failed)
                .set("retries", r.retries)
                .set("hedge_launched", r.hedge_launched)
                .set("hedge_won", r.hedge_won)
                .set("hedge_wasted", r.hedge_wasted)
                .set("late_launches", r.late_launches)
                .set("p50_ms", r.latency_ms(0.50))
                .set("p99_ms", r.latency_ms(0.99))
                .set("p999_ms", r.latency_ms(0.999));
            rows.push(row);
            p999.insert(p.name, r.latency_ms(0.999));
            if p.name == "hedged" {
                assert_eq!(r.failed, 0, "hedged policy must converge\n{}", r.render());
                assert!(r.hedge_launched > 0, "chaos never tripped a hedge");
                assert!(r.hedge_wasted <= r.hedge_launched, "{}", r.render());
            }
        }

        stop_scraper.store(true, Ordering::SeqCst);
        scraper.join().expect("scraper panicked");
        ctl.request_shutdown();
        let summary = server
            .join()
            .expect("server panicked")
            .expect("server failed");
        assert!(
            summary.stats.conserved(),
            "final account does not conserve: {:?}",
            summary.stats
        );
        assert!(summary.stats.chaos_stalls > 0, "chaos never stalled");
        assert!(summary.stats.chaos_resets > 0, "chaos never reset");
        table.print();

        let none = p999["none"];
        let retry = p999["retry-after-timeout"];
        let hedged = p999["hedged"];
        let reduction = none / hedged.max(1e-9);
        println!(
            "\nCorrected p999: none {none:.2} ms, retry-after-timeout {retry:.2} ms, \
             hedged {hedged:.2} ms — {reduction:.1}x tail cut vs no mitigation. \
             Conservation held on all {} live scrapes ({} injected stalls, {} resets, \
             {} slow writes, {} pauses).",
            scrapes.load(Ordering::SeqCst),
            summary.stats.chaos_stalls,
            summary.stats.chaos_resets,
            summary.stats.chaos_slow_writes,
            summary.stats.chaos_worker_pauses,
        );

        let extra: Vec<(&str, Json)> = vec![
            ("none_p999_ms", Json::from(none)),
            ("retry_p999_ms", Json::from(retry)),
            ("hedged_p999_ms", Json::from(hedged)),
            ("tail_reduction_vs_none", Json::from(reduction)),
            ("hedged_beats_retry", Json::from(hedged < retry)),
            ("open_loop_rate_rps", Json::from(RATE)),
            ("requests_per_policy", Json::from(REQUESTS as u64)),
            ("chaos_seed", Json::from(chaos.seed)),
            ("chaos_stalls", Json::from(summary.stats.chaos_stalls)),
            ("chaos_resets", Json::from(summary.stats.chaos_resets)),
            (
                "chaos_slow_writes",
                Json::from(summary.stats.chaos_slow_writes),
            ),
            (
                "chaos_worker_pauses",
                Json::from(summary.stats.chaos_worker_pauses),
            ),
            ("conserved", Json::from(summary.stats.conserved())),
            (
                "live_scrapes_conserved",
                Json::from(scrapes.load(Ordering::SeqCst)),
            ),
            ("policies", Json::from(rows.clone())),
        ];
        oblivion_bench::report::finish_and_note(
            "serve_hedging",
            "E27: hedged requests vs retry-after-timeout under deterministic chaos",
            &table,
            &extra,
        );
        assert!(
            reduction >= 2.0,
            "hedging cut the corrected p999 only {reduction:.2}x \
             (none {none:.2} ms vs hedged {hedged:.2} ms); expected >= 2x"
        );
        assert!(
            hedged < retry,
            "hedged p999 {hedged:.2} ms did not beat retry-after-timeout {retry:.2} ms"
        );
    });
}
