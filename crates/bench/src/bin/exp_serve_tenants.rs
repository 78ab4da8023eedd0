//! **E28 — per-tenant quota isolation: one tenant's stampede is not
//! another tenant's outage.**
//!
//! Runs one in-process multi-tenant `oblivion-serve` daemon: two mesh
//! ids `a` and `b` behind the `MESH <id>` wire prefix, each with its own
//! token-bucket admission quota (rate Q/s, burst Q, Q unsettled lines).
//! Two phases, both open-loop (coordinated-omission-corrected tails):
//!
//! 1. **solo** — tenant `b` alone at 50% of its quota: the baseline
//!    p99 and goodput a well-behaved tenant sees on a quiet daemon.
//! 2. **contended** — tenant `a` stampedes at 4x its quota while `b`
//!    keeps its 50% pace. The quota sheds `a`'s excess with
//!    `ERR OVERLOADED` charged to `a` alone.
//!
//! The claim under test: `b`'s goodput is unchanged (within 10%) and
//! its corrected p99 does not inflate past 10% (+0.5 ms of scheduler
//! noise floor), **every** shed line is charged to `a`'s ledger and
//! none to `b`'s, and both the global and the per-tenant conservation
//! laws hold on every live METRICS scrape taken mid-stampede.
//!
//! Absolute ms depend on the host; the isolation ratios, the shed
//! attribution, and conservation are the reproducible part.

use oblivion_bench::table::{f2, Table};
use oblivion_core::{build_router, parse_mesh_spec};
use oblivion_obs::Json;
use oblivion_serve::{
    parse_exposition, run_loadgen, Client, Control, LoadgenConfig, LoadgenReport, Registry,
    RouterHandle, ServeConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Each tenant's admission quota: Q lines/s, burst Q, Q unsettled.
/// Sized for a 1-core CI box: the experiment measures *isolation*, so
/// the offered load must leave headroom for the loadgen threads
/// themselves — otherwise client-side scheduling delay masquerades as
/// server-side tail inflation.
const QUOTA: u64 = 40;
/// Tenant b's rate in both phases: 50% of its quota.
const B_RATE: f64 = QUOTA as f64 * 0.5;
/// Tenant a's stampede rate: 4x its quota.
const A_RATE: f64 = QUOTA as f64 * 4.0;
/// ~5 s per phase at the rates above.
const B_REQUESTS: usize = 100;
const A_REQUESTS: usize = 800;

/// Stops the scraper and the server when dropped, so a failed assertion
/// unwinds cleanly through the thread scope instead of deadlocking.
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

fn tenant_load(
    addr: &str,
    tenant: &str,
    requests: usize,
    rate: f64,
    retries: u32,
) -> LoadgenConfig {
    LoadgenConfig {
        addr: addr.to_string(),
        mesh: parse_mesh_spec("16x16", false).expect("mesh"),
        requests,
        concurrency: if retries == 0 { 8 } else { 4 },
        retries,
        backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        timeout: Duration::from_secs(4),
        seed: 0xE28,
        open_loop: true,
        rate,
        tenants: vec![(tenant.to_string(), 1.0)],
        ..LoadgenConfig::default()
    }
}

fn check_b(r: &LoadgenReport, phase: &str) {
    assert_eq!(
        r.malformed,
        0,
        "{phase}: malformed responses\n{}",
        r.render()
    );
    assert_eq!(
        r.failed,
        0,
        "{phase}: tenant b requests failed\n{}",
        r.render()
    );
    assert_eq!(
        r.overloaded,
        0,
        "{phase}: tenant b was shed despite staying at 50% of quota\n{}",
        r.render()
    );
}

fn main() {
    oblivion_bench::report::start();
    let registry = Registry::new("a", Some(QUOTA));
    for id in ["a", "b"] {
        let mesh = parse_mesh_spec("16x16", false).expect("mesh");
        let router = build_router("buschd", &mesh).expect("router");
        registry.add(id, RouterHandle::Owned(router)).expect("add");
    }
    let cfg = ServeConfig {
        port: 0,
        health_port: Some(0),
        threads: 2,
        // Generous shared queue: every shed in this experiment must come
        // from the per-tenant quota (attributed), not global admission
        // (unattributed), so the attribution claim is checkable.
        queue_cap: 4096,
        work: Duration::from_micros(100),
        deadline: Duration::from_secs(2),
        drain: Duration::from_secs(10),
        announce: false,
        ..ServeConfig::default()
    };
    println!(
        "E28: per-tenant quota isolation (two 16x16 busch-d tenants, quota {QUOTA}/s each, \
         {} workers; b open-loop at {B_RATE:.0}/s, a stampedes at {A_RATE:.0}/s = 4x quota)\n",
        cfg.threads
    );

    let ctl = Control::new();
    let stop_scraper = AtomicBool::new(false);
    let scrapes = AtomicU64::new(0);
    let mut table = Table::new(vec![
        "phase", "tenant", "ok", "failed", "shed", "late", "p50 ms", "p99 ms",
    ]);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run_registry(&registry, &cfg, &ctl));
        let _stop = StopOnDrop {
            ctl: &ctl,
            stop_scraper: &stop_scraper,
        };
        let addr = ctl
            .wait_addr(Duration::from_secs(10))
            .expect("server did not bind");
        let health = ctl.health_addr().expect("health listener did not bind");

        // Live conservation auditor: every mid-stampede scrape must
        // satisfy the global law AND each tenant's own ledger law.
        let stop_flag = &stop_scraper;
        let scrapes_ref = &scrapes;
        let scraper = scope.spawn(move || {
            let client = Client::to(health, Duration::from_secs(2));
            while !stop_flag.load(Ordering::SeqCst) {
                let text = client.scrape().expect("METRICS scrape failed mid-load");
                let (snap, _) = parse_exposition(&text)
                    .unwrap_or_else(|why| panic!("unparseable scrape: {why}\n{text}"));
                snap.check_conservation()
                    .unwrap_or_else(|why| panic!("conservation violated on a live scrape: {why}"));
                scrapes_ref.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(100));
            }
        });

        let addr_s = addr.to_string();

        // Phase 1: b alone at half its quota — the solo baseline.
        let b_solo = run_loadgen(&tenant_load(&addr_s, "b", B_REQUESTS, B_RATE, 2));
        check_b(&b_solo, "solo");
        table.row(vec![
            "solo".into(),
            "b".into(),
            b_solo.ok.to_string(),
            b_solo.failed.to_string(),
            b_solo.overloaded.to_string(),
            b_solo.late_launches.to_string(),
            f2(b_solo.latency_ms(0.50)),
            f2(b_solo.latency_ms(0.99)),
        ]);

        // Phase 2: a stampedes at 4x quota while b keeps its pace.
        // a runs retry-free: its shed lines ARE the experiment, not a
        // failure to converge.
        let (a_contended, b_contended) = std::thread::scope(|inner| {
            let a = inner.spawn(|| run_loadgen(&tenant_load(&addr_s, "a", A_REQUESTS, A_RATE, 0)));
            let b = inner.spawn(|| run_loadgen(&tenant_load(&addr_s, "b", B_REQUESTS, B_RATE, 2)));
            (a.join().expect("a loadgen"), b.join().expect("b loadgen"))
        });
        check_b(&b_contended, "contended");
        assert_eq!(a_contended.malformed, 0, "a: malformed responses");
        assert!(
            a_contended.overloaded > 0,
            "a at 4x quota was never shed — the quota did nothing\n{}",
            a_contended.render()
        );
        for (phase, r) in [("contended", &a_contended), ("contended", &b_contended)] {
            let tenant = if std::ptr::eq(r, &a_contended) {
                "a"
            } else {
                "b"
            };
            table.row(vec![
                phase.into(),
                tenant.into(),
                r.ok.to_string(),
                r.failed.to_string(),
                r.overloaded.to_string(),
                r.late_launches.to_string(),
                f2(r.latency_ms(0.50)),
                f2(r.latency_ms(0.99)),
            ]);
        }

        stop_scraper.store(true, Ordering::SeqCst);
        scraper.join().expect("scraper panicked");
        ctl.request_shutdown();
        let summary = server
            .join()
            .expect("server panicked")
            .expect("server failed");
        let s = &summary.stats;
        assert!(s.conserved(), "final global account: {s:?}");
        assert_eq!(
            s.check_conservation(),
            Ok(()),
            "final per-tenant accounts: {s:?}"
        );
        let ta = s.tenant("a").expect("tenant a ledger");
        let tb = s.tenant("b").expect("tenant b ledger");
        assert_eq!(
            tb.shed_overloaded, 0,
            "shed charged to b despite b staying inside its quota: {s:?}"
        );
        assert_eq!(
            ta.shed_overloaded, s.shed_overloaded,
            "some shed was not charged to a's ledger: {s:?}"
        );
        assert!(ta.state_bytes > 0 && tb.state_bytes > 0, "{s:?}");
        table.print();

        let solo_p99 = b_solo.latency_ms(0.99);
        let cont_p99 = b_contended.latency_ms(0.99);
        let goodput_ratio = b_contended.ok as f64 / b_solo.ok.max(1) as f64;
        println!(
            "\nTenant b corrected p99: solo {solo_p99:.2} ms vs contended {cont_p99:.2} ms \
             (goodput ratio {goodput_ratio:.3}); a shed {} of {} lines, all {} OVERLOADED \
             charged to a. Both conservation laws held on all {} live scrapes.",
            ta.shed_overloaded,
            a_contended.ok + a_contended.failed,
            s.shed_overloaded,
            scrapes.load(Ordering::SeqCst),
        );

        let extra: Vec<(&str, Json)> = vec![
            ("quota_per_tenant", Json::from(QUOTA)),
            ("b_rate_rps", Json::from(B_RATE)),
            ("a_rate_rps", Json::from(A_RATE)),
            ("b_solo_p99_ms", Json::from(solo_p99)),
            ("b_contended_p99_ms", Json::from(cont_p99)),
            ("b_goodput_ratio", Json::from(goodput_ratio)),
            ("b_shed", Json::from(tb.shed_overloaded)),
            ("a_shed", Json::from(ta.shed_overloaded)),
            ("shed_total", Json::from(s.shed_overloaded)),
            ("a_ok", Json::from(a_contended.ok)),
            ("conserved", Json::from(s.conserved())),
            (
                "tenants_conserved",
                Json::from(s.check_conservation().is_ok()),
            ),
            (
                "live_scrapes_conserved",
                Json::from(scrapes.load(Ordering::SeqCst)),
            ),
        ];
        oblivion_bench::report::finish_and_note(
            "serve_tenants",
            "E28: per-tenant quota isolation — a 4x stampede on one mesh id leaves \
             the other tenant's goodput and tail intact",
            &table,
            &extra,
        );
        assert!(
            goodput_ratio >= 0.9,
            "tenant b goodput collapsed under a's stampede: ratio {goodput_ratio:.3}"
        );
        // 10% relative plus a 2 ms absolute floor: the open-loop
        // correction charges client-side scheduling delay to latency,
        // and on a 1-core CI box that jitter would otherwise fail a
        // perfectly isolated run at a sub-ms baseline.
        assert!(
            cont_p99 <= solo_p99 * 1.10 + 2.0,
            "tenant b p99 inflated past 10% under a's stampede: \
             solo {solo_p99:.2} ms vs contended {cont_p99:.2} ms"
        );
    });
}
