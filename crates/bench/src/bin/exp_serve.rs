//! **E24 — serving under overload: per-connection vs pipelined goodput.**
//!
//! Runs one in-process `oblivion-serve` instance with a deliberately
//! small capacity (2 workers, 2 ms of simulated work per routing burst)
//! and measures the same server under two client disciplines:
//!
//! 1. **per-connection** — one TCP connection per request, the v1
//!    discipline. Goodput rises to a plateau near ~1/work per worker
//!    (connection setup + one routed line per burst), then the excess is
//!    shed with typed `OVERLOADED` / `DEADLINE_EXCEEDED` errors.
//! 2. **keep-alive pipelined** — each client holds one connection and
//!    keeps a window of 32 requests in flight. The server frames many
//!    lines per read, routes them as one batch (one simulated-work
//!    charge per burst, amortized lookups), and writes the replies in
//!    order.
//!
//! The claim under test: pipelining + batched routing lifts peak goodput
//! by **≥ 10x** over the per-connection plateau on the *same* server
//! build, while the p99 of successes stays bounded by the deadline and
//! the request-unit conservation law holds on every live METRICS scrape
//! taken during the sweep — not just in the final account.
//!
//! Absolute req/s depends on the host; the plateau, the ≥10x ratio, the
//! typed shed column, and conservation are the reproducible part.

use oblivion_bench::table::{f2, Table};
use oblivion_core::BuschD;
use oblivion_mesh::Mesh;
use oblivion_obs::Json;
use oblivion_serve::{parse_exposition, run_loadgen, Client, Control, LoadgenConfig, ServeConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// One sweep point: run the loadgen at `clients` concurrency and fold
/// the result into `table` + `rows`. Returns the measured goodput.
#[allow(clippy::too_many_arguments)]
fn sweep_point(
    table: &mut Table,
    rows: &mut Vec<Json>,
    addr: &str,
    mesh: &Mesh,
    deadline: Duration,
    clients: usize,
    requests: usize,
    pipeline: usize,
    plateau_ok: &mut bool,
) -> f64 {
    let lg = LoadgenConfig {
        addr: addr.to_string(),
        mesh: mesh.clone(),
        requests,
        concurrency: clients,
        retries: 0, // observe raw shedding, not retried success
        timeout: Duration::from_secs(5),
        seed: 0xE24 + (clients as u64) * 31 + pipeline as u64,
        keep_alive: pipeline > 1,
        pipeline,
        ..LoadgenConfig::default()
    };
    let r = run_loadgen(&lg);
    assert_eq!(r.malformed, 0, "malformed responses under load");
    assert_eq!(r.bad_request, 0, "client sent a bad request");
    let shed = r.overloaded + r.deadline;
    let p99 = r.latency_ms(0.99);
    // Successful requests must never have waited longer than the
    // server's own per-line deadline (plus scheduling slack).
    let bounded = p99 <= deadline.as_secs_f64() * 1e3 * 1.5;
    *plateau_ok &= bounded;
    table.row(vec![
        if pipeline > 1 {
            format!("pipelined x{pipeline}")
        } else {
            "per-conn".into()
        },
        clients.to_string(),
        requests.to_string(),
        r.ok.to_string(),
        shed.to_string(),
        format!("{:.0}", r.goodput()),
        f2(r.latency_ms(0.50)),
        f2(p99),
        if bounded { "yes" } else { "NO" }.into(),
    ]);
    let mut row = Json::obj();
    row.set(
        "mode",
        if pipeline > 1 {
            "pipelined"
        } else {
            "per_conn"
        },
    )
    .set("pipeline", pipeline as u64)
    .set("clients", clients)
    .set("ok", r.ok)
    .set("shed", shed)
    .set("goodput_rps", r.goodput())
    .set("p50_ms", r.latency_ms(0.50))
    .set("p99_ms", p99);
    rows.push(row);
    r.goodput()
}

fn main() {
    oblivion_bench::report::start();
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = BuschD::new(mesh.clone());
    let deadline = Duration::from_millis(250);
    let cfg = ServeConfig {
        port: 0,
        health_port: Some(0),
        threads: 2,
        queue_cap: 16,
        work: Duration::from_millis(2),
        deadline,
        drain: Duration::from_secs(10),
        announce: false,
        ..ServeConfig::default()
    };
    println!(
        "E24: serving under overload (16x16, busch-d, {} workers, queue {}, {} ms deadline, \
         {} ms work/burst, batch {})\n",
        cfg.threads,
        cfg.queue_cap,
        deadline.as_millis(),
        cfg.work.as_millis(),
        cfg.batch_max,
    );

    let ctl = Control::new();
    let stop_scraper = AtomicBool::new(false);
    let scrapes = AtomicU64::new(0);
    let mut table = Table::new(vec![
        "mode",
        "clients",
        "requests",
        "ok",
        "shed+deadline",
        "goodput req/s",
        "p50 ms",
        "p99 ms",
        "p99 <= deadline",
    ]);
    let mut sweep_rows: Vec<Json> = Vec::new();
    let mut per_conn_plateau = 0f64;
    let mut pipelined_peak = 0f64;
    let mut plateau_ok = true;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
        let addr = ctl
            .wait_addr(Duration::from_secs(10))
            .expect("server did not bind");
        let health = ctl.health_addr().expect("health listener did not bind");

        // Live conservation auditor: scrape METRICS off the health port
        // for the entire sweep; the law must hold on every sample taken
        // mid-overload, not just in the final account.
        let stop_scraper = &stop_scraper;
        let scrapes = &scrapes;
        let scraper = scope.spawn(move || {
            let client = Client::to(health, Duration::from_secs(2));
            while !stop_scraper.load(Ordering::SeqCst) {
                let text = client.scrape().expect("METRICS scrape failed mid-sweep");
                let (snap, _) = parse_exposition(&text)
                    .unwrap_or_else(|why| panic!("unparseable scrape: {why}\n{text}"));
                snap.check_conservation()
                    .unwrap_or_else(|why| panic!("conservation violated on a live scrape: {why}"));
                scrapes.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(25));
            }
        });

        let addr_s = addr.to_string();
        for clients in [1usize, 2, 4, 8, 16, 32] {
            let g = sweep_point(
                &mut table,
                &mut sweep_rows,
                &addr_s,
                &mesh,
                deadline,
                clients,
                400,
                1,
                &mut plateau_ok,
            );
            per_conn_plateau = per_conn_plateau.max(g);
        }
        for clients in [2usize, 4, 8] {
            let g = sweep_point(
                &mut table,
                &mut sweep_rows,
                &addr_s,
                &mesh,
                deadline,
                clients,
                8000,
                32,
                &mut plateau_ok,
            );
            pipelined_peak = pipelined_peak.max(g);
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
        table.print();
        let speedup = pipelined_peak / per_conn_plateau.max(1.0);
        println!(
            "\nFinal server account (conserved): accepted {} = completed {} + shed {} + \
             deadline {} + bad {} + drain {} + io {}",
            summary.stats.accepted,
            summary.stats.completed,
            summary.stats.shed_overloaded,
            summary.stats.deadline_exceeded,
            summary.stats.bad_request,
            summary.stats.drain_rejected,
            summary.stats.io_errors
        );
        println!(
            "Per-connection plateau {per_conn_plateau:.0} req/s; keep-alive pipelined peak \
             {pipelined_peak:.0} req/s ({speedup:.1}x). Conservation held on all {} live \
             METRICS scrapes taken during the sweep.",
            scrapes.load(Ordering::SeqCst)
        );

        let extra: Vec<(&str, Json)> = vec![
            ("per_conn_plateau_rps", Json::from(per_conn_plateau)),
            ("pipelined_peak_rps", Json::from(pipelined_peak)),
            ("pipelined_speedup", Json::from(speedup)),
            ("p99_bounded_at_every_load", Json::from(plateau_ok)),
            ("deadline_ms", Json::from(deadline.as_millis() as u64)),
            ("accepted", Json::from(summary.stats.accepted)),
            ("conserved", Json::from(summary.stats.conserved())),
            (
                "live_scrapes_conserved",
                Json::from(scrapes.load(Ordering::SeqCst)),
            ),
            ("sweep", Json::from(sweep_rows.clone())),
        ];
        oblivion_bench::report::finish_and_note(
            "serve_load",
            "E24: per-connection vs keep-alive pipelined serving under overload",
            &table,
            &extra,
        );
        assert!(
            speedup >= 10.0,
            "pipelined peak {pipelined_peak:.0} req/s is under 10x the per-connection \
             plateau {per_conn_plateau:.0} req/s"
        );
    });
    assert!(
        plateau_ok,
        "p99 exceeded the deadline somewhere in the sweep"
    );
}
