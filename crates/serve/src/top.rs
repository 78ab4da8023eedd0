//! `oblivion top`: a terminal live view of a running daemon.
//!
//! Polls the `METRICS` exposition (normally on the health port, which
//! bypasses admission and therefore answers at full overload), parses
//! it back into a [`StatsSnapshot`], computes rates from consecutive
//! scrapes, and renders a compact frame: request rates (goodput vs
//! shed), live gauges, and per-phase latency quantiles. With `check`
//! set, every scrape is also run through
//! [`StatsSnapshot::check_conservation`] — which turns `top` into the CI
//! probe that a live server's telemetry never violates the serve
//! conservation law.

use crate::client::{Client, ClientError};
use crate::metrics::parse_exposition;
use crate::stats::{Phase, StatsSnapshot};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Knobs for [`run_top`].
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// Address serving `METRICS` (health port or request port).
    pub addr: String,
    /// Delay between scrapes.
    pub interval: Duration,
    /// Stop after this many scrapes; `None` runs until interrupted.
    pub iterations: Option<u64>,
    /// Per-scrape socket budget.
    pub timeout: Duration,
    /// Validate the conservation law on every scrape and fail loudly on
    /// any violation.
    pub check: bool,
    /// Clear the screen between frames (set when stdout is a tty).
    pub clear: bool,
    /// Stop when the process-wide SIGINT/SIGTERM flag is raised.
    pub honor_process_signals: bool,
}

impl Default for TopConfig {
    fn default() -> Self {
        TopConfig {
            addr: String::new(),
            interval: Duration::from_millis(1000),
            iterations: None,
            timeout: Duration::from_millis(2000),
            check: false,
            clear: false,
            honor_process_signals: true,
        }
    }
}

/// What a finished [`run_top`] saw.
#[derive(Debug, Clone, Default)]
pub struct TopSummary {
    /// Successful scrapes rendered.
    pub scrapes: u64,
    /// Scrapes that failed to connect/parse.
    pub scrape_errors: u64,
    /// Conservation-law violations observed (only counted with `check`).
    pub violations: u64,
}

/// Renders one frame from the current scrape (taken `uptime` into the
/// server's life), with rates derived from the previous scrape `dt` ago
/// (absolute values only on the first frame). Split out pure so tests
/// can drive it without sockets.
pub fn render_frame(
    prev: Option<&StatsSnapshot>,
    cur: &StatsSnapshot,
    uptime: Duration,
    dt: Duration,
    addr: &str,
    frame_no: u64,
) -> String {
    let shed = |s: &StatsSnapshot| {
        s.shed_overloaded
            .saturating_add(s.deadline_exceeded)
            .saturating_add(s.drain_rejected)
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "oblivion top — {addr}  uptime {:.1} s  scrape #{frame_no}",
        uptime.as_millis() as f64 / 1e3
    );
    let rate = |now: u64, before: Option<u64>| -> String {
        match before {
            Some(before) if !dt.is_zero() => {
                let per_s = now.saturating_sub(before) as f64 / dt.as_secs_f64();
                format!(" ({per_s:+.1}/s)")
            }
            _ => String::new(),
        }
    };
    let _ = writeln!(
        s,
        "  accepted {}{}  completed {}{}  shed {}{}",
        cur.accepted,
        rate(cur.accepted, prev.map(|p| p.accepted)),
        cur.completed,
        rate(cur.completed, prev.map(|p| p.completed)),
        shed(cur),
        rate(shed(cur), prev.map(shed)),
    );
    let _ = writeln!(
        s,
        "  queue_depth {}  in_flight {}  connections {}  max_queue_depth {}",
        cur.queue_depth, cur.in_flight, cur.connections, cur.max_queue_depth,
    );
    // Per-tenant rows on a multi-tenant daemon: each mesh's own ledger
    // slice plus its accounted routing-state footprint.
    if !cur.tenants.is_empty() {
        let _ = writeln!(
            s,
            "  {:<12} {:>10} {:>10} {:>8} {:>9} {:>12}",
            "mesh", "accepted", "completed", "shed", "in_flight", "state_bytes"
        );
        for t in &cur.tenants {
            // A tenant new since the last scrape shows a zero rate.
            let before = prev.map(|p| p.tenant(&t.id).map_or(t.accepted, |pt| pt.accepted));
            let _ = writeln!(
                s,
                "  {:<12} {:>10} {:>10} {:>8} {:>9} {:>12}{}",
                t.id,
                t.accepted,
                t.completed,
                t.shed_overloaded,
                t.in_flight,
                t.state_bytes,
                rate(t.accepted, before),
            );
        }
    }
    let _ = writeln!(
        s,
        "  {:<14} {:>10} {:>10} {:>10}",
        "phase", "count", "p50 us", "p99 us"
    );
    for phase in Phase::ALL {
        let h = cur.phase(phase);
        let _ = writeln!(
            s,
            "  {:<14} {:>10} {:>10} {:>10}",
            phase.name(),
            h.count,
            h.quantile(0.50),
            h.quantile(0.99)
        );
    }
    s
}

/// Polls `METRICS` and renders frames to `out` until the iteration
/// budget or a signal stops it. Scrape failures are rendered, counted,
/// and retried on the next tick — a drain window mid-watch should not
/// kill the watcher.
pub fn run_top(cfg: &TopConfig, out: &mut dyn std::io::Write) -> std::io::Result<TopSummary> {
    let client = Client::new(&cfg.addr, cfg.timeout)
        .map_err(|e| std::io::Error::new(e.kind(), format!("cannot resolve {}: {e}", cfg.addr)))?;
    let mut summary = TopSummary::default();
    let mut prev: Option<(StatsSnapshot, Instant)> = None;
    let mut frame_no = 0u64;
    loop {
        if cfg.honor_process_signals && oblivion_signal::shutdown_requested() {
            return Ok(summary);
        }
        if let Some(max) = cfg.iterations {
            if frame_no >= max {
                return Ok(summary);
            }
        }
        frame_no += 1;
        let scraped_at = Instant::now();
        let frame = match client.scrape() {
            Ok(text) => match parse_exposition(&text) {
                Ok((cur, uptime)) => {
                    let mut frame = render_frame(
                        prev.as_ref().map(|(p, _)| p),
                        &cur,
                        uptime,
                        prev.as_ref()
                            .map(|(_, at)| scraped_at.duration_since(*at))
                            .unwrap_or_default(),
                        &cfg.addr,
                        frame_no,
                    );
                    if cfg.check {
                        if let Err(why) = cur.check_conservation() {
                            summary.violations += 1;
                            let _ = writeln!(frame, "  CONSERVATION VIOLATED: {why}");
                        }
                    }
                    summary.scrapes += 1;
                    prev = Some((cur, scraped_at));
                    frame
                }
                Err(why) => {
                    summary.scrape_errors += 1;
                    format!(
                        "oblivion top — {}  scrape #{frame_no}: unparseable exposition: {why}\n",
                        cfg.addr
                    )
                }
            },
            Err(e) => {
                summary.scrape_errors += 1;
                let why = match &e {
                    ClientError::Transport(io) => format!("transport: {io}"),
                    ClientError::Server(kind, detail) => format!("server: {} {detail}", kind.tag()),
                    ClientError::Malformed(why) => format!("malformed: {why}"),
                };
                format!("oblivion top — {}  scrape #{frame_no}: {why}\n", cfg.addr)
            }
        };
        if cfg.clear {
            // ANSI: clear screen + home. Plain writes otherwise, so
            // redirected output stays a readable log.
            out.write_all(b"\x1b[2J\x1b[H")?;
        }
        out.write_all(frame.as_bytes())?;
        out.flush()?;
        let done = cfg.iterations.is_some_and(|max| frame_no >= max);
        if !done {
            std::thread::sleep(cfg.interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::render_exposition;
    use crate::stats::{serve_one, Counter, ServeStats};

    fn scraped(stats: &ServeStats, uptime_ms: u64) -> (StatsSnapshot, Duration) {
        let text = render_exposition(&stats.snapshot(), Duration::from_millis(uptime_ms));
        parse_exposition(&text).expect("render output parses") // ci-allow-unwrap: test
    }

    #[test]
    fn frames_show_rates_between_scrapes() {
        let stats = ServeStats::default();
        for _ in 0..10 {
            serve_one(&stats, Counter::Completed, &[(Phase::RouteCompute, 500)]);
        }
        let (first, up1) = scraped(&stats, 1000);
        for _ in 0..5 {
            stats.shed_at_admission();
        }
        let (second, up2) = scraped(&stats, 2000);

        let f1 = render_frame(None, &first, up1, Duration::ZERO, "h:1", 1);
        assert!(f1.contains("accepted 10"), "{f1}");
        assert!(f1.contains("route_compute"), "{f1}");
        assert!(!f1.contains("/s)"), "no rates on the first frame: {f1}");

        let f2 = render_frame(Some(&first), &second, up2, Duration::from_secs(1), "h:1", 2);
        assert!(f2.contains("accepted 15 (+5.0/s)"), "{f2}");
        assert!(f2.contains("shed 5 (+5.0/s)"), "{f2}");
    }

    #[test]
    fn frames_carry_tenant_rows() {
        let stats = ServeStats::default();
        serve_one(&stats, Counter::Completed, &[]);
        stats.set_tenant_state_bytes("a", 2048);
        stats.tenant_admit("a", 1);
        stats.tenant_settle("a", Counter::Completed, 1);
        let (snap, uptime) = scraped(&stats, 500);
        let frame = render_frame(None, &snap, uptime, Duration::ZERO, "h:1", 1);
        assert!(frame.contains("mesh"), "{frame}");
        assert!(frame.contains('a'), "{frame}");
        assert!(frame.contains("2048"), "{frame}");
    }

    #[test]
    fn conservation_still_checked_through_the_frame_path() {
        let stats = ServeStats::default();
        serve_one(&stats, Counter::Completed, &[(Phase::Parse, 42)]);
        let (snap, uptime) = scraped(&stats, 500);
        snap.check_conservation().expect("live snapshot conserves"); // ci-allow-unwrap: test
        let frame = render_frame(None, &snap, uptime, Duration::ZERO, "addr", 1);
        assert!(frame.contains("completed 1"), "{frame}");
    }
}
