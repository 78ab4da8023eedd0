//! The `METRICS` text exposition: a Prometheus-style rendering of a
//! [`StatsSnapshot`], and its exact inverse, the parser that `oblivion
//! top`, the scrape-under-load soak tests and the CI gates share.
//!
//! Grammar (a strict subset of the Prometheus text format):
//!
//! ```text
//! # TYPE <name> counter|gauge|histogram
//! <name> <integer>                        (counter/gauge samples)
//! <name>{mesh="<id>"} <integer>           (per-tenant samples)
//! <name>_bucket{le="<edge>"} <cum-count>  (histogram, cumulative)
//! <name>_bucket{le="+Inf"} <count>
//! <name>_sum <integer>
//! <name>_count <integer>
//! # EOF
//! ```
//!
//! The final `# EOF` line doubles as a truncation guard: a scrape that
//! lost its tail (killed server, cut socket) fails the parse instead of
//! passing with quietly missing series. Every series the renderer
//! always writes must be present, so a parsed scrape is a whole
//! [`StatsSnapshot`] and the law is checked by
//! [`StatsSnapshot::check_conservation`], the same method that checks a
//! live ledger. Because the snapshot behind the exposition is
//! transition-consistent (see [`crate::stats`]), every successful
//! scrape conserves — even one taken mid-stampede.

use crate::stats::{Series, StatsSnapshot, TenantSnapshot};
use oblivion_obs::Histogram;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::str::FromStr;
use std::time::Duration;

/// The uptime gauge, outside the snapshot: scrapers turn cumulative
/// counters into rates with it, without wall-clock math of their own.
const UPTIME: &str = "serve_uptime_ms";

/// Renders the exposition for one snapshot. `uptime` becomes the
/// `oblivion_serve_uptime_ms` gauge.
pub fn render_exposition(snap: &StatsSnapshot, uptime: Duration) -> String {
    let mut out = String::new();
    let mut scalar = |kind: &str, name: &str, value: &dyn Display| {
        let _ = writeln!(out, "# TYPE oblivion_{name} {kind}");
        let _ = writeln!(out, "oblivion_{name} {value}");
    };
    for c in &StatsSnapshot::COUNTERS {
        scalar("counter", c.name, &(c.get)(snap));
    }
    for g in &StatsSnapshot::GAUGES {
        scalar("gauge", g.name, &(g.get)(snap));
    }
    let uptime_ms = uptime.as_millis().min(i64::MAX as u128) as i64;
    scalar("gauge", UPTIME, &uptime_ms);
    // Per-tenant rows, one `{mesh="<id>"}` labeled sample per tenant
    // under a shared TYPE declaration.
    if !snap.tenants.is_empty() {
        for c in &TenantSnapshot::COUNTERS {
            render_tenant_series(&mut out, "counter", c, &snap.tenants);
        }
        render_tenant_series(&mut out, "gauge", &TenantSnapshot::IN_FLIGHT, &snap.tenants);
        render_tenant_series(
            &mut out,
            "gauge",
            &TenantSnapshot::STATE_BYTES,
            &snap.tenants,
        );
    }
    for (phase, hist) in &snap.phases {
        let name = format!("oblivion_serve_phase_{phase}_us");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (i, &count) in hist.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            cum += count;
            let (_, hi) = Histogram::bucket_range(i);
            let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{name}_count {}", hist.count);
    }
    out.push_str("# EOF\n");
    out
}

fn render_tenant_series<T: Display>(
    out: &mut String,
    kind: &str,
    series: &Series<TenantSnapshot, T>,
    tenants: &[TenantSnapshot],
) {
    let name = series.name;
    let _ = writeln!(out, "# TYPE oblivion_{name} {kind}");
    for t in tenants {
        let _ = writeln!(
            out,
            "oblivion_{name}{{mesh=\"{}\"}} {}",
            t.id,
            (series.get)(t)
        );
    }
}

/// A declared `# TYPE`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// The raw samples of one scrape, consumed as the snapshot is
/// assembled: whatever is left over names no serve series.
#[derive(Default)]
struct Samples<'a> {
    /// Full sample name (labels included) → declared kind, line number
    /// and value text, parsed into its series' type on assembly.
    scalars: BTreeMap<&'a str, (Kind, usize, &'a str)>,
    /// Histogram name → `(le edge, cumulative count)` bucket rows in
    /// file order (`+Inf` as `None`).
    buckets: BTreeMap<&'a str, Vec<(Option<u64>, u64)>>,
}

impl Samples<'_> {
    fn take<T: FromStr>(&mut self, kind: Kind, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let missing = || format!("exposition is missing {} {name}", kind.name());
        let (declared, line, value) = self.scalars.remove(name).ok_or_else(missing)?;
        if declared != kind {
            return Err(format!(
                "line {line}: {name} is declared a {}",
                declared.name()
            ));
        }
        value
            .parse()
            .map_err(|e| format!("line {line}: bad {name} value `{value}`: {e}"))
    }

    /// Parses one series sample (with its `{mesh="<id>"}` label, if
    /// any) into its field of `s`.
    fn series<S, T: FromStr>(
        &mut self,
        kind: Kind,
        s: &mut S,
        series: &Series<S, T>,
        label: &str,
    ) -> Result<(), String>
    where
        T::Err: Display,
    {
        let value = self.take(kind, &format!("oblivion_{}{label}", series.name))?;
        (series.set)(s, value);
        Ok(())
    }

    /// Rebuilds one phase histogram from its cumulative bucket rows.
    /// Every finite edge must be a bucket's upper edge, edges strictly
    /// increase, counts never decrease, and the last finite row, the
    /// `+Inf` row and `_count` agree. `min`/`max` are not on the wire;
    /// they degrade to the edges of the outermost non-empty buckets, so
    /// quantiles stay exact at bucket granularity.
    fn histogram(&mut self, name: &str) -> Result<Histogram, String> {
        let rows = self
            .buckets
            .remove(name)
            .ok_or_else(|| format!("exposition is missing histogram {name}"))?;
        let mut hist = Histogram::new();
        hist.sum = self.take(Kind::Histogram, &format!("{name}_sum"))?;
        hist.count = self.take(Kind::Histogram, &format!("{name}_count"))?;
        let Some((&(None, inf), finite)) = rows.split_last() else {
            return Err(format!("histogram {name} does not end in a +Inf bucket"));
        };
        let (mut prev_edge, mut prev_cum) = (None, 0u64);
        for &(edge, cum) in finite {
            // `None` (+Inf) sorts below every edge, so this also refuses
            // a second +Inf row.
            let (Some(hi), true) = (edge, edge > prev_edge) else {
                return Err(format!("histogram {name} bucket edges do not increase"));
            };
            let idx = Histogram::bucket_of(hi);
            let (lo, edge_hi) = Histogram::bucket_range(idx);
            if edge_hi != hi {
                return Err(format!("histogram {name} has a bad bucket edge {hi}"));
            }
            let n = cum
                .checked_sub(prev_cum)
                .ok_or_else(|| format!("histogram {name} buckets are not cumulative"))?;
            (prev_edge, prev_cum) = (Some(hi), cum);
            if n > 0 {
                hist.buckets[idx] = n;
                hist.min = hist.min.min(lo);
                hist.max = hi;
            }
        }
        if inf != hist.count || prev_cum != hist.count {
            return Err(format!(
                "histogram {name} +Inf bucket {inf} (finite total {prev_cum}) != count {}",
                hist.count
            ));
        }
        Ok(hist)
    }
}

/// Parses a `METRICS` exposition back into the snapshot and uptime it
/// was rendered from — the exact inverse of [`render_exposition`], up
/// to histogram `min`/`max`, which the format does not carry. Rejects a
/// missing `# EOF` terminator (or trailing newline), samples without a
/// `# TYPE` declaration, unknown or duplicate samples, any series the
/// renderer always writes, and malformed histograms.
pub fn parse_exposition(text: &str) -> Result<(StatsSnapshot, Duration), String> {
    let mut samples = Samples::default();
    let mut kinds: BTreeMap<&str, Kind> = BTreeMap::new();
    let mut saw_eof = false;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        let at = |msg: &str| format!("line {}: {msg}", idx + 1);
        if line.is_empty() {
            continue;
        }
        if saw_eof {
            return Err(at("data after # EOF"));
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_ascii_whitespace();
            let (Some(name), Some(kind), None) = (it.next(), it.next(), it.next()) else {
                return Err(at("malformed # TYPE line"));
            };
            let kind = match kind {
                "counter" => Kind::Counter,
                "gauge" => Kind::Gauge,
                "histogram" => Kind::Histogram,
                other => return Err(at(&format!("unknown series type `{other}`"))),
            };
            kinds.insert(name, kind);
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal noise
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| at("sample line without a value"))?;
        if let Some((series, label)) = name.split_once("_bucket{le=\"") {
            if kinds.get(series) != Some(&Kind::Histogram) {
                return Err(at(&format!("bucket for undeclared histogram `{series}`")));
            }
            let edge = match label.strip_suffix("\"}") {
                Some("+Inf") => None,
                Some(edge) => Some(
                    edge.parse::<u64>()
                        .map_err(|e| at(&format!("bad le edge: {e}")))?,
                ),
                None => return Err(at("malformed le label")),
            };
            let cum = value
                .parse::<u64>()
                .map_err(|e| at(&format!("bad bucket count: {e}")))?;
            samples.buckets.entry(series).or_default().push((edge, cum));
            continue;
        }
        // Labeled samples (`name{mesh="a"} 5`) are declared under their
        // base name but keyed by the full labeled name, so distinct
        // tenants stay distinct samples.
        let base = match name.split_once('{') {
            Some((base, label)) if label.ends_with('}') => base,
            Some(_) => return Err(at("malformed label set")),
            None => name,
        };
        let kind = match kinds.get(base) {
            Some(&kind) => kind,
            None => match base.strip_suffix("_sum").or(base.strip_suffix("_count")) {
                Some(h) if kinds.get(h) == Some(&Kind::Histogram) => Kind::Histogram,
                _ => return Err(at(&format!("sample `{name}` without a # TYPE declaration"))),
            },
        };
        if samples
            .scalars
            .insert(name, (kind, idx + 1, value))
            .is_some()
        {
            return Err(at(&format!("duplicate sample `{name}`")));
        }
    }
    if !saw_eof || !text.ends_with('\n') {
        return Err("exposition truncated: missing # EOF terminator".into());
    }

    let mut snap = StatsSnapshot::default();
    for c in &StatsSnapshot::COUNTERS {
        samples.series(Kind::Counter, &mut snap, c, "")?;
    }
    for g in &StatsSnapshot::GAUGES {
        samples.series(Kind::Gauge, &mut snap, g, "")?;
    }
    let uptime_ms: u64 = samples.take(Kind::Gauge, &format!("oblivion_{UPTIME}"))?;
    // A tenant has a row iff it has a `tenant_accepted` sample; every
    // other tenant series must then carry the same ids.
    let accepted_row = format!("oblivion_{}{{mesh=\"", TenantSnapshot::COUNTERS[0].name);
    let mut ids: Vec<String> = samples
        .scalars
        .keys()
        .filter_map(|name| {
            let id = name
                .strip_prefix(accepted_row.as_str())?
                .strip_suffix("\"}")?;
            Some(id.to_string())
        })
        .collect();
    ids.sort();
    for id in ids {
        let label = format!("{{mesh=\"{id}\"}}");
        let mut t = TenantSnapshot {
            id,
            ..TenantSnapshot::default()
        };
        for c in &TenantSnapshot::COUNTERS {
            samples.series(Kind::Counter, &mut t, c, &label)?;
        }
        samples.series(Kind::Gauge, &mut t, &TenantSnapshot::IN_FLIGHT, &label)?;
        samples.series(Kind::Gauge, &mut t, &TenantSnapshot::STATE_BYTES, &label)?;
        snap.tenants.push(t);
    }
    for (phase, hist) in &mut snap.phases {
        *hist = samples.histogram(&format!("oblivion_serve_phase_{phase}_us"))?;
    }
    if let Some(name) = samples.scalars.keys().next() {
        return Err(format!("sample `{name}` is not a serve series"));
    }
    if let Some(name) = samples.buckets.keys().next() {
        return Err(format!("histogram `{name}` is not a serve series"));
    }
    Ok((snap, Duration::from_millis(uptime_ms)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{serve_one, Counter, Phase, ServeStats};

    fn busy_stats() -> ServeStats {
        let s = ServeStats::default();
        for i in 0..50u64 {
            if i % 9 == 0 {
                s.conn_opened();
                s.enqueue_started();
                s.enqueue_aborted();
                s.shed_at_admission();
                s.conn_closed();
                continue;
            }
            let bucket = if i % 11 == 0 {
                Counter::DeadlineExceeded
            } else {
                Counter::Completed
            };
            serve_one(
                &s,
                bucket,
                &[
                    (Phase::QueueWait, 10 + i),
                    (Phase::Parse, 2),
                    (Phase::RouteCompute, 100 + i * 3),
                    (Phase::ReplyWrite, 5),
                ],
            );
        }
        // Leave some live state on the books: one connection still
        // queued, one adopted with two lines in flight. The scrape must
        // conserve anyway.
        s.conn_opened();
        s.enqueue_started();
        s.conn_opened();
        s.enqueue_started();
        s.conn_dequeued();
        s.admit(2);
        s
    }

    fn scraped(stats: &ServeStats) -> String {
        render_exposition(&stats.snapshot(), Duration::from_millis(1234))
    }

    #[test]
    fn exposition_round_trips_and_conserves() {
        let stats = busy_stats();
        let (snap, uptime) = parse_exposition(&scraped(&stats)).expect("parse");
        snap.check_conservation().expect("conservation");
        assert_eq!(render_exposition(&snap, uptime), scraped(&stats));
        assert_eq!(snap.accepted, 52);
        assert_eq!(snap.connections, 2);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.in_flight, 2);
        assert_eq!(uptime, Duration::from_millis(1234));
        let h = snap.phase(Phase::RouteCompute);
        let (p50, p99, count) = (h.quantile(0.50), h.quantile(0.99), h.count);
        assert!(count > 0 && p50 > 0 && p99 >= p50, "{p50} {p99} {count}");
    }

    #[test]
    fn truncated_scrape_fails_the_parse() {
        let text = scraped(&busy_stats());
        let cut = &text[..text.len() / 2];
        assert!(parse_exposition(cut).is_err());
        let no_eof = text.replace("# EOF\n", "");
        assert!(parse_exposition(&no_eof).is_err());
        assert!(parse_exposition(&text[..text.len() - 1]).is_err());
    }

    #[test]
    fn quantiles_survive_the_wire_format() {
        let stats = ServeStats::default();
        for us in [10u64, 20, 30, 40, 50, 5000] {
            serve_one(&stats, Counter::Completed, &[(Phase::RouteCompute, us)]);
        }
        let snap = stats.snapshot();
        let direct = snap.phase(Phase::RouteCompute).quantile(0.5);
        let text = render_exposition(&snap, Duration::ZERO);
        let (parsed, _) = parse_exposition(&text).unwrap();
        let h = parsed.phase(Phase::RouteCompute);
        assert_eq!(h.count, 6);
        assert_eq!(h.quantile(0.5), direct);
    }

    #[test]
    fn tampered_counters_fail_conservation() {
        let text = scraped(&busy_stats());
        let (mut snap, _) = parse_exposition(&text).unwrap();
        snap.accepted += 1;
        assert!(snap.check_conservation().is_err());
        let (mut snap, _) = parse_exposition(&text).unwrap();
        snap.phases[Phase::Parse as usize].1.count = 10_000;
        assert!(snap.check_conservation().is_err());
        let (mut snap, _) = parse_exposition(&text).unwrap();
        snap.in_flight = -1;
        assert!(snap.check_conservation().is_err());
        let (mut snap, _) = parse_exposition(&text).unwrap();
        snap.connections = -1;
        assert!(snap.check_conservation().is_err());
        // The same tampering on the wire: the parse succeeds, the law
        // does not.
        let bumped = text.replace(
            "oblivion_serve_accepted 52\n",
            "oblivion_serve_accepted 53\n",
        );
        let (snap, _) = parse_exposition(&bumped).unwrap();
        assert!(snap.check_conservation().is_err());
    }

    #[test]
    fn tenant_rows_round_trip_and_conserve() {
        let stats = busy_stats();
        stats.set_tenant_state_bytes("a", 4096);
        stats.set_tenant_state_bytes("b", 1024);
        stats.tenant_admit("a", 5);
        stats.tenant_settle("a", Counter::Completed, 3);
        stats.tenant_settle("a", Counter::ShedOverloaded, 1);
        stats.tenant_admit("b", 2);
        stats.tenant_settle("b", Counter::Completed, 2);
        stats.tenant_mesh_retired("b", 2);
        let text = scraped(&stats);
        let (snap, _) = parse_exposition(&text).expect("parse");
        snap.check_conservation().expect("conservation");
        let ids: Vec<&str> = snap.tenants.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, ["a", "b"]);
        let (a, b) = (&snap.tenants[0], &snap.tenants[1]);
        assert_eq!(a.accepted, 5);
        assert_eq!(a.shed_overloaded, 1);
        assert_eq!(a.in_flight, 1);
        assert_eq!(b.mesh_retired, 2);
        assert_eq!(b.in_flight, 0);
        assert_eq!(a.state_bytes, 4096);
        assert_eq!(b.state_bytes, 1024);
        // Tampering with a tenant row breaks that tenant's own law.
        let (mut bad, _) = parse_exposition(&text).unwrap();
        bad.tenants[0].accepted += 1;
        assert!(bad.check_conservation().is_err());
    }

    #[test]
    fn unknown_series_and_garbage_are_rejected() {
        assert!(parse_exposition("mystery 4\n# EOF\n").is_err());
        assert!(parse_exposition("# TYPE x wibble\nx 1\n# EOF\n").is_err());
        assert!(parse_exposition("# TYPE x counter\nx notanumber\n# EOF\n").is_err());
        assert!(parse_exposition("# EOF\ntrailing 1\n").is_err());
        // A well-formed series the ledger does not have is not a scrape.
        let text = scraped(&busy_stats());
        let extra = text.replace("# EOF\n", "# TYPE x counter\nx 1\n# EOF\n");
        assert!(parse_exposition(&extra).is_err());
        // Plain comments are fine.
        let commented = format!("# HELP something\n{text}");
        let (ok, _) = parse_exposition(&commented).unwrap();
        assert_eq!(ok, parse_exposition(&text).unwrap().0);
    }

    /// Every series the renderer always writes is required; a parsed
    /// scrape is a whole snapshot or an error.
    #[test]
    fn missing_series_are_rejected() {
        let text = scraped(&busy_stats());
        for series in [
            "oblivion_serve_accepted ",
            "oblivion_serve_conns_closed ",
            "oblivion_serve_open_conns ",
            "oblivion_serve_uptime_ms ",
            "oblivion_serve_phase_parse_us_sum ",
            "oblivion_serve_phase_parse_us_bucket{le=\"+Inf\"} ",
        ] {
            let cut: String = text
                .lines()
                .filter(|l| !l.starts_with(series))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_ne!(cut, text, "{series}");
            assert!(parse_exposition(&cut).is_err(), "{series} missing");
        }
        // Dropping one tenant row leaves that tenant incomplete.
        let stats = busy_stats();
        stats.set_tenant_state_bytes("a", 1);
        let text = scraped(&stats);
        let cut = text.replace("oblivion_serve_tenant_in_flight{mesh=\"a\"} 0\n", "");
        assert_ne!(cut, text);
        assert!(parse_exposition(&cut).is_err());
    }

    #[test]
    fn malformed_histograms_are_rejected() {
        let stats = ServeStats::default();
        serve_one(&stats, Counter::Completed, &[(Phase::Parse, 2)]);
        serve_one(&stats, Counter::Completed, &[(Phase::Parse, 9)]);
        let text = render_exposition(&stats.snapshot(), Duration::ZERO);
        let edges = "oblivion_serve_phase_parse_us_bucket{le=\"3\"} 1\n\
                     oblivion_serve_phase_parse_us_bucket{le=\"15\"} 2\n";
        assert!(text.contains(edges), "{text}");
        for (what, bad) in [
            (
                "non-monotone cumulative counts",
                "oblivion_serve_phase_parse_us_bucket{le=\"3\"} 2\n\
                 oblivion_serve_phase_parse_us_bucket{le=\"15\"} 1\n",
            ),
            (
                "an edge that is not a bucket edge",
                "oblivion_serve_phase_parse_us_bucket{le=\"4\"} 1\n\
                 oblivion_serve_phase_parse_us_bucket{le=\"15\"} 2\n",
            ),
            (
                "edges out of order",
                "oblivion_serve_phase_parse_us_bucket{le=\"15\"} 1\n\
                 oblivion_serve_phase_parse_us_bucket{le=\"3\"} 2\n",
            ),
            (
                "a finite total short of the count",
                "oblivion_serve_phase_parse_us_bucket{le=\"3\"} 1\n",
            ),
        ] {
            let tampered = text.replace(edges, bad);
            assert!(parse_exposition(&tampered).is_err(), "{what} accepted");
        }
        let inf = text.replace(
            "oblivion_serve_phase_parse_us_bucket{le=\"+Inf\"} 2\n",
            "oblivion_serve_phase_parse_us_bucket{le=\"+Inf\"} 3\n",
        );
        assert_ne!(inf, text);
        let why = parse_exposition(&inf).unwrap_err();
        assert!(why.contains("+Inf"), "{why}");
    }
}
