//! End-of-run structured reports and the JSON-lines metrics format.
//!
//! A metrics file is plain JSONL: one object per line, each tagged with a
//! `"type"` field — `"counter"`, `"gauge"`, `"histogram"`,
//! `"runtime_counter"`, `"runtime_histogram"`, `"span"`, `"span_event"`,
//! `"serve_stats"`, or `"report"`. The final `"report"` line carries
//! run-level summary fields (command, mesh, congestion, stretch, ...) and
//! a `"schema"` version ([`SCHEMA_VERSION`]; files written before the
//! telemetry layer carry no field and are schema 1). The same writer
//! backs `--metrics-out` in the CLI and `results/*.json` in the bench
//! harness; [`render`] turns a file back into human-readable text for
//! `oblivion stats`.

use crate::json::Json;
use crate::registry::{Histogram, Snapshot, HISTOGRAM_BUCKETS};
use std::fmt::Write as _;

/// Version of the metrics JSONL schema this writer produces. Bumped to 2
/// when gauges, runtime histograms, and periodic `serve_stats` snapshot
/// lines were added; reports without a `"schema"` field are version 1.
pub const SCHEMA_VERSION: u64 = 2;

/// An ordered, append-only set of run-level summary fields.
///
/// Serialization is deterministic: fields appear exactly in insertion
/// order, so two runs that insert the same keys and values produce
/// byte-identical JSON.
#[derive(Debug, Clone)]
pub struct RunReport {
    fields: Vec<(String, Json)>,
}

impl RunReport {
    /// A new report for the given top-level command/experiment name.
    pub fn new(command: &str) -> Self {
        Self {
            fields: vec![
                ("command".to_string(), Json::from(command)),
                ("schema".to_string(), Json::from(SCHEMA_VERSION)),
            ],
        }
    }

    /// Appends (or overwrites) a summary field.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        let value = value.into();
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.fields.push((key.to_string(), value));
        }
        self
    }

    /// The report as one `{"type":"report",...}` JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("type", "report");
        for (k, v) in &self.fields {
            obj.set(k, v.clone());
        }
        obj
    }

    /// The full metrics document: counter/histogram/span lines from the
    /// snapshot followed by the report line, newline-terminated.
    ///
    /// With `include_timings` false, span lines, captured span events,
    /// and runtime counters are omitted — wall-clock times and
    /// scheduling-dependent stats are the only non-deterministic parts of
    /// a snapshot, so the remainder is byte-identical across same-seed
    /// runs.
    pub fn to_jsonl(&self, snap: &Snapshot, include_timings: bool) -> String {
        let mut out = String::new();
        for line in snapshot_lines(snap, include_timings) {
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str(&self.to_json().to_string());
        out.push('\n');
        out
    }
}

/// Serializes a snapshot to tagged JSONL lines (no trailing newline per
/// entry; the caller joins them).
pub fn snapshot_lines(snap: &Snapshot, include_timings: bool) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, value) in &snap.counters {
        let mut obj = Json::obj();
        obj.set("type", "counter")
            .set("name", name.as_str())
            .set("value", *value);
        lines.push(obj.to_string());
    }
    for (name, value) in &snap.gauges {
        let mut obj = Json::obj();
        obj.set("type", "gauge")
            .set("name", name.as_str())
            .set("value", *value);
        lines.push(obj.to_string());
    }
    for (name, hist) in &snap.histograms {
        lines.push(histogram_json("histogram", name, hist).to_string());
    }
    if include_timings {
        for (name, value) in &snap.runtime_counters {
            let mut obj = Json::obj();
            obj.set("type", "runtime_counter")
                .set("name", name.as_str())
                .set("value", *value);
            lines.push(obj.to_string());
        }
        for (name, hist) in &snap.runtime_histograms {
            lines.push(histogram_json("runtime_histogram", name, hist).to_string());
        }
        for (path, stats) in &snap.spans {
            let mut obj = Json::obj();
            obj.set("type", "span")
                .set("name", path.as_str())
                .set("count", stats.count)
                .set("total_ns", stats.total_ns)
                .set("max_ns", stats.max_ns);
            lines.push(obj.to_string());
        }
        lines.extend(snap.events.iter().cloned());
    }
    lines
}

/// Serializes one histogram as a tagged JSON object (`kind` becomes the
/// `"type"` field: `"histogram"` or `"runtime_histogram"`).
pub fn histogram_json(kind: &str, name: &str, hist: &Histogram) -> Json {
    let mut obj = Json::obj();
    obj.set("type", kind)
        .set("name", name)
        .set("count", hist.count)
        .set("sum", hist.sum)
        .set("min", if hist.count == 0 { 0 } else { hist.min })
        .set("max", hist.max);
    let mut buckets = Vec::new();
    for (i, &count) in hist.buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let (lo, hi) = Histogram::bucket_range(i);
        let mut b = Json::obj();
        b.set("lo", lo).set("hi", hi).set("count", count);
        buckets.push(b);
    }
    obj.set("buckets", Json::Arr(buckets));
    obj
}

/// Rebuilds a [`Histogram`] from a serialized histogram line (the inverse
/// of [`histogram_json`]), so renderers can compute quantiles from a
/// parsed metrics file. Returns `None` when the object is missing fields,
/// a bucket does not sit on a power-of-two boundary, a non-empty
/// histogram has `min > max`, or the bucket counts overflow or do not
/// sum to `count` — anything [`Histogram::quantile`] could not answer.
pub fn histogram_from_json(h: &Json) -> Option<Histogram> {
    let mut hist = Histogram::new();
    hist.count = h.get("count")?.as_u64()?;
    hist.sum = h.get("sum")?.as_u64()?;
    hist.max = h.get("max")?.as_u64()?;
    hist.min = if hist.count == 0 {
        u64::MAX
    } else {
        h.get("min")?.as_u64()?
    };
    let Some(Json::Arr(buckets)) = h.get("buckets") else {
        return None;
    };
    let mut total = 0u64;
    for b in buckets {
        let lo = b.get("lo")?.as_u64()?;
        let n = b.get("count")?.as_u64()?;
        let idx = Histogram::bucket_of(lo);
        if idx >= HISTOGRAM_BUCKETS || Histogram::bucket_range(idx).0 != lo {
            return None;
        }
        total = total.checked_add(n)?;
        hist.buckets[idx] += n; // <= total, so it cannot overflow either
    }
    let bounds_ok = hist.count == 0 || hist.min <= hist.max;
    (bounds_ok && total == hist.count).then_some(hist)
}

/// The schema version of each `"report"` line in a parsed document, in
/// file order. Reports written before the version field existed count as
/// version 1. A document whose versions are not all equal mixes writer
/// generations and should be flagged to the reader.
pub fn report_schemas(entries: &[(String, Json)]) -> Vec<u64> {
    entries
        .iter()
        .filter(|(t, _)| t == "report")
        .map(|(_, v)| v.get("schema").and_then(|s| s.as_u64()).unwrap_or(1))
        .collect()
}

/// Parses a JSONL metrics document into its typed lines.
///
/// Blank lines are skipped; a malformed line or a line without a string
/// `"type"` field is an error naming the line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<(String, Json)>, String> {
    let mut entries = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {}: {}", idx + 1, e))?;
        let kind = value
            .get("type")
            .and_then(|t| t.as_str())
            .ok_or_else(|| format!("line {}: missing \"type\" field", idx + 1))?
            .to_string();
        entries.push((kind, value));
    }
    Ok(entries)
}

/// Skipped lines from a lossy parse: `(1-based line number, error)`.
pub type SkippedLines = Vec<(usize, String)>;

/// Lossy variant of [`parse_jsonl`] for corrupt metrics files: every
/// unparseable line (bad JSON, or no string `"type"` field) is skipped
/// and reported as `(line number, error)` instead of aborting the parse.
/// The good entries come back in file order.
pub fn parse_jsonl_lossy(text: &str) -> (Vec<(String, Json)>, SkippedLines) {
    let mut entries = Vec::new();
    let mut bad = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Json::parse(line) {
            Err(e) => bad.push((idx + 1, e)),
            Ok(value) => match value.get("type").and_then(|t| t.as_str()) {
                None => bad.push((idx + 1, "missing \"type\" field".to_string())),
                Some(kind) => entries.push((kind.to_string(), value)),
            },
        }
    }
    (entries, bad)
}

/// Renders a parsed metrics document as human-readable text (the body of
/// `oblivion stats`).
pub fn render(entries: &[(String, Json)]) -> String {
    fn of_kind_in<'a>(
        entries: &'a [(String, Json)],
        kind: &'a str,
    ) -> impl Iterator<Item = &'a Json> + 'a {
        entries
            .iter()
            .filter(move |(t, _)| t == kind)
            .map(|(_, v)| v)
    }
    let mut out = String::new();
    let of_kind = |k: &'static str| of_kind_in(entries, k);

    for report in of_kind("report") {
        out.push_str("run report\n");
        if let Json::Obj(fields) = report {
            for (key, value) in fields {
                if key == "type" {
                    continue;
                }
                let _ = writeln!(out, "  {:<24} {}", key, render_scalar(value));
            }
        }
        out.push('\n');
    }

    if of_kind("counter").next().is_some() {
        out.push_str("counters\n");
        for c in of_kind("counter") {
            let name = c.get("name").and_then(|n| n.as_str()).unwrap_or("?");
            let value = c.get("value").and_then(|v| v.as_u64()).unwrap_or(0);
            let _ = writeln!(out, "  {:<32} {}", name, value);
        }
        out.push('\n');
    }

    if of_kind("gauge").next().is_some() {
        out.push_str("gauges (instantaneous levels)\n");
        for g in of_kind("gauge") {
            let name = g.get("name").and_then(|n| n.as_str()).unwrap_or("?");
            let value = g.get("value").and_then(|v| v.as_i64()).unwrap_or(0);
            let _ = writeln!(out, "  {:<32} {}", name, value);
        }
        out.push('\n');
    }

    for h in of_kind("histogram") {
        render_histogram(&mut out, h, "histogram");
    }

    for h in of_kind("runtime_histogram") {
        render_histogram(&mut out, h, "runtime histogram");
    }

    if of_kind("runtime_counter").next().is_some() {
        out.push_str("runtime counters (scheduling-dependent)\n");
        for c in of_kind("runtime_counter") {
            let name = c.get("name").and_then(|n| n.as_str()).unwrap_or("?");
            let value = c.get("value").and_then(|v| v.as_u64()).unwrap_or(0);
            let _ = writeln!(out, "  {:<32} {}", name, value);
        }
        out.push('\n');
    }

    if of_kind("span").next().is_some() {
        out.push_str("spans\n");
        let _ = writeln!(
            out,
            "  {:<40} {:>8} {:>14} {:>14}",
            "path", "count", "total", "max"
        );
        for s in of_kind("span") {
            let name = s.get("name").and_then(|n| n.as_str()).unwrap_or("?");
            let count = s.get("count").and_then(|v| v.as_u64()).unwrap_or(0);
            let total = s.get("total_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            let max = s.get("max_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<40} {:>8} {:>14} {:>14}",
                name,
                count,
                fmt_ns(total),
                fmt_ns(max)
            );
        }
        out.push('\n');
    }

    let n_events = of_kind("span_event").count();
    if n_events > 0 {
        let _ = writeln!(out, "({n_events} trace events; view raw file for detail)");
    }

    if out.is_empty() {
        out.push_str("(empty metrics file)\n");
    }
    out
}

fn render_histogram(out: &mut String, h: &Json, label: &str) {
    let name = h.get("name").and_then(|n| n.as_str()).unwrap_or("?");
    let count = h.get("count").and_then(|v| v.as_u64()).unwrap_or(0);
    let sum = h.get("sum").and_then(|v| v.as_u64()).unwrap_or(0);
    let min = h.get("min").and_then(|v| v.as_u64()).unwrap_or(0);
    let max = h.get("max").and_then(|v| v.as_u64()).unwrap_or(0);
    let mean = if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    };
    let quantiles = histogram_from_json(h)
        .filter(|hist| hist.count > 0)
        .map(|hist| format!(", p50 {}, p99 {}", hist.quantile(0.50), hist.quantile(0.99)))
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "{label} {name}  (count {count}, mean {mean:.2}, min {min}, max {max}{quantiles})"
    );
    if let Some(Json::Arr(buckets)) = h.get("buckets") {
        let peak = buckets
            .iter()
            .filter_map(|b| b.get("count").and_then(|c| c.as_u64()))
            .max()
            .unwrap_or(1)
            .max(1);
        for b in buckets {
            let lo = b.get("lo").and_then(|v| v.as_u64()).unwrap_or(0);
            let hi = b.get("hi").and_then(|v| v.as_u64()).unwrap_or(0);
            let n = b.get("count").and_then(|v| v.as_u64()).unwrap_or(0);
            let width = ((n as f64 / peak as f64) * 40.0).ceil() as usize;
            let range = if lo == hi {
                format!("{lo}")
            } else {
                format!("{lo}..{hi}")
            };
            let _ = writeln!(out, "  {:>16}  {:>10}  {}", range, n, "#".repeat(width));
        }
    }
    out.push('\n');
}

fn render_scalar(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SpanStats;

    fn sample_snapshot() -> Snapshot {
        let mut hist = Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; crate::registry::HISTOGRAM_BUCKETS],
        };
        // Mirror Histogram::record without going through the registry.
        for v in [0u64, 3, 3, 17] {
            hist.count += 1;
            hist.sum += v;
            hist.min = hist.min.min(v);
            hist.max = hist.max.max(v);
            hist.buckets[Histogram::bucket_of(v)] += 1;
        }
        let mut phase = Histogram::new();
        phase.record(1_000);
        phase.record(4_000);
        Snapshot {
            counters: vec![("packets_routed".to_string(), 42)],
            runtime_counters: vec![("pool_steals".to_string(), 3)],
            gauges: vec![("queue_depth".to_string(), 5)],
            histograms: vec![("random_bits_per_packet".to_string(), hist)],
            runtime_histograms: vec![("phase_route_ns".to_string(), phase)],
            spans: vec![(
                "route/path_selection".to_string(),
                SpanStats {
                    count: 42,
                    total_ns: 1_500_000,
                    max_ns: 90_000,
                },
            )],
            events: vec![],
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut report = RunReport::new("route");
        report.set("packets", 42u64).set("max_congestion", 7u64);
        let doc = report.to_jsonl(&sample_snapshot(), true);
        let entries = parse_jsonl(&doc).unwrap();
        let kinds: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            kinds,
            vec![
                "counter",
                "gauge",
                "histogram",
                "runtime_counter",
                "runtime_histogram",
                "span",
                "report"
            ]
        );
        let report_line = &entries[6].1;
        assert_eq!(report_line.get("command").unwrap().as_str(), Some("route"));
        assert_eq!(report_line.get("packets").unwrap().as_u64(), Some(42));
        assert_eq!(
            report_line.get("schema").unwrap().as_u64(),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(report_schemas(&entries), vec![SCHEMA_VERSION]);
    }

    #[test]
    fn timings_excluded_when_asked() {
        let report = RunReport::new("route");
        let doc = report.to_jsonl(&sample_snapshot(), false);
        assert!(!doc.contains("\"span\""));
        assert!(!doc.contains("total_ns"));
        assert!(!doc.contains("runtime_counter"));
        assert!(!doc.contains("runtime_histogram"));
        let entries = parse_jsonl(&doc).unwrap();
        assert_eq!(entries.len(), 4); // counter + gauge + histogram + report
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut report = RunReport::new("x");
        report.set("a", 1u64).set("b", 2u64).set("a", 3u64);
        let json = report.to_json().to_string();
        assert_eq!(
            json,
            "{\"type\":\"report\",\"command\":\"x\",\"schema\":2,\"a\":3,\"b\":2}"
        );
    }

    #[test]
    fn histogram_json_roundtrips_through_parse() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 3, 3, 17, 900] {
            h.record(v);
        }
        let line = histogram_json("histogram", "lat", &h).to_string();
        let parsed = Json::parse(&line).unwrap();
        let back = histogram_from_json(&parsed).unwrap();
        assert_eq!(back.count, h.count);
        assert_eq!(back.sum, h.sum);
        assert_eq!(back.min, h.min);
        assert_eq!(back.max, h.max);
        assert_eq!(back.buckets, h.buckets);
        assert_eq!(back.quantile(0.5), h.quantile(0.5));
    }

    /// Lines no quantile can be computed from are refused, not
    /// rebuilt: `min > max` would panic in the clamp, and buckets that
    /// overflow or miss `count` would report a rank that is not there.
    #[test]
    fn inconsistent_histogram_lines_are_refused() {
        let parse = |line: &str| histogram_from_json(&Json::parse(line).unwrap());
        let ok = r#"{"count":3,"sum":9,"min":2,"max":3,"buckets":[{"lo":2,"hi":3,"count":3}]}"#;
        assert!(parse(ok).is_some());
        let min_above_max =
            r#"{"count":3,"sum":9,"min":10,"max":5,"buckets":[{"lo":2,"hi":3,"count":3}]}"#;
        assert!(parse(min_above_max).is_none());
        let short = r#"{"count":4,"sum":9,"min":2,"max":3,"buckets":[{"lo":2,"hi":3,"count":3}]}"#;
        assert!(parse(short).is_none());
        let overflow = format!(
            r#"{{"count":3,"sum":9,"min":2,"max":3,"buckets":[{{"lo":2,"hi":3,"count":{m}}},{{"lo":2,"hi":3,"count":4}}]}}"#,
            m = u64::MAX
        );
        assert!(parse(&overflow).is_none());
        let empty = r#"{"count":0,"sum":0,"min":0,"max":0,"buckets":[]}"#;
        assert!(parse(empty).is_some());
        // The renderer drops the quantiles of a refused line instead of
        // panicking.
        let mut out = String::new();
        render_histogram(&mut out, &Json::parse(min_above_max).unwrap(), "hist");
        assert!(!out.contains("p50"), "{out}");
    }

    #[test]
    fn missing_schema_reads_as_version_one() {
        let doc = "{\"type\":\"report\",\"command\":\"old\"}\n\
                   {\"type\":\"report\",\"command\":\"new\",\"schema\":2}\n";
        let entries = parse_jsonl(doc).unwrap();
        assert_eq!(report_schemas(&entries), vec![1, 2]);
    }

    #[test]
    fn render_mentions_key_numbers() {
        let mut report = RunReport::new("route");
        report.set("max_congestion", 7u64);
        let doc = report.to_jsonl(&sample_snapshot(), true);
        let entries = parse_jsonl(&doc).unwrap();
        let text = render(&entries);
        assert!(text.contains("packets_routed"));
        assert!(text.contains("42"));
        assert!(text.contains("max_congestion"));
        assert!(text.contains("random_bits_per_packet"));
        assert!(text.contains("route/path_selection"));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("{\"type\":\"counter\"}\nnot json\n").is_err());
        assert!(parse_jsonl("{\"notype\":1}\n").is_err());
        assert!(parse_jsonl("\n\n").unwrap().is_empty());
    }

    #[test]
    fn lossy_parse_skips_bad_lines_with_context() {
        let text = "{\"type\":\"counter\",\"name\":\"a\",\"value\":1}\n\
                    not json at all\n\
                    {\"notype\":1}\n\
                    {\"type\":\"report\",\"command\":\"x\"}\n";
        let (entries, bad) = parse_jsonl_lossy(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "counter");
        assert_eq!(entries[1].0, "report");
        assert_eq!(bad.len(), 2);
        assert_eq!(bad[0].0, 2);
        assert_eq!(bad[1].0, 3);
        assert!(bad[1].1.contains("type"));
        // A clean document parses with no complaints.
        let (ok, none) = parse_jsonl_lossy("{\"type\":\"counter\"}\n");
        assert_eq!(ok.len(), 1);
        assert!(none.is_empty());
    }
}
