//! Argument parsing and command execution for the `oblivion` CLI.
//!
//! Hand-rolled (no argument-parsing dependency): the grammar is small and
//! the parsers are unit-tested below.

use crate::routing::{route_all_metered, ObliviousRouter};
use oblivion_mesh::{Coord, Mesh};
use oblivion_metrics::{congestion_lower_bound, PathSetMetrics};
use oblivion_sim::{SchedulingPolicy, Simulation};
use oblivion_workloads as wl;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A parsed command line: subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (`route`, `path`, `decompose`, `simulate`, `list`).
    pub command: String,
    /// `--key value` pairs.
    pub options: HashMap<String, String>,
}

/// Options that are flags: present or absent, never followed by a value.
/// `--trace` is recorded as `trace = "true"`.
pub const BOOL_FLAGS: &[&str] = &["trace", "no-health", "check", "keep-alive", "open-loop"];

/// Options every subcommand accepts (the observability pair).
const GLOBAL_OPTIONS: &[&str] = &["metrics-out", "trace"];

/// The options each subcommand reads, besides [`GLOBAL_OPTIONS`].
/// [`dispatch`] refuses any other `--key` before the command starts, so a
/// misspelt or retired flag is an error instead of a silent default.
/// `stats` stores its positional metrics file as `file`.
#[rustfmt::skip]
const COMMAND_OPTIONS: &[(&str, &[&str])] = &[
    ("help", &[]),
    ("--help", &[]),
    ("-h", &[]),
    ("list", &[]),
    ("route", &["mesh", "torus", "router", "workload", "workload-file", "seed", "simulate"]),
    ("heatmap", &["mesh", "router", "workload", "workload-file", "seed"]),
    ("path", &["mesh", "torus", "router", "from", "to", "seed"]),
    ("decompose", &["mesh", "level", "kind"]),
    ("simulate", &[
        "mesh", "torus", "router", "workload", "workload-file", "seed", "policy", "max-delay",
    ]),
    ("online", &[
        "mesh", "router", "seed", "rate", "steps", "policy", "threads", "pattern",
        "fault-links", "fault-nodes", "drop-prob", "fault-mode", "mttr", "mtbf", "recovery",
        "retry-budget", "fault-seed", "checkpoint-dir", "checkpoint-every", "ckpt-stop-at",
    ]),
    ("bracket", &["mesh", "torus", "router", "workload", "workload-file", "seed"]),
    ("pia", &["mesh", "router", "l", "samples", "seed", "out"]),
    ("serve", &[
        "mesh", "router", "tenant-quota", "port", "threads", "queue", "deadline-ms", "drain-ms",
        "work-us", "batch-max", "no-health", "health-port", "stats-every", "host",
        "chaos-seed", "chaos-stall-prob", "chaos-stall-ms", "chaos-write-prob",
        "chaos-write-ms", "chaos-reset-prob", "chaos-pause-prob", "chaos-pause-ms",
    ]),
    ("loadgen", &[
        "mesh", "port", "requests", "concurrency", "retries", "backoff-ms", "backoff-cap-ms",
        "timeout-ms", "seed", "pipeline", "keep-alive", "rate", "open-loop", "hedge-after",
        "mesh-id", "tenant-mix", "host",
    ]),
    ("top", &["port", "interval-ms", "iterations", "timeout-ms", "check", "host"]),
    ("stats", &["file"]),
];

/// Refuses an option the subcommand does not read (unknown subcommands
/// are left for [`dispatch`] to report).
fn check_options(args: &Args) -> Result<(), String> {
    let Some((_, accepted)) = COMMAND_OPTIONS.iter().find(|(c, _)| *c == args.command) else {
        return Ok(());
    };
    let unknown = args
        .options
        .keys()
        .filter(|k| !GLOBAL_OPTIONS.contains(&k.as_str()) && !accepted.contains(&k.as_str()))
        .min();
    match unknown {
        Some(key) => Err(format!(
            "unknown option --{key} for `{}`; see `oblivion help`",
            args.command
        )),
        None => Ok(()),
    }
}

/// Parses raw arguments (without the program name).
///
/// Grammar: `SUBCOMMAND (--key value | --flag)*`, where `--flag` is one
/// of [`BOOL_FLAGS`]. The `stats` subcommand additionally accepts one
/// positional argument (the metrics file), stored as option `file`.
pub fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut it = raw.iter();
    let command = it
        .next()
        .ok_or_else(|| "missing subcommand; try `oblivion help`".to_string())?
        .clone();
    let mut options = HashMap::new();
    while let Some(token) = it.next() {
        let Some(key) = token.strip_prefix("--") else {
            if command == "stats" && !options.contains_key("file") {
                options.insert("file".to_string(), token.clone());
                continue;
            }
            return Err(format!("expected --option, got `{token}`"));
        };
        if BOOL_FLAGS.contains(&key) {
            options.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{key} needs a value"))?
            .clone();
        // `--mesh` is repeatable (multi-tenant serve registers one mesh
        // per occurrence); repeats are joined with `,`, which no mesh
        // spec contains. Every other option is last-wins.
        if key == "mesh" {
            options
                .entry("mesh".to_string())
                .and_modify(|v| {
                    v.push(',');
                    v.push_str(&value);
                })
                .or_insert(value);
        } else {
            options.insert(key.to_string(), value);
        }
    }
    Ok(Args { command, options })
}

/// Parses a mesh spec like `64x64`, `16x16x16`, or `32` (1-D). Shared
/// with the serve registry's `ADMIN ADD` via `oblivion-core`, so the
/// command line and the hot-reconfiguration path accept the same specs
/// and reject bad ones with the same message.
pub fn parse_mesh_spec(spec: &str, torus: bool) -> Result<Mesh, String> {
    crate::routing::parse_mesh_spec(spec, torus)
}

/// Parses a coordinate like `3,4` against a mesh: the serve wire's
/// parser, so `path --from/--to` and `PATH` lines accept the same
/// coordinates and reject bad ones with the same message.
pub use oblivion_serve::wire::parse_coord;

/// The router names the CLI accepts (the shared factory's list, so the
/// CLI and `ADMIN ADD` agree).
pub use crate::routing::ROUTER_NAMES;

/// Builds a router by CLI name, validating the mesh shape the algorithm
/// requires (so the CLI reports an error instead of panicking).
/// Delegates to the shared factory in `oblivion-core`.
pub fn make_router(name: &str, mesh: &Mesh) -> Result<Box<dyn ObliviousRouter>, String> {
    crate::routing::build_router(name, mesh)
}

/// The workload names the CLI accepts.
pub const WORKLOAD_NAMES: &[&str] = &[
    "transpose",
    "random-perm",
    "bit-reversal",
    "bit-complement",
    "tornado",
    "shuffle",
    "neighbor-exchange",
    "central-cut",
    "hotspot",
];

/// Builds a workload by CLI name.
pub fn make_workload(name: &str, mesh: &Mesh, rng: &mut StdRng) -> Result<wl::Workload, String> {
    Ok(match name {
        "transpose" => wl::transpose(mesh).without_self_loops(),
        "random-perm" => wl::random_permutation(mesh, rng),
        "bit-reversal" => wl::bit_reversal(mesh).without_self_loops(),
        "bit-complement" => wl::bit_complement(mesh),
        "tornado" => wl::tornado(mesh),
        "shuffle" => wl::shuffle(mesh).without_self_loops(),
        "neighbor-exchange" => wl::neighbor_exchange(mesh, 0),
        "central-cut" => wl::central_cut_neighbors(mesh, 0),
        "hotspot" => {
            let mut center = Coord::origin(mesh.dim());
            for i in 0..mesh.dim() {
                center[i] = mesh.side(i) / 2;
            }
            wl::hotspot(mesh, center, mesh.node_count() / 4, rng)
        }
        other => {
            return Err(format!(
                "unknown workload `{other}`; choose one of {WORKLOAD_NAMES:?}"
            ))
        }
    })
}

/// Parses a scheduling policy name.
pub fn parse_policy(name: &str) -> Result<SchedulingPolicy, String> {
    Ok(match name {
        "fifo" => SchedulingPolicy::Fifo,
        "furthest" | "ftg" => SchedulingPolicy::FurthestToGo,
        "closest" | "ctg" => SchedulingPolicy::ClosestToGo,
        "rank" | "random-rank" => SchedulingPolicy::RandomRank,
        other => return Err(format!("unknown policy `{other}` (fifo|ftg|ctg|rank)")),
    })
}

/// Resolves the workload: `--workload-file` (the `oblivion_workloads::io`
/// line format) takes precedence over the named `--workload`.
fn workload_from_args(args: &Args, mesh: &Mesh, rng: &mut StdRng) -> Result<wl::Workload, String> {
    if let Some(path) = args.options.get("workload-file") {
        return wl::io::read_file(path, mesh).map_err(|e| e.to_string());
    }
    make_workload(opt(args, "workload", "random-perm"), mesh, rng)
}

fn opt<'a>(args: &'a Args, key: &str, default: &'a str) -> &'a str {
    args.options.get(key).map(String::as_str).unwrap_or(default)
}

/// `--torus true|false` (default `false`); any other value is an error
/// rather than a silent mesh.
fn torus_of(args: &Args) -> Result<bool, String> {
    match opt(args, "torus", "false") {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("bad --torus `{other}` (want true or false)")),
    }
}

// ---------------------------------------------------------------------
// Observability plumbing (`--trace`, `--metrics-out`, `oblivion stats`).
//
// Commands deposit their headline numbers here via [`report_field`]; when
// metrics are requested, [`run`] drains them into the final `RunReport`
// line of the JSONL document. With observability off the deposit is a
// no-op, so commands stay oblivious (pun intended) to the machinery.
// ---------------------------------------------------------------------

thread_local! {
    static REPORT_FIELDS: std::cell::RefCell<Vec<(String, oblivion_obs::Json)>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// A checkpoint store whose snapshots became obsolete because the run
    /// completed; cleared by [`run`] only *after* the metrics file is
    /// durably written, so a failed write never destroys the recovery
    /// point.
    static CKPT_CLEAR: std::cell::RefCell<Option<oblivion_ckpt::Store>> =
        const { std::cell::RefCell::new(None) };
    /// When set (by `serve --stats-every`), [`finish_metrics`] *appends*
    /// to `--metrics-out` instead of overwriting it: the server's
    /// background flusher has already been streaming `serve_stats` JSONL
    /// snapshots into the same file, and the final report must land
    /// after them, not on top of them.
    static METRICS_APPEND: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn report_field(key: &str, value: impl Into<oblivion_obs::Json>) {
    if !oblivion_obs::is_enabled() {
        return;
    }
    let value = value.into();
    REPORT_FIELDS.with(|f| f.borrow_mut().push((key.to_string(), value)));
}

/// Whether this invocation asked for metrics collection.
fn wants_metrics(args: &Args) -> bool {
    args.options.contains_key("metrics-out") || opt(args, "trace", "false") == "true"
}

/// Finishes a metered invocation: assembles the JSONL document from the
/// registry snapshot plus the fields commands deposited, writes it to
/// `--metrics-out` (if given), and prints a span summary to stderr under
/// `--trace`.
fn finish_metrics(args: &Args) -> Result<(), String> {
    let snap = oblivion_obs::snapshot();
    let mut report = oblivion_obs::RunReport::new(&args.command);
    for key in ["mesh", "router", "workload", "seed"] {
        if let Some(v) = args.options.get(key) {
            report.set(key, v.as_str());
        }
    }
    REPORT_FIELDS.with(|f| {
        for (k, v) in f.borrow_mut().drain(..) {
            report.set(&k, v);
        }
    });
    let doc = report.to_jsonl(&snap, true);
    if let Some(path) = args.options.get("metrics-out") {
        if METRICS_APPEND.with(|a| a.get()) {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open {path} for append: {e}"))?;
            f.write_all(doc.as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        } else {
            std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    if opt(args, "trace", "false") == "true" {
        let entries = oblivion_obs::parse_jsonl(&doc)
            .map_err(|e| format!("metrics document does not parse back: {e}"))?;
        eprintln!("{}", oblivion_obs::render(&entries));
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<String, String> {
    let path = args
        .options
        .get("file")
        .ok_or("usage: oblivion stats <metrics.json>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Corrupt files are rendered best-effort: bad lines are skipped with
    // a warning on stderr, and only a file with no usable line at all is
    // an error.
    let (entries, bad) = oblivion_obs::parse_jsonl_lossy(&text);
    for (lineno, err) in &bad {
        eprintln!("warning: {path}: line {lineno}: {err} (skipped)");
    }
    if !bad.is_empty() {
        eprintln!(
            "warning: {path}: skipped {} unparseable line{} of {}",
            bad.len(),
            if bad.len() == 1 { "" } else { "s" },
            bad.len() + entries.len()
        );
    }
    if entries.is_empty() && !bad.is_empty() {
        return Err(format!("{path}: no parseable metrics lines"));
    }
    // Telemetry schema check: reports written before the live-telemetry
    // schema (v2: gauges, runtime histograms, serve_stats lines) carry
    // no `schema` stamp and read as v1. A file that mixes versions
    // renders fine, but cross-report comparisons of the new series
    // would silently compare against holes — so warn.
    let mut schemas = oblivion_obs::report_schemas(&entries);
    schemas.sort_unstable();
    schemas.dedup();
    if schemas.len() > 1 {
        eprintln!(
            "warning: {path}: mixes report schema versions {schemas:?} (pre/post \
             live-telemetry); gauge and phase-histogram series are absent from the \
             older reports, not zero"
        );
    }
    let mut out = oblivion_obs::render(&entries);
    // Resume provenance: runs that recovered from a checkpoint stamp
    // their report line; surface that, and warn when one file mixes
    // reports resumed from different checkpoint generations (the lines
    // then describe different interrupted histories).
    let mut generations: Vec<u64> = Vec::new();
    for (kind, obj) in &entries {
        if kind != "report" {
            continue;
        }
        let Some(gen) = obj.get("ckpt_resumed_generation").and_then(|v| v.as_u64()) else {
            continue;
        };
        generations.push(gen);
        let step = obj
            .get("ckpt_resumed_from_step")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        let crc = obj
            .get("ckpt_resumed_crc")
            .and_then(|v| v.as_str())
            .unwrap_or("?");
        let _ = writeln!(
            out,
            "resume provenance: resumed from checkpoint generation {gen} at step {step} (crc {crc})"
        );
    }
    generations.sort_unstable();
    generations.dedup();
    if generations.len() > 1 {
        eprintln!(
            "warning: {path}: mixes reports resumed from different checkpoint generations \
             ({generations:?}); entries may describe different interrupted histories"
        );
    }
    Ok(out)
}

fn seed_of(args: &Args) -> Result<u64, String> {
    opt(args, "seed", "42")
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))
}

/// The `help` text.
pub fn help() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "oblivion — oblivious path selection on the mesh (Busch/Magdon-Ismail/Xi, IPDPS'05)\n\n\
         USAGE: oblivion <COMMAND> [--option value]...\n\n\
         COMMANDS:\n\
         \u{20}  route     route a workload, report C / D / stretch / lower bound\n\
         \u{20}            --mesh 64x64 [--torus true] --router busch2d --workload transpose\n\
         \u{20}            [--seed 42] [--simulate fifo|ftg|ctg|rank]\n\
         \u{20}  path      route one packet and print the hops\n\
         \u{20}            --mesh 64x64 --router busch2d --from 3,4 --to 60,9 [--seed 42]\n\
         \u{20}  heatmap   ASCII congestion heat-map of a routed workload (2-D)\n\
         \u{20}            --mesh 16x16 --router busch2d --workload transpose\n\
         \u{20}  decompose render the hierarchical decomposition (2-D)\n\
         \u{20}            --mesh 8x8 --level 1 [--kind 1|2]\n\
         \u{20}  pia       build the Section-5 adversarial problem Pi_A for a router\n\
         \u{20}            --mesh 32x32 --router dim-order --l 8 [--out pia.txt]\n\
         \u{20}  bracket   bracket C*: lower bound vs offline router vs your router\n\
         \u{20}            --mesh 16x16 --router buschd --workload transpose\n\
         \u{20}  online    continuous-injection simulation (latency vs load)\n\
         \u{20}            --mesh 16x16 --router busch2d --rate 0.05 --steps 500\n\
         \u{20}            [--pattern uniform|transpose] [--policy fifo] [--threads N]\n\
         \u{20}            (--threads parallelizes across link shards; the results\n\
         \u{20}             are identical for every thread count)\n\
         \u{20}            fault injection: [--fault-links P] [--fault-nodes P]\n\
         \u{20}            [--drop-prob P] [--fault-mode permanent|transient]\n\
         \u{20}            [--mttr T] [--mtbf T] [--recovery wait|resample|drop]\n\
         \u{20}            [--retry-budget K] [--fault-seed S]  (deterministic:\n\
         \u{20}             the fault schedule is a pure function of mesh + seed)\n\
         \u{20}            crash recovery: [--checkpoint-dir DIR] [--checkpoint-every K]\n\
         \u{20}            (snapshot full state every K steps and on SIGINT/SIGTERM;\n\
         \u{20}             rerunning the same command resumes from the newest valid\n\
         \u{20}             snapshot with byte-identical final results)\n\
         \u{20}  simulate  route then deliver, reporting makespan vs C+D\n\
         \u{20}            --mesh 32x32 --router busch2d --workload random-perm\n\
         \u{20}            [--policy ftg] [--max-delay N] [--seed 42]\n\
         \u{20}  serve     overload-safe TCP path-selection service (line protocol,\n\
         \u{20}            keep-alive + pipelined: many PATH lines per connection,\n\
         \u{20}            replies in order, routed in batches)\n\
         \u{20}            --mesh 16x16 --router buschd --port 4701 [--threads 4]\n\
         \u{20}            [--queue 64] [--batch-max 64] [--deadline-ms 1000]\n\
         \u{20}            [--drain-ms 2000] [--health-port P|--no-health]\n\
         \u{20}            [--host 127.0.0.1]\n\
         \u{20}            multi-tenant: repeat --mesh NxN[:id] to serve many\n\
         \u{20}            meshes from one daemon (first spec is the default mesh;\n\
         \u{20}            clients pick one with a `MESH <id> ` line prefix)\n\
         \u{20}            [--tenant-quota N]  (per-tenant token bucket: N lines/s,\n\
         \u{20}             burst N, N in flight; an over-quota tenant sheds\n\
         \u{20}             ERR OVERLOADED for itself alone)\n\
         \u{20}            ADMIN on the health port, no restart needed:\n\
         \u{20}            `ADMIN LIST` | `ADMIN ADD <id> <mesh> <router>` |\n\
         \u{20}            `ADMIN RETIRE <id>`  (retire drains in-flight lines,\n\
         \u{20}             then answers ERR MESH_RETIRED until the id is re-added)\n\
         \u{20}            [--stats-every MS]  (with --metrics-out: append a JSONL\n\
         \u{20}             stats snapshot every MS ms — a crash loses at most one\n\
         \u{20}             interval of telemetry)\n\
         \u{20}            (bounded queue sheds ERR OVERLOADED; SIGTERM drains\n\
         \u{20}             gracefully; HEALTH/READY/METRICS answer on the health\n\
         \u{20}             port even under overload; PATH takes an optional\n\
         \u{20}             trailing id=<token> echoed on every reply)\n\
         \u{20}            chaos: --chaos-seed S with [--chaos-stall-prob P]\n\
         \u{20}            [--chaos-stall-ms 5] [--chaos-write-prob P]\n\
         \u{20}            [--chaos-write-ms 5] [--chaos-reset-prob P]\n\
         \u{20}            [--chaos-pause-prob P] [--chaos-pause-ms 20]\n\
         \u{20}            (deterministic straggler injection — compute stalls with\n\
         \u{20}             a heavy tail, slow two-chunk writes, connection resets,\n\
         \u{20}             worker pauses; a pure function of --chaos-seed, counted\n\
         \u{20}             in METRICS, still conserving; all knobs need the seed)\n\
         \u{20}  loadgen   load generator for `oblivion serve`\n\
         \u{20}            --port 4701 --mesh 16x16 [--requests 200]\n\
         \u{20}            [--concurrency 8] [--retries 8] [--backoff-ms 10]\n\
         \u{20}            [--backoff-cap-ms 500] [--timeout-ms 2000] [--seed 42]\n\
         \u{20}            [--keep-alive] [--pipeline N]  (persistent connections;\n\
         \u{20}             N request lines in flight per connection — N > 1\n\
         \u{20}             implies --keep-alive; N must be at least 1)\n\
         \u{20}            [--rate R] [--open-loop]  (open loop: arrival i launches\n\
         \u{20}             at i/R seconds and latency counts from the *scheduled*\n\
         \u{20}             arrival, so stragglers cannot hide behind coordinated\n\
         \u{20}             omission; --rate implies --open-loop)\n\
         \u{20}            [--hedge-after p99|MS]  (fire a duplicate attempt on a\n\
         \u{20}             second connection once the primary is quiet this long;\n\
         \u{20}             first reply wins, loser counted as wasted; needs the\n\
         \u{20}             per-request transport)\n\
         \u{20}            [--mesh-id ID]  (prefix every request with `MESH ID`)\n\
         \u{20}            [--tenant-mix a=0.8,b=0.2]  (weighted per-request tenant\n\
         \u{20}             mix, deterministic in --seed; per-tenant latency and\n\
         \u{20}             error partitions in the summary)\n\
         \u{20}            (tags every request with a trace id and verifies the\n\
         \u{20}             echo; exit 2 if any request fails or any response is\n\
         \u{20}             malformed)\n\
         \u{20}  top       live terminal view of a running daemon (polls METRICS)\n\
         \u{20}            --port 4702 [--interval-ms 1000] [--iterations N]\n\
         \u{20}            [--timeout-ms 2000] [--check]\n\
         \u{20}            (point it at the health port; --check fails on any\n\
         \u{20}             scrape violating the serve conservation law)\n\
         \u{20}  stats     render a JSONL metrics file written by --metrics-out\n\
         \u{20}            oblivion stats results/route.json\n\
         \u{20}  list      list routers and workloads\n\
         \u{20}            (route/simulate/heatmap accept --workload-file FILE with\n\
         \u{20}             lines \"x1,y1 -> x2,y2\"; see oblivion_workloads::io)\n\
         \u{20}  help      this text\n\n\
         OBSERVABILITY (any command):\n\
         \u{20}  --metrics-out FILE  write counters/histograms/span timings + run\n\
         \u{20}                      report as JSON lines (render with `oblivion stats`)\n\
         \u{20}  --trace             also capture per-span events; summary on stderr"
    );
    let _ = writeln!(s, "\nROUTERS:   {}", ROUTER_NAMES.join(", "));
    let _ = writeln!(s, "WORKLOADS: {}", WORKLOAD_NAMES.join(", "));
    s
}

/// Executes a parsed command, returning the text to print.
pub fn run(args: &Args) -> Result<String, String> {
    // Checkpointed runs always collect, even without --metrics-out:
    // snapshots embed the counter/histogram state, and a resume that
    // *does* ask for metrics must find the pre-kill half in the
    // snapshot, not a hole. (finish_metrics still only writes a file
    // when --metrics-out is present.)
    let metered = wants_metrics(args) || args.options.contains_key("checkpoint-dir");
    if metered {
        oblivion_obs::reset();
        oblivion_obs::capture_events(opt(args, "trace", "false") == "true");
        oblivion_obs::enable();
        REPORT_FIELDS.with(|f| f.borrow_mut().clear());
        METRICS_APPEND.with(|a| a.set(false));
    }
    let result = dispatch(args);
    let obsolete_ckpt = CKPT_CLEAR.with(|c| c.borrow_mut().take());
    if metered {
        oblivion_obs::disable();
        oblivion_obs::capture_events(false);
        if result.is_ok() {
            finish_metrics(args)?;
        }
    }
    if result.is_ok() {
        if let Some(store) = obsolete_ckpt {
            if let Err(e) = store.clear() {
                eprintln!(
                    "warning: cannot clear checkpoint dir {}: {e}",
                    store.dir().display()
                );
            }
        }
    }
    result
}

fn dispatch(args: &Args) -> Result<String, String> {
    check_options(args)?;
    match args.command.as_str() {
        "help" | "--help" | "-h" => Ok(help()),
        "list" => Ok(format!(
            "routers:   {}\nworkloads: {}\n",
            ROUTER_NAMES.join(", "),
            WORKLOAD_NAMES.join(", ")
        )),
        "route" => cmd_route(args),
        "heatmap" => cmd_heatmap(args),
        "path" => cmd_path(args),
        "decompose" => cmd_decompose(args),
        "simulate" => cmd_simulate(args),
        "online" => cmd_online(args),
        "bracket" => cmd_bracket(args),
        "pia" => cmd_pia(args),
        "serve" => cmd_serve(args),
        "loadgen" => cmd_loadgen(args),
        "top" => cmd_top(args),
        "stats" => cmd_stats(args),
        other => Err(format!("unknown command `{other}`; try `oblivion help`")),
    }
}

fn cmd_route(args: &Args) -> Result<String, String> {
    let torus = torus_of(args)?;
    let mesh = parse_mesh_spec(opt(args, "mesh", "32x32"), torus)?;
    let router = make_router(opt(args, "router", "buschd"), &mesh)?;
    let seed = seed_of(args)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let w = workload_from_args(args, &mesh, &mut rng)?;
    let (paths, bits, max_bits) = route_all_metered(router.as_ref(), &w.pairs, &mut rng);
    let m = PathSetMetrics::measure(&mesh, &paths);
    let lb = congestion_lower_bound(&mesh, &w.pairs);
    report_field("router_name", router.name().as_str());
    report_field("packets", w.len() as u64);
    report_field("max_congestion", m.congestion as u64);
    report_field("dilation", m.dilation as u64);
    report_field("max_stretch", m.max_stretch);
    report_field("mean_stretch", m.mean_stretch);
    report_field("congestion_lower_bound", lb);
    report_field("random_bits_total", bits);
    report_field("random_bits_max", max_bits);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "router {} on {:?} {:?}, workload {} ({} packets, seed {seed})",
        router.name(),
        mesh.dims(),
        mesh.topology(),
        w.name,
        w.len()
    );
    let _ = writeln!(out, "  congestion C      = {}", m.congestion);
    let _ = writeln!(
        out,
        "  C* lower bound    = {lb:.2}  (C/lb = {:.2})",
        f64::from(m.congestion) / lb.max(1e-9)
    );
    let _ = writeln!(out, "  dilation D        = {}", m.dilation);
    let _ = writeln!(out, "  C + D             = {}", m.c_plus_d());
    let _ = writeln!(out, "  max stretch       = {:.2}", m.max_stretch);
    let _ = writeln!(out, "  mean stretch      = {:.2}", m.mean_stretch);
    let _ = writeln!(
        out,
        "  random bits/packet = {:.1}",
        bits as f64 / w.len().max(1) as f64
    );
    if let Some(policy) = args.options.get("simulate") {
        let policy = parse_policy(policy)?;
        let res = Simulation::new(&mesh, paths).run(policy, seed);
        report_field("makespan", res.makespan);
        let _ = writeln!(
            out,
            "  makespan ({policy:?}) = {}  ({:.2}x of C+D)",
            res.makespan,
            res.makespan as f64 / m.c_plus_d().max(1) as f64
        );
    }
    Ok(out)
}

fn cmd_heatmap(args: &Args) -> Result<String, String> {
    let mesh = parse_mesh_spec(opt(args, "mesh", "16x16"), false)?;
    if mesh.dim() != 2 {
        return Err("heatmap renders 2-D meshes".into());
    }
    let router = make_router(opt(args, "router", "buschd"), &mesh)?;
    let seed = seed_of(args)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let w = if args.options.contains_key("workload-file") {
        workload_from_args(args, &mesh, &mut rng)?
    } else {
        make_workload(opt(args, "workload", "transpose"), &mesh, &mut rng)?
    };
    let (paths, _, _) = route_all_metered(router.as_ref(), &w.pairs, &mut rng);
    let loads = oblivion_metrics::EdgeLoads::from_paths(&mesh, &paths);
    Ok(format!(
        "{} on {} ({} packets):\n{}",
        router.name(),
        w.name,
        w.len(),
        oblivion_metrics::render_heatmap_with_legend(&mesh, &loads)
    ))
}

fn cmd_path(args: &Args) -> Result<String, String> {
    let torus = torus_of(args)?;
    let mesh = parse_mesh_spec(opt(args, "mesh", "32x32"), torus)?;
    let router = make_router(opt(args, "router", "buschd"), &mesh)?;
    let s = parse_coord(args.options.get("from").ok_or("missing --from")?, &mesh)?;
    let t = parse_coord(args.options.get("to").ok_or("missing --to")?, &mesh)?;
    let mut rng = StdRng::seed_from_u64(seed_of(args)?);
    let rp = router.select_path(&s, &t, &mut rng);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} -> {}: {} hops (shortest {}), stretch {:.2}, {} random bits",
        router.name(),
        s,
        t,
        rp.path.len(),
        mesh.dist(&s, &t),
        rp.path.stretch(&mesh),
        rp.random_bits
    );
    let hops: Vec<String> = rp.path.nodes().iter().map(|c| c.to_string()).collect();
    let _ = writeln!(out, "  {}", hops.join(" "));
    Ok(out)
}

fn cmd_decompose(args: &Args) -> Result<String, String> {
    let mesh = parse_mesh_spec(opt(args, "mesh", "8x8"), false)?;
    if mesh.dim() != 2 || mesh.side(0) != mesh.side(1) || !mesh.side(0).is_power_of_two() {
        return Err("decompose renders 2-D square power-of-two meshes".into());
    }
    let d = crate::decomp::Decomp2::for_mesh(&mesh);
    let level: u32 = opt(args, "level", "1")
        .parse()
        .map_err(|e| format!("bad --level: {e}"))?;
    if level > d.k() {
        return Err(format!("level must be 0..={}", d.k()));
    }
    let kind = opt(args, "kind", "1");
    match kind {
        "1" => Ok(crate::decomp::render::render_2d_type1(&d, level)),
        "2" => Ok(crate::decomp::render::render_2d_type2(&d, level)),
        other => Err(format!("--kind must be 1 or 2, got `{other}`")),
    }
}

fn cmd_simulate(args: &Args) -> Result<String, String> {
    let torus = torus_of(args)?;
    let mesh = parse_mesh_spec(opt(args, "mesh", "32x32"), torus)?;
    let router = make_router(opt(args, "router", "buschd"), &mesh)?;
    let seed = seed_of(args)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let w = workload_from_args(args, &mesh, &mut rng)?;
    let policy = parse_policy(opt(args, "policy", "ftg"))?;
    let (paths, _, _) = route_all_metered(router.as_ref(), &w.pairs, &mut rng);
    let m = PathSetMetrics::measure(&mesh, &paths);
    let sim = Simulation::new(&mesh, paths);
    let res = match args.options.get("max-delay") {
        None => sim.run(policy, seed),
        Some(d) => {
            let d: u64 = d.parse().map_err(|e| format!("bad --max-delay: {e}"))?;
            sim.run_with_random_delays(policy, seed, d)
        }
    };
    report_field("router_name", router.name().as_str());
    report_field("packets", w.len() as u64);
    report_field("max_congestion", m.congestion as u64);
    report_field("dilation", m.dilation as u64);
    report_field("makespan", res.makespan);
    report_field("max_contention", res.max_contention as u64);
    report_field("max_queue", res.max_queue as u64);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} + {:?} on {}: C={} D={} C+D={}",
        router.name(),
        policy,
        w.name,
        m.congestion,
        m.dilation,
        m.c_plus_d()
    );
    let _ = writeln!(
        out,
        "  makespan {}  ({:.2}x of C+D), mean delivery {:.1}, max contention {}",
        res.makespan,
        res.makespan as f64 / m.c_plus_d().max(1) as f64,
        res.mean_delivery(),
        res.max_contention
    );
    Ok(out)
}

fn cmd_bracket(args: &Args) -> Result<String, String> {
    let torus = torus_of(args)?;
    let mesh = parse_mesh_spec(opt(args, "mesh", "16x16"), torus)?;
    let router = make_router(opt(args, "router", "buschd"), &mesh)?;
    let seed = seed_of(args)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let w = workload_from_args(args, &mesh, &mut rng)?;
    let lb = congestion_lower_bound(&mesh, &w.pairs);
    let offline = crate::routing::route_min_congestion(
        &mesh,
        &w.pairs,
        crate::routing::OfflineConfig::default(),
        &mut rng,
    );
    let off_c = PathSetMetrics::measure(&mesh, &offline).congestion;
    let (paths, _, _) = route_all_metered(router.as_ref(), &w.pairs, &mut rng);
    let c = PathSetMetrics::measure(&mesh, &paths).congestion;
    let mut out = String::new();
    let _ = writeln!(out, "C* bracket on {} ({} packets):", w.name, w.len());
    let _ = writeln!(out, "  lower bound        lb = {lb:.2}");
    let _ = writeln!(out, "  offline achievable C(offline) = {off_c}");
    let _ = writeln!(out, "  {} C = {c}", router.name());
    let _ = writeln!(
        out,
        "  competitive ratio <= C/C(offline) = {:.2}  (vs C/lb = {:.2})",
        f64::from(c) / f64::from(off_c.max(1)),
        f64::from(c) / lb.max(1e-9)
    );
    Ok(out)
}

fn cmd_pia(args: &Args) -> Result<String, String> {
    let mesh = parse_mesh_spec(opt(args, "mesh", "32x32"), false)?;
    let router = make_router(opt(args, "router", "dim-order"), &mesh)?;
    let l: u32 = opt(args, "l", "8")
        .parse()
        .map_err(|e| format!("bad --l: {e}"))?;
    let samples: usize = opt(args, "samples", "1")
        .parse()
        .map_err(|e| format!("bad --samples: {e}"))?;
    if samples == 0 {
        return Err("--samples must be at least 1".into());
    }
    let mut rng = StdRng::seed_from_u64(seed_of(args)?);
    if l == 0 || !mesh.side(0).is_multiple_of(l) || !(mesh.side(0) / l).is_multiple_of(2) {
        return Err(format!(
            "--l must split side {} into an even number of slabs",
            mesh.side(0)
        ));
    }
    let res = wl::pi_a(router.as_ref(), l, samples, &mut rng);
    let text = wl::io::to_text(&res.workload);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Pi_A against {} with l = {l}: {} packets share one edge (modal load {})",
        router.name(),
        res.workload.len(),
        res.edge_load
    );
    if let Some(path) = args.options.get("out") {
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(
            out,
            "written to {path} (replay with --workload-file {path})"
        );
    } else {
        out.push_str(&text);
    }
    Ok(out)
}

fn cmd_online(args: &Args) -> Result<String, String> {
    let mesh = parse_mesh_spec(opt(args, "mesh", "16x16"), false)?;
    let router = make_router(opt(args, "router", "buschd"), &mesh)?;
    let seed = seed_of(args)?;
    let rate: f64 = opt(args, "rate", "0.05")
        .parse()
        .map_err(|e| format!("bad --rate: {e}"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err("--rate must be in [0, 1]".into());
    }
    let steps: u64 = opt(args, "steps", "500")
        .parse()
        .map_err(|e| format!("bad --steps: {e}"))?;
    let policy = parse_policy(opt(args, "policy", "fifo"))?;
    let threads: usize = opt(args, "threads", "1")
        .parse()
        .map_err(|e| format!("bad --threads: {e}"))?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let pattern_name = opt(args, "pattern", "uniform");
    use oblivion_faults::{FaultConfig, FaultMode, FaultPlan, RecoveryPolicy};
    use oblivion_mesh::Path;
    use oblivion_sim::{
        Faults, FixedTraffic, OnlineSim, PathSource, TrafficPattern, UniformTraffic,
    };

    let parse_prob = |key: &str| -> Result<f64, String> {
        let p: f64 = opt(args, key, "0")
            .parse()
            .map_err(|e| format!("bad --{key}: {e}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("--{key} must be in [0, 1]"));
        }
        Ok(p)
    };
    // Mean times and budgets of 0 are degenerate (the fault plan clamps
    // them, silently changing the model the user asked for) — reject them
    // up front instead.
    let parse_positive = |key: &str, default: &str| -> Result<u64, String> {
        let v: u64 = opt(args, key, default)
            .parse()
            .map_err(|e| format!("bad --{key}: {e}"))?;
        if v == 0 {
            return Err(format!("--{key} must be at least 1"));
        }
        Ok(v)
    };
    let fault_cfg = FaultConfig {
        link_fail_prob: parse_prob("fault-links")?,
        mode: FaultMode::parse(opt(args, "fault-mode", "permanent"))?,
        mttr: parse_positive("mttr", "20")?,
        mtbf: parse_positive("mtbf", "200")?,
        node_fail_prob: parse_prob("fault-nodes")?,
        drop_prob: parse_prob("drop-prob")?,
    };
    let recovery = RecoveryPolicy::parse(opt(args, "recovery", "resample"))?;
    let retry_budget = u32::try_from(parse_positive("retry-budget", "16")?)
        .map_err(|_| "bad --retry-budget: too large".to_string())?;
    let fault_seed: u64 = match args.options.get("fault-seed") {
        Some(v) => v.parse().map_err(|e| format!("bad --fault-seed: {e}"))?,
        None => seed,
    };
    let uniform = UniformTraffic::new(mesh.clone());
    let transpose = FixedTraffic {
        pattern_name: "transpose".into(),
        map: |c| Coord::new(&[c[1], c[0]]),
    };
    let pattern: &dyn TrafficPattern = match pattern_name {
        "uniform" => &uniform,
        "transpose" => {
            if mesh.dim() != 2 || mesh.side(0) != mesh.side(1) {
                return Err("transpose pattern needs a square 2-D mesh".into());
            }
            &transpose
        }
        other => return Err(format!("unknown pattern `{other}` (uniform|transpose)")),
    };
    /// Adapts a router to the simulator's path source, forwarding fault
    /// resamples to the router's dedicated entry point.
    struct RouterSource<'a>(&'a dyn ObliviousRouter);
    impl PathSource for RouterSource<'_> {
        fn path(&self, s: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
            self.0.select_path(s, t, rng).path
        }
        fn resample(&self, current: &Coord, t: &Coord, rng: &mut StdRng) -> Path {
            self.0.resample_path(current, t, rng).path
        }
    }
    let source = RouterSource(router.as_ref());
    // The fault plan (when any fault knob is nonzero) is materialized
    // once up front; `--fault-links 0` etc. attaches nothing at all, so
    // such runs are byte-identical to a fault-unaware build.
    let plan =
        (!fault_cfg.is_trivial()).then(|| FaultPlan::new(&mesh, &fault_cfg, fault_seed, 2 * steps));
    let mut sim = OnlineSim::new(&mesh, policy, rate);
    if let Some(p) = &plan {
        sim = sim.with_faults(Faults {
            plan: p,
            recovery,
            retry_budget,
        });
    }
    // ------------------------------------------------------------------
    // Crash recovery: with `--checkpoint-dir` the run snapshots its full
    // state every `--checkpoint-every` steps (and on SIGINT/SIGTERM), and
    // resumes from the newest valid snapshot when rerun. The checkpoint
    // machinery never touches the simulation's randomness, so a resumed
    // run's results are byte-identical to an uninterrupted one.
    // ------------------------------------------------------------------
    use oblivion_ckpt::{signal, Store};
    use oblivion_sim::{CheckpointCfg, EngineState};
    let ckpt_every: u64 = opt(args, "checkpoint-every", "0")
        .parse()
        .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
    let ckpt_stop_at: Option<u64> = match args.options.get("ckpt-stop-at") {
        Some(v) => Some(v.parse().map_err(|e| format!("bad --ckpt-stop-at: {e}"))?),
        None => None,
    };
    let ckpt_dir = args.options.get("checkpoint-dir");
    if ckpt_dir.is_none() {
        if ckpt_every > 0 {
            return Err("--checkpoint-every needs --checkpoint-dir".into());
        }
        if ckpt_stop_at.is_some() {
            return Err("--ckpt-stop-at needs --checkpoint-dir".into());
        }
    }
    // Everything that shapes the simulation — but NOT the thread count or
    // the checkpoint cadence, which are free to change across a resume.
    let config_hash = {
        let desc = format!(
            "mesh={:?}/{:?};router={};seed={seed};rate={rate};steps={steps};\
             policy={policy:?};pattern={};recovery={};retry={retry_budget};\
             fseed={fault_seed};fcfg={fault_cfg:?};plan={:016x}",
            mesh.dims(),
            mesh.topology(),
            router.name(),
            pattern.name(),
            recovery.name(),
            plan.as_ref().map_or(0, |p| p.digest()),
        );
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for b in desc.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    };
    let store = match ckpt_dir {
        Some(dir) => Some(
            Store::open(std::path::Path::new(dir))
                .map_err(|e| format!("cannot open checkpoint dir {dir}: {e}"))?,
        ),
        None => None,
    };
    let mut resume_state: Option<EngineState> = None;
    let mut resume_generation = 0u64;
    let mut resume_step: Option<u64> = None;
    let mut resume_crc = 0u32;
    if let Some(store) = &store {
        signal::install();
        let outcome = store.load_latest(config_hash);
        for w in &outcome.warnings {
            eprintln!("warning: checkpoint: {w}");
        }
        if let Some(snap) = outcome.snapshot {
            let st = EngineState::decode(&snap.payload, &mesh).map_err(|e| {
                format!(
                    "checkpoint {}: {e}",
                    store.slot_path(snap.generation).display()
                )
            })?;
            eprintln!(
                "resuming from checkpoint generation {} at step {} (crc 0x{:08x})",
                snap.generation, st.t, snap.checksum
            );
            resume_generation = snap.generation;
            resume_step = Some(st.t);
            resume_crc = snap.checksum;
            resume_state = Some(st);
        }
    }
    // The sharded engine is deterministic in the thread count, so it is
    // the only engine the CLI runs; `--threads 1` executes it inline.
    let r = match &store {
        None => sim.run_sharded(pattern, &source, steps, seed, threads),
        Some(store) => {
            let cfg = CheckpointCfg {
                store,
                every: ckpt_every,
                stop_at: ckpt_stop_at,
                config_hash,
                resume_generation,
                resume_step,
            };
            match sim.run_sharded_ckpt(
                pattern,
                &source,
                steps,
                seed,
                threads,
                Some(&cfg),
                resume_state.as_ref(),
            ) {
                Ok(r) => r,
                Err(stop) => return Err(stop.to_string()),
            }
        }
    };
    if let Some(store) = store {
        CKPT_CLEAR.with(|c| *c.borrow_mut() = Some(store));
    }
    let sharding = r.sharding.ok_or("sharded run reported no summary")?;
    report_field("router_name", router.name().as_str());
    if let Some(step0) = resume_step {
        report_field("ckpt_resumed_from_step", step0);
        report_field("ckpt_resumed_generation", resume_generation);
        report_field("ckpt_resumed_crc", format!("0x{resume_crc:08x}"));
    }
    report_field("injected", r.injected as u64);
    report_field("delivered", r.delivered as u64);
    report_field("in_flight", r.in_flight as u64);
    report_field("mean_latency", r.mean_latency);
    report_field("p95_latency", r.p95_latency);
    report_field("throughput", r.throughput);
    // Deterministic shard facts only — deliberately NOT the thread count,
    // so reports stay byte-identical across --threads values.
    report_field("shards", sharding.shards as u64);
    report_field("shard_handoffs", sharding.handoffs);
    report_field("shard_max_imbalance", sharding.max_imbalance);
    if let Some(fs) = &r.faults {
        report_field("delivered_fraction", r.delivered_fraction());
        report_field("recovery", recovery.name());
        report_field("retry_budget", u64::from(retry_budget));
        report_field("failed_links", fs.failed_links);
        report_field("failed_nodes", fs.failed_nodes);
        report_field("dead_letters", fs.dead_letters);
        report_field("dead_on_injection", fs.dead_on_injection);
        report_field("fault_blocked", fs.blocked);
        report_field("fault_resamples", fs.resamples);
        report_field("fault_drops", fs.drops);
        report_field("src_down_skips", fs.src_down_skips);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} online, pattern {}, rate {rate}, {} steps (+drain), policy {:?}:",
        router.name(),
        pattern.name(),
        steps,
        policy
    );
    let _ = writeln!(
        out,
        "  injected {}  delivered {}  in-flight {}",
        r.injected, r.delivered, r.in_flight
    );
    let _ = writeln!(
        out,
        "  mean latency {:.1}  p95 latency {:.1}  throughput {:.3} pkts/node/step",
        r.mean_latency, r.p95_latency, r.throughput
    );
    let _ = writeln!(
        out,
        "  shards {}  handoffs {}  max imbalance {}",
        sharding.shards, sharding.handoffs, sharding.max_imbalance
    );
    if let Some(fs) = &r.faults {
        let _ = writeln!(
            out,
            "  faults: {} links / {} nodes down, recovery {} (budget {})",
            fs.failed_links,
            fs.failed_nodes,
            recovery.name(),
            retry_budget
        );
        let _ = writeln!(
            out,
            "  delivered fraction {:.4}  dead letters {} ({} at injection)",
            r.delivered_fraction(),
            fs.dead_letters,
            fs.dead_on_injection
        );
        let _ = writeln!(
            out,
            "  blocked pkt-steps {}  resamples {}  drops {}",
            fs.blocked, fs.resamples, fs.drops
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The serving layer (`oblivion serve` / `oblivion loadgen`). Flag
// validation lives here so a bad knob is a clean exit-2 error before a
// single socket is bound; the serving mechanics live in oblivion-serve.
// ---------------------------------------------------------------------

/// Parses a strictly positive integer flag; 0 and negatives are the
/// degenerate values the serving layer refuses (a port that means
/// "any", a 0-thread pool, a deadline that always fires).
fn parse_nonzero_u64(args: &Args, key: &str, default: &str) -> Result<u64, String> {
    let raw = opt(args, key, default);
    let v: i128 = raw
        .parse()
        .map_err(|e| format!("bad --{key} `{raw}`: {e}"))?;
    if v <= 0 {
        return Err(format!("--{key} must be at least 1, got {raw}"));
    }
    u64::try_from(v).map_err(|_| format!("--{key} `{raw}` is too large"))
}

fn parse_port(args: &Args, key: &str) -> Result<u16, String> {
    let raw = args.options.get(key).ok_or(format!("missing --{key}"))?;
    let v = parse_nonzero_u64(args, key, "0")?;
    u16::try_from(v).map_err(|_| format!("--{key} `{raw}` is not a valid TCP port"))
}

fn cmd_serve(args: &Args) -> Result<String, String> {
    use oblivion_serve::{Control, Registry, RouterHandle, ServeConfig};
    let router_name = opt(args, "router", "buschd");
    // The repeatable `--mesh NxN[:id]` list: the first spec is the
    // default mesh (what prefix-free requests resolve to), an unnamed
    // spec gets the id `default`. One router algorithm serves them all;
    // torus routers imply torus meshes, exactly as `ADMIN ADD` infers.
    let torus = router_name == "busch-torus";
    let mut meshes: Vec<(String, Mesh)> = Vec::new();
    for part in opt(args, "mesh", "16x16").split(',') {
        let (spec, id) = match part.split_once(':') {
            Some((spec, id)) => (spec, id),
            None => (part, "default"),
        };
        if meshes.iter().any(|(have, _)| have == id) {
            return Err(format!("duplicate mesh id `{id}` in --mesh"));
        }
        meshes.push((id.to_string(), parse_mesh_spec(spec, torus)?));
    }
    // Per-tenant admission quota: every registered mesh gets its own
    // token bucket of N lines/s (burst N) and N admitted-but-unsettled
    // lines. 0 is the degenerate "shed everything" knob and is refused.
    let tenant_quota = match args.options.get("tenant-quota") {
        Some(_) => Some(parse_nonzero_u64(args, "tenant-quota", "0")?),
        None => None,
    };
    let registry = Registry::new(&meshes[0].0, tenant_quota);
    let mut router_label = String::new();
    for (id, mesh) in &meshes {
        let router = make_router(router_name, mesh)?;
        if router_label.is_empty() {
            router_label = router.name();
        }
        registry
            .add(id, RouterHandle::Owned(router))
            .map_err(|e| format!("--mesh: {e}"))?;
    }
    let port = parse_port(args, "port")?;
    let threads = usize::try_from(parse_nonzero_u64(args, "threads", "4")?)
        .map_err(|_| "bad --threads: too large".to_string())?;
    let queue_cap = usize::try_from(parse_nonzero_u64(args, "queue", "64")?)
        .map_err(|_| "bad --queue: too large".to_string())?;
    let deadline_ms = parse_nonzero_u64(args, "deadline-ms", "1000")?;
    let drain_ms = parse_nonzero_u64(args, "drain-ms", "2000")?;
    let work_us: u64 = opt(args, "work-us", "0")
        .parse()
        .map_err(|e| format!("bad --work-us: {e}"))?;
    let batch_max = usize::try_from(parse_nonzero_u64(args, "batch-max", "64")?)
        .map_err(|_| "bad --batch-max: too large".to_string())?;
    let health_port = if opt(args, "no-health", "false") == "true" {
        None
    } else {
        match args.options.get("health-port") {
            Some(_) => Some(parse_port(args, "health-port")?),
            None => Some(port.checked_add(1).ok_or(
                "default health port (port+1) overflows; pass --health-port or --no-health",
            )?),
        }
    };
    // --stats-every streams crash-durable JSONL snapshots into the
    // --metrics-out file while the server runs; the final report then
    // appends to that stream instead of clobbering it.
    let stats_every = match args.options.get("stats-every") {
        Some(_) => Some(std::time::Duration::from_millis(parse_nonzero_u64(
            args,
            "stats-every",
            "1000",
        )?)),
        None => None,
    };
    let stats_path = match (&stats_every, args.options.get("metrics-out")) {
        (Some(_), Some(path)) => {
            METRICS_APPEND.with(|a| a.set(true));
            Some(std::path::PathBuf::from(path))
        }
        (Some(_), None) => {
            return Err("--stats-every needs --metrics-out to flush into".into());
        }
        (None, _) => None,
    };
    // Chaos injection: every knob requires --chaos-seed so an injected
    // schedule is always reproducible; with no chaos flag at all the
    // server is byte-identical to one built without the feature.
    const CHAOS_KEYS: &[&str] = &[
        "chaos-stall-prob",
        "chaos-stall-ms",
        "chaos-write-prob",
        "chaos-write-ms",
        "chaos-reset-prob",
        "chaos-pause-prob",
        "chaos-pause-ms",
    ];
    let chaos_requested = args.options.contains_key("chaos-seed")
        || CHAOS_KEYS.iter().any(|k| args.options.contains_key(*k));
    let chaos = if chaos_requested {
        let seed =
            match args.options.get("chaos-seed") {
                Some(raw) => raw
                    .parse::<u64>()
                    .map_err(|e| format!("bad --chaos-seed `{raw}`: {e}"))?,
                None => return Err(
                    "--chaos-* flags need --chaos-seed so the injected schedule is reproducible"
                        .into(),
                ),
            };
        let prob = |key: &str| -> Result<f64, String> {
            let raw = opt(args, key, "0");
            raw.parse::<f64>()
                .map_err(|e| format!("bad --{key} `{raw}`: {e}"))
        };
        let dur_ms = |key: &str, default: &str| -> Result<std::time::Duration, String> {
            Ok(std::time::Duration::from_millis(parse_nonzero_u64(
                args, key, default,
            )?))
        };
        let c = oblivion_serve::ChaosConfig {
            seed,
            stall_prob: prob("chaos-stall-prob")?,
            stall: dur_ms("chaos-stall-ms", "5")?,
            write_prob: prob("chaos-write-prob")?,
            write_stall: dur_ms("chaos-write-ms", "5")?,
            reset_prob: prob("chaos-reset-prob")?,
            pause_prob: prob("chaos-pause-prob")?,
            pause: dur_ms("chaos-pause-ms", "20")?,
        };
        c.validate()?;
        Some(c)
    } else {
        None
    };
    let cfg = ServeConfig {
        host: opt(args, "host", "127.0.0.1").to_string(),
        port,
        health_port,
        threads,
        queue_cap,
        deadline: std::time::Duration::from_millis(deadline_ms),
        drain: std::time::Duration::from_millis(drain_ms),
        work: std::time::Duration::from_micros(work_us),
        batch_max,
        stats_every,
        stats_path,
        honor_process_signals: true,
        announce: true,
        chaos,
    };
    oblivion_signal::install();
    let ctl = Control::new();
    let summary =
        oblivion_serve::run_registry(&registry, &cfg, &ctl).map_err(|e| format!("serve: {e}"))?;
    let s = &summary.stats;
    report_field("router_name", router_label.as_str());
    report_field("serve_meshes", meshes.len() as u64);
    if let Some(q) = tenant_quota {
        report_field("serve_tenant_quota", q);
    }
    report_field("serve_addr", summary.addr.to_string());
    report_field("serve_threads", threads as u64);
    report_field("serve_queue_cap", queue_cap as u64);
    report_field("serve_batch_max", batch_max as u64);
    report_field("serve_deadline_ms", deadline_ms);
    report_field("serve_drain_ms", drain_ms);
    report_field("serve_uptime_ms", summary.uptime.as_millis() as u64);
    report_field("serve_drain_took_ms", summary.drain_took.as_millis() as u64);
    if let Some(c) = &cfg.chaos {
        report_field("serve_chaos_seed", c.seed);
    }
    publish_serve_stats(s);
    report_field(
        "serve_counters_conserved",
        if s.conserved() { 1u64 } else { 0 },
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: drained and stopped after {:.1} s (drain took {} ms)",
        summary.uptime.as_secs_f64(),
        summary.drain_took.as_millis()
    );
    let _ = writeln!(
        out,
        "  accepted {}  completed {}  bad-request {}  shed {}  deadline {}  \
         drain-rejected {}  io-errors {}  unknown-mesh {}  mesh-retired {}",
        s.accepted,
        s.completed,
        s.bad_request,
        s.shed_overloaded,
        s.deadline_exceeded,
        s.drain_rejected,
        s.io_errors,
        s.unknown_mesh,
        s.mesh_retired
    );
    let _ = writeln!(
        out,
        "  max queue depth {}  health probes {}",
        s.max_queue_depth, s.health_probes
    );
    for t in &s.tenants {
        let _ = writeln!(
            out,
            "  tenant {:<12} accepted {:>6}  completed {:>6}  shed {:>4}  retired {:>4}  \
             state {} B",
            t.id, t.accepted, t.completed, t.shed_overloaded, t.mesh_retired, t.state_bytes
        );
    }
    for (name, h) in &s.phases {
        if h.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  phase {name:<13} count {:>8}  p50 {:>7} us  p99 {:>7} us",
            h.count,
            h.quantile(0.50),
            h.quantile(0.99)
        );
    }
    let _ = writeln!(
        out,
        "  counters conserve: {}",
        if s.conserved() { "yes" } else { "NO" }
    );
    if !s.conserved() {
        return Err(format!(
            "serve: request counters do not conserve: accepted {} != settled {}\n{out}",
            s.accepted,
            s.settled()
        ));
    }
    if let Err(why) = s.check_conservation() {
        return Err(format!(
            "serve: the drained ledger violates its laws: {why}\n{out}"
        ));
    }
    Ok(out)
}

/// Publishes a drained serve ledger into `oblivion-obs`, once, so the
/// `--metrics-out` run report carries it: every counter and gauge, zeros
/// included, and the non-empty phase histograms as runtime histograms.
/// No-op when obs is off.
fn publish_serve_stats(s: &oblivion_serve::StatsSnapshot) {
    for c in &oblivion_serve::StatsSnapshot::COUNTERS {
        oblivion_obs::counter_add(c.name, (c.get)(s));
    }
    for g in &oblivion_serve::StatsSnapshot::GAUGES {
        oblivion_obs::gauge_set(g.name, (g.get)(s));
    }
    for phase in oblivion_serve::Phase::ALL {
        oblivion_obs::record_runtime_histogram(phase.obs_name(), s.phase(phase));
    }
}

fn cmd_top(args: &Args) -> Result<String, String> {
    use oblivion_serve::{top, TopConfig};
    use std::io::IsTerminal as _;
    let port = parse_port(args, "port")?;
    let interval_ms = parse_nonzero_u64(args, "interval-ms", "1000")?;
    let timeout_ms = parse_nonzero_u64(args, "timeout-ms", "2000")?;
    let iterations = match args.options.get("iterations") {
        Some(_) => Some(parse_nonzero_u64(args, "iterations", "0")?),
        None => None,
    };
    let check = opt(args, "check", "false") == "true";
    let stdout = std::io::stdout();
    let cfg = TopConfig {
        addr: format!("{}:{port}", opt(args, "host", "127.0.0.1")),
        interval: std::time::Duration::from_millis(interval_ms),
        iterations,
        timeout: std::time::Duration::from_millis(timeout_ms),
        check,
        // Only repaint in place on a live terminal; redirected output
        // stays an append-only log.
        clear: stdout.is_terminal(),
        honor_process_signals: true,
    };
    oblivion_signal::install();
    let summary = top::run_top(&cfg, &mut stdout.lock()).map_err(|e| format!("top: {e}"))?;
    report_field("top_scrapes", summary.scrapes);
    report_field("top_scrape_errors", summary.scrape_errors);
    report_field("top_violations", summary.violations);
    if summary.scrapes == 0 {
        return Err(format!(
            "top: no successful scrape of {} ({} attempts failed)",
            cfg.addr, summary.scrape_errors
        ));
    }
    if check && summary.violations > 0 {
        return Err(format!(
            "top: {} scrape(s) violated the serve conservation law",
            summary.violations
        ));
    }
    Ok(format!(
        "top: {} scrapes, {} errors{}\n",
        summary.scrapes,
        summary.scrape_errors,
        if check { ", conservation checked" } else { "" }
    ))
}

/// Parses `--tenant-mix a=0.8,b=0.2` into weighted `(id, weight)`
/// pairs: weights must be positive and finite, ids unique.
fn parse_tenant_mix(raw: &str) -> Result<Vec<(String, f64)>, String> {
    let mut mix: Vec<(String, f64)> = Vec::new();
    for part in raw.split(',') {
        let (id, w) = part
            .split_once('=')
            .ok_or_else(|| format!("bad --tenant-mix entry `{part}`: expected id=weight"))?;
        if id.is_empty() {
            return Err(format!("bad --tenant-mix entry `{part}`: empty mesh id"));
        }
        let weight: f64 = w
            .parse()
            .map_err(|e| format!("bad --tenant-mix weight in `{part}`: {e}"))?;
        if !weight.is_finite() || weight <= 0.0 {
            return Err(format!(
                "--tenant-mix weight for `{id}` must be positive, got `{w}`"
            ));
        }
        if mix.iter().any(|(have, _)| have == id) {
            return Err(format!("duplicate tenant `{id}` in --tenant-mix"));
        }
        mix.push((id.to_string(), weight));
    }
    Ok(mix)
}

fn cmd_loadgen(args: &Args) -> Result<String, String> {
    use oblivion_serve::{HedgeAfter, LoadgenConfig};
    let mesh = parse_mesh_spec(opt(args, "mesh", "16x16"), false)?;
    let port = parse_port(args, "port")?;
    let requests = usize::try_from(parse_nonzero_u64(args, "requests", "200")?)
        .map_err(|_| "bad --requests: too large".to_string())?;
    let concurrency = usize::try_from(parse_nonzero_u64(args, "concurrency", "8")?)
        .map_err(|_| "bad --concurrency: too large".to_string())?;
    let retries: u32 = opt(args, "retries", "8")
        .parse()
        .map_err(|e| format!("bad --retries: {e}"))?;
    let backoff_ms = parse_nonzero_u64(args, "backoff-ms", "10")?;
    let backoff_cap_ms = parse_nonzero_u64(args, "backoff-cap-ms", "500")?;
    let timeout_ms = parse_nonzero_u64(args, "timeout-ms", "2000")?;
    // --pipeline 0 is the degenerate "no requests in flight" knob and is
    // refused (exit 2); --pipeline above 1 only makes sense on a
    // persistent connection, so it implies --keep-alive.
    let pipeline = usize::try_from(parse_nonzero_u64(args, "pipeline", "1")?)
        .map_err(|_| "bad --pipeline: too large".to_string())?;
    let keep_alive = opt(args, "keep-alive", "false") == "true" || pipeline > 1;
    // --rate implies open loop (scheduled arrivals need a schedule);
    // --open-loop without --rate has no schedule to follow and is
    // refused, as is a zero/negative/non-finite rate.
    let rate = match args.options.get("rate") {
        Some(raw) => {
            let r: f64 = raw
                .parse()
                .map_err(|e| format!("bad --rate `{raw}`: {e}"))?;
            if !r.is_finite() || r <= 0.0 {
                return Err(format!("--rate must be a positive req/s rate, got {raw}"));
            }
            Some(r)
        }
        None => None,
    };
    if opt(args, "open-loop", "false") == "true" && rate.is_none() {
        return Err("--open-loop needs --rate to schedule arrivals".into());
    }
    let open_loop = rate.is_some();
    // --hedge-after takes `p99` or a fixed stall threshold in ms; the
    // duplicate needs its own connection, so hedging is incompatible
    // with the keep-alive/pipelined transports.
    let hedge_after = match args.options.get("hedge-after") {
        Some(raw) if raw == "p99" => Some(HedgeAfter::P99),
        Some(_) => Some(HedgeAfter::After(std::time::Duration::from_millis(
            parse_nonzero_u64(args, "hedge-after", "0")?,
        ))),
        None => None,
    };
    if hedge_after.is_some() && (keep_alive || pipeline > 1) {
        return Err(
            "--hedge-after needs the per-request transport; drop --keep-alive/--pipeline".into(),
        );
    }
    // Multi-tenant targeting: `--mesh-id` pins every request to one mesh
    // id; `--tenant-mix a=0.8,b=0.2` draws each request's tenant from a
    // weighted mix (a pure function of --seed and the request id, so
    // retries stay on their tenant and reruns reproduce the split).
    let tenants: Vec<(String, f64)> =
        match (args.options.get("mesh-id"), args.options.get("tenant-mix")) {
            (Some(_), Some(_)) => {
                return Err("--mesh-id and --tenant-mix are mutually exclusive".into())
            }
            (Some(id), None) => vec![(id.clone(), 1.0)],
            (None, Some(raw)) => parse_tenant_mix(raw)?,
            (None, None) => Vec::new(),
        };
    let cfg = LoadgenConfig {
        addr: format!("{}:{port}", opt(args, "host", "127.0.0.1")),
        mesh,
        requests,
        concurrency,
        retries,
        backoff: std::time::Duration::from_millis(backoff_ms),
        backoff_cap: std::time::Duration::from_millis(backoff_cap_ms),
        timeout: std::time::Duration::from_millis(timeout_ms),
        seed: seed_of(args)?,
        keep_alive,
        pipeline,
        open_loop,
        rate: rate.unwrap_or(0.0),
        hedge_after,
        tenants,
    };
    let report = oblivion_serve::run_loadgen(&cfg);
    report_field("loadgen_keep_alive", if keep_alive { 1u64 } else { 0 });
    report_field("loadgen_pipeline", pipeline as u64);
    report_field("loadgen_open_loop", if open_loop { 1u64 } else { 0 });
    report_field("loadgen_rate", rate.unwrap_or(0.0));
    report_field("loadgen_hedge_launched", report.hedge_launched);
    report_field("loadgen_hedge_won", report.hedge_won);
    report_field("loadgen_hedge_wasted", report.hedge_wasted);
    report_field("loadgen_late_launches", report.late_launches);
    report_field("loadgen_ok", report.ok);
    report_field("loadgen_failed", report.failed);
    report_field("loadgen_malformed", report.malformed);
    report_field("loadgen_retries", report.retries);
    report_field("loadgen_overloaded", report.overloaded);
    report_field("loadgen_deadline", report.deadline);
    report_field("loadgen_shutting_down", report.shutting_down);
    report_field("loadgen_transport", report.transport);
    report_field("loadgen_unknown_mesh", report.unknown_mesh);
    report_field("loadgen_mesh_retired", report.mesh_retired);
    for (id, t) in &report.tenants {
        report_field(&format!("loadgen_tenant_{id}_ok"), t.ok);
        report_field(&format!("loadgen_tenant_{id}_failed"), t.failed);
        report_field(&format!("loadgen_tenant_{id}_overloaded"), t.overloaded);
        report_field(&format!("loadgen_tenant_{id}_p99_ms"), t.latency_ms(0.99));
    }
    report_field("loadgen_goodput", report.goodput());
    report_field("loadgen_p50_ms", report.latency_ms(0.50));
    report_field("loadgen_p90_ms", report.latency_ms(0.90));
    report_field("loadgen_p99_ms", report.latency_ms(0.99));
    report_field("loadgen_p999_ms", report.latency_ms(0.999));
    let text = report.render();
    if report.malformed > 0 || report.failed > 0 {
        // The whole point of the retry loop is convergence: any request
        // that could not be answered (or was answered with protocol
        // garbage) is a hard failure for scripts and CI gates.
        return Err(format!(
            "loadgen: {} failed, {} malformed of {requests} requests\n{text}",
            report.failed, report.malformed
        ));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivion_mesh::Topology;

    fn args(v: &[&str]) -> Args {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parse_args_grammar() {
        let a = args(&["route", "--mesh", "8x8", "--seed", "7"]);
        assert_eq!(a.command, "route");
        assert_eq!(a.options["mesh"], "8x8");
        assert_eq!(a.options["seed"], "7");
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["route".into(), "--mesh".into()]).is_err());
        assert!(parse_args(&["route".into(), "mesh".into(), "8x8".into()]).is_err());
    }

    #[test]
    fn parse_args_bool_flags_take_no_value() {
        // --trace between two valued options must not swallow a value.
        let a = args(&["route", "--trace", "--mesh", "8x8"]);
        assert_eq!(a.options["trace"], "true");
        assert_eq!(a.options["mesh"], "8x8");
        // Trailing flag.
        let b = args(&["route", "--mesh", "8x8", "--trace"]);
        assert_eq!(b.options["trace"], "true");
        // Valued options still require a value even after a flag.
        assert!(parse_args(&["route".into(), "--trace".into(), "--mesh".into()]).is_err());
    }

    #[test]
    fn parse_args_mesh_is_repeatable() {
        let a = args(&["serve", "--mesh", "8x8:a", "--mesh", "4x4:b"]);
        assert_eq!(a.options["mesh"], "8x8:a,4x4:b");
        // A single occurrence is untouched; other options stay last-wins.
        let b = args(&["route", "--mesh", "8x8", "--seed", "1", "--seed", "2"]);
        assert_eq!(b.options["mesh"], "8x8");
        assert_eq!(b.options["seed"], "2");
    }

    #[test]
    fn tenant_mix_parsing() {
        let mix = parse_tenant_mix("a=0.8,b=0.2").unwrap();
        assert_eq!(mix.len(), 2);
        assert_eq!(mix[0].0, "a");
        assert!((mix[0].1 - 0.8).abs() < 1e-12);
        assert!(parse_tenant_mix("a").is_err());
        assert!(parse_tenant_mix("=1").is_err());
        assert!(parse_tenant_mix("a=zero").is_err());
        assert!(parse_tenant_mix("a=0").is_err());
        assert!(parse_tenant_mix("a=-1").is_err());
        assert!(parse_tenant_mix("a=inf").is_err());
        assert!(parse_tenant_mix("a=1,a=2").is_err());
    }

    #[test]
    fn serve_flag_validation_fails_fast() {
        // All of these must error before any socket is bound (no --port).
        let dup = run(&args(&["serve", "--mesh", "8x8:a", "--mesh", "8x8:a"]));
        assert!(dup.unwrap_err().contains("duplicate mesh id"));
        let bad_id = run(&args(&["serve", "--mesh", "8x8:*"]));
        assert!(bad_id.unwrap_err().contains("bad mesh id"));
        let zero_quota = run(&args(&["serve", "--mesh", "8x8", "--tenant-quota", "0"]));
        assert!(zero_quota.unwrap_err().contains("--tenant-quota"));
        let exclusive = run(&args(&[
            "loadgen",
            "--port",
            "1",
            "--mesh-id",
            "a",
            "--tenant-mix",
            "a=1",
        ]));
        assert!(exclusive.unwrap_err().contains("mutually exclusive"));
    }

    #[test]
    fn parse_args_stats_positional() {
        let a = args(&["stats", "results/run.json"]);
        assert_eq!(a.command, "stats");
        assert_eq!(a.options["file"], "results/run.json");
        // A second positional is rejected, as is one on other commands.
        assert!(parse_args(&["stats".into(), "a".into(), "b".into()]).is_err());
        assert!(parse_args(&["route".into(), "a.json".into()]).is_err());
    }

    #[test]
    fn metrics_out_writes_jsonl_and_stats_renders_it() {
        let path = std::env::temp_dir().join("oblivion_cli_metrics_test.json");
        let a = args(&[
            "route",
            "--mesh",
            "8x8",
            "--router",
            "busch2d",
            "--workload",
            "transpose",
            "--seed",
            "5",
            "--metrics-out",
            path.to_str().unwrap(),
        ]);
        run(&a).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let entries = oblivion_obs::parse_jsonl(&text).unwrap();
        let kinds: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert!(kinds.contains(&"counter"), "{kinds:?}");
        assert!(kinds.contains(&"histogram"));
        assert!(kinds.contains(&"span"));
        assert_eq!(kinds.last(), Some(&"report"));
        let report = &entries.last().unwrap().1;
        assert_eq!(report.get("command").unwrap().as_str(), Some("route"));
        assert!(report.get("packets").unwrap().as_u64().unwrap() > 0);
        assert!(report.get("max_congestion").is_some());
        assert!(text.contains("random_bits_per_packet"));
        assert!(text.contains("path_selection"));
        // And the stats command renders it.
        let s = args(&["stats", path.to_str().unwrap()]);
        let rendered = run(&s).unwrap();
        assert!(rendered.contains("run report"), "{rendered}");
        assert!(rendered.contains("max_congestion"));
        assert!(rendered.contains("random_bits_per_packet"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_command_errors() {
        assert!(run(&args(&["stats"])).is_err());
        assert!(run(&args(&["stats", "/nonexistent/metrics.json"])).is_err());
        let bad = std::env::temp_dir().join("oblivion_cli_badstats_test.json");
        std::fs::write(&bad, "not json at all\n").unwrap();
        assert!(run(&args(&["stats", bad.to_str().unwrap()])).is_err());
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn parse_mesh_specs() {
        assert_eq!(parse_mesh_spec("8x8", false).unwrap().dim(), 2);
        assert_eq!(
            parse_mesh_spec("4x4x4", true).unwrap().topology(),
            Topology::Torus
        );
        assert_eq!(parse_mesh_spec("32", false).unwrap().dim(), 1);
        assert!(parse_mesh_spec("0x4", false).is_err());
        assert!(parse_mesh_spec("4xx4", false).is_err());
        assert!(parse_mesh_spec("9999999x9999999", false).is_err());
    }

    #[test]
    fn parse_coords() {
        let mesh = parse_mesh_spec("8x8", false).unwrap();
        assert!(parse_coord("3,4", &mesh).is_ok());
        assert!(parse_coord("8,0", &mesh).is_err());
        assert!(parse_coord("3", &mesh).is_err());
        assert!(parse_coord("a,b", &mesh).is_err());
    }

    #[test]
    fn every_listed_router_constructs() {
        let mesh = parse_mesh_spec("8x8", false).unwrap();
        let torus = parse_mesh_spec("8x8", true).unwrap();
        for name in ROUTER_NAMES {
            let m = if *name == "busch-torus" {
                &torus
            } else {
                &mesh
            };
            assert!(make_router(name, m).is_ok(), "{name}");
        }
        assert!(make_router("nope", &mesh).is_err());
    }

    #[test]
    fn every_listed_workload_constructs() {
        let mesh = parse_mesh_spec("8x8", false).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for name in WORKLOAD_NAMES {
            assert!(make_workload(name, &mesh, &mut rng).is_ok(), "{name}");
        }
        assert!(make_workload("nope", &mesh, &mut rng).is_err());
    }

    #[test]
    fn route_command_end_to_end() {
        let a = args(&[
            "route",
            "--mesh",
            "8x8",
            "--router",
            "busch2d",
            "--workload",
            "transpose",
            "--simulate",
            "fifo",
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("congestion C"));
        assert!(out.contains("makespan"));
    }

    #[test]
    fn path_command_end_to_end() {
        let a = args(&[
            "path", "--mesh", "16x16", "--router", "romm", "--from", "1,2", "--to", "9,9",
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("hops"));
        assert!(out.contains("(1,2)"));
    }

    #[test]
    fn decompose_command() {
        let a = args(&["decompose", "--mesh", "8x8", "--level", "1", "--kind", "2"]);
        let out = run(&a).unwrap();
        assert!(out.contains("+"));
        assert!(run(&args(&["decompose", "--mesh", "8x4"])).is_err());
        assert!(run(&args(&["decompose", "--mesh", "8x8", "--level", "9"])).is_err());
    }

    #[test]
    fn simulate_command_with_delays() {
        let a = args(&[
            "simulate",
            "--mesh",
            "8x8",
            "--router",
            "dim-order",
            "--workload",
            "neighbor-exchange",
            "--policy",
            "rank",
            "--max-delay",
            "4",
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("makespan"));
    }

    #[test]
    fn pia_command_pipes_into_route() {
        let path = std::env::temp_dir().join("oblivion_cli_pia_test.txt");
        let a = args(&[
            "pia",
            "--mesh",
            "16x16",
            "--router",
            "dim-order",
            "--l",
            "4",
            "--out",
            path.to_str().unwrap(),
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("share one edge"), "{out}");
        // Replay the file through `route`.
        let b = args(&[
            "route",
            "--mesh",
            "16x16",
            "--router",
            "busch2d",
            "--workload-file",
            path.to_str().unwrap(),
        ]);
        assert!(run(&b).unwrap().contains("congestion C"));
        let _ = std::fs::remove_file(&path);
        // Bad l rejected.
        assert!(run(&args(&["pia", "--mesh", "16x16", "--l", "5"])).is_err());
    }

    #[test]
    fn bracket_command_end_to_end() {
        let a = args(&[
            "bracket",
            "--mesh",
            "8x8",
            "--router",
            "busch2d",
            "--workload",
            "transpose",
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("competitive ratio"), "{out}");
    }

    #[test]
    fn online_command_end_to_end() {
        let a = args(&[
            "online",
            "--mesh",
            "8x8",
            "--router",
            "busch2d",
            "--rate",
            "0.05",
            "--steps",
            "100",
            "--pattern",
            "transpose",
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("mean latency"), "{out}");
        assert!(out.contains("shards"), "{out}");
        assert!(run(&args(&["online", "--mesh", "8x8", "--rate", "2.0"])).is_err());
        assert!(run(&args(&[
            "online",
            "--mesh",
            "8x4",
            "--pattern",
            "transpose"
        ]))
        .is_err());
    }

    #[test]
    fn online_threads_flag_does_not_change_output() {
        let base = [
            "online", "--mesh", "8x8", "--router", "busch2d", "--rate", "0.1", "--steps", "80",
        ];
        let with = |threads: &str| {
            let mut v = base.to_vec();
            v.extend_from_slice(&["--threads", threads]);
            run(&args(&v)).unwrap()
        };
        let one = with("1");
        assert_eq!(one, with("2"));
        assert_eq!(one, with("8"));
        assert!(run(&args(&["online", "--mesh", "8x8", "--threads", "0"])).is_err());
        assert!(run(&args(&["online", "--mesh", "8x8", "--threads", "x"])).is_err());
    }

    #[test]
    fn unknown_command_and_help() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&args(&["list"])).unwrap().contains("busch2d"));
    }

    #[test]
    fn workload_file_round_trip() {
        let mesh = parse_mesh_spec("8x8", false).unwrap();
        let w = wl::transpose(&mesh).without_self_loops();
        let path = std::env::temp_dir().join("oblivion_cli_wl_test.txt");
        std::fs::write(&path, wl::io::to_text(&w)).unwrap();
        let a = args(&[
            "route",
            "--mesh",
            "8x8",
            "--router",
            "dim-order",
            "--workload-file",
            path.to_str().unwrap(),
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("56 packets"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn workload_file_errors_are_reported() {
        let a = args(&[
            "route",
            "--mesh",
            "8x8",
            "--workload-file",
            "/nonexistent/definitely.txt",
        ]);
        assert!(run(&a).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = args(&[
            "route", "--mesh", "8x8", "--router", "buschd", "--seed", "9",
        ]);
        assert_eq!(run(&a).unwrap(), run(&a).unwrap());
    }
}
