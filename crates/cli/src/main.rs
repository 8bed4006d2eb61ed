//! `mood` — deployment CLI for the MooD mobility-privacy middleware.
//!
//! Subcommands:
//!
//! * `mood synth`   — generate a synthetic mobility dataset (CSV)
//! * `mood split`   — chronological train/test split of a CSV dataset
//! * `mood protect` — protect a dataset with MooD and publish pseudonymized CSV
//! * `mood ingest`  — stream a CSV into the compressed chunked trace store
//!   (bounded memory) and optionally protect it from there
//! * `mood attack`  — run the re-identification attacks against a dataset
//! * `mood eval`    — count-query utility of a protected dataset vs the original
//! * `mood serve`   — run the long-running HTTP protection service
//! * `mood trace`   — protect a dataset with tracing on, dump a Chrome trace
//!
//! Run `mood help` for per-command usage.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use mood_core::obs::{chrome_trace, StageAgg, TraceSpans};
use mood_core::{
    publish, EngineBuilder, ExecutorKind, MoodConfig, ProtectionReport, UserProtection,
    ENGINE_STAGES,
};
use mood_geo::Grid;
use mood_metrics::CountQueryStats;
use mood_serve::{ChaosConfig, MoodServer, ServeConfig};
use mood_synth::presets;
use mood_trace::{io as trace_io, StoreConfig, TimeDelta};

const USAGE: &str = "\
mood — MObility Data privacy as Orphan Disease (Middleware '19)

USAGE:
  mood synth   --preset <mdc|privamov|geolife|cabspotting> --out <file.csv>
               [--scale <0..1>] [--seed <n>]
  mood split   --input <file.csv> --train <out.csv> --test <out.csv>
               [--train-days <n=15>]
  mood protect --input <test.csv> --background <train.csv> --out <file.csv>
               [--report <file.json>] [--threads <n>]
               [--delta-hours <n=4>] [--window-hours <n=24>] [--seed <n>] [--quiet <0|1>]
  mood ingest  --input <file.csv> [--store-budget <bytes=67108864>] [--seal-records <n=512>]
               [--background <train.csv> [--out <file.csv>] [--report <file.json>]
               [--threads <n>] [--delta-hours <n=4>] [--window-hours <n=24>]
               [--seed <n>] [--quiet <0|1>]]
  mood attack  --input <file.csv> --background <train.csv> [--threads <n>]
  mood eval    --original <file.csv> --protected <file.csv> [--cell-m <n=800>]
  mood serve   --background <train.csv> [--addr <host:port=127.0.0.1:7079>]
               [--threads <n>] [--workers <n>] [--seed <n>] [--max-requests <n=0 (forever)>]
               [--budget <n>] [--chaos-profile <drop|shed|delay|panic|truncate|all|a+b>]
               [--chaos-seed <n>] [--tracing <0|1=1>]
  mood trace   --input <test.csv> --background <train.csv> --trace-out <file.json>
               [--seed <n>] [--delta-hours <n=4>] [--window-hours <n=24>]
               [--limit-users <n=0 (all)>]
  mood help

`mood protect` streams per-user progress to stderr as results complete.
--threads (default: available parallelism) sizes the user-level fan-out
and `mood attack`'s per-trace fan-out: 1 runs everything inline on the
sequential backend, more run a persistent pool of parked workers —
threads are spawned once per run, not once per batch. The output is
byte-identical for every thread count.

`mood ingest` streams a CSV into the compressed, chunked trace store
without ever materializing the file: 64 KiB blocks of rows are parsed
on every core and handed on in file order, rows are buffered per user,
every --seal-records rows of a user seal into one delta-encoded chunk,
and users that go quiet are sealed early. Peak memory is bounded by
--store-budget (the decoded-trace cache) plus small per-user ingest
buffers and a few blocks in flight — not by corpus size. With
--background it then protects the corpus straight from the store (one
decode per user, through the cache), producing a report and published
CSV byte-identical to `mood protect` on the same inputs; the flags
after --background apply only with it.

Every command rejects a flag it does not list above, and a flag
without a value. An error reading a CSV names its file first.

`mood serve` runs the online middleware: POST /v1/protect (one trace),
POST /v1/protect/batch (many, via protect_stream), GET /healthz,
GET /v1/config, GET /metrics. --seed is the server seed of the
per-request determinism contract; --max-requests N serves N responses
then shuts down cleanly (for smoke tests), 0 means run until killed.
--budget caps candidates tried per request (over-budget responses are
served degraded, deterministically); --chaos-profile arms seeded fault
injection (drop/shed/delay/panic/truncate, `+`-combinable; counted in
/metrics) with --chaos-seed picking the fault stream. Tracing (the
flight recorder behind GET /v1/debug/trace plus per-stage histograms
in /metrics) is on by default; --tracing 0 serves untraced.

`mood trace` protects a dataset sequentially with per-stage tracing on
and writes --trace-out as Chrome-trace-viewer JSON (load it in
chrome://tracing or https://ui.perfetto.dev): one lane per user, one
span per engine stage. Span ids are deterministic — derived from
(--seed, user index), never wall-clock — so two runs produce the same
trace structure; only the measured durations differ.
";

type Command = fn(&HashMap<String, String>) -> Result<(), String>;

/// Every command with the flags it accepts (those `USAGE` lists for it,
/// space-separated) and its entry point.
const COMMANDS: [(&str, &str, Command); 8] = [
    ("synth", "preset out scale seed", cmd_synth),
    ("split", "input train test train-days", cmd_split),
    (
        "protect",
        "input background out report threads delta-hours window-hours seed quiet",
        cmd_protect,
    ),
    (
        "ingest",
        "input store-budget seal-records background \
         out report threads delta-hours window-hours seed quiet",
        cmd_ingest,
    ),
    ("attack", "input background threads", cmd_attack),
    ("eval", "original protected cell-m", cmd_eval),
    (
        "serve",
        "background addr threads workers seed max-requests budget \
         chaos-profile chaos-seed tracing",
        cmd_serve,
    ),
    (
        "trace",
        "input background trace-out seed delta-hours window-hours limit-users",
        cmd_trace,
    ),
];

/// `mood ingest` flags that only apply with `--background`.
const INGEST_PROTECT_FLAGS: &str = "out report threads delta-hours window-hours seed quiet";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => run(other, &args[1..]),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `command` on its flags.
fn run(command: &str, args: &[String]) -> Result<(), String> {
    let Some((_, accepted, entry)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(format!("unknown command '{command}'\n\n{USAGE}"));
    };
    entry(&parse_flags(args, accepted)?)
}

/// Parses `--key value` pairs, each key one of the space-separated
/// `accepted`; repeated keys keep the last value. An unknown flag, a
/// flag without a value and a stray argument are errors naming it.
fn parse_flags(args: &[String], accepted: &str) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument '{arg}' (see `mood help`)"));
        };
        if !accepted.split_whitespace().any(|flag| flag == key) {
            return Err(format!("unknown flag --{key} (see `mood help`)"));
        }
        let Some(value) = args.next() else {
            return Err(format!("flag --{key} needs a value"));
        };
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

/// Reads the CSV file at `path` with `read`, naming the file in any
/// error: a command reads up to two CSVs, and the error must say which
/// one is missing or holds the malformed row.
fn csv_file<'a, T>(
    path: &'a str,
    read: impl FnOnce(&'a str) -> mood_trace::Result<T>,
) -> Result<T, String> {
    read(path).map_err(|e| format!("{path}: {e}"))
}

fn required<'a>(opts: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{key}"))
}

fn parse_or<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value '{v}' for --{key}")),
    }
}

/// Parses the shared `--threads` flag (default: available parallelism)
/// and picks the backend from it: one thread runs inline on the
/// sequential backend, more run the persistent pool.
fn executor_opts(opts: &HashMap<String, String>) -> Result<(usize, ExecutorKind), String> {
    let available = std::thread::available_parallelism().map_or(4, |n| n.get());
    let threads = parse_or(opts, "threads", available)?.max(1);
    let kind = if threads == 1 {
        ExecutorKind::Sequential
    } else {
        ExecutorKind::Persistent
    };
    Ok((threads, kind))
}

fn cmd_synth(opts: &HashMap<String, String>) -> Result<(), String> {
    let preset = required(opts, "preset")?;
    let out = required(opts, "out")?;
    let scale: f64 = parse_or(opts, "scale", 1.0)?;
    let mut spec = match preset {
        "mdc" => presets::mdc_like(),
        "privamov" => presets::privamov_like(),
        "geolife" => presets::geolife_like(),
        "cabspotting" => presets::cabspotting_like(),
        other => return Err(format!("unknown preset '{other}'")),
    };
    if let Some(seed) = opts.get("seed") {
        spec.seed = seed.parse().map_err(|_| "invalid --seed".to_string())?;
    }
    let spec = if scale < 1.0 {
        spec.scaled(scale)
    } else {
        spec
    };
    let ds = spec.generate();
    trace_io::write_csv_file(&ds, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} users, {} records)",
        out,
        ds.user_count(),
        ds.record_count()
    );
    Ok(())
}

fn cmd_split(opts: &HashMap<String, String>) -> Result<(), String> {
    let input = required(opts, "input")?;
    let train_out = required(opts, "train")?;
    let test_out = required(opts, "test")?;
    let days: i64 = parse_or(opts, "train-days", 15)?;
    if days <= 0 {
        return Err("--train-days must be positive".into());
    }
    let ds = csv_file(input, trace_io::read_csv_file)?;
    let (train, test) = ds.split_chronological(TimeDelta::from_days(days));
    trace_io::write_csv_file(&train, train_out).map_err(|e| e.to_string())?;
    trace_io::write_csv_file(&test, test_out).map_err(|e| e.to_string())?;
    println!(
        "split {} users: train {} records -> {train_out}, test {} records -> {test_out}",
        train.user_count(),
        train.record_count(),
        test.record_count()
    );
    Ok(())
}

fn cmd_protect(opts: &HashMap<String, String>) -> Result<(), String> {
    let input = required(opts, "input")?;
    let background_path = required(opts, "background")?;
    required(opts, "out")?;
    let (threads, executor_kind) = executor_opts(opts)?;
    let quiet: u8 = parse_or(opts, "quiet", 0)?;
    let config = engine_config(opts)?;

    let background = csv_file(background_path, trace_io::read_csv_file)?;
    let test = csv_file(input, trace_io::read_csv_file)?;
    if background.is_empty() || test.is_empty() {
        return Err("input datasets must not be empty".into());
    }
    println!(
        "protecting {} users / {} records against POI+PIT+AP attacks \
         [{executor_kind} executor, {threads} threads]...",
        test.user_count(),
        test.record_count()
    );

    // The thread budget goes to the user-level fan-out; the engine
    // keeps its sequential candidate executor. Parallelizing both
    // levels with the full budget would oversubscribe (threads ×
    // candidate batches per recursive split) and is only worth it when
    // users ≪ cores — batch protection is the opposite regime.
    let executor = executor_kind.build(threads);
    let engine = EngineBuilder::paper_default(&background)
        .config(config)
        .build()
        .map_err(|e| e.to_string())?;

    let sink = progress(test.user_count(), quiet);
    let report = mood_core::protect_stream(&engine, &test, executor.as_ref(), sink)
        .map_err(|e| e.to_string())?;
    publish_report(&report, opts)
}

fn cmd_ingest(opts: &HashMap<String, String>) -> Result<(), String> {
    let input = required(opts, "input")?;
    if !opts.contains_key("background") {
        let mut protect_flags = INGEST_PROTECT_FLAGS.split_whitespace();
        if let Some(flag) = protect_flags.find(|flag| opts.contains_key(*flag)) {
            return Err(format!("--{flag} needs --background"));
        }
    }
    let budget: usize = parse_or(opts, "store-budget", 64 << 20)?;
    let seal_records: usize = parse_or(opts, "seal-records", 512)?;
    if budget == 0 || seal_records == 0 {
        return Err("--store-budget and --seal-records must be positive".into());
    }

    let config = StoreConfig::default()
        .with_cache_budget(budget)
        .with_seal_records(seal_records);
    let store = csv_file(input, |path| trace_io::stream_csv_file(path, config))?;
    if store.is_empty() {
        return Err("input dataset must not be empty".into());
    }
    let stats = store.stats();
    let raw_bytes = stats.records * std::mem::size_of::<mood_trace::Record>();
    println!(
        "ingested {} users / {} records from {input} (streaming, never fully resident)",
        stats.users, stats.records
    );
    println!(
        "  chunks: {}, encoded: {} bytes ({:.2} bytes/record, {:.1}% of in-memory form)",
        stats.chunks,
        stats.encoded_bytes,
        stats.encoded_bytes as f64 / stats.records as f64,
        stats.encoded_bytes as f64 / raw_bytes as f64 * 100.0
    );
    println!(
        "  peak ingest buffer: {} bytes, resorts: {}",
        stats.peak_buffer_bytes, stats.resorts
    );

    let Some(background_path) = opts.get("background") else {
        println!("cache budget: {budget} bytes (pass --background to protect from the store)");
        return Ok(());
    };
    let (threads, executor_kind) = executor_opts(opts)?;
    let quiet: u8 = parse_or(opts, "quiet", 0)?;
    let config = engine_config(opts)?;
    let background = csv_file(background_path, trace_io::read_csv_file)?;
    if background.is_empty() {
        return Err("background dataset must not be empty".into());
    }
    println!(
        "protecting {} users straight from the store [{executor_kind} executor, {threads} threads]...",
        store.user_count()
    );

    let executor = executor_kind.build(threads);
    let engine = EngineBuilder::paper_default(&background)
        .config(config)
        .build()
        .map_err(|e| e.to_string())?;

    let sink = progress(store.user_count(), quiet);
    let report = mood_core::protect_store_stream(&engine, &store, executor.as_ref(), sink)
        .map_err(|e| e.to_string())?;

    let stats = store.stats();
    println!(
        "store cache: budget {} bytes, peak resident {} bytes, hits {}, decodes {}, evictions: {}",
        stats.budget_bytes,
        stats.peak_resident_bytes,
        stats.cache_hits,
        stats.decodes,
        stats.evictions
    );
    publish_report(&report, opts)
}

/// Parses the engine flags `protect`, `ingest` and `trace` share:
/// `--delta-hours`, `--window-hours` and `--seed`.
fn engine_config(opts: &HashMap<String, String>) -> Result<MoodConfig, String> {
    let mut config = MoodConfig::paper_default();
    let delta_hours: i64 = parse_or(opts, "delta-hours", 4)?;
    let window_hours: i64 = parse_or(opts, "window-hours", 24)?;
    config.seed = parse_or(opts, "seed", config.seed)?;
    if delta_hours <= 0 || window_hours <= 0 {
        return Err("--delta-hours and --window-hours must be positive".into());
    }
    config.delta = TimeDelta::from_hours(delta_hours);
    config.initial_window = Some(TimeDelta::from_hours(window_hours));
    Ok(config)
}

/// The sink `protect` and `ingest` stream outcomes into: unless
/// `quiet`, it reports each of the `total` users on stderr as it
/// completes, so on large datasets the operator sees orphan users the
/// moment they are found, not minutes later when the whole batch lands.
fn progress(total: usize, quiet: u8) -> impl FnMut(&UserProtection) + Send {
    let (mut done, mut orphans) = (0usize, 0usize);
    move |outcome: &UserProtection| {
        done += 1;
        if outcome.class.is_orphan() {
            orphans += 1;
        }
        if quiet == 0 {
            eprint!(
                "\r  [{done}/{total}] protected, {orphans} orphan users (last: {} -> {})   ",
                outcome.user, outcome.class
            );
            if done == total {
                eprintln!();
            }
            let _ = std::io::stderr().flush();
        }
    }
}

/// Prints the protection classes and data loss, then publishes the
/// pseudonymous CSV to `--out` and the summary to `--report`, each
/// when given.
fn publish_report(report: &ProtectionReport, opts: &HashMap<String, String>) -> Result<(), String> {
    println!("\nprotection classes:");
    for (class, count) in &report.class_counts {
        println!("  {class}: {count}");
    }
    println!("data loss: {}", report.data_loss);
    if let Some(out) = opts.get("out") {
        let (published, _ground_truth) = publish(report.outcomes());
        trace_io::write_csv_file(&published, out).map_err(|e| e.to_string())?;
        println!(
            "published {} pseudonymous traces -> {out}",
            published.user_count()
        );
    }
    if let Some(report_path) = opts.get("report") {
        let json = serde_json::to_string_pretty(&report.summary()).map_err(|e| e.to_string())?;
        std::fs::write(report_path, json).map_err(|e| e.to_string())?;
        println!("report -> {report_path}");
    }
    Ok(())
}

fn cmd_attack(opts: &HashMap<String, String>) -> Result<(), String> {
    let input = required(opts, "input")?;
    let background_path = required(opts, "background")?;
    let (threads, executor_kind) = executor_opts(opts)?;
    let background = csv_file(background_path, trace_io::read_csv_file)?;
    let target = csv_file(input, trace_io::read_csv_file)?;
    if background.is_empty() || target.is_empty() {
        return Err("input datasets must not be empty".into());
    }
    let suite = mood_attacks::AttackSuite::train(
        &[
            &mood_attacks::PoiAttack::paper_default() as &dyn mood_attacks::Attack,
            &mood_attacks::PitAttack::paper_default(),
            &mood_attacks::ApAttack::paper_default(),
        ],
        &background,
    );
    let executor = executor_kind.build(threads);
    let eval = suite.evaluate_with(&target, executor.as_ref());
    println!(
        "re-identified {} of {} users ({:.1}%)",
        eval.non_protected_count(),
        eval.users_total,
        eval.non_protected_ratio() * 100.0
    );
    for (attack, count) in &eval.re_identified_per_attack {
        println!("  {attack}: {count}");
    }
    println!(
        "data that would be lost on deletion: {:.1}%",
        eval.data_loss_ratio() * 100.0
    );
    Ok(())
}

fn cmd_eval(opts: &HashMap<String, String>) -> Result<(), String> {
    let original_path = required(opts, "original")?;
    let protected_path = required(opts, "protected")?;
    let cell_m: f64 = parse_or(opts, "cell-m", 800.0)?;
    let original = csv_file(original_path, trace_io::read_csv_file)?;
    let protected = csv_file(protected_path, trace_io::read_csv_file)?;
    let bbox = original
        .bounding_box()
        .ok_or("original dataset is empty")?
        .expanded(2_000.0)
        .map_err(|e| e.to_string())?;
    let grid = Grid::new(bbox, cell_m).map_err(|e| e.to_string())?;
    let stats = CountQueryStats::compare(&grid, &original, &protected);
    println!("count-query utility over {cell_m} m cells:");
    println!("  cell recall      {:.1}%", stats.cell_recall * 100.0);
    println!("  cell precision   {:.1}%", stats.cell_precision * 100.0);
    println!("  cell F1          {:.1}%", stats.cell_f1 * 100.0);
    println!("  weighted Jaccard {:.3}", stats.weighted_jaccard);
    println!("  mean |count error| {:.2}", stats.mean_absolute_error);
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), String> {
    let background_path = required(opts, "background")?;
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7079".to_string());
    let (threads, executor_kind) = executor_opts(opts)?;
    let workers: usize = parse_or(opts, "workers", threads)?;
    let seed: u64 = parse_or(opts, "seed", MoodConfig::paper_default().seed)?;
    let max_requests: u64 = parse_or(opts, "max-requests", 0)?;
    let candidate_budget = match opts.get("budget") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("invalid value '{v}' for --budget"))?,
        ),
    };
    let chaos = match (opts.get("chaos-profile"), opts.get("chaos-seed")) {
        (None, None) => None,
        (profile, seed) => {
            let chaos_seed: u64 = seed
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("invalid value '{v}' for --chaos-seed"))
                })
                .transpose()?
                .unwrap_or(0);
            Some(
                ChaosConfig::from_profile(profile.map_or("all", String::as_str), chaos_seed)
                    .map_err(|e| format!("invalid --chaos-profile: {e}"))?,
            )
        }
    };

    let background = csv_file(background_path, trace_io::read_csv_file)?;
    if background.is_empty() {
        return Err("background dataset must not be empty".into());
    }
    println!(
        "training POI+PIT+AP attacks on {} users / {} records...",
        background.user_count(),
        background.record_count()
    );
    let tracing_on = parse_or(opts, "tracing", 1u8)? != 0;
    let mut config = ServeConfig {
        addr,
        connection_workers: workers.max(1),
        executor: executor_kind,
        executor_threads: threads,
        server_seed: seed,
        chaos,
        candidate_budget,
        ..ServeConfig::default()
    };
    if !tracing_on {
        config.tracing = None;
    }
    let server = MoodServer::start_paper_default(config, &background).map_err(|e| e.to_string())?;
    if let Some(chaos) = chaos {
        println!(
            "CHAOS ARMED (seed {}): drop {:.2} shed {:.2} delay {:.2}@{}ms panic {:.2} truncate {:.2} — faults land in /metrics",
            chaos.seed, chaos.accept_drop, chaos.shed, chaos.delay, chaos.delay_ms, chaos.panic, chaos.truncate
        );
    }
    println!(
        "mood-serve listening on http://{} [{executor_kind} executor x{threads}, {} connection workers, seed {seed}]",
        server.local_addr(),
        workers.max(1)
    );
    println!("  GET /healthz | GET /v1/config | GET /metrics | GET /v1/debug/trace | POST /v1/protect | POST /v1/protect/batch");
    if max_requests == 0 {
        // Run until the process is killed; the acceptor and workers do
        // the serving, this thread just stays out of the way.
        loop {
            std::thread::park();
        }
    }
    while server.metrics().responses_total() < max_requests {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let served = server.metrics().responses_total();
    let users = server.metrics().users_protected_total();
    server.shutdown();
    println!("served {served} responses ({users} users protected); shut down cleanly");
    Ok(())
}

fn cmd_trace(opts: &HashMap<String, String>) -> Result<(), String> {
    let input = required(opts, "input")?;
    let background_path = required(opts, "background")?;
    let trace_out = required(opts, "trace-out")?;
    let config = engine_config(opts)?;
    let limit: usize = parse_or(opts, "limit-users", 0)?;

    let background = csv_file(background_path, trace_io::read_csv_file)?;
    let test = csv_file(input, trace_io::read_csv_file)?;
    if background.is_empty() || test.is_empty() {
        return Err("input datasets must not be empty".into());
    }

    // Sequential on purpose: one user at a time means the shared stage
    // aggregate drained after each user is exactly that user's work.
    let agg = Arc::new(StageAgg::new(&ENGINE_STAGES));
    let engine = EngineBuilder::paper_default(&background)
        .config(config)
        .stage_observer(Arc::clone(&agg))
        .build()
        .map_err(|e| e.to_string())?;

    let mut records = Vec::new();
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (index, trace) in test.iter().enumerate() {
        if limit > 0 && index >= limit {
            break;
        }
        // The same id the server would assign to request_id = index:
        // offline traces line up with online ones for the same seed.
        let spans = TraceSpans::new(mood_serve::request_seed(config.seed, index as u64));
        let root = spans.begin("protect_user");
        spans.attr(root, "user", trace.user());
        let outcome = engine.protect_user(trace);
        for total in agg.drain() {
            let entry = totals.entry(total.stage).or_insert((0, 0));
            entry.0 += total.ns;
            entry.1 += total.count;
            spans.child_complete(
                root,
                total.stage,
                Duration::from_nanos(total.ns),
                total.count,
            );
        }
        spans.attr(root, "class", outcome.class);
        spans.end(root);
        if let Some(record) = spans.finish() {
            records.push(record);
        }
    }

    let json = serde_json::to_string_pretty(&chrome_trace(&records)).map_err(|e| e.to_string())?;
    std::fs::write(trace_out, json).map_err(|e| e.to_string())?;

    println!("per-stage totals over {} users:", records.len());
    for (stage, (ns, count)) in &totals {
        println!(
            "  {stage:<20} {:>10.2} ms  ({count} units)",
            *ns as f64 / 1e6
        );
    }
    println!(
        "wrote Chrome trace ({} users) -> {trace_out} (open in chrome://tracing or ui.perfetto.dev)",
        records.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &str) -> Vec<String> {
        args.split_whitespace().map(String::from).collect()
    }

    fn accepted(command: &str) -> &'static str {
        COMMANDS
            .iter()
            .find(|(name, ..)| *name == command)
            .map(|(_, flags, _)| *flags)
            .expect("known command")
    }

    /// The flags `USAGE` lists for `command`, sorted.
    fn documented_flags(command: &str) -> Vec<String> {
        let head = format!("  mood {command} ");
        let block: String = USAGE
            .lines()
            .skip_while(|line| !line.starts_with(&head))
            .enumerate()
            .take_while(|(i, line)| *i == 0 || line.starts_with("     "))
            .map(|(_, line)| format!("{line}\n"))
            .collect();
        let mut flags: Vec<String> = block
            .split("--")
            .skip(1)
            .map(|rest| {
                rest.chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect()
            })
            .collect();
        flags.sort();
        flags
    }

    #[test]
    fn parse_flags_pairs() {
        let args = strings("--scale 0.5 --out x.csv --scale 0.2");
        let opts = parse_flags(&args, accepted("synth")).unwrap();
        assert_eq!(opts["scale"], "0.2");
        assert_eq!(opts["out"], "x.csv");
    }

    #[test]
    fn every_documented_flag_parses() {
        for (command, flags, _) in COMMANDS {
            let documented = documented_flags(command);
            let mut listed: Vec<&str> = flags.split_whitespace().collect();
            listed.sort();
            assert_eq!(listed, documented, "mood {command}");
            let args: Vec<String> = listed
                .iter()
                .flat_map(|f| [format!("--{f}"), "1".to_string()])
                .collect();
            let opts = parse_flags(&args, flags).unwrap();
            assert_eq!(opts.len(), listed.len(), "mood {command}");
        }
    }

    #[test]
    fn bad_flags_are_rejected() {
        for (command, args, error) in [
            ("protect", "--thread 1", "unknown flag --thread"),
            ("ingest", "--sael-records 8", "unknown flag --sael-records"),
            (
                "ingest",
                "--chunk-records 4096",
                "unknown flag --chunk-records",
            ),
            ("serve", "--executor steal", "unknown flag --executor"),
            (
                "protect",
                "--input t.csv --report",
                "flag --report needs a value",
            ),
            (
                "protect",
                "--out --report r.json",
                "unexpected argument 'r.json'",
            ),
        ] {
            let err = run(command, &strings(args)).unwrap_err();
            assert!(err.contains(error), "mood {command}: {err}");
        }
    }

    #[test]
    fn ingest_rejects_protect_flags_without_background() {
        for flag in INGEST_PROTECT_FLAGS.split_whitespace() {
            assert!(accepted("ingest").split_whitespace().any(|f| f == flag));
            let args = strings(&format!("--input /nonexistent/in.csv --{flag} 1"));
            let err = run("ingest", &args).unwrap_err();
            assert_eq!(err, format!("--{flag} needs --background"));
        }
    }

    #[test]
    fn required_reports_missing_flag() {
        let opts = HashMap::new();
        let err = required(&opts, "input").unwrap_err();
        assert!(err.contains("--input"));
    }

    #[test]
    fn parse_or_uses_default_and_validates() {
        let mut opts = HashMap::new();
        assert_eq!(parse_or(&opts, "threads", 4usize).unwrap(), 4);
        opts.insert("threads".into(), "7".into());
        assert_eq!(parse_or(&opts, "threads", 4usize).unwrap(), 7);
        opts.insert("threads".into(), "x".into());
        assert!(parse_or(&opts, "threads", 4usize).is_err());
    }

    #[test]
    fn thread_count_picks_the_backend() {
        for (flag, threads, kind) in [
            ("0", 1, ExecutorKind::Sequential),
            ("1", 1, ExecutorKind::Sequential),
            ("2", 2, ExecutorKind::Persistent),
        ] {
            let opts = HashMap::from([("threads".to_string(), flag.to_string())]);
            assert_eq!(
                executor_opts(&opts).unwrap(),
                (threads, kind),
                "--threads {flag}"
            );
        }
    }

    #[test]
    fn csv_errors_name_their_file() {
        let dir = std::env::temp_dir().join(format!("mood_cli_csv_errors_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (good, bad, missing) = (path("good.csv"), path("bad.csv"), path("missing.csv"));
        std::fs::write(&good, "user_id,lat,lng,timestamp\n1,46.2,6.1,0\n").unwrap();
        std::fs::write(
            &bad,
            "user_id,lat,lng,timestamp\n1,46.2,6.1,0\n1,x,6.1,60\n",
        )
        .unwrap();
        let out = path("out.csv");
        for (command, args, error) in [
            (
                "protect",
                format!("--input {good} --background {missing} --out {out}"),
                format!("{missing}: i/o error: "),
            ),
            (
                "protect",
                format!("--input {bad} --background {good} --out {out}"),
                format!("{bad}: parse error at line 3: invalid latitude 'x'"),
            ),
            (
                "ingest",
                format!("--input {missing}"),
                format!("{missing}: i/o error: "),
            ),
            (
                "ingest",
                format!("--input {good} --background {bad}"),
                format!("{bad}: parse error at line 3: "),
            ),
        ] {
            let err = run(command, &strings(&args)).unwrap_err();
            assert!(err.starts_with(&error), "mood {command} {args}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synth_rejects_unknown_preset() {
        let mut opts = HashMap::new();
        opts.insert("preset".into(), "nope".into());
        opts.insert("out".into(), "/tmp/x.csv".into());
        assert!(cmd_synth(&opts).unwrap_err().contains("unknown preset"));
    }
}
