//! `exp_ledger` — the MooD workspace's benchmark: seeded workloads whose
//! end-to-end numbers break down by module.
//!
//! MooD is used two ways. A data curator protects a whole corpus
//! offline (CSV ingest → attack evaluation → Algorithm 1 per user), and
//! a service protects one trace per request. Every workload runs both
//! paths on one data shape, through the crates' public APIs only, on
//! [`inputs::THREADS`] = 2 worker threads and at most 2 load
//! connections from this one process.
//!
//! # Workloads
//!
//! | name | input | why |
//! |---|---|---|
//! | `resident` | privamov-like: 41 users, 302,472 test records (14.2 MB CSV); 573 one-day request windows (~509 records, ~40 KB request) | Few users with long traces: candidate evaluation is ~99 % of engine time, matching 41 profiles is cheap, HMC costs ~40 ns/record |
//! | `fleet` | cabspotting-like: 531 taxis, 803,751 test records (40.1 MB CSV); ~7,900 one-day request windows (~100 records) | Many short traces: verdicts are matching-bound (531 profiles), the raw check is ~10 % of engine time, HMC costs ~1.3 µs/record, and the store decodes and evicts far more |
//!
//! Both use the committed dataset presets whatever the seed; the seed
//! picks the engine seed of every protect pass (each pass draws its own
//! LPPM noise), the open-loop arrival pattern, the request ids (and so
//! every served request's engine seed) and the order requests visit
//! their windows in.
//!
//! One untraced run (`--trace 0`):
//!
//! 1. set-up, 5 times: read the background CSV, train POI/PIT/AP
//!    through a fresh profile store, build HMC and the engine, start the
//!    server (3 connection workers, Persistent×2, tracing off) and wait
//!    for `/healthz`; the last set-up's server serves the run;
//! 2. one untimed warm-up pass of each batch phase, and 8 warm-up
//!    requests per connection;
//! 3. 5 rounds of, in order:
//!    * ingest: `io::stream_csv_file` of the test CSV into a trace store
//!      with a 4 MiB decoded-cache budget;
//!    * evaluate: `AttackSuite::evaluate_store_with` on Persistent×2;
//!    * protect: `protect_store_with` on Persistent×2, a new engine seed
//!      per pass;
//!    * serve, open loop: one seeded Poisson stream per round from 2
//!      clients on 2 keep-alive connections (150 req/s on `resident`, 80
//!      on `fleet`: about 40 % and 30 % of their closed-loop
//!      throughput), each request timed from its due time;
//!    * serve, closed loop: 2 connections sending back to back.
//!
//! The phases get 10/10/45/20/15 % of `--seconds`, turned into fixed
//! pass and request counts by reference costs on the 2-core reference
//! host ([`inputs::Plan::for_seconds`]), so every count and the output
//! digest are a pure function of workload, seed and `--seconds`. Rounds
//! spread each metric's samples over the whole run. Each round's
//! requests serve every window of a fixed, evenly strided sample of the
//! windows once, so rounds and seeds never differ in which traces they
//! protect.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | metric | unit | definition |
//! |---|---|---|
//! | `setup_s` | s | median of the 5 set-ups above |
//! | `ingest.mb_per_s` | MB/s | test CSV bytes / pass time, median over passes |
//! | `evaluate.records_per_s` | records/s | test records / pass time, median |
//! | `protect.users_per_s` | users/s | test users / pass time, median |
//! | `serve.cpu_ms_per_request` | ms | CPU time of the whole process (`/proc/self/stat`) over a closed loop / its 200 responses, median over rounds: what serving one request costs |
//! | `peak_rss_mb` | MB | `VmHWM` of the run's process |
//!
//! Every timing is host-normalized: divided (a rate: multiplied) by the
//! host slowdown a fixed kernel of the ledger's own code measured right
//! before and after its sample (a set-up, a round's passes of one batch
//! phase, an open or a closed loop), each kernel run taken while every
//! thread of the program sat idle — see [`calibrate`]. Raw values are
//! printed and recorded beside them, with the probe's median slowdown
//! and how often it had to retry. Directions and regression bounds are
//! in [`END_TO_END`].
//!
//! The service's latency and throughput are recorded as notes, not
//! gated. On the 2-vCPU reference host a neighbour's load lengthens
//! every hand-off between the client, connection and pool threads of a
//! request far more than it slows the probe's kernel, and queueing
//! amplifies it. Over 10 runs that met such load, normalized p50 at 150
//! req/s spread by 99 % (raw p50 6.8–86 ms) and closed-loop throughput
//! by 26 %, while CPU time per request and every batch metric stayed
//! within their bounds. The notes hold, normalized and raw: `serve.p50_ms`
//! and `serve.p90_ms` (the median over rounds of each round's
//! nearest-rank percentile of the latency from due time),
//! `serve.tail_ms` over every round at
//! `serve.highest_supported_percentile` — the highest percentile the
//! pooled sample supports (≥ 10 samples beyond it) — with the sample
//! count, `serve.saturated_rps` (closed-loop 200 responses / loop wall time,
//! median over rounds) and `serve.generator_late_p99_ms`. A failed
//! request or transport error counts into `failed` (the error ratio is
//! `failed / attempted`, also a note) and as an infinite latency.
//!
//! Output checks, each fatal (exit 1): ingest yields every user and
//! record; every evaluate pass equals the first; every report covers
//! every user and record; the first 50 served bodies equal, byte for
//! byte, `EngineTemplate::engine_for(request_seed(server_seed, id))`
//! offline. An FNV-1a `output_digest` over the evaluation, every report
//! and the checked bodies is printed and recorded.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A separate process, raw timings. Spans come from the ledger's own
//! code around calls into each module, plus the hooks the program
//! exposes (`EngineBuilder::stage_observer`/`StageAgg`,
//! `TraceStore::stats`, `/metrics`). Layer names are module names.
//!
//! | metric | unit | how | moves |
//! |---|---|---|---|
//! | `trace.read_csv_mb_per_s` | MB/s | `io::read_csv` on the test CSV bytes, 3 passes | `setup_s` |
//! | `trace.store_append_ms` | ms | median `stream_csv` − median `read_csv` on the same bytes | `ingest.mb_per_s` |
//! | `trace.decode_ms` | ms | Σ `TraceStore::trace` in the sequential pass | `evaluate.records_per_s`, `protect.users_per_s` (`fleet` most) |
//! | `trace.decodes`, `trace.evictions` | count | `StoreStats` after the sequential pass on a fresh store | same |
//! | `core.raw_check_ms` | ms | `StageAgg` `raw_check` over the sequential pass | `protect.users_per_s` (`fleet` most) |
//! | `core.candidate_eval_ms`, `core.candidates` | ms, count | `StageAgg` `candidate_eval` | `protect.users_per_s` (`resident` most) |
//! | `core.engine_self_ms` | ms | Σ `protect_user` − raw check − candidate eval | `protect.users_per_s` |
//! | `core.report_ms` | ms | `ProtectionReport::from_outcomes` | `protect.users_per_s` |
//! | `core.users.{natural,single,multi,fine,unprotectable}` | count | class counts of the sequential report | — (outputs) |
//! | `exec.efficiency` | ratio | Σ sequential `protect_user` ÷ (2 × wall of one Persistent×2 pass) | `protect.users_per_s` (`resident`: per-user cost 4–90 ms) |
//! | `batch.wall_ms`, `batch.unattributed_ms` | ms | sequential pass wall; wall − (decode + raw check + candidate eval + engine self + report) | — |
//! | `models.raster_us`, `models.stays_us` | µs/trace | `Heatmap::from_trace`, `PoiExtractor::extract_profile` on the layer sample | `protect.users_per_s` (`resident`), `serve.cpu_ms_per_request` |
//! | `lppm.{geo_i,trl,hmc,composition}_ns_per_record` | ns | `Lppm::protect` over the layer sample, per input record; composition is the mean over `MoodEngine::compositions()` | `protect.users_per_s`: HMC on `fleet`, compositions on `resident` |
//! | `attacks.{poi,pit,ap}_us`, `attacks.verdicts` | µs/verdict, count | `TrainedAttack::reidentify_with` on a warm `AttackScratch`, over the raw sample and its three single-LPPM outputs | `evaluate.records_per_s`, `protect.users_per_s` (`fleet` most) |
//! | `metrics.distortion_us` | µs | `spatio_temporal_distortion` per single-LPPM output | control: small everywhere |
//! | `serve.{client_wait,transport,queue_wait,parse,engine,raw_check,respond,write}_ms` | ms/request | `/metrics` deltas (`mood_serve_queue_wait_seconds`, `mood_serve_stage_seconds{stage}`) over a traced open loop of half the untraced request count; client wait = send − due; transport = client send → response − server `mood_serve_request_seconds` − write | `serve.cpu_ms_per_request` (parse, engine, respond, write); the waits drive the `serve.p50_ms` and `serve.p90_ms` notes |
//! | `serve.client_mean_ms`, `serve.unattributed_ms` | ms | client mean from due time; mean − (client wait + transport + queue wait + parse + engine + respond + write) | — |
//! | `serve.{json_parse,engine_build,protect_user,json_serialize}_us`, `serve.response_bytes` | µs, count | in-process replay of up to 500 of those request bodies: `serde_json::from_reader`, `EngineTemplate::engine_for_request`, `protect_user`, `ProtectResult::from_outcome` + `Response::json` | `serve.cpu_ms_per_request` |
//! | `serve.generator_late_p99_ms` | ms | how late the generator sent, beyond waiting for its connection | validity of a run |
//! | `obs.tracing_overhead_pct` | % | p50 traced ÷ p50 untraced − 1, same requests, same process | — |
//!
//! The layer sample is the test users in id order up to 100,000
//! records. Both breakdowns add up: wall = Σ layers + unattributed.
//! The traced run also checks: the Persistent×2 report equals the
//! sequential one; store-backed protect and evaluate equal the
//! in-memory ones; `stream_csv_file(..).to_dataset()` equals
//! `read_csv`; every published trace resists the suite under ground
//! truth; served bodies are identical with tracing on and off, and the
//! in-process replay reproduces them.
//!
//! # Commands
//!
//! ```text
//! cargo run --release --manifest-path exp_ledger/Cargo.toml -- \
//!     --workload resident --seed 0 [--seconds 30] [--trace 0|1] [--scale 1]
//! cargo run --release --manifest-path exp_ledger/Cargo.toml -- compare <dir-A> <dir-B>
//! cargo test --release --manifest-path exp_ledger/Cargo.toml
//! ```
//!
//! A run prints every metric with its unit, median and p25/p75, writes
//! `results/ledger/<workload>-<seed>.json` (`.traced.json` for
//! `--trace 1`) under the working directory, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics": {name: {value,
//! unit}}}`. `--scale` below 1 shrinks the datasets; the smoke tests in
//! `tests/smoke.rs` run the binary that way.
//!
//! `compare` fails when an end-to-end median moved by more than its
//! bound, when a run of either set has a failed operation, or when a run
//! of one workload, seed and mode in both sets differs in its attempted
//! count, output digest or any count metric.

mod batch;
mod calibrate;
mod compare;
mod inputs;
mod layers;
mod load;
mod prom;
mod serve;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use serde_json::Value;

use calibrate::Probe;
use inputs::{peak_rss_mb, Inputs, Plan, Setup, Workload};
use stats::{Better, Fnv1a, Metric};

/// The end-to-end metrics: name, unit, direction, and the share of the
/// reference median by which a later run may worsen before it counts as
/// a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("ingest.mb_per_s", "MB/s", Better::Higher, 0.25),
    ("evaluate.records_per_s", "records/s", Better::Higher, 0.2),
    ("protect.users_per_s", "users/s", Better::Higher, 0.2),
    ("serve.cpu_ms_per_request", "ms", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.08),
];

/// The per-layer metrics a traced run prints, in order, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.read_csv_mb_per_s", "MB/s"),
    ("trace.store_append_ms", "ms"),
    ("trace.decode_ms", "ms"),
    ("trace.decodes", "count"),
    ("trace.evictions", "count"),
    ("core.raw_check_ms", "ms"),
    ("core.candidate_eval_ms", "ms"),
    ("core.candidates", "count"),
    ("core.engine_self_ms", "ms"),
    ("core.report_ms", "ms"),
    ("core.users.natural", "count"),
    ("core.users.single", "count"),
    ("core.users.multi", "count"),
    ("core.users.fine", "count"),
    ("core.users.unprotectable", "count"),
    ("exec.efficiency", "ratio"),
    ("batch.wall_ms", "ms"),
    ("batch.unattributed_ms", "ms"),
    ("models.raster_us", "us"),
    ("models.stays_us", "us"),
    ("lppm.geo_i_ns_per_record", "ns"),
    ("lppm.trl_ns_per_record", "ns"),
    ("lppm.hmc_ns_per_record", "ns"),
    ("lppm.composition_ns_per_record", "ns"),
    ("attacks.poi_us", "us"),
    ("attacks.pit_us", "us"),
    ("attacks.ap_us", "us"),
    ("attacks.verdicts", "count"),
    ("metrics.distortion_us", "us"),
    ("serve.client_mean_ms", "ms"),
    ("serve.client_wait_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.raw_check_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.json_parse_us", "us"),
    ("serve.engine_build_us", "us"),
    ("serve.protect_user_us", "us"),
    ("serve.json_serialize_us", "us"),
    ("serve.response_bytes", "count"),
    ("serve.generator_late_p99_ms", "ms"),
    ("obs.tracing_overhead_pct", "%"),
];

/// `--seconds` when none is given.
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: exp_ledger --workload <resident|fleet> [--seed N] [--seconds S] \
[--trace 0|1] [--scale F]
       exp_ledger compare <dir-A> <dir-B>";

/// One run's results.
struct Ledger {
    workload: Workload,
    seed: u64,
    traced: bool,
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    digest: u64,
    /// Context printed and recorded beside the metrics.
    notes: Vec<(&'static str, f64)>,
}

fn run(workload: Workload, seed: u64, plan: &Plan, traced: bool) -> Result<Ledger, String> {
    let inputs = Inputs::generate(workload, seed, plan.scale)?;
    let mut digest = Fnv1a::default();
    if traced {
        let setup = Setup::build(&inputs.train_csv)?;
        let (mut metrics, batch_ops) = batch::traced(&inputs, &setup, &mut digest)?;
        metrics.extend(layers::traced(
            &setup.engine,
            &setup.background,
            &inputs.test,
            seed,
        )?);
        let (serve_metrics, serve_ops) = serve::traced(&inputs, &setup, plan, &mut digest)?;
        metrics.extend(serve_metrics);
        return Ok(Ledger {
            workload,
            seed,
            traced,
            metrics,
            attempted: batch_ops + serve_ops,
            failed: 0,
            digest: digest.finish(),
            notes: Vec::new(),
        });
    }

    let mut probe = Probe::default();
    let (mut setup_s, mut setup_raw) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..plan.setups {
        // The previous server shuts down outside the timed region.
        drop(built.take());
        let (result, slowdown) = probe.around(|| {
            let t0 = Instant::now();
            let setup = Setup::build(&inputs.train_csv)?;
            let server = serve::start(&setup.template, false)?;
            Ok::<_, String>((setup, server, t0.elapsed().as_secs_f64()))
        })?;
        let (setup, server, s) = result?;
        setup_s.push(s / slowdown);
        setup_raw.push(s);
        built = Some((setup, server));
    }
    let (setup, server) = built.ok_or("no set-up ran")?;
    // Rounds interleave the phases, so every metric samples the host
    // across the whole run rather than one slice of it.
    let mut batch = batch::Batch::new(&inputs, &setup, &mut digest)?;
    let mut serve = serve::Serve::new(&inputs, &setup, &server, plan)?;
    for _ in 0..plan.rounds {
        batch.round(plan, &mut probe, &mut digest)?;
        serve.round(plan, &mut probe, &mut digest)?;
    }
    let (batch_metrics, passes) = batch.finish();
    let serve = serve.finish()?;
    server.shutdown();

    let mut metrics = vec![Metric::normalized("setup_s", "s", setup_s, setup_raw)];
    metrics.extend(batch_metrics);
    metrics.extend(serve.metrics);
    metrics.push(Metric::single("peak_rss_mb", "MB", peak_rss_mb()?));
    let attempted = plan.setups + passes + serve.attempted;
    let mut notes = serve.notes;
    notes.push(("error_ratio", serve.failed as f64 / attempted as f64));
    notes.push(("host_slowdown", probe.median_slowdown()));
    notes.push(("host_probe_retries", probe.retries() as f64));
    Ok(Ledger {
        workload,
        seed,
        traced,
        metrics,
        attempted,
        failed: serve.failed,
        digest: digest.finish(),
        notes,
    })
}

impl Ledger {
    fn mode(&self) -> &'static str {
        if self.traced {
            "traced"
        } else {
            "untraced"
        }
    }

    fn print(&self) {
        println!(
            "exp_ledger {} seed {} ({}): {} attempted, {} failed, output_digest {:016x}",
            self.workload.name(),
            self.seed,
            self.mode(),
            self.attempted,
            self.failed,
            self.digest
        );
        for m in &self.metrics {
            let (p25, p75) = m.quartiles();
            let raw = if m.raw.is_empty() {
                String::new()
            } else {
                format!("  raw {:.4}", stats::median(&m.raw))
            };
            println!(
                "  {:<34} {:>16.4} {:<10} p25 {:<12.4} p75 {:<12.4} n={}{raw}",
                m.name,
                m.median(),
                m.unit,
                p25,
                p75,
                m.samples.len()
            );
        }
        for (name, value) in &self.notes {
            println!("  note {name:<29} {value:>16.4}");
        }
    }

    /// The record `compare` reads.
    fn results_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let (p25, p75) = m.quartiles();
                let mut fields = vec![
                    ("unit".into(), Value::Str(m.unit.into())),
                    ("median".into(), Value::Float(m.median())),
                    ("p25".into(), Value::Float(p25)),
                    ("p75".into(), Value::Float(p75)),
                    ("samples".into(), Value::Int(m.samples.len() as i64)),
                ];
                if !m.raw.is_empty() {
                    fields.push(("raw_median".into(), Value::Float(stats::median(&m.raw))));
                }
                (m.name.to_string(), Value::Object(fields))
            })
            .collect();
        let notes = self
            .notes
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Float(*v)))
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.name().into())),
            ("seed".into(), Value::UInt(self.seed)),
            ("mode".into(), Value::Str(self.mode().into())),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            (
                "output_digest".into(),
                Value::Str(format!("{:016x}", self.digest)),
            ),
            ("notes".into(), Value::Object(notes)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// The last line of standard output.
    fn summary_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(m.median())),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(true)),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    fn write_results(&self) -> Result<PathBuf, String> {
        let dir = PathBuf::from("results").join("ledger");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let suffix = if self.traced { ".traced" } else { "" };
        let path = dir.join(format!(
            "{}-{}{suffix}.json",
            self.workload.name(),
            self.seed
        ));
        let text = serde_json::to_string_pretty(&self.results_json()).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Dataset scale: 1 in every recorded run, smaller in smoke tests.
    scale: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut scale = 1.0;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                scale = value.parse().map_err(|_| bad())?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
        scale,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let plan = Plan {
        scale: args.scale,
        ..Plan::for_seconds(args.workload, args.seconds)
    };
    let ledger = match run(args.workload, args.seed, &plan, args.traced) {
        Ok(ledger) => ledger,
        Err(e) => {
            eprintln!("exp_ledger: check failed: {e}");
            std::process::exit(1);
        }
    };
    ledger.print();
    match ledger.write_results() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("exp_ledger: cannot write results: {e}");
            std::process::exit(1);
        }
    }
    match serde_json::to_string(&ledger.summary_json()) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("exp_ledger: cannot encode the summary: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_ledger_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = serde_json::parse_value_complete(&text).unwrap();
        let rows = |key: &str| match doc.get(key) {
            Some(Value::Array(rows)) => rows.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let field = |row: &Value, key: &str| match row.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let end_to_end = rows("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (row, (name, unit, better, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(row, "name"), name);
            assert_eq!(field(row, "unit"), unit);
            let better = if better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field(row, "better"), better);
            assert_eq!(row.get("bound"), Some(&Value::Float(bound)), "{name}");
        }
        let per_layer: Vec<(String, String)> = rows("per_layer")
            .iter()
            .map(|row| (field(row, "name"), field(row, "unit")))
            .collect();
        let expected: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(per_layer, expected);
        let workloads: Vec<String> = rows("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }

    #[test]
    fn arguments_parse() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload fleet --seed 3 --seconds 10 --trace 1 --scale 0.5",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced, a.scale),
            (Workload::Fleet, 3, 10.0, true, 0.5)
        );
        let a = parse_args(&args("--workload resident")).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.scale),
            (0, DEFAULT_SECONDS, false, 1.0)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload fleet --trace 2",
            "--workload fleet --seconds 0",
            "--workload fleet --scale 2",
            "--workload fleet --seed",
            "--workload fleet --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
