//! The curator's offline path: CSV ingest into a compressed trace
//! store, attack evaluation and MooD protection from the store, each on
//! a persistent pool of [`THREADS`] workers — untraced for the
//! end-to-end metrics, and as one sequential traced pass for the
//! `trace`, `core` and `exec` layers.

use std::sync::Arc;
use std::time::Instant;

use mood_attacks::DatasetEvaluation;
use mood_core::obs::StageAgg;
use mood_core::{
    protect_dataset_with, protect_store_with, publish, Executor, ExecutorKind, ProtectionReport,
    SequentialExecutor, UserClass, ENGINE_STAGES,
};
use mood_trace::{io as trace_io, TraceStore};

use crate::calibrate::Probe;
use crate::inputs::{store_config, Inputs, Plan, Setup, THREADS};
use crate::stats::{self, Fnv1a, Metric};

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn ingest(inputs: &Inputs) -> Result<TraceStore, String> {
    let store =
        trace_io::stream_csv_file(&inputs.test_csv, store_config()).map_err(|e| e.to_string())?;
    if store.user_count() != inputs.test.user_count()
        || store.record_count() != inputs.test.record_count()
    {
        return Err(format!(
            "ingest: store holds {} users / {} records, the test split {} / {}",
            store.user_count(),
            store.record_count(),
            inputs.test.user_count(),
            inputs.test.record_count()
        ));
    }
    Ok(store)
}

fn check_report(report: &ProtectionReport, inputs: &Inputs) -> Result<(), String> {
    if report.users_total != inputs.test.user_count()
        || report.data_loss.total_records() != inputs.test.record_count()
    {
        return Err(format!(
            "protect: report covers {} users / {} records of {} / {}",
            report.users_total,
            report.data_loss.total_records(),
            inputs.test.user_count(),
            inputs.test.record_count()
        ));
    }
    Ok(())
}

/// Folds a report's outcomes, published traces included, into `h`.
pub fn digest_report(h: &mut Fnv1a, report: &ProtectionReport) {
    for o in report.outcomes() {
        h.write_u64(o.user.as_u64());
        h.write(format!("{:?}", o.class).as_bytes());
        h.write_u64(o.original_records as u64);
        for p in o.outcome.published() {
            h.write(p.lppm.as_bytes());
            h.write_u64(p.distortion_m.to_bits());
            for r in p.trace.records() {
                h.write_u64(r.point().lat().to_bits());
                h.write_u64(r.point().lng().to_bits());
                h.write_u64(r.time().as_unix() as u64);
            }
        }
    }
}

fn digest_evaluation(h: &mut Fnv1a, eval: &DatasetEvaluation) {
    for user in &eval.non_protected_users {
        h.write_u64(user.as_u64());
    }
    h.write_u64(eval.lost_records as u64);
    for (attack, count) in &eval.re_identified_per_attack {
        h.write(attack.as_bytes());
        h.write_u64(*count as u64);
    }
}

/// The untraced batch phases, run in rounds: `ingest.mb_per_s`,
/// `evaluate.records_per_s` and `protect.users_per_s`, one sample per
/// pass. A round's passes of one phase are one probed sample, and each
/// pass is host-normalized by the slowdown around them. Set up with one
/// untimed warm-up pass of each phase.
pub struct Batch<'a> {
    inputs: &'a Inputs,
    setup: &'a Setup,
    executor: Arc<dyn Executor>,
    store: TraceStore,
    reference: DatasetEvaluation,
    /// Normalized and raw samples per phase: ingest, evaluate, protect.
    rates: [(Vec<f64>, Vec<f64>); 3],
}

/// Runs one phase's passes inside the probe; returns each pass's rate,
/// as timed, and the host slowdown around them all.
fn probed(
    probe: &mut Probe,
    passes: impl FnOnce() -> Result<Vec<f64>, String>,
) -> Result<(Vec<f64>, f64), String> {
    let (rates, slowdown) = probe.around(passes)?;
    Ok((rates?, slowdown))
}

impl<'a> Batch<'a> {
    pub fn new(inputs: &'a Inputs, setup: &'a Setup, digest: &mut Fnv1a) -> Result<Self, String> {
        let executor = ExecutorKind::Persistent.build(THREADS);
        let store = ingest(inputs)?;
        let reference = setup
            .engine
            .suite()
            .evaluate_store_with(&store, executor.as_ref());
        digest_evaluation(digest, &reference);
        let warm = setup.template.engine_for(inputs.pass_seed(usize::MAX));
        check_report(
            &protect_store_with(&warm, &store, executor.as_ref()),
            inputs,
        )?;
        Ok(Self {
            inputs,
            setup,
            executor,
            store,
            reference,
            rates: Default::default(),
        })
    }

    fn record(&mut self, phase: usize, (rates, slowdown): (Vec<f64>, f64)) {
        self.rates[phase]
            .0
            .extend(rates.iter().map(|r| r * slowdown));
        self.rates[phase].1.extend(rates);
    }

    /// One round of every phase, as many passes as the plan gives it.
    pub fn round(
        &mut self,
        plan: &Plan,
        probe: &mut Probe,
        digest: &mut Fnv1a,
    ) -> Result<(), String> {
        let inputs = self.inputs;
        let mb = inputs.test_csv_bytes as f64 / 1e6;
        let store = &mut self.store;
        let ingested = probed(probe, || {
            (0..plan.ingest_passes)
                .map(|_| {
                    let t0 = Instant::now();
                    let fresh = ingest(inputs)?;
                    let s = secs(t0);
                    *store = fresh;
                    Ok(mb / s)
                })
                .collect()
        })?;
        self.record(0, ingested);

        let (suite, store, executor) = (
            self.setup.engine.suite(),
            &self.store,
            self.executor.as_ref(),
        );
        let reference = &self.reference;
        let evaluated = probed(probe, || {
            (0..plan.evaluate_passes)
                .map(|_| {
                    let t0 = Instant::now();
                    let eval = suite.evaluate_store_with(store, executor);
                    let s = secs(t0);
                    if eval != *reference {
                        return Err("evaluate: a pass disagrees with the first".to_string());
                    }
                    Ok(store.record_count() as f64 / s)
                })
                .collect()
        })?;

        let first = self.rates[2].0.len();
        let template = &self.setup.template;
        let protected = probed(probe, || {
            (first..first + plan.protect_passes)
                .map(|pass| {
                    let engine = template.engine_for(inputs.pass_seed(pass));
                    let t0 = Instant::now();
                    let report = protect_store_with(&engine, store, executor);
                    let s = secs(t0);
                    check_report(&report, inputs)?;
                    digest_report(digest, &report);
                    Ok(report.users_total as f64 / s)
                })
                .collect()
        })?;
        self.record(1, evaluated);
        self.record(2, protected);
        Ok(())
    }

    /// The metrics and the number of passes run, warm-ups included.
    pub fn finish(self) -> (Vec<Metric>, usize) {
        let [ingest, evaluate, protect] = self.rates;
        let passes = 3 + ingest.0.len() + evaluate.0.len() + protect.0.len();
        let metrics = vec![
            Metric::normalized("ingest.mb_per_s", "MB/s", ingest.0, ingest.1),
            Metric::normalized(
                "evaluate.records_per_s",
                "records/s",
                evaluate.0,
                evaluate.1,
            ),
            Metric::normalized("protect.users_per_s", "users/s", protect.0, protect.1),
        ];
        (metrics, passes)
    }
}

/// The traced batch layers, with the heavy output checks:
///
/// * `read_csv` and `stream_csv` on the same bytes give
///   `trace.read_csv_mb_per_s` and `trace.store_append_ms` (the
///   difference), and `stream_csv_file(..).to_dataset()` must equal
///   `read_csv`;
/// * one sequential pass over a fresh store times every
///   `TraceStore::trace` call and every `protect_user`, with a
///   `StageAgg` on the engine splitting protect time into raw check,
///   candidate evaluation and the engine's own time;
/// * a Persistent×2 pass must equal the sequential one, the in-memory
///   pipelines must equal the store-backed ones, and every published
///   trace must resist the suite under ground truth.
///
/// Returns the metrics and the number of checked operations.
pub fn traced(
    inputs: &Inputs,
    setup: &Setup,
    digest: &mut Fnv1a,
) -> Result<(Vec<Metric>, usize), String> {
    let executor = ExecutorKind::Persistent.build(THREADS);
    let bytes = std::fs::read(&inputs.test_csv).map_err(|e| e.to_string())?;

    let mut read_s = Vec::new();
    let mut stream_s = Vec::new();
    let mut parsed = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        parsed = Some(trace_io::read_csv(&bytes[..]).map_err(|e| e.to_string())?);
        read_s.push(secs(t0));
        let t0 = Instant::now();
        trace_io::stream_csv(&bytes[..], store_config()).map_err(|e| e.to_string())?;
        stream_s.push(secs(t0));
    }
    let parsed = parsed.expect("three parses");
    if parsed != inputs.test {
        return Err("ingest: read_csv does not reproduce the test split".to_string());
    }
    if ingest(inputs)?.to_dataset() != parsed {
        return Err("ingest: stream_csv_file(..).to_dataset() differs from read_csv".to_string());
    }

    // The sequential traced pass, on a fresh store so its cache counts
    // are a pure function of the input.
    let store = ingest(inputs)?;
    let seed = inputs.pass_seed(0);
    let agg = Arc::new(StageAgg::new(&ENGINE_STAGES));
    let engine = setup.template.engine_for_request_observed(
        seed,
        Arc::new(SequentialExecutor),
        None,
        Some(Arc::clone(&agg)),
    );
    let users = store.user_ids();
    let mut outcomes = Vec::with_capacity(users.len());
    let (mut decode_s, mut protect_s) = (0.0, 0.0);
    let wall0 = Instant::now();
    for user in users {
        let t0 = Instant::now();
        let trace = store.trace(user);
        let t1 = Instant::now();
        outcomes.push(engine.protect_user(&trace));
        decode_s += (t1 - t0).as_secs_f64();
        protect_s += secs(t1);
    }
    let t0 = Instant::now();
    let sequential = ProtectionReport::from_outcomes(outcomes);
    let report_s = secs(t0);
    let wall_s = secs(wall0);
    let store_stats = store.stats();
    let stages = agg.snapshot();
    let stage = |name: &str| stages.iter().find(|s| s.stage == name).copied();
    let raw_check_s = stage("raw_check").map_or(0.0, |s| s.ns as f64 / 1e9);
    let candidate = stage("candidate_eval").ok_or("no candidate was evaluated")?;
    let candidate_s = candidate.ns as f64 / 1e9;
    check_report(&sequential, inputs)?;
    digest_report(digest, &sequential);

    let plain = setup.template.engine_for(seed);
    let t0 = Instant::now();
    let parallel = protect_store_with(&plain, &store, executor.as_ref());
    let parallel_s = secs(t0);
    if parallel != sequential {
        return Err("protect: the Persistent×2 report differs from the sequential one".to_string());
    }
    if protect_dataset_with(&plain, &inputs.test, executor.as_ref()) != parallel {
        return Err("protect: the store-backed report differs from the in-memory one".to_string());
    }
    let suite = setup.engine.suite();
    if suite.evaluate_store_with(&store, executor.as_ref())
        != suite.evaluate_with(&inputs.test, executor.as_ref())
    {
        return Err(
            "evaluate: the store-backed evaluation differs from the in-memory one".to_string(),
        );
    }
    let (published, ground_truth) = publish(sequential.outcomes());
    for trace in published.iter() {
        let original = ground_truth[&trace.user()];
        if !suite.protects(trace, original) {
            return Err(format!(
                "publish: trace {} links back to {original}",
                trace.user()
            ));
        }
    }

    let checked = sequential.users_total + published.user_count() + 8;
    let ms = |s: f64| s * 1e3;
    let engine_self_s = protect_s - raw_check_s - candidate_s;
    let class = |c: UserClass| sequential.class_count(c) as f64;
    let metrics = vec![
        Metric::new(
            "trace.read_csv_mb_per_s",
            "MB/s",
            read_s
                .iter()
                .map(|s| bytes.len() as f64 / 1e6 / s)
                .collect(),
        ),
        Metric::single(
            "trace.store_append_ms",
            "ms",
            ms(stats::median(&stream_s) - stats::median(&read_s)),
        ),
        Metric::single("trace.decode_ms", "ms", ms(decode_s)),
        Metric::single("trace.decodes", "count", store_stats.decodes as f64),
        Metric::single("trace.evictions", "count", store_stats.evictions as f64),
        Metric::single("core.raw_check_ms", "ms", ms(raw_check_s)),
        Metric::single("core.candidate_eval_ms", "ms", ms(candidate_s)),
        Metric::single("core.candidates", "count", candidate.count as f64),
        Metric::single("core.engine_self_ms", "ms", ms(engine_self_s)),
        Metric::single("core.report_ms", "ms", ms(report_s)),
        Metric::single(
            "core.users.natural",
            "count",
            class(UserClass::NaturallyProtected),
        ),
        Metric::single("core.users.single", "count", class(UserClass::SingleLppm)),
        Metric::single("core.users.multi", "count", class(UserClass::MultiLppm)),
        Metric::single("core.users.fine", "count", class(UserClass::FineGrained)),
        Metric::single(
            "core.users.unprotectable",
            "count",
            class(UserClass::Unprotectable),
        ),
        Metric::single(
            "exec.efficiency",
            "ratio",
            protect_s / (THREADS as f64 * parallel_s),
        ),
        Metric::single("batch.wall_ms", "ms", ms(wall_s)),
        Metric::single(
            "batch.unattributed_ms",
            "ms",
            ms(stats::unattributed(
                wall_s,
                &[decode_s, raw_check_s, candidate_s, engine_self_s, report_s],
            )),
        ),
    ];
    Ok((metrics, checked))
}
