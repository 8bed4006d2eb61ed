//! The layers below the engine, timed from the ledger's own code around
//! each module's public functions: rasterization and stay extraction
//! (`models`), every LPPM and composition (`lppm`), every trained
//! attack's verdict (`attacks`) and the distortion metric (`metrics`).
//!
//! They run over a sample of the test split — users in id order until
//! [`SAMPLE_RECORDS`] records — because compositions over the whole
//! fleet split would take minutes.

use std::time::Instant;

use mood_attacks::{ApAttack, AttackScratch};
use mood_core::MoodEngine;
use mood_lppm::Lppm;
use mood_metrics::spatio_temporal_distortion;
use mood_models::{Heatmap, PoiExtractor};
use mood_trace::{Dataset, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::derive;
use crate::stats::Metric;

/// Records of the test split the layer sample covers.
const SAMPLE_RECORDS: usize = 100_000;

/// Seed stream of the sample's LPPM noise.
const LPPM_NOISE: u64 = 6;

fn sample(test: &Dataset) -> Vec<&Trace> {
    let mut records = 0;
    test.iter()
        .take_while(|t| {
            let take = records < SAMPLE_RECORDS;
            records += t.len();
            take
        })
        .collect()
}

fn per_item(total_s: f64, items: usize, scale: f64) -> f64 {
    total_s * scale / items.max(1) as f64
}

/// Times `lppm.protect` over `traces`; returns the outputs and the
/// nanoseconds per input record.
fn protect_all(lppm: &dyn Lppm, traces: &[&Trace], seed: u64) -> (Vec<Trace>, f64) {
    let records: usize = traces.iter().map(|t| t.len()).sum();
    let t0 = Instant::now();
    let out: Vec<Trace> = traces
        .iter()
        .map(|t| {
            lppm.protect(
                t,
                &mut StdRng::seed_from_u64(derive(seed, LPPM_NOISE, t.user().as_u64())),
            )
        })
        .collect();
    (out, per_item(t0.elapsed().as_secs_f64(), records, 1e9))
}

pub fn traced(
    engine: &MoodEngine,
    background: &Dataset,
    test: &Dataset,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let traces = sample(test);

    let heatmaps = engine
        .profile_store()
        .ok_or("the engine carries no profile store")?
        .heatmaps(background, ApAttack::paper_default().cell_size_m());
    let t0 = Instant::now();
    for t in &traces {
        std::hint::black_box(Heatmap::from_trace(heatmaps.grid(), t));
    }
    let raster_us = per_item(t0.elapsed().as_secs_f64(), traces.len(), 1e6);
    let extractor = PoiExtractor::paper_default();
    let t0 = Instant::now();
    for t in &traces {
        std::hint::black_box(extractor.extract_profile(t));
    }
    let stays_us = per_item(t0.elapsed().as_secs_f64(), traces.len(), 1e6);

    let mut lppm_ns = Vec::new();
    let mut outputs: Vec<Trace> = traces.iter().map(|t| (*t).clone()).collect();
    for lppm in engine.lppms() {
        let (out, ns) = protect_all(lppm.as_ref(), &traces, seed);
        lppm_ns.push(ns);
        outputs.extend(out);
    }
    let [geo_i_ns, trl_ns, hmc_ns] = lppm_ns[..] else {
        return Err(format!(
            "expected the three paper LPPMs, got {}",
            lppm_ns.len()
        ));
    };
    let compositions = engine.compositions();
    let composition_ns = compositions
        .iter()
        .map(|c| protect_all(c, &traces, seed).1)
        .sum::<f64>()
        / compositions.len().max(1) as f64;

    // Raw traces plus each single-LPPM output, judged under the true
    // user; every attack scores the set once untimed to warm its
    // scratch, then once timed.
    let mut attack_us = Vec::new();
    let mut verdicts = 0usize;
    for attack in engine.suite().attacks() {
        let mut scratch = AttackScratch::new();
        for t in &outputs {
            attack.reidentify_with(t, t.user(), &mut scratch);
        }
        let t0 = Instant::now();
        for t in &outputs {
            std::hint::black_box(attack.reidentify_with(t, t.user(), &mut scratch));
        }
        attack_us.push((
            attack.name(),
            per_item(t0.elapsed().as_secs_f64(), outputs.len(), 1e6),
        ));
        verdicts += outputs.len();
    }
    let attack = |name: &str| {
        attack_us
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, us)| us)
            .ok_or(format!("the suite has no {name}"))
    };

    let protected = &outputs[traces.len()..];
    let t0 = Instant::now();
    for (original, out) in traces.iter().cycle().zip(protected) {
        std::hint::black_box(spatio_temporal_distortion(original, out));
    }
    let distortion_us = per_item(t0.elapsed().as_secs_f64(), protected.len(), 1e6);

    Ok(vec![
        Metric::single("models.raster_us", "us", raster_us),
        Metric::single("models.stays_us", "us", stays_us),
        Metric::single("lppm.geo_i_ns_per_record", "ns", geo_i_ns),
        Metric::single("lppm.trl_ns_per_record", "ns", trl_ns),
        Metric::single("lppm.hmc_ns_per_record", "ns", hmc_ns),
        Metric::single("lppm.composition_ns_per_record", "ns", composition_ns),
        Metric::single("attacks.poi_us", "us", attack("POI-Attack")?),
        Metric::single("attacks.pit_us", "us", attack("PIT-Attack")?),
        Metric::single("attacks.ap_us", "us", attack("AP-Attack")?),
        Metric::single("attacks.verdicts", "count", verdicts as f64),
        Metric::single("metrics.distortion_us", "us", distortion_us),
    ])
}
