//! Cross-crate invariants: properties that only hold when the crates
//! agree with each other (trace model ↔ models ↔ attacks ↔ LPPMs ↔
//! metrics), checked on realistic synthetic data.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mood_attacks::{ApAttack, Attack, PitAttack, PoiAttack};
use mood_geo::Grid;
use mood_lppm::{GeoI, Hmc, Lppm, Trl};
use mood_metrics::spatio_temporal_distortion;
use mood_models::{Heatmap, MarkovChain, PoiExtractor};
use mood_synth::presets;
use mood_trace::{io as trace_io, Dataset, Record, StoreConfig, TimeDelta};

fn world() -> (Dataset, Dataset) {
    let ds = presets::privamov_like().scaled(0.2).generate();
    ds.split_chronological(TimeDelta::from_days(15))
}

#[test]
fn heatmap_totals_match_trace_lengths() {
    let (train, _) = world();
    let grid = Grid::new(train.bounding_box().unwrap(), 800.0).unwrap();
    for trace in train.iter() {
        let hm = Heatmap::from_trace(&grid, trace);
        assert_eq!(hm.total(), trace.len() as f64);
    }
}

#[test]
fn poi_profiles_feed_consistent_markov_chains() {
    let (train, _) = world();
    let extractor = PoiExtractor::paper_default();
    for trace in train.iter() {
        let profile = extractor.extract_profile(trace);
        let mmc = MarkovChain::from_profile(&profile);
        assert_eq!(mmc.state_count(), profile.len());
        if !mmc.is_empty() {
            let pi_sum: f64 = mmc.stationary().iter().sum();
            assert!((pi_sum - 1.0).abs() < 1e-6);
            // heaviest POI should carry meaningful stationary mass
            assert!(mmc.stationary()[0] > 0.0);
        }
    }
}

#[test]
fn lppm_outputs_keep_user_and_time_monotonicity() {
    let (train, test) = world();
    let hmc = Hmc::paper_default(&train);
    let geoi = GeoI::paper_default();
    let trl = Trl::paper_default();
    let lppms: Vec<&dyn Lppm> = vec![&geoi as &dyn Lppm, &trl, &hmc];
    let trace = test.iter().next().unwrap();
    for (i, lppm) in lppms.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(i as u64);
        let protected = lppm.protect(trace, &mut rng);
        assert_eq!(protected.user(), trace.user(), "{}", lppm.name());
        for pair in protected.records().windows(2) {
            assert!(pair[0].time() <= pair[1].time(), "{}", lppm.name());
        }
        // obfuscation stays in the metropolitan area: Geo-I/TRL move a
        // record by at most a few km, and HMC relocates runs to decoy
        // cells anywhere in the *training* extent — so the bound is the
        // city, not the individual trace
        let bb = train.bounding_box().unwrap().expanded(5_000.0).unwrap();
        for r in protected.records() {
            assert!(
                bb.contains(&r.point()),
                "{} escaped the region",
                lppm.name()
            );
        }
    }
}

#[test]
fn attack_predictions_are_consistent_with_scores() {
    let (train, test) = world();
    let attacks: Vec<Box<dyn mood_attacks::TrainedAttack>> = vec![
        PoiAttack::paper_default().train(&train),
        PitAttack::paper_default().train(&train),
        ApAttack::paper_default().train(&train),
    ];
    for trace in test.iter().take(4) {
        for attack in &attacks {
            let p = attack.predict(trace);
            if let Some(winner) = p.predicted {
                // the winner is the first finite score
                let first = p
                    .scores
                    .iter()
                    .find(|(_, d)| d.is_finite())
                    .expect("finite score behind a prediction");
                assert_eq!(first.0, winner, "{}", attack.name());
                // scores sorted ascending
                for pair in p.scores.windows(2) {
                    assert!(pair[0].1 <= pair[1].1 || pair[1].1.is_nan());
                }
            }
        }
    }
}

#[test]
fn stronger_noise_means_larger_distortion() {
    let (_, test) = world();
    let trace = test.iter().next().unwrap();
    let mut prev = 0.0;
    for eps in [0.05, 0.01, 0.002] {
        let mut rng = StdRng::seed_from_u64(11);
        let protected = GeoI::new(eps).protect(trace, &mut rng);
        let std = spatio_temporal_distortion(trace, &protected);
        assert!(std > prev, "eps {eps}: {std} not > {prev}");
        prev = std;
    }
}

#[test]
fn trl_distortion_reflects_dummy_radius() {
    let (_, test) = world();
    let trace = test.iter().next().unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let protected = Trl::paper_default().protect(trace, &mut rng);
    let std = spatio_temporal_distortion(trace, &protected);
    // uniform disk of radius 1 km -> mean displacement ~667 m
    assert!((std - 667.0).abs() < 60.0, "TRL STD = {std}");
}

#[test]
fn streamed_store_holds_at_most_half_the_in_memory_records() {
    // The compressed store earns its keep only if it at least halves the
    // `Vec<Record>` footprint, on every preset's trace shape.
    for spec in presets::all() {
        let dataset = spec.scaled(0.1).generate();
        let mut csv = Vec::new();
        trace_io::write_csv(&dataset, &mut csv).expect("serialize corpus");
        let store = trace_io::stream_csv(&csv[..], StoreConfig::default()).expect("stream");
        let in_memory = dataset.record_count() * std::mem::size_of::<Record>();
        let ratio = store.stats().encoded_bytes as f64 / in_memory as f64;
        assert!(ratio <= 0.5, "{}: compression ratio {ratio:.3}", spec.name);
    }
}
