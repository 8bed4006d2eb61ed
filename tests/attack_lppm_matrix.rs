//! The attack × LPPM matrix: qualitative shapes from the paper's
//! evaluation that must hold on the synthetic stand-ins.
//!
//! These tests run on a reduced privamov-like dataset (the paper's most
//! vulnerable one) and assert *orderings*, not absolute numbers, as the
//! README's "Figures" section does for the figures.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mood_attacks::{ApAttack, Attack, AttackSuite, PitAttack, PoiAttack};
use mood_lppm::{GeoI, Hmc, Lppm, Trl};
use mood_synth::presets;
use mood_trace::{Dataset, TimeDelta, Trace};

struct Matrix {
    users: usize,
    none: usize,
    geoi: usize,
    trl: usize,
    hmc: usize,
}

fn protect_all(test: &Dataset, lppm: &dyn Lppm) -> Dataset {
    test.iter()
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(0xAA ^ t.user().as_u64());
            lppm.protect(t, &mut rng)
        })
        .collect()
}

fn build_matrix(scale: f64) -> Matrix {
    let ds = presets::privamov_like().scaled(scale).generate();
    let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
    let suite = AttackSuite::train(
        &[
            &PoiAttack::paper_default() as &dyn Attack,
            &PitAttack::paper_default(),
            &ApAttack::paper_default(),
        ],
        &train,
    );
    let hmc = Hmc::paper_default(&train);
    let count = |ds: &Dataset| suite.evaluate(ds).non_protected_count();
    Matrix {
        users: test.user_count(),
        none: count(&test),
        geoi: count(&protect_all(&test, &GeoI::paper_default())),
        trl: count(&protect_all(&test, &Trl::paper_default())),
        hmc: count(&protect_all(&test, &hmc)),
    }
}

#[test]
fn raw_traces_are_highly_reidentifiable() {
    let m = build_matrix(0.3);
    assert!(
        m.none * 2 >= m.users,
        "only {}/{} raw users re-identified — synthetic world too anonymous",
        m.none,
        m.users
    );
}

#[test]
fn lppm_protection_ordering_matches_paper() {
    // paper (resident datasets): no-LPPM >= Geo-I >= TRL >= HMC.
    // Per-draw each comparison can wobble by a user (stochastic noise,
    // same contract as the composition test below).
    let m = build_matrix(0.3);
    assert!(m.none + 1 >= m.geoi, "Geo-I should not increase exposure");
    assert!(m.geoi + 1 >= m.trl, "TRL should protect more than Geo-I");
    assert!(m.trl + 1 >= m.hmc, "HMC should protect more than TRL");
    assert!(m.hmc < m.none, "HMC must protect someone");
}

#[test]
fn geo_i_barely_protects_at_medium_privacy() {
    // the paper's headline observation about Geo-I at eps = 0.01:
    // "the only way to make it resilient ... is to increase its level
    // of privacy" — at medium privacy most users stay exposed
    let m = build_matrix(0.3);
    assert!(
        m.geoi * 3 >= m.none * 2,
        "Geo-I protected too much: {} vs {} raw",
        m.geoi,
        m.none
    );
}

#[test]
fn poi_based_attacks_collapse_under_trl() {
    // TRL's dummies destroy dwell clusters: POI/PIT should abstain or
    // fail on almost everyone
    let ds = presets::privamov_like().scaled(0.3).generate();
    let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
    let poi_suite = AttackSuite::train(&[&PoiAttack::paper_default() as &dyn Attack], &train);
    let protected = protect_all(&test, &Trl::paper_default());
    let eval = poi_suite.evaluate(&protected);
    assert!(
        eval.non_protected_count() <= test.user_count() / 5,
        "POI-Attack still re-identifies {}/{} TRL-protected users",
        eval.non_protected_count(),
        test.user_count()
    );
}

#[test]
fn hmc_defeats_the_heatmap_attack_it_targets() {
    let ds = presets::privamov_like().scaled(0.3).generate();
    let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
    let ap_suite = AttackSuite::train(&[&ApAttack::paper_default() as &dyn Attack], &train);
    let raw = ap_suite.evaluate(&test).non_protected_count();
    let hmc = Hmc::paper_default(&train);
    let protected = protect_all(&test, &hmc);
    let after = ap_suite.evaluate(&protected).non_protected_count();
    // HMC at confusion 0.55 is deliberately imperfect; it
    // must still remove at least a quarter of the AP re-identifications.
    assert!(
        after * 4 <= raw * 3 && after < raw,
        "HMC only reduced AP hits from {raw} to {after}"
    );
}

#[test]
fn compositions_protect_more_than_their_parts() {
    use mood_lppm::Composition;
    use std::sync::Arc;

    let ds = presets::privamov_like().scaled(0.3).generate();
    let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
    let suite = AttackSuite::train(
        &[
            &PoiAttack::paper_default() as &dyn Attack,
            &PitAttack::paper_default(),
            &ApAttack::paper_default(),
        ],
        &train,
    );
    let hmc: Arc<dyn Lppm> = Arc::new(Hmc::paper_default(&train));
    let geoi: Arc<dyn Lppm> = Arc::new(GeoI::paper_default());
    let chain = Composition::new(vec![hmc, geoi]);
    let protected = protect_all(&test, &chain);
    let composed = suite.evaluate(&protected).non_protected_count();
    let hmc_alone = suite
        .evaluate(&protect_all(&test, &Hmc::paper_default(&train)))
        .non_protected_count();
    // Per-draw the comparison can wobble by a user or two (stochastic
    // noise); the composition must not be materially worse than its
    // strongest part.
    assert!(
        composed <= hmc_alone + 2,
        "HMC→Geo-I ({composed}) materially worse than HMC alone ({hmc_alone})"
    );
}

#[test]
fn taxi_fleet_is_naturally_harder_to_reidentify() {
    let cabs = presets::cabspotting_like().scaled(0.12).generate();
    let residents = presets::privamov_like().scaled(0.3).generate();
    let rate = |ds: &Dataset| {
        let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
        let suite = AttackSuite::train(
            &[
                &PoiAttack::paper_default() as &dyn Attack,
                &PitAttack::paper_default(),
                &ApAttack::paper_default(),
            ],
            &train,
        );
        suite.evaluate(&test).non_protected_ratio()
    };
    let cab_rate = rate(&cabs);
    let res_rate = rate(&residents);
    assert!(
        cab_rate < res_rate,
        "cabs ({cab_rate:.2}) should be harder to re-identify than residents ({res_rate:.2})"
    );
}

#[test]
fn every_mechanism_preserves_trace_nonemptiness() {
    let ds = presets::privamov_like().scaled(0.15).generate();
    let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
    let hmc = Hmc::paper_default(&train);
    let geoi = GeoI::paper_default();
    let trl = Trl::paper_default();
    let mechanisms: Vec<&dyn Lppm> = vec![&geoi as &dyn Lppm, &trl, &hmc];
    for trace in test.iter() {
        for (i, lppm) in mechanisms.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(i as u64 ^ trace.user().as_u64());
            let p: Trace = lppm.protect(trace, &mut rng);
            assert!(!p.is_empty());
        }
    }
}
