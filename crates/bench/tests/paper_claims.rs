//! The paper's cross-mechanism orderings (Figs. 6, 7, 9 and 10),
//! asserted exactly on every synthetic preset: scale 0.2, both
//! adversaries, three dataset seeds per preset.
//!
//! * MooD leaves no more users unprotected than HybridLPPM, which leaves
//!   no more than any single LPPM; the same holds for data loss.
//! * At each distortion band edge (500 m, 1 km, 5 km), MooD keeps at
//!   least as many users under the edge as any single LPPM and
//!   HybridLPPM.
//!
//! `run_figures` reads every bar from one MooD run, so these hold by
//! construction and need no tolerance.
//!
//! A single LPPM against no LPPM is printed: an attack can re-identify
//! a user from a noisy trace when the raw one hid them (see the
//! README's "Figures"). On the resident presets the cause is asserted
//! instead: every such user is a twin-group member, whose raw trace
//! hid them only in a near-tie with a twin that any spatial blur
//! breaks.

use mood_bench::{run_figures, Adversary, ExperimentContext, MechanismOutcome};
use mood_synth::{presets, DatasetSpec, PopulationModel};

const SINGLES: [&str; 3] = ["Geo-I", "TRL", "HMC"];

/// Users under 500 m, 1 km and 5 km of distortion.
fn under_edges(bar: &MechanismOutcome) -> [usize; 3] {
    let mut under = 0;
    ["Low", "Medium", "High"].map(|band| {
        under += bar.bands[band];
        under
    })
}

/// Every (user, single LPPM) pair of the panel where the raw trace hid
/// the user but the figures' own draw of that LPPM is re-identified
/// belongs to a twin. Returns how many such pairs there were.
fn assert_flips_are_twins(ctx: &ExperimentContext, adversary: Adversary, panel: &str) -> usize {
    let engine = ctx.engine(adversary);
    let mut flips = 0;
    for trace in ctx.test.iter() {
        let user = trace.user();
        if !engine.suite().protects(trace, user) {
            continue;
        }
        let singles = engine.single_candidates(trace);
        for (lppm, single) in engine.lppms().iter().zip(singles) {
            if single.is_none() {
                flips += 1;
                assert!(
                    ctx.spec.is_twin(user),
                    "{panel}: {} re-identifies user {user}, whom the raw trace hid, \
                     and who is no twin",
                    lppm.name()
                );
            }
        }
    }
    flips
}

fn check_preset(preset: DatasetSpec) {
    let residents = matches!(preset.population, PopulationModel::Residents { .. });
    for offset in 0..3 {
        let spec = DatasetSpec {
            seed: preset.seed + offset,
            ..preset.clone()
        };
        let ctx = ExperimentContext::load(&spec, 0.2);
        for adversary in [Adversary::ApOnly, Adversary::All] {
            let figures = run_figures(&ctx, adversary, 2);
            let panel = format!("{} seed+{offset} {adversary:?}", spec.name);
            let bar = |name: &str| figures.mechanism(name).expect("every bar is drawn");
            let (none, hybrid, mood) = (bar("no-LPPM"), bar("HybridLPPM"), bar("MooD"));

            let mut dominated = vec![(mood, hybrid)];
            for single in SINGLES.map(bar) {
                dominated.push((hybrid, single));
                println!(
                    "{panel}: {} {} users / {:.2} % vs no-LPPM {} / {:.2} %",
                    single.mechanism,
                    single.non_protected_users,
                    single.data_loss_percent,
                    none.non_protected_users,
                    none.data_loss_percent
                );
            }
            for (better, worse) in dominated {
                assert!(
                    better.non_protected_users <= worse.non_protected_users
                        && better.data_loss_percent <= worse.data_loss_percent,
                    "{panel}: {better:?} does not dominate {worse:?}"
                );
            }

            for other in SINGLES.into_iter().chain(["HybridLPPM"]).map(bar) {
                let (ours, theirs) = (under_edges(mood), under_edges(other));
                assert!(
                    ours.iter().zip(theirs).all(|(o, t)| *o >= t),
                    "{panel}: under 500 m / 1 km / 5 km, MooD keeps {ours:?} users, {} {theirs:?}",
                    other.mechanism
                );
            }

            if residents {
                let flips = assert_flips_are_twins(&ctx, adversary, &panel);
                println!("{panel}: {flips} single-LPPM draws re-identify a user the raw trace hid, all twins");
            }
        }
    }
}

#[test]
fn cabspotting_like() {
    check_preset(presets::cabspotting_like());
}

#[test]
fn geolife_like() {
    check_preset(presets::geolife_like());
}

#[test]
fn mdc_like() {
    check_preset(presets::mdc_like());
}

#[test]
fn privamov_like() {
    check_preset(presets::privamov_like());
}
