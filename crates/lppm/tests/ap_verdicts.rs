//! AP-Attack's index-filtered verdict against its `predict` oracle on a
//! taxi fleet, where a verdict matches many overlapping profiles: raw
//! test traces and the output of each single LPPM, on a warm scratch
//! and on a cold one.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mood_attacks::{ApAttack, Attack, AttackScratch};
use mood_lppm::{GeoI, Hmc, Lppm, Trl};
use mood_synth::presets;
use mood_trace::{TimeDelta, Trace, UserId};

#[test]
fn scratch_ap_verdicts_equal_predict_on_raw_and_protected_taxis() {
    let ds = presets::cabspotting_like().scaled(0.3).generate();
    let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
    let ap = ApAttack::paper_default().train(&train);
    let lppms: [Box<dyn Lppm>; 3] = [
        Box::new(GeoI::paper_default()),
        Box::new(Trl::paper_default()),
        Box::new(Hmc::paper_default(&train)),
    ];
    let mut traces: Vec<Trace> = test.iter().cloned().collect();
    for (k, lppm) in lppms.iter().enumerate() {
        for t in test.iter() {
            let mut rng = StdRng::seed_from_u64(((k as u64) << 32) ^ t.user().as_u64());
            traces.push(lppm.protect(t, &mut rng));
        }
    }

    // Each trace is judged for its own user, the user AP predicts and
    // the runner-up: a won verdict, a verdict lost to the best rival and
    // one lost to a near miss.
    let mut warm = AttackScratch::new();
    let (mut won, mut lost) = (0, 0);
    for trace in &traces {
        let prediction = ap.predict(trace);
        let ranked = prediction.scores.iter().map(|s| s.0).take(2);
        let candidates: Vec<UserId> = std::iter::once(trace.user()).chain(ranked).collect();
        for user in candidates {
            let want = prediction.predicted == Some(user);
            assert_eq!(
                ap.reidentify_with(trace, user, &mut warm),
                want,
                "warm verdict on the trace of {} for {user}",
                trace.user()
            );
            assert_eq!(
                ap.reidentify_with(trace, user, &mut AttackScratch::new()),
                want,
                "cold verdict on the trace of {} for {user}",
                trace.user()
            );
            if want {
                won += 1;
            } else {
                lost += 1;
            }
        }
    }
    assert!(won > 0 && lost > 0, "{won} won and {lost} lost verdicts");
}
