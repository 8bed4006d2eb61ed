//! Calibration diagnostic: the raw attack × LPPM matrix on every preset.
//!
//! Prints, per dataset, the number of users re-identified by the
//! three-attack union and by AP-Attack alone, for each single mechanism.
//! This is the tool used to calibrate the synthetic presets against the
//! paper's Figures 2/6/7 (see the README's "Figures" section).
//!
//! Run with: `cargo run --release -p mood-lppm --example calib [scale]`

use mood_attacks::{ApAttack, Attack, AttackSuite, PitAttack, PoiAttack};
use mood_lppm::{GeoI, Hmc, Lppm, Trl};
use mood_synth::presets;
use mood_trace::{Dataset, TimeDelta, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn protect_all(ds: &Dataset, lppm: &dyn Lppm, seed: u64) -> Dataset {
    let traces: Vec<Trace> = ds
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15));
            lppm.protect(t, &mut rng)
        })
        .collect();
    Dataset::from_traces(traces).unwrap()
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    for spec in presets::all() {
        let ds = spec.scaled(scale).generate();
        let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
        let suite = AttackSuite::train(
            &[
                &PoiAttack::paper_default() as &dyn Attack,
                &PitAttack::paper_default(),
                &ApAttack::paper_default(),
            ],
            &train,
        );
        let ap_only = AttackSuite::train(&[&ApAttack::paper_default() as &dyn Attack], &train);
        let hmc = Hmc::paper_default(&train);
        let geoi = GeoI::paper_default();
        let trl = Trl::paper_default();
        let lppms: Vec<(&str, &dyn Lppm)> = vec![
            ("none", &NoOp),
            ("Geo-I", &geoi),
            ("TRL", &trl),
            ("HMC", &hmc),
        ];
        println!("=== {} ({} users) ===", spec.name, test.user_count());
        for (name, lppm) in lppms {
            let t0 = std::time::Instant::now();
            let prot = protect_all(&test, lppm, 42);
            let multi = suite.evaluate(&prot);
            let ap = ap_only.evaluate(&prot);
            println!(
                "  {:<6} multi={:>3} ({:>3.0}%) loss={:>4.1}%  ap={:>3}  per={:?} [{:?}]",
                name,
                multi.non_protected_count(),
                multi.non_protected_ratio() * 100.0,
                multi.data_loss_ratio() * 100.0,
                ap.non_protected_count(),
                multi.re_identified_per_attack,
                t0.elapsed()
            );
        }
    }
}

struct NoOp;
impl Lppm for NoOp {
    fn name(&self) -> &str {
        "none"
    }
    fn protect(&self, t: &Trace, _: &mut dyn rand::RngCore) -> Trace {
        t.clone()
    }
}
