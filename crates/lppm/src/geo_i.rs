use rand::{Rng, RngCore};

use mood_geo::LocalProjection;
use mood_trace::{Record, Trace};

use crate::Lppm;

/// Geo-indistinguishability (Andrés et al. 2013, the paper's \[4\]):
/// ε-differential privacy for locations, achieved by adding planar
/// Laplace noise to every record.
///
/// The noise radius follows the distribution with density
/// `ε² r e^(−εr)` (a Gamma(2, 1/ε)); its mean is `2/ε`. Sampling uses
/// the exact inverse CDF `r = −(1/ε)(W₋₁((p−1)/e) + 1)` with the
/// Lambert-W lower branch, as in the original paper.
///
/// The paper's experiments fix ε = 0.01 m⁻¹ ("medium privacy", §4.1.2),
/// i.e. an average displacement of 200 m.
///
/// # Examples
///
/// ```
/// use mood_lppm::{GeoI, Lppm};
/// use mood_synth::presets;
/// use rand::SeedableRng;
///
/// let ds = presets::privamov_like().scaled(0.1).generate();
/// let trace = ds.iter().next().unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let protected = GeoI::paper_default().protect(trace, &mut rng);
/// assert_eq!(protected.len(), trace.len()); // same cardinality
/// assert_ne!(protected.records()[0].point(), trace.records()[0].point());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoI {
    epsilon_per_m: f64,
}

impl GeoI {
    /// Creates a Geo-I mechanism with privacy parameter ε (per meter).
    /// Lower ε = more noise = more privacy.
    ///
    /// # Panics
    ///
    /// Panics when `epsilon_per_m` is not strictly positive and finite.
    pub fn new(epsilon_per_m: f64) -> Self {
        assert!(
            epsilon_per_m.is_finite() && epsilon_per_m > 0.0,
            "epsilon must be positive"
        );
        Self { epsilon_per_m }
    }

    /// The paper's configuration: ε = 0.01 m⁻¹ (mean noise 200 m).
    pub fn paper_default() -> Self {
        Self::new(0.01)
    }

    /// The privacy parameter ε in m⁻¹.
    pub fn epsilon(&self) -> f64 {
        self.epsilon_per_m
    }

    /// Displaces the `N` records of `block`. The `(θ, p)` draws come
    /// record by record, θ first, exactly as a per-record loop takes them,
    /// so the RNG ends where that loop would leave it; only the `N`
    /// Lambert-W solves run in lockstep.
    fn displace_block<const N: usize>(
        &self,
        block: &[Record; N],
        rng: &mut dyn RngCore,
        out: &mut Vec<Record>,
    ) {
        let mut theta = [0.0; N];
        let mut x = [0.0; N];
        for (theta, x) in theta.iter_mut().zip(&mut x) {
            *theta = rng.gen_range(0.0..360.0);
            let p: f64 = rng.gen_range(0.0..1.0);
            *x = (p - 1.0) / std::f64::consts::E;
        }
        let w = lambert_w_minus1(x);
        for ((r, theta), w) in block.iter().zip(theta).zip(w) {
            let radius = -(w + 1.0) / self.epsilon_per_m;
            let proj = LocalProjection::new(r.point());
            let moved = proj
                .displace(&r.point(), theta, radius)
                .expect("sampled radius is non-negative");
            out.push(r.with_point(moved));
        }
    }
}

/// Records per lockstep Lambert-W block in [`GeoI`]'s `apply`.
/// Four independent Halley chains hide most of the latency of one; eight
/// measured no faster.
const LANES: usize = 4;

impl Lppm for GeoI {
    fn name(&self) -> &str {
        "Geo-I"
    }

    fn apply(&self, trace: &Trace, rng: &mut dyn RngCore, out: &mut Vec<Record>) {
        out.clear();
        out.reserve(trace.len());
        let (blocks, tail) = trace.records().as_chunks::<LANES>();
        for block in blocks {
            self.displace_block(block, rng, out);
        }
        for r in tail {
            self.displace_block::<1>(std::array::from_ref(r), rng, out);
        }
    }
}

/// Lambert W function, lower branch `W₋₁`, of `N` arguments in
/// `[−1/e, 0)`, solved in lockstep; `N = 1` is the scalar function.
///
/// Solves `w e^w = x` with `w ≤ −1`, by Halley iteration from an
/// asymptotic initial guess. Absolute residual is below 1e-10 over the
/// whole domain.
///
/// Each Halley step is an `exp` whose result feeds two divisions that
/// feed the next `exp`, so one solve is a serial chain of latencies.
/// Every lane runs exactly the one-lane operation sequence and stops
/// where that would stop, so each result is bit-identical to a one-lane
/// solve of the same `x`; interleaving the independent chains lets the
/// CPU overlap their latencies.
///
/// # Panics
///
/// Panics when any `x` is outside `[−1/e, 0)`.
fn lambert_w_minus1<const N: usize>(x: [f64; N]) -> [f64; N] {
    const NEG_INV_E: f64 = -1.0 / std::f64::consts::E;
    let mut w = x.map(|x| {
        assert!(
            (NEG_INV_E..0.0).contains(&x),
            "W_-1 requires x in [-1/e, 0), got {x}"
        );
        // Initial guess: near the branch point use the series in
        // p = -sqrt(2(1 + e x)); elsewhere the log-log asymptote.
        if x > -0.25 {
            let l1 = (-x).ln();
            let l2 = (-l1).ln();
            l1 - l2
        } else {
            let p = -(2.0 * (1.0 + std::f64::consts::E * x)).max(0.0).sqrt();
            -1.0 + p - p * p / 3.0
        }
    });
    let mut running = [true; N];
    for _ in 0..50 {
        for k in 0..N {
            if !running[k] {
                continue;
            }
            let ew = w[k].exp();
            let f = w[k] * ew - x[k];
            let w1 = w[k] + 1.0;
            if w1.abs() < 1e-300 {
                running[k] = false;
                continue;
            }
            let denom = ew * w1 - (w[k] + 2.0) * f / (2.0 * w1);
            let delta = f / denom;
            w[k] -= delta;
            if delta.abs() < 1e-14 * (1.0 + w[k].abs()) {
                running[k] = false;
            }
        }
        if !running.contains(&true) {
            break;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_geo::GeoPoint;
    use mood_trace::{Record, Timestamp, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn walk(n: i64) -> Trace {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(
                    GeoPoint::new(46.2, 6.1).unwrap(),
                    Timestamp::from_unix(i * 600),
                )
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    impl GeoI {
        /// Samples a noise radius from the planar Laplace radial
        /// distribution via the exact inverse CDF, one record at a time.
        fn sample_radius(&self, rng: &mut dyn RngCore) -> f64 {
            let p: f64 = rng.gen_range(0.0..1.0);
            let [w] = lambert_w_minus1([(p - 1.0) / std::f64::consts::E]);
            -(w + 1.0) / self.epsilon_per_m
        }

        /// The per-record loop `apply` blocks: the oracle it must equal
        /// record for record and draw for draw.
        fn apply_per_record(&self, trace: &Trace, rng: &mut dyn RngCore, out: &mut Vec<Record>) {
            out.clear();
            for r in trace.records() {
                let theta: f64 = rng.gen_range(0.0..360.0);
                let radius = self.sample_radius(rng);
                let proj = LocalProjection::new(r.point());
                let moved = proj
                    .displace(&r.point(), theta, radius)
                    .expect("sampled radius is non-negative");
                out.push(r.with_point(moved));
            }
        }
    }

    fn scalar_w(x: f64) -> f64 {
        let [w] = lambert_w_minus1([x]);
        w
    }

    /// Asserts every lane of `lambert_w_minus1::<4>` equals the one-lane
    /// solve of its input to the bit, with each input tried in every
    /// lane position next to the other three.
    fn assert_lanes_match_scalar(xs: &[f64]) {
        for (i, &x) in xs.iter().enumerate() {
            for lane in 0..4 {
                let mut block = [0.0; 4];
                for (k, slot) in block.iter_mut().enumerate() {
                    *slot = if k == lane {
                        x
                    } else {
                        xs[(i + 1 + k) % xs.len()]
                    };
                }
                let lanes = lambert_w_minus1(block);
                for (w, x) in lanes.iter().zip(block) {
                    assert_eq!(w.to_bits(), scalar_w(x).to_bits(), "x = {x:e} ({block:?})");
                }
            }
        }
    }

    #[test]
    fn lambert_w_residuals_small() {
        for &x in &[-0.367879, -0.3, -0.2, -0.1, -0.05, -0.01, -1e-4, -1e-8] {
            let w = scalar_w(x);
            let residual = (w * w.exp() - x).abs();
            assert!(residual < 1e-10, "x={x}: w={w}, residual={residual}");
            assert!(w <= -1.0 + 1e-9, "x={x}: w={w} not on lower branch");
        }
    }

    #[test]
    fn lambert_w_branch_point() {
        let w = scalar_w(-1.0 / std::f64::consts::E + 1e-12);
        assert!((w + 1.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    #[should_panic(expected = "W_-1 requires")]
    fn lambert_w_rejects_positive() {
        scalar_w(0.5);
    }

    #[test]
    #[should_panic(expected = "W_-1 requires")]
    fn lambert_w_lanes_reject_any_bad_lane() {
        lambert_w_minus1([-0.1, -0.2, 0.0, -0.3]);
    }

    #[test]
    fn lambert_w_lanes_match_scalar_on_the_domain_edges() {
        let neg_inv_e = -1.0 / std::f64::consts::E;
        let ulps = |x: f64, n: i64| f64::from_bits((x.to_bits() as i64 + n) as u64);
        let mut xs = vec![neg_inv_e, ulps(neg_inv_e, -1), ulps(neg_inv_e, -7)];
        // The initial guess switches formula at -0.25.
        xs.extend((-4..=4).map(|n| ulps(-0.25, n)));
        // Slow (near the branch point) next to fast (far from it).
        xs.extend([-0.367_879, -0.36, -0.3, -0.1, -1e-3, -1e-12]);
        xs.extend([-1e-300, -5e-324, -f64::MIN_POSITIVE]);
        assert_lanes_match_scalar(&xs);
    }

    #[test]
    fn lambert_w_lanes_match_scalar_over_a_sweep() {
        // Every x Geo-I can draw is (p - 1) / e for p in [0, 1).
        let mut rng = StdRng::seed_from_u64(11);
        let xs: Vec<f64> = (0..4_096)
            .map(|_| {
                let p: f64 = rng.gen_range(0.0..1.0);
                (p - 1.0) / std::f64::consts::E
            })
            .collect();
        for block in xs.chunks_exact(4) {
            let lanes = lambert_w_minus1([block[0], block[1], block[2], block[3]]);
            for (w, &x) in lanes.iter().zip(block) {
                assert_eq!(w.to_bits(), scalar_w(x).to_bits(), "x = {x:e}");
            }
        }
    }

    #[test]
    fn blocked_protect_equals_the_per_record_loop() {
        let geo_i = GeoI::paper_default();
        for n in 1..=9 {
            let trace = walk(n);
            for seed in 0..4 {
                let mut blocked_rng = StdRng::seed_from_u64(seed);
                let mut oracle_rng = StdRng::seed_from_u64(seed);
                let mut blocked = vec![trace.records()[0]; 3];
                let mut oracle = Vec::new();
                geo_i.apply(&trace, &mut blocked_rng, &mut blocked);
                geo_i.apply_per_record(&trace, &mut oracle_rng, &mut oracle);
                assert_eq!(blocked.len(), oracle.len());
                for (a, b) in blocked.iter().zip(&oracle) {
                    assert_eq!(a.time(), b.time());
                    assert_eq!(a.point().lat().to_bits(), b.point().lat().to_bits());
                    assert_eq!(a.point().lng().to_bits(), b.point().lng().to_bits());
                }
                // Compositions draw on from where Geo-I left the stream.
                assert_eq!(blocked_rng.next_u64(), oracle_rng.next_u64(), "n = {n}");
            }
        }
    }

    #[test]
    fn geo_i_at_the_poles_returns_valid_points_promptly() {
        // At ±90° a metre east is ~1.4e5 degrees of longitude, which
        // must wrap in constant time, not in ±360° steps.
        for lat in [90.0, -90.0] {
            let records = (0..512)
                .map(|i| Record::new(GeoPoint::new(lat, 6.1).unwrap(), Timestamp::from_unix(i)))
                .collect();
            let trace = Trace::new(UserId::new(1), records).unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            let started = std::time::Instant::now();
            let p = GeoI::paper_default().protect(&trace, &mut rng);
            assert!(started.elapsed() < std::time::Duration::from_secs(1));
            assert_eq!(p.len(), trace.len());
            for q in p.points() {
                assert!((-90.0..=90.0).contains(&q.lat()), "{q}");
                assert!((-180.0..=180.0).contains(&q.lng()), "{q}");
            }
        }
    }

    #[test]
    fn noise_mean_matches_two_over_epsilon() {
        let geo_i = GeoI::new(0.01);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| geo_i.sample_radius(&mut rng)).sum::<f64>() / n as f64;
        // Gamma(2, 1/eps) mean = 2/eps = 200 m
        assert!((mean - 200.0).abs() < 5.0, "mean = {mean}");
    }

    #[test]
    fn displacement_distribution_matches_radial_cdf() {
        // CDF C(r) = 1 - (1 + eps r) e^{-eps r}; check the median.
        let geo_i = GeoI::new(0.01);
        let mut rng = StdRng::seed_from_u64(1);
        let mut radii: Vec<f64> = (0..10_000).map(|_| geo_i.sample_radius(&mut rng)).collect();
        radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = radii[radii.len() / 2];
        // analytic median of Gamma(2, scale=100) ≈ 167.83 m
        assert!((median - 167.8).abs() < 6.0, "median = {median}");
    }

    #[test]
    fn protect_preserves_timestamps_and_count() {
        let t = walk(50);
        let mut rng = StdRng::seed_from_u64(3);
        let p = GeoI::paper_default().protect(&t, &mut rng);
        assert_eq!(p.len(), t.len());
        assert_eq!(p.user(), t.user());
        for (a, b) in t.records().iter().zip(p.records()) {
            assert_eq!(a.time(), b.time());
        }
    }

    #[test]
    fn average_displacement_near_200m() {
        let t = walk(2_000);
        let mut rng = StdRng::seed_from_u64(5);
        let p = GeoI::paper_default().protect(&t, &mut rng);
        let mean: f64 = t
            .records()
            .iter()
            .zip(p.records())
            .map(|(a, b)| a.point().haversine_distance(&b.point()))
            .sum::<f64>()
            / t.len() as f64;
        assert!((mean - 200.0).abs() < 15.0, "mean displacement {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let t = walk(20);
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let g = GeoI::paper_default();
        assert_eq!(g.protect(&t, &mut r1), g.protect(&t, &mut r2));
    }

    #[test]
    fn smaller_epsilon_means_more_noise() {
        let t = walk(500);
        let mean_disp = |eps: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = GeoI::new(eps).protect(&t, &mut rng);
            t.records()
                .iter()
                .zip(p.records())
                .map(|(a, b)| a.point().haversine_distance(&b.point()))
                .sum::<f64>()
                / t.len() as f64
        };
        assert!(mean_disp(0.001, 1) > 4.0 * mean_disp(0.01, 1));
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn rejects_bad_epsilon() {
        GeoI::new(0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// An `x ∈ [−1/e, 0)` from one of four regions: just above the
    /// branch point (slowest to converge), around the −0.25 switch of
    /// the initial guess, log-uniform magnitudes down to subnormals, or
    /// anywhere Geo-I draws from.
    fn arb_x() -> impl Strategy<Value = f64> {
        (0u8..4, 0.0f64..1.0).prop_map(|(region, u)| {
            let neg_inv_e = -1.0 / std::f64::consts::E;
            match region {
                0 => neg_inv_e + u * 1e-6,
                1 => -0.25 + (u - 0.5) * 1e-9,
                2 => -(10f64.powf(-1.0 - 322.0 * u)),
                _ => (u - 1.0) / std::f64::consts::E,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn lanes_are_bit_identical_to_one_lane_solves(
            a in arb_x(),
            b in arb_x(),
            c in arb_x(),
            d in arb_x(),
        ) {
            let xs = [a, b, c, d];
            for (w, x) in lambert_w_minus1(xs).into_iter().zip(xs) {
                let [scalar] = lambert_w_minus1([x]);
                prop_assert_eq!(w.to_bits(), scalar.to_bits(), "x = {:e} in {:?}", x, xs);
            }
        }
    }
}
