use rand::rngs::StdRng;
use rand::Rng;

use mood_geo::{GeoPoint, LocalProjection};
use mood_trace::{Dataset, Record, Timestamp, Trace, UserId};

use crate::plan::DayPlan;
use crate::rngs::{derive, normal};
use crate::DatasetSpec;

/// Seconds in a simulated day.
const DAY_S: i64 = 86_400;

/// RNG stream tags (second argument of [`derive`]); disjoint per purpose
/// so adding streams never perturbs existing ones.
const STREAM_ANCHORS: u64 = 1;
const STREAM_PERSONA: u64 = 2;
const STREAM_DAY: u64 = 3;
const STREAM_HOTSPOTS: u64 = 4;

/// The first twin of a resident population of `users`: users from
/// `round(users × distinct_fraction)` on share their twin group's
/// anchors, and every user before it has anchors of its own.
pub(crate) fn first_twin(users: usize, distinct_fraction: f64) -> usize {
    (users as f64 * distinct_fraction).round() as usize
}

/// Anchor places of a resident (shared verbatim inside a twin group).
#[derive(Debug, Clone)]
struct Anchors {
    home: GeoPoint,
    work: GeoPoint,
    lunch: GeoPoint,
    leisure: Vec<GeoPoint>,
}

/// Behavioural traits of a resident (shared inside a twin group so twins
/// stay confusable).
#[derive(Debug, Clone)]
struct ResidentTraits {
    /// Hour the agent's phone starts recording.
    active_start_h: f64,
    /// Hour recording stops.
    active_end_h: f64,
    /// Hour the commute to work begins.
    work_start_h: f64,
    /// Hour the commute home begins.
    work_end_h: f64,
    /// Probability of a lunch trip on a weekday.
    lunch_prob: f64,
    /// Probability of an evening leisure trip.
    leisure_prob: f64,
    /// Probability a day produces no data at all.
    day_skip_prob: f64,
    /// Travel speed in m/s (mixed walking / transit / driving).
    speed_mps: f64,
}

/// Generator for commuting-resident populations (MDC / Privamov / Geolife
/// stand-ins). See [`crate::PopulationModel::Residents`] for the meaning
/// of the two parameters.
#[derive(Debug, Clone)]
pub struct ResidentModel {
    distinct_fraction: f64,
    twin_group_size: usize,
}

impl ResidentModel {
    /// Creates a resident model.
    ///
    /// # Panics
    ///
    /// Panics when `distinct_fraction ∉ [0, 1]` or `twin_group_size < 2`.
    pub fn new(distinct_fraction: f64, twin_group_size: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&distinct_fraction),
            "distinct_fraction must be in [0, 1]"
        );
        assert!(twin_group_size >= 2, "twin groups need at least 2 members");
        Self {
            distinct_fraction,
            twin_group_size,
        }
    }

    /// Generates the dataset for `spec`.
    pub fn generate(&self, spec: &DatasetSpec) -> Dataset {
        let mut traces = Vec::with_capacity(spec.users);
        self.for_each_user(spec, &mut |user, records| {
            traces.push(Trace::new(user, records).expect("non-empty records"));
        });
        Dataset::from_traces(traces).expect("user ids unique by construction")
    }

    /// Simulates every user in id order, handing each non-empty record
    /// vector (time-sorted) to `sink`. This is the core of
    /// [`ResidentModel::generate`].
    fn for_each_user(&self, spec: &DatasetSpec, sink: &mut dyn FnMut(UserId, Vec<Record>)) {
        let n = spec.users;
        let n_distinct = first_twin(n, self.distinct_fraction);

        // Anchor assignment: distinct users get their own anchor set;
        // the rest share a set per twin group (with small per-member
        // offsets applied below).
        let mut group_anchor_cache: Vec<Anchors> = Vec::new();
        let mut group_trait_cache: Vec<ResidentTraits> = Vec::new();

        for user_idx in 0..n {
            let (anchors, traits) = if user_idx < n_distinct {
                let mut rng = derive(spec.seed, STREAM_ANCHORS, user_idx as u64);
                (
                    Self::sample_anchors(spec, &mut rng),
                    Self::sample_traits(&mut derive(spec.seed, STREAM_PERSONA, user_idx as u64)),
                )
            } else {
                let group = (user_idx - n_distinct) / self.twin_group_size;
                while group_anchor_cache.len() <= group {
                    let g = group_anchor_cache.len() as u64;
                    let mut rng = derive(spec.seed, STREAM_ANCHORS, 1_000_000 + g);
                    group_anchor_cache.push(Self::sample_anchors(spec, &mut rng));
                    group_trait_cache.push(Self::sample_traits(&mut derive(
                        spec.seed,
                        STREAM_PERSONA,
                        1_000_000 + g,
                    )));
                }
                // Twins share anchors verbatim — that is what makes them
                // mutually confusable for profile-based attacks.
                (
                    group_anchor_cache[group].clone(),
                    group_trait_cache[group].clone(),
                )
            };

            let records = self.simulate_user(spec, user_idx, &anchors, &traits);
            if !records.is_empty() {
                sink(UserId::new(user_idx as u64), records);
            }
        }
    }

    /// Samples a fresh anchor set: home anywhere in the inner city, work
    /// at least 1.5 km away, lunch near work, two leisure places.
    fn sample_anchors(spec: &DatasetSpec, rng: &mut StdRng) -> Anchors {
        let bbox = spec.city.bbox();
        let sample_point = |rng: &mut StdRng| {
            bbox.point_at_fraction(rng.gen_range(0.08..0.92), rng.gen_range(0.08..0.92))
        };
        let home = sample_point(rng);
        let work = loop {
            let w = sample_point(rng);
            if home.approx_distance(&w) > 1_500.0 {
                break w;
            }
        };
        let proj = LocalProjection::new(work);
        let lunch = proj
            .displace(
                &work,
                rng.gen_range(0.0..360.0),
                rng.gen_range(200.0..500.0),
            )
            .expect("non-negative distance");
        let leisure = (0..2).map(|_| sample_point(rng)).collect();
        Anchors {
            home,
            work,
            lunch,
            leisure,
        }
    }

    /// Daily variation of the anchors (parking spot, building entrance):
    /// every agent-day displaces each anchor by a fresh ~45 m offset.
    ///
    /// This jitter is what keeps twin groups confusable: twins share the
    /// *same* base anchors, and because the day-level offsets do not
    /// average out below the offset scale within 15 days, a twin's
    /// learned POI centroids are as close to their twins' as to their
    /// own.
    fn day_anchors(base: &Anchors, rng: &mut StdRng) -> Anchors {
        let mut jitter = |p: &GeoPoint| {
            let proj = LocalProjection::new(*p);
            let (dx, dy) = (normal(rng, 0.0, 45.0), normal(rng, 0.0, 45.0));
            proj.to_geo(dx, dy)
        };
        Anchors {
            home: jitter(&base.home),
            work: jitter(&base.work),
            lunch: jitter(&base.lunch),
            leisure: base.leisure.iter().map(&mut jitter).collect(),
        }
    }

    fn sample_traits(rng: &mut StdRng) -> ResidentTraits {
        ResidentTraits {
            active_start_h: normal(rng, 7.0, 0.4).clamp(5.5, 8.5),
            active_end_h: normal(rng, 23.0, 0.4).clamp(21.5, 24.0),
            work_start_h: normal(rng, 8.5, 0.5).clamp(6.5, 10.5),
            work_end_h: normal(rng, 17.5, 0.5).clamp(15.5, 20.0),
            lunch_prob: rng.gen_range(0.1..0.5),
            leisure_prob: rng.gen_range(0.3..0.7),
            day_skip_prob: rng.gen_range(0.05..0.15),
            speed_mps: rng.gen_range(6.0..12.0),
        }
    }

    fn simulate_user(
        &self,
        spec: &DatasetSpec,
        user_idx: usize,
        anchors: &Anchors,
        traits: &ResidentTraits,
    ) -> Vec<Record> {
        let mut records = Vec::new();
        for day in 0..spec.days {
            let mut rng = derive(spec.seed, STREAM_DAY, (user_idx as u64) << 16 | day as u64);
            if rng.gen::<f64>() < traits.day_skip_prob {
                continue;
            }
            let today = Self::day_anchors(anchors, &mut rng);
            let weekend = day % 7 >= 5;
            let plan = if weekend {
                Self::weekend_plan(&today, traits, &mut rng)
            } else {
                Self::weekday_plan(&today, traits, &mut rng)
            };
            sample_plan(
                &plan,
                day as i64 * DAY_S,
                spec.sampling_interval_s,
                spec.gps_noise_m,
                &mut rng,
                &mut records,
            );
        }
        records
    }

    fn weekday_plan(anchors: &Anchors, traits: &ResidentTraits, rng: &mut StdRng) -> DayPlan {
        let mut plan = DayPlan::new();
        let h = |hours: f64| (hours * 3600.0) as i64;
        let start = h(traits.active_start_h + normal(rng, 0.0, 0.1));
        let end = h(traits.active_end_h + normal(rng, 0.0, 0.1));
        let depart = h(traits.work_start_h + normal(rng, 0.0, 0.25));
        let commute = travel_time(&anchors.home, &anchors.work, traits.speed_mps);
        let work_leave = h(traits.work_end_h + normal(rng, 0.0, 0.25));

        plan.dwell(anchors.home, start, depart);
        plan.travel(anchors.home, anchors.work, depart, depart + commute);

        let mut at_work_from = depart + commute;
        if rng.gen::<f64>() < traits.lunch_prob {
            let lunch_out = h(12.0 + normal(rng, 0.0, 0.2));
            if lunch_out > at_work_from + 600 {
                let walk = travel_time(&anchors.work, &anchors.lunch, 1.4);
                plan.dwell(anchors.work, at_work_from, lunch_out);
                plan.travel(anchors.work, anchors.lunch, lunch_out, lunch_out + walk);
                let lunch_end = lunch_out + walk + 2_400;
                plan.dwell(anchors.lunch, lunch_out + walk, lunch_end);
                plan.travel(anchors.lunch, anchors.work, lunch_end, lunch_end + walk);
                at_work_from = lunch_end + walk;
            }
        }
        plan.dwell(anchors.work, at_work_from, work_leave);

        let mut position = anchors.work;
        let mut t = work_leave;
        if rng.gen::<f64>() < traits.leisure_prob && !anchors.leisure.is_empty() {
            let spot = anchors.leisure[rng.gen_range(0..anchors.leisure.len())];
            let leg = travel_time(&position, &spot, traits.speed_mps);
            plan.travel(position, spot, t, t + leg);
            let stay = (rng.gen_range(1.0..2.5) * 3600.0) as i64;
            plan.dwell(spot, t + leg, t + leg + stay);
            position = spot;
            t = t + leg + stay;
        }
        let leg_home = travel_time(&position, &anchors.home, traits.speed_mps);
        plan.travel(position, anchors.home, t, t + leg_home);
        plan.dwell(anchors.home, t + leg_home, end.max(t + leg_home + 600));
        plan
    }

    fn weekend_plan(anchors: &Anchors, traits: &ResidentTraits, rng: &mut StdRng) -> DayPlan {
        let mut plan = DayPlan::new();
        let h = |hours: f64| (hours * 3600.0) as i64;
        let start = h(traits.active_start_h + normal(rng, 0.0, 0.3) + 1.0);
        let end = h(traits.active_end_h + normal(rng, 0.0, 0.2));
        let mut position = anchors.home;
        let mut t = start;
        let outings = if anchors.leisure.is_empty() {
            0
        } else {
            rng.gen_range(0..=2)
        };
        // morning at home
        let first_out = h(rng.gen_range(9.5..11.5));
        plan.dwell(anchors.home, t, first_out);
        t = first_out;
        for _ in 0..outings {
            let spot = anchors.leisure[rng.gen_range(0..anchors.leisure.len())];
            let leg = travel_time(&position, &spot, traits.speed_mps);
            plan.travel(position, spot, t, t + leg);
            let stay = (rng.gen_range(1.5..3.0) * 3600.0) as i64;
            plan.dwell(spot, t + leg, t + leg + stay);
            position = spot;
            t = t + leg + stay;
        }
        let leg_home = travel_time(&position, &anchors.home, traits.speed_mps);
        plan.travel(position, anchors.home, t, t + leg_home);
        plan.dwell(anchors.home, t + leg_home, end.max(t + leg_home + 600));
        plan
    }
}

/// Generator for taxi-fleet populations (Cabspotting stand-in). All
/// drivers sample fares from one shared weighted hotspot pool; a
/// configurable fraction is additionally biased toward the hotspots
/// nearest its depot, which makes those drivers' heatmaps distinctive.
#[derive(Debug, Clone)]
pub struct TaxiModel {
    biased_fraction: f64,
    hotspot_count: usize,
}

impl TaxiModel {
    /// Creates a taxi model.
    ///
    /// # Panics
    ///
    /// Panics when `biased_fraction ∉ [0, 1]` or `hotspot_count < 4`.
    pub fn new(biased_fraction: f64, hotspot_count: usize) -> Self {
        assert!(
            (0.0..=1.0).contains(&biased_fraction),
            "biased_fraction must be in [0, 1]"
        );
        assert!(hotspot_count >= 4, "need at least 4 hotspots");
        Self {
            biased_fraction,
            hotspot_count,
        }
    }

    /// Generates the dataset for `spec`.
    pub fn generate(&self, spec: &DatasetSpec) -> Dataset {
        let mut traces = Vec::with_capacity(spec.users);
        self.for_each_user(spec, &mut |user, records| {
            traces.push(Trace::new(user, records).expect("non-empty records"));
        });
        Dataset::from_traces(traces).expect("user ids unique by construction")
    }

    /// Simulates every driver in id order, handing each non-empty record
    /// vector (time-sorted) to `sink`. This is the core of
    /// [`TaxiModel::generate`].
    fn for_each_user(&self, spec: &DatasetSpec, sink: &mut dyn FnMut(UserId, Vec<Record>)) {
        let bbox = spec.city.bbox();
        // Shared hotspot pool with zipf-ish weights.
        let mut pool_rng = derive(spec.seed, STREAM_HOTSPOTS, 0);
        let hotspots: Vec<GeoPoint> = (0..self.hotspot_count)
            .map(|_| {
                bbox.point_at_fraction(
                    pool_rng.gen_range(0.05..0.95),
                    pool_rng.gen_range(0.05..0.95),
                )
            })
            .collect();
        let weights: Vec<f64> = (0..self.hotspot_count)
            .map(|k| 1.0 / (k as f64 + 1.0).powf(0.7))
            .collect();

        let n = spec.users;
        let n_biased = (n as f64 * self.biased_fraction).round() as usize;
        for user_idx in 0..n {
            let mut persona_rng = derive(spec.seed, STREAM_PERSONA, user_idx as u64);
            let shift_start_h: f64 = normal(&mut persona_rng, 8.0, 2.5).clamp(0.0, 13.0);
            let shift_len_h: f64 = persona_rng.gen_range(8.0..11.0);
            let day_skip: f64 = persona_rng.gen_range(0.05..0.15);
            // Biased drivers prefer the hotspots nearest a random
            // cruising anchor — a *neighbourhood*-level signature. The
            // triple's hotspots sit a few km apart: distinct 800 m cells
            // (so AP-Attack can fingerprint the driver on raw data) but
            // close enough that TRL's 1 km smearing blends the
            // neighbourhood into its surroundings, reproducing the
            // paper's TRL-beats-HMC crossover on the taxi fleet.
            // Unbiased drivers all sample the same global pool and stay
            // interchangeable.
            let bias = if user_idx < n_biased {
                let anchor = bbox.point_at_fraction(
                    persona_rng.gen_range(0.1..0.9),
                    persona_rng.gen_range(0.1..0.9),
                );
                let mut by_dist: Vec<usize> = (0..hotspots.len()).collect();
                by_dist.sort_by(|&a, &b| {
                    anchor
                        .approx_distance(&hotspots[a])
                        .partial_cmp(&anchor.approx_distance(&hotspots[b]))
                        .expect("distances are finite")
                });
                Some((by_dist[..3].to_vec(), persona_rng.gen_range(0.65..0.9)))
            } else {
                None
            };

            let mut records = Vec::new();
            for day in 0..spec.days {
                let mut rng = derive(spec.seed, STREAM_DAY, (user_idx as u64) << 16 | day as u64);
                if rng.gen::<f64>() < day_skip {
                    continue;
                }
                let plan = Self::shift_plan(
                    &hotspots,
                    &weights,
                    bias.as_ref(),
                    shift_start_h,
                    shift_len_h,
                    &mut rng,
                );
                sample_plan(
                    &plan,
                    day as i64 * DAY_S,
                    spec.sampling_interval_s,
                    spec.gps_noise_m,
                    &mut rng,
                    &mut records,
                );
            }
            if !records.is_empty() {
                sink(UserId::new(user_idx as u64), records);
            }
        }
    }

    fn pick_hotspot(
        hotspots: &[GeoPoint],
        weights: &[f64],
        bias: Option<&(Vec<usize>, f64)>,
        rng: &mut StdRng,
    ) -> GeoPoint {
        if let Some((preferred, p)) = bias {
            if rng.gen::<f64>() < *p {
                return hotspots[preferred[rng.gen_range(0..preferred.len())]];
            }
        }
        // weighted sample from the global pool
        let total: f64 = weights.iter().sum();
        let mut x = rng.gen::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return hotspots[i];
            }
        }
        hotspots[hotspots.len() - 1]
    }

    /// One shift: recording runs from the first pickup to the last
    /// dropoff (fare-based recording, like Cabspotting's meters) — no
    /// depot appears in the trace, so drivers carry no trivial home-base
    /// fingerprint.
    fn shift_plan(
        hotspots: &[GeoPoint],
        weights: &[f64],
        bias: Option<&(Vec<usize>, f64)>,
        shift_start_h: f64,
        shift_len_h: f64,
        rng: &mut StdRng,
    ) -> DayPlan {
        const TAXI_SPEED: f64 = 9.0; // m/s ≈ 32 km/h urban average
        let mut plan = DayPlan::new();
        let start = ((shift_start_h + normal(rng, 0.0, 0.3)).clamp(0.0, 14.0) * 3600.0) as i64;
        let end = start + (shift_len_h * 3600.0) as i64;
        let mut t = start;
        let mut position = Self::pick_hotspot(hotspots, weights, bias, rng);
        while t < end {
            let pickup = Self::pick_hotspot(hotspots, weights, bias, rng);
            let deadhead = travel_time(&position, &pickup, TAXI_SPEED);
            plan.travel(position, pickup, t, t + deadhead);
            t += deadhead;
            let wait: i64 = rng.gen_range(120..360);
            plan.dwell(pickup, t, t + wait);
            t += wait;
            let dropoff = Self::pick_hotspot(hotspots, weights, bias, rng);
            let ride = travel_time(&pickup, &dropoff, TAXI_SPEED);
            plan.travel(pickup, dropoff, t, t + ride);
            t += ride;
            let idle: i64 = rng.gen_range(300..900);
            plan.dwell(dropoff, t, t + idle);
            t += idle;
            position = dropoff;
        }
        plan
    }
}

/// Travel time in seconds between two points at `speed_mps`, minimum 60 s.
fn travel_time(from: &GeoPoint, to: &GeoPoint, speed_mps: f64) -> i64 {
    ((from.approx_distance(to) / speed_mps) as i64).max(60)
}

/// Samples GPS records from `plan` every `interval_s` seconds, adding
/// per-axis gaussian noise of `noise_m` meters and a 3 % per-record
/// dropout; appends to `out` with timestamps offset by `day_offset_s`.
fn sample_plan(
    plan: &DayPlan,
    day_offset_s: i64,
    interval_s: i64,
    noise_m: f64,
    rng: &mut StdRng,
    out: &mut Vec<Record>,
) {
    let (Some(start), Some(end)) = (plan.start_s(), plan.end_s()) else {
        return;
    };
    // Random phase so records of different users don't align.
    let mut t = start + rng.gen_range(0..interval_s.max(1));
    while t < end {
        if let Some(p) = plan.position_at(t) {
            if rng.gen::<f64>() >= 0.03 {
                let noisy = if noise_m > 0.0 {
                    let proj = LocalProjection::new(p);
                    proj.to_geo(normal(rng, 0.0, noise_m), normal(rng, 0.0, noise_m))
                } else {
                    p
                };
                out.push(Record::new(noisy, Timestamp::from_unix(day_offset_s + t)));
            }
        }
        t += interval_s.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use mood_trace::TimeDelta;

    #[test]
    fn resident_dataset_is_deterministic() {
        let spec = presets::mdc_like().scaled(0.05);
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn taxi_dataset_is_deterministic() {
        let spec = presets::cabspotting_like().scaled(0.02);
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn different_seeds_differ() {
        let spec = presets::mdc_like().scaled(0.05);
        let mut other = spec.clone();
        other.seed = spec.seed + 1;
        assert_ne!(spec.generate(), other.generate());
    }

    #[test]
    fn records_stay_near_city() {
        let spec = presets::privamov_like().scaled(0.1);
        let ds = spec.generate();
        // GPS noise can push a little outside the box; 2 km margin
        let expanded = spec.city.bbox().expanded(2_000.0).unwrap();
        for trace in ds.iter() {
            for r in trace.records() {
                assert!(expanded.contains(&r.point()), "record off-map: {r}");
            }
        }
    }

    #[test]
    fn traces_span_the_simulated_month() {
        let spec = presets::mdc_like().scaled(0.05);
        let ds = spec.generate();
        for trace in ds.iter() {
            assert!(trace.duration() > TimeDelta::from_days(20));
            assert!(trace.duration() <= TimeDelta::from_days(spec.days as i64));
        }
    }

    #[test]
    fn expected_record_volume() {
        let spec = presets::mdc_like().scaled(0.1);
        let ds = spec.generate();
        // ~16 active hours / interval, x days, x users, minus skips.
        let per_day = 16.0 * 3600.0 / spec.sampling_interval_s as f64;
        let upper = spec.users as f64 * spec.days as f64 * per_day * 1.3;
        let lower = spec.users as f64 * spec.days as f64 * per_day * 0.3;
        let got = ds.record_count() as f64;
        assert!(
            got > lower && got < upper,
            "volume {got}, [{lower}, {upper}]"
        );
    }

    #[test]
    fn residents_dwell_at_home_and_work() {
        use mood_models_free::count_stationary_runs;
        let spec = presets::privamov_like().scaled(0.1);
        let ds = spec.generate();
        let trace = ds.iter().next().unwrap();
        // at least a handful of long stationary runs (home/work dwells)
        assert!(count_stationary_runs(trace, 150.0, 10) >= 4);
    }

    #[test]
    fn taxis_move_most_of_the_time() {
        use mood_models_free::count_stationary_runs;
        let spec = presets::cabspotting_like().scaled(0.02);
        let ds = spec.generate();
        let trace = ds.iter().next().unwrap();
        let runs = count_stationary_runs(trace, 150.0, 10);
        // fares keep cabs moving: long stationary runs are rare relative
        // to trace length
        assert!(
            (runs as f64) < trace.len() as f64 / 50.0,
            "{runs} stationary runs in {} records",
            trace.len()
        );
    }

    #[test]
    fn twin_groups_share_neighbourhoods() {
        // With 0 distinct users everyone is a twin; group anchors shared.
        let mut spec = presets::mdc_like().scaled(0.06);
        if let crate::PopulationModel::Residents {
            distinct_fraction, ..
        } = &mut spec.population
        {
            *distinct_fraction = 0.0;
        }
        let ds = spec.generate();
        let traces: Vec<&Trace> = ds.iter().collect();
        // users 0..k in the same group: their bounding boxes overlap
        let a = traces[0].bounding_box();
        let b = traces[1].bounding_box();
        let center_dist = a.center().approx_distance(&b.center());
        assert!(center_dist < 3_000.0, "twin centers {center_dist} m apart");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[test]
            fn any_seed_produces_wellformed_resident_data(seed in 0u64..1000) {
                let mut spec = presets::privamov_like().scaled(0.1);
                spec.seed = seed;
                let ds = spec.generate();
                prop_assert!(ds.user_count() > 0);
                let margin = spec.city.bbox().expanded(2_000.0).unwrap();
                for trace in ds.iter() {
                    // time-sorted by construction; spatially within city
                    for r in trace.records() {
                        prop_assert!(margin.contains(&r.point()));
                    }
                    prop_assert!(trace.duration() <= TimeDelta::from_days(spec.days as i64));
                }
            }

            #[test]
            fn any_seed_produces_wellformed_taxi_data(seed in 0u64..1000) {
                let mut spec = presets::cabspotting_like().scaled(0.015);
                spec.seed = seed;
                let ds = spec.generate();
                prop_assert!(ds.user_count() > 0);
                let margin = spec.city.bbox().expanded(2_000.0).unwrap();
                for trace in ds.iter() {
                    for r in trace.records() {
                        prop_assert!(margin.contains(&r.point()));
                    }
                }
            }
        }
    }

    /// tiny helpers usable without the models crate (avoids a dev-dep
    /// cycle)
    mod mood_models_free {
        use mood_trace::Trace;

        /// Counts maximal runs of >= `min_len` consecutive records that
        /// stay within `radius_m` of the run's first record.
        pub fn count_stationary_runs(trace: &Trace, radius_m: f64, min_len: usize) -> usize {
            let rs = trace.records();
            let mut runs = 0;
            let mut i = 0;
            while i < rs.len() {
                let origin = rs[i].point();
                let mut j = i + 1;
                while j < rs.len() && origin.approx_distance(&rs[j].point()) <= radius_m {
                    j += 1;
                }
                if j - i >= min_len {
                    runs += 1;
                }
                i = j.max(i + 1);
            }
            runs
        }
    }
}
