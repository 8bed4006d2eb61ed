use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use mood_exec::{map_indexed, Executor, SequentialExecutor};
use mood_trace::{Dataset, Trace, TraceStore, UserId};

use crate::{Attack, AttackScratch, ProfileStore, TrainedAttack};

/// A set of trained attacks — the virtual adversary MooD defends against
/// (paper §4.4 uses m = 3 attacks at once).
///
/// # Examples
///
/// ```
/// use mood_attacks::{ApAttack, PitAttack, PoiAttack, Attack, AttackSuite};
/// use mood_synth::presets;
/// use mood_trace::TimeDelta;
///
/// let ds = presets::privamov_like().scaled(0.15).generate();
/// let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
/// let suite = AttackSuite::train(
///     &[
///         &PoiAttack::paper_default() as &dyn Attack,
///         &PitAttack::paper_default(),
///         &ApAttack::paper_default(),
///     ],
///     &train,
/// );
/// assert_eq!(suite.len(), 3);
/// let victim = test.iter().next().unwrap();
/// let _ = suite.first_reidentifying(victim, victim.user());
/// ```
pub struct AttackSuite {
    attacks: Vec<Box<dyn TrainedAttack>>,
}

impl AttackSuite {
    /// Trains every attack on the same background knowledge.
    ///
    /// The attacks share one private [`ProfileStore`] for the pass, so
    /// models common to several attacks (POI-Attack and PIT-Attack both
    /// extract the same POI profiles under the paper's extractor) are
    /// built once — byte-identical to independent training by the
    /// store's verified-hit contract.
    ///
    /// # Panics
    ///
    /// Panics when `attacks` is empty or `background` is empty.
    pub fn train(attacks: &[&dyn Attack], background: &Dataset) -> Self {
        Self::train_with_store(attacks, background, &ProfileStore::new())
    }

    /// [`AttackSuite::train`] through a caller-owned [`ProfileStore`]:
    /// profile sets already interned for this background are reused, so
    /// a second suite/tenant over the same dataset trains with **zero**
    /// additional profile builds (the store's counters prove it).
    ///
    /// # Panics
    ///
    /// Panics when `attacks` is empty or `background` is empty.
    pub fn train_with_store(
        attacks: &[&dyn Attack],
        background: &Dataset,
        store: &ProfileStore,
    ) -> Self {
        assert!(
            !attacks.is_empty(),
            "attack suite needs at least one attack"
        );
        Self {
            attacks: attacks
                .iter()
                .map(|a| a.train_with(background, store))
                .collect(),
        }
    }

    /// Wraps already-trained attacks.
    pub fn from_trained(attacks: Vec<Box<dyn TrainedAttack>>) -> Self {
        assert!(
            !attacks.is_empty(),
            "attack suite needs at least one attack"
        );
        Self { attacks }
    }

    /// The trained attacks.
    pub fn attacks(&self) -> &[Box<dyn TrainedAttack>] {
        &self.attacks
    }

    /// Number of attacks in the suite.
    pub fn len(&self) -> usize {
        self.attacks.len()
    }

    /// `false`: suites are never empty (checked at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The name of the first attack that re-identifies `trace` as
    /// `true_user`, or `None` when every attack fails — i.e. the trace is
    /// protected in the sense of the paper's Eq. 5/6.
    ///
    /// Attacks run in order and evaluation short-circuits on the first
    /// success (matching Algorithm 1's `while Ak(T') != U` loop). This
    /// allocating form goes through [`TrainedAttack::re_identifies`]
    /// (full `predict` arg-min) and is the reference the scratch path
    /// ([`AttackSuite::protects_with`]) is tested against.
    pub fn first_reidentifying(&self, trace: &Trace, true_user: UserId) -> Option<&'static str> {
        self.attacks
            .iter()
            .find(|a| a.re_identifies(trace, true_user))
            .map(|a| a.name())
    }

    /// `true` when no attack in the suite links `trace` to `true_user`.
    pub fn protects(&self, trace: &Trace, true_user: UserId) -> bool {
        self.first_reidentifying(trace, true_user).is_none()
    }

    /// [`AttackSuite::protects`] on a leased scratch — the candidate hot
    /// path's verdict. Every attack runs its scratch-aware inference
    /// ([`TrainedAttack::reidentify_with`]), sharing the scratch's
    /// feature buffers and POI-profile cache. Same order, same
    /// short-circuit, and — by the `reidentify_with` contract — exactly
    /// the same verdict as the allocating form.
    pub fn protects_with(
        &self,
        trace: &Trace,
        true_user: UserId,
        scratch: &mut AttackScratch,
    ) -> bool {
        let protects = !self
            .attacks
            .iter()
            .any(|a| a.reidentify_with(trace, true_user, scratch));
        scratch.mark_used();
        protects
    }

    /// Evaluates a whole (possibly obfuscated) dataset: each trace is
    /// attacked under its recorded user as ground truth.
    ///
    /// Runs inline on the calling thread; [`AttackSuite::evaluate_with`]
    /// fans the traces out over an executor and produces the identical
    /// result.
    pub fn evaluate(&self, dataset: &Dataset) -> DatasetEvaluation {
        self.evaluate_with(dataset, &SequentialExecutor)
    }

    /// [`AttackSuite::evaluate`], with traces fanned out over
    /// `executor` — the inner loop of every benchmark figure, made
    /// index-parallel.
    ///
    /// Verdicts come back **by submission index**, which makes the
    /// result — including the order of
    /// [`DatasetEvaluation::non_protected_users`] — byte-identical to
    /// the sequential reference for every backend and thread count.
    pub fn evaluate_with(&self, dataset: &Dataset, executor: &dyn Executor) -> DatasetEvaluation {
        let traces: Vec<&Trace> = dataset.iter().collect();
        self.evaluate_indexed(
            dataset.user_count(),
            dataset.record_count(),
            |i| traces[i],
            executor,
        )
    }

    /// [`AttackSuite::evaluate_with`] over a compressed
    /// [`TraceStore`]: workers decode each trace through the store's
    /// byte-budgeted cache on demand, so the decoded working set stays
    /// bounded however large the corpus is. The result — including the
    /// order of [`DatasetEvaluation::non_protected_users`] — is
    /// byte-identical to evaluating the decoded form in memory, for
    /// every backend and thread count (decoding is pure, so cache
    /// timing cannot leak into verdicts).
    ///
    /// # Panics
    ///
    /// Panics when the store is unfinished.
    pub fn evaluate_store_with(
        &self,
        store: &TraceStore,
        executor: &dyn Executor,
    ) -> DatasetEvaluation {
        let users = store.user_ids();
        self.evaluate_indexed(
            store.user_count(),
            store.record_count(),
            |i| store.trace(users[i]),
            executor,
        )
    }

    /// The shared evaluation core: `n` traces fetched by `get` (either
    /// borrowed from a dataset or `Arc`s from a store's decode cache),
    /// fanned out over `executor`, one verdict per trace in submission
    /// order.
    ///
    /// Each task leases an [`AttackScratch`] from a free list local to
    /// the call, so per-trace features build into reusable buffers
    /// across the whole evaluation, and counts per-attack hits in
    /// atomics, whose sums do not depend on scheduling.
    fn evaluate_indexed<H, G>(
        &self,
        users_total: usize,
        records_total: usize,
        get: G,
        executor: &dyn Executor,
    ) -> DatasetEvaluation
    where
        H: std::ops::Deref<Target = Trace>,
        G: Fn(usize) -> H + Sync,
    {
        let free: Mutex<Vec<AttackScratch>> = Mutex::new(Vec::new());
        let per_attack_hits: Vec<AtomicUsize> =
            self.attacks.iter().map(|_| AtomicUsize::new(0)).collect();
        let verdicts = map_indexed(executor, users_total, |i| {
            let trace = get(i);
            let mut scratch = free
                .lock()
                .expect("scratch free list")
                .pop()
                .unwrap_or_default();
            let mut hit = false;
            for (a, hits) in self.attacks.iter().zip(&per_attack_hits) {
                if a.reidentify_with(&trace, trace.user(), &mut scratch) {
                    hits.fetch_add(1, Ordering::Relaxed);
                    hit = true;
                }
            }
            free.lock().expect("scratch free list").push(scratch);
            hit.then(|| (trace.user(), trace.len()))
        });

        let mut non_protected = Vec::new();
        let mut lost_records = 0usize;
        for (user, records) in verdicts.into_iter().flatten() {
            non_protected.push(user);
            lost_records += records;
        }
        // Summed (not overwritten) per name, so attacks sharing a name
        // pool their counts exactly like the sequential loop did.
        let mut per_attack: BTreeMap<String, usize> = BTreeMap::new();
        for a in &self.attacks {
            per_attack.insert(a.name().to_string(), 0);
        }
        for (a, hits) in self.attacks.iter().zip(per_attack_hits) {
            *per_attack.get_mut(a.name()).expect("pre-seeded") += hits.into_inner();
        }
        DatasetEvaluation {
            users_total,
            records_total,
            non_protected_users: non_protected,
            lost_records,
            re_identified_per_attack: per_attack,
        }
    }
}

/// Result of running an [`AttackSuite`] over a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetEvaluation {
    /// Users in the evaluated dataset.
    pub users_total: usize,
    /// Records in the evaluated dataset.
    pub records_total: usize,
    /// Users re-identified by **at least one** attack (the paper's
    /// non-protected users).
    pub non_protected_users: Vec<UserId>,
    /// Records belonging to non-protected users (`|D_NP|_r`, Eq. 7).
    pub lost_records: usize,
    /// Per-attack re-identification counts (an attack may re-identify a
    /// user another attack misses).
    pub re_identified_per_attack: BTreeMap<String, usize>,
}

impl DatasetEvaluation {
    /// Number of non-protected users.
    pub fn non_protected_count(&self) -> usize {
        self.non_protected_users.len()
    }

    /// Share of non-protected users in `[0, 1]`.
    pub fn non_protected_ratio(&self) -> f64 {
        if self.users_total == 0 {
            0.0
        } else {
            self.non_protected_users.len() as f64 / self.users_total as f64
        }
    }

    /// Data-loss ratio (Eq. 7): records of non-protected users over total
    /// records.
    pub fn data_loss_ratio(&self) -> f64 {
        if self.records_total == 0 {
            0.0
        } else {
            self.lost_records as f64 / self.records_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApAttack, PitAttack, PoiAttack};
    use mood_geo::GeoPoint;
    use mood_trace::{Record, TimeDelta, Timestamp};

    fn rec(lat: f64, lng: f64, t: i64) -> Record {
        Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t))
    }

    fn dwell_trace(user: u64, lat: f64, lng: f64, t0: i64) -> Trace {
        let records: Vec<Record> = (0..48).map(|i| rec(lat, lng, t0 + i * 600)).collect();
        Trace::new(UserId::new(user), records).unwrap()
    }

    fn background() -> Dataset {
        Dataset::from_traces([
            dwell_trace(1, 46.16, 6.06, 0),
            dwell_trace(2, 46.25, 6.20, 0),
        ])
        .unwrap()
    }

    fn full_suite(bg: &Dataset) -> AttackSuite {
        AttackSuite::train(
            &[
                &PoiAttack::paper_default() as &dyn Attack,
                &PitAttack::paper_default(),
                &ApAttack::paper_default(),
            ],
            bg,
        )
    }

    #[test]
    fn suite_trains_all_attacks() {
        let suite = full_suite(&background());
        assert_eq!(suite.len(), 3);
        let names: Vec<&str> = suite.attacks().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["POI-Attack", "PIT-Attack", "AP-Attack"]);
    }

    #[test]
    fn first_reidentifying_returns_attack_name() {
        let suite = full_suite(&background());
        let anon = dwell_trace(1, 46.1601, 6.0601, 1_000_000);
        let name = suite.first_reidentifying(&anon, UserId::new(1));
        assert!(name.is_some());
        assert!(!suite.protects(&anon, UserId::new(1)));
    }

    #[test]
    fn protects_when_trace_matches_other_user() {
        let suite = full_suite(&background());
        // user 1's trace placed at user 2's home: every attack points at 2
        let anon = dwell_trace(1, 46.2501, 6.2001, 1_000_000);
        assert!(suite.protects(&anon, UserId::new(1)));
    }

    #[test]
    fn evaluate_counts_users_and_records() {
        let suite = full_suite(&background());
        let test = Dataset::from_traces([
            dwell_trace(1, 46.1601, 6.0601, 1_000_000), // re-identified
            dwell_trace(2, 46.1601, 6.0601, 1_000_000), // points at user 1 -> protected
        ])
        .unwrap();
        let eval = suite.evaluate(&test);
        assert_eq!(eval.users_total, 2);
        assert_eq!(eval.non_protected_count(), 1);
        assert_eq!(eval.non_protected_users, vec![UserId::new(1)]);
        assert_eq!(eval.lost_records, 48);
        assert!((eval.data_loss_ratio() - 0.5).abs() < 1e-12);
        assert!((eval.non_protected_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one attack")]
    fn empty_suite_rejected() {
        AttackSuite::train(&[], &background());
    }

    #[test]
    fn parallel_evaluation_is_byte_identical_to_sequential() {
        use mood_exec::ExecutorKind;
        use mood_synth::presets;
        let ds = presets::privamov_like().scaled(0.2).generate();
        let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
        let suite = full_suite(&train);
        let reference = suite.evaluate(&test);
        for kind in ExecutorKind::all() {
            for threads in [1usize, 2, 8] {
                let executor = kind.build(threads);
                let eval = suite.evaluate_with(&test, executor.as_ref());
                assert_eq!(eval, reference, "{kind} x{threads} diverged");
                // order of non-protected users is part of the contract
                assert_eq!(eval.non_protected_users, reference.non_protected_users);
            }
        }
    }

    #[test]
    fn store_backed_evaluation_is_byte_identical() {
        use mood_exec::ExecutorKind;
        use mood_synth::presets;
        use mood_trace::StoreConfig;
        let ds = presets::privamov_like().scaled(0.2).generate();
        let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
        let suite = full_suite(&train);
        let reference = suite.evaluate(&test);
        // A budget fitting only ~2 decoded traces: eviction churn is
        // constant, verdicts must not care.
        let max_trace_bytes = test
            .iter()
            .map(|t| t.len() * std::mem::size_of::<Record>())
            .max()
            .unwrap();
        let config = StoreConfig::default()
            .with_seal_records(64)
            .with_cache_budget(2 * max_trace_bytes);
        let store = mood_trace::TraceStore::from_dataset(&test, config);
        for kind in ExecutorKind::all() {
            for threads in [1usize, 2, 8] {
                let executor = kind.build(threads);
                let eval = suite.evaluate_store_with(&store, executor.as_ref());
                assert_eq!(eval, reference, "{kind} x{threads} store eval diverged");
            }
        }
        let stats = store.stats();
        assert!(stats.resident_bytes <= stats.budget_bytes);
        assert!(stats.evictions > 0, "budget never forced an eviction");
    }

    #[test]
    fn scratch_verdicts_match_predict_verdicts_exactly() {
        use crate::AttackScratch;
        use mood_synth::presets;
        let ds = presets::privamov_like().scaled(0.2).generate();
        let (mut train, test) = ds.split_chronological(TimeDelta::from_days(15));
        // A twin of one background user (identical trace, larger id)
        // forces exact AP/POI/PIT score ties through the real attacks:
        // the tie must go to the smaller id whichever twin is the truth.
        let original = test.iter().next().unwrap();
        let twin = UserId::new(train.iter().map(|t| t.user().as_u64()).max().unwrap() + 1);
        let original_bg = train.iter().find(|t| t.user() == original.user()).unwrap();
        let twin_bg = Trace::new(twin, original_bg.records().to_vec()).unwrap();
        train.insert(twin_bg).unwrap();
        let suite = full_suite(&train);
        let users: Vec<UserId> = train.iter().map(|t| t.user()).collect();
        for attack in suite.attacks() {
            let p = attack.predict(original);
            let score = |u: UserId| p.scores.iter().find(|s| s.0 == u).map(|s| s.1);
            assert_eq!(score(original.user()), score(twin), "{}", attack.name());
        }

        // Raw traces (one also under the twin's id), a jittered variant
        // (standing in for an obfuscated candidate) and an
        // abstention-inducing moving trace, all scored on ONE warm
        // scratch: every verdict must equal the predict path.
        let mut victims: Vec<Trace> = test.iter().cloned().collect();
        victims.push(Trace::new(twin, original.records().to_vec()).unwrap());
        for t in test.iter().take(3) {
            let jittered: Vec<Record> = t
                .records()
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let p = r.point();
                    let d = if i % 2 == 0 { 0.004 } else { -0.004 };
                    r.with_point(mood_geo::GeoPoint::new(p.lat() + d, p.lng() - d).unwrap())
                })
                .collect();
            victims.push(Trace::new(t.user(), jittered).unwrap());
        }
        let moving: Vec<Record> = (0..40)
            .map(|i| rec(45.9 + i as f64 * 0.01, 6.0, i * 600))
            .collect();
        victims.push(Trace::new(UserId::new(77), moving).unwrap());

        let mut scratch = AttackScratch::new();
        for trace in &victims {
            for attack in suite.attacks() {
                for &user in &users {
                    assert_eq!(
                        attack.reidentify_with(trace, user, &mut scratch),
                        attack.re_identifies(trace, user),
                        "{} diverged on trace of {} vs user {user}",
                        attack.name(),
                        trace.user(),
                    );
                }
            }
            assert_eq!(
                suite.protects_with(trace, trace.user(), &mut scratch),
                suite.protects(trace, trace.user()),
            );
        }
        assert!(scratch.is_warm());
        // whenever PIT scored a trace POI had already profiled, the
        // shared extraction must have been reused, not recomputed
        assert!(
            scratch.profile_cache_hits() > 0,
            "PIT never reused POI's stay extraction"
        );
        assert!(scratch.profile_cache_misses() > 0);
    }

    #[test]
    fn warm_scratch_verdicts_equal_cold_scratch_verdicts() {
        use crate::AttackScratch;
        use mood_synth::presets;
        let ds = presets::privamov_like().scaled(0.2).generate();
        let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
        let suite = full_suite(&train);

        // A slab per user: their raw trace plus jittered variants
        // (standing in for LPPM candidates), all scored on ONE scratch
        // so its caches and beater hints fill up across the slab. Each
        // candidate must still get the verdict a fresh scratch gives.
        let mut warm = AttackScratch::new();
        for trace in test.iter().take(4) {
            let mut slab: Vec<Trace> = vec![trace.clone()];
            for (v, d) in [(1, 0.003), (2, -0.006), (3, 0.02)] {
                let jittered: Vec<Record> = trace
                    .records()
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let p = r.point();
                        let sign = if (i + v) % 2 == 0 { d } else { -d };
                        r.with_point(GeoPoint::new(p.lat() + sign, p.lng() - sign).unwrap())
                    })
                    .collect();
                slab.push(Trace::new(trace.user(), jittered).unwrap());
            }

            for candidate in &slab {
                for attack in suite.attacks() {
                    assert_eq!(
                        attack.reidentify_with(candidate, trace.user(), &mut warm),
                        attack.reidentify_with(candidate, trace.user(), &mut AttackScratch::new()),
                        "{} warm verdict diverged from cold",
                        attack.name()
                    );
                }
                assert_eq!(
                    suite.protects_with(candidate, trace.user(), &mut warm),
                    suite.protects_with(candidate, trace.user(), &mut AttackScratch::new()),
                    "suite warm verdict diverged from cold"
                );
            }
        }
        // the slabs really exercised the hints: some rival beat a user
        assert!(
            [warm.ap_beater, warm.poi_beater, warm.pit_beater]
                .iter()
                .any(Option::is_some),
            "no decision scan ever found a beater"
        );
    }

    #[test]
    fn multi_attack_union_is_at_least_single_attack() {
        use mood_synth::presets;
        let ds = presets::privamov_like().scaled(0.2).generate();
        let (train, test) = ds.split_chronological(TimeDelta::from_days(15));
        let ap_only = AttackSuite::train(&[&ApAttack::paper_default() as &dyn Attack], &train);
        let all = full_suite(&train);
        let single = ap_only.evaluate(&test).non_protected_count();
        let multi = all.evaluate(&test).non_protected_count();
        assert!(multi >= single, "union {multi} < single {single}");
    }
}
