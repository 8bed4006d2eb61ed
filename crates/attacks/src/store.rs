//! A shared, verified training layer: one profile build per `(dataset,
//! model parameters)`, reused by every suite, tenant and engine template
//! that trains over the same background knowledge.
//!
//! Training is the other half of the verdict-path cost: every
//! [`crate::AttackSuite::train`] used to rebuild the same heatmaps, POI
//! profiles and Markov chains per attack and per suite — a second
//! suite/tenant over the same background paid the full training pass
//! again, and POI-Attack and PIT-Attack each re-extracted identical stay
//! clusters. [`ProfileStore`] interns trained profile *sets* behind
//! `Arc`s, keyed by the background dataset and the exact model
//! parameters, so a build happens once and every consumer shares it.
//!
//! # Exactness contract
//!
//! Like the other cache on the verdict path (the scratch
//! `ProfileCache`), hits are **verified**: the dataset key
//! is a fingerprint used only as a fast reject — a hit is taken only
//! after a full `Dataset` equality compare, so two different datasets
//! can never alias and store-trained suites are byte-identical to
//! independently trained ones (gated by tests below and the cold ≡ warm
//! determinism suite).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mood_models::{CentroidSoa, HeatmapSet, MarkovChain, PoiExtractor, PoiProfile};
use mood_trace::{Dataset, UserId};

/// Per-user POI profiles plus the SoA centroid sidecars the verdict
/// kernels stream, in ascending-user order.
#[derive(Debug, Clone, PartialEq)]
pub struct PoiProfileSet {
    users: Vec<UserId>,
    profiles: Vec<PoiProfile>,
    centroids: Vec<CentroidSoa>,
}

impl PoiProfileSet {
    /// Extracts one POI profile per user, exactly as POI-Attack training
    /// always has, and splits each profile's centroids into SoA form.
    pub fn build(background: &Dataset, extractor: &PoiExtractor) -> Self {
        let mut users = Vec::with_capacity(background.user_count());
        let mut profiles = Vec::with_capacity(background.user_count());
        let mut centroids = Vec::with_capacity(background.user_count());
        for trace in background.iter() {
            let profile = extractor.extract_profile(trace);
            users.push(trace.user());
            centroids.push(CentroidSoa::from_pois(profile.pois()));
            profiles.push(profile);
        }
        Self {
            users,
            profiles,
            centroids,
        }
    }

    /// Profiles in ascending-user order.
    pub fn profiles(&self) -> &[PoiProfile] {
        &self.profiles
    }

    /// Users, ascending, parallel to [`PoiProfileSet::profiles`].
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// SoA centroid sidecars, parallel to [`PoiProfileSet::profiles`].
    pub(crate) fn centroids(&self) -> &[CentroidSoa] {
        &self.centroids
    }

    /// Number of profiled users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether no user is profiled.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// `(user, profile, SoA centroids)` triples in ascending-user order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &PoiProfile, &CentroidSoa)> + '_ {
        self.users
            .iter()
            .copied()
            .zip(self.profiles.iter())
            .zip(self.centroids.iter())
            .map(|((u, p), c)| (u, p, c))
    }
}

/// Per-user Mobility Markov Chains plus SoA centroid sidecars (state
/// order), in ascending-user order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSet {
    users: Vec<UserId>,
    chains: Vec<MarkovChain>,
    centroids: Vec<CentroidSoa>,
}

impl ChainSet {
    /// Derives one Markov chain per user from already-extracted POI
    /// profiles — the chains are a pure function of the profiles, so
    /// deriving from a shared [`PoiProfileSet`] is byte-identical to
    /// PIT-Attack's original extract-then-chain training.
    pub fn derive(profiles: &PoiProfileSet) -> Self {
        let mut users = Vec::with_capacity(profiles.len());
        let mut chains = Vec::with_capacity(profiles.len());
        let mut centroids = Vec::with_capacity(profiles.len());
        for (user, profile, _) in profiles.iter() {
            let chain = MarkovChain::from_profile(profile);
            users.push(user);
            centroids.push(CentroidSoa::from_pois(chain.states()));
            chains.push(chain);
        }
        Self {
            users,
            chains,
            centroids,
        }
    }

    /// Chains in ascending-user order.
    pub fn chains(&self) -> &[MarkovChain] {
        &self.chains
    }

    /// Users, ascending, parallel to [`ChainSet::chains`].
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// SoA state-centroid sidecars, parallel to [`ChainSet::chains`].
    pub(crate) fn centroids(&self) -> &[CentroidSoa] {
        &self.centroids
    }

    /// Number of profiled users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether no user is profiled.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// `(user, chain, SoA state centroids)` triples in ascending-user
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &MarkovChain, &CentroidSoa)> + '_ {
        self.users
            .iter()
            .copied()
            .zip(self.chains.iter())
            .zip(self.centroids.iter())
            .map(|((u, ch), c)| (u, ch, c))
    }
}

/// Counters of a [`ProfileStore`]'s activity, for engine observables
/// and `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounters {
    /// Profile-set requests served from an interned entry.
    pub hits: u64,
    /// Profile-set requests that had to build.
    pub misses: u64,
    /// Individual per-user profiles built (heatmaps + POI profiles +
    /// chains). Flat across a warm retrain — the "second tenant trains
    /// for free" guarantee.
    pub profile_builds: u64,
}

/// Interned, `Arc`-shared trained profile sets keyed by `(background
/// dataset, model parameters)` — hits verified by full dataset compare.
///
/// # Examples
///
/// ```
/// use mood_attacks::{ApAttack, Attack, AttackSuite, PitAttack, PoiAttack, ProfileStore};
/// use mood_synth::presets;
/// use mood_trace::TimeDelta;
///
/// let ds = presets::privamov_like().scaled(0.15).generate();
/// let (train, _) = ds.split_chronological(TimeDelta::from_days(15));
/// let (poi, pit, ap) = (
///     PoiAttack::paper_default(),
///     PitAttack::paper_default(),
///     ApAttack::paper_default(),
/// );
/// let attacks: Vec<&dyn Attack> = vec![&poi, &pit, &ap];
/// let store = ProfileStore::new();
/// let first = AttackSuite::train_with_store(&attacks, &train, &store);
/// let built = store.counters().profile_builds;
/// let second = AttackSuite::train_with_store(&attacks, &train, &store);
/// // the second tenant shares every profile — zero additional builds
/// assert_eq!(store.counters().profile_builds, built);
/// assert_eq!(first.len(), second.len());
/// ```
#[derive(Default)]
pub struct ProfileStore {
    inner: Mutex<StoreInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    profile_builds: AtomicU64,
}

#[derive(Default)]
struct StoreInner {
    /// Interned datasets: `(fingerprint, full copy)`. The fingerprint is
    /// a fast reject only; interning compares the full dataset.
    datasets: Vec<(u64, Arc<Dataset>)>,
    /// `(dataset index, cell size bits) → heatmaps`.
    heatmaps: Vec<(usize, u64, Arc<HeatmapSet>)>,
    /// `(dataset index, extractor) → POI profiles`.
    pois: Vec<(usize, PoiExtractor, Arc<PoiProfileSet>)>,
    /// `(dataset index, extractor) → Markov chains`.
    chains: Vec<(usize, PoiExtractor, Arc<ChainSet>)>,
}

impl StoreInner {
    /// Index of `background` in the interned list, adding it when new.
    /// A fingerprint match alone is never trusted: the stored dataset
    /// must compare equal record-for-record.
    fn dataset_index(&mut self, background: &Dataset) -> usize {
        let fp = dataset_fingerprint(background);
        for (i, (stored_fp, stored)) in self.datasets.iter().enumerate() {
            if *stored_fp == fp && **stored == *background {
                return i;
            }
        }
        self.datasets.push((fp, Arc::new(background.clone())));
        self.datasets.len() - 1
    }
}

impl ProfileStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-user heatmap set for `(background, cell_size_m)`: shared
    /// when already built, built exactly once otherwise.
    pub fn heatmaps(&self, background: &Dataset, cell_size_m: f64) -> Arc<HeatmapSet> {
        let mut inner = self.inner.lock().expect("profile store lock");
        let ds = inner.dataset_index(background);
        let key = cell_size_m.to_bits();
        if let Some((_, _, set)) = inner
            .heatmaps
            .iter()
            .find(|(d, k, _)| *d == ds && *k == key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(set);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let set = Arc::new(HeatmapSet::build(background, cell_size_m));
        self.profile_builds
            .fetch_add(set.len() as u64, Ordering::Relaxed);
        inner.heatmaps.push((ds, key, Arc::clone(&set)));
        set
    }

    /// The per-user POI profile set for `(background, extractor)`:
    /// shared when already built, built exactly once otherwise.
    pub fn poi_profiles(
        &self,
        background: &Dataset,
        extractor: &PoiExtractor,
    ) -> Arc<PoiProfileSet> {
        let mut inner = self.inner.lock().expect("profile store lock");
        let ds = inner.dataset_index(background);
        self.poi_profiles_locked(&mut inner, ds, background, extractor)
    }

    fn poi_profiles_locked(
        &self,
        inner: &mut StoreInner,
        ds: usize,
        background: &Dataset,
        extractor: &PoiExtractor,
    ) -> Arc<PoiProfileSet> {
        if let Some((_, _, set)) = inner
            .pois
            .iter()
            .find(|(d, e, _)| *d == ds && e == extractor)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(set);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let set = Arc::new(PoiProfileSet::build(background, extractor));
        self.profile_builds
            .fetch_add(set.len() as u64, Ordering::Relaxed);
        inner.pois.push((ds, *extractor, Arc::clone(&set)));
        set
    }

    /// The per-user Markov chain set for `(background, extractor)`:
    /// shared when already built, otherwise derived from the (also
    /// shared) POI profile set — so a POI + PIT suite extracts stays
    /// once, not twice.
    pub fn markov_chains(&self, background: &Dataset, extractor: &PoiExtractor) -> Arc<ChainSet> {
        let mut inner = self.inner.lock().expect("profile store lock");
        let ds = inner.dataset_index(background);
        if let Some((_, _, set)) = inner
            .chains
            .iter()
            .find(|(d, e, _)| *d == ds && e == extractor)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(set);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let profiles = self.poi_profiles_locked(&mut inner, ds, background, extractor);
        let set = Arc::new(ChainSet::derive(&profiles));
        self.profile_builds
            .fetch_add(set.len() as u64, Ordering::Relaxed);
        inner.chains.push((ds, *extractor, Arc::clone(&set)));
        set
    }

    /// A snapshot of the hit/miss/build counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            profile_builds: self.profile_builds.load(Ordering::Relaxed),
        }
    }
}

/// Order-sensitive 64-bit fingerprint of a dataset's full content
/// (users, record coordinates and timestamps, bit-exact) — a fast
/// reject for dataset interning, never trusted without the full
/// compare.
fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    let mut h = 0x4d6f_6f44_5374_6f72 ^ dataset.record_count() as u64; // "MooDStor"
    for trace in dataset.iter() {
        h = mix64(h ^ trace.user().as_u64());
        for record in trace.records() {
            h = mix64(h ^ record.point().lat().to_bits());
            h = mix64(h ^ record.point().lng().to_bits());
            h = mix64(h ^ record.time().as_unix() as u64);
        }
    }
    h
}

/// SplitMix64 finalizer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApAttack, Attack, AttackSuite, PitAttack, PoiAttack};
    use mood_models::Heatmap;
    use mood_synth::presets;
    use mood_trace::TimeDelta;

    fn worlds() -> (Dataset, Dataset) {
        presets::privamov_like()
            .scaled(0.15)
            .generate()
            .split_chronological(TimeDelta::from_days(15))
    }

    fn paper_attacks() -> (PoiAttack, PitAttack, ApAttack) {
        (
            PoiAttack::paper_default(),
            PitAttack::paper_default(),
            ApAttack::paper_default(),
        )
    }

    /// Store-built profile sets must be byte-identical (serialized) to
    /// profiles built directly with the primitive model constructors —
    /// the serialization half of the cold ≡ warm gate.
    #[test]
    fn store_profiles_serialize_identically_to_direct_builds() {
        let (bg, _) = worlds();
        let store = ProfileStore::new();
        let extractor = PoiExtractor::paper_default();

        // Warm the store twice: the SECOND fetch (a verified hit) is
        // the one that must still match the direct build.
        for _ in 0..2 {
            let hm = store.heatmaps(&bg, 800.0);
            let direct: Vec<Heatmap> = bg
                .iter()
                .map(|t| Heatmap::from_trace(hm.grid(), t))
                .collect();
            assert_eq!(
                serde_json::to_string(hm.heatmaps()).unwrap(),
                serde_json::to_string(&direct).unwrap(),
            );

            let pois = store.poi_profiles(&bg, &extractor);
            let direct: Vec<PoiProfile> = bg.iter().map(|t| extractor.extract_profile(t)).collect();
            assert_eq!(
                serde_json::to_string(pois.profiles()).unwrap(),
                serde_json::to_string(&direct).unwrap(),
            );

            let chains = store.markov_chains(&bg, &extractor);
            let direct: Vec<MarkovChain> = bg
                .iter()
                .map(|t| MarkovChain::from_profile(&extractor.extract_profile(t)))
                .collect();
            assert_eq!(
                serde_json::to_string(chains.chains()).unwrap(),
                serde_json::to_string(&direct).unwrap(),
            );
        }
        // heatmaps: 1 miss + 1 hit; pois: 1 miss + 1 hit; chains: 1
        // miss (profiles reused: +1 poi hit) + 1 hit.
        let c = store.counters();
        assert_eq!(c.misses, 3);
        assert_eq!(c.hits, 4);
    }

    /// The headline guarantee: a second suite/tenant over the same
    /// dataset performs **zero** additional profile builds, and its
    /// verdicts are identical to a cold, storeless suite's.
    #[test]
    fn second_tenant_trains_for_free_and_verdicts_match_cold_training() {
        let (bg, test) = worlds();
        let (poi, pit, ap) = paper_attacks();
        let attacks: Vec<&dyn Attack> = vec![&poi, &pit, &ap];

        let cold = AttackSuite::train(&attacks, &bg);

        let store = ProfileStore::new();
        let first = AttackSuite::train_with_store(&attacks, &bg, &store);
        let after_first = store.counters();
        assert!(after_first.profile_builds > 0);
        // POI and PIT share one POI-profile extraction pass even within
        // the first suite.
        assert!(after_first.hits >= 1, "PIT did not reuse POI's profiles");

        let second = AttackSuite::train_with_store(&attacks, &bg, &store);
        let after_second = store.counters();
        assert_eq!(
            after_second.profile_builds, after_first.profile_builds,
            "second tenant rebuilt profiles"
        );
        assert_eq!(after_second.misses, after_first.misses);
        assert!(after_second.hits > after_first.hits);

        // Verdict byte-identity across all three training paths.
        let reference = cold.evaluate(&test);
        assert_eq!(first.evaluate(&test), reference);
        assert_eq!(second.evaluate(&test), reference);
        for trace in test.iter() {
            assert_eq!(
                second.first_reidentifying(trace, trace.user()),
                cold.first_reidentifying(trace, trace.user()),
            );
        }
    }

    /// A different dataset must never alias an interned one, even
    /// though interning starts from a fingerprint.
    #[test]
    fn different_datasets_never_share_entries() {
        let (bg, _) = worlds();
        let mut other_spec = presets::privamov_like().scaled(0.15);
        other_spec.seed ^= 0x777;
        let other = other_spec
            .generate()
            .split_chronological(TimeDelta::from_days(15))
            .0;
        assert_ne!(bg, other);
        let store = ProfileStore::new();
        let a = store.heatmaps(&bg, 800.0);
        let b = store.heatmaps(&other, 800.0);
        assert_eq!(store.counters().misses, 2);
        assert_eq!(store.counters().hits, 0);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    /// Different model parameters over the same dataset are distinct
    /// entries; the dataset itself is interned once.
    #[test]
    fn distinct_parameters_are_distinct_entries() {
        let (bg, _) = worlds();
        let store = ProfileStore::new();
        let a = store.heatmaps(&bg, 800.0);
        let b = store.heatmaps(&bg, 400.0);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.grid(), b.grid());
        let e1 = PoiExtractor::paper_default();
        let e2 = PoiExtractor::new(100.0, TimeDelta::from_hours(1));
        assert!(!Arc::ptr_eq(
            &store.poi_profiles(&bg, &e1),
            &store.poi_profiles(&bg, &e2)
        ));
        assert_eq!(store.counters().hits, 0);
    }
}
