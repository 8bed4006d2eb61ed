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
//! `ProfileCache`), hits are **verified**: a lookup compares the
//! background with each interned copy bit for bit — users and record
//! counts, then every record's timestamp and coordinate bits — so two
//! different datasets can never alias and store-trained suites are
//! byte-identical to independently trained ones (gated by tests below
//! and the cold ≡ warm determinism suite). The derived `Dataset ==` is
//! not enough: `GeoPoint`'s `PartialEq` equates `-0.0` with `0.0`, and a
//! profile built from one can differ in its bits from one built from
//! the other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mood_models::{CentroidSoa, HeatmapSet, MarkovChain, Poi, PoiExtractor, PoiProfile};
use mood_trace::{Dataset, Record, Trace, UserId};

/// Per-user profiles plus the SoA centroid sidecars the verdict kernels
/// stream, in ascending-user order: POI-Attack's POI profiles
/// ([`ProfileSet::build`]) or PIT-Attack's Markov chains, whose sidecars
/// hold the state centroids in state order ([`ProfileSet::derive`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSet<P> {
    users: Vec<UserId>,
    profiles: Vec<P>,
    centroids: Vec<CentroidSoa>,
}

impl ProfileSet<PoiProfile> {
    /// Extracts one POI profile per user, exactly as POI-Attack training
    /// always has, and splits each profile's centroids into SoA form.
    pub fn build(background: &Dataset, extractor: &PoiExtractor) -> Self {
        Self::from_profiles(
            background
                .iter()
                .map(|trace| (trace.user(), extractor.extract_profile(trace))),
            PoiProfile::pois,
        )
    }
}

impl ProfileSet<MarkovChain> {
    /// Derives one Markov chain per user from already-extracted POI
    /// profiles — the chains are a pure function of the profiles, so
    /// deriving from a shared POI set is byte-identical to PIT-Attack's
    /// original extract-then-chain training.
    pub fn derive(pois: &ProfileSet<PoiProfile>) -> Self {
        Self::from_profiles(
            pois.iter()
                .map(|(user, profile, _)| (user, MarkovChain::from_profile(profile))),
            MarkovChain::states,
        )
    }
}

impl<P> ProfileSet<P> {
    /// `(user, profile)` pairs in their order, each profile's `places`
    /// split into its SoA sidecar.
    fn from_profiles(entries: impl Iterator<Item = (UserId, P)>, places: fn(&P) -> &[Poi]) -> Self {
        let (users, profiles): (Vec<UserId>, Vec<P>) = entries.unzip();
        let centroids = profiles
            .iter()
            .map(|profile| CentroidSoa::from_pois(places(profile)))
            .collect();
        Self {
            users,
            profiles,
            centroids,
        }
    }

    /// Profiles in ascending-user order.
    pub fn profiles(&self) -> &[P] {
        &self.profiles
    }

    /// Users, ascending, parallel to [`ProfileSet::profiles`].
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// SoA centroid sidecars, parallel to [`ProfileSet::profiles`].
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
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &P, &CentroidSoa)> + '_ {
        self.users
            .iter()
            .copied()
            .zip(self.profiles.iter())
            .zip(self.centroids.iter())
            .map(|((u, p), c)| (u, p, c))
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
/// dataset, model parameters)` — hits verified by a bit-for-bit dataset
/// comparison.
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

/// Interned sets under their `(dataset index, parameters)` keys.
type Entries<K, S> = Vec<((usize, K), Arc<S>)>;

#[derive(Default)]
struct StoreInner {
    /// Interned datasets: full copies, no two equal bit for bit.
    datasets: Vec<Dataset>,
    /// Heatmaps keyed by cell size bits.
    heatmaps: Entries<u64, HeatmapSet>,
    /// POI profiles keyed by extractor.
    pois: Entries<PoiExtractor, ProfileSet<PoiProfile>>,
    /// Markov chains keyed by extractor.
    chains: Entries<PoiExtractor, ProfileSet<MarkovChain>>,
}

impl StoreInner {
    /// Index of the interned copy that equals `background` bit for bit,
    /// interning a copy when there is none.
    fn dataset_index(&mut self, background: &Dataset) -> usize {
        if let Some(i) = self.datasets.iter().position(|d| same_bits(d, background)) {
            return i;
        }
        self.datasets.push(background.clone());
        self.datasets.len() - 1
    }
}

/// Whether `a` and `b` hold the same users and records bit for bit:
/// users and record counts first, then every record's timestamp and
/// coordinate bits. Unlike the derived `Dataset ==`, this tells `-0.0`
/// from `0.0`.
fn same_bits(a: &Dataset, b: &Dataset) -> bool {
    let shape = |t: &Trace| (t.user(), t.len());
    let bits = |r: &Record| {
        (
            r.time(),
            r.point().lat().to_bits(),
            r.point().lng().to_bits(),
        )
    };
    a.iter().map(shape).eq(b.iter().map(shape))
        && a.iter().zip(b.iter()).all(|(s, t)| {
            s.records()
                .iter()
                .map(bits)
                .eq(t.records().iter().map(bits))
        })
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
        let key = (inner.dataset_index(background), cell_size_m.to_bits());
        self.find_or_build(&mut inner.heatmaps, key, HeatmapSet::len, || {
            HeatmapSet::build(background, cell_size_m)
        })
    }

    /// The per-user POI profile set for `(background, extractor)`:
    /// shared when already built, built exactly once otherwise.
    pub fn poi_profiles(
        &self,
        background: &Dataset,
        extractor: &PoiExtractor,
    ) -> Arc<ProfileSet<PoiProfile>> {
        let mut inner = self.inner.lock().expect("profile store lock");
        let key = (inner.dataset_index(background), *extractor);
        self.find_or_build(&mut inner.pois, key, ProfileSet::len, || {
            ProfileSet::build(background, extractor)
        })
    }

    /// The per-user Markov chain set for `(background, extractor)`:
    /// shared when already built, otherwise derived from the (also
    /// shared) POI profile set — so a POI + PIT suite extracts stays
    /// once, not twice.
    pub fn markov_chains(
        &self,
        background: &Dataset,
        extractor: &PoiExtractor,
    ) -> Arc<ProfileSet<MarkovChain>> {
        let mut guard = self.inner.lock().expect("profile store lock");
        let inner = &mut *guard;
        let key = (inner.dataset_index(background), *extractor);
        let pois = &mut inner.pois;
        self.find_or_build(&mut inner.chains, key, ProfileSet::len, || {
            let profiles = self.find_or_build(pois, key, ProfileSet::len, || {
                ProfileSet::build(background, extractor)
            });
            ProfileSet::derive(&profiles)
        })
    }

    /// The set interned under `key`, counted as a hit; otherwise a miss
    /// that builds the set, counts its `len` profiles and interns it.
    fn find_or_build<K: PartialEq, S>(
        &self,
        entries: &mut Entries<K, S>,
        key: (usize, K),
        len: fn(&S) -> usize,
        build: impl FnOnce() -> S,
    ) -> Arc<S> {
        if let Some((_, set)) = entries.iter().find(|(k, _)| *k == key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(set);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let set = Arc::new(build());
        self.profile_builds
            .fetch_add(len(&set) as u64, Ordering::Relaxed);
        entries.push((key, Arc::clone(&set)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApAttack, Attack, AttackSuite, PitAttack, PoiAttack};
    use mood_geo::GeoPoint;
    use mood_models::Heatmap;
    use mood_synth::presets;
    use mood_trace::{TimeDelta, Timestamp};

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
                serde_json::to_string(chains.profiles()).unwrap(),
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

    /// A different dataset must never alias an interned one.
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

    /// Two users, two records each, the first at latitude `first_lat`;
    /// `last_lng` and `last_time` place the last record.
    fn two_users(first_lat: f64, last_lng: f64, last_time: i64) -> Dataset {
        let at =
            |lat, lng, t| Record::new(GeoPoint::new(lat, lng).unwrap(), Timestamp::from_unix(t));
        let trace = |user, records| Trace::new(UserId::new(user), records).unwrap();
        Dataset::from_traces([
            trace(1, vec![at(first_lat, 6.10, 0), at(0.01, 6.11, 600)]),
            trace(2, vec![at(0.05, 6.20, 0), at(0.07, last_lng, last_time)]),
        ])
        .unwrap()
    }

    /// Interning compares bits: a copy that differs from an interned
    /// background in one sign, one ulp or one second misses, even where
    /// the derived `Dataset ==` calls the two equal, and an equal copy
    /// built separately hits.
    #[test]
    fn interning_is_exact_to_the_bit() {
        let (lng, time) = (6.22, 1200);
        let bg = two_users(0.0, lng, time);
        let store = ProfileStore::new();
        let interned = store.heatmaps(&bg, 800.0);
        let equal = Dataset::from_traces(bg.iter().cloned()).unwrap();
        assert!(Arc::ptr_eq(&store.heatmaps(&equal, 800.0), &interned));
        assert_eq!((store.counters().misses, store.counters().hits), (1, 1));

        let negative_zero = two_users(-0.0, lng, time);
        assert_eq!(negative_zero, bg, "derived == equates the zeros");
        let copies = [
            negative_zero,
            two_users(0.0, f64::from_bits(lng.to_bits() + 1), time),
            two_users(0.0, lng, time + 1),
        ];
        for (i, copy) in copies.iter().enumerate() {
            let set = store.heatmaps(copy, 800.0);
            assert!(!Arc::ptr_eq(&set, &interned), "copy {i}");
            let c = store.counters();
            assert_eq!((c.misses, c.hits), (2 + i as u64, 1), "copy {i}");
        }
    }
}
