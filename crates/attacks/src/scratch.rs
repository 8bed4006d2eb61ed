//! Per-worker scratch state for attack inference — the allocation-free
//! counterpart of [`crate::TrainedAttack::predict`].
//!
//! Candidate search scores every LPPM candidate against the full attack
//! suite (K × m inference calls per user), and each call re-derives the
//! same kind of per-trace features: a heatmap for AP-Attack, POI
//! clusters for POI-Attack, a Mobility Markov Chain for PIT-Attack.
//! [`AttackScratch`] owns one reusable buffer per feature so a worker
//! builds them in place instead of allocating per candidate, plus a
//! shared [`TraceRaster`] so a trace's grid cell-sequence is computed
//! once and reused by every grid-based consumer (AP-Attack today, HMC's
//! `apply` upstream, future grid attacks).
//!
//! # Contract (for attack implementors)
//!
//! * **Per-worker exclusivity** — a scratch is handed `&mut` to exactly
//!   one worker at a time (the executor's worker-slot guarantee); it is
//!   never shared concurrently and needs no synchronization.
//! * **Determinism** — `reidentify_with` must return exactly what
//!   `re_identifies` would: the scratch may change *how* the verdict is
//!   reached (buffer reuse, verified caches, deciding against the true
//!   user's own score with exact pruning instead of a full arg-min),
//!   never *what* it is. Every backend × thread count must stay
//!   byte-identical to the sequential reference.
//! * **No carry-over semantics** — contents are an optimization only; a
//!   fresh scratch must produce the same verdicts as a warm one. That
//!   includes the beater hints: each attack remembers which rival last
//!   beat which true user and scores it first next time, but a hint
//!   only reorders the decision scan, whose verdict does not depend on
//!   visiting order — a stale, foreign or out-of-range hint costs
//!   work, never a verdict.

use mood_models::{MarkovChain, PoiExtractor, PoiProfile, Stay, TraceRaster};
use mood_trace::{Record, Trace, UserId};

/// The rival that last beat a true user in one attack's decision scan:
/// `(true user, rival index)`, or `None` before any rival won.
pub(crate) type BeaterHint = Option<(UserId, usize)>;

/// The pruned true-user decision scan shared by every native
/// `reidentify_with`: does profile matching pick `true_user`?
///
/// `users` is a profile set's **ascending** user slice; `score(i,
/// bound, scan)` scores profile `i` and may return `None` to signal
/// "provably above `bound`" (exact pruning). The true user's profile is
/// scored once, unbounded, giving `b*`; every other profile is then
/// scored under the fixed bound `b*`, and the scan stops at the first
/// one that beats it. `scan` is `true` for the index-order scan's calls
/// and `false` for the own profile and the hinted rival, so a scorer
/// can defer work that only the scan needs (AP-Attack's index bounds).
///
/// **Beater first.** When `hint` names a rival that beat `true_user`
/// before, that rival is scored right after the own profile — the
/// candidates of one user tend to lose to the same rival — and the rest
/// follow in index order; any other rival that beats it becomes the new
/// hint. The order is pure work: the verdict asks whether *any*
/// rival beats `b*`, and the tie rule below compares indices, not
/// visiting order, so a stale, foreign or out-of-range hint cannot
/// change it.
///
/// **Verdict equivalence with `Prediction::from_scores`** (proven here
/// once, relied on by all three attacks): `from_scores` sorts by
/// `(distance, user)` and predicts the first finite entry, i.e. the
/// minimal finite distance with ties broken by the smallest user. So
/// `true_user` is predicted iff it is profiled, `b*` is finite, and no
/// other profile has a finite score `d < b*`, or `d == b*` at a smaller
/// user (= smaller index, the slice being ascending). Pruned profiles
/// (`score` returned `None` under `b*`) have a final score `> b*`
/// because partial sums are monotone, so they beat nothing. Keep the
/// tie rule index-aware: an equal score only wins from below.
pub(crate) fn true_user_wins(
    users: &[UserId],
    true_user: UserId,
    hint: &mut BeaterHint,
    mut score: impl FnMut(usize, f64, bool) -> Option<f64>,
) -> bool {
    let Ok(own) = users.binary_search(&true_user) else {
        return false;
    };
    let Some(bound) = score(own, f64::INFINITY, false).filter(|d| d.is_finite()) else {
        return false;
    };
    let mut beats = |i: usize, scan: bool| {
        score(i, bound, scan)
            .is_some_and(|d| d.is_finite() && (d < bound || (d == bound && i < own)))
    };
    let first = match *hint {
        Some((user, i)) if user == true_user && i != own && i < users.len() => Some(i),
        _ => None,
    };
    if first.is_some_and(|i| beats(i, false)) {
        return false;
    }
    match (0..users.len()).find(|&i| i != own && Some(i) != first && beats(i, true)) {
        Some(i) => {
            *hint = Some((true_user, i));
            false
        }
        None => true,
    }
}

/// A one-entry **verified** `(extractor, trace) → POI profile` cache:
/// POI-Attack and PIT-Attack run back to back on the same trace with
/// the same paper-default extractor, and stay extraction — a distance
/// computation per record — dominates both. Like [`TraceRaster`], a hit
/// is only taken after comparing the stored trace records exactly
/// (plus the extractor parameters), so cached and fresh inference are
/// bit-identical; the comparison costs three `f64` equality checks per
/// record versus extraction's centroid/distance arithmetic.
#[derive(Default)]
pub(crate) struct ProfileCache {
    extractor: Option<PoiExtractor>,
    user: Option<UserId>,
    records: Vec<Record>,
    pub(crate) stays: Vec<Stay>,
    pub(crate) profile: PoiProfile,
    hits: u64,
    misses: u64,
}

impl ProfileCache {
    /// The POI profile of `trace` under `extractor`: served from the
    /// cached entry when it matches exactly, re-extracted into the
    /// reusable buffers otherwise.
    pub(crate) fn profile_for(&mut self, extractor: &PoiExtractor, trace: &Trace) -> &PoiProfile {
        if self.extractor.as_ref() == Some(extractor)
            && self.user == Some(trace.user())
            && self.records.as_slice() == trace.records()
        {
            self.hits += 1;
            return &self.profile;
        }
        self.misses += 1;
        self.extractor = Some(*extractor);
        self.user = Some(trace.user());
        self.records.clear();
        self.records.extend_from_slice(trace.records());
        extractor.extract_stays_into(trace, &mut self.stays);
        self.profile
            .rebuild_from_stays(&self.stays, extractor.diameter_m());
        &self.profile
    }
}

/// Reusable per-worker buffers for scratch-aware attack inference.
///
/// Constructed empty ([`AttackScratch::new`]) and warmed up by the first
/// inference call; engines recycle scratches across candidates, batches
/// and users via their scratch pools.
#[derive(Default)]
pub struct AttackScratch {
    /// Shared `(grid, trace) → cells` cache (exact, verified hits).
    pub(crate) raster: TraceRaster,
    /// AP-Attack's anonymous-trace heatmap buffer.
    pub(crate) heatmap: mood_models::Heatmap,
    /// Shared POI/PIT stay-extraction + profile cache.
    pub(crate) poi: ProfileCache,
    /// POI-Attack's profile-weight buffer.
    pub(crate) weights: Vec<f64>,
    /// PIT-Attack's Markov-chain buffer.
    pub(crate) chain: MarkovChain,
    /// AP-Attack's beater hint for [`true_user_wins`].
    pub(crate) ap_beater: BeaterHint,
    /// AP-Attack's index bounds, one per profile, filled when a decision
    /// reaches the scan.
    pub(crate) ap_bounds: Vec<f64>,
    /// The `f32` accumulator of the index's hot rows behind `ap_bounds`.
    pub(crate) ap_credits: Vec<f32>,
    /// POI-Attack's beater hint.
    pub(crate) poi_beater: BeaterHint,
    /// PIT-Attack's beater hint.
    pub(crate) pit_beater: BeaterHint,
    /// Whether any inference ran on this scratch yet (the engine's
    /// `attack_scratch_reuses` observable counts warm starts).
    used: bool,
}

impl AttackScratch {
    /// A fresh, cold scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared rasterization cache, for callers that want to pre-warm
    /// it (e.g. an LPPM's `apply` rasterizing the same trace the suite
    /// scores next).
    pub fn raster_mut(&mut self) -> &mut TraceRaster {
        &mut self.raster
    }

    /// `true` once at least one inference call used this scratch — i.e.
    /// the next call starts from warmed-up buffers.
    pub fn is_warm(&self) -> bool {
        self.used
    }

    /// Marks the scratch as used (called by the suite after inference).
    pub(crate) fn mark_used(&mut self) {
        self.used = true;
    }

    /// Drains the rasterization-cache hit/miss counters for aggregation
    /// into shared metrics; returns `(hits, misses)`.
    pub fn take_raster_counters(&mut self) -> (u64, u64) {
        self.raster.take_counters()
    }

    /// POI-profile-cache hits so far (PIT reusing POI's extraction of
    /// the same trace, verified exactly).
    pub fn profile_cache_hits(&self) -> u64 {
        self.poi.hits
    }

    /// POI-profile-cache misses so far (fresh extractions).
    pub fn profile_cache_misses(&self) -> u64 {
        self.poi.misses
    }
}

#[cfg(test)]
mod tests {
    use super::{true_user_wins, BeaterHint};
    use crate::Prediction;
    use mood_trace::UserId;
    use proptest::prelude::*;

    /// Users `0, 2, 4, …` (ascending, with gaps so odd ids are absent).
    fn users(n: usize) -> Vec<UserId> {
        (0..n as u64).map(|i| UserId::new(2 * i)).collect()
    }

    /// The decision scan over fixed scores, with the exact-pruning
    /// contract: the closure returns `None` iff the score exceeds the
    /// bound.
    fn scan(scores: &[f64], true_user: u64) -> bool {
        scan_hinted(scores, true_user, &mut None)
    }

    /// [`scan`] starting from (and updating) a beater hint.
    fn scan_hinted(scores: &[f64], true_user: u64, hint: &mut BeaterHint) -> bool {
        true_user_wins(
            &users(scores.len()),
            UserId::new(true_user),
            hint,
            |i, bound, _| (scores[i] <= bound).then_some(scores[i]),
        )
    }

    /// The unpruned oracle: the full arg-min names the true user.
    fn oracle(scores: &[f64], true_user: u64) -> bool {
        let scored = users(scores.len()).into_iter().zip(scores.iter().copied());
        Prediction::from_scores(scored.collect()).predicted == Some(UserId::new(true_user))
    }

    #[test]
    fn strict_minimum_wins_and_anything_better_loses() {
        assert!(scan(&[3.0, 1.0, 2.0], 2));
        assert!(!scan(&[3.0, 1.0, 2.0], 0));
        assert!(!scan(&[3.0, 1.0, 2.0], 4));
    }

    #[test]
    fn ties_go_to_the_smaller_user() {
        // a tie below the true user beats it; a tie above does not
        assert!(!scan(&[1.0, 1.0, 5.0], 2));
        assert!(scan(&[1.0, 1.0, 5.0], 0));
        assert!(scan(&[5.0, 1.0, 1.0], 2));
        assert!(!scan(&[5.0, 1.0, 1.0], 4));
        // scoring the tie first changes nothing: the rule compares
        // indices, not visiting order
        let hint = |user: u64, i: usize| Some((UserId::new(user), i));
        assert!(scan_hinted(&[1.0, 1.0, 5.0], 0, &mut hint(0, 1)));
        assert!(scan_hinted(&[5.0, 1.0, 1.0], 2, &mut hint(2, 2)));
        assert!(!scan_hinted(&[5.0, 1.0, 1.0], 4, &mut hint(4, 1)));
    }

    #[test]
    fn absent_true_user_never_wins() {
        assert!(!scan(&[1.0, 2.0], 1));
        assert!(!scan(&[1.0, 2.0], 9));
        assert!(!scan(&[], 0));
    }

    #[test]
    fn non_finite_own_score_never_wins() {
        // an abstaining own profile (∞, or no score at all) and NaN
        assert!(!scan(&[f64::INFINITY, f64::INFINITY], 0));
        assert!(!scan(&[f64::NEG_INFINITY, 3.0], 0));
        assert!(!scan(&[f64::NAN, 3.0], 0));
        assert!(!true_user_wins(
            &users(2),
            UserId::new(0),
            &mut None,
            |_, _, _| None
        ));
    }

    #[test]
    fn non_finite_rivals_are_skipped() {
        assert!(scan(&[f64::INFINITY, 4.0, f64::NEG_INFINITY, f64::NAN], 2));
    }

    #[test]
    fn the_scan_stops_at_the_first_better_profile() {
        let scores = [2.0, 9.0, 5.0, 1.0, 0.5];
        let visits = |hint: &mut BeaterHint| {
            let mut scored = Vec::new();
            let wins = true_user_wins(&users(5), UserId::new(4), hint, |i, bound, _| {
                scored.push(i);
                Some(scores[i]).filter(|d| *d <= bound)
            });
            (wins, scored)
        };
        let mut hint = None;
        assert_eq!(visits(&mut hint), (false, vec![2, 0]));
        // the beater is remembered and scored first next time
        assert_eq!(hint, Some((UserId::new(4), 0)));
        let mut beater_first = Some((UserId::new(4), 4));
        assert_eq!(visits(&mut beater_first), (false, vec![2, 4]));
        // a hint that no longer beats is scored once, then skipped
        let mut stale = Some((UserId::new(4), 1));
        assert_eq!(visits(&mut stale), (false, vec![2, 1, 0]));
        assert_eq!(stale, Some((UserId::new(4), 0)));
    }

    #[test]
    fn only_the_index_order_scan_is_flagged() {
        let scores = [2.0, 9.0, 5.0, 1.0, 0.5];
        let mut calls = Vec::new();
        let mut stale = Some((UserId::new(4), 1));
        true_user_wins(&users(5), UserId::new(4), &mut stale, |i, bound, scan| {
            calls.push((i, scan));
            Some(scores[i]).filter(|d| *d <= bound)
        });
        // the own profile, the hinted rival, then the scan
        assert_eq!(calls, [(2, false), (1, false), (0, true)]);
    }

    /// A score drawn from a small palette, so ties (and non-finite
    /// entries) are common.
    fn palette(k: u8) -> f64 {
        [0.0, 0.5, 1.0, 1.0, 2.5, f64::INFINITY, f64::NEG_INFINITY][usize::from(k % 7)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // The verdict ignores the hint: none, the own index, an index
        // out of range, another user's hint, or a stale (arbitrary)
        // index must all give the full arg-min's answer, and a lost
        // scan must leave a hint naming a rival that really beats.
        #[test]
        fn decision_scan_equals_full_argmin(
            picks in collection::vec(0u8..7, 0..24),
            noise in collection::vec(0.0f64..4.0, 24..25),
            true_user in 0u64..50,
            tie_heavy in 0u8..2,
            hint_kind in 0u8..5,
            hint_index in 0usize..30,
        ) {
            let scores: Vec<f64> = picks
                .iter()
                .zip(&noise)
                .map(|(&k, &x)| if tie_heavy == 1 { palette(k) } else { x })
                .collect();
            let own = (true_user / 2) as usize;
            let me = UserId::new(true_user);
            let mut hint = match hint_kind {
                0 => None,
                1 => Some((me, own)),
                2 => Some((me, scores.len() + hint_index)),
                3 => Some((UserId::new(true_user + 1), hint_index)),
                _ => Some((me, hint_index % scores.len().max(1))),
            };
            let wins = scan_hinted(&scores, true_user, &mut hint);
            prop_assert_eq!(
                wins,
                oracle(&scores, true_user),
                "scores {:?}, true user {}, hint kind {}",
                scores,
                true_user,
                hint_kind
            );
            let rivals_scored = true_user % 2 == 0
                && scores.get(own).is_some_and(|d| d.is_finite());
            if let Some((user, i)) = hint.filter(|_| rivals_scored && !wins) {
                prop_assert!(
                    user == me && i < scores.len() && i != own,
                    "hint {:?} names no rival", (user, i)
                );
                prop_assert!(
                    scores[i] < scores[own] || (scores[i] == scores[own] && i < own),
                    "hinted rival {} does not beat the own score", i
                );
            }
        }
    }
}
