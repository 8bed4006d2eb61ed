use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mood_obs::{mix64, StageAgg};
use rand::rngs::StdRng;
use rand::SeedableRng;

use mood_attacks::{
    ApAttack, Attack, AttackScratch, AttackSuite, PitAttack, PoiAttack, ProfileStore,
};
use mood_lppm::{arrangements, Composition, GeoI, Hmc, Lppm, Trl};
use mood_metrics::{spatio_temporal_distortion, spatio_temporal_distortion_within};
use mood_trace::{Dataset, Record, Trace};

use crate::exec::{self, Executor, SequentialExecutor};
use crate::{
    FineGrainedStats, MoodConfig, ProtectedTrace, ProtectionOutcome, UserClass, UserProtection,
};

/// What a search stage does with each candidate it applies: called with
/// the task's scratch, the candidate's variant index and the
/// candidate, which stays with the caller. Returns whether the stage
/// holds a resilient candidate by now.
///
/// The variant index doubles as the RNG-stream selector — see
/// [`MoodEngine`]'s per-variant RNG derivation — which is what makes
/// candidate evaluation schedulable in any order.
type Visit<'a> = dyn Fn(&mut CandidateScratch, usize, &Trace) -> bool + Sync + 'a;

/// Reusable state for candidate evaluation, leased by one task at a time
/// from the engine's [`ScratchPool`]: spare buffers the LPPMs write
/// candidate records into, and the attack scratch the suite scores on
/// (per-trace features: heatmap, POI clusters, Markov chain).
struct CandidateScratch {
    spare: Vec<Vec<Record>>,
    attack: AttackScratch,
}

/// Spare record buffers one scratch keeps: the singles plus one prefix
/// per composition depth fit, and buffers handed back from other
/// tasks cannot pile up in one scratch.
const SPARE_BUFFERS: usize = 8;

impl CandidateScratch {
    fn new() -> Self {
        Self {
            spare: Vec::new(),
            attack: AttackScratch::new(),
        }
    }

    /// Keeps a candidate's buffer for the next one.
    fn recycle(&mut self, candidate: Trace) {
        if self.spare.len() < SPARE_BUFFERS {
            self.spare.push(candidate.into_records());
        }
    }
}

/// A recycling pool of [`CandidateScratch`] values, shared by every
/// candidate task the engine runs.
///
/// Each candidate task takes one lease for its own length, so the pool
/// is what carries the warmed-up buffers across tasks, batches and
/// users (also when many pipeline workers drive the same engine). Peak
/// pool size is bounded by the peak number of tasks running at once
/// on the engine. The reuse counters are the observable
/// half of the zero-allocation claim: they count candidate evaluations
/// that started from an already-warm protection buffer
/// (`reuses`) / attack scratch (`attack_reuses`) instead of fresh
/// allocations.
struct ScratchPool {
    free: Mutex<Vec<CandidateScratch>>,
    reuses: AtomicU64,
    attack_reuses: AtomicU64,
}

impl ScratchPool {
    fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            reuses: AtomicU64::new(0),
            attack_reuses: AtomicU64::new(0),
        }
    }

    /// Takes a scratch (recycled if available) wrapped in a lease that
    /// returns it to the pool on drop.
    fn take(&self) -> ScratchLease<'_> {
        let scratch = self.free.lock().expect("scratch pool lock").pop();
        ScratchLease {
            pool: self,
            scratch: Some(scratch.unwrap_or_else(CandidateScratch::new)),
        }
    }

    /// Hands the buffers of candidates no search needs any more back to
    /// a pooled scratch.
    fn recycle(&self, candidates: Vec<Option<Trace>>) {
        let mut lease = self.take();
        for candidate in candidates.into_iter().flatten() {
            lease.scratch_mut().recycle(candidate);
        }
    }
}

/// RAII handle recycling a [`CandidateScratch`] back into its pool.
/// The scratch is `Some` until drop (the `Option` only exists so drop
/// can move it out without constructing a replacement).
struct ScratchLease<'p> {
    pool: &'p ScratchPool,
    scratch: Option<CandidateScratch>,
}

impl ScratchLease<'_> {
    fn scratch_mut(&mut self) -> &mut CandidateScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool
                .free
                .lock()
                .expect("scratch pool lock")
                .push(scratch);
        }
    }
}

/// Why an [`EngineBuilder`] could not produce an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The base LPPM set was empty — MooD needs at least one mechanism
    /// to search over.
    EmptyLppmSet,
    /// The configuration failed validation; the message names the bad
    /// parameter.
    InvalidConfig(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyLppmSet => f.write_str("MooD needs at least one LPPM"),
            EngineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Fallible, fluent construction of a [`MoodEngine`]: custom LPPM sets,
/// attack suites, composition depth and execution backend — the
/// `Result`-based replacement for the panicking [`MoodEngine::new`].
///
/// # Examples
///
/// ```
/// use mood_core::{EngineBuilder, ExecutorKind};
/// use mood_synth::presets;
/// use mood_trace::TimeDelta;
///
/// let ds = presets::privamov_like().scaled(0.15).generate();
/// let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
/// let engine = EngineBuilder::paper_default(&background)
///     .executor(ExecutorKind::Persistent.build(4))
///     .seed(7)
///     .build()
///     .expect("paper defaults are valid");
/// let victim = test.iter().next().unwrap();
/// assert_eq!(engine.protect_user(victim).user, victim.user());
/// ```
pub struct EngineBuilder {
    suite: Arc<AttackSuite>,
    lppms: Arc<[Arc<dyn Lppm>]>,
    config: MoodConfig,
    executor: Arc<dyn Executor>,
    store: Option<Arc<ProfileStore>>,
    candidate_budget: usize,
    obs: Option<Arc<StageAgg>>,
}

/// Stage-name table for the engine's optional per-stage observer
/// ([`EngineBuilder::stage_observer`]), in pipeline order. Indices into
/// this table are what the engine records under; note that
/// `candidate_eval` runs *inside* the search stages (and `fine_grained`
/// re-enters them per sub-trace), so the totals overlap hierarchically
/// rather than summing to wall time.
pub const ENGINE_STAGES: [&str; 5] = [
    "raw_check",
    "search_single",
    "search_composition",
    "fine_grained",
    "candidate_eval",
];
const STAGE_RAW_CHECK: usize = 0;
const STAGE_SEARCH_SINGLE: usize = 1;
const STAGE_SEARCH_COMPOSITION: usize = 2;
const STAGE_FINE_GRAINED: usize = 3;
const STAGE_CANDIDATE_EVAL: usize = 4;

impl EngineBuilder {
    /// Starts a builder from a trained attack suite, with an empty LPPM
    /// set, the paper configuration and the sequential executor.
    pub fn new(suite: Arc<AttackSuite>) -> Self {
        Self {
            suite,
            lppms: Arc::new([]),
            config: MoodConfig::paper_default(),
            executor: Arc::new(SequentialExecutor),
            store: None,
            candidate_budget: usize::MAX,
            obs: None,
        }
    }

    /// Starts from the paper's full setup: POI/PIT/AP attacks trained on
    /// `background` and the LPPM set {Geo-I, TRL, HMC}. Training runs
    /// through a fresh [`ProfileStore`], which the built engine keeps —
    /// see [`EngineBuilder::paper_default_with_store`] to share one
    /// store (and its trained profiles) across several engines.
    ///
    /// # Panics
    ///
    /// Panics when `background` is empty (attack training requires at
    /// least one profile).
    pub fn paper_default(background: &Dataset) -> Self {
        Self::paper_default_with_store(background, Arc::new(ProfileStore::new()))
    }

    /// [`EngineBuilder::paper_default`] with a caller-owned
    /// [`ProfileStore`]: attack training interns its trained profile
    /// sets in `store` (POI and PIT already share one extraction pass),
    /// so a second engine built over the same background dataset —
    /// another tenant, an ablation, a per-request rebuild — reuses them
    /// without building a single profile. The store's hit/miss/build
    /// counters ([`ProfileStore::counters`]) are reached through
    /// [`MoodEngine::profile_store`].
    ///
    /// # Panics
    ///
    /// Panics when `background` is empty.
    pub fn paper_default_with_store(background: &Dataset, store: Arc<ProfileStore>) -> Self {
        let suite = AttackSuite::train_with_store(
            &[
                &PoiAttack::paper_default() as &dyn Attack,
                &PitAttack::paper_default(),
                &ApAttack::paper_default(),
            ],
            background,
            &store,
        );
        Self::new(Arc::new(suite)).profile_store(store).lppms(vec![
            Arc::new(GeoI::paper_default()),
            Arc::new(Trl::paper_default()),
            Arc::new(Hmc::paper_default(background)),
        ])
    }

    /// Attaches the profile store the suite was trained through, so the
    /// engine can surface its hit/miss/build counters and hand the store
    /// to sibling builds ([`MoodEngine::profile_store`]).
    pub fn profile_store(mut self, store: Arc<ProfileStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Replaces the base LPPM set.
    pub fn lppms(mut self, lppms: Vec<Arc<dyn Lppm>>) -> Self {
        self.lppms = lppms.into();
        self
    }

    /// Replaces the base LPPM set with an already-shared one — e.g.
    /// [`MoodEngine::shared_lppms`] from a sibling engine. The set is
    /// shared by handle; no per-mechanism clones are made, so building
    /// config/ablation variants of an engine costs one `Arc` bump.
    pub fn lppms_shared(mut self, lppms: Arc<[Arc<dyn Lppm>]>) -> Self {
        self.lppms = lppms;
        self
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: MoodConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the engine seed (bit-for-bit reproducible protection).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Caps the composition length explored by the search.
    pub fn max_composition_len(mut self, len: usize) -> Self {
        self.config.max_composition_len = len;
        self
    }

    /// Sets the candidate-evaluation executor (see [`crate::exec`]).
    pub fn executor(mut self, executor: Arc<dyn Executor>) -> Self {
        self.executor = executor;
        self
    }

    /// Caps the number of candidate variants a single
    /// [`MoodEngine::protect_user`] call may try (deadline-aware
    /// graceful degradation; default: unlimited).
    ///
    /// The budget is consumed in job order, so the cut point is a pure
    /// function of `(budget, candidates tried so far)` and a replayed
    /// request degrades identically on any backend and thread count.
    /// Candidates past the cut are skipped whole. Within the budget, a
    /// candidate may be dropped part-way once the bound-first search
    /// shows it cannot beat the best resilient one; every published
    /// candidate is fully scored, and the scratch contract is untouched.
    /// A call that exhausts its budget returns
    /// [`UserProtection::degraded`]` == true`.
    pub fn candidate_budget(mut self, budget: usize) -> Self {
        self.candidate_budget = budget;
        self
    }

    /// Attaches a per-stage duration observer (build it over
    /// [`ENGINE_STAGES`]). Purely observational: stage wall-clock totals
    /// and operation counts accumulate into `agg`, and protection
    /// results stay bit-identical with or without an observer. When no
    /// observer is attached (the default) the engine never reads the
    /// clock on the protection path.
    pub fn stage_observer(mut self, agg: Arc<StageAgg>) -> Self {
        self.obs = Some(agg);
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::EmptyLppmSet`] when no LPPM was provided
    /// and [`EngineError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn build(self) -> Result<MoodEngine, EngineError> {
        if self.lppms.is_empty() {
            return Err(EngineError::EmptyLppmSet);
        }
        self.config.check().map_err(EngineError::InvalidConfig)?;
        let max_len = self.config.max_composition_len.min(self.lppms.len());
        let base = self.lppms;
        let n = base.len();
        let chains = if max_len >= 2 {
            arrangements(n, 2, max_len)
        } else {
            Vec::new()
        };
        // Shorter chains come first, so a chain's prefix is either a
        // single or an earlier chain.
        let links = chains
            .iter()
            .map(|chain| {
                let (&last, prefix) = chain.split_last().expect("chains are never empty");
                let prefix_idx = match prefix {
                    [single] => *single,
                    _ => {
                        n + chains
                            .iter()
                            .position(|c| c == prefix)
                            .expect("prefix chain")
                    }
                };
                (prefix_idx, last)
            })
            .collect();
        let compositions = chains
            .iter()
            .map(|chain| Composition::new(chain.iter().map(|&i| Arc::clone(&base[i])).collect()))
            .collect();
        Ok(MoodEngine {
            suite: self.suite,
            base,
            compositions,
            links,
            config: self.config,
            executor: self.executor,
            scratch: ScratchPool::new(),
            store: self.store,
            candidate_budget: self.candidate_budget,
            obs: self.obs,
            #[cfg(test)]
            exhaustive_selection: false,
        })
    }
}

/// The MooD engine: Algorithm 1 of the paper, wired to an attack suite,
/// a base LPPM set and a configuration.
///
/// The engine is immutable and `Sync`; [`crate::protect_dataset`] runs it
/// from many threads at once.
///
/// # Examples
///
/// ```
/// use mood_core::{MoodEngine, UserClass};
/// use mood_synth::presets;
/// use mood_trace::TimeDelta;
///
/// let ds = presets::privamov_like().scaled(0.15).generate();
/// let (background, test) = ds.split_chronological(TimeDelta::from_days(15));
/// let engine = MoodEngine::paper_default(&background);
/// let victim = test.iter().next().unwrap();
/// let result = engine.protect_user(victim);
/// assert_eq!(result.user, victim.user());
/// assert!(result.original_records > 0);
/// ```
pub struct MoodEngine {
    suite: Arc<AttackSuite>,
    base: Arc<[Arc<dyn Lppm>]>,
    compositions: Vec<Composition>,
    /// Per composition, in `compositions` order: the variant index of its
    /// prefix `p` (a single for a pair) and the base index of the LPPM
    /// `x` that it applies to `p`'s candidate.
    links: Vec<(usize, usize)>,
    config: MoodConfig,
    executor: Arc<dyn Executor>,
    scratch: ScratchPool,
    store: Option<Arc<ProfileStore>>,
    candidate_budget: usize,
    obs: Option<Arc<StageAgg>>,
    /// Test oracle switch: select by scoring every candidate in full.
    #[cfg(test)]
    exhaustive_selection: bool,
}

/// Per-`protect_user` candidate budget: how many variants may still be
/// tried, and whether the cut has already fired. Consumed in job order,
/// so the skipped set is identical on every backend. A tried variant
/// may be dropped part-way once the search bound shows it cannot win;
/// a published one is always fully scored.
struct BudgetState {
    remaining: usize,
    exhausted: bool,
}

impl BudgetState {
    fn new(budget: usize) -> Self {
        Self {
            remaining: budget,
            exhausted: false,
        }
    }

    #[cfg(test)]
    fn unlimited() -> Self {
        Self::new(usize::MAX)
    }

    /// Takes up to `wanted` candidates from the budget: how many of a
    /// stage's variants, in job order, may be tried.
    fn take(&mut self, wanted: usize) -> usize {
        let allowed = wanted.min(self.remaining);
        self.exhausted |= allowed < wanted;
        self.remaining -= allowed;
        allowed
    }
}

/// The resilient candidate a bound-first search holds so far, with its
/// variant index: one lock shared by the candidate tasks of one
/// [`MoodEngine::best_resilient`] call. Its key only ever falls.
type BestSoFar = Mutex<Option<(usize, ProtectedTrace)>>;

fn lock(best: &BestSoFar) -> std::sync::MutexGuard<'_, Option<(usize, ProtectedTrace)>> {
    best.lock().expect("best-candidate lock")
}

/// `true` when a candidate keyed `(distortion, idx)` ranks before `best`
/// in Best LPPM Selection: `total_cmp` on distortion, then the variant
/// index. Anything ranks before no candidate at all.
fn ranks_before(distortion: f64, idx: usize, best: Option<&(usize, ProtectedTrace)>) -> bool {
    best.is_none_or(|(best_idx, p)| {
        distortion
            .total_cmp(&p.distortion_m)
            .then(idx.cmp(best_idx))
            .is_lt()
    })
}

impl std::fmt::Debug for MoodEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MoodEngine")
            .field("attacks", &self.suite.len())
            .field(
                "lppms",
                &self.base.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .field("compositions", &self.compositions.len())
            .field("config", &self.config)
            .field("executor", &self.executor.name())
            .finish()
    }
}

impl MoodEngine {
    /// Creates an engine from a trained attack suite, a base LPPM set
    /// `L`, and a configuration. The composition space `C − L` is
    /// enumerated eagerly (it is tiny: 12 chains for n = 3). Candidate
    /// evaluation runs on the sequential executor; use
    /// [`EngineBuilder`] to choose a parallel backend.
    ///
    /// # Panics
    ///
    /// Panics with the [`EngineError`] of [`EngineBuilder::build`], the
    /// non-panicking equivalent, when `base` is empty or the
    /// configuration is invalid.
    pub fn new(suite: Arc<AttackSuite>, base: Vec<Arc<dyn Lppm>>, config: MoodConfig) -> Self {
        EngineBuilder::new(suite)
            .lppms(base)
            .config(config)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The paper's full setup: POI/PIT/AP attacks trained on
    /// `background`, the LPPM set {Geo-I, TRL, HMC} with the paper's
    /// parameters, and [`MoodConfig::paper_default`].
    ///
    /// # Panics
    ///
    /// Panics when `background` is empty.
    pub fn paper_default(background: &Dataset) -> Self {
        EngineBuilder::paper_default(background)
            .build()
            .expect("paper defaults are valid")
    }

    /// The trained attack suite driving the resilience checks.
    pub fn suite(&self) -> &AttackSuite {
        &self.suite
    }

    /// A shareable handle to the suite, for building sibling engines
    /// (different configs against the same adversary) without retraining.
    pub fn shared_suite(&self) -> Arc<AttackSuite> {
        Arc::clone(&self.suite)
    }

    /// The profile store the suite was trained through, when the engine
    /// was built with one ([`EngineBuilder::paper_default`] and
    /// [`EngineBuilder::paper_default_with_store`] always attach it).
    /// Hand it to [`EngineBuilder::paper_default_with_store`] to train a
    /// sibling engine over the same background for free.
    pub fn profile_store(&self) -> Option<Arc<ProfileStore>> {
        self.store.as_ref().map(Arc::clone)
    }

    /// The base LPPM set `L`.
    pub fn lppms(&self) -> &[Arc<dyn Lppm>] {
        &self.base
    }

    /// A shareable handle to the base LPPM set, for building sibling
    /// engines (ablations, different configs or executors over the same
    /// mechanisms) without copying the set — pass it to
    /// [`EngineBuilder::lppms_shared`].
    pub fn shared_lppms(&self) -> Arc<[Arc<dyn Lppm>]> {
        Arc::clone(&self.base)
    }

    /// How many candidate evaluations started from a recycled, already
    /// warmed-up scratch buffer instead of a fresh allocation — the
    /// observable evidence that the candidate hot path stops allocating
    /// once the pooled scratches have warmed up. (A resilient candidate
    /// that becomes the best is copied, so its buffer stays with the
    /// scratch; a scratch runs short only when another scratch got the
    /// single stage's buffers back.)
    pub fn scratch_reuses(&self) -> u64 {
        self.scratch.reuses.load(Ordering::Relaxed)
    }

    /// How many candidate evaluations scored the attack suite on an
    /// already warmed-up [`AttackScratch`] — the attack-side counterpart
    /// of [`MoodEngine::scratch_reuses`]: per-trace features (heatmaps,
    /// POI clusters, Markov chains) built into recycled pooled buffers
    /// instead of fresh allocations.
    pub fn attack_scratch_reuses(&self) -> u64 {
        self.scratch.attack_reuses.load(Ordering::Relaxed)
    }

    /// The enumerated composition space `C − L` (length ≥ 2 chains).
    pub fn compositions(&self) -> &[Composition] {
        &self.compositions
    }

    /// The engine configuration.
    pub fn config(&self) -> &MoodConfig {
        &self.config
    }

    /// Deterministic RNG for one (trace, variant) application: derived
    /// from the engine seed, the trace's user, its start time (so each
    /// sub-trace draws fresh noise) and the variant index.
    fn variant_rng(&self, trace: &Trace, variant_idx: usize) -> StdRng {
        let mut h = self.config.seed;
        for v in [
            trace.user().as_u64(),
            trace.start_time().as_unix() as u64,
            variant_idx as u64,
        ] {
            h ^= mix64(v);
            h = mix64(h);
        }
        StdRng::seed_from_u64(h)
    }

    /// The base LPPM variant `idx` applies: a single's own, or the last
    /// stage `x` of a composition `p → x`.
    fn stage_lppm(&self, idx: usize) -> &dyn Lppm {
        let n = self.base.len();
        let i = if idx < n { idx } else { self.links[idx - n].1 };
        self.base[i].as_ref()
    }

    /// Variant `idx`'s published name: "Geo-I", or a chain like
    /// "HMC→Geo-I".
    fn variant_name(&self, idx: usize) -> &str {
        match idx.checked_sub(self.base.len()) {
            Some(k) => self.compositions[k].name(),
            None => self.base[idx].name(),
        }
    }

    /// The compositions that extend variant `prefix` by one stage, in
    /// variant order.
    fn extensions(&self, prefix: usize) -> impl Iterator<Item = usize> + '_ {
        let n = self.base.len();
        self.links
            .iter()
            .enumerate()
            .filter(move |(_, link)| link.0 == prefix)
            .map(move |(k, _)| n + k)
    }

    /// Applies variant `idx`'s stage to `input` on a scratch arena, under
    /// the variant RNG derived from the raw (sub-)trace `trace`: a single
    /// applies its LPPM to `trace` itself, and a composition `p → x`
    /// applies `x` to `p`'s candidate. The records land in one of the
    /// scratch's spare buffers instead of a fresh allocation;
    /// [`CandidateScratch::recycle`] hands the buffer back.
    fn apply_candidate(
        &self,
        trace: &Trace,
        input: &Trace,
        idx: usize,
        scratch: &mut CandidateScratch,
    ) -> Trace {
        let mut rng = self.variant_rng(trace, idx);
        let mut buf = scratch.spare.pop().unwrap_or_default();
        if buf.capacity() > 0 {
            self.scratch.reuses.fetch_add(1, Ordering::Relaxed);
        }
        if scratch.attack.is_warm() {
            self.scratch.attack_reuses.fetch_add(1, Ordering::Relaxed);
        }
        self.stage_lppm(idx).apply(input, &mut rng, &mut buf);
        // `apply` yields time-sorted records (the `Trace` invariant),
        // so this re-sort is a stable identity pass: the candidate is
        // byte-identical to what `protect` would have returned.
        Trace::new(trace.user(), buf).expect("LPPMs never produce an empty trace")
    }

    /// Scores single `idx` in full: the verdict, then the distortion of
    /// a resilient candidate, which keeps its buffer inside the returned
    /// [`ProtectedTrace`].
    fn score_candidate(
        &self,
        trace: &Trace,
        idx: usize,
        scratch: &mut CandidateScratch,
    ) -> Option<ProtectedTrace> {
        let candidate = self.apply_candidate(trace, trace, idx, scratch);
        if !self
            .suite
            .protects_with(&candidate, trace.user(), &mut scratch.attack)
        {
            scratch.recycle(candidate);
            return None;
        }
        Some(ProtectedTrace {
            distortion_m: spatio_temporal_distortion(trace, &candidate),
            trace: candidate,
            lppm: self.variant_name(idx).to_string(),
        })
    }

    /// Runs `f`, attributing its wall time to `stage` when an observer
    /// is attached. Without one, this is exactly `f()` — no clock read.
    fn observe<R>(&self, stage: usize, count: u64, f: impl FnOnce() -> R) -> R {
        match &self.obs {
            Some(agg) => {
                let t0 = Instant::now();
                let out = f();
                agg.record_n(stage, t0.elapsed().as_nanos() as u64, count);
                out
            }
            None => f(),
        }
    }

    /// Scores every single-stage candidate for `trace` in full, one per
    /// base LPPM in base order, without a budget: `Some` for a variant
    /// that resists the suite, `None` for one an attack re-identifies.
    /// The verdicts come back in job order on every executor backend and
    /// thread count, since each job's randomness is a pure function of
    /// its variant index.
    ///
    /// These are the very draws MooD's single stage ranks, so
    /// a per-LPPM baseline read from here shares MooD's noise: without a
    /// candidate budget, a user any single LPPM protects is protected by
    /// MooD's single stage, at no more distortion.
    pub fn single_candidates(&self, trace: &Trace) -> Vec<Option<ProtectedTrace>> {
        let n = self.base.len();
        // One aggregated observation for the whole batch (count =
        // candidates), never a per-candidate span: overhead stays
        // bounded by batch count, not candidate count.
        self.observe(STAGE_CANDIDATE_EVAL, n as u64, || {
            exec::map_indexed(self.executor.as_ref(), n, |i| {
                self.score_candidate(trace, i, self.scratch.take().scratch_mut())
            })
        })
    }

    /// Settles candidate `idx` of a bound-first search against `best`:
    /// a copy of it becomes the new best, or it is dropped. Either way
    /// the candidate itself stays with the caller, which may extend it.
    /// Returns whether `best` holds a resilient candidate.
    ///
    /// While nothing is resilient yet, the verdict runs first and the
    /// full distortion follows for a resilient candidate. Once `best`
    /// holds a resilient candidate, its distortion `d*` bounds this one:
    /// the distortion runs first, stops as soon as it provably exceeds
    /// `d*`, and only a candidate whose key still ranks before the best
    /// one's reaches the attack suite.
    fn settle_candidate(
        &self,
        trace: &Trace,
        idx: usize,
        candidate: &Trace,
        scratch: &mut CandidateScratch,
        best: &BestSoFar,
    ) -> bool {
        let bound = lock(best).as_ref().map(|(_, p)| p.distortion_m);
        let mut resists = || {
            self.suite
                .protects_with(candidate, trace.user(), &mut scratch.attack)
        };
        let distortion = match bound {
            None => resists().then(|| spatio_temporal_distortion(trace, candidate)),
            Some(bound) => {
                spatio_temporal_distortion_within(trace, candidate, bound).filter(|&d| {
                    // Read the key in its own statement: the verdict must
                    // not run under the lock.
                    let can_win = ranks_before(d, idx, lock(best).as_ref());
                    can_win && resists()
                })
            }
        };
        let Some(d) = distortion else {
            return bound.is_some();
        };
        // Copied outside the lock; the copy holds no spare capacity.
        let kept = ProtectedTrace {
            trace: candidate.clone(),
            lppm: self.variant_name(idx).to_string(),
            distortion_m: d,
        };
        let mut held = lock(best);
        if ranks_before(d, idx, held.as_ref()) {
            *held = Some((idx, kept));
        }
        true
    }

    /// The resilient candidate among `variants` ranked first by
    /// `(distortion, variant_idx)` (Best LPPM Selection, §3.5; the index
    /// tiebreak pins ties to the earliest variant, which is what the
    /// sequential reference scan selected).
    ///
    /// `apply` applies every variant of `variants` below the end it is
    /// given and hands each candidate to the visit it is given. The
    /// search is bound-first ([`MoodEngine::settle_candidate`]): a
    /// candidate is dropped only against the key of a candidate already
    /// known to be resilient, and that key only ever falls, so the
    /// winner is the exhaustive argmin on every backend and thread
    /// count. Which losing candidates reach the attack suite may depend
    /// on scheduling; what is published does not.
    fn best_resilient(
        &self,
        trace: &Trace,
        variants: Range<usize>,
        budget: &mut BudgetState,
        apply: impl FnOnce(usize, &Visit<'_>),
    ) -> Option<ProtectedTrace> {
        // Deadline-aware cut: only the first variants (in job order)
        // are tried, so the set of candidates ever tried is a pure
        // function of the budget — identical across executor backends
        // and thread counts. Skipped candidates are skipped whole. A
        // tried candidate may be dropped part-way, once the bound shows
        // it cannot win; the published one is always fully scored.
        let end = variants.start + budget.take(variants.len());
        self.observe(STAGE_CANDIDATE_EVAL, (end - variants.start) as u64, || {
            #[cfg(test)]
            if self.exhaustive_selection {
                return tests::exhaustive_argmin(self, trace, variants.start..end);
            }
            let best = BestSoFar::new(None);
            apply(end, &|scratch, idx, candidate| {
                self.settle_candidate(trace, idx, candidate, scratch, &best)
            });
            best.into_inner()
                .expect("best-candidate lock")
                .map(|(_, winner)| winner)
        })
    }

    /// Applies the first `end` base LPPMs to `trace`, each under its own
    /// variant RNG, and visits each candidate. Returns the candidates in
    /// base order, the prefixes the composition stage extends: all of
    /// them when no visit found a resilient one, which is the only case
    /// in which compositions run.
    fn apply_singles(&self, trace: &Trace, end: usize, visit: &Visit<'_>) -> Vec<Option<Trace>> {
        exec::map_indexed(self.executor.as_ref(), end, |i| {
            let mut lease = self.scratch.take();
            let scratch = lease.scratch_mut();
            let candidate = self.apply_candidate(trace, trace, i, scratch);
            if visit(scratch, i, &candidate) {
                scratch.recycle(candidate);
                return None;
            }
            Some(candidate)
        })
    }

    /// Applies and visits every composition below variant `end`, each as
    /// one stage on its prefix's candidate; `singles` holds the single
    /// stage's candidates in base order. Each pair's subtree is one job,
    /// run depth first (the pair, then its extensions on the pair's
    /// output) on one leased scratch, so a job holds one prefix per
    /// depth.
    fn apply_compositions(
        &self,
        trace: &Trace,
        singles: &[Option<Trace>],
        end: usize,
        visit: &Visit<'_>,
    ) {
        let n = self.base.len();
        let pairs: Vec<usize> = (n..end).filter(|&c| self.links[c - n].0 < n).collect();
        self.executor.for_each_index(pairs.len(), &|k| {
            let single = singles[self.links[pairs[k] - n].0]
                .as_ref()
                .expect("compositions run only when no single is resilient");
            let mut lease = self.scratch.take();
            self.extend(trace, single, pairs[k], end, lease.scratch_mut(), visit);
        });
    }

    /// Applies composition `idx` to its prefix's candidate `prefix` and
    /// visits it, then extends it by every composition below `end` that
    /// has it as prefix.
    fn extend(
        &self,
        trace: &Trace,
        prefix: &Trace,
        idx: usize,
        end: usize,
        scratch: &mut CandidateScratch,
        visit: &Visit<'_>,
    ) {
        let candidate = self.apply_candidate(trace, prefix, idx, scratch);
        visit(scratch, idx, &candidate);
        for next in self.extensions(idx).filter(|&c| c < end) {
            self.extend(trace, &candidate, next, end, scratch, visit);
        }
        scratch.recycle(candidate);
    }

    /// Single-LPPM stage (Algorithm 1 lines 4–14): the resilient single
    /// LPPM with the lowest distortion, if any.
    #[cfg(test)]
    pub(crate) fn search_single(&self, trace: &Trace) -> Option<ProtectedTrace> {
        let (found, singles) = self.search_single_in(trace, &mut BudgetState::unlimited());
        self.scratch.recycle(singles);
        found
    }

    /// The single stage, also returning the candidates it tried in base
    /// order: the composition stage extends them when none is resilient.
    fn search_single_in(
        &self,
        trace: &Trace,
        budget: &mut BudgetState,
    ) -> (Option<ProtectedTrace>, Vec<Option<Trace>>) {
        self.observe(STAGE_SEARCH_SINGLE, 1, || {
            let mut singles = Vec::new();
            let found = self.best_resilient(trace, 0..self.base.len(), budget, |end, visit| {
                singles = self.apply_singles(trace, end, visit);
            });
            (found, singles)
        })
    }

    /// Composition stage (lines 16–26): the resilient composition with
    /// the lowest distortion, if any. Called alone, it applies the
    /// singles it extends itself, without judging them.
    ///
    /// Each composition `p → x` is one draw of `x`, under its own
    /// variant RNG, on the candidate `p` already produced, so a search
    /// over the 12 compositions of n = 3 applies 12 stages, not 30.
    ///
    /// Note: the paper's line 26 reads `argmax M`; we interpret `M`
    /// uniformly as a distortion to minimize (the paper's own §3.5:
    /// "the lower the distortion the better").
    #[cfg(test)]
    pub(crate) fn search_composition(&self, trace: &Trace) -> Option<ProtectedTrace> {
        let singles = self.apply_singles(trace, self.base.len(), &|_, _, _| false);
        let found = self.search_composition_in(trace, &singles, &mut BudgetState::unlimited());
        self.scratch.recycle(singles);
        found
    }

    fn search_composition_in(
        &self,
        trace: &Trace,
        singles: &[Option<Trace>],
        budget: &mut BudgetState,
    ) -> Option<ProtectedTrace> {
        let n = self.base.len();
        self.observe(STAGE_SEARCH_COMPOSITION, 1, || {
            self.best_resilient(
                trace,
                n..n + self.compositions.len(),
                budget,
                |end, visit| self.apply_compositions(trace, singles, end, visit),
            )
        })
    }

    /// The whole-trace Multi-LPPM Composition Search: singles first,
    /// compositions only when no single works (Algorithm 1's ordering).
    /// The boolean reports whether a composition was needed.
    #[cfg(test)]
    pub(crate) fn search_whole(&self, trace: &Trace) -> Option<(ProtectedTrace, bool)> {
        self.search_whole_in(trace, &mut BudgetState::unlimited())
    }

    fn search_whole_in(
        &self,
        trace: &Trace,
        budget: &mut BudgetState,
    ) -> Option<(ProtectedTrace, bool)> {
        let (single, singles) = self.search_single_in(trace, budget);
        let found = match single {
            Some(p) => Some((p, false)),
            None => self
                .search_composition_in(trace, &singles, budget)
                .map(|p| (p, true)),
        };
        self.scratch.recycle(singles);
        found
    }

    /// Recursive fine-grained protection (lines 27–36): whole-trace
    /// search on the sub-trace; on failure split in half by time and
    /// recurse while the sub-trace spans at least δ; below δ the records
    /// are erased.
    fn protect_recursive(
        &self,
        trace: &Trace,
        published: &mut Vec<ProtectedTrace>,
        stats: &mut FineGrainedStats,
        budget: &mut BudgetState,
    ) {
        stats.sub_traces_total += 1;
        if let Some((p, _)) = self.search_whole_in(trace, budget) {
            stats.sub_traces_protected += 1;
            stats.records_published += trace.len();
            published.push(p);
            return;
        }
        if trace.duration() >= self.config.delta {
            // A degenerate split (all records at one instant) yields
            // nothing to recurse on; treat the sub-trace as
            // unprotectable rather than looping.
            match self.config.split_strategy.split(trace) {
                Some((l, r)) => {
                    self.protect_recursive(&l, published, stats, budget);
                    self.protect_recursive(&r, published, stats, budget);
                }
                None => stats.records_dropped += trace.len(),
            }
        } else {
            stats.records_dropped += trace.len();
        }
    }

    /// Protects one user's trace end to end (Algorithm 1 plus the §4.2
    /// experimental protocol) and classifies the user.
    pub fn protect_user(&self, trace: &Trace) -> UserProtection {
        // The raw-trace check scores on a pooled scratch. It is
        // deliberately outside the candidate budget: the user's taxonomy
        // class must not depend on how much compute the request was
        // granted.
        let naturally_protected = self.observe(STAGE_RAW_CHECK, 1, || {
            let mut lease = self.scratch.take();
            self.suite
                .protects_with(trace, trace.user(), &mut lease.scratch_mut().attack)
        });

        let mut budget = BudgetState::new(self.candidate_budget);
        if let Some((protected, via_composition)) = self.search_whole_in(trace, &mut budget) {
            let class = if naturally_protected {
                UserClass::NaturallyProtected
            } else if via_composition {
                UserClass::MultiLppm
            } else {
                UserClass::SingleLppm
            };
            return UserProtection {
                user: trace.user(),
                class,
                outcome: ProtectionOutcome::Whole(protected),
                original_records: trace.len(),
                degraded: budget.exhausted,
            };
        }

        // Fine-grained stage: initial windows (24 h in the paper), then
        // recursive halving with the δ floor. An exhausted budget makes
        // every remaining whole-trace search come up empty, so the
        // remaining sub-traces drop their records — deterministically,
        // since the cut point is fixed by (budget, candidates scored).
        let mut published = Vec::new();
        let mut stats = FineGrainedStats::default();
        self.observe(STAGE_FINE_GRAINED, 1, || match self.config.initial_window {
            Some(window) => {
                for sub in trace.windows(window) {
                    self.protect_recursive(&sub, &mut published, &mut stats, &mut budget);
                }
            }
            None => self.protect_recursive(trace, &mut published, &mut stats, &mut budget),
        });

        let class = if naturally_protected {
            UserClass::NaturallyProtected
        } else if published.is_empty() {
            UserClass::Unprotectable
        } else {
            UserClass::FineGrained
        };
        UserProtection {
            user: trace.user(),
            class,
            outcome: ProtectionOutcome::FineGrained { published, stats },
            original_records: trace.len(),
            degraded: budget.exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mood_attacks::{Prediction, TrainedAttack};
    use mood_geo::GeoPoint;
    use mood_synth::{presets, DatasetSpec};
    use mood_trace::{TimeDelta, UserId};
    use rand::RngCore;
    use std::sync::atomic::AtomicUsize;

    fn mini_world() -> (Dataset, Dataset) {
        world(presets::privamov_like().scaled(0.25))
    }

    fn world(spec: DatasetSpec) -> (Dataset, Dataset) {
        spec.generate()
            .split_chronological(TimeDelta::from_days(15))
    }

    /// The scaled-down privamov-like and cabspotting-like worlds.
    fn both_presets() -> [(Dataset, Dataset); 2] {
        [
            world(presets::privamov_like().scaled(0.15)),
            world(presets::cabspotting_like().scaled(0.02)),
        ]
    }

    /// Variant `idx`'s candidate, built the allocating way: `protect`
    /// under `variant_rng(idx)`, on the raw trace for a single and on
    /// its prefix's candidate for a composition `p → x`.
    fn tree_candidate(engine: &MoodEngine, trace: &Trace, idx: usize) -> Trace {
        let mut rng = engine.variant_rng(trace, idx);
        match idx.checked_sub(engine.base.len()) {
            None => engine.base[idx].protect(trace, &mut rng),
            Some(k) => {
                let (prefix, last) = engine.links[k];
                engine.base[last].protect(&tree_candidate(engine, trace, prefix), &mut rng)
            }
        }
    }

    /// The selection before bound-first search, kept as the oracle:
    /// build every candidate of `variants` as the tree defines it
    /// ([`tree_candidate`]), score each in full, then take the minimum
    /// by distortion (`total_cmp`), then variant index.
    pub(super) fn exhaustive_argmin(
        engine: &MoodEngine,
        trace: &Trace,
        variants: Range<usize>,
    ) -> Option<ProtectedTrace> {
        let mut scratch = AttackScratch::new();
        variants
            .filter_map(|idx| {
                let candidate = tree_candidate(engine, trace, idx);
                let resists = engine
                    .suite
                    .protects_with(&candidate, trace.user(), &mut scratch);
                resists.then(|| ProtectedTrace {
                    distortion_m: spatio_temporal_distortion(trace, &candidate),
                    trace: candidate,
                    lppm: engine.variant_name(idx).to_string(),
                })
            })
            .min_by(|a, b| a.distortion_m.total_cmp(&b.distortion_m))
    }

    /// Moves every record `dlat` degrees north: a deterministic LPPM
    /// whose distortion grows with `dlat`.
    struct Northward {
        name: &'static str,
        dlat: f64,
    }

    impl Lppm for Northward {
        fn name(&self) -> &str {
            self.name
        }

        fn apply(&self, trace: &Trace, _rng: &mut dyn RngCore, out: &mut Vec<Record>) {
            out.clear();
            out.extend(trace.records().iter().map(|r| {
                let p = r.point();
                r.with_point(GeoPoint::new(p.lat() + self.dlat, p.lng()).unwrap())
            }));
        }
    }

    /// An attack that never re-identifies anyone: every candidate is
    /// resilient, so selection is decided by distortion alone.
    struct Blind;

    impl TrainedAttack for Blind {
        fn name(&self) -> &'static str {
            "Blind"
        }

        fn predict(&self, _trace: &Trace) -> Prediction {
            Prediction::none()
        }
    }

    /// Forwards to `inner` and counts the scratch verdicts, the engine's
    /// only route to the suite.
    struct Counting {
        inner: Box<dyn TrainedAttack>,
        calls: Arc<AtomicUsize>,
    }

    impl Counting {
        fn wrap(inner: Box<dyn TrainedAttack>) -> (Box<dyn TrainedAttack>, Arc<AtomicUsize>) {
            let calls = Arc::new(AtomicUsize::new(0));
            let counting = Counting {
                inner,
                calls: Arc::clone(&calls),
            };
            (Box::new(counting), calls)
        }
    }

    impl TrainedAttack for Counting {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn predict(&self, trace: &Trace) -> Prediction {
            self.inner.predict(trace)
        }

        fn reidentify_with(
            &self,
            trace: &Trace,
            true_user: UserId,
            scratch: &mut AttackScratch,
        ) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.reidentify_with(trace, true_user, scratch)
        }
    }

    /// An engine over `lppms` judged by one counting [`Blind`] attack.
    fn northward_engine(
        lppms: Vec<Arc<dyn Lppm>>,
        executor: Arc<dyn Executor>,
    ) -> (MoodEngine, Arc<AtomicUsize>) {
        let (blind, calls) = Counting::wrap(Box::new(Blind));
        let engine = EngineBuilder::new(Arc::new(AttackSuite::from_trained(vec![blind])))
            .lppms(lppms)
            .executor(executor)
            .build()
            .unwrap();
        (engine, calls)
    }

    fn north(name: &'static str, dlat: f64) -> Arc<dyn Lppm> {
        Arc::new(Northward { name, dlat })
    }

    #[test]
    fn paper_default_wiring() {
        let (bg, _) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        assert_eq!(engine.lppms().len(), 3);
        assert_eq!(engine.compositions().len(), 12); // C - L for n = 3
        assert_eq!(engine.suite().len(), 3);
    }

    #[test]
    fn protect_user_is_deterministic() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let trace = test.iter().next().unwrap();
        let a = engine.protect_user(trace);
        let b = engine.protect_user(trace);
        assert_eq!(a, b);
    }

    #[test]
    fn published_variants_resist_the_suite() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        for trace in test.iter().take(6) {
            let result = engine.protect_user(trace);
            for p in result.outcome.published() {
                assert!(
                    engine.suite().protects(&p.trace, trace.user()),
                    "published variant of {} re-identified",
                    trace.user()
                );
                assert!(p.distortion_m.is_finite() && p.distortion_m >= 0.0);
                assert!(!p.lppm.is_empty());
            }
        }
    }

    #[test]
    fn single_stage_preferred_over_composition() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        for trace in test.iter().take(6) {
            if let Some(p_single) = engine.search_single(trace) {
                let (p, via_comp) = engine.search_whole(trace).unwrap();
                assert!(!via_comp);
                assert_eq!(p.lppm, p_single.lppm);
                // single names contain no chain arrow
                assert!(!p.lppm.contains('→'));
            }
        }
    }

    #[test]
    fn selection_minimizes_distortion_among_singles() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let trace = test.iter().next().unwrap();
        if let Some(best) = engine.search_single(trace) {
            // re-derive every resilient single's distortion and check min
            for (i, lppm) in engine.lppms().iter().enumerate() {
                let mut rng = engine.variant_rng(trace, i);
                let cand = lppm.protect(trace, &mut rng);
                if engine.suite().protects(&cand, trace.user()) {
                    let d = spatio_temporal_distortion(trace, &cand);
                    assert!(best.distortion_m <= d + 1e-9);
                }
            }
        }
    }

    #[test]
    fn fine_grained_accounts_every_record() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        for trace in test.iter() {
            let result = engine.protect_user(trace);
            if let ProtectionOutcome::FineGrained { stats, .. } = &result.outcome {
                assert_eq!(
                    stats.records_published + stats.records_dropped,
                    trace.len(),
                    "record accounting broken for {}",
                    trace.user()
                );
                assert!(stats.sub_traces_protected <= stats.sub_traces_total);
            }
        }
    }

    #[test]
    fn classes_are_consistent_with_outcomes() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        for trace in test.iter() {
            let r = engine.protect_user(trace);
            match (&r.class, &r.outcome) {
                (UserClass::SingleLppm | UserClass::MultiLppm, ProtectionOutcome::Whole(_)) => {}
                (UserClass::NaturallyProtected, _) => {}
                (UserClass::FineGrained, ProtectionOutcome::FineGrained { published, .. }) => {
                    assert!(!published.is_empty());
                }
                (UserClass::Unprotectable, ProtectionOutcome::FineGrained { published, .. }) => {
                    assert!(published.is_empty());
                }
                (class, outcome) => {
                    panic!("inconsistent class {class:?} for outcome {outcome:?}")
                }
            }
        }
    }

    #[test]
    fn max_composition_len_one_disables_compositions() {
        let (bg, _) = mini_world();
        let full = MoodEngine::paper_default(&bg);
        let mut config = MoodConfig::paper_default();
        config.max_composition_len = 1;
        let engine = EngineBuilder::new(Arc::new(AttackSuite::train(
            &[&ApAttack::paper_default() as &dyn Attack],
            &bg,
        )))
        .lppms_shared(full.shared_lppms())
        .config(config)
        .build()
        .unwrap();
        assert!(engine.compositions().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one LPPM")]
    fn rejects_empty_lppm_set() {
        let (bg, _) = mini_world();
        let suite = Arc::new(AttackSuite::train(
            &[&ApAttack::paper_default() as &dyn Attack],
            &bg,
        ));
        MoodEngine::new(suite, vec![], MoodConfig::paper_default());
    }

    #[test]
    fn algorithm1_verbatim_mode_without_initial_window() {
        // initial_window = None runs Algorithm 1 exactly as printed:
        // recursive halving starts on the whole trace.
        let (bg, test) = mini_world();
        let base = MoodEngine::paper_default(&bg);
        let mut config = MoodConfig::paper_default();
        config.initial_window = None;
        let engine = EngineBuilder::new(Arc::new(AttackSuite::train(
            &[&ApAttack::paper_default() as &dyn Attack],
            &bg,
        )))
        .lppms_shared(base.shared_lppms())
        .config(config)
        .build()
        .unwrap();
        for trace in test.iter().take(3) {
            let r = engine.protect_user(trace);
            if let crate::ProtectionOutcome::FineGrained { stats, .. } = &r.outcome {
                assert_eq!(stats.records_published + stats.records_dropped, trace.len());
            }
        }
    }

    #[test]
    fn split_strategies_all_account_records() {
        let (bg, test) = mini_world();
        let base = MoodEngine::paper_default(&bg);
        for strategy in [
            crate::SplitStrategy::Halving,
            crate::SplitStrategy::LargestGap,
            crate::SplitStrategy::InterPoi,
        ] {
            let mut config = MoodConfig::paper_default();
            config.split_strategy = strategy;
            let engine = EngineBuilder::new(base.shared_suite())
                .lppms_shared(base.shared_lppms())
                .config(config)
                .build()
                .unwrap();
            for trace in test.iter().take(4) {
                let r = engine.protect_user(trace);
                if let crate::ProtectionOutcome::FineGrained { stats, .. } = &r.outcome {
                    assert_eq!(
                        stats.records_published + stats.records_dropped,
                        trace.len(),
                        "{strategy}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_lppm_engine_enumerates_the_full_space() {
        // extending the base set with a 4th LPPM (the paper's §6
        // extension hook) grows |C| to Σ 4!/(4-i)! = 64
        let (bg, test) = mini_world();
        let base = MoodEngine::paper_default(&bg);
        let mut lppms = base.lppms().to_vec();
        lppms.push(Arc::new(mood_lppm::SpatialCloaking::from_background(
            &bg, 800.0,
        )));
        let engine = EngineBuilder::new(base.shared_suite())
            .lppms(lppms)
            .build()
            .unwrap();
        assert_eq!(engine.lppms().len(), 4);
        assert_eq!(engine.lppms().len() + engine.compositions().len(), 64);
        // and the bigger search space still produces resilient output
        let trace = test.iter().next().unwrap();
        let r = engine.protect_user(trace);
        for p in r.outcome.published() {
            assert!(engine.suite().protects(&p.trace, trace.user()));
        }
    }

    #[test]
    fn builder_rejects_empty_lppm_set() {
        let (bg, _) = mini_world();
        let suite = Arc::new(AttackSuite::train(
            &[&ApAttack::paper_default() as &dyn Attack],
            &bg,
        ));
        let err = EngineBuilder::new(suite).build().unwrap_err();
        assert_eq!(err, EngineError::EmptyLppmSet);
        assert!(err.to_string().contains("at least one LPPM"));
    }

    #[test]
    fn builder_rejects_invalid_config() {
        let (bg, _) = mini_world();
        let mut config = MoodConfig::paper_default();
        config.delta = mood_trace::TimeDelta::from_secs(0);
        let err = EngineBuilder::paper_default(&bg)
            .config(config)
            .build()
            .unwrap_err();
        match err {
            EngineError::InvalidConfig(msg) => assert!(msg.contains("delta")),
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn builder_customizes_seed_depth_and_executor() {
        let (bg, _) = mini_world();
        let engine = EngineBuilder::paper_default(&bg)
            .seed(99)
            .max_composition_len(1)
            .executor(crate::ExecutorKind::Persistent.build(4))
            .build()
            .unwrap();
        assert_eq!(engine.config().seed, 99);
        assert!(engine.compositions().is_empty());
        assert_eq!(engine.executor.name(), "persistent");
        assert_eq!(engine.executor.max_threads(), 4);
    }

    #[test]
    fn protection_is_identical_across_candidate_executors() {
        let (bg, test) = mini_world();
        let reference = MoodEngine::paper_default(&bg);
        for kind in crate::ExecutorKind::all() {
            for threads in [1usize, 2, 8] {
                let engine = EngineBuilder::paper_default(&bg)
                    .executor(kind.build(threads))
                    .build()
                    .unwrap();
                for trace in test.iter().take(4) {
                    assert_eq!(
                        engine.protect_user(trace),
                        reference.protect_user(trace),
                        "{kind} x{threads} diverged on {}",
                        trace.user()
                    );
                }
            }
        }
    }

    #[test]
    fn stage_observer_changes_nothing_but_records_stages() {
        let (bg, test) = mini_world();
        let plain = MoodEngine::paper_default(&bg);
        let agg = Arc::new(StageAgg::new(&ENGINE_STAGES));
        let observed = EngineBuilder::paper_default(&bg)
            .stage_observer(Arc::clone(&agg))
            .build()
            .unwrap();
        for trace in test.iter().take(4) {
            assert_eq!(
                plain.protect_user(trace),
                observed.protect_user(trace),
                "observer must not change protection results for {}",
                trace.user()
            );
        }
        let totals = agg.snapshot();
        let stage = |name: &str| totals.iter().find(|t| t.stage == name);
        let raw = stage("raw_check").expect("raw check observed");
        assert_eq!(raw.count, 4, "one raw check per user");
        let eval = stage("candidate_eval").expect("candidate evaluation observed");
        assert!(
            eval.count >= 4 * 3,
            "at least one single-LPPM batch per user, got {}",
            eval.count
        );
        assert!(
            stage("search_single").is_some(),
            "single-LPPM stage observed"
        );
    }

    #[test]
    fn candidate_budget_degrades_deterministically() {
        let (bg, test) = mini_world();
        let unlimited = MoodEngine::paper_default(&bg);
        let starved = EngineBuilder::paper_default(&bg)
            .candidate_budget(1)
            .build()
            .unwrap();
        let mut saw_degraded = false;
        for trace in test.iter().take(6) {
            let a = starved.protect_user(trace);
            let b = starved.protect_user(trace);
            assert_eq!(a, b, "budgeted protection must be deterministic");
            saw_degraded |= a.degraded;
            // Degraded output is still made only of fully scored
            // candidates: whatever is published resists the suite.
            for p in a.outcome.published() {
                assert!(
                    unlimited.suite().protects(&p.trace, trace.user()),
                    "degraded output of {} not resilient",
                    trace.user()
                );
            }
            assert!(
                !unlimited.protect_user(trace).degraded,
                "an unbudgeted engine never degrades"
            );
        }
        assert!(
            saw_degraded,
            "budget=1 must exhaust the candidate search for at least one user"
        );
    }

    #[test]
    fn budgeted_protection_is_identical_across_executors() {
        // The cut point is a prefix in deterministic job order, so the
        // degraded result must not depend on backend or thread count.
        let (bg, test) = mini_world();
        let reference = EngineBuilder::paper_default(&bg)
            .candidate_budget(7)
            .build()
            .unwrap();
        for kind in crate::ExecutorKind::all() {
            for threads in [1usize, 4] {
                let engine = EngineBuilder::paper_default(&bg)
                    .candidate_budget(7)
                    .executor(kind.build(threads))
                    .build()
                    .unwrap();
                for trace in test.iter().take(3) {
                    assert_eq!(
                        engine.protect_user(trace),
                        reference.protect_user(trace),
                        "{kind} x{threads} diverged under budget on {}",
                        trace.user()
                    );
                }
            }
        }
    }

    #[test]
    fn huge_budget_equals_the_unlimited_engine() {
        let (bg, test) = mini_world();
        let unlimited = MoodEngine::paper_default(&bg);
        let roomy = EngineBuilder::paper_default(&bg)
            .candidate_budget(usize::MAX)
            .build()
            .unwrap();
        for trace in test.iter().take(4) {
            let r = roomy.protect_user(trace);
            assert!(!r.degraded);
            assert_eq!(unlimited.protect_user(trace), r);
        }
    }

    #[test]
    fn evaluate_candidates_reports_in_job_order() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        for trace in test.iter() {
            let verdicts = engine.single_candidates(trace);
            assert_eq!(verdicts.len(), engine.lppms().len());
            // Every verdict must agree with the allocating oracle: the
            // base LPPM's `protect` under the variant's own stream.
            for (i, v) in verdicts.iter().enumerate() {
                let lppm = &engine.lppms()[i];
                let mut rng = engine.variant_rng(trace, i);
                let cand = lppm.protect(trace, &mut rng);
                let who = format!("variant {i} of {}", trace.user());
                match v {
                    Some(p) => {
                        assert!(engine.suite().protects(&cand, trace.user()), "{who}");
                        assert_eq!(p.trace, cand, "{who}");
                        assert_eq!(p.lppm, lppm.name(), "{who}");
                        assert_eq!(
                            p.distortion_m.to_bits(),
                            spatio_temporal_distortion(trace, &cand).to_bits(),
                            "{who}"
                        );
                    }
                    None => assert!(!engine.suite().protects(&cand, trace.user()), "{who}"),
                }
            }
        }
    }

    #[test]
    fn scratch_arena_is_reused_after_warmup() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let trace = test.iter().next().unwrap();
        // The first search warms the pool: it allocates one buffer per
        // candidate held at once, and the single stage holds its
        // candidates until one is resilient, since the composition
        // stage extends them. Every later search starts from recycled
        // buffers.
        let _ = engine.protect_user(trace);
        let cold = engine.scratch_reuses();
        let _ = engine.protect_user(trace);
        let after_warmup = engine.scratch_reuses();
        assert!(
            after_warmup > cold,
            "a search after the warm-up must reuse the arena"
        );
        let _ = engine.protect_user(trace);
        assert!(
            engine.scratch_reuses() > after_warmup,
            "later users must keep reusing the warmed-up arenas"
        );
        // Reuse must not change results (byte-identical determinism).
        assert_eq!(engine.protect_user(trace), engine.protect_user(trace));
    }

    #[test]
    fn attack_scratch_is_reused() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        for trace in test.iter() {
            let _ = engine.protect_user(trace);
        }
        // Multi-candidate scoring must run on warmed attack arenas.
        assert!(
            engine.attack_scratch_reuses() > 0,
            "candidate scoring never reused a warm attack scratch"
        );
    }

    #[test]
    fn sibling_engine_trains_for_free_through_the_shared_store() {
        let (bg, test) = mini_world();
        let first = MoodEngine::paper_default(&bg);
        let store = first
            .profile_store()
            .expect("paper_default always attaches a store");
        let cold = store.counters();
        assert!(cold.misses > 0 && cold.profile_builds > 0);
        // POI and PIT share one extraction pass even inside one suite.
        assert!(cold.hits > 0, "PIT must reuse POI's profile extraction");

        let second = EngineBuilder::paper_default_with_store(&bg, store)
            .build()
            .unwrap();
        let warm = second
            .profile_store()
            .expect("the shared store stays attached")
            .counters();
        assert_eq!(
            warm.profile_builds, cold.profile_builds,
            "second engine over the same background must build zero profiles"
        );
        assert_eq!(warm.misses, cold.misses);
        assert!(warm.hits > cold.hits);

        // Shared profiles must not change verdicts.
        let trace = test.iter().next().unwrap();
        assert_eq!(first.protect_user(trace), second.protect_user(trace));
    }

    #[test]
    fn engines_without_a_store_report_zero_counters() {
        let (bg, _) = mini_world();
        let suite = Arc::new(AttackSuite::train(
            &[&ApAttack::paper_default() as &dyn Attack],
            &bg,
        ));
        let engine = EngineBuilder::new(suite)
            .lppms(vec![Arc::new(GeoI::paper_default())])
            .build()
            .unwrap();
        assert!(engine.profile_store().is_none());
    }

    #[test]
    fn shared_lppm_sets_are_not_copied() {
        let (bg, _) = mini_world();
        let base = MoodEngine::paper_default(&bg);
        let sibling = EngineBuilder::new(base.shared_suite())
            .lppms_shared(base.shared_lppms())
            .seed(1234)
            .build()
            .unwrap();
        // Same allocation, not a clone: the slices share an address.
        assert!(std::ptr::eq(
            base.lppms().as_ptr(),
            sibling.lppms().as_ptr()
        ));
        assert_eq!(sibling.compositions().len(), base.compositions().len());
    }

    #[test]
    fn user_ids_preserved_in_outcomes() {
        let (bg, test) = mini_world();
        let engine = MoodEngine::paper_default(&bg);
        let trace = test.iter().next().unwrap();
        let r = engine.protect_user(trace);
        assert_eq!(r.user, trace.user());
        for p in r.outcome.published() {
            assert_eq!(p.trace.user(), trace.user());
        }
        assert_ne!(r.user, UserId::new(999_999));
    }

    #[test]
    fn bound_first_selection_equals_the_exhaustive_argmin() {
        let executors = [
            crate::ExecutorKind::Sequential.build(1),
            crate::ExecutorKind::Persistent.build(2),
            crate::ExecutorKind::Persistent.build(4),
        ];
        // `protect_user` under the engine's budget; the two search
        // stages, which take no budget, once per seed.
        let select = |engine: &MoodEngine, trace: &Trace| {
            let unlimited = engine.candidate_budget == usize::MAX;
            (
                engine.protect_user(trace),
                unlimited.then(|| {
                    (
                        engine.search_single(trace),
                        engine.search_composition(trace),
                    )
                }),
            )
        };
        for (bg, test) in both_presets() {
            let base = MoodEngine::paper_default(&bg);
            let users: Vec<&Trace> = test.iter().take(3).collect();
            for seed in [0, 7, 1000] {
                for budget in [1, 7, usize::MAX] {
                    let build = |executor: &Arc<dyn Executor>| {
                        EngineBuilder::new(base.shared_suite())
                            .lppms_shared(base.shared_lppms())
                            .seed(seed)
                            .candidate_budget(budget)
                            .executor(Arc::clone(executor))
                            .build()
                            .unwrap()
                    };
                    let mut oracle = build(&executors[0]);
                    oracle.exhaustive_selection = true;
                    let expected: Vec<_> = users.iter().map(|t| select(&oracle, t)).collect();
                    for executor in &executors {
                        let engine = build(executor);
                        for (trace, want) in users.iter().zip(&expected) {
                            assert_eq!(
                                &select(&engine, trace),
                                want,
                                "{} seed {seed} budget {budget} on {} x{}",
                                trace.user(),
                                executor.name(),
                                executor.max_threads()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn published_traces_carry_no_spare_capacity() {
        for (bg, test) in both_presets() {
            let engine = MoodEngine::paper_default(&bg);
            let mut published = 0;
            for trace in test.iter() {
                let traces = match engine.protect_user(trace).outcome {
                    ProtectionOutcome::Whole(p) => vec![p],
                    ProtectionOutcome::FineGrained { published, .. } => published,
                };
                for p in traces {
                    let len = p.trace.len();
                    assert_eq!(
                        p.trace.into_records().capacity(),
                        len,
                        "{} published via {}",
                        trace.user(),
                        p.lppm
                    );
                    published += 1;
                }
            }
            assert!(published > 0);
        }
    }

    #[test]
    fn a_candidate_that_cannot_beat_the_best_never_reaches_the_suite() {
        let (_, test) = mini_world();
        let trace = test.iter().next().unwrap();
        // Ascending distortion: after the first resilient candidate,
        // the others are settled by the bound alone.
        let (engine, calls) = northward_engine(
            vec![north("near", 0.001), north("mid", 0.01), north("far", 0.1)],
            Arc::new(SequentialExecutor),
        );
        assert_eq!(engine.search_single(trace).unwrap().lppm, "near");
        assert_eq!(calls.load(Ordering::Relaxed), 1, "only `near` is judged");
        // Descending distortion: each candidate beats the one before,
        // so each must be judged.
        let (engine, calls) = northward_engine(
            vec![north("far", 0.1), north("mid", 0.01), north("near", 0.001)],
            Arc::new(SequentialExecutor),
        );
        assert_eq!(engine.search_single(trace).unwrap().lppm, "near");
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn the_suite_judges_exactly_the_candidates_the_bound_leaves_open() {
        // On real mechanisms and attacks under the sequential executor,
        // a candidate reaches the suite iff nothing before it was
        // resilient or its key ranks before the best so far. Counting
        // the first attack counts the candidates that reach the suite.
        let (bg, test) = mini_world();
        let (first, calls) = Counting::wrap(PoiAttack::paper_default().train(&bg));
        let suite = AttackSuite::from_trained(vec![
            first,
            PitAttack::paper_default().train(&bg),
            ApAttack::paper_default().train(&bg),
        ]);
        let engine = EngineBuilder::new(Arc::new(suite))
            .lppms_shared(MoodEngine::paper_default(&bg).shared_lppms())
            .build()
            .unwrap();
        // The order the sequential executor settles candidates in: the
        // singles, then each pair's subtree, depth first.
        fn subtree(engine: &MoodEngine, idx: usize, order: &mut Vec<usize>) {
            order.push(idx);
            for next in engine.extensions(idx) {
                subtree(engine, next, order);
            }
        }
        let n = engine.base.len();
        let singles: Vec<usize> = (0..n).collect();
        let mut compositions = Vec::new();
        for pair in (n..n + engine.compositions.len()).filter(|&c| engine.links[c - n].0 < n) {
            subtree(&engine, pair, &mut compositions);
        }
        let (mut judged, mut tried) = (0, 0);
        for trace in test.iter() {
            for (stage, order) in [("single", &singles), ("composition", &compositions)] {
                // Predict from every candidate's full score.
                let mut best: Option<(f64, usize)> = None;
                let mut expected = 0;
                for &idx in order {
                    let cand = tree_candidate(&engine, trace, idx);
                    let d = spatio_temporal_distortion(trace, &cand);
                    let can_win =
                        best.is_none_or(|(bd, bi)| d.total_cmp(&bd).then(idx.cmp(&bi)).is_lt());
                    if can_win {
                        expected += 1;
                        if engine.suite().protects(&cand, trace.user()) {
                            best = Some((d, idx));
                        }
                    }
                }
                calls.store(0, Ordering::Relaxed);
                let found = match stage {
                    "single" => engine.search_single(trace),
                    _ => engine.search_composition(trace),
                };
                assert_eq!(found.map(|p| p.distortion_m), best.map(|(d, _)| d));
                assert_eq!(
                    calls.load(Ordering::Relaxed),
                    expected,
                    "{stage} stage of {}",
                    trace.user()
                );
                judged += expected;
                tried += order.len();
            }
        }
        assert!(
            judged < tried,
            "the bound settled no candidate ({judged} of {tried})"
        );
    }

    #[test]
    fn tied_variants_publish_the_lower_index_on_every_executor() {
        let (_, test) = mini_world();
        for executor in [
            crate::ExecutorKind::Sequential.build(1),
            crate::ExecutorKind::Persistent.build(2),
            crate::ExecutorKind::Persistent.build(4),
        ] {
            let threads = executor.max_threads();
            // `twin-a` and `twin-b` publish identical traces at an
            // identical distortion; `far` makes the twins race against
            // a bound under a parallel executor.
            let (engine, _) = northward_engine(
                vec![
                    north("far", 0.1),
                    north("twin-a", 0.01),
                    north("twin-b", 0.01),
                ],
                executor,
            );
            for _ in 0..5 {
                for trace in test.iter() {
                    let p = engine.search_single(trace).unwrap();
                    assert_eq!(p.lppm, "twin-a", "{threads}");
                    let r = engine.protect_user(trace);
                    assert_eq!(r.outcome.published()[0].lppm, "twin-a");
                }
            }
        }
    }

    /// Forwards to `inner` and records the input of every application.
    struct Recording {
        inner: Arc<dyn Lppm>,
        inputs: Mutex<Vec<Trace>>,
    }

    impl Recording {
        fn record(&self, input: &Trace) {
            self.inputs.lock().unwrap().push(input.clone());
        }
    }

    impl Lppm for Recording {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn apply(&self, trace: &Trace, rng: &mut dyn RngCore, out: &mut Vec<Record>) {
            self.record(trace);
            self.inner.apply(trace, rng, out)
        }
    }

    #[test]
    fn a_composition_search_applies_one_stage_per_candidate() {
        let (bg, test) = mini_world();
        let paper = MoodEngine::paper_default(&bg);
        let recording: Vec<Arc<Recording>> = paper
            .lppms()
            .iter()
            .map(|l| {
                Arc::new(Recording {
                    inner: Arc::clone(l),
                    inputs: Mutex::new(Vec::new()),
                })
            })
            .collect();
        let engine = EngineBuilder::new(paper.shared_suite())
            .lppms(recording.iter().map(|r| Arc::clone(r) as _).collect())
            .build()
            .unwrap();
        let orphan = test
            .iter()
            .find(|t| paper.search_single(t).is_none())
            .expect("a user that no single LPPM protects");
        let check = |what: &str| {
            let inputs: Vec<Vec<Trace>> = recording
                .iter()
                .map(|r| std::mem::take(&mut *r.inputs.lock().unwrap()))
                .collect();
            // 3 singles + 12 compositions, one stage each; applying each
            // chain from the raw trace takes 3 + 30.
            let stages: usize = inputs.iter().map(Vec::len).sum();
            assert_eq!(stages, 15, "{what}");
            for (r, inputs) in recording.iter().zip(&inputs) {
                let on_raw = inputs.iter().filter(|t| *t == orphan).count();
                assert_eq!(on_raw, 1, "{what}: {} on the raw trace", r.name());
            }
        };
        let _ = engine.search_whole(orphan);
        check("search_whole");
        let _ = engine.search_composition(orphan);
        check("search_composition");
    }

    #[test]
    fn each_composition_extends_its_prefix_candidate() {
        let executors = [
            crate::ExecutorKind::Sequential.build(1),
            crate::ExecutorKind::Persistent.build(2),
            crate::ExecutorKind::Persistent.build(4),
        ];
        let mut composition_stages = 0;
        for (bg, test) in both_presets() {
            let base = MoodEngine::paper_default(&bg);
            for executor in &executors {
                let engine = EngineBuilder::new(base.shared_suite())
                    .lppms_shared(base.shared_lppms())
                    .executor(Arc::clone(executor))
                    .build()
                    .unwrap();
                let n = engine.base.len();
                let variants = n + engine.compositions.len();
                for trace in test.iter().take(3) {
                    let who = format!(
                        "{} on {} x{}",
                        trace.user(),
                        executor.name(),
                        executor.max_threads()
                    );
                    // The engine's own candidates, as its searches apply them.
                    let seen = Mutex::new(vec![None; variants]);
                    let record = |_: &mut CandidateScratch, idx: usize, c: &Trace| {
                        let prev = seen.lock().unwrap()[idx].replace(c.clone());
                        assert!(prev.is_none(), "variant {idx} applied twice");
                        false
                    };
                    let singles = engine.apply_singles(trace, n, &record);
                    engine.apply_compositions(trace, &singles, variants, &record);
                    let seen: Vec<Trace> = seen
                        .into_inner()
                        .unwrap()
                        .into_iter()
                        .map(Option::unwrap)
                        .collect();
                    for (i, lppm) in engine.base.iter().enumerate() {
                        let want = lppm.protect(trace, &mut engine.variant_rng(trace, i));
                        assert_eq!(seen[i], want, "single {i} of {who}");
                        assert_eq!(singles[i].as_ref(), Some(&want), "single {i} of {who}");
                    }
                    for (k, &(prefix, last)) in engine.links.iter().enumerate() {
                        let idx = n + k;
                        let x = &engine.base[last];
                        let want = x.protect(&seen[prefix], &mut engine.variant_rng(trace, idx));
                        assert_eq!(seen[idx], want, "{} of {who}", engine.variant_name(idx));
                        assert_eq!(
                            engine.variant_name(idx),
                            format!("{}→{}", engine.variant_name(prefix), x.name())
                        );
                    }
                }
                // Alone, the composition stage equals the one inside the
                // whole-trace search, which runs when no single protects.
                for trace in test.iter() {
                    let (single, singles) =
                        engine.search_single_in(trace, &mut BudgetState::unlimited());
                    if single.is_some() {
                        continue;
                    }
                    let inside = engine.search_composition_in(
                        trace,
                        &singles,
                        &mut BudgetState::unlimited(),
                    );
                    assert_eq!(engine.search_composition(trace), inside);
                    assert_eq!(engine.search_whole(trace), inside.map(|p| (p, true)));
                    composition_stages += 1;
                }
            }
        }
        assert!(
            composition_stages > 0,
            "no user reached the composition stage"
        );
    }
}
