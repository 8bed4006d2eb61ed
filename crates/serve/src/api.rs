//! The service's wire types and its determinism contract.
//!
//! # Per-request deterministic seeding
//!
//! Every protection request carries a client-chosen `request_id`. The
//! engine seed for that request is derived as
//! `request_seed(server_seed, request_id)`; inside the engine, every
//! random draw then derives from `(engine seed, user, sub-trace start,
//! variant index)`. A served protected trace is therefore a pure
//! function of `(server_seed, user, request_id)`:
//!
//! * replaying a request against the same server yields byte-identical
//!   JSON;
//! * `POST /v1/protect/batch` returns, per user, exactly what
//!   `POST /v1/protect` returns for that user with the same
//!   `request_id`;
//! * both equal the *offline* result of running
//!   [`mood_core::protect_stream`] with an engine seeded with the same
//!   derived seed — the gate the serve integration tests enforce.
//!
//! A request carrying a candidate [`ProtectRequest::budget`] extends the
//! pure function by one argument: served bytes are then a pure function
//! of `(server_seed, user, request_id, budget)`, and the `degraded`
//! flag in the result reports whether the budget actually cut the
//! search short. Chaos faults (see [`crate::ChaosConfig`]) never alter
//! this contract — an injected fault kills a response, it never rewrites
//! one.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mood_attacks::{AttackSuite, ProfileStore, StoreCounters};
use mood_core::{
    EngineBuilder, Executor, MoodConfig, MoodEngine, ProtectionReport, UserClass, UserProtection,
};
use mood_lppm::Lppm;
use mood_obs::mix64;
use mood_trace::{Dataset, Trace, UserId};

/// Body of `POST /v1/protect`: one user's trace plus the replay id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectRequest {
    /// Client-chosen replay id; the engine seed derives from it.
    pub request_id: u64,
    /// The trace to protect.
    pub trace: Trace,
    /// Optional per-request candidate budget (deadline-aware graceful
    /// degradation): at most this many candidate variants are tried;
    /// past the cut the result is flagged `degraded` but stays
    /// deterministic. `None` (or an absent key — old clients keep
    /// working) uses the server's default, normally unlimited.
    pub budget: Option<u64>,
}

/// Body of `POST /v1/protect/batch`: many users, one replay id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchRequest {
    /// Client-chosen replay id; the engine seed derives from it.
    pub request_id: u64,
    /// The traces to protect (one per user; duplicate users are a 400).
    pub traces: Vec<Trace>,
    /// Optional per-request candidate budget; applied to each user's
    /// protection independently (see [`ProtectRequest::budget`]).
    pub budget: Option<u64>,
}

/// One published protected (sub-)trace with its provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishedTrace {
    /// Name of the protecting LPPM or composition chain.
    pub lppm: String,
    /// Spatio-temporal distortion versus the original, in meters.
    pub distortion_m: f64,
    /// The protected trace (still under the original user id;
    /// pseudonymization is the publication step, not the service's).
    pub trace: Trace,
}

/// The protection outcome for one user, as served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectResult {
    /// The protected user.
    pub user: UserId,
    /// Orphan-disease taxonomy class.
    pub class: UserClass,
    /// The published protected (sub-)traces, in time order.
    pub published: Vec<PublishedTrace>,
    /// Records in the original trace.
    pub original_records: usize,
    /// Original records erased (fine-grained protection only).
    pub records_dropped: usize,
    /// `true` when the candidate budget ran out before every variant
    /// was tried: the outcome is still deterministic (the cut point is
    /// a pure function of the budget), but may be coarser than the
    /// unbudgeted result.
    pub degraded: bool,
}

impl ProtectResult {
    /// Builds the wire result from an engine outcome.
    pub fn from_outcome(outcome: &UserProtection) -> Self {
        Self {
            user: outcome.user,
            class: outcome.class,
            published: outcome
                .outcome
                .published()
                .into_iter()
                .map(|p| PublishedTrace {
                    lppm: p.lppm.clone(),
                    distortion_m: p.distortion_m,
                    trace: p.trace.clone(),
                })
                .collect(),
            original_records: outcome.original_records,
            records_dropped: outcome.outcome.records_dropped(),
            degraded: outcome.degraded,
        }
    }
}

/// Body of a `POST /v1/protect` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectResponse {
    /// Echo of the request's replay id.
    pub request_id: u64,
    /// The derived engine seed actually used (replay transparency).
    pub seed: u64,
    /// The protection outcome.
    pub result: ProtectResult,
}

/// Body of a `POST /v1/protect/batch` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchResponse {
    /// Echo of the request's replay id.
    pub request_id: u64,
    /// The derived engine seed actually used (replay transparency).
    pub seed: u64,
    /// Users in the batch.
    pub users_total: usize,
    /// Record-level data loss of the batch, in percent.
    pub data_loss_percent: f64,
    /// Users per protection class (display name → count).
    pub class_counts: BTreeMap<String, usize>,
    /// Per-user outcomes, sorted by user.
    pub results: Vec<ProtectResult>,
}

impl BatchResponse {
    /// Builds the wire response from a pipeline report.
    pub fn from_report(request_id: u64, seed: u64, report: &ProtectionReport) -> Self {
        Self {
            request_id,
            seed,
            users_total: report.users_total,
            data_loss_percent: report.data_loss.percent(),
            class_counts: report
                .class_counts
                .iter()
                .map(|(class, count)| (class.to_string(), *count))
                .collect(),
            results: report
                .outcomes()
                .iter()
                .map(ProtectResult::from_outcome)
                .collect(),
        }
    }
}

/// Body of every non-2xx JSON response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// What went wrong.
    pub error: String,
}

/// Body of `GET /v1/config`: the running server's shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigResponse {
    /// Bound listen address.
    pub addr: String,
    /// Execution backend of the batch fan-out.
    pub executor: String,
    /// Thread budget of that backend.
    pub executor_threads: usize,
    /// Connection workers (concurrent keep-alive connections served).
    pub connection_workers: usize,
    /// Accept-queue bound beyond which connections are shed with 503.
    pub max_pending: usize,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// The server seed of the determinism contract.
    pub server_seed: u64,
    /// Names of the base LPPM set.
    pub lppms: Vec<String>,
    /// Size of the enumerated composition space.
    pub compositions: usize,
    /// Attacks in the trained suite.
    pub attacks: usize,
}

/// Body of `GET /v1/debug/trace?limit=N`: the flight recorder's newest
/// traces (oldest first) plus the slow-request log. Span structure and
/// ids inside each record are deterministic; only the `*_us` timing
/// fields vary across replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceExport {
    /// Traces ingested by the recorder since startup.
    pub recorded_total: u64,
    /// Traces that exceeded the slow-request threshold since startup.
    pub slow_total: u64,
    /// The newest `limit` traces from the recent ring.
    pub traces: Vec<mood_obs::TraceRecord>,
    /// The newest `limit` over-threshold traces (kept separately, so a
    /// burst of fast requests cannot evict them).
    pub slow: Vec<mood_obs::TraceRecord>,
}

/// Everything needed to build per-request engines cheaply: the trained
/// attack suite and the LPPM set are shared by handle (`Arc` bumps, no
/// retraining), only the seed differs per request.
#[derive(Clone)]
pub struct EngineTemplate {
    suite: Arc<AttackSuite>,
    lppms: Arc<[Arc<dyn Lppm>]>,
    config: MoodConfig,
    store: Option<Arc<ProfileStore>>,
}

impl std::fmt::Debug for EngineTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineTemplate")
            .field("attacks", &self.suite.len())
            .field("lppms", &self.lppm_names())
            .finish()
    }
}

impl EngineTemplate {
    /// The paper's full setup: POI/PIT/AP attacks trained on
    /// `background`, LPPM set {Geo-I, TRL, HMC}, paper configuration.
    ///
    /// # Panics
    ///
    /// Panics when `background` is empty.
    pub fn paper_default(background: &Dataset) -> Self {
        let engine = EngineBuilder::paper_default(background)
            .build()
            .expect("paper defaults are valid");
        Self::from_engine(&engine)
    }

    /// Shares an existing engine's suite, LPPM set, configuration and —
    /// when the engine was trained through one — its profile store, so
    /// the service's per-request engines and its `/metrics` page share
    /// the one set of trained profiles and its hit/miss counters.
    pub fn from_engine(engine: &MoodEngine) -> Self {
        Self {
            suite: engine.shared_suite(),
            lppms: engine.shared_lppms(),
            config: *engine.config(),
            store: engine.profile_store(),
        }
    }

    /// Builds the engine for one request: same suite, LPPMs and
    /// configuration, the derived `seed`, candidates on `executor`, and
    /// an optional candidate budget ([`EngineBuilder::candidate_budget`]):
    /// the request-path factory behind deadline-aware graceful
    /// degradation.
    pub fn engine_for_request(
        &self,
        seed: u64,
        executor: Arc<dyn Executor>,
        budget: Option<u64>,
    ) -> MoodEngine {
        self.engine_for_request_observed(seed, executor, budget, None)
    }

    /// [`EngineTemplate::engine_for_request`] with an optional per-stage
    /// duration observer ([`EngineBuilder::stage_observer`]) — the
    /// tracing-enabled request path. Observation is duration-only:
    /// the engine built here returns bit-identical results with or
    /// without `obs`.
    pub fn engine_for_request_observed(
        &self,
        seed: u64,
        executor: Arc<dyn Executor>,
        budget: Option<u64>,
        obs: Option<Arc<mood_obs::StageAgg>>,
    ) -> MoodEngine {
        let mut config = self.config;
        config.seed = seed;
        let mut builder = EngineBuilder::new(Arc::clone(&self.suite))
            .lppms_shared(Arc::clone(&self.lppms))
            .config(config)
            .executor(executor);
        if let Some(store) = &self.store {
            builder = builder.profile_store(Arc::clone(store));
        }
        if let Some(budget) = budget {
            builder = builder.candidate_budget(usize::try_from(budget).unwrap_or(usize::MAX));
        }
        if let Some(obs) = obs {
            builder = builder.stage_observer(obs);
        }
        builder
            .build()
            .expect("template carries a validated configuration")
    }

    /// [`EngineTemplate::engine_for_request`] with the sequential
    /// candidate executor and no budget — the offline-comparison shape
    /// used by tests.
    pub fn engine_for(&self, seed: u64) -> MoodEngine {
        self.engine_for_request(seed, Arc::new(mood_core::SequentialExecutor), None)
    }

    /// Names of the base LPPM set.
    pub fn lppm_names(&self) -> Vec<String> {
        self.lppms.iter().map(|l| l.name().to_string()).collect()
    }

    /// Number of attacks in the trained suite.
    pub fn attack_count(&self) -> usize {
        self.suite.len()
    }

    /// Hit/miss/build counters of the template's profile store — the
    /// training-reuse gauge behind `mood_serve_profile_store_total`.
    /// All zeros when the template was built without a store.
    pub fn profile_store_counters(&self) -> StoreCounters {
        self.store
            .as_ref()
            .map(|s| s.counters())
            .unwrap_or_default()
    }
}

/// Derives the engine seed of one request from the server seed and the
/// client's `request_id` (SplitMix64 chaining, matching the engine's
/// own stream derivation style).
pub fn request_seed(server_seed: u64, request_id: u64) -> u64 {
    let mut h = server_seed;
    h ^= mix64(request_id);
    mix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_seed_is_deterministic_and_sensitive() {
        assert_eq!(request_seed(1, 2), request_seed(1, 2));
        assert_ne!(request_seed(1, 2), request_seed(1, 3));
        assert_ne!(request_seed(1, 2), request_seed(2, 2));
    }

    #[test]
    fn wire_types_roundtrip_through_json() {
        use mood_geo::GeoPoint;
        use mood_trace::{Record, Timestamp};

        let records: Vec<Record> = (0..4)
            .map(|i| {
                Record::new(
                    GeoPoint::new(46.2, 6.1).unwrap(),
                    Timestamp::from_unix(i * 600),
                )
            })
            .collect();
        let trace = Trace::new(UserId::new(9), records).unwrap();
        let req = ProtectRequest {
            request_id: 42,
            trace: trace.clone(),
            budget: None,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: ProtectRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);

        let resp = ProtectResponse {
            request_id: 42,
            seed: request_seed(7, 42),
            result: ProtectResult {
                user: UserId::new(9),
                class: UserClass::SingleLppm,
                published: vec![PublishedTrace {
                    lppm: "Geo-I".to_string(),
                    distortion_m: 120.5,
                    trace,
                }],
                original_records: 4,
                records_dropped: 0,
                degraded: false,
            },
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: ProtectResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn budget_key_is_optional_on_the_wire() {
        use mood_geo::GeoPoint;
        use mood_trace::{Record, Timestamp};

        let trace = Trace::new(
            UserId::new(3),
            vec![Record::new(
                GeoPoint::new(46.2, 6.1).unwrap(),
                Timestamp::from_unix(0),
            )],
        )
        .unwrap();
        let trace_json = serde_json::to_string(&trace).unwrap();

        // A pre-budget client body (no `budget` key) must still parse.
        let json = format!(r#"{{"request_id":7,"trace":{trace_json}}}"#);
        let req: ProtectRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req.request_id, 7);
        assert_eq!(req.budget, None);

        // An explicit null is the same as absent; a number is a budget.
        let json = format!(r#"{{"request_id":7,"trace":{trace_json},"budget":null}}"#);
        let req: ProtectRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req.budget, None);

        let req: BatchRequest =
            serde_json::from_str(r#"{"request_id":7,"traces":[],"budget":12}"#).unwrap();
        assert_eq!(req.budget, Some(12));

        // Mandatory keys still error when absent.
        assert!(serde_json::from_str::<ProtectRequest>(r#"{"request_id":7}"#).is_err());
    }
}
