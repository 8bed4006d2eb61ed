//! Deterministic fault injection for the serve stack.
//!
//! Chaos is **off by default** and zero-cost when disabled: the server
//! holds an `Option<ChaosConfig>` and every injection point is a single
//! `if let Some` branch. When enabled, every fault decision is a pure
//! function of `(chaos_seed, connection_id, event_idx)` — the same
//! SplitMix64 derivation trick the engine uses for variant RNG streams —
//! so a chaos run is exactly replayable: same seed, same accept order,
//! same faults.
//!
//! Faults never rewrite bytes. A fault either kills a response before
//! the client sees all of it (drop, truncate, panic, shed) or delays it
//! (delay); a response that arrives complete is byte-identical to the
//! fault-free run. That is what makes the [`crate::RetryClient`]'s
//! idempotency verifier a meaningful gate rather than a tautology.
//!
//! ## Event layout
//!
//! Each connection consumes a fixed, documented event schedule so that
//! any component (acceptor, connection handler) can re-derive a
//! decision statelessly:
//!
//! | event_idx        | fault kind   | decided by          |
//! |------------------|--------------|---------------------|
//! | 0                | accept drop  | acceptor thread     |
//! | 1                | queue shed   | acceptor thread     |
//! | 2 + 3·r          | delay        | connection handler  |
//! | 3 + 3·r          | panic        | connection handler  |
//! | 4 + 3·r          | truncate     | connection handler  |
//!
//! where `r` is the zero-based index of the request on its (keep-alive)
//! connection.

use std::time::Duration;

use mood_obs::mix64;

/// The kinds of fault the chaos layer can inject, in metric-label order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The acceptor drops the connection right after `accept`.
    AcceptDrop,
    /// The acceptor sheds the connection with 503, as if the accept
    /// queue were full.
    Shed,
    /// The handler sleeps before serving the request.
    Delay,
    /// The handler panics mid-request (caught by the pool; the client
    /// sees the connection die).
    Panic,
    /// The response is cut off mid-body (headers promise more bytes
    /// than arrive).
    Truncate,
}

impl FaultKind {
    /// Every kind, in [`FaultKind::index`] order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::AcceptDrop,
        FaultKind::Shed,
        FaultKind::Delay,
        FaultKind::Panic,
        FaultKind::Truncate,
    ];

    /// Dense counter index of this kind.
    pub fn index(self) -> usize {
        match self {
            FaultKind::AcceptDrop => 0,
            FaultKind::Shed => 1,
            FaultKind::Delay => 2,
            FaultKind::Panic => 3,
            FaultKind::Truncate => 4,
        }
    }

    /// The `kind="..."` label used on `mood_serve_faults_injected_total`.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::AcceptDrop => "accept_drop",
            FaultKind::Shed => "shed",
            FaultKind::Delay => "delay",
            FaultKind::Panic => "panic",
            FaultKind::Truncate => "truncate",
        }
    }
}

/// Seeded fault-injection configuration ([`crate::ServeConfig::chaos`]).
///
/// Each field is the per-event probability (in `[0, 1]`) that the fault
/// fires at its injection point. All probabilities default to zero, so
/// `ChaosConfig { seed, ..Default::default() }` is an enabled-but-inert
/// plan — useful for measuring that the injection points themselves
/// cost nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of every fault decision (`--chaos-seed`).
    pub seed: u64,
    /// P(drop the connection at accept time).
    pub accept_drop: f64,
    /// P(force queue-full shedding at submit time).
    pub shed: f64,
    /// P(delay the handler before serving a request).
    pub delay: f64,
    /// Length of an injected delay.
    pub delay_ms: u64,
    /// P(panic in the handler for a request).
    pub panic: f64,
    /// P(truncate the response mid-body).
    pub truncate: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            accept_drop: 0.0,
            shed: 0.0,
            delay: 0.0,
            delay_ms: 10,
            panic: 0.0,
            truncate: 0.0,
        }
    }
}

impl ChaosConfig {
    /// Parses a `--chaos-profile` string: `+`-separated fault names out
    /// of `drop`, `shed`, `delay`, `panic`, `truncate`, or `all`. Each
    /// named fault gets a moderate default probability (0.5; delay
    /// fires always, for 10 ms — latency, not loss).
    ///
    /// # Errors
    ///
    /// Returns the offending token when one is not a known fault name.
    pub fn from_profile(profile: &str, seed: u64) -> Result<Self, String> {
        let mut config = Self {
            seed,
            ..Self::default()
        };
        for token in profile.split('+') {
            match token.trim() {
                "drop" => config.accept_drop = 0.5,
                "shed" => config.shed = 0.5,
                "delay" => {
                    config.delay = 1.0;
                    config.delay_ms = 10;
                }
                "panic" => config.panic = 0.5,
                "truncate" => config.truncate = 0.5,
                "all" => {
                    config.accept_drop = 0.25;
                    config.shed = 0.25;
                    config.delay = 0.5;
                    config.delay_ms = 5;
                    config.panic = 0.25;
                    config.truncate = 0.25;
                }
                other => return Err(format!("unknown chaos profile token `{other}`")),
            }
        }
        Ok(config)
    }

    /// The probability configured for `kind`.
    pub fn probability(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::AcceptDrop => self.accept_drop,
            FaultKind::Shed => self.shed,
            FaultKind::Delay => self.delay,
            FaultKind::Panic => self.panic,
            FaultKind::Truncate => self.truncate,
        }
    }
}

/// The seeded fault schedule of one connection.
///
/// Decisions are stateless re-derivations — `FaultPlan` only tracks the
/// per-connection request counter for the keep-alive event layout — so
/// holding a plan costs three words and cloning or re-deriving a
/// decision elsewhere always agrees.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    chaos: ChaosConfig,
    connection_id: u64,
    request_idx: u64,
}

/// Events 0 and 1 are connection-scoped; per-request events start at 2.
const REQUEST_EVENT_BASE: u64 = 2;
/// Delay, panic, truncate: three rolls per request.
const EVENTS_PER_REQUEST: u64 = 3;

impl FaultPlan {
    /// The plan for connection `connection_id` under `chaos`.
    pub fn new(chaos: ChaosConfig, connection_id: u64) -> Self {
        Self {
            chaos,
            connection_id,
            request_idx: 0,
        }
    }

    /// The chaos configuration this plan rolls against.
    pub fn chaos(&self) -> &ChaosConfig {
        &self.chaos
    }

    /// Event 0: drop the connection at accept time?
    pub fn accept_drop(&self) -> bool {
        self.fires(FaultKind::AcceptDrop, 0)
    }

    /// Event 1: shed the connection in place of submitting it?
    pub fn shed(&self) -> bool {
        self.fires(FaultKind::Shed, 1)
    }

    /// Delay event of the current request, as a duration when it fires.
    pub fn delay(&self) -> Option<Duration> {
        self.fires(FaultKind::Delay, self.request_event(0))
            .then(|| Duration::from_millis(self.chaos.delay_ms))
    }

    /// Panic event of the current request.
    pub fn panic(&self) -> bool {
        self.fires(FaultKind::Panic, self.request_event(1))
    }

    /// Truncate event of the current request.
    pub fn truncate(&self) -> bool {
        self.fires(FaultKind::Truncate, self.request_event(2))
    }

    /// Advances to the next request on this keep-alive connection.
    pub fn next_request(&mut self) {
        self.request_idx += 1;
    }

    fn request_event(&self, offset: u64) -> u64 {
        REQUEST_EVENT_BASE + EVENTS_PER_REQUEST * self.request_idx + offset
    }

    /// Does `kind` fire at `event_idx`? A uniform roll in `[0, 1)`
    /// derived SplitMix64-style from `(seed, connection_id, event_idx)`
    /// compared against the configured probability.
    fn fires(&self, kind: FaultKind, event_idx: u64) -> bool {
        let p = self.chaos.probability(kind);
        if p <= 0.0 {
            return false;
        }
        let mut h = self.chaos.seed;
        h ^= mix64(self.connection_id);
        h ^= mix64(event_idx);
        let roll = (mix64(h) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        roll < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic() {
        let chaos = ChaosConfig::from_profile("all", 42).unwrap();
        for conn in 0..50u64 {
            let mut a = FaultPlan::new(chaos, conn);
            let mut b = FaultPlan::new(chaos, conn);
            for _ in 0..10 {
                assert_eq!(a.accept_drop(), b.accept_drop());
                assert_eq!(a.shed(), b.shed());
                assert_eq!(a.delay(), b.delay());
                assert_eq!(a.panic(), b.panic());
                assert_eq!(a.truncate(), b.truncate());
                a.next_request();
                b.next_request();
            }
        }
    }

    #[test]
    fn plans_vary_across_connections_and_seeds() {
        let chaos = ChaosConfig::from_profile("drop", 7).unwrap();
        let fired: Vec<bool> = (0..256u64)
            .map(|conn| FaultPlan::new(chaos, conn).accept_drop())
            .collect();
        let count = fired.iter().filter(|f| **f).count();
        // p = 0.5 over 256 connections: both outcomes must appear, and
        // the rate should be in a loose central band.
        assert!(
            count > 64 && count < 192,
            "suspicious drop rate {count}/256"
        );

        let other = ChaosConfig::from_profile("drop", 8).unwrap();
        let fired_other: Vec<bool> = (0..256u64)
            .map(|conn| FaultPlan::new(other, conn).accept_drop())
            .collect();
        assert_ne!(fired, fired_other, "seed must change the schedule");
    }

    #[test]
    fn zero_probability_never_fires() {
        let chaos = ChaosConfig {
            seed: 99,
            ..Default::default()
        };
        for conn in 0..100u64 {
            let mut plan = FaultPlan::new(chaos, conn);
            for _ in 0..5 {
                assert!(!plan.accept_drop());
                assert!(!plan.shed());
                assert!(plan.delay().is_none());
                assert!(!plan.panic());
                assert!(!plan.truncate());
                plan.next_request();
            }
        }
    }

    #[test]
    fn profiles_parse() {
        let c = ChaosConfig::from_profile("drop+delay", 1).unwrap();
        assert_eq!(c.accept_drop, 0.5);
        assert_eq!(c.delay, 1.0);
        assert_eq!(c.shed, 0.0);

        let c = ChaosConfig::from_profile("all", 1).unwrap();
        assert!(c.accept_drop > 0.0 && c.truncate > 0.0 && c.panic > 0.0);

        assert!(ChaosConfig::from_profile("drop+latency", 1).is_err());
    }

    #[test]
    fn requests_get_independent_rolls() {
        let chaos = ChaosConfig::from_profile("panic", 3).unwrap();
        let mut any_panic = false;
        let mut any_clean = false;
        for conn in 0..32u64 {
            let mut plan = FaultPlan::new(chaos, conn);
            for _ in 0..8 {
                if plan.panic() {
                    any_panic = true;
                } else {
                    any_clean = true;
                }
                plan.next_request();
            }
        }
        assert!(any_panic && any_clean);
    }
}
