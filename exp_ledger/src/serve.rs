//! The deployment path: an in-process `mood-serve` server protecting one
//! one-day trace window per request, driven over loopback by the load
//! generator — untraced for the end-to-end latency and throughput, and
//! traced (flight recorder on, `/metrics` scraped before and after) for
//! the per-request layers.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use mood_core::ExecutorKind;
use mood_serve::mood_obs::RecorderConfig;
use mood_serve::{
    request_seed, Client, EngineTemplate, MoodServer, ProtectRequest, ProtectResponse,
    ProtectResult, Response, ServeConfig,
};
use mood_trace::Trace;

use crate::calibrate::Probe;
use crate::inputs::{derive, process_cpu_s, streams, Inputs, Plan, Setup, THREADS};
use crate::load::{self, Completion};
use crate::prom::{Scrape, SumCount};
use crate::stats::{self, Fnv1a, Metric};

/// Connection workers: one more than the load's connections, so a
/// request never queues for a worker.
const CONNECTION_WORKERS: usize = 3;

/// Served bodies compared byte for byte against the offline engine.
const CHECKED_BODIES: usize = 50;

/// Keep-alive requests per connection that warm a server before timing.
const WARM_PER_CONNECTION: usize = 8;

/// The server seed of the determinism contract (the service default).
fn server_seed() -> u64 {
    ServeConfig::default().server_seed
}

/// Starts a server over `template` and waits until `/healthz` answers
/// 200.
pub fn start(template: &EngineTemplate, tracing: bool) -> Result<MoodServer, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        connection_workers: CONNECTION_WORKERS,
        executor: ExecutorKind::Persistent,
        executor_threads: THREADS,
        tracing: tracing.then(RecorderConfig::default),
        ..ServeConfig::default()
    };
    let server = MoodServer::start(config, template.clone())
        .map_err(|e| format!("cannot start the server: {e}"))?;
    let status = Client::connect(server.local_addr())
        .and_then(|mut c| c.get("/healthz"))
        .map_err(|e| format!("healthz: {e}"))?
        .status;
    if status != 200 {
        return Err(format!("healthz answered {status}"));
    }
    Ok(server)
}

/// Which traffic a request belongs to; each has its own request ids.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Warm = 0,
    Open = 1,
    Closed = 2,
    Traced = 3,
}

/// A fixed sample of the windows, picked at an even stride so every
/// seed serves the same ones, each serialized once. Every round serves
/// each window of the set equally often, in a seeded order, so rounds
/// and runs differ in arrival pattern and request ids — and with them
/// LPPM noise — but never in which traces they protect.
struct RequestSet<'a> {
    windows: Vec<&'a Trace>,
    /// `,"trace":<window json>}` per window.
    suffixes: Vec<Vec<u8>>,
    seed: u64,
    phase: Phase,
    id_tag: u64,
}

impl<'a> RequestSet<'a> {
    fn new(inputs: &'a Inputs, phase: Phase, size: usize) -> Result<Self, String> {
        let n = inputs.windows.len();
        let size = size.clamp(1, n);
        let windows: Vec<&Trace> = (0..size).map(|i| &inputs.windows[i * n / size]).collect();
        let suffixes = windows
            .iter()
            .map(|w| {
                let mut s = b",\"trace\":".to_vec();
                serde_json::to_writer(&mut s, w).map_err(|e| e.to_string())?;
                s.push(b'}');
                Ok(s)
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            windows,
            suffixes,
            seed: inputs.seed,
            phase,
            id_tag: derive(inputs.seed, streams::REQUEST_IDS, 0) & 0x3f_ffff,
        })
    }

    fn round(&self, round: usize) -> Round<'_, 'a> {
        let mut order: Vec<usize> = (0..self.windows.len()).collect();
        let key = (self.phase as u64) << 32 | round as u64;
        order.sort_by_key(|&i| derive(self.seed ^ key, streams::WINDOW_ORDER, i as u64));
        Round {
            set: self,
            round,
            order,
        }
    }
}

/// One round's view of a [`RequestSet`]: request `g` serves window
/// `order[g mod len]`.
struct Round<'s, 'a> {
    set: &'s RequestSet<'a>,
    round: usize,
    order: Vec<usize>,
}

impl Round<'_, '_> {
    /// Ids stay below 2^53, so every JSON reader holds them exactly.
    fn id(&self, g: usize) -> u64 {
        let request = self.round * self.order.len() + g;
        assert!(request < 1 << 26, "request index out of range");
        self.set.id_tag << 30 | (self.set.phase as u64) << 26 | request as u64
    }

    fn slot(&self, g: usize) -> usize {
        self.order[g % self.order.len()]
    }

    fn body(&self, g: usize, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(b"{\"request_id\":");
        out.extend_from_slice(self.id(g).to_string().as_bytes());
        out.extend_from_slice(&self.set.suffixes[self.slot(g)]);
    }

    /// The response body the determinism contract promises for request
    /// `g`: the offline engine under the derived request seed.
    fn expected(&self, template: &EngineTemplate, g: usize) -> Vec<u8> {
        let id = self.id(g);
        let seed = request_seed(server_seed(), id);
        let outcome = template
            .engine_for(seed)
            .protect_user(self.set.windows[self.slot(g)]);
        Response::json(
            200,
            &ProtectResponse {
                request_id: id,
                seed,
                result: ProtectResult::from_outcome(&outcome),
            },
        )
        .body
    }
}

/// Sends [`WARM_PER_CONNECTION`] requests of `set` on each of the
/// load's connections.
fn warm(set: &RequestSet, addr: SocketAddr) {
    let round = set.round(0);
    load::closed_loop(addr, WARM_PER_CONNECTION, &|g, out: &mut Vec<u8>| {
        round.body(g, out)
    });
}

fn warm_set(inputs: &Inputs) -> Result<RequestSet<'_>, String> {
    RequestSet::new(inputs, Phase::Warm, WARM_PER_CONNECTION * load::CLIENTS)
}

/// Checks the kept bodies of `done` against the offline engine and
/// folds them into `digest`.
fn check_bodies(
    round: &Round,
    template: &EngineTemplate,
    done: &[Completion],
    digest: &mut Fnv1a,
) -> Result<(), String> {
    for c in done.iter().filter(|c| c.ok()) {
        if let Some(body) = &c.body {
            if *body != round.expected(template, c.request) {
                return Err(format!(
                    "serve: request {} differs from the offline engine",
                    c.request
                ));
            }
            digest.write(body);
        }
    }
    Ok(())
}

/// A request's latency; a failed request misses every limit, so it
/// reads as infinitely slow.
fn latency_ms(c: &Completion) -> f64 {
    if c.ok() {
        c.latency_ms
    } else {
        f64::INFINITY
    }
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

fn pct(sorted: &[f64], p: f64) -> Result<f64, String> {
    stats::percentile(sorted, p)
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("serve: p{p} falls on a failed request"))
}

/// The untraced serve phase's results.
pub struct ServeRun {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value)` context for the run record.
    pub notes: Vec<(&'static str, f64)>,
}

/// The untraced serve phase, run in rounds. Each round replays one open
/// loop at the plan's rate, each request timed from its due time, then
/// one closed loop on [`load::CLIENTS`] connections whose process CPU
/// time per request is the gated `serve.cpu_ms_per_request`; each loop
/// is one probed sample. Non-200 responses and transport errors count
/// as failed; the first [`CHECKED_BODIES`] bodies must equal the
/// offline engine's bytes.
pub struct Serve<'a> {
    setup: &'a Setup,
    seed: u64,
    addr: SocketAddr,
    open_set: RequestSet<'a>,
    closed_set: RequestSet<'a>,
    rounds: usize,
    open: Vec<Completion>,
    /// Each open-loop latency over the host slowdown around its round.
    open_normalized: Vec<f64>,
    /// Per round, normalized and raw: the p50 and the p90 of its
    /// open-loop latencies.
    open_pcts: [(Vec<f64>, Vec<f64>); 2],
    closed: Vec<Completion>,
    /// Per round, normalized and raw: closed-loop requests per second
    /// and process CPU milliseconds per request.
    saturated: (Vec<f64>, Vec<f64>),
    cpu: (Vec<f64>, Vec<f64>),
}

impl<'a> Serve<'a> {
    /// Serializes the request sets and warms the server's connections.
    pub fn new(
        inputs: &'a Inputs,
        setup: &'a Setup,
        server: &MoodServer,
        plan: &Plan,
    ) -> Result<Self, String> {
        let addr = server.local_addr();
        warm(&warm_set(inputs)?, addr);
        Ok(Self {
            setup,
            seed: inputs.seed,
            addr,
            open_set: RequestSet::new(inputs, Phase::Open, plan.open_requests)?,
            closed_set: RequestSet::new(
                inputs,
                Phase::Closed,
                plan.closed_per_connection * load::CLIENTS,
            )?,
            rounds: 0,
            open: Vec::new(),
            open_normalized: Vec::new(),
            open_pcts: Default::default(),
            closed: Vec::new(),
            saturated: Default::default(),
            cpu: Default::default(),
        })
    }

    pub fn round(
        &mut self,
        plan: &Plan,
        probe: &mut Probe,
        digest: &mut Fnv1a,
    ) -> Result<(), String> {
        let r = self.rounds;
        self.rounds += 1;
        let open_round = self.open_set.round(r);
        let closed_round = self.closed_set.round(r);
        let schedule = load::schedule(
            derive(self.seed, streams::ARRIVALS, r as u64),
            plan.rate_per_s,
            plan.open_requests,
        );
        let keep = if r == 0 { CHECKED_BODIES } else { 0 };
        let (open, slowdown) = probe.around(|| {
            load::open_loop(
                self.addr,
                &schedule,
                &|g, out: &mut Vec<u8>| open_round.body(g, out),
                keep,
            )
        })?;
        check_bodies(&open_round, &self.setup.template, &open, digest)?;
        let raw = sorted(open.iter().map(latency_ms).collect());
        let normalized: Vec<f64> = raw.iter().map(|l| l / slowdown).collect();
        for (pcts, p) in self.open_pcts.iter_mut().zip([50.0, 90.0]) {
            pcts.0.push(pct(&normalized, p)?);
            pcts.1.push(pct(&raw, p)?);
        }
        self.open_normalized.extend(normalized);
        self.open.extend(open);

        let body = |g: usize, out: &mut Vec<u8>| closed_round.body(g, out);
        let (result, slowdown) = probe.around(|| {
            let cpu0 = process_cpu_s()?;
            let (closed, wall) = load::closed_loop(self.addr, plan.closed_per_connection, &body);
            Ok::<_, String>((closed, wall, process_cpu_s()? - cpu0))
        })?;
        let (closed, wall, cpu_s) = result?;
        let ok = closed.iter().filter(|c| c.ok()).count() as f64;
        let rate = ok / wall.as_secs_f64();
        self.saturated.0.push(rate * slowdown);
        self.saturated.1.push(rate);
        let cpu_ms = cpu_s * 1e3 / ok;
        self.cpu.0.push(cpu_ms / slowdown);
        self.cpu.1.push(cpu_ms);
        self.closed.extend(closed);
        Ok(())
    }

    pub fn finish(self) -> Result<ServeRun, String> {
        let normalized = sorted(self.open_normalized);
        let raw = sorted(self.open.iter().map(latency_ms).collect());
        let late = sorted(self.open.iter().map(|c| c.late_ms).collect());
        let [p50, p90] = self.open_pcts;
        let mut notes = vec![
            ("serve.p50_ms", stats::median(&p50.0)),
            ("serve.p50_ms.raw", stats::median(&p50.1)),
            ("serve.p90_ms", stats::median(&p90.0)),
            ("serve.p90_ms.raw", stats::median(&p90.1)),
            ("serve.saturated_rps", stats::median(&self.saturated.0)),
            ("serve.saturated_rps.raw", stats::median(&self.saturated.1)),
            ("serve.open_loop_samples", raw.len() as f64),
        ];
        // Smoke-test runs are too short to support any tail.
        if let Some(tail) = stats::highest_supported_percentile(raw.len()) {
            notes.push(("serve.highest_supported_percentile", tail));
            notes.push(("serve.tail_ms", pct(&normalized, tail)?));
            notes.push(("serve.tail_ms.raw", pct(&raw, tail)?));
        }
        notes.push(("serve.generator_late_p99_ms", pct(&late, 99.0)?));
        Ok(ServeRun {
            metrics: vec![Metric::normalized(
                "serve.cpu_ms_per_request",
                "ms",
                self.cpu.0,
                self.cpu.1,
            )],
            attempted: self.open.len() + self.closed.len(),
            failed: self
                .open
                .iter()
                .chain(&self.closed)
                .filter(|c| !c.ok())
                .count(),
            notes,
        })
    }
}

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let resp = Client::connect(addr)
        .and_then(|mut c| c.get("/metrics"))
        .map_err(|e| format!("scrape: {e}"))?;
    Scrape::parse(resp.text().map_err(|e| e.to_string())?)
}

/// The traced serve layers:
///
/// * one open loop against the untraced server and one against a
///   traced server (same schedule, same requests): their p50s give
///   `obs.tracing_overhead_pct`, and their kept bodies must be
///   identical;
/// * `/metrics` on the traced server, scraped before and after its
///   loop, splits the server's time per request into queue wait, parse,
///   engine (raw check inside it), respond and write; the client side
///   adds its wait behind the connection and the transport;
/// * an in-process replay of the first requests times JSON parse,
///   engine construction, `protect_user` and serialization, and must
///   reproduce the served bytes.
///
/// Returns the metrics and the number of requests sent or replayed.
pub fn traced(
    inputs: &Inputs,
    setup: &Setup,
    plan: &Plan,
    digest: &mut Fnv1a,
) -> Result<(Vec<Metric>, usize), String> {
    let untraced = start(&setup.template, false)?;
    let server = start(&setup.template, true)?;
    let addr = server.local_addr();
    let warm_set = warm_set(inputs)?;
    warm(&warm_set, addr);
    warm(&warm_set, untraced.local_addr());

    let n = (plan.rounds * plan.open_requests / 2).max(20);
    let set = RequestSet::new(inputs, Phase::Traced, n)?;
    let round = set.round(0);
    let schedule = load::schedule(
        derive(inputs.seed, streams::TRACED_ARRIVALS, 0),
        plan.rate_per_s,
        n,
    );
    let body = |g: usize, out: &mut Vec<u8>| round.body(g, out);
    let plain = load::open_loop(untraced.local_addr(), &schedule, &body, CHECKED_BODIES);
    let before = scrape(addr)?;
    let traced = load::open_loop(addr, &schedule, &body, CHECKED_BODIES);
    let after = scrape(addr)?;
    server.shutdown();
    untraced.shutdown();

    if let Some(c) = plain.iter().chain(&traced).find(|c| !c.ok()) {
        return Err(format!(
            "serve: traced-run request {} failed ({:?})",
            c.request, c.status
        ));
    }
    if plain.iter().zip(&traced).any(|(a, b)| a.body != b.body) {
        return Err("serve: traced and untraced servers answered differently".to_string());
    }

    let protects = |s: &Scrape| {
        s.value("mood_serve_requests_total", Some(("endpoint", "protect")))
            .unwrap_or(0.0)
    };
    let sent = protects(&after) - protects(&before);
    if sent != traced.len() as f64 {
        return Err(format!(
            "serve: /metrics counted {sent} protects, the client sent {}",
            traced.len()
        ));
    }
    let per_request_ms = |base: &str, label: Option<(&str, &str)>| {
        let d: SumCount = after
            .sum_count(base, label)
            .since(before.sum_count(base, label));
        d.sum * 1e3 / sent
    };
    let stage = |name: &str| per_request_ms("mood_serve_stage_seconds", Some(("stage", name)));
    let request_ms = per_request_ms("mood_serve_request_seconds", None);
    let queue_wait_ms = per_request_ms("mood_serve_queue_wait_seconds", None);
    let (parse_ms, engine_ms, respond_ms, write_ms) = (
        stage("parse"),
        stage("engine"),
        stage("respond"),
        stage("write"),
    );
    let mean = |f: fn(&Completion) -> f64| stats::mean(&traced.iter().map(f).collect::<Vec<_>>());
    let client_ms = mean(|c| c.latency_ms);
    let wait_ms = mean(|c| c.wait_ms);
    let transport_ms = mean(|c| c.service_ms) - request_ms - write_ms;
    let late = sorted(traced.iter().map(|c| c.late_ms).collect());
    let p50 = |done: &[Completion]| pct(&sorted(done.iter().map(latency_ms).collect()), 50.0);
    let overhead_pct = (p50(&traced)? / p50(&plain)? - 1.0) * 100.0;

    // In-process replay of the same request bodies.
    let executor = ExecutorKind::Persistent.build(THREADS);
    let replays = plan.replays.min(n);
    let (mut parse_s, mut build_s, mut protect_s, mut serialize_s) = (0.0, 0.0, 0.0, 0.0);
    let mut response_bytes = 0usize;
    let mut buf = Vec::new();
    for g in 0..replays {
        round.body(g, &mut buf);
        let t0 = Instant::now();
        let request: ProtectRequest =
            serde_json::from_reader(&buf[..]).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let seed = request_seed(server_seed(), request.request_id);
        let engine = setup
            .template
            .engine_for_request(seed, Arc::clone(&executor), None);
        let t2 = Instant::now();
        let outcome = engine.protect_user(&request.trace);
        let t3 = Instant::now();
        let response = Response::json(
            200,
            &ProtectResponse {
                request_id: request.request_id,
                seed,
                result: ProtectResult::from_outcome(&outcome),
            },
        );
        let t4 = Instant::now();
        parse_s += (t1 - t0).as_secs_f64();
        build_s += (t2 - t1).as_secs_f64();
        protect_s += (t3 - t2).as_secs_f64();
        serialize_s += (t4 - t3).as_secs_f64();
        response_bytes += response.body.len();
        if let Some(served) = traced.get(g).and_then(|c| c.body.as_ref()) {
            if *served != response.body {
                return Err(format!(
                    "serve: replay of request {g} differs from the served body"
                ));
            }
        }
        digest.write(&response.body);
    }
    let us = |s: f64| s * 1e6 / replays.max(1) as f64;

    let metrics = vec![
        Metric::single("serve.client_mean_ms", "ms", client_ms),
        Metric::single("serve.client_wait_ms", "ms", wait_ms),
        Metric::single("serve.transport_ms", "ms", transport_ms),
        Metric::single("serve.queue_wait_ms", "ms", queue_wait_ms),
        Metric::single("serve.parse_ms", "ms", parse_ms),
        Metric::single("serve.engine_ms", "ms", engine_ms),
        Metric::single("serve.raw_check_ms", "ms", stage("raw_check")),
        Metric::single("serve.respond_ms", "ms", respond_ms),
        Metric::single("serve.write_ms", "ms", write_ms),
        Metric::single(
            "serve.unattributed_ms",
            "ms",
            stats::unattributed(
                client_ms,
                &[
                    wait_ms,
                    transport_ms,
                    queue_wait_ms,
                    parse_ms,
                    engine_ms,
                    respond_ms,
                    write_ms,
                ],
            ),
        ),
        Metric::single("serve.json_parse_us", "us", us(parse_s)),
        Metric::single("serve.engine_build_us", "us", us(build_s)),
        Metric::single("serve.protect_user_us", "us", us(protect_s)),
        Metric::single("serve.json_serialize_us", "us", us(serialize_s)),
        Metric::single("serve.response_bytes", "count", response_bytes as f64),
        Metric::single("serve.generator_late_p99_ms", "ms", pct(&late, 99.0)?),
        Metric::single("obs.tracing_overhead_pct", "%", overhead_pct),
    ];
    Ok((metrics, plain.len() + traced.len() + replays))
}
