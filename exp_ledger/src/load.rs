//! The load generator: a seeded open-loop arrival schedule and the
//! open- and closed-loop runners that replay it against a server over
//! keep-alive connections.
//!
//! Each client's arrivals are a Poisson stream whose exponential gaps
//! are drawn from SplitMix64 over `(seed, client, event index)` — no
//! thread-local RNG, so one seed always yields one schedule. The gaps
//! of a client are then scaled so that its stream fills the run's
//! horizon exactly: a Poisson process conditioned on its event count.
//! Every seed therefore offers the same mean rate and only the arrival
//! pattern changes, which keeps the offered load out of the run-to-run
//! spread.
//!
//! The runners do no JSON work while timing: a request body is built by
//! the caller's `body_for`, which splices a request id into a
//! pre-serialized trace.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mood_serve::Client;

use crate::inputs::derive;

/// Concurrent clients, each on its own keep-alive connection. Two is
/// what the benchmark host's `nproc` reports; the load stays within one
/// process and that many threads and connections.
pub const CLIENTS: usize = 2;

/// A uniform draw in `[0, 1)` for event `idx` of `client` under `seed`.
fn unit(seed: u64, client: usize, idx: usize) -> f64 {
    let h = derive(seed, client as u64, idx as u64);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of the run.
    pub due: Duration,
    /// Global request index: event `i` of client `c` is `i × CLIENTS + c`.
    pub request: usize,
}

/// The open-loop schedule of `total` requests offered at `rate_per_s`
/// in all, split evenly over [`CLIENTS`] clients: one arrival list per
/// client, in due order.
pub fn schedule(seed: u64, rate_per_s: f64, total: usize) -> Vec<Vec<Arrival>> {
    assert!(rate_per_s > 0.0, "the offered rate must be positive");
    let horizon = total as f64 / rate_per_s;
    (0..CLIENTS)
        .map(|client| {
            let n = (total + CLIENTS - 1 - client) / CLIENTS;
            // n + 1 exponential gaps: the last one is the tail after the
            // final arrival, so the n arrivals sit inside the horizon.
            let gaps: Vec<f64> = (0..=n)
                .map(|i| -(1.0 - unit(seed, client, i)).ln())
                .collect();
            let scale = horizon / gaps.iter().sum::<f64>();
            let mut at = 0.0;
            gaps[..n]
                .iter()
                .enumerate()
                .map(|(i, gap)| {
                    at += gap * scale;
                    Arrival {
                        due: Duration::from_secs_f64(at),
                        request: i * CLIENTS + client,
                    }
                })
                .collect()
        })
        .collect()
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Global request index.
    pub request: usize,
    /// HTTP status, or `None` for a transport error.
    pub status: Option<u16>,
    /// Send time minus due time: the wait behind this connection's
    /// previous request plus the generator's own lateness (open loop;
    /// 0 in a closed loop).
    pub wait_ms: f64,
    /// How late the generator sent, beyond any wait for the connection
    /// to come free (open loop; 0 in a closed loop).
    pub late_ms: f64,
    /// Response received minus due time (open loop) or send time
    /// (closed loop).
    pub latency_ms: f64,
    /// Response received minus send time.
    pub service_ms: f64,
    /// The response body, kept for the first `keep_bodies` requests.
    pub body: Option<Vec<u8>>,
}

impl Completion {
    /// `true` for a 200 response.
    pub fn ok(&self) -> bool {
        self.status == Some(200)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sends one request on `client`, reconnecting once the connection has
/// failed. Returns the status (or `None`) and the body.
fn send(client: &mut Option<Client>, addr: SocketAddr, body: &[u8]) -> (Option<u16>, Vec<u8>) {
    if client.is_none() {
        *client = Client::connect(addr).ok();
    }
    let Some(conn) = client.as_mut() else {
        return (None, Vec::new());
    };
    match conn.request("POST", "/v1/protect", Some(body)) {
        Ok(resp) => (Some(resp.status), resp.body),
        Err(_) => {
            *client = None;
            (None, Vec::new())
        }
    }
}

/// Replays `schedule` open loop: each client thread sends its arrivals
/// at their due times on its own keep-alive connection, never waiting
/// for the server except behind its own in-flight request. Latency is
/// timed from the due time. Completions come back sorted by request.
pub fn open_loop<F>(
    addr: SocketAddr,
    schedule: &[Vec<Arrival>],
    body_for: &F,
    keep_bodies: usize,
) -> Vec<Completion>
where
    F: Fn(usize, &mut Vec<u8>) + Sync,
{
    // Connections open before the clock starts, so the first arrivals
    // do not pay the TCP handshake.
    let mut clients: Vec<Option<Client>> = schedule
        .iter()
        .map(|_| Client::connect(addr).ok())
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let mut done: Vec<Completion> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedule
            .iter()
            .zip(clients.iter_mut())
            .map(|(arrivals, client)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(arrivals.len());
                    let mut body = Vec::new();
                    let mut free_at = start;
                    for arrival in arrivals {
                        let due = start + arrival.due;
                        body_for(arrival.request, &mut body);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (status, resp) = send(client, addr, &body);
                        let received = Instant::now();
                        out.push(Completion {
                            request: arrival.request,
                            status,
                            wait_ms: ms(sent.saturating_duration_since(due)),
                            late_ms: ms(sent.saturating_duration_since(due.max(free_at))),
                            latency_ms: ms(received - due),
                            service_ms: ms(received - sent),
                            body: (arrival.request < keep_bodies).then_some(resp),
                        });
                        free_at = received;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    done.sort_by_key(|c| c.request);
    done
}

/// Closed loop: [`CLIENTS`] connections each send `per_connection`
/// requests back to back (connection `c` sends requests `i × CLIENTS +
/// c`). Returns the completions sorted by request and the wall time
/// from the first send to the last response.
pub fn closed_loop<F>(
    addr: SocketAddr,
    per_connection: usize,
    body_for: &F,
) -> (Vec<Completion>, Duration)
where
    F: Fn(usize, &mut Vec<u8>) + Sync,
{
    let mut clients: Vec<Option<Client>> =
        (0..CLIENTS).map(|_| Client::connect(addr).ok()).collect();
    let start = Instant::now();
    let mut done: Vec<Completion> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut body = Vec::new();
                    (0..per_connection)
                        .map(|i| {
                            let request = i * CLIENTS + c;
                            body_for(request, &mut body);
                            let sent = Instant::now();
                            let (status, _) = send(client, addr, &body);
                            let service_ms = ms(sent.elapsed());
                            Completion {
                                request,
                                status,
                                wait_ms: 0.0,
                                late_ms: 0.0,
                                latency_ms: service_ms,
                                service_ms,
                                body: None,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let wall = start.elapsed();
    done.sort_by_key(|c| c.request);
    (done, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(schedule(7, 150.0, 500), schedule(7, 150.0, 500));
        assert_ne!(schedule(7, 150.0, 500), schedule(8, 150.0, 500));
    }

    #[test]
    fn offered_rate_is_within_two_percent_over_3000_events() {
        for seed in [0, 1, 2, 0xdead_beef] {
            let plan = schedule(seed, 150.0, 3_000);
            let events: usize = plan.iter().map(Vec::len).sum();
            assert_eq!(events, 3_000);
            let last = plan
                .iter()
                .filter_map(|c| c.last())
                .map(|a| a.due.as_secs_f64())
                .fold(0.0, f64::max);
            let rate = events as f64 / last;
            assert!(
                (rate / 150.0 - 1.0).abs() < 0.02,
                "seed {seed}: {rate} req/s"
            );
            // Every request index appears once, and each stream is in
            // due order.
            let mut ids: Vec<usize> = plan.iter().flatten().map(|a| a.request).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..3_000).collect::<Vec<_>>());
            for stream in &plan {
                assert!(stream.windows(2).all(|w| w[0].due <= w[1].due));
            }
        }
    }

    #[test]
    fn clients_draw_different_streams() {
        let plan = schedule(3, 150.0, 400);
        assert_eq!(plan.len(), CLIENTS);
        let gaps = |c: usize| -> Vec<Duration> {
            plan[c].windows(2).map(|w| w[1].due - w[0].due).collect()
        };
        assert_ne!(gaps(0), gaps(1));
        assert!((0..100).all(|i| unit(3, 0, i) != unit(3, 1, i)));
    }

    #[test]
    fn gaps_are_exponential() {
        // Exponential gaps have a coefficient of variation near 1; a
        // fixed-interval generator would read 0.
        let plan = schedule(11, 100.0, 4_000);
        let gaps: Vec<f64> = plan[0]
            .windows(2)
            .map(|w| (w[1].due - w[0].due).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.1, "cv {cv}");
    }
}
