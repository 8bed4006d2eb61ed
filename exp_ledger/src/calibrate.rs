//! Host speed, measured beside the workload.
//!
//! The benchmark host is a 2-vCPU VM whose neighbours change how much
//! CPU it gets: a fixed loop's time swings by ±25 % over minutes, and
//! every end-to-end timing swings with it. [`Probe`] times a fixed
//! kernel of the ledger's own code — CSV-like number parsing, floating
//! point over an L1-sized array and byte hashing over an L3-sized one,
//! allocation free — [`KERNEL_RUNS`] times right before and right after
//! each measured sample. The mean of the two medians over
//! [`REFERENCE_KERNEL_S`] is the host's slowdown around that sample, and
//! the ledger reports each end-to-end timing divided by it (each rate
//! multiplied by it), in reference-host units. Medians, because on a
//! contended host a single 4 ms run lands in or between a neighbour's
//! bursts by chance. Raw values are recorded beside the normalized ones.
//!
//! The kernel must see the host, never the program under test. It calls
//! into no repository crate, and a kernel run only counts when every
//! other thread of the process — the server's workers and acceptor, the
//! executors' workers — sat idle beside it: none was running (state `R`
//! in `/proc/self/task/*/stat`) when it started or ended, and together
//! they were charged at most [`QUIET_SHARE`] of its time in CPU
//! (`schedstat`; the kernel charges a running thread at each tick, so a
//! thread that ran for a tick shows). A disturbed run is retried for up
//! to [`QUIET_WAIT`], and then the whole ledger run fails. So a change
//! that burns CPU in the background (a worker that spins instead of
//! parking, a polling accept loop, a flush thread) cannot slow the
//! kernel and read as a faster program: it slows the samples it runs
//! beside, and fails the run if it never stops.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{self, Fnv1a};

/// The kernel's median time on the reference host (2-vCPU Xeon VM at
/// 2.1 GHz, quiet), in seconds.
const REFERENCE_KERNEL_S: f64 = 0.004;

/// Kernel runs on each side of a sample.
const KERNEL_RUNS: usize = 5;

/// The CPU time the process's other threads may be charged during a
/// kernel run, as a share of the run's wall time.
const QUIET_SHARE: f64 = 0.02;

/// How long the probe retries kernel runs the program disturbed.
const QUIET_WAIT: Duration = Duration::from_secs(2);

/// The calling thread's id.
fn own_thread() -> Result<u32, String> {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .ok_or_else(|| "cannot read /proc/thread-self".to_string())
}

/// What the scheduler says about one thread.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ThreadCpu {
    id: u32,
    /// Running or waiting for a CPU (state `R`).
    running: bool,
    /// CPU time charged so far, in nanoseconds.
    cpu_ns: u64,
}

/// Every thread of the process but `me`. A thread that exits while this
/// reads is left out.
fn other_threads(me: u32) -> Result<Vec<ThreadCpu>, String> {
    let entries =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    Ok(entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&id| id != me)
        .filter_map(|id| {
            let dir = format!("/proc/self/task/{id}");
            let stat = std::fs::read_to_string(format!("{dir}/stat")).ok()?;
            // `id (name) state ...`; the name may hold spaces and parens.
            let state = stat[stat.rfind(')')? + 1..].trim_start().chars().next()?;
            let schedstat = std::fs::read_to_string(format!("{dir}/schedstat")).ok()?;
            Some(ThreadCpu {
                id,
                running: state == 'R',
                cpu_ns: schedstat.split_whitespace().next()?.parse().ok()?,
            })
        })
        .collect())
}

/// The threads that disturbed a kernel run of `run_s` seconds, given
/// the other threads before and after it: every thread running at
/// either end and, when they were charged more than [`QUIET_SHARE`] of
/// the run in all, every thread charged. A thread missing from `before`
/// started in between and counts in full. Empty for a clean run.
fn disturbers(before: &[ThreadCpu], after: &[ThreadCpu], run_s: f64) -> Vec<u32> {
    let charged: Vec<(u32, u64)> = after
        .iter()
        .map(|a| {
            let base = before.iter().find(|b| b.id == a.id).map_or(0, |b| b.cpu_ns);
            (a.id, a.cpu_ns.saturating_sub(base))
        })
        .filter(|&(_, ns)| ns > 0)
        .collect();
    let charged_s = charged.iter().map(|&(_, ns)| ns as f64 / 1e9).sum::<f64>();
    let mut ids: Vec<u32> = before
        .iter()
        .chain(after)
        .filter(|t| t.running)
        .map(|t| t.id)
        .collect();
    if charged_s > QUIET_SHARE * run_s {
        ids.extend(charged.iter().map(|&(id, _)| id));
    }
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn thread_name(t: u32) -> String {
    std::fs::read_to_string(format!("/proc/self/task/{t}/comm"))
        .map_or_else(|_| t.to_string(), |n| n.trim().to_string())
}

/// The kernel's inputs, built once, and every time it took.
pub struct Probe {
    text: Vec<u8>,
    floats: Vec<f64>,
    bytes: Vec<u8>,
    samples: Vec<f64>,
    /// Kernel runs thrown away because another thread was busy.
    retries: usize,
}

impl Default for Probe {
    fn default() -> Self {
        let mut text = Vec::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..12_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let lat = 37.0 + (x % 1000) as f64 / 7e3;
            let lng = -122.0 - (x % 997) as f64 / 7e3;
            let row = format!("{},{lat:.6},{lng:.6},{}\n", i % 531, 1_210_000_000 + i * 60);
            text.extend_from_slice(row.as_bytes());
        }
        Self {
            text,
            floats: (1..=32_768).map(|i| f64::from(i) * 0.5).collect(),
            bytes: (0..4u32 << 20)
                .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
                .collect(),
            samples: Vec::new(),
            retries: 0,
        }
    }
}

impl Probe {
    /// Runs the kernel once; returns its time in seconds.
    fn kernel(&self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0.0f64;
        for field in self.text.split(|&b| b == b'\n' || b == b',') {
            if let Some(v) = std::str::from_utf8(field)
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
            {
                acc += v;
            }
        }
        for &f in &self.floats {
            acc += f.sqrt().ln_1p() * 1e-9;
        }
        let mut h = Fnv1a::default();
        for chunk in self.bytes.chunks(4096).step_by(3) {
            h.write(chunk);
        }
        black_box((acc, h.finish()));
        t0.elapsed().as_secs_f64()
    }

    /// Runs the kernel until [`KERNEL_RUNS`] runs had no other thread of
    /// the process beside them; records and returns their median time.
    /// Fails, naming the busy threads, when they have not by
    /// [`QUIET_WAIT`].
    fn sample(&mut self) -> Result<f64, String> {
        let me = own_thread()?;
        let deadline = Instant::now() + QUIET_WAIT;
        let mut quiet = Vec::with_capacity(KERNEL_RUNS);
        while quiet.len() < KERNEL_RUNS {
            let before = other_threads(me)?;
            let s = self.kernel();
            let busy = disturbers(&before, &other_threads(me)?, s);
            if busy.is_empty() {
                quiet.push(s);
                continue;
            }
            if Instant::now() >= deadline {
                let names: Vec<String> = busy.into_iter().map(thread_name).collect();
                return Err(format!(
                    "host probe: other threads of the program ({}) kept busy beside \
                     the kernel for {} s",
                    names.join(", "),
                    QUIET_WAIT.as_secs()
                ));
            }
            self.retries += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = stats::median(&quiet);
        self.samples.push(s);
        Ok(s)
    }

    /// Runs `f` between two samples of the kernel; returns its result
    /// and the host's slowdown around it.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> Result<(R, f64), String> {
        let before = self.sample()?;
        let out = f();
        let after = self.sample()?;
        Ok((out, (before + after) / 2.0 / REFERENCE_KERNEL_S))
    }

    /// The median slowdown over every sample so far.
    pub fn median_slowdown(&self) -> f64 {
        stats::median(&self.samples) / REFERENCE_KERNEL_S
    }

    /// Kernel runs thrown away because another thread was busy.
    pub fn retries(&self) -> usize {
        self.retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};

    #[test]
    fn a_run_is_disturbed_by_running_or_charged_threads() {
        let t = |id, running, cpu_ns| ThreadCpu {
            id,
            running,
            cpu_ns,
        };
        let idle = [t(1, false, 100), t(2, false, 50)];
        assert_eq!(disturbers(&idle, &idle, 0.004), Vec::<u32>::new());
        // Running at either end.
        assert_eq!(
            disturbers(&idle, &[t(1, false, 100), t(2, true, 50)], 0.004),
            [2]
        );
        assert_eq!(
            disturbers(&[t(1, true, 100)], &[t(1, false, 100)], 0.004),
            [1]
        );
        // Charged: a little is tolerated, a tick is not.
        let after = [t(1, false, 100 + 50_000), t(2, false, 50)];
        assert_eq!(disturbers(&idle, &after, 0.004), Vec::<u32>::new());
        let after = [t(1, false, 100 + 4_000_000), t(2, false, 50)];
        assert_eq!(disturbers(&idle, &after, 0.004), [1]);
        // A thread started during the run counts in full.
        let after = [t(1, false, 100), t(2, false, 50), t(3, false, 1_000_000)];
        assert_eq!(disturbers(&idle, &after, 0.004), [3]);
    }

    /// One test, so the busy thread of one case cannot disturb the
    /// other.
    #[test]
    fn the_kernel_runs_beside_idle_threads_only() {
        let mut probe = Probe::default();

        // A parked thread, like an idle server worker, leaves the
        // kernel alone.
        let (wake, parked) = mpsc::channel::<()>();
        let idle = std::thread::spawn(move || parked.recv());
        let (value, slowdown) = probe.around(|| 7).unwrap();
        assert_eq!(value, 7);
        assert!(slowdown > 0.0 && slowdown.is_finite());
        assert_eq!(probe.samples.len(), 2);
        wake.send(()).unwrap();
        idle.join().unwrap().unwrap();

        // A busy thread would slow the kernel and so make the program
        // read faster: the probe refuses to run beside it.
        let stop = Arc::new(AtomicBool::new(false));
        let spin = Arc::clone(&stop);
        let busy = std::thread::Builder::new()
            .name("busy-spinner".to_string())
            .spawn(move || {
                while !spin.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
            .unwrap();
        let err = probe.around(|| ()).unwrap_err();
        assert!(err.contains("busy-spinner"), "{err}");
        assert_eq!(probe.samples.len(), 2);
        assert!(probe.retries() > 0);
        stop.store(true, Ordering::Relaxed);
        busy.join().unwrap();

        // Once it has stopped the probe works again.
        probe.around(|| ()).unwrap();
        assert!(probe.median_slowdown() > 0.0);
    }
}
