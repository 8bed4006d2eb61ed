//! Workloads, their seeded inputs, the run plan and the timed set-up.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mood_attacks::{ApAttack, Attack, AttackSuite, PitAttack, PoiAttack, ProfileStore};
use mood_core::{EngineBuilder, MoodEngine};
use mood_lppm::{GeoI, Hmc, Lppm, Trl};
use mood_serve::EngineTemplate;
use mood_synth::{presets, DatasetSpec};
use mood_trace::{io as trace_io, Dataset, StoreConfig, TimeDelta, Trace};

/// Decoded-cache budget of every trace store the ledger builds: small
/// enough that neither workload's test split fits, so store reads
/// decode and evict on both.
const STORE_BUDGET_BYTES: usize = 4 << 20;

/// Worker threads of every executor the ledger builds: what the
/// benchmark host's `nproc` reports.
pub const THREADS: usize = 2;

/// The store configuration of the ingest phase and every store read.
pub fn store_config() -> StoreConfig {
    StoreConfig::default().with_cache_budget(STORE_BUDGET_BYTES)
}

/// The two data shapes the ledger runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// privamov-like: 41 residents with long traces. Candidate
    /// evaluation dominates protection; matching 41 profiles is cheap.
    Resident,
    /// cabspotting-like: 531 taxis with short traces. Verdicts are
    /// matching-bound (531 profiles) and the raw check is a visible
    /// share of engine time.
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Resident, Workload::Fleet];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Resident => "resident",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The committed preset. Every seed runs the same dataset: a
    /// dataset drawn from another seed moves resident's users/s by up
    /// to ±30 % (per-user search cost ranges from 4 ms to 90 ms), which
    /// would swamp any regression bound.
    fn spec(self) -> DatasetSpec {
        match self {
            Workload::Resident => presets::privamov_like(),
            Workload::Fleet => presets::cabspotting_like(),
        }
    }

    /// Open-loop offered rate: about 40 % (`resident`) and 30 %
    /// (`fleet`) of the closed-loop throughput on the reference host, so
    /// the queue stays short and latency mostly reflects service time.
    fn serve_rate(self) -> f64 {
        match self {
            Workload::Resident => 150.0,
            Workload::Fleet => 80.0,
        }
    }

    /// Reference seconds per pass of each batch phase and closed-loop
    /// requests per second, on the 2-core reference host; they turn a
    /// time budget into fixed pass and request counts, so the counts —
    /// and with them every digest — are a pure function of `--seconds`.
    fn reference(self) -> Reference {
        match self {
            Workload::Resident => Reference {
                ingest_s: 0.107,
                evaluate_s: 0.012,
                protect_s: 1.0,
                saturated_rps: 340.0,
            },
            Workload::Fleet => Reference {
                ingest_s: 0.305,
                evaluate_s: 0.4,
                protect_s: 3.1,
                saturated_rps: 250.0,
            },
        }
    }
}

struct Reference {
    ingest_s: f64,
    evaluate_s: f64,
    protect_s: f64,
    saturated_rps: f64,
}

/// How much of each phase one run performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Dataset scale: 1.0 in every recorded run, smaller (`--scale`)
    /// in smoke tests.
    pub scale: f64,
    /// Timed set-up repeats (`setup_s` is their median).
    pub setups: usize,
    /// Rounds of the measured phases; the counts below are per round.
    pub rounds: usize,
    pub ingest_passes: usize,
    pub evaluate_passes: usize,
    pub protect_passes: usize,
    /// Open-loop requests and their offered rate.
    pub open_requests: usize,
    pub rate_per_s: f64,
    /// Closed-loop requests per connection.
    pub closed_per_connection: usize,
    /// Requests replayed in process by the traced run.
    pub replays: usize,
}

/// Rounds of an untraced run.
const ROUNDS: usize = 5;

/// Share of the time budget each phase gets. The gated phases get the
/// most; the open loop only feeds notes.
const INGEST_SHARE: f64 = 0.10;
const EVALUATE_SHARE: f64 = 0.10;
const PROTECT_SHARE: f64 = 0.45;
const OPEN_SHARE: f64 = 0.20;
const CLOSED_SHARE: f64 = 0.15;

impl Plan {
    /// The plan that spends about `seconds` measuring `workload` on the
    /// reference host.
    pub fn for_seconds(workload: Workload, seconds: f64) -> Plan {
        let r = workload.reference();
        let per_round = |share: f64, per_item: f64| {
            ((seconds * share / per_item / ROUNDS as f64).round() as usize).max(1)
        };
        let rate = workload.serve_rate();
        Plan {
            scale: 1.0,
            setups: 5,
            rounds: ROUNDS,
            ingest_passes: per_round(INGEST_SHARE, r.ingest_s),
            evaluate_passes: per_round(EVALUATE_SHARE, r.evaluate_s),
            protect_passes: per_round(PROTECT_SHARE, r.protect_s),
            open_requests: per_round(OPEN_SHARE, 1.0 / rate),
            rate_per_s: rate,
            closed_per_connection: per_round(CLOSED_SHARE, 2.0 / r.saturated_rps),
            replays: 500,
        }
    }
}

/// SplitMix64 finalizer: the one seed mixer of the ledger.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives stream `stream`, element `idx` of a run's randomness from
/// its seed.
pub fn derive(seed: u64, stream: u64, idx: u64) -> u64 {
    mix64(mix64(mix64(seed) ^ stream) ^ idx)
}

/// Seed streams of [`derive`].
pub mod streams {
    pub const PROTECT_PASS: u64 = 1;
    pub const ARRIVALS: u64 = 2;
    pub const REQUEST_IDS: u64 = 3;
    pub const WINDOW_ORDER: u64 = 4;
    pub const TRACED_ARRIVALS: u64 = 5;
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(tag: &str) -> std::io::Result<WorkDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = Path::new("results").join("ledger").join(format!(
            "work-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a run feeds the program, generated from the workload and
/// seed before any timing starts.
pub struct Inputs {
    pub seed: u64,
    /// The protected half of the chronological split, in memory (the
    /// reference the checks compare against).
    pub test: Dataset,
    /// The test split cut into one-day windows: the served requests.
    pub windows: Vec<Trace>,
    /// `train.csv` (background knowledge) and `test.csv`, written once.
    pub train_csv: PathBuf,
    pub test_csv: PathBuf,
    pub test_csv_bytes: u64,
    _work: WorkDir,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, scale: f64) -> Result<Inputs, String> {
        let mut spec = workload.spec();
        if scale < 1.0 {
            spec = spec.scaled(scale);
        }
        let dataset = spec.generate();
        let (train, test) = dataset.split_chronological(TimeDelta::from_days(15));
        let work = WorkDir::create(&format!("{}-{seed}", workload.name()))
            .map_err(|e| format!("cannot create the work directory: {e}"))?;
        let train_csv = work.path().join("train.csv");
        let test_csv = work.path().join("test.csv");
        trace_io::write_csv_file(&train, &train_csv).map_err(|e| e.to_string())?;
        trace_io::write_csv_file(&test, &test_csv).map_err(|e| e.to_string())?;
        let test_csv_bytes = std::fs::metadata(&test_csv)
            .map_err(|e| e.to_string())?
            .len();
        let windows = test
            .iter()
            .flat_map(|t| t.windows(TimeDelta::from_days(1)))
            .collect();
        Ok(Inputs {
            seed,
            test,
            windows,
            train_csv,
            test_csv,
            test_csv_bytes,
            _work: work,
        })
    }

    /// The engine seed of protect pass `pass`: every pass draws fresh
    /// LPPM noise, so a pass median averages over seeds instead of
    /// resting on one.
    pub fn pass_seed(&self, pass: usize) -> u64 {
        derive(self.seed, streams::PROTECT_PASS, pass as u64)
    }
}

/// What set-up produces: the background knowledge, the trained engine
/// (paper configuration, sequential candidate executor) and its
/// template.
pub struct Setup {
    pub background: Dataset,
    pub engine: MoodEngine,
    pub template: EngineTemplate,
}

impl Setup {
    /// Reads the background CSV, trains the suite through a fresh
    /// profile store, builds HMC over the background and the engine.
    pub fn build(train_csv: &Path) -> Result<Setup, String> {
        let background = trace_io::read_csv_file(train_csv).map_err(|e| e.to_string())?;
        let store = Arc::new(ProfileStore::new());
        let suite = AttackSuite::train_with_store(
            &[
                &PoiAttack::paper_default() as &dyn Attack,
                &PitAttack::paper_default(),
                &ApAttack::paper_default(),
            ],
            &background,
            &store,
        );
        let lppms: Vec<Arc<dyn Lppm>> = vec![
            Arc::new(GeoI::paper_default()),
            Arc::new(Trl::paper_default()),
            Arc::new(Hmc::paper_default(&background)),
        ];
        let engine = EngineBuilder::new(Arc::new(suite))
            .lppms(lppms)
            .profile_store(store)
            .build()
            .map_err(|e| e.to_string())?;
        let template = EngineTemplate::from_engine(&engine);
        Ok(Setup {
            background,
            engine,
            template,
        })
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time this process has used so far, every thread together, in
/// seconds (`utime` + `stime` of `/proc/self/stat`, in 1/100 s).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Fields after `pid (comm)`: state is the 3rd, utime the 14th and
    // stime the 15th.
    let after = stat.rfind(')').map(|i| &stat[i + 1..]).unwrap_or("");
    let ticks: Vec<f64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    match ticks[..] {
        [utime, stime] => Ok((utime + stime) / 100.0),
        _ => Err("no utime/stime in /proc/self/stat".to_string()),
    }
}
