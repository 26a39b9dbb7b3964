//! The three benchmark workloads: their drives, their request streams and
//! their set-up.
//!
//! Every workload runs on the paper-organisation drive
//! ([`SsdConfig::scaled_paper`]: 8 channels × 2 chips, AERO scheme) and is
//! open loop: arrivals come from seeded generators in simulated time, so a
//! slow simulator never thins the load it is given. The `--seed` argument
//! seeds only the request streams; the drive's own model seed is fixed, so
//! the seed changes the inputs and never the program.

use aero_core::SchemeKind;
use aero_nand::FaultConfig;
use aero_ssd::{Ssd, SsdConfig};
use aero_workloads::{IterSource, SyntheticStream, SyntheticWorkload};

use crate::clock::Stopwatch;

/// Fixed model seed of every benchmark drive.
const DRIVE_SEED: u64 = 0xAE50_BE4C;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small reads under read-error spikes, no GC: per-request host
    /// overhead and the read-retry ladder dominate.
    ReadRetry,
    /// Write-heavy churn on a worn, nearly full drive with GC in steady
    /// state: AERO's own regime.
    GcChurn,
    /// A latency-sensitive reader and a bulk writer behind the
    /// multi-tenant host interface.
    Tenants,
}

/// How much work one pass does. `Run` is the measured size; `Smoke` is a
/// short size for the self-test, too small to resolve the tails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured run length.
    Run,
    /// A short run for the smoke test.
    Smoke,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::ReadRetry, Workload::GcChurn, Workload::Tenants];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadRetry => "read_retry",
            Workload::GcChurn => "gc_churn",
            Workload::Tenants => "tenants",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The drive this workload runs on.
    pub fn config(self) -> SsdConfig {
        let config = SsdConfig::scaled_paper(SchemeKind::Aero).with_seed(DRIVE_SEED);
        match self {
            // Read-error spikes only, at the rate of perf_report's faulted
            // pass; no program, erase or grown-bad faults.
            Workload::ReadRetry => config.with_faults(FaultConfig {
                read_fault_per_million: 50_000,
                ..FaultConfig::disabled()
            }),
            Workload::GcChurn | Workload::Tenants => config,
        }
    }

    /// P/E cycles every block is pre-aged to.
    pub fn pec(self) -> u32 {
        match self {
            Workload::ReadRetry | Workload::Tenants => 2_500,
            Workload::GcChurn => 4_500,
        }
    }

    /// Fraction of the logical space filled before the run.
    pub fn fill(self) -> f64 {
        match self {
            Workload::ReadRetry => 0.7,
            Workload::GcChurn | Workload::Tenants => 0.85,
        }
    }

    /// Requests in the timed run of a single-stream workload; for
    /// `tenants`, the reader tenant's requests.
    pub fn requests(self, size: Size) -> u64 {
        match (self, size) {
            // ≥ 95% reads, so ≥ 950k reads: p99.99 has ~95 samples beyond.
            (Workload::ReadRetry, Size::Run) => 1_000_000,
            // 10% reads: 1.2M requests give ~120k reads.
            (Workload::GcChurn, Size::Run) => 1_200_000,
            // The reader's requests: p99.99 has ~50 samples beyond.
            (Workload::Tenants, Size::Run) => 500_000,
            (Workload::GcChurn, Size::Smoke) => 40_000,
            (_, Size::Smoke) => 20_000,
        }
    }

    /// Requests of the untimed GC warm-up that brings the drive to steady
    /// state before timing starts (zero where the workload needs none).
    pub fn warmup_requests(self, size: Size) -> u64 {
        match (self, size) {
            (Workload::ReadRetry, _) => 0,
            (Workload::GcChurn, Size::Run) => 300_000,
            (Workload::Tenants, Size::Run) => 150_000,
            (Workload::GcChurn, Size::Smoke) => 150_000,
            (Workload::Tenants, Size::Smoke) => 60_000,
        }
    }

    /// The bytes of logical space the workload's requests address: the
    /// filled region, so reads find mapped data and writes overwrite it.
    fn footprint_bytes(self) -> u64 {
        let config = self.config();
        let filled = config.logical_capacity_bytes() as f64 * self.fill();
        // Whole MiB, so the generator's 4 KiB page grid stays inside.
        (filled as u64) & !((1 << 20) - 1)
    }

    /// The single request stream of `read_retry` and `gc_churn`.
    pub fn stream(self, seed: u64, size: Size) -> Stream {
        let shape = match self {
            Workload::ReadRetry => SyntheticWorkload {
                read_ratio: 0.97,
                mean_request_bytes: 16.0 * 1024.0,
                mean_inter_arrival_ns: 20_000.0,
                footprint_bytes: self.footprint_bytes(),
                hot_access_fraction: 0.8,
                hot_region_fraction: 0.2,
            },
            // An ali.A-like mix: mostly writes of a few tens of KiB, arriving
            // with a margin below where GC-amplified writes back up (at
            // 120 µs they trailed their arrivals by 72 simulated seconds).
            Workload::GcChurn => SyntheticWorkload {
                read_ratio: 0.10,
                mean_request_bytes: 40.0 * 1024.0,
                mean_inter_arrival_ns: 250_000.0,
                footprint_bytes: self.footprint_bytes(),
                hot_access_fraction: 0.8,
                hot_region_fraction: 0.2,
            },
            Workload::Tenants => panic!("tenants has one stream per tenant"),
        };
        Stream::new(shape, seed, self.requests(size))
    }

    /// The reader and writer streams of `tenants`. Request counts are
    /// proportional to the tenants' rates, so both span the same simulated
    /// window.
    pub fn tenant_streams(self, seed: u64, size: Size) -> [Stream; 2] {
        assert_eq!(self, Workload::Tenants, "only tenants has tenant streams");
        let reads = self.requests(size);
        let reader = SyntheticWorkload {
            read_ratio: 1.0,
            mean_request_bytes: 4.0 * 1024.0,
            mean_inter_arrival_ns: 50_000.0,
            footprint_bytes: self.footprint_bytes(),
            hot_access_fraction: 0.8,
            hot_region_fraction: 0.2,
        };
        let writer = SyntheticWorkload {
            read_ratio: 0.0,
            mean_request_bytes: 64.0 * 1024.0,
            mean_inter_arrival_ns: 600_000.0,
            ..reader
        };
        let writes = reads * 50 / 600;
        [
            Stream::new(reader, seed, reads),
            Stream::new(writer, seed ^ 0x5752_4954_4552, writes),
        ]
    }

    /// The write-only stream of the GC warm-up: the workload's footprint
    /// overwritten with large writes, arriving faster than the drive
    /// absorbs them. The warm-up is untimed; only the GC state it leaves
    /// matters, and the timed run's halves check that it is steady.
    fn warmup_stream(self, seed: u64, size: Size) -> Stream {
        let shape = SyntheticWorkload {
            read_ratio: 0.0,
            mean_request_bytes: 64.0 * 1024.0,
            mean_inter_arrival_ns: 150_000.0,
            footprint_bytes: self.footprint_bytes(),
            hot_access_fraction: 0.8,
            hot_region_fraction: 0.2,
        };
        Stream::new(shape, seed ^ 0x5741_524D_5550, self.warmup_requests(size))
    }
}

/// A bounded synthetic request stream and what it is known to contain.
#[derive(Debug, Clone)]
pub struct Stream {
    generator: SyntheticStream,
    /// Number of requests the stream yields.
    pub requests: u64,
    /// Arrival time of the first request, in simulated nanoseconds.
    pub first_arrival_ns: u64,
    /// Arrival time of the last request, in simulated nanoseconds.
    pub last_arrival_ns: u64,
}

impl Stream {
    fn new(shape: SyntheticWorkload, seed: u64, requests: u64) -> Stream {
        let generator = shape.stream(seed);
        let mut scan = generator.clone().take(requests as usize);
        let first_arrival_ns = scan.next().map_or(0, |r| r.arrival_ns);
        let last_arrival_ns = scan.last().map_or(first_arrival_ns, |r| r.arrival_ns);
        Stream {
            generator,
            requests,
            first_arrival_ns,
            last_arrival_ns,
        }
    }

    /// The workload source the simulator pulls from.
    pub fn source(&self) -> IterSource<std::iter::Take<SyntheticStream>> {
        IterSource::new(self.generator.clone().take(self.requests as usize))
    }
}

/// Host time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Ssd::new`.
    pub new_s: f64,
    /// `Ssd::precondition_wear`.
    pub precondition_s: f64,
    /// `Ssd::fill_fraction`.
    pub fill_s: f64,
    /// The untimed GC warm-up run.
    pub warmup_s: f64,
}

impl SetupTimes {
    /// The whole set-up: the `setup_s` metric.
    pub fn total_s(&self) -> f64 {
        self.new_s + self.precondition_s + self.fill_s + self.warmup_s
    }
}

/// Builds, ages and fills the workload's drive, then runs its GC warm-up.
/// Returns the drive ready for the timed run and the time each step took.
pub fn set_up(workload: Workload, seed: u64, size: Size) -> (Ssd, SetupTimes) {
    let mut times = SetupTimes::default();
    let start = Stopwatch::start();
    let mut ssd = Ssd::new(workload.config());
    times.new_s = start.secs();
    let start = Stopwatch::start();
    ssd.precondition_wear(workload.pec());
    times.precondition_s = start.secs();
    let start = Stopwatch::start();
    ssd.fill_fraction(workload.fill());
    times.fill_s = start.secs();
    if workload.warmup_requests(size) > 0 {
        // Built before the clock starts, as the timed run's streams are.
        let stream = workload.warmup_stream(seed, size);
        let start = Stopwatch::start();
        let report = ssd.session(stream.source()).run_to_end();
        assert!(
            report.gc_invocations > 0,
            "{}: the warm-up ran no GC",
            workload.name()
        );
        times.warmup_s = start.secs();
    }
    (ssd, times)
}
