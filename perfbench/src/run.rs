//! One pass of a workload: set-up, the timed run, and the checks on what
//! the run produced.
//!
//! A pass is deterministic in everything it simulates: the same workload,
//! seed and size give the same [`Outcome`] on every pass, traced or not.
//! Only its host times and resident memory vary.

use std::cell::RefCell;
use std::rc::Rc;

use aero_ssd::host::{Arbiter, WeightedShare};
use aero_ssd::{HostInterface, LatencyRecorder, RunReport, Simulation, TenantConfig};
use aero_workloads::WorkloadSource;

use crate::clock::Stopwatch;
use crate::mem;
use crate::probe::{
    CallTimer, FailureCounter, HostProbe, LoggingArbiter, PickLog, Recorder, TimedSource,
    KEPT_PICKS, REFERENCE_PROBE_OPS_PER_S,
};
use crate::workload::{set_up, SetupTimes, Size, Workload};

/// A percentile is resolved when at least this many samples lie beyond it.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// The last completion may land at most this long after the last arrival;
/// more means the drive was building a backlog.
const BACKLOG_SLACK_NS: u64 = 50_000_000;

/// The two halves of `gc_churn`'s timed run must agree on write
/// amplification within this share, or GC was not yet in steady state.
const STEADY_WA_TOLERANCE: f64 = 0.05;

/// Device slots of the `tenants` host interface. With 32, the writer's
/// requests stalled behind GC fill every slot in a few rare episodes, and
/// those few episodes alone set the reader's p99.99 (it spread by half its
/// median across seeds). With 64 and the writer's rate, no seed tried has
/// such an episode: the reader contends with the writes at the device, and
/// its tail is the erase-bound one AERO changes.
const DEVICE_SLOTS: usize = 64;

/// Sample count and percentiles of one latency distribution, in ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tail {
    /// Samples recorded.
    pub samples: u64,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.99th percentile.
    pub p9999_ns: u64,
}

impl Tail {
    fn of(recorder: &LatencyRecorder) -> Tail {
        Tail {
            samples: recorder.len() as u64,
            p50_ns: recorder.percentile(50.0),
            p99_ns: recorder.percentile(99.0),
            p9999_ns: recorder.percentile(99.99),
        }
    }

    /// Samples beyond percentile `p` (in percent).
    pub fn beyond(&self, p: f64) -> f64 {
        self.samples as f64 * (1.0 - p / 100.0)
    }

    /// Whether percentile `p` has at least [`MIN_SAMPLES_BEYOND`] samples
    /// beyond it.
    pub fn resolved(&self, p: f64) -> bool {
        self.beyond(p) >= MIN_SAMPLES_BEYOND
    }
}

/// Everything one pass simulated. Identical across passes of one seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Requests offered to the drive (all tenants together).
    pub attempted: u64,
    /// Requests completed, whatever their status.
    pub completed: u64,
    /// Requests the host interface refused.
    pub rejected: u64,
    /// Events the session processed (single-stream workloads only).
    pub events: u64,
    /// Read latencies (the reader tenant's end-to-end ones on `tenants`).
    pub reads: Tail,
    /// Write latencies (the writer tenant's end-to-end ones on `tenants`).
    pub writes: Tail,
    /// Last completion, in simulated ns.
    pub makespan_ns: u64,
    /// Last arrival, in simulated ns.
    pub last_arrival_ns: u64,
    /// Erase operations.
    pub erases: u64,
    /// Erase loops across them.
    pub erase_loops: u64,
    /// Simulated erase time across them, in ns.
    pub erase_ns: u64,
    /// Erases suspended for reads.
    pub suspensions: u64,
    /// GC invocations.
    pub gc_invocations: u64,
    /// GC page moves.
    pub gc_page_moves: u64,
    /// GC invocations and page moves in the first half of the run
    /// (single-stream workloads).
    pub first_half_gc: (u64, u64),
    /// User pages programmed.
    pub user_pages: u64,
    /// Page reads through the fault path's recovery ladder.
    pub page_reads: u64,
    /// Page reads recovered after at least one retry or the soft decode.
    pub retried_reads: u64,
    /// Page reads left uncorrectable.
    pub media_errors: u64,
    /// Page writes refused because the drive degraded to read-only.
    pub read_only_writes: u64,
    /// Requests completed `MediaError` or `DriveReadOnly`.
    pub failed_completions: u64,
    /// Whether the drive ended read-only.
    pub read_only: bool,
    /// Audit violations found on the drive after the run.
    pub audit_violations: usize,
    /// Transfers over all channels.
    pub channel_transfers: u64,
    /// Bus-busy ns over all channels.
    pub channel_busy_ns: u64,
    /// Bus-wait ns over all channels.
    pub channel_wait_ns: u64,
    /// Channels.
    pub channels: u64,
    /// Host queue delay p99 of the reader tenant, in ns (`tenants`).
    pub queue_delay_p99_ns: u64,
    /// Arrivals deferred by full tenant queues (`tenants`).
    pub deferred: u64,
    /// Per tenant, the simulated window from its first to its last
    /// submission to the device (`tenants`).
    pub service_windows: Vec<Option<(u64, u64)>>,
}

impl Outcome {
    /// Requests that did not complete normally: completed `MediaError` or
    /// `DriveReadOnly`, or rejected by the host.
    pub fn failed_requests(&self) -> u64 {
        self.failed_completions + self.rejected
    }

    /// Write amplification of one half of the run, from its GC moves per
    /// invocation: each collection frees `pages_per_block − moves` pages.
    fn half_wa(&self, first: bool, pages_per_block: u64) -> f64 {
        let (gc, moves) = if first {
            self.first_half_gc
        } else {
            (
                self.gc_invocations - self.first_half_gc.0,
                self.gc_page_moves - self.first_half_gc.1,
            )
        };
        let per_gc = moves as f64 / gc.max(1) as f64;
        pages_per_block as f64 / (pages_per_block as f64 - per_gc).max(1.0)
    }
}

/// What the traced pass measured on top of its [`Outcome`].
#[derive(Debug, Default)]
pub struct Trace {
    /// Source pulls.
    pub pulls: Rc<CallTimer>,
    /// Arbiter picks (`tenants`).
    pub picks: Rc<RefCell<PickLog>>,
    /// The observer's counts and page writes (single-stream workloads:
    /// the host interface takes no observer).
    pub recorder: Recorder,
    /// The run's completion latencies, rebuilt from its recorders'
    /// quantiles in a seeded shuffled order, for the telemetry replay.
    pub latencies: Vec<u64>,
}

/// The samples of `recorders`, rebuilt one per quantile step and shuffled
/// with a fixed seed, so a replay records them in no sorted order.
fn resample(recorders: &[&LatencyRecorder]) -> Vec<u64> {
    let mut samples = Vec::new();
    for recorder in recorders {
        let n = recorder.len();
        samples.extend((1..=n).map(|i| recorder.percentile(100.0 * i as f64 / n as f64)));
    }
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..samples.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        samples.swap(i, (state % (i as u64 + 1)) as usize);
    }
    samples
}

/// One set-up plus timed run.
#[derive(Debug)]
pub struct Pass {
    /// Host time of each set-up step.
    pub setup: SetupTimes,
    /// Host seconds of the timed run.
    pub host_s: f64,
    /// Resident bytes after set-up.
    pub rss_setup: u64,
    /// Resident bytes when the run ended, its report still alive.
    pub rss_run: u64,
    /// Peak resident bytes of the process when the run ended.
    pub peak_rss: u64,
    /// Host speed beside the pass, as the probe's rate in operations per
    /// second (see [`crate::probe::HostProbe`]).
    pub host_speed: f64,
    /// What the run simulated.
    pub outcome: Outcome,
    /// The traced pass's measurements.
    pub trace: Option<Trace>,
    /// Failed output and regime checks, one line each.
    pub failures: Vec<String>,
    /// Reported percentiles without enough samples beyond them.
    pub unresolved: Vec<String>,
}

/// Runs `sim` to its end, pausing at `mid_ns` to read the first half's GC
/// counters. Returns (events, GC counters at the midpoint, report).
fn drive<S: WorkloadSource>(
    mut sim: Simulation<'_, S>,
    mid_ns: u64,
) -> (u64, RunReport, RunReport) {
    let mut events = sim.run_until(mid_ns);
    let mid = sim.snapshot_shell();
    while sim.step() {
        events += 1;
    }
    (events, mid, sim.run_to_end())
}

/// Fills the outcome fields every workload reads from its report.
fn from_report(outcome: &mut Outcome, report: &RunReport) {
    outcome.makespan_ns = report.makespan_ns;
    outcome.erases = report.erase_stats.operations;
    outcome.erase_loops = report.erase_stats.loops;
    outcome.erase_ns = report.erase_stats.total_latency.as_nanos();
    outcome.suspensions = report.erase_suspensions;
    outcome.gc_invocations = report.gc_invocations;
    outcome.gc_page_moves = report.gc_page_moves;
    let health = &report.health;
    outcome.page_reads = health.read_retry_histogram.iter().sum();
    outcome.retried_reads = health.recovered_reads();
    outcome.media_errors = health.media_errors;
    outcome.read_only_writes = health.writes_rejected_read_only;
    outcome.channels = report.channel_stats.len() as u64;
    for channel in &report.channel_stats {
        outcome.channel_transfers += channel.transfers;
        outcome.channel_busy_ns += channel.busy_ns;
        outcome.channel_wait_ns += channel.wait_ns;
    }
}

/// Whether two (first, last) windows overlap for at least nine tenths of
/// their joint span.
fn overlap((a_first, a_last): (u64, u64), (b_first, b_last): (u64, u64)) -> bool {
    let joint = a_last.max(b_last) - a_first.min(b_first);
    let shared = a_last.min(b_last).saturating_sub(a_first.max(b_first));
    shared as f64 >= 0.9 * joint as f64
}

/// Sets up the workload's drive and runs it once, with the timing wrapper,
/// the kept pick inputs and the recording observer attached when `traced`.
/// Every pass counts failed requests with an observer (single-stream) and
/// tenant service windows with the arbiter decorator (`tenants`). The
/// host-speed probe runs just before and just after the timed run. Its buffer is first allocated after
/// the first pass, whose memory figures it would otherwise inflate; that
/// pass is probed after its run only.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    size: Size,
    traced: bool,
    probe: &mut Option<HostProbe>,
) -> Pass {
    let (mut ssd, setup) = set_up(workload, seed, size);
    let rss_setup = mem::rss_bytes();
    let speed_before = probe.as_mut().map(HostProbe::ops_per_s);
    let user_pages_before = ssd.user_pages_written();
    let mut trace = Trace::default();
    let mut outcome = Outcome::default();
    // Built before the clock starts: finding a stream's arrival window
    // walks it once, which is the benchmark's bookkeeping, not the
    // simulator's work.
    let streams = match workload {
        Workload::Tenants => workload.tenant_streams(seed, size).to_vec(),
        _ => vec![workload.stream(seed, size)],
    };
    let start = Stopwatch::start();
    let host_s;
    let rss_run;
    if let [reader, writer] = &streams[..] {
        let arbiter: Box<dyn Arbiter> = Box::new(LoggingArbiter::new(
            Box::new(WeightedShare::new()),
            trace.picks.clone(),
            if traced { KEPT_PICKS } else { 0 },
        ));
        let mut host = HostInterface::with_arbiter(arbiter).with_device_slots(DEVICE_SLOTS);
        let reader_config = TenantConfig::new("reader")
            .with_weight(4)
            .with_deadline_ns(2_000_000);
        let writer_config = TenantConfig::new("writer")
            .with_weight(1)
            .with_deadline_ns(10_000_000);
        if traced {
            host.add_tenant(
                reader_config,
                TimedSource::new(reader.source(), trace.pulls.clone()),
            );
            host.add_tenant(
                writer_config,
                TimedSource::new(writer.source(), trace.pulls.clone()),
            );
        } else {
            host.add_tenant(reader_config, reader.source());
            host.add_tenant(writer_config, writer.source());
        }
        let report = host.run(&mut ssd);
        host_s = start.secs();
        rss_run = mem::rss_bytes();
        from_report(&mut outcome, &report);
        let [r, w] = [&report.tenants[0], &report.tenants[1]];
        outcome.attempted = reader.requests + writer.requests;
        outcome.completed = r.completed() + w.completed();
        outcome.rejected = r.rejected + w.rejected;
        // The host interface takes no observer, so failed completions are
        // the drive's per-page counts here. Both stay zero on a passing
        // run: `tenants` injects no faults, and a read-only drive fails
        // the checks.
        outcome.failed_completions = outcome.media_errors + outcome.read_only_writes;
        outcome.reads = Tail::of(&r.latency);
        outcome.writes = Tail::of(&w.latency);
        outcome.last_arrival_ns = reader.last_arrival_ns.max(writer.last_arrival_ns);
        outcome.queue_delay_p99_ns = r.queue_delay.percentile(99.0);
        outcome.deferred = r.deferred + w.deferred;
        outcome.service_windows = trace.picks.borrow().windows.clone();
        if traced {
            trace.latencies = resample(&[&r.latency, &w.latency]);
        }
    } else {
        let stream = &streams[0];
        let mid_ns =
            stream.first_arrival_ns + (stream.last_arrival_ns - stream.first_arrival_ns) / 2;
        let mut failures = FailureCounter::default();
        let (events, mid, report) = if traced {
            let source = TimedSource::new(stream.source(), trace.pulls.clone());
            drive(
                ssd.session(source)
                    .with_observer(&mut failures)
                    .with_observer(&mut trace.recorder),
                mid_ns,
            )
        } else {
            drive(
                ssd.session(stream.source()).with_observer(&mut failures),
                mid_ns,
            )
        };
        host_s = start.secs();
        rss_run = mem::rss_bytes();
        from_report(&mut outcome, &report);
        outcome.attempted = stream.requests;
        outcome.completed = report.reads_completed + report.writes_completed;
        outcome.failed_completions = failures.failed;
        outcome.events = events;
        outcome.reads = Tail::of(&report.read_latency);
        outcome.writes = Tail::of(&report.write_latency);
        outcome.last_arrival_ns = stream.last_arrival_ns;
        outcome.first_half_gc = (mid.gc_invocations, mid.gc_page_moves);
        if traced {
            trace.latencies = resample(&[&report.read_latency, &report.write_latency]);
        }
    }
    let peak_rss = mem::peak_rss_bytes();
    let speed_after = probe.get_or_insert_with(HostProbe::new).ops_per_s();
    outcome.user_pages = ssd.user_pages_written() - user_pages_before;
    outcome.read_only = ssd.read_only();
    outcome.audit_violations = ssd.audit().violations.len();

    let mut pass = Pass {
        setup,
        host_s,
        rss_setup,
        rss_run,
        peak_rss,
        host_speed: speed_before.map_or(speed_after, |before| (before + speed_after) / 2.0),
        outcome,
        trace: traced.then_some(trace),
        failures: Vec::new(),
        unresolved: Vec::new(),
    };
    pass.check(
        workload,
        ssd.config().family.geometry.pages_per_block.into(),
    );
    pass
}

impl Pass {
    /// Host rate of the timed run, in requests per second, scaled to the
    /// reference host speed.
    pub fn req_per_s(&self) -> f64 {
        self.outcome.attempted as f64 / self.host_s * REFERENCE_PROBE_OPS_PER_S / self.host_speed
    }

    /// Host seconds of the set-up, scaled to the reference host speed.
    pub fn setup_s(&self) -> f64 {
        self.setup.total_s() * self.host_speed / REFERENCE_PROBE_OPS_PER_S
    }

    fn check(&mut self, workload: Workload, pages_per_block: u64) {
        let o = &self.outcome;
        let mut fail = |ok: bool, what: String| {
            if !ok {
                self.failures.push(what);
            }
        };
        // Output checks.
        fail(
            o.completed + o.rejected == o.attempted,
            format!(
                "completed {} + rejected {} != attempted {}",
                o.completed, o.rejected, o.attempted
            ),
        );
        fail(
            o.audit_violations == 0,
            format!("drive audit found {} violations", o.audit_violations),
        );
        fail(!o.read_only, "the drive degraded to read-only".into());
        if let Some(trace) = &self.trace {
            let r = &trace.recorder;
            if workload != Workload::Tenants {
                fail(
                    r.completions == o.completed
                        && r.user_pages == o.user_pages
                        && r.gc_pages == o.gc_page_moves
                        && r.gc_invocations == o.gc_invocations
                        && r.erases == o.erases
                        && r.erase_loops == o.erase_loops,
                    "the observer's counts disagree with the run report".into(),
                );
            }
            fail(
                trace.pulls.calls() >= o.attempted,
                format!(
                    "{} source pulls for {} requests",
                    trace.pulls.calls(),
                    o.attempted
                ),
            );
        }
        // Regime checks.
        fail(
            o.makespan_ns <= o.last_arrival_ns + BACKLOG_SLACK_NS,
            format!(
                "backlog: last completion {:.1} ms after the last arrival",
                (o.makespan_ns as f64 - o.last_arrival_ns as f64) / 1e6
            ),
        );
        match workload {
            Workload::ReadRetry => fail(
                o.gc_invocations == 0,
                format!("read_retry ran {} GC invocations", o.gc_invocations),
            ),
            Workload::GcChurn => {
                let first = o.half_wa(true, pages_per_block);
                let second = o.half_wa(false, pages_per_block);
                fail(
                    o.first_half_gc.0 > 0
                        && o.gc_invocations > o.first_half_gc.0
                        && (first / second - 1.0).abs() <= STEADY_WA_TOLERANCE,
                    format!(
                        "GC not in steady state: write amplification {first:.3} then {second:.3}"
                    ),
                );
            }
            Workload::Tenants => {
                let served = match o.service_windows[..] {
                    [Some(reader), Some(writer)] => overlap(reader, writer),
                    _ => false,
                };
                fail(
                    served,
                    format!(
                        "the tenants were not served over the same window: {:?}",
                        o.service_windows
                    ),
                );
                fail(o.rejected == 0, format!("{} requests rejected", o.rejected));
            }
        }
        // Percentile resolvability.
        for (name, tail, p) in [
            ("sim_read_p50_us", o.reads, 50.0),
            ("sim_read_p99_us", o.reads, 99.0),
            ("sim_read_p9999_us", o.reads, 99.99),
            ("sim_write_p99_us", o.writes, 99.0),
        ] {
            if !tail.resolved(p) {
                self.unresolved.push(format!(
                    "{name}: {:.1} samples beyond p{p} of {}",
                    tail.beyond(p),
                    tail.samples
                ));
            }
        }
    }
}
