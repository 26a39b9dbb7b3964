//! End-to-end fault-tolerance suite: NAND fault injection at the chip
//! level surfacing through the FTL, the session scheduler, completion
//! statuses, and drive-health telemetry — with the shadow-FTL oracle and
//! the invariant auditor watching the whole way.
//!
//! The acceptance bar pinned here: every injected erase failure ends in a
//! retired block with its live pages rescued; exhausting the spare budget
//! trips read-only graceful degradation under which the drive *keeps
//! serving reads* while writes complete as `DriveReadOnly`; program
//! failures remap in flight without losing data; and the read-retry
//! ladder recovers correctable spikes while uncorrectable ones complete
//! as `MediaError` instead of panicking or hanging.

use aero::core::SchemeKind;
use aero::nand::FaultConfig;
use aero::ssd::session::{CompletedRequest, PageWriteEvent, SimObserver};
use aero::ssd::{Auditor, CompletionStatus, RunReport, Ssd, SsdConfig};
use aero::workloads::{IoOp, IoRequest, IterSource, SyntheticWorkload, Trace, TraceSource};

/// Sectors per 16 KiB logical page (LBAs are in 512-byte sectors).
const SECTORS_PER_PAGE: u64 = 32;
const PAGE_BYTES: u32 = 16 * 1024;

/// Collects per-request completion statuses.
#[derive(Default)]
struct StatusLog {
    completions: Vec<(IoOp, CompletionStatus)>,
}

impl SimObserver for StatusLog {
    fn on_request_complete(&mut self, request: &CompletedRequest) {
        self.completions.push((request.op, request.status));
    }
}

impl StatusLog {
    fn count(&self, op: IoOp, status: CompletionStatus) -> usize {
        self.completions
            .iter()
            .filter(|(o, s)| *o == op && *s == status)
            .count()
    }
}

/// A trace of single-page, page-aligned requests over `lpns`, arriving at
/// a fixed cadence.
fn page_trace(op: IoOp, lpns: impl Iterator<Item = u64>) -> Trace {
    Trace::new(
        lpns.enumerate()
            .map(|(i, lpn)| IoRequest {
                arrival_ns: i as u64 * 2_000,
                op,
                lba: lpn * SECTORS_PER_PAGE,
                size_bytes: PAGE_BYTES,
            })
            .collect(),
    )
}

/// Runs one trace as a session with the auditor and a status log attached,
/// panicking on any invariant violation or oracle divergence.
fn run_session(
    ssd: &mut Ssd,
    auditor: &mut Auditor,
    trace: &Trace,
) -> (StatusLog, aero::ssd::RunReport) {
    let mut log = StatusLog::default();
    let mut sim = ssd.session(TraceSource::new(trace));
    sim.attach_auditor(auditor);
    sim.add_observer(&mut log);
    let report = sim.run_to_end();
    assert!(auditor.is_clean(), "{}", auditor.report());
    (log, report)
}

/// Erase-status failures retire blocks until the spare budget is gone; the
/// drive then degrades to read-only and *keeps serving reads* while every
/// write completes as `DriveReadOnly` and no page is ever programmed again.
#[test]
fn spares_exhausted_drive_goes_read_only_and_keeps_serving_reads() {
    let config = SsdConfig::small_test(SchemeKind::Aero)
        .with_seed(2024)
        .with_faults(FaultConfig {
            program_fail_per_million: 0,
            erase_fail_per_million: 400_000,
            grown_bad_per_million: 0,
            read_fault_per_million: 0,
        })
        .with_spare_blocks(2);
    let spare_budget = config.spare_budget();
    let logical_pages = config.logical_pages();
    let mut ssd = Ssd::new(config);
    ssd.fill_fraction(0.8);
    let mut auditor = Auditor::new().check_every(128).with_oracle(&ssd);

    // Overwrite sweeps force GC, GC forces erases, and 40 % of erases fail:
    // the four spares (2 per die × 2 dies) cannot survive many rounds.
    let mut rounds = 0;
    let mut transition_report = None;
    while !ssd.read_only() && rounds < 12 {
        let sweep = page_trace(IoOp::Write, 0..logical_pages);
        let (_, report) = run_session(&mut ssd, &mut auditor, &sweep);
        if ssd.read_only() {
            transition_report = Some(report);
        }
        rounds += 1;
    }
    assert!(
        ssd.read_only(),
        "drive never exhausted its {spare_budget} spares after {rounds} overwrite sweeps"
    );
    // The timestamp is session-local telemetry: the report of the session
    // that tripped the transition carries it.
    let transition_report = transition_report.expect("transition session report");
    assert!(
        transition_report.health.read_only_since_ns.is_some(),
        "the transition session must report when the drive went read-only"
    );
    assert!(ssd.retired_blocks() >= spare_budget, "spares not consumed");
    assert_eq!(ssd.spare_headroom(), 0, "read-only drive has headroom left");

    // Graceful degradation: a full read sweep still serves every page, a
    // write burst completes as DriveReadOnly, and the user-write counter
    // stays frozen at its transition value.
    let read_sweep = page_trace(IoOp::Read, 0..logical_pages);
    let (log, _) = run_session(&mut ssd, &mut auditor, &read_sweep);
    assert_eq!(
        log.count(IoOp::Read, CompletionStatus::Ok) as u64,
        logical_pages,
        "a read-only drive must keep serving every read"
    );

    let write_burst = page_trace(IoOp::Write, 0..256);
    let report = {
        let mut log = StatusLog::default();
        let mut sim = ssd.session(TraceSource::new(&write_burst));
        sim.attach_auditor(&mut auditor);
        sim.add_observer(&mut log);
        let report = sim.run_to_end();
        assert!(auditor.is_clean(), "{}", auditor.report());
        assert_eq!(
            log.count(IoOp::Write, CompletionStatus::DriveReadOnly),
            256,
            "every write to a read-only drive must complete as DriveReadOnly"
        );
        report
    };
    assert!(
        report.health.read_only,
        "report telemetry must say read-only"
    );
    assert_eq!(report.health.spare_headroom, 0);
    // Event counters in `health` are per-session deltas: the burst session
    // rejected exactly its 256 writes, and the transition session saw at
    // least the failed erase that spent the last spare.
    assert_eq!(
        report.health.writes_rejected_read_only, 256,
        "rejected-write telemetry must count the burst"
    );
    assert!(transition_report.health.erase_failures >= 1);

    let audit = ssd.audit();
    assert!(audit.is_clean(), "final drive audit: {audit}");
}

/// Program-status failures are absorbed in flight: the frontier remaps the
/// page, the host sees a normal completion, and the shadow oracle confirms
/// no data was lost or misplaced.
#[test]
fn program_failures_remap_in_flight_without_losing_data() {
    let config = SsdConfig::small_test(SchemeKind::IIspe)
        .with_seed(7)
        .with_faults(FaultConfig {
            program_fail_per_million: 50_000,
            erase_fail_per_million: 0,
            grown_bad_per_million: 0,
            read_fault_per_million: 0,
        });
    let logical_pages = config.logical_pages();
    let mut ssd = Ssd::new(config);
    ssd.fill_fraction(0.6);
    let mut auditor = Auditor::new().check_every(128).with_oracle(&ssd);

    let sweep = page_trace(IoOp::Write, 0..logical_pages);
    let (log, report) = run_session(&mut ssd, &mut auditor, &sweep);
    assert_eq!(
        log.count(IoOp::Write, CompletionStatus::Ok) as u64,
        logical_pages,
        "program failures must stay invisible to the host"
    );
    assert!(
        report.health.program_failures > 0,
        "a 5 % program-failure rate over {logical_pages} writes must fire"
    );
    assert_eq!(
        report.health.retired_blocks, 0,
        "no erase faults configured"
    );
    assert!(!report.health.read_only);

    let read_back = page_trace(IoOp::Read, 0..logical_pages);
    let (log, _) = run_session(&mut ssd, &mut auditor, &read_back);
    assert_eq!(
        log.count(IoOp::Read, CompletionStatus::Ok) as u64,
        logical_pages
    );
}

/// Read-error spikes run the retry ladder: most recover (with retries
/// visible in the histogram and in latency), the uncorrectable tail
/// completes as `MediaError`, and telemetry agrees with what the host saw.
#[test]
fn read_retry_ladder_recovers_spikes_and_surfaces_media_errors() {
    let config = SsdConfig::small_test(SchemeKind::Aero)
        .with_seed(41)
        .with_faults(FaultConfig {
            program_fail_per_million: 0,
            erase_fail_per_million: 0,
            grown_bad_per_million: 0,
            read_fault_per_million: 120_000,
        });
    let logical_pages = config.logical_pages();
    let mut ssd = Ssd::new(config);
    ssd.fill_fraction(0.6);
    let mut auditor = Auditor::new().check_every(128).with_oracle(&ssd);

    // Write the full space, then read it back twice to give the ladder a
    // large deterministic sample.
    let sweep = page_trace(IoOp::Write, 0..logical_pages);
    run_session(&mut ssd, &mut auditor, &sweep);
    let read_back = page_trace(IoOp::Read, (0..logical_pages).chain(0..logical_pages));
    let (log, report) = run_session(&mut ssd, &mut auditor, &read_back);

    let ok = log.count(IoOp::Read, CompletionStatus::Ok) as u64;
    let media = log.count(IoOp::Read, CompletionStatus::MediaError) as u64;
    assert_eq!(
        ok + media,
        2 * logical_pages,
        "every read must complete, recovered or not"
    );

    assert!(
        report.health.recovered_reads() > 0,
        "a 12 % spike rate must exercise the retry ladder"
    );
    assert_eq!(
        report.health.media_errors, media,
        "media-error telemetry must match host-visible MediaError completions"
    );
    assert!(
        report.health.read_retry_histogram[0] > 0,
        "clean reads must land in ladder level 0"
    );
}

/// Counts user page placements (`PageWriteEvent`s with `gc == false`).
#[derive(Default)]
struct UserPlacements(u64);

impl SimObserver for UserPlacements {
    fn on_page_write(&mut self, write: &PageWriteEvent) {
        if !write.gc {
            self.0 += 1;
        }
    }
}

/// Streams a long 50/50 synthetic mix through a 60 %-full drive with 16
/// spare blocks under `fault`. Returns the report and the number of user
/// pages actually placed.
fn streamed_run(fault: FaultConfig, requests: usize) -> (RunReport, u64) {
    let config = SsdConfig::small_test(SchemeKind::Aero)
        .with_seed(0xA11CE)
        .with_spare_blocks(16)
        .with_faults(fault);
    let mut ssd = Ssd::new(config);
    ssd.fill_fraction(0.6);
    let workload = SyntheticWorkload {
        read_ratio: 0.5,
        mean_request_bytes: 16.0 * 1024.0,
        mean_inter_arrival_ns: 100_000.0,
        footprint_bytes: 4 << 20,
        hot_access_fraction: 0.8,
        hot_region_fraction: 0.2,
    };
    let mut placements = UserPlacements::default();
    let mut sim = ssd.session(IterSource::new(workload.stream(0xA11CE).take(requests)));
    sim.add_observer(&mut placements);
    let report = sim.run_to_end();
    assert_eq!(
        report.reads_completed + report.writes_completed,
        requests as u64,
        "every streamed request must complete"
    );
    (report, placements.0)
}

/// A mixed fault plan (program and erase failures, grown-bad blocks,
/// read-error spikes) on a long streamed run stays in the regime where the
/// drive does real work: blocks retire, the drive never goes read-only,
/// GC keeps erasing, and every user write is actually programmed — a
/// write that completes without being placed (the no-space escape hatch)
/// would show up as fewer user placements than the fault-free run.
#[test]
fn faulted_stream_retires_blocks_and_places_every_user_page() {
    // Retirement rates sized so total retirements stay well inside the
    // spare budget: retire too many of the drive's 48 blocks and GC
    // victims stop fitting in the surviving capacity.
    let fault = FaultConfig {
        program_fail_per_million: 1_000,
        erase_fail_per_million: 100,
        grown_bad_per_million: 2,
        read_fault_per_million: 50_000,
    };
    let requests = 200_000;
    let (plain, plain_placed) = streamed_run(FaultConfig::disabled(), requests);
    let (faulted, faulted_placed) = streamed_run(fault, requests);

    let health = &faulted.health;
    assert!(health.any_events(), "the fault plan must fire");
    assert!(
        health.retired_blocks > 0,
        "the run must be long enough to retire a block"
    );
    assert!(!health.read_only, "the faulted run must stay writable");
    assert!(
        faulted.erase_stats.operations * 3 >= plain.erase_stats.operations,
        "faulted erase activity collapsed ({} vs {} plain)",
        faulted.erase_stats.operations,
        plain.erase_stats.operations,
    );
    assert!(plain_placed > 0);
    assert_eq!(
        faulted_placed, plain_placed,
        "the faulted run must program every user page the plain run does"
    );
}
