//! Determinism regression suite for the parallel experiment harness.
//!
//! Every sweep in this repository is a list of independent, individually
//! seeded jobs executed by `aero-exec`; the contract is that the rendered
//! output of any sweep is **byte-identical** at every thread count
//! (`AERO_THREADS=1` is the reference). These tests pin that contract on a
//! real `run_ssd` sweep and on the full quick-scale Table 4 harness.
//!
//! The thread-count override is process-global, so all override
//! manipulation lives in a single `#[test]` function — two tests toggling
//! it concurrently would trample each other.

use aero::bench::interference::interference_study;
use aero::bench::system::{channel_sweep, fig14, fig15, run_ssd, table4, RunParams};
use aero::bench::Scale;
use aero::core::fingerprint::fnv1a_64;
use aero::core::SchemeKind;
use aero::ssd::scenario::{run_scenario, ScenarioOutcome};
use aero::ssd::{Ssd, SsdConfig};
use aero::workloads::catalog::WorkloadId;
use aero::workloads::fuzz::scenario;
use aero::workloads::{IterSource, SyntheticWorkload};

/// Runs a small but real `run_ssd` sweep (2 schemes × 2 workloads × 2 wear
/// levels) and returns the per-run measurements that summarize a report.
fn sweep() -> Vec<(u64, u64, u64, u64, u64)> {
    let mut jobs = Vec::new();
    for pec in [500u32, 2_500] {
        for workload in [WorkloadId::AliA, WorkloadId::Rsrch] {
            for scheme in [SchemeKind::Baseline, SchemeKind::Aero] {
                let mut params = RunParams::new(scheme, workload, pec, Scale::Quick);
                params.requests = 1_000;
                jobs.push(params);
            }
        }
    }
    aero::exec::par_map(jobs, |params| {
        let report = run_ssd(&params, Scale::Quick);
        (
            report.reads_completed,
            report.writes_completed,
            report.makespan_ns,
            report.read_latency.percentile(99.9),
            report.write_latency.percentile(99.9),
        )
    })
}

/// Runs a sweep of **streamed** sessions — each job drives `Ssd::session`
/// directly from a lazy `SyntheticWorkload::stream` with a mid-run
/// `snapshot()` — and returns per-run measurements from both the interim
/// snapshot and the final report.
fn streamed_sweep() -> Vec<(u64, u64, u64, u64, u64)> {
    let jobs: Vec<u64> = (0..6).collect();
    aero::exec::par_map(jobs, |seed| {
        let mut ssd = Ssd::new(SsdConfig::small_test(SchemeKind::Aero).with_seed(seed));
        ssd.fill_fraction(0.6);
        let workload = SyntheticWorkload::default_test();
        let mut sim = ssd.session(IterSource::new(workload.stream(seed).take(1_500)));
        sim.run_until(40_000_000);
        let mid = sim.snapshot();
        let report = sim.run_to_end();
        (
            mid.reads_completed + mid.writes_completed,
            report.reads_completed,
            report.writes_completed,
            report.makespan_ns,
            report.read_latency.percentile(99.9),
        )
    })
}

/// Runs the first few *faulted* fuzz scenarios through the scenario driver
/// in parallel. The fault path draws from per-die fault RNGs (program and
/// erase status failures, grown-bad blocks, read-retry recovery) and runs
/// block retirement and read-only degradation; the outcomes — including
/// every fault-telemetry counter — must not depend on the thread count.
fn faulted_sweep() -> Vec<ScenarioOutcome> {
    let seeds: Vec<u64> = (0..64)
        .filter(|&seed| scenario(seed).fault.is_some())
        .take(6)
        .collect();
    assert!(seeds.len() == 6, "expected 6 faulted seeds in 0..64");
    aero::exec::par_map(seeds, |seed| {
        run_scenario(&scenario(seed)).unwrap_or_else(|e| panic!("faulted seed {seed}: {e}"))
    })
}

const GOLDEN_DIGESTS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_digests.txt"
);

/// Compares the FNV-1a digest of each named output with the committed
/// golden file (or rewrites the file under `AERO_BLESS_FIXTURES`). Every
/// output that moved is named in one failure message.
fn check_golden_digests(outputs: &[(&str, String)]) {
    let rendered: String = outputs
        .iter()
        .map(|(name, text)| format!("{name} {:016x}\n", fnv1a_64(text.as_bytes())))
        .collect();
    if std::env::var("AERO_BLESS_FIXTURES").is_ok() {
        std::fs::write(GOLDEN_DIGESTS, &rendered).expect("bless the golden digests");
    }
    let committed = std::fs::read_to_string(GOLDEN_DIGESTS).expect(
        "missing tests/fixtures/golden_digests.txt — regenerate with \
         AERO_BLESS_FIXTURES=1 cargo test -q --test determinism",
    );
    let moved: Vec<&str> = rendered
        .lines()
        .filter(|line| !committed.lines().any(|pinned| pinned == *line))
        .collect();
    assert!(
        rendered == committed,
        "golden digests changed; the outputs that moved:\n{}\n\
         Simulated behaviour differs from the committed pin. Re-bless with \
         AERO_BLESS_FIXTURES=1 cargo test -q --test determinism only in a \
         change whose CHANGES.md entry explains why these outputs moved.",
        moved.join("\n")
    );
}

#[test]
fn sweeps_are_byte_identical_across_thread_counts() {
    // Reference: everything on one thread, as with AERO_THREADS=1.
    let (
        sweep_one,
        streamed_one,
        table_one,
        channels_one,
        faulted_one,
        interference_one,
        fig14_one,
        fig15_one,
    ) = {
        let _guard = aero::exec::override_threads(1);
        (
            sweep(),
            streamed_sweep(),
            table4(Scale::Quick),
            channel_sweep(Scale::Quick),
            faulted_sweep(),
            interference_study(Scale::Quick),
            fig14(Scale::Quick),
            fig15(Scale::Quick),
        )
    };
    // The faulted reference must actually exercise the fault machinery,
    // or the cross-thread comparison below pins nothing.
    assert!(
        faulted_one.iter().any(|o| o.retired_blocks > 0),
        "no faulted scenario retired a block — the sweep lost its coverage"
    );

    // A real run_ssd sweep must match the reference at several counts.
    for threads in [2, 8] {
        let _guard = aero::exec::override_threads(threads);
        assert_eq!(
            sweep(),
            sweep_one,
            "run_ssd sweep diverged at {threads} threads"
        );
    }

    // The full quick-scale Table 4 harness — now running on the
    // channel-aware simulator through streamed sessions — must render
    // byte-identically on 8 threads (the paper-reproduction acceptance
    // check); so must the channel-count sensitivity sweep, whose runs
    // exercise shared-bus arbitration directly, and the raw streaming
    // session path (lazy sources + mid-run snapshots).
    let (streamed_eight, table_eight, channels_eight, faulted_eight, interference_eight) = {
        let _guard = aero::exec::override_threads(8);
        (
            streamed_sweep(),
            table4(Scale::Quick),
            channel_sweep(Scale::Quick),
            faulted_sweep(),
            interference_study(Scale::Quick),
        )
    };
    assert_eq!(
        streamed_one, streamed_eight,
        "streamed-session sweep diverged between 1 and 8 threads"
    );
    assert_eq!(
        table_one, table_eight,
        "table4 quick-scale output diverged between 1 and 8 threads"
    );
    assert_eq!(
        channels_one, channels_eight,
        "channel_sweep quick-scale output diverged between 1 and 8 threads"
    );
    assert_eq!(
        faulted_one, faulted_eight,
        "fault-injected scenario sweep diverged between 1 and 8 threads"
    );
    // The multi-tenant interference study layers host-side arbitration on
    // top of the simulator; arbitration decisions derive only from simulated
    // time and queue state, so its rendered per-tenant table must also be
    // byte-identical at any thread count.
    assert_eq!(
        interference_one, interference_eight,
        "interference_study quick-scale output diverged between 1 and 8 threads"
    );

    // The same reference outputs, pinned across commits.
    check_golden_digests(&[
        ("run_ssd_sweep", format!("{sweep_one:?}")),
        ("streamed_sweep", format!("{streamed_one:?}")),
        ("table4_quick", table_one),
        ("channel_sweep_quick", channels_one),
        ("faulted_scenarios", format!("{faulted_one:?}")),
        ("interference_study_quick", interference_one),
        ("fig14_quick", fig14_one),
        ("fig15_quick", fig15_one),
    ]);
}
