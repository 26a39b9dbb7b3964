//! The repository benchmark: three SSD workloads on the paper-organisation
//! drive, timed from outside the simulator crates. See `README.md` for the
//! metrics, the workloads and which layer should move which metric.

pub mod clock;
pub mod mem;
pub mod probe;
pub mod replay;
pub mod report;
pub mod run;
pub mod workload;

use clock::Stopwatch;
use report::Metric;
use run::{run_pass, Pass};
use workload::{Size, Workload};

/// Fewest untraced passes behind an end-to-end median.
const MIN_PASSES: usize = 3;

/// The result of one benchmark invocation.
#[derive(Debug)]
pub struct Measurement {
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced).
    pub metrics: Vec<Metric>,
    /// Requests attempted over every pass.
    pub attempted: u64,
    /// Requests of passes that failed a check.
    pub failed: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Reported percentiles without enough samples beyond them.
    pub unresolved: Vec<String>,
}

impl Measurement {
    /// Whether every output, regime and resolvability check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.unresolved.is_empty()
    }
}

/// Runs `workload` for at least `seconds` of host time: untraced passes for
/// the end-to-end metrics, or untraced/traced pairs and the standalone
/// replays for the per-layer metrics.
pub fn measure(
    workload: Workload,
    seed: u64,
    size: Size,
    seconds: u64,
    traced: bool,
) -> Measurement {
    // Before any pass frees memory the allocator could hand back uncounted.
    let bytes_per_sample = traced.then(replay::recorder_bytes_per_sample);
    let start = Stopwatch::start();
    let mut probe = None;
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    loop {
        let enough = if traced {
            !traced_passes.is_empty()
        } else {
            untraced.len() >= MIN_PASSES
        };
        if enough && start.secs() >= seconds as f64 {
            break;
        }
        untraced.push(run_pass(workload, seed, size, false, &mut probe));
        if traced {
            traced_passes.push(run_pass(workload, seed, size, true, &mut probe));
        }
    }

    // Every pass simulated the same inputs, so every pass, traced or not,
    // must have simulated the same thing. Percentiles are reported, and so
    // must be resolved, in the untraced measurement only.
    let reference = &untraced[0].outcome;
    let unresolved = if traced {
        Vec::new()
    } else {
        untraced[0].unresolved.clone()
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut failures: Vec<String> = Vec::new();
    for (i, pass) in untraced.iter().chain(&traced_passes).enumerate() {
        let mut pass_failures = pass.failures.clone();
        if pass.outcome != *reference {
            let kind = if pass.trace.is_some() {
                "traced"
            } else {
                "untraced"
            };
            pass_failures.push(format!(
                "{kind} pass {} simulated differently from the first pass",
                i + 1
            ));
        }
        attempted += pass.outcome.attempted;
        if !pass_failures.is_empty() || !unresolved.is_empty() {
            failed += pass.outcome.attempted;
        }
        for line in pass_failures {
            if !failures.contains(&line) {
                failures.push(line);
            }
        }
    }

    let metrics = if traced {
        let last = traced_passes
            .last()
            .and_then(|p| p.trace.as_ref())
            .expect("a traced pass ran");
        let mut costs = replay::measure(
            &workload.config(),
            workload.pec(),
            &last.picks.borrow().kept,
            &last.recorder.page_writes,
            &last.latencies,
        );
        costs.bytes_per_sample = bytes_per_sample.unwrap_or_default();
        report::per_layer(
            workload,
            &untraced,
            &traced_passes,
            &costs,
            probe::timer_overhead_ns(),
        )
    } else {
        report::end_to_end(workload, size, &untraced)
    };
    Measurement {
        metrics,
        attempted,
        failed,
        failures,
        unresolved,
    }
}
