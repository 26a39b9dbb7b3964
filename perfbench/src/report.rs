//! Turns passes into the named metrics, the human table and the JSON line.

use std::fmt::Write as _;

use crate::replay::LayerCosts;
use crate::run::{Outcome, Pass, Tail};
use crate::workload::{Size, Workload};

/// End-to-end metric names, as `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 9] = [
    "host_req_per_s",
    "setup_s",
    "peak_rss_mb",
    "rss_bytes_per_req",
    "ok_frac",
    "sim_read_p50_us",
    "sim_read_p99_us",
    "sim_read_p9999_us",
    "sim_write_p99_us",
];

/// Per-layer metric names, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 35] = [
    "workloads.pull_ns",
    "workloads.pulls",
    "host.pick_ns",
    "host.picks",
    "host.queue_delay_p99_us",
    "host.deferred",
    "host.rejected",
    "session.step_ns",
    "session.events_per_req",
    "session.channel_wait_us",
    "session.channel_util",
    "ftl.gc_invocations",
    "ftl.gc_moves_per_erase",
    "ftl.useful_write_ratio",
    "ftl.map_update_ns",
    "ftl.victim_pick_ns",
    "core.erase_ops",
    "core.loops_per_erase",
    "core.suspensions_per_erase",
    "core.decide_ns",
    "core.tbers_ms",
    "nand.erase_loop_ns",
    "nand.recover_ns",
    "nand.read_sense_ns",
    "nand.retried_reads",
    "nand.media_errors",
    "latency.record_ns",
    "latency.percentile_ns",
    "latency.bytes_per_sample",
    "ssd.new_s",
    "ssd.precondition_s",
    "ssd.fill_s",
    "ssd.warmup_s",
    "attributed_frac",
    "trace_overhead_frac",
];

/// One reported metric. `value` is `None` for a percentile with too few
/// samples beyond it: unresolved, never the maximum.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value, or `None` when unresolved.
    pub value: Option<f64>,
    /// What backs the value: sample counts, work counts, spreads.
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name,
        unit,
        value: Some(value),
        note: note.into(),
    }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Every pass's value, for a host-time note: the spread a run saw.
fn spread(values: &[f64]) -> String {
    let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("{} passes: {}", values.len(), listed.join(" "))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The deterministic work one pass does, shown beside host-time metrics so
/// a host change cannot pass for a code change.
fn work(o: &Outcome) -> String {
    format!(
        "work per pass: {} requests, {} events, {} page programs, {} GC moves, {} erases / {} loops, {} page reads",
        o.attempted,
        o.events,
        o.user_pages + o.gc_page_moves,
        o.gc_page_moves,
        o.erases,
        o.erase_loops,
        o.page_reads
    )
}

fn percentile(name: &'static str, tail: Tail, p: f64, ns: u64) -> Metric {
    Metric {
        name,
        unit: "us",
        value: tail.resolved(p).then_some(ns as f64 / 1e3),
        note: format!(
            "sim time; {} samples, {:.0} beyond p{p}",
            tail.samples,
            tail.beyond(p)
        ),
    }
}

/// The end-to-end metrics of untraced passes of `workload` at `size`.
pub fn end_to_end(workload: Workload, size: Size, passes: &[Pass]) -> Vec<Metric> {
    let o = &passes[0].outcome;
    let rates: Vec<f64> = passes.iter().map(Pass::req_per_s).collect();
    let setups: Vec<f64> = passes.iter().map(Pass::setup_s).collect();
    let raw_rates: Vec<f64> = passes
        .iter()
        .map(|p| p.outcome.attempted as f64 / p.host_s)
        .collect();
    let speeds: Vec<f64> = passes.iter().map(|p| p.host_speed / 1e6).collect();
    // Memory is read on the first pass only: later passes reuse memory the
    // allocator kept from earlier ones, which resident figures do not show.
    let first = &passes[0];
    let growth = first.rss_run.saturating_sub(first.rss_setup) as f64 / o.attempted as f64;
    vec![
        metric(
            "host_req_per_s",
            "req/s",
            median(&rates),
            format!(
                "host time at reference host speed; {}; unscaled {}; probe Mops/s {}; {}",
                spread(&rates),
                spread(&raw_rates),
                spread(&speeds),
                work(o)
            ),
        ),
        metric(
            "setup_s",
            "s",
            median(&setups),
            format!(
                "host time at reference host speed; {}; work per pass: {} blocks aged to PEC {}, {} pages filled, {} warm-up requests",
                spread(&setups),
                workload.config().dies() as u64 * workload.config().family.geometry.total_blocks(),
                workload.pec(),
                (workload.config().logical_pages() as f64 * workload.fill()) as u64,
                workload.warmup_requests(size)
            ),
        ),
        metric(
            "peak_rss_mb",
            "MB",
            first.peak_rss as f64 / 1e6,
            "process peak (VmHWM) over set-up and the first pass's run",
        ),
        metric(
            "rss_bytes_per_req",
            "B",
            growth,
            "resident growth over the first pass's timed run",
        ),
        metric(
            "ok_frac",
            "ratio",
            1.0 - ratio(o.failed_requests() as f64, o.attempted as f64),
            format!(
                "{} requests completed MediaError or DriveReadOnly, {} rejected, of {}; {} uncorrectable page reads, {} read-only page writes",
                o.failed_completions, o.rejected, o.attempted, o.media_errors, o.read_only_writes
            ),
        ),
        percentile("sim_read_p50_us", o.reads, 50.0, o.reads.p50_ns),
        percentile("sim_read_p99_us", o.reads, 99.0, o.reads.p99_ns),
        percentile("sim_read_p9999_us", o.reads, 99.99, o.reads.p9999_ns),
        percentile("sim_write_p99_us", o.writes, 99.0, o.writes.p99_ns),
    ]
}

/// The per-layer metrics of the traced passes, each paired with the
/// untraced pass run just before it.
pub fn per_layer(
    workload: Workload,
    untraced: &[Pass],
    traced: &[Pass],
    costs: &LayerCosts,
    timer_overhead_ns: f64,
) -> Vec<Metric> {
    let o = &traced[0].outcome;
    let traces: Vec<_> = traced.iter().filter_map(|p| p.trace.as_ref()).collect();
    let t = traces[0];
    let pull_ns = median(
        &traces
            .iter()
            .map(|t| t.pulls.ns_per_call(timer_overhead_ns))
            .collect::<Vec<_>>(),
    );
    let picks = t.picks.borrow().calls;
    let traced_ns = median(&traced.iter().map(|p| p.host_s * 1e9).collect::<Vec<_>>());
    let overheads: Vec<f64> = traced
        .iter()
        .zip(untraced)
        .map(|(t, u)| u.req_per_s() / t.req_per_s() - 1.0)
        .collect();
    let setup =
        |f: fn(&Pass) -> f64| median(&untraced.iter().chain(traced).map(f).collect::<Vec<_>>());
    let page_programs = o.user_pages + o.gc_page_moves;
    // Each completion is recorded once drive-wide; on `tenants` also into
    // its tenant's latency and queue-delay recorders.
    let records = o.completed * if workload == Workload::Tenants { 3 } else { 1 };
    let attributed = t.pulls.calls() as f64 * pull_ns
        + picks as f64 * costs.pick_ns
        + page_programs as f64 * costs.map_update_ns
        + o.gc_invocations as f64 * costs.victim_pick_ns
        + o.erases as f64 * costs.decide_ns
        + o.page_reads as f64 * (costs.recover_ns + costs.read_sense_ns)
        + records as f64 * costs.record_ns;
    let single_stream = workload != Workload::Tenants;
    vec![
        metric("workloads.pull_ns", "ns", pull_ns, "host time per source pull, timer cost subtracted"),
        metric("workloads.pulls", "count", t.pulls.calls() as f64, "source pulls"),
        metric(
            "host.pick_ns",
            "ns",
            costs.pick_ns,
            "host time per WeightedShare pick, replayed on logged inputs (tenants only)",
        ),
        metric("host.picks", "count", picks as f64, "arbiter picks (tenants only)"),
        metric(
            "host.queue_delay_p99_us",
            "us",
            o.queue_delay_p99_ns as f64 / 1e3,
            "sim time; reader tenant's host queue delay p99 (tenants only)",
        ),
        metric("host.deferred", "count", o.deferred as f64, "arrivals deferred by a full queue"),
        metric("host.rejected", "count", o.rejected as f64, "arrivals rejected"),
        metric(
            "session.step_ns",
            "ns",
            if single_stream { ratio(traced_ns, o.events as f64) } else { 0.0 },
            "host time per Simulation::step, layers below included (single-stream only)",
        ),
        metric(
            "session.events_per_req",
            "count",
            ratio(o.events as f64, o.attempted as f64),
            "events stepped per request (single-stream only)",
        ),
        metric(
            "session.channel_wait_us",
            "us",
            ratio(o.channel_wait_ns as f64, o.channel_transfers as f64) / 1e3,
            "sim time; mean bus wait per channel transfer",
        ),
        metric(
            "session.channel_util",
            "ratio",
            ratio(o.channel_busy_ns as f64, (o.channels * o.makespan_ns) as f64),
            "mean share of the run each channel bus was busy",
        ),
        metric("ftl.gc_invocations", "count", o.gc_invocations as f64, "GC victim selections"),
        metric(
            "ftl.gc_moves_per_erase",
            "count",
            ratio(o.gc_page_moves as f64, o.erases as f64),
            "valid pages migrated per erased victim",
        ),
        metric(
            "ftl.useful_write_ratio",
            "ratio",
            ratio(o.user_pages as f64, page_programs as f64),
            "user pages / all programmed pages",
        ),
        metric(
            "ftl.map_update_ns",
            "ns",
            costs.map_update_ns,
            "host time per PageMapping::update, replayed (0 on tenants: the host interface takes no observer)",
        ),
        metric(
            "ftl.victim_pick_ns",
            "ns",
            costs.victim_pick_ns,
            "host time per DieFtl::pick_gc_victim on a full die, replayed",
        ),
        metric("core.erase_ops", "count", o.erases as f64, "erase operations"),
        metric(
            "core.loops_per_erase",
            "count",
            ratio(o.erase_loops as f64, o.erases as f64),
            "erase loops per operation",
        ),
        metric(
            "core.suspensions_per_erase",
            "count",
            ratio(o.suspensions as f64, o.erases as f64),
            "erase suspensions per operation",
        ),
        metric(
            "core.decide_ns",
            "ns",
            costs.decide_ns,
            "host time per EraseController::erase at the workload's PEC, chip loops included",
        ),
        metric(
            "core.tbers_ms",
            "ms",
            ratio(o.erase_ns as f64, o.erases as f64) / 1e6,
            "sim time; mean erase latency per operation (0 where no erase runs)",
        ),
        metric(
            "nand.erase_loop_ns",
            "ns",
            costs.erase_loop_ns,
            "host time per Chip::run_erase_loop",
        ),
        metric(
            "nand.recover_ns",
            "ns",
            costs.recover_ns,
            "host time per recover_read on the workload's error mix",
        ),
        metric(
            "nand.read_sense_ns",
            "ns",
            costs.read_sense_ns,
            "host time per Chip::read_page, paid per page read on the fault path",
        ),
        metric(
            "nand.retried_reads",
            "count",
            o.retried_reads as f64,
            format!("page reads needing a retry or soft decode, of {}", o.page_reads),
        ),
        metric("nand.media_errors", "count", o.media_errors as f64, "uncorrectable page reads"),
        metric(
            "latency.record_ns",
            "ns",
            costs.record_ns,
            "host time per LatencyRecorder::record, replayed",
        ),
        metric(
            "latency.percentile_ns",
            "ns",
            costs.percentile_ns,
            format!("host time of the first tail query over {} samples", t.latencies.len()),
        ),
        metric(
            "latency.bytes_per_sample",
            "B",
            costs.bytes_per_sample,
            "resident bytes per recorded sample, sort cache included",
        ),
        metric("ssd.new_s", "s", setup(|p| p.setup.new_s), "host time of Ssd::new"),
        metric(
            "ssd.precondition_s",
            "s",
            setup(|p| p.setup.precondition_s),
            "host time of Ssd::precondition_wear",
        ),
        metric("ssd.fill_s", "s", setup(|p| p.setup.fill_s), "host time of Ssd::fill_fraction"),
        metric(
            "ssd.warmup_s",
            "s",
            setup(|p| p.setup.warmup_s),
            "host time of the untimed GC warm-up",
        ),
        metric(
            "attributed_frac",
            "ratio",
            ratio(attributed, traced_ns),
            "sum of layer ns x op count over the traced run's host time",
        ),
        metric(
            "trace_overhead_frac",
            "ratio",
            median(&overheads),
            format!(
                "(traced - untraced) / untraced host time, each scaled by its probe; {}; timer cost {timer_overhead_ns:.1} ns per timed call",
                spread(&overheads)
            ),
        ),
    ]
}

/// The aligned human-readable table.
pub fn table(workload: Workload, seed: u64, metrics: &[Metric]) -> String {
    let mut out = format!("# workload {} seed {seed}\n", workload.name());
    for m in metrics {
        let value = m
            .value
            .map_or("unresolved".to_string(), |v| format!("{v:.6}"));
        let _ = writeln!(out, "{:<26} {:>20} {:<6} {}", m.name, value, m.unit, m.note);
    }
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = match m.value {
                Some(v) if v.is_finite() => format!("{v}"),
                _ => "null".to_string(),
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
