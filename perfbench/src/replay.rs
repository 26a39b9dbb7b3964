//! Standalone replays that price single layers through their public calls:
//! the host arbiter's pick, the FTL's mapping update and GC victim choice,
//! the erase-scheme decision, the chip model's erase loop and read path,
//! the read-retry ladder, and the latency recorder. Each figure is the
//! median of several repetitions, in host ns per call.

use std::hint::black_box;

use aero_core::{BlockId, EraseController};
use aero_nand::{recover_read, Chip, ChipConfig, DataPattern, EccConfig, PageAddr, RetentionSpec};
use aero_ssd::ftl::{DieFtl, PageMapping, Ppa};
use aero_ssd::host::{Arbiter, QueueView, WeightedShare};
use aero_ssd::{LatencyRecorder, SsdConfig};

use crate::clock::Stopwatch;
use crate::mem;
use crate::report::median;

/// Repetitions behind every replayed figure.
const REPEATS: usize = 5;

/// Host cost of each replayed call, in ns per call unless named otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// `WeightedShare::pick` on the traced run's logged inputs.
    pub pick_ns: f64,
    /// `PageMapping::update`.
    pub map_update_ns: f64,
    /// `DieFtl::pick_gc_victim` on a full die.
    pub victim_pick_ns: f64,
    /// `EraseController::erase` under the drive's scheme, including the
    /// chip's erase loops it runs.
    pub decide_ns: f64,
    /// One `Chip::run_erase_loop`.
    pub erase_loop_ns: f64,
    /// `recover_read` on the workload's read-error mix.
    pub recover_ns: f64,
    /// `Chip::read_page`, the raw-error evaluation the fault path makes
    /// for every page read.
    pub read_sense_ns: f64,
    /// `LatencyRecorder::record`.
    pub record_ns: f64,
    /// The first tail query on a filled recorder, which sorts it.
    pub percentile_ns: f64,
    /// Resident bytes a recorder holds per sample, with its sorted cache
    /// (from [`recorder_bytes_per_sample`]).
    pub bytes_per_sample: f64,
}

/// Median over [`REPEATS`] runs of `f`, which returns (host ns, calls);
/// zero when there is nothing to replay.
fn per_call(mut f: impl FnMut() -> (u64, u64)) -> f64 {
    let costs: Vec<f64> = (0..REPEATS)
        .map(|_| match f() {
            (_, 0) => 0.0,
            (ns, calls) => ns as f64 / calls as f64,
        })
        .collect();
    median(&costs)
}

/// A chip of the drive's family with every block aged to `pec` cycles.
fn aged_chip(config: &SsdConfig, pec: u32) -> Chip {
    let mut chip = Chip::new(ChipConfig::new(config.family.clone()).with_seed(config.seed));
    for addr in config.family.geometry.iter_blocks() {
        chip.precondition_block(addr, pec).expect("in-range block");
    }
    chip
}

/// Resident bytes a latency recorder holds per sample once queried, from
/// the resident-set growth of filling one with a million samples. Call it
/// before anything else has freed memory in the process: memory the
/// allocator kept from earlier frees would be reused uncounted.
pub fn recorder_bytes_per_sample() -> f64 {
    const SAMPLES: u64 = 1_000_000;
    let before = mem::rss_bytes();
    let mut recorder = LatencyRecorder::new();
    for i in 0..SAMPLES {
        recorder.record(black_box(i.wrapping_mul(0x9E37_79B9) % 10_000_000));
    }
    black_box(recorder.percentile(99.99));
    mem::rss_bytes().saturating_sub(before) as f64 / SAMPLES as f64
}

/// Prices every replayed layer call for the workload's drive, aged to
/// `pec`, whose run made `picks` and `page_writes` (replayed through the
/// arbiter and the mapping) and recorded `latencies`. The read-path
/// figures use the drive's configured rate of read-error spikes.
pub fn measure(
    config: &SsdConfig,
    pec: u32,
    picks: &[(u64, Vec<QueueView>)],
    page_writes: &[(u64, Ppa)],
    latencies: &[u64],
) -> LayerCosts {
    let geometry = config.family.geometry;
    let blocks: Vec<_> = geometry.iter_blocks().collect();
    let ecc = EccConfig::paper_default().with_requirement(config.rber_requirement.min(72));

    let mut arbiter = WeightedShare::new();
    let pick_ns = per_call(|| {
        let start = Stopwatch::start();
        for (now_ns, views) in picks {
            black_box(arbiter.pick(*now_ns, black_box(views)));
        }
        (start.ns(), picks.len() as u64)
    });

    let map_update_ns = per_call(|| {
        let mut mapping = PageMapping::new(config.logical_pages());
        let start = Stopwatch::start();
        for &(lpn, ppa) in page_writes {
            black_box(mapping.update(lpn, ppa));
        }
        (start.ns(), page_writes.len() as u64)
    });

    // A full die whose blocks hold between none and all-but-one valid
    // pages, so the greedy scan has real choices to make.
    let mut ftl = DieFtl::new(geometry.total_blocks() as u32, geometry.pages_per_block);
    while ftl.allocate_page().is_some() {}
    for block in 0..ftl.block_count() {
        let invalid = 1 + (block * 37) % geometry.pages_per_block;
        for page in 0..invalid {
            ftl.block_mut(block).mark_invalid(page);
        }
    }
    let victim_pick_ns = per_call(|| {
        const PICKS: u64 = 20_000;
        let start = Stopwatch::start();
        for _ in 0..PICKS {
            black_box(black_box(&ftl).pick_gc_victim());
        }
        (start.ns(), PICKS)
    });

    // The drive's scheme erasing full blocks at the workload's wear.
    let mut chip = aged_chip(config, pec);
    let mut controller =
        EraseController::new(config.scheme.build_with_requirement(&config.family, &ecc));
    let mut next = 0usize;
    let decide_ns = per_call(|| {
        let mut ns = 0;
        for _ in 0..blocks.len() * 2 {
            let addr = blocks[next % blocks.len()];
            next += 1;
            let _ = chip.program_block_bulk(addr, DataPattern::Randomized);
            let start = Stopwatch::start();
            let erased = controller.erase(&mut chip, addr, BlockId(next % blocks.len()));
            ns += start.ns();
            black_box(erased).expect("standalone erase succeeds");
        }
        (ns, blocks.len() as u64 * 2)
    });

    let mut chip = aged_chip(config, pec);
    let max_loops = config.family.erase.max_loops as usize;
    let erase_loop_ns = per_call(|| {
        let (mut ns, mut loops) = (0, 0);
        for &addr in &blocks {
            let _ = chip.program_block_bulk(addr, DataPattern::Randomized);
            chip.begin_erase(addr).expect("in-range block");
            let mut outcomes = Vec::new();
            while outcomes.len() < max_loops {
                let start = Stopwatch::start();
                let outcome = chip.run_erase_loop(addr).expect("erase in flight");
                ns += start.ns();
                let passed = outcome.passed;
                outcomes.push(outcome);
                if passed {
                    break;
                }
            }
            loops += outcomes.len() as u64;
            chip.finish_erase(addr, outcomes).expect("erase in flight");
        }
        (ns, loops)
    });

    // The read path: raw errors from the chip model, then the ladder on a
    // mix with the configured share of spikes (uniform in 0.85–2× the ECC
    // capability, as the fault model draws them).
    let capability = f64::from(ecc.capability_per_kib);
    let sense_ns = config.family.timings.read.as_nanos();
    let spike_share = f64::from(config.fault.read_fault_per_million) / 1e6;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let errors: Vec<f64> = (0..100_000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            if u < spike_share {
                capability * (0.85 + 1.15 * (u / spike_share))
            } else {
                capability * 0.3
            }
        })
        .collect();
    let recover_ns = per_call(|| {
        let start = Stopwatch::start();
        for &e in &errors {
            black_box(recover_read(&ecc, black_box(e), sense_ns));
        }
        (start.ns(), errors.len() as u64)
    });
    let mut chip = aged_chip(config, pec);
    for &addr in &blocks {
        let _ = chip.program_block_bulk(addr, DataPattern::Randomized);
    }
    let pages = u64::from(geometry.pages_per_block);
    let read_sense_ns = per_call(|| {
        const READS: u64 = 100_000;
        let start = Stopwatch::start();
        for i in 0..READS {
            let addr = PageAddr::new(blocks[i as usize % blocks.len()], (i * 7 % pages) as u32);
            black_box(
                chip.read_page(addr, RetentionSpec::one_year_30c())
                    .expect("programmed page"),
            );
        }
        (start.ns(), READS)
    });

    // Telemetry: the run's completion latencies into a fresh recorder.
    let mut percentile_samples = Vec::with_capacity(REPEATS);
    let record_ns = per_call(|| {
        let mut recorder = LatencyRecorder::new();
        let start = Stopwatch::start();
        for &l in latencies {
            recorder.record(black_box(l));
        }
        let ns = start.ns();
        let start = Stopwatch::start();
        black_box(recorder.percentile(99.99));
        percentile_samples.push(start.ns() as f64);
        (ns, latencies.len() as u64)
    });

    LayerCosts {
        pick_ns,
        map_update_ns,
        victim_pick_ns,
        decide_ns,
        erase_loop_ns,
        recover_ns,
        read_sense_ns,
        record_ns,
        percentile_ns: median(&percentile_samples),
        bytes_per_sample: 0.0,
    }
}
