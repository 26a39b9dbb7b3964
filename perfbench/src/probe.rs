//! Instrumentation the benchmark attaches from outside the crates: a timing
//! wrapper around the `WorkloadSource` trait, a logging decorator around
//! the `Arbiter` trait, `SimObserver`s that count failed requests and what
//! the FTL and the erase path did, and the host-speed probe. Nothing here
//! changes what the simulator decides; the benchmark checks that by
//! comparing the traced run with an untraced one.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;

use aero_ssd::ftl::Ppa;
use aero_ssd::host::{Arbiter, QueueView};
use aero_ssd::session::{CompletedRequest, EraseEvent, GcEvent, PageWriteEvent, SimObserver};
use aero_ssd::CompletionStatus;
use aero_workloads::{IoRequest, WorkloadSource};

use crate::clock::Stopwatch;

/// Accumulated host time and call count of one timed call site.
#[derive(Debug, Default)]
pub struct CallTimer {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl CallTimer {
    /// Runs `f`, adding its host time and one call to the timer.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Stopwatch::start();
        let out = f();
        self.ns.set(self.ns.get() + start.ns());
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Calls timed so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean host ns per call, less the cost of the timing itself
    /// (`overhead_ns`, from [`timer_overhead_ns`]).
    pub fn ns_per_call(&self, overhead_ns: f64) -> f64 {
        match self.calls.get() {
            0 => 0.0,
            calls => (self.ns.get() as f64 / calls as f64 - overhead_ns).max(0.0),
        }
    }
}

/// Host ns one [`CallTimer::time`] call adds around an empty closure: the
/// median of several batches, subtracted from every per-call figure.
pub fn timer_overhead_ns() -> f64 {
    const CALLS: u64 = 100_000;
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let timer = CallTimer::default();
            let start = Stopwatch::start();
            for i in 0..CALLS {
                timer.time(|| black_box(i));
            }
            (start.ns() as f64) / CALLS as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Operations of one host-speed probe.
const PROBE_OPS: u64 = 4_000_000;

/// Words in the host-speed probe's buffer: 32 MiB, about the simulator's
/// working set, so the probe meets the same cache contention it does.
const PROBE_WORDS: usize = 4 << 20;

/// The probe's rate on the reference host (a 2-core Intel Xeon VM with a
/// 105 MiB L3), in operations per second. Host-time metrics are scaled to
/// it: a value is what the reference host would have measured.
pub const REFERENCE_PROBE_OPS_PER_S: f64 = 50e6;

/// A fixed routine, independent of the simulator's code, whose speed
/// tracks the host's: read-modify-writes at pseudo-random places in a
/// buffer the size of the simulator's working set, behind data-dependent
/// branches. On a shared host whose speed drifts by tens of percent within
/// minutes, dividing host times by this probe's speed, measured beside
/// each pass, removes most of the drift; code changes in the simulator do
/// not move it.
pub struct HostProbe {
    buffer: Vec<u64>,
}

impl HostProbe {
    /// Allocates and touches the probe's buffer.
    pub fn new() -> Self {
        HostProbe {
            buffer: vec![1; PROBE_WORDS],
        }
    }

    /// Runs the probe once and returns its rate, in operations per second.
    pub fn ops_per_s(&mut self) -> f64 {
        let n = self.buffer.len() as u64;
        let start = Stopwatch::start();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..PROBE_OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buffer[(x % n) as usize];
            let v = *slot;
            if v & 1 == 0 {
                acc = acc.wrapping_add(v.rotate_left(7));
            } else {
                acc ^= v >> 3;
            }
            *slot = v.wrapping_add(acc | 1);
        }
        black_box(acc);
        PROBE_OPS as f64 / start.secs()
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

/// A `WorkloadSource` that times every pull from the source it wraps.
pub struct TimedSource<S> {
    inner: S,
    timer: Rc<CallTimer>,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`, charging its pulls to `timer`.
    pub fn new(inner: S, timer: Rc<CallTimer>) -> Self {
        TimedSource { inner, timer }
    }
}

impl<S: WorkloadSource> WorkloadSource for TimedSource<S> {
    fn next_request(&mut self) -> Option<IoRequest> {
        let inner = &mut self.inner;
        self.timer.time(|| inner.next_request())
    }
}

/// Arbiter picks kept for the standalone pick replay.
pub const KEPT_PICKS: usize = 50_000;

/// What a [`LoggingArbiter`] saw: how often it picked, when each tenant
/// was served, and the inputs of the first picks.
#[derive(Debug, Default)]
pub struct PickLog {
    /// Picks made.
    pub calls: u64,
    /// Per tenant, the simulated times of its first and last submission to
    /// the device, indexed by tenant id.
    pub windows: Vec<Option<(u64, u64)>>,
    /// The first picks' inputs: simulated time and every queue's view.
    pub kept: Vec<(u64, Vec<QueueView>)>,
}

/// An `Arbiter` decorator that counts the picks of the arbiter it wraps,
/// records the window over which it served each tenant, and keeps the
/// first picks' inputs, so their cost can be replayed standalone: a pick
/// takes less host time than timing it from inside would cost.
pub struct LoggingArbiter {
    inner: Box<dyn Arbiter>,
    log: Rc<RefCell<PickLog>>,
    keep: usize,
}

impl LoggingArbiter {
    /// Wraps `inner`, logging its picks to `log` and keeping the inputs of
    /// the first `keep` of them.
    pub fn new(inner: Box<dyn Arbiter>, log: Rc<RefCell<PickLog>>, keep: usize) -> Self {
        LoggingArbiter { inner, log, keep }
    }
}

impl Arbiter for LoggingArbiter {
    fn pick(&mut self, now_ns: u64, queues: &[QueueView]) -> Option<usize> {
        let mut log = self.log.borrow_mut();
        log.calls += 1;
        if log.kept.len() < self.keep {
            log.kept.push((now_ns, queues.to_vec()));
        }
        let picked = self.inner.pick(now_ns, queues);
        if let Some(i) = picked {
            let tenant = usize::from(queues[i].tenant.0);
            if log.windows.len() <= tenant {
                log.windows.resize(tenant + 1, None);
            }
            let window = &mut log.windows[tenant];
            *window = Some(window.map_or((now_ns, now_ns), |(first, _)| (first, now_ns)));
        }
        picked
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// A `SimObserver` that counts requests completing with any status but
/// `Ok`. The drive's own fault counters count pages, and one request may
/// span several, so failed requests are counted here, in every pass.
#[derive(Debug, Default)]
pub struct FailureCounter {
    /// Requests completed `MediaError` or `DriveReadOnly`.
    pub failed: u64,
}

impl SimObserver for FailureCounter {
    fn on_request_complete(&mut self, request: &CompletedRequest) {
        if request.status != CompletionStatus::Ok {
            self.failed += 1;
        }
    }
}

/// Page writes kept for the FTL mapping replay: enough for a steady
/// per-update figure without holding a whole run's writes in memory.
const KEPT_PAGE_WRITES: usize = 1 << 20;

/// A `SimObserver` that counts the FTL's and the erase path's work and
/// keeps the page writes the mapping replay needs.
#[derive(Debug, Default)]
pub struct Recorder {
    /// User page programs.
    pub user_pages: u64,
    /// GC page programs.
    pub gc_pages: u64,
    /// GC invocations.
    pub gc_invocations: u64,
    /// Erases completed.
    pub erases: u64,
    /// Erase loops paid.
    pub erase_loops: u64,
    /// Requests completed.
    pub completions: u64,
    /// The first page writes, as (logical page, new location).
    pub page_writes: Vec<(u64, Ppa)>,
}

impl SimObserver for Recorder {
    fn on_request_complete(&mut self, _request: &CompletedRequest) {
        self.completions += 1;
    }

    fn on_erase_complete(&mut self, erase: &EraseEvent) {
        self.erases += 1;
        self.erase_loops += erase.loops as u64;
    }

    fn on_gc_invoked(&mut self, _gc: &GcEvent) {
        self.gc_invocations += 1;
    }

    fn on_page_write(&mut self, write: &PageWriteEvent) {
        if write.gc {
            self.gc_pages += 1;
        } else {
            self.user_pages += 1;
        }
        if self.page_writes.len() < KEPT_PAGE_WRITES {
            self.page_writes.push((write.lpn, write.ppa));
        }
    }
}
