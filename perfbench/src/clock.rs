//! The benchmark's only reads of the host clock. The repository's lint
//! keeps wall clocks out of the simulator; timing host execution is what
//! this package is for, so every read goes through this one place.

// aero-lint: allow(D2, the benchmark exists to time host execution)
use std::time::Instant;

/// A running host-time measurement.
#[derive(Debug, Clone, Copy)]
// aero-lint: allow(D2, the benchmark exists to time host execution)
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring.
    pub fn start() -> Stopwatch {
        // aero-lint: allow(D2, the benchmark exists to time host execution)
        Stopwatch(Instant::now())
    }

    /// Host nanoseconds since the start.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Host seconds since the start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
