//! The workspace's single wall-clock quarantine (lint rule R8).
//!
//! Every host-time read in the workspace lives here, behind [`Stopwatch`].
//! Simulation logic runs on `simkit` time exclusively; wall-clock exists
//! only to *price* runs (trials/sec, phase timings) — numbers that are
//! documented as excluded from artefact byte-identity. Quarantining the
//! reads in one audited module makes the boundary checkable: `cargo xtask
//! lint` (R8) fails on any `std::time::{Instant, SystemTime}` mention in
//! any other file, so a wall-clock read can never silently leak into code
//! that feeds the simulation.

use std::time::Instant;

/// A started wall-clock timer. The only way to observe host time in the
/// workspace — and it deliberately only hands out *durations*, never a
/// timestamp, so callers cannot branch simulation logic on absolute time.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    // The one sanctioned wall-clock read (R8 quarantine): the clippy mirror
    // is workspace-wide, so this audited site opts out explicitly.
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Monotonic nanoseconds since the first call in this process.
///
/// This is the *span clock*: the harness injects this function pointer into
/// the simulation (`World::set_span_clock`) so span wall-clock attribution
/// works without any protocol crate reading `std::time` itself. Like
/// [`Stopwatch`], it never exposes absolute time — only an offset from an
/// arbitrary process-local epoch — and the resulting `wall_ns` fields are
/// excluded from artefact byte-identity (neutralised by `cargo xtask
/// gate`).
// The second sanctioned wall-clock read site in the R8 quarantine.
#[allow(clippy::disallowed_methods)]
pub fn monotonic_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(Instant::now().duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_ns_is_monotone() {
        let a = monotonic_ns();
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i * i);
        }
        assert!(x > 0);
        let b = monotonic_ns();
        assert!(b >= a, "span clock must be monotone: {a} then {b}");
    }

    #[test]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        // Do a little real work so even a coarse clock ticks.
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i * i);
        }
        assert!(x > 0);
        let a = sw.elapsed_s();
        let b = sw.elapsed_s();
        assert!(a >= 0.0);
        assert!(b >= a, "elapsed time is monotone");
    }
}
