//! Integer-microsecond virtual time.
//!
//! Floating-point time makes event ordering platform- and
//! optimization-dependent; integer microseconds keep the heap ordering exact
//! while still resolving sub-millisecond network events.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Builds an instant from fractional seconds (saturating at zero for
    /// negative inputs).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e6).round() as u64)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The instant as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from fractional seconds (saturating at zero for
    /// negative inputs).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// Time needed to move `bytes` at `bytes_per_sec`.
    ///
    /// A zero or negative rate is treated as "instantaneous" by returning a
    /// very large duration would stall the simulation, so it panics instead:
    /// rates are configuration and must be positive.
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0,
            "resource rate must be positive, got {bytes_per_sec}"
        );
        SimDuration::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimTime::from_micros(42).as_micros(), 42);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(12), SimDuration::from_secs(3));
        // Saturating subtraction: never goes negative.
        assert_eq!(
            SimTime::from_secs(1) - SimTime::from_secs(5),
            SimDuration::ZERO
        );
        let mut u = SimTime::ZERO;
        u += SimDuration::from_secs(7);
        assert_eq!(u, SimTime::from_secs(7));
    }

    #[test]
    fn bytes_at_rate() {
        // 1 MB at 1 MB/s is exactly one second.
        let d = SimDuration::for_bytes(1_000_000, 1_000_000.0);
        assert_eq!(d, SimDuration::from_secs(1));
        // 64 MB at 60 MB/s ~ 1.0667 s.
        let d = SimDuration::for_bytes(64 << 20, 60.0 * (1 << 20) as f64);
        let s = d.as_secs_f64();
        assert!((s - 64.0 / 60.0).abs() < 1e-3, "got {s}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = SimDuration::for_bytes(1, 0.0);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.25)), "1.250s");
        assert_eq!(format!("{}", SimDuration::from_micros(1500)), "0.002s");
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(9);
        assert_eq!(b.since(a), SimDuration::from_secs(4));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }
}
