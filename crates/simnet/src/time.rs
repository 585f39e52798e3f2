//! Simulated time.
//!
//! The simulator measures time as microseconds since the start of the run.
//! [`SimTime`] is an *instant*; durations are expressed with the standard
//! library's [`std::time::Duration`] so that call sites read naturally
//! (`ctx.set_timer_after(Duration::from_millis(500), TAG)`).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant of simulated time, measured in microseconds from the start of
/// the simulation.
///
/// ```
/// use simnet::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_millis(1500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from whole microseconds since simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from whole milliseconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if the time does not fit in `u64` microseconds.
    pub const fn from_millis(millis: u64) -> Self {
        match millis.checked_mul(1_000) {
            Some(micros) => SimTime(micros),
            None => panic!("simulation time overflows u64 microseconds"),
        }
    }

    /// Creates a time from whole seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if the time does not fit in `u64` microseconds.
    pub const fn from_secs(secs: u64) -> Self {
        match secs.checked_mul(1_000_000) {
            Some(micros) => SimTime(micros),
            None => panic!("simulation time overflows u64 microseconds"),
        }
    }

    /// Creates a time from fractional seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid simulation time {secs}"
        );
        SimTime((secs * 1e6).round() as u64)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (useful for plotting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The non-negative distance between two instants.
    ///
    /// Unlike `a - b` this never panics: it returns `Duration::ZERO` when
    /// `earlier` is actually later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_micros() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_micros() as u64;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics if `rhs` reaches before the start of the simulation.
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.as_micros() as u64)
                .expect("subtracted a Duration reaching before time zero"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when the ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> Duration {
        Duration::from_micros(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a later SimTime from an earlier one"),
        )
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1_500));
    }

    #[test]
    #[should_panic(expected = "overflows u64 microseconds")]
    fn from_secs_panics_instead_of_wrapping() {
        // 18 446 744 073 710 s is just past u64::MAX µs: it used to wrap
        // to about 0.45 s in a release build.
        let _ = SimTime::from_secs(18_446_744_073_710);
    }

    #[test]
    #[should_panic(expected = "overflows u64 microseconds")]
    fn from_millis_panics_instead_of_wrapping() {
        let _ = SimTime::from_millis(u64::MAX / 1_000 + 1);
    }

    #[test]
    fn add_duration_advances() {
        let t = SimTime::from_secs(1) + Duration::from_millis(250);
        assert_eq!(t.as_micros(), 1_250_000);
    }

    #[test]
    fn subtraction_yields_duration() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(2);
        assert_eq!(a - b, Duration::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "later SimTime")]
    fn subtraction_panics_when_reversed() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn duration_subtraction() {
        assert_eq!(
            SimTime::from_secs(5) - Duration::from_millis(500),
            SimTime::from_millis(4_500)
        );
    }

    #[test]
    #[should_panic(expected = "before time zero")]
    fn duration_subtraction_underflow_panics() {
        let _ = SimTime::from_secs(1) - Duration::from_secs(2);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_secs(1));
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
    }

    #[test]
    fn ordering_follows_time() {
        assert!(SimTime::from_micros(10) < SimTime::from_micros(11));
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn secs_f64_roundtrip() {
        let t = SimTime::from_secs_f64(38.25);
        assert!((t.as_secs_f64() - 38.25).abs() < 1e-9);
    }
}
