//! Virtual time for the simulator.
//!
//! Both types wrap an `f64` measured in **seconds**. Construction rejects
//! NaN, so the types are totally ordered and safe to use as event-queue keys.
//! Negative *durations* are rejected; negative *times* are allowed only
//! through subtraction (the queue never schedules before zero).
//!
//! Every function here is a one-line kernel the planner calls per plan
//! row, across crates, so each is `#[inline]` and its panic sits out of
//! line in a `#[cold]` helper.

#![warn(clippy::missing_inline_in_public_items)]

use serde::Serialize;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulation clock, in seconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. Always finite and non-negative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN or infinite — a corrupted clock must fail
    /// loudly rather than silently reorder the event queue.
    #[must_use]
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        if !secs.is_finite() {
            fail(format_args!("SimTime must be finite, got {secs}"));
        }
        SimTime(secs)
    }

    /// Seconds since simulation start.
    #[must_use]
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Time elapsed since `earlier`. Saturates to zero if `earlier` is later
    /// (callers comparing accrual checkpoints never want a negative accrual).
    #[must_use]
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }

    /// The later of two instants.
    #[must_use]
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is NaN, infinite or negative.
    #[must_use]
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        if !(secs.is_finite() && secs >= 0.0) {
            fail(format_args!(
                "SimDuration must be finite and non-negative, got {secs}"
            ));
        }
        SimDuration(secs)
    }

    /// Creates a duration from hours.
    #[must_use]
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Creates a duration from days.
    #[must_use]
    #[inline]
    pub fn from_days(days: f64) -> Self {
        Self::from_secs(days * 86_400.0)
    }

    /// Duration in seconds.
    #[must_use]
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Duration in hours.
    #[must_use]
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// True if this duration is exactly zero.
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

/// Panics with `msg`, out of line so each kernel inlines to its fast
/// path and a branch.
#[cold]
#[inline(never)]
#[track_caller]
fn fail(msg: fmt::Arguments<'_>) -> ! {
    panic!("{msg}")
}

impl Eq for SimTime {}
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction forbids NaN, so partial_cmp is total here.
        match self.0.partial_cmp(&other.0) {
            Some(order) => order,
            None => fail(format_args!("SimTime is never NaN")),
        }
    }
}
impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}
impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        match self.0.partial_cmp(&other.0) {
            Some(order) => order,
            None => fail(format_args!("SimDuration is never NaN")),
        }
    }
}
impl PartialOrd for SimDuration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Elapsed time between two instants.
    ///
    /// # Panics
    /// Panics if `rhs` is later than `self` (duration would be negative).
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3600.0 {
            write!(f, "{:.2}h", self.0 / 3600.0)
        } else if self.0 >= 60.0 {
            write!(f, "{:.2}m", self.0 / 60.0)
        } else {
            write!(f, "{:.3}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn add_duration_advances_clock() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
        assert_eq!(t.as_secs(), 15.0);
    }

    #[test]
    fn subtraction_yields_elapsed() {
        let d = SimTime::from_secs(12.0) - SimTime::from_secs(2.0);
        assert_eq!(d.as_secs(), 10.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1.0);
        let late = SimTime::from_secs(5.0);
        assert_eq!(late.saturating_since(early).as_secs(), 4.0);
        assert_eq!(early.saturating_since(late).as_secs(), 0.0);
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(SimDuration::from_hours(1.0).as_secs(), 3600.0);
        assert_eq!(SimDuration::from_days(1.0).as_secs(), 86_400.0);
        assert_eq!(SimDuration::from_hours(2.0).as_hours(), 2.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10.0);
        assert_eq!((d * 2.5).as_secs(), 25.0);
        assert_eq!((d / 4.0).as_secs(), 2.5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_secs(5400.0).to_string(), "1.50h");
        assert_eq!(SimDuration::from_secs(90.0).to_string(), "1.50m");
        assert_eq!(SimDuration::from_secs(0.5).to_string(), "0.500s");
        assert_eq!(SimTime::from_secs(1.5).to_string(), "t=1.500s");
    }
}
