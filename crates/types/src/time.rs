//! Simulation time: absolute cycles and cycle durations.
//!
//! [`Cycle`] is a point on the global clock; [`Cycles`] is a duration.
//! Keeping them distinct catches the classic bug of adding two timestamps.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute point in simulated time, in clock cycles since reset.
///
/// ```
/// use nocstar_types::time::{Cycle, Cycles};
/// let t = Cycle::ZERO + Cycles::new(10);
/// assert_eq!(t - Cycle::ZERO, Cycles::new(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

/// A duration measured in clock cycles.
///
/// ```
/// use nocstar_types::time::Cycles;
/// assert_eq!(Cycles::new(3) + Cycles::new(4), Cycles::new(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycle {
    /// Simulation start.
    pub const ZERO: Cycle = Cycle(0);

    /// Wraps a raw cycle count since reset.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw cycle count since reset.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: Cycle) -> Cycles {
        debug_assert!(earlier <= self, "since() called with a later cycle");
        Cycles(self.0 - earlier.0)
    }

    /// `self + d`, clamped at the last representable cycle.
    #[inline]
    pub const fn saturating_add(self, d: Cycles) -> Cycle {
        Cycle(self.0.saturating_add(d.0))
    }
}

impl Cycles {
    /// The zero-length duration.
    pub const ZERO: Cycles = Cycles(0);
    /// One clock cycle.
    pub const ONE: Cycles = Cycles(1);

    /// Wraps a raw duration in cycles.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw duration in cycles.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl Add<Cycles> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycles) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign<Cycles> for Cycle {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = Cycles;
    fn sub(self, rhs: Cycle) -> Cycles {
        self.since(rhs)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        debug_assert!(rhs <= self, "Cycles subtraction underflow");
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        debug_assert!(rhs <= *self, "Cycles subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

impl From<Cycles> for u64 {
    fn from(c: Cycles) -> u64 {
        c.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_plus_duration_advances() {
        let mut t = Cycle::new(5);
        t += Cycles::new(3);
        assert_eq!(t, Cycle::new(8));
        assert_eq!(t + Cycles::ONE, Cycle::new(9));
    }

    #[test]
    fn difference_of_cycles_is_a_duration() {
        assert_eq!(Cycle::new(12) - Cycle::new(4), Cycles::new(8));
        assert_eq!(Cycle::new(4).since(Cycle::new(4)), Cycles::ZERO);
    }

    #[test]
    fn durations_form_a_monoid() {
        let total: Cycles = [1u64, 2, 3].into_iter().map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(6));
        assert_eq!(Cycles::ZERO + total, total);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn since_panics_on_time_travel() {
        let _ = Cycle::new(1).since(Cycle::new(2));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycle::new(7).to_string(), "@7");
        assert_eq!(Cycles::new(7).to_string(), "7cy");
    }
}
