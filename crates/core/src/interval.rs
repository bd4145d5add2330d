//! Prediction intervals and post-processing.

/// A closed prediction interval `[lo, hi]` in target space (selectivities or
/// cardinalities — the algorithms are agnostic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionInterval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl PredictionInterval {
    /// `(-∞, +∞)`: what the infallible serving paths answer for a query
    /// whose prediction is non-finite (the `try_*` paths report the error).
    pub(crate) const UNBOUNDED: PredictionInterval =
        PredictionInterval { lo: f64::NEG_INFINITY, hi: f64::INFINITY };

    /// Creates an interval, ordering the endpoints if needed. A NaN endpoint
    /// carries no information and is replaced by the conservative infinite
    /// endpoint for its side, so `width`/`contains` stay well-defined (an
    /// interval never silently excludes everything because of a NaN).
    pub fn new(lo: f64, hi: f64) -> Self {
        let lo = if lo.is_nan() { f64::NEG_INFINITY } else { lo };
        let hi = if hi.is_nan() { f64::INFINITY } else { hi };
        if lo <= hi {
            PredictionInterval { lo, hi }
        } else {
            PredictionInterval { lo: hi, hi: lo }
        }
    }

    /// Interval width `hi - lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the interval contains `y`.
    pub fn contains(&self, y: f64) -> bool {
        self.lo <= y && y <= self.hi
    }

    /// Clamps both endpoints into `[min, max]` — the paper's common-sense
    /// post-processing: a cardinality lies in `[0, N]` no matter what the
    /// interval algorithm says (§V-A).
    pub fn clip(&self, min: f64, max: f64) -> Self {
        assert!(min <= max, "clip range inverted");
        PredictionInterval {
            lo: self.lo.clamp(min, max),
            hi: self.hi.clamp(min, max),
        }
    }

    /// Midpoint of the interval.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_orders_endpoints() {
        let i = PredictionInterval::new(3.0, 1.0);
        assert_eq!((i.lo, i.hi), (1.0, 3.0));
    }

    #[test]
    fn nan_endpoints_degrade_to_infinite() {
        let i = PredictionInterval::new(f64::NAN, 5.0);
        assert_eq!((i.lo, i.hi), (f64::NEG_INFINITY, 5.0));
        let i = PredictionInterval::new(1.0, f64::NAN);
        assert_eq!((i.lo, i.hi), (1.0, f64::INFINITY));
        let i = PredictionInterval::new(f64::NAN, f64::NAN);
        assert!(i.contains(0.0), "all-NaN input covers everything, excludes nothing");
        assert!(!i.lo.is_nan() && !i.hi.is_nan());
    }

    #[test]
    fn width_and_contains() {
        let i = PredictionInterval::new(1.0, 4.0);
        assert_eq!(i.width(), 3.0);
        assert!(i.contains(1.0) && i.contains(4.0) && i.contains(2.5));
        assert!(!i.contains(0.99) && !i.contains(4.01));
    }

    #[test]
    fn clip_clamps_both_ends() {
        let i = PredictionInterval::new(-5.0, 100.0).clip(0.0, 10.0);
        assert_eq!((i.lo, i.hi), (0.0, 10.0));
        // Clipping an interval fully below the range collapses it to a point.
        let j = PredictionInterval::new(-5.0, -1.0).clip(0.0, 10.0);
        assert_eq!((j.lo, j.hi), (0.0, 0.0));
    }

    #[test]
    fn clip_handles_infinite_upper_bound() {
        let i = PredictionInterval::new(0.5, f64::INFINITY).clip(0.0, 1.0);
        assert_eq!(i.hi, 1.0);
    }

    #[test]
    fn midpoint_is_center() {
        assert_eq!(PredictionInterval::new(2.0, 6.0).midpoint(), 4.0);
    }
}
