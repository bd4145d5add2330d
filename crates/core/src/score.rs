//! Conformal scoring functions (paper §III-C and §V-C).
//!
//! A scoring function `s(y, ŷ)` rates how badly an estimate missed; conformal
//! validity holds for *any* exchangeable score, so the choice only affects
//! interval tightness. The paper studies three: absolute residual (default),
//! q-error (tightest), and relative error (in between). Each score must also
//! be invertible: given the calibrated threshold δ, the prediction interval
//! is `{ y : s(y, ŷ) ≤ δ }`.

use crate::error::CardEstError;
use crate::interval::PredictionInterval;
use crate::regressor::Regressor;

/// A conformal scoring function together with its interval inversion.
pub trait ScoreFunction {
    /// Conformal score of truth `y` against estimate `y_hat`; lower = better.
    fn score(&self, y: f64, y_hat: f64) -> f64;

    /// The set `{ y : score(y, y_hat) <= delta }` as a closed interval
    /// `(lo, hi)`; `hi` may be `+∞` (clip downstream).
    fn interval(&self, y_hat: f64, delta: f64) -> (f64, f64);
}

/// The conformal interval `{ y : score(y, ŷ) ≤ δ }` around the prediction
/// `y_hat` under threshold `delta` — the one place a conformal predictor
/// turns a prediction into an interval. A non-finite prediction is reported
/// as [`CardEstError::NonFiniteScore`] instead of a garbage interval.
pub(crate) fn interval_at<S: ScoreFunction>(
    score: &S,
    y_hat: f64,
    delta: f64,
) -> Result<PredictionInterval, CardEstError> {
    if !y_hat.is_finite() {
        return Err(CardEstError::NonFiniteScore { value: y_hat, context: "model prediction" });
    }
    let (lo, hi) = score.interval(y_hat, delta);
    Ok(PredictionInterval::new(lo, hi))
}

/// [`interval_at`] for a whole batch under one threshold: one
/// [`Regressor::predict_batch`] call (models with a real batch path amortize
/// their forward pass). Output `i` equals the single-query result for
/// `queries[i]` exactly — the batch predict is row-identical by the
/// regressor contract.
pub(crate) fn intervals_at<M: Regressor, S: ScoreFunction>(
    model: &M,
    score: &S,
    queries: &[Vec<f32>],
    delta: f64,
) -> Vec<Result<PredictionInterval, CardEstError>> {
    model.predict_batch(queries).into_iter().map(|y_hat| interval_at(score, y_hat, delta)).collect()
}

/// The infallible form of a batch: a non-finite prediction gets the
/// conservative [`PredictionInterval::UNBOUNDED`].
pub(crate) fn unbounded_on_error(
    results: Vec<Result<PredictionInterval, CardEstError>>,
) -> Vec<PredictionInterval> {
    results.into_iter().map(|r| r.unwrap_or(PredictionInterval::UNBOUNDED)).collect()
}

/// Absolute residual `|y - ŷ|` — the paper's default (Algorithm 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct AbsoluteResidual;

impl ScoreFunction for AbsoluteResidual {
    fn score(&self, y: f64, y_hat: f64) -> f64 {
        (y - y_hat).abs()
    }
    fn interval(&self, y_hat: f64, delta: f64) -> (f64, f64) {
        (y_hat - delta, y_hat + delta)
    }
}

/// Q-error `max(ŷ/y, y/ŷ)` with a positivity floor (paper Eq. 1; zero
/// cardinalities are replaced by the floor, mirroring the paper's "if the
/// estimated or true cardinality is 0, we modify it to 1").
#[derive(Debug, Clone, Copy)]
pub struct QErrorScore {
    /// Smallest representable positive target (1 tuple in selectivity space:
    /// `1 / N`). Values below are lifted to this floor.
    pub floor: f64,
}

impl QErrorScore {
    /// Creates the score with the given positivity floor.
    ///
    /// # Panics
    /// Panics unless `floor > 0`.
    pub fn new(floor: f64) -> Self {
        assert!(floor > 0.0, "q-error floor must be positive");
        QErrorScore { floor }
    }
}

impl ScoreFunction for QErrorScore {
    fn score(&self, y: f64, y_hat: f64) -> f64 {
        let y = y.max(self.floor);
        let y_hat = y_hat.max(self.floor);
        (y_hat / y).max(y / y_hat)
    }
    fn interval(&self, y_hat: f64, delta: f64) -> (f64, f64) {
        // score <= delta  <=>  y_hat/delta <= y <= y_hat * delta (delta >= 1).
        let y_hat = y_hat.max(self.floor);
        let delta = delta.max(1.0);
        (y_hat / delta, y_hat * delta)
    }
}

/// Relative error `|y - ŷ| / max(ŷ, floor)`, normalized by the *estimate*.
///
/// The paper states relative error as `|Card − Est| / Card` (truth-
/// normalized), but as a conformal scoring function that form is unusable
/// whenever the model over-estimates small queries in ≥ α of the calibration
/// set: the calibrated δ then exceeds 1 and the inverted interval
/// `y ≤ ŷ/(1−δ)` is unbounded above, collapsing every PI to the trivial
/// clip. Normalizing by the estimate keeps the same "proportional miss"
/// semantics with a bounded inversion `[ŷ(1−δ), ŷ(1+δ)]` — the finite
/// interval bands of the paper's Fig. 7 are only consistent with a bounded
/// inversion of this kind. Conformal validity is unaffected (any measurable
/// score of `(X, y)` is admissible since `ŷ = f̂(X)`).
#[derive(Debug, Clone, Copy)]
pub struct RelativeErrorScore {
    /// Floor applied to the estimate to keep the ratio finite.
    pub floor: f64,
}

impl RelativeErrorScore {
    /// Creates the score with the given positivity floor.
    ///
    /// # Panics
    /// Panics unless `floor > 0`.
    pub fn new(floor: f64) -> Self {
        assert!(floor > 0.0, "relative-error floor must be positive");
        RelativeErrorScore { floor }
    }
}

impl ScoreFunction for RelativeErrorScore {
    fn score(&self, y: f64, y_hat: f64) -> f64 {
        (y - y_hat).abs() / y_hat.max(self.floor)
    }
    fn interval(&self, y_hat: f64, delta: f64) -> (f64, f64) {
        // |y - ŷ| <= delta * ŷ  <=>  ŷ(1 - delta) <= y <= ŷ(1 + delta).
        let y_hat = y_hat.max(self.floor);
        ((y_hat * (1.0 - delta)).max(0.0), y_hat * (1.0 + delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inversion correctness: for y inside the returned interval the score is
    /// <= delta, just outside it is > delta.
    fn check_inversion<S: ScoreFunction>(score: &S, y_hat: f64, delta: f64) {
        let (lo, hi) = score.interval(y_hat, delta);
        let eps = 1e-6;
        if lo.is_finite() {
            assert!(
                score.score(lo + eps, y_hat) <= delta + 1e-9,
                "just inside lower bound must satisfy score <= delta"
            );
            if lo > eps {
                assert!(
                    score.score(lo - lo.abs().max(1.0) * 1e-3, y_hat) > delta - 1e-9,
                    "below lower bound must violate"
                );
            }
        }
        if hi.is_finite() {
            assert!(score.score(hi - eps, y_hat) <= delta + 1e-9);
            assert!(score.score(hi + hi.abs().max(1.0) * 1e-3, y_hat) > delta - 1e-9);
        }
    }

    #[test]
    fn absolute_residual_score_and_inversion() {
        let s = AbsoluteResidual;
        assert_eq!(s.score(5.0, 3.0), 2.0);
        assert_eq!(s.interval(3.0, 2.0), (1.0, 5.0));
        check_inversion(&s, 10.0, 3.0);
    }

    #[test]
    fn q_error_matches_paper_example() {
        // Paper §V-C: cards 100 vs est 1100 -> q-error 11; 1000 vs 2000 -> 2.
        let s = QErrorScore::new(1.0);
        assert!((s.score(100.0, 1100.0) - 11.0).abs() < 1e-9);
        assert!((s.score(1000.0, 2000.0) - 2.0).abs() < 1e-9);
        // Symmetric.
        assert_eq!(s.score(10.0, 100.0), s.score(100.0, 10.0));
        // Perfect estimate scores 1.
        assert_eq!(s.score(7.0, 7.0), 1.0);
    }

    #[test]
    fn q_error_floor_handles_zero() {
        let s = QErrorScore::new(1.0);
        assert_eq!(s.score(0.0, 10.0), 10.0);
        assert!(s.score(0.0, 0.0) == 1.0);
    }

    #[test]
    fn q_error_interval_is_multiplicative() {
        let s = QErrorScore::new(1e-9);
        let (lo, hi) = s.interval(100.0, 4.0);
        assert!((lo - 25.0).abs() < 1e-9);
        assert!((hi - 400.0).abs() < 1e-9);
        check_inversion(&s, 50.0, 3.0);
    }

    #[test]
    fn q_error_interval_clamps_delta_below_one() {
        let s = QErrorScore::new(1e-9);
        let (lo, hi) = s.interval(10.0, 0.5);
        assert!(lo <= 10.0 && hi >= 10.0, "interval must contain the estimate");
    }

    #[test]
    fn relative_error_score_and_inversion() {
        let s = RelativeErrorScore::new(1e-9);
        // |150 - 100| / 150 (normalized by the estimate 150).
        assert!((s.score(100.0, 150.0) - 1.0 / 3.0).abs() < 1e-12);
        check_inversion(&s, 100.0, 0.5);
        // Bounded above even for delta > 1.
        let (lo, hi) = s.interval(100.0, 1.5);
        assert!(hi.is_finite() && (hi - 250.0).abs() < 1e-9);
        assert_eq!(lo, 0.0, "lower bound clamps at 0 for delta > 1");
    }

    #[test]
    fn relative_error_interval_scales_with_estimate() {
        let s = RelativeErrorScore::new(1e-9);
        let (lo, hi) = s.interval(100.0, 0.25);
        assert!((lo - 75.0).abs() < 1e-9);
        assert!((hi - 125.0).abs() < 1e-9);
        let (lo2, hi2) = s.interval(10.0, 0.25);
        assert!((hi2 - lo2) < (hi - lo), "width proportional to estimate");
    }

    #[test]
    #[should_panic(expected = "floor must be positive")]
    fn q_error_rejects_zero_floor() {
        QErrorScore::new(0.0);
    }
}
