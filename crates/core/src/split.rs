//! Split conformal prediction (paper Algorithm 2).

use crate::error::{check_alpha, check_lengths, CardEstError};
use crate::interval::PredictionInterval;
use crate::quantile::{conformal_quantile, try_conformal_quantile};
use crate::regressor::Regressor;
use crate::score::{interval_at, ScoreFunction};

/// Split conformal prediction: calibrate one threshold δ on a held-out set,
/// then every interval is the score inversion at δ around the model estimate.
///
/// The simplest and cheapest of the four methods — no extra model training —
/// at the cost of a constant-width (per score function) interval.
#[derive(Debug, Clone)]
pub struct SplitConformal<M, S> {
    model: M,
    score: S,
    delta: f64,
    alpha: f64,
}

impl<M: Regressor, S: ScoreFunction> SplitConformal<M, S> {
    /// Calibrates on `(calib_x, calib_y)` at miscoverage `alpha`.
    ///
    /// Calibration scores are computed in parallel in index order (the
    /// quantile is order-independent anyway), so δ is bit-identical at any
    /// thread count.
    ///
    /// # Panics
    /// Panics on an empty calibration set, mismatched lengths, or `alpha`
    /// outside `(0, 1)`.
    pub fn calibrate(model: M, score: S, calib_x: &[Vec<f32>], calib_y: &[f64], alpha: f64) -> Self
    where
        M: Sync,
        S: Sync,
    {
        assert_eq!(calib_x.len(), calib_y.len(), "calibration set length mismatch");
        assert!(!calib_x.is_empty(), "empty calibration set");
        let _span = ce_telemetry::Span::enter("split_calibrate");
        let scores = ce_parallel::par_map(calib_x.len(), 64, |i| {
            score.score(calib_y[i], model.predict(&calib_x[i]))
        });
        let delta = conformal_quantile(&scores, alpha);
        SplitConformal { model, score, delta, alpha }
    }

    /// Non-panicking [`SplitConformal::calibrate`]: length mismatch and bad
    /// `alpha` become errors, while an empty calibration set degrades to the
    /// conservative infinite threshold (`δ = +∞`, so every interval covers).
    pub fn try_calibrate(
        model: M,
        score: S,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        alpha: f64,
    ) -> Result<Self, CardEstError>
    where
        M: Sync,
        S: Sync,
    {
        check_lengths(calib_x.len(), calib_y.len())?;
        check_alpha(alpha)?;
        let _span = ce_telemetry::Span::enter("split_calibrate");
        let scores = ce_parallel::par_map(calib_x.len(), 64, |i| {
            score.score(calib_y[i], model.predict(&calib_x[i]))
        });
        let delta = try_conformal_quantile(&scores, alpha)?;
        Ok(SplitConformal { model, score, delta, alpha })
    }

    /// Builds directly from precomputed conformal scores (used when the
    /// model's calibration predictions are already available).
    pub fn from_scores(model: M, score: S, scores: &[f64], alpha: f64) -> Self {
        let delta = conformal_quantile(scores, alpha);
        SplitConformal { model, score, delta, alpha }
    }

    /// The calibrated threshold δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The miscoverage level the predictor was calibrated for.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The wrapped model's point estimate.
    pub fn predict(&self, features: &[f32]) -> f64 {
        self.model.predict(features)
    }

    /// The prediction interval for one query; a non-finite model
    /// prediction gets the conservative `(-∞, +∞)`.
    pub fn interval(&self, features: &[f32]) -> PredictionInterval {
        self.try_interval(features).unwrap_or(PredictionInterval::UNBOUNDED)
    }

    /// Like [`SplitConformal::interval`], but a non-finite model prediction
    /// is reported as [`CardEstError::NonFiniteScore`].
    pub fn try_interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        interval_at(&self.score, self.model.predict(features), self.delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{AbsoluteResidual, QErrorScore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A deliberately-imperfect model: y = x + noise, model predicts x.
    #[allow(clippy::type_complexity)]
    fn noisy_setup(
        n: usize,
        seed: u64,
    ) -> (Vec<Vec<f32>>, Vec<f64>, impl Fn(&[f32]) -> f64 + Copy) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f32>> = (0..n).map(|_| vec![rng.gen_range(0.0..10.0f32)]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|f| f[0] as f64 + rng.gen_range(-1.0..1.0))
            .collect();
        (x, y, |f: &[f32]| f[0] as f64)
    }

    #[test]
    fn covers_holdout_at_nominal_rate() {
        let (cx, cy, model) = noisy_setup(500, 1);
        let (tx, ty, _) = noisy_setup(500, 2);
        let scp = SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 0.1);
        let covered = tx
            .iter()
            .zip(&ty)
            .filter(|(x, &y)| scp.interval(x).contains(y))
            .count() as f64
            / tx.len() as f64;
        assert!(covered >= 0.87, "coverage {covered}");
        // And not absurdly conservative for uniform noise.
        assert!(covered <= 0.99, "coverage {covered}");
    }

    #[test]
    fn interval_width_is_constant_for_residual_score() {
        let (cx, cy, model) = noisy_setup(300, 3);
        let scp = SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 0.1);
        let w1 = scp.interval(&[1.0]).width();
        let w2 = scp.interval(&[9.0]).width();
        assert!((w1 - w2).abs() < 1e-12, "S-CP width must be constant");
        assert!((w1 - 2.0 * scp.delta()).abs() < 1e-12);
    }

    #[test]
    fn delta_shrinks_with_lower_coverage() {
        let (cx, cy, model) = noisy_setup(500, 4);
        let hi =
            SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 0.01).delta();
        let lo =
            SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 0.5).delta();
        assert!(hi > lo, "99% threshold {hi} must exceed 50% threshold {lo}");
    }

    #[test]
    fn q_error_score_gives_multiplicative_intervals() {
        // Multiplicative noise: y = x * U(0.5, 2); model predicts x.
        let mut rng = StdRng::seed_from_u64(5);
        let cx: Vec<Vec<f32>> =
            (0..400).map(|_| vec![rng.gen_range(1.0..100.0f32)]).collect();
        let cy: Vec<f64> = cx
            .iter()
            .map(|f| f[0] as f64 * rng.gen_range(0.5..2.0))
            .collect();
        let model = |f: &[f32]| f[0] as f64;
        let scp =
            SplitConformal::calibrate(model, QErrorScore::new(1e-6), &cx, &cy, 0.1);
        let small = scp.interval(&[2.0]);
        let large = scp.interval(&[80.0]);
        assert!(large.width() > small.width(), "q-error widths scale with ŷ");
        // Ratio hi/lo identical across queries.
        assert!(((small.hi / small.lo) - (large.hi / large.lo)).abs() < 1e-9);
    }

    #[test]
    fn from_scores_matches_calibrate() {
        let (cx, cy, model) = noisy_setup(100, 6);
        let scores: Vec<f64> = cx
            .iter()
            .zip(&cy)
            .map(|(x, &y)| AbsoluteResidual.score(y, model.predict(x)))
            .collect();
        let a = SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 0.2);
        let b = SplitConformal::from_scores(model, AbsoluteResidual, &scores, 0.2);
        assert_eq!(a.delta(), b.delta());
    }

    #[test]
    #[should_panic(expected = "empty calibration set")]
    fn rejects_empty_calibration() {
        let model = |_: &[f32]| 0.0;
        SplitConformal::calibrate(model, AbsoluteResidual, &[], &[], 0.1);
    }

    #[test]
    fn try_calibrate_degrades_gracefully() {
        use crate::error::CardEstError;
        let model = |f: &[f32]| f[0] as f64;
        // Empty calibration: conservative infinite threshold, not a panic.
        let scp = SplitConformal::try_calibrate(model, AbsoluteResidual, &[], &[], 0.1)
            .expect("empty calibration degrades, not errors");
        assert!(scp.delta().is_infinite());
        assert!(scp.interval(&[3.0]).contains(1e18));
        // Mismatched lengths and bad alpha are caller bugs -> errors.
        assert!(matches!(
            SplitConformal::try_calibrate(model, AbsoluteResidual, &[vec![1.0]], &[], 0.1),
            Err(CardEstError::LengthMismatch { .. })
        ));
        assert!(matches!(
            SplitConformal::try_calibrate(model, AbsoluteResidual, &[], &[], 0.0),
            Err(CardEstError::InvalidAlpha(_))
        ));
        // A NaN in the calibration scores widens delta to +inf (NaN sorts
        // above all finite values under total order) instead of panicking.
        let nan_y = [f64::NAN; 3];
        let xs = vec![vec![1.0f32], vec![2.0], vec![3.0]];
        let scp = SplitConformal::try_calibrate(model, AbsoluteResidual, &xs, &nan_y, 0.1)
            .expect("NaN labels degrade, not error");
        assert!(scp.delta().is_infinite());
    }

    #[test]
    fn try_interval_rejects_non_finite_prediction() {
        use crate::error::CardEstError;
        let (cx, cy, _) = noisy_setup(50, 9);
        let nan_model = |f: &[f32]| {
            if f[0] < 0.0 {
                f64::NAN
            } else {
                f[0] as f64
            }
        };
        let scp = SplitConformal::calibrate(nan_model, AbsoluteResidual, &cx, &cy, 0.1);
        assert!(scp.try_interval(&[2.0]).is_ok());
        assert!(matches!(
            scp.try_interval(&[-1.0]),
            Err(CardEstError::NonFiniteScore { .. })
        ));
    }
}
