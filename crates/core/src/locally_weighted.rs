//! Locally weighted split conformal prediction (paper Algorithm 3).

use crate::error::{check_alpha, check_lengths, CardEstError};
use crate::interval::PredictionInterval;
use crate::quantile::{conformal_quantile, try_conformal_quantile};
use crate::regressor::Regressor;
use crate::score::{interval_at, ScoreFunction};

/// Locally weighted split conformal: scores are normalized by a per-query
/// difficulty estimate `U(X)`, so the calibrated threshold scales with query
/// hardness — narrow intervals for easy queries, wide for hard ones.
///
/// `U` is any [`Regressor`] trained to predict the conditional score
/// magnitude (the paper instantiates it as an xgboost model of the
/// conditional MAD; here `ce-gbdt` plays that role, and an ensemble
/// variance works too).
#[derive(Debug, Clone)]
pub struct LocallyWeightedConformal<M, D, S> {
    model: M,
    difficulty: D,
    score: S,
    delta: f64,
    alpha: f64,
    /// Floor on U(X) so a confidently-wrong difficulty model cannot collapse
    /// the interval to a point.
    min_difficulty: f64,
}

impl<M: Regressor, D: Regressor, S: ScoreFunction> LocallyWeightedConformal<M, D, S> {
    /// Calibrates on `(calib_x, calib_y)` at miscoverage `alpha`, scaling
    /// each score by `difficulty.predict(x)` (floored at `min_difficulty`).
    ///
    /// # Panics
    /// Panics on an empty calibration set, mismatched lengths, `alpha`
    /// outside `(0, 1)`, or a non-positive `min_difficulty`.
    pub fn calibrate(
        model: M,
        difficulty: D,
        score: S,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        alpha: f64,
        min_difficulty: f64,
    ) -> Self
    where
        M: Sync,
        D: Sync,
        S: Sync,
    {
        assert_eq!(calib_x.len(), calib_y.len(), "calibration set length mismatch");
        assert!(!calib_x.is_empty(), "empty calibration set");
        assert!(min_difficulty > 0.0, "difficulty floor must be positive");
        // Parallel in index order; δ is bit-identical at any thread count.
        let scaled = ce_parallel::par_map(calib_x.len(), 64, |i| {
            let x = &calib_x[i];
            let u = difficulty.predict(x).max(min_difficulty);
            score.score(calib_y[i], model.predict(x)) / u
        });
        let delta = conformal_quantile(&scaled, alpha);
        LocallyWeightedConformal { model, difficulty, score, delta, alpha, min_difficulty }
    }

    /// Non-panicking [`LocallyWeightedConformal::calibrate`]: an empty
    /// calibration set degrades to `δ = +∞`; shape/parameter problems become
    /// errors. A NaN difficulty estimate is floored up to `min_difficulty`
    /// (max() with a NaN operand keeps the finite floor), so corrupt `U(X)`
    /// widens rather than poisons.
    #[allow(clippy::too_many_arguments)]
    pub fn try_calibrate(
        model: M,
        difficulty: D,
        score: S,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        alpha: f64,
        min_difficulty: f64,
    ) -> Result<Self, CardEstError>
    where
        M: Sync,
        D: Sync,
        S: Sync,
    {
        check_lengths(calib_x.len(), calib_y.len())?;
        check_alpha(alpha)?;
        // NaN fails this check too: a NaN floor must be rejected, not floored.
        if min_difficulty.is_nan() || min_difficulty <= 0.0 {
            return Err(CardEstError::InvalidParameter("difficulty floor must be positive"));
        }
        let scaled = ce_parallel::par_map(calib_x.len(), 64, |i| {
            let x = &calib_x[i];
            let u = difficulty.predict(x).max(min_difficulty);
            score.score(calib_y[i], model.predict(x)) / u
        });
        let delta = try_conformal_quantile(&scaled, alpha)?;
        Ok(LocallyWeightedConformal { model, difficulty, score, delta, alpha, min_difficulty })
    }

    /// The calibrated normalized threshold δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The miscoverage level.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The wrapped model's point estimate.
    pub fn predict(&self, features: &[f32]) -> f64 {
        self.model.predict(features)
    }

    /// The difficulty estimate `U(X)` after flooring.
    pub fn difficulty(&self, features: &[f32]) -> f64 {
        self.difficulty.predict(features).max(self.min_difficulty)
    }

    /// The adaptive prediction interval: the score inversion at `δ · U(X)`;
    /// a non-finite model prediction gets the conservative `(-∞, +∞)`.
    pub fn interval(&self, features: &[f32]) -> PredictionInterval {
        self.try_interval(features).unwrap_or(PredictionInterval::UNBOUNDED)
    }

    /// Like [`LocallyWeightedConformal::interval`], but a non-finite model
    /// prediction is reported as [`CardEstError::NonFiniteScore`]. (A
    /// non-finite difficulty estimate is already absorbed by the floor /
    /// conservative widening and is not an error.)
    pub fn try_interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        let y_hat = self.model.predict(features);
        interval_at(&self.score, y_hat, self.delta * self.difficulty(features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::AbsoluteResidual;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Heteroscedastic data: noise grows with x. The difficulty oracle knows
    /// the noise scale; LW intervals should adapt while plain S-CP cannot.
    fn hetero(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f32>> =
            (0..n).map(|_| vec![rng.gen_range(0.1..10.0f32)]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|f| {
                let scale = f[0] as f64;
                f[0] as f64 + rng.gen_range(-scale..scale) * 0.5
            })
            .collect();
        (x, y)
    }

    fn oracle_difficulty(f: &[f32]) -> f64 {
        f[0] as f64
    }

    #[test]
    fn adapts_interval_width_to_difficulty() {
        let (cx, cy) = hetero(600, 1);
        let model = |f: &[f32]| f[0] as f64;
        let lw = LocallyWeightedConformal::calibrate(
            model,
            oracle_difficulty,
            AbsoluteResidual,
            &cx,
            &cy,
            0.1,
            1e-6,
        );
        let easy = lw.interval(&[0.5]);
        let hard = lw.interval(&[9.0]);
        assert!(
            hard.width() > 4.0 * easy.width(),
            "hard {}, easy {}",
            hard.width(),
            easy.width()
        );
    }

    #[test]
    fn maintains_coverage_on_heteroscedastic_holdout() {
        let (cx, cy) = hetero(800, 2);
        let (tx, ty) = hetero(800, 3);
        let model = |f: &[f32]| f[0] as f64;
        let lw = LocallyWeightedConformal::calibrate(
            model,
            oracle_difficulty,
            AbsoluteResidual,
            &cx,
            &cy,
            0.1,
            1e-6,
        );
        let covered = tx
            .iter()
            .zip(&ty)
            .filter(|(x, &y)| lw.interval(x).contains(y))
            .count() as f64
            / tx.len() as f64;
        assert!(covered >= 0.87, "coverage {covered}");
    }

    #[test]
    fn tighter_than_split_conformal_on_easy_queries() {
        use crate::split::SplitConformal;
        let (cx, cy) = hetero(800, 4);
        let model = |f: &[f32]| f[0] as f64;
        let lw = LocallyWeightedConformal::calibrate(
            model,
            oracle_difficulty,
            AbsoluteResidual,
            &cx,
            &cy,
            0.1,
            1e-6,
        );
        let scp = SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 0.1);
        // On the easiest queries the adaptive interval is much tighter.
        assert!(lw.interval(&[0.2]).width() < 0.5 * scp.interval(&[0.2]).width());
    }

    #[test]
    fn difficulty_floor_prevents_collapse() {
        let (cx, cy) = hetero(200, 5);
        let model = |f: &[f32]| f[0] as f64;
        // A broken difficulty model that claims everything is trivially easy.
        let broken = |_: &[f32]| 0.0;
        let lw = LocallyWeightedConformal::calibrate(
            model,
            broken,
            AbsoluteResidual,
            &cx,
            &cy,
            0.1,
            0.5,
        );
        assert_eq!(lw.difficulty(&[3.0]), 0.5);
        assert!(lw.interval(&[3.0]).width() > 0.0);
    }

    #[test]
    fn try_calibrate_degrades_and_floors_nan_difficulty() {
        use crate::error::CardEstError;
        let model = |f: &[f32]| f[0] as f64;
        let nan_difficulty = |_: &[f32]| f64::NAN;
        let lw = LocallyWeightedConformal::try_calibrate(
            model,
            nan_difficulty,
            AbsoluteResidual,
            &[],
            &[],
            0.1,
            0.5,
        )
        .expect("empty calibration degrades, not errors");
        assert!(lw.delta().is_infinite());
        // NaN difficulty is floored to min_difficulty, never NaN.
        assert_eq!(lw.difficulty(&[1.0]), 0.5);
        assert!(matches!(
            LocallyWeightedConformal::try_calibrate(
                model,
                nan_difficulty,
                AbsoluteResidual,
                &[],
                &[],
                0.1,
                f64::NAN,
            ),
            Err(CardEstError::InvalidParameter(_))
        ));
        let (cx, cy) = hetero(100, 6);
        let lw = LocallyWeightedConformal::calibrate(
            model,
            oracle_difficulty,
            AbsoluteResidual,
            &cx,
            &cy,
            0.1,
            1e-6,
        );
        assert!(lw.try_interval(&[2.0]).is_ok());
        assert!(matches!(
            lw.try_interval(&[f32::NAN]),
            Err(CardEstError::NonFiniteScore { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "difficulty floor must be positive")]
    fn rejects_zero_floor() {
        let model = |_: &[f32]| 0.0;
        LocallyWeightedConformal::calibrate(
            model,
            model,
            AbsoluteResidual,
            &[vec![0.0]],
            &[0.0],
            0.1,
            0.0,
        );
    }
}
