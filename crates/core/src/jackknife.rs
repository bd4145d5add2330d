//! Jackknife+ and its K-fold cross-validation variants (paper §III-B).
//!
//! Three predictors with different cost/guarantee trade-offs:
//!
//! * [`JackknifePlus`] — full leave-one-out (Eq. 4): `n` retrained models,
//!   `1 − 2α` finite-sample coverage with no stability assumption.
//! * [`CvPlus`] — K-fold CV+ (Eq. 5): `K` retrained models, slightly wider
//!   intervals and a mildly reduced guarantee.
//! * [`JackknifeCv`] — the paper's Algorithm 1: K-fold out-of-fold residuals
//!   calibrate a single symmetric threshold around the full model — the
//!   cheap, practical variant the experiments use (JK-CV+), generalized here
//!   over any scoring function.

use crate::interval::PredictionInterval;
use crate::quantile::{conformal_quantile, conformal_quantile_lower};
use crate::regressor::{FitRegressor, Regressor};
use crate::score::{interval_at, ScoreFunction};

/// Deterministically shuffles `0..n` into `k` near-equal folds; returns the
/// fold id of each index.
///
/// Pure function of `(n, k, seed)` — thread counts, platform, and call
/// context cannot change the assignment, which is what lets the parallel
/// fold trainers below stay bit-identical to their serial equivalents.
pub fn assign_folds(n: usize, k: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 2, "need at least 2 folds");
    assert!(n >= k, "need at least one point per fold");
    // Small deterministic LCG shuffle (the core crate stays rand-free).
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    for i in (1..n).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    let mut folds = vec![0usize; n];
    for (pos, &idx) in order.iter().enumerate() {
        folds[idx] = pos % k;
    }
    folds
}

/// Full Jackknife+ (Barber et al.): leave-one-out models and the Eq. 4
/// interval. Training cost is `n` model fits — use it with cheap models or
/// small `n`; `CvPlus`/`JackknifeCv` are the scalable variants.
#[derive(Debug)]
pub struct JackknifePlus<M> {
    models: Vec<M>,
    residuals: Vec<f64>,
    alpha: f64,
}

impl<M: Regressor> JackknifePlus<M> {
    /// Trains the `n` leave-one-out models and computes their residuals.
    ///
    /// The LOO fits are independent (each gets its own derived seed
    /// `seed + i`), so they run in parallel on the `ce-parallel` pool;
    /// results land in index order, bit-identical at any thread count for a
    /// deterministic trainer.
    ///
    /// # Panics
    /// Panics if fewer than 2 training points, mismatched lengths, or `alpha`
    /// outside `(0, 1)`.
    pub fn fit<F>(trainer: &F, x: &[Vec<f32>], y: &[f64], alpha: f64, seed: u64) -> Self
    where
        F: FitRegressor<Model = M> + Sync,
        M: Send,
    {
        assert_eq!(x.len(), y.len(), "feature/target count mismatch");
        assert!(x.len() >= 2, "jackknife+ needs at least 2 points");
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        let n = x.len();
        let _span = ce_telemetry::Span::enter("jackknife_plus_fit");
        // One shared handle: per-fit recording is a few relaxed atomic ops.
        let fold_hist =
            ce_telemetry::enabled().then(|| ce_telemetry::histogram("trainer.fold_fit_ns"));
        let fitted = ce_parallel::par_map(n, 1, |i| {
            let mut loo_x: Vec<Vec<f32>> = Vec::with_capacity(n - 1);
            let mut loo_y: Vec<f64> = Vec::with_capacity(n - 1);
            for j in (0..n).filter(|&j| j != i) {
                loo_x.push(x[j].clone());
                loo_y.push(y[j]);
            }
            let start = fold_hist.as_ref().map(|_| std::time::Instant::now());
            let model = trainer.fit(&loo_x, &loo_y, seed.wrapping_add(i as u64));
            if let (Some(hist), Some(start)) = (&fold_hist, start) {
                hist.record(start.elapsed().as_nanos() as u64);
            }
            let residual = (y[i] - model.predict(&x[i])).abs();
            (model, residual)
        });
        let (models, residuals) = fitted.into_iter().unzip();
        JackknifePlus { models, residuals, alpha }
    }

    /// The Eq. 4 interval:
    /// `[q⁻_{α}{f̂₋ᵢ(x) − rᵢ}, q⁺_{1−α}{f̂₋ᵢ(x) + rᵢ}]`.
    pub fn interval(&self, features: &[f32]) -> PredictionInterval {
        let (lows, highs): (Vec<f64>, Vec<f64>) = self
            .models
            .iter()
            .zip(&self.residuals)
            .map(|(m, &r)| {
                let p = m.predict(features);
                (p - r, p + r)
            })
            .unzip();
        PredictionInterval::new(
            conformal_quantile_lower(&lows, self.alpha),
            conformal_quantile(&highs, self.alpha),
        )
    }

    /// Median of the leave-one-out model predictions — a robust point
    /// estimate that comes for free. Ordered by [`f64::total_cmp`], so a NaN
    /// from one corrupt LOO model sorts to an extreme instead of aborting;
    /// the median stays meaningful as long as most models are healthy.
    pub fn predict(&self, features: &[f32]) -> f64 {
        let mut preds: Vec<f64> =
            self.models.iter().map(|m| m.predict(features)).collect();
        preds.sort_by(f64::total_cmp);
        preds[preds.len() / 2]
    }

    /// The leave-one-out residuals.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }
}

/// K-fold CV+ (Eq. 5): like Jackknife+ but each point's out-of-fold model is
/// shared by its whole fold, so only `K` models are trained.
#[derive(Debug)]
pub struct CvPlus<M> {
    models: Vec<M>,      // one per fold
    fold_of: Vec<usize>, // fold id per training point
    residuals: Vec<f64>, // out-of-fold residual per training point
    alpha: f64,
}

impl<M: Regressor> CvPlus<M> {
    /// Trains `k` fold models and computes out-of-fold residuals.
    ///
    /// Fold fits run in parallel (each with derived seed `seed + fold`), then
    /// out-of-fold residuals are scored in parallel — both in deterministic
    /// index order, so results are bit-identical at any thread count.
    ///
    /// # Panics
    /// Panics if `k < 2`, `n < k`, lengths mismatch, or bad `alpha`.
    pub fn fit<F>(trainer: &F, x: &[Vec<f32>], y: &[f64], k: usize, alpha: f64, seed: u64) -> Self
    where
        F: FitRegressor<Model = M> + Sync,
        M: Send + Sync,
    {
        assert_eq!(x.len(), y.len(), "feature/target count mismatch");
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        let n = x.len();
        let fold_of = assign_folds(n, k, seed);
        let _span = ce_telemetry::Span::enter("cv_plus_fit");
        let fold_hist =
            ce_telemetry::enabled().then(|| ce_telemetry::histogram("trainer.fold_fit_ns"));
        let models = ce_parallel::par_map(k, 1, |fold| {
            let (fx, fy): (Vec<Vec<f32>>, Vec<f64>) = (0..n)
                .filter(|&i| fold_of[i] != fold)
                .map(|i| (x[i].clone(), y[i]))
                .unzip();
            let start = fold_hist.as_ref().map(|_| std::time::Instant::now());
            let model = trainer.fit(&fx, &fy, seed.wrapping_add(fold as u64));
            if let (Some(hist), Some(start)) = (&fold_hist, start) {
                hist.record(start.elapsed().as_nanos() as u64);
            }
            model
        });
        let residuals = ce_parallel::par_map(n, 64, |i| {
            (y[i] - models[fold_of[i]].predict(&x[i])).abs()
        });
        CvPlus { models, fold_of, residuals, alpha }
    }

    /// The Eq. 5 interval over all `n` (out-of-fold prediction ± residual)
    /// pairs.
    pub fn interval(&self, features: &[f32]) -> PredictionInterval {
        let fold_preds: Vec<f64> =
            self.models.iter().map(|m| m.predict(features)).collect();
        let (lows, highs): (Vec<f64>, Vec<f64>) = self
            .fold_of
            .iter()
            .zip(&self.residuals)
            .map(|(&f, &r)| (fold_preds[f] - r, fold_preds[f] + r))
            .unzip();
        PredictionInterval::new(
            conformal_quantile_lower(&lows, self.alpha),
            conformal_quantile(&highs, self.alpha),
        )
    }

    /// Mean of the fold models' predictions.
    pub fn predict(&self, features: &[f32]) -> f64 {
        let s: f64 = self.models.iter().map(|m| m.predict(features)).sum();
        s / self.models.len() as f64
    }

    /// Out-of-fold residuals.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }
}

/// The paper's Algorithm 1 (JK-CV+ in the experiments): K-fold out-of-fold
/// *scores* calibrate one symmetric threshold δ applied around the model
/// trained on all data. Cheap at inference (one prediction + score inversion)
/// and generic over the scoring function like the split-conformal methods.
#[derive(Debug)]
pub struct JackknifeCv<M, S> {
    full_model: M,
    score: S,
    delta: f64,
    alpha: f64,
}

impl<M: Regressor, S: ScoreFunction> JackknifeCv<M, S> {
    /// Trains `k` fold models for residuals plus the full model, then
    /// calibrates δ as the conformal quantile of out-of-fold scores.
    ///
    /// All `k + 1` fits (folds and the full model) run as one parallel batch
    /// with the same derived seeds as the serial schedule; out-of-fold scores
    /// are flattened in fold order, so δ is bit-identical at any thread
    /// count for a deterministic trainer.
    ///
    /// # Panics
    /// Panics under the same conditions as [`CvPlus::fit`].
    pub fn fit<F>(
        trainer: &F,
        score: S,
        x: &[Vec<f32>],
        y: &[f64],
        k: usize,
        alpha: f64,
        seed: u64,
    ) -> Self
    where
        F: FitRegressor<Model = M> + Sync,
        M: Send,
        S: Sync,
    {
        assert_eq!(x.len(), y.len(), "feature/target count mismatch");
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        let n = x.len();
        let fold_of = assign_folds(n, k, seed);
        let _span = ce_telemetry::Span::enter("jk_cv_fit");
        let fold_hist =
            ce_telemetry::enabled().then(|| ce_telemetry::histogram("trainer.fold_fit_ns"));
        let timed_fit = |fx: &[Vec<f32>], fy: &[f64], fit_seed: u64| {
            let start = fold_hist.as_ref().map(|_| std::time::Instant::now());
            let model = trainer.fit(fx, fy, fit_seed);
            if let (Some(hist), Some(start)) = (&fold_hist, start) {
                hist.record(start.elapsed().as_nanos() as u64);
            }
            model
        };
        // Task `fold < k` trains a fold model and scores its out-of-fold
        // points; task `k` trains the full model. One batch, k+1 fits.
        let mut fitted = ce_parallel::par_map(k + 1, 1, |fold| {
            if fold == k {
                return (Some(timed_fit(x, y, seed.wrapping_add(k as u64))), Vec::new());
            }
            let (fx, fy): (Vec<Vec<f32>>, Vec<f64>) = (0..n)
                .filter(|&i| fold_of[i] != fold)
                .map(|i| (x[i].clone(), y[i]))
                .unzip();
            let model = timed_fit(&fx, &fy, seed.wrapping_add(fold as u64));
            let fold_scores: Vec<f64> = (0..n)
                .filter(|&i| fold_of[i] == fold)
                .map(|i| score.score(y[i], model.predict(&x[i])))
                .collect();
            (None, fold_scores)
        });
        let full_model = fitted[k].0.take().expect("full-model task");
        let scores: Vec<f64> =
            fitted.into_iter().take(k).flat_map(|(_, s)| s).collect();
        let delta = conformal_quantile(&scores, alpha);
        JackknifeCv { full_model, score, delta, alpha }
    }

    /// The calibrated threshold δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The full model's point estimate.
    pub fn predict(&self, features: &[f32]) -> f64 {
        self.full_model.predict(features)
    }

    /// The symmetric interval: score inversion at δ around `f̂(x)`; a
    /// non-finite prediction gets the conservative `(-∞, +∞)`.
    pub fn interval(&self, features: &[f32]) -> PredictionInterval {
        interval_at(&self.score, self.full_model.predict(features), self.delta)
            .unwrap_or(PredictionInterval::UNBOUNDED)
    }

    /// The miscoverage level.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::AbsoluteResidual;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A cheap trainable model: ridge-less 1-D least squares through the
    /// origin plus intercept, so retraining n times is instant.
    #[derive(Clone, Copy)]
    struct LinFit;
    #[derive(Clone, Copy)]
    struct LinModel {
        slope: f64,
        intercept: f64,
    }
    impl Regressor for LinModel {
        fn predict(&self, f: &[f32]) -> f64 {
            self.slope * f[0] as f64 + self.intercept
        }
    }
    impl FitRegressor for LinFit {
        type Model = LinModel;
        fn fit(&self, x: &[Vec<f32>], y: &[f64], _seed: u64) -> LinModel {
            let n = x.len() as f64;
            let mx: f64 = x.iter().map(|f| f[0] as f64).sum::<f64>() / n;
            let my: f64 = y.iter().sum::<f64>() / n;
            let mut num = 0.0;
            let mut den = 0.0;
            for (f, &t) in x.iter().zip(y) {
                let dx = f[0] as f64 - mx;
                num += dx * (t - my);
                den += dx * dx;
            }
            let slope = if den > 0.0 { num / den } else { 0.0 };
            LinModel { slope, intercept: my - slope * mx }
        }
    }

    fn noisy_linear(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f32>> =
            (0..n).map(|_| vec![rng.gen_range(0.0..10.0f32)]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|f| 2.0 * f[0] as f64 + 1.0 + rng.gen_range(-1.0..1.0))
            .collect();
        (x, y)
    }

    #[test]
    fn folds_are_balanced_and_deterministic() {
        let a = assign_folds(103, 10, 7);
        let b = assign_folds(103, 10, 7);
        assert_eq!(a, b);
        let mut counts = vec![0usize; 10];
        for &f in &a {
            counts[f] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10 || c == 11), "{counts:?}");
        // Different seed shuffles differently.
        assert_ne!(assign_folds(103, 10, 8), a);
    }

    #[test]
    fn jackknife_plus_covers_holdout() {
        let (x, y) = noisy_linear(80, 1);
        let (tx, ty) = noisy_linear(300, 2);
        let jk = JackknifePlus::fit(&LinFit, &x, &y, 0.1, 0);
        let covered = tx
            .iter()
            .zip(&ty)
            .filter(|(f, &t)| jk.interval(f).contains(t))
            .count() as f64
            / tx.len() as f64;
        assert!(covered >= 0.85, "coverage {covered}");
    }

    #[test]
    fn cv_plus_covers_holdout_with_10_folds() {
        let (x, y) = noisy_linear(200, 3);
        let (tx, ty) = noisy_linear(400, 4);
        let cv = CvPlus::fit(&LinFit, &x, &y, 10, 0.1, 0);
        let covered = tx
            .iter()
            .zip(&ty)
            .filter(|(f, &t)| cv.interval(f).contains(t))
            .count() as f64
            / tx.len() as f64;
        assert!(covered >= 0.85, "coverage {covered}");
    }

    #[test]
    fn jackknife_cv_covers_holdout() {
        let (x, y) = noisy_linear(200, 5);
        let (tx, ty) = noisy_linear(400, 6);
        let jk = JackknifeCv::fit(&LinFit, AbsoluteResidual, &x, &y, 10, 0.1, 0);
        let covered = tx
            .iter()
            .zip(&ty)
            .filter(|(f, &t)| jk.interval(f).contains(t))
            .count() as f64
            / tx.len() as f64;
        assert!(covered >= 0.85, "coverage {covered}");
    }

    #[test]
    fn cv_plus_is_at_least_as_wide_as_jackknife_plus_on_stable_model() {
        // With a stable model the LOO models nearly coincide; K-fold models
        // are trained on less data so CV+ residuals (and width) are >= JK+'s
        // up to noise.
        let (x, y) = noisy_linear(120, 7);
        let jk = JackknifePlus::fit(&LinFit, &x, &y, 0.1, 0);
        let cv = CvPlus::fit(&LinFit, &x, &y, 6, 0.1, 0);
        let probe = [5.0f32];
        let wj = jk.interval(&probe).width();
        let wc = cv.interval(&probe).width();
        assert!(wc >= 0.9 * wj, "cv+ {wc} vs jk+ {wj}");
    }

    #[test]
    fn jackknife_cv_interval_is_symmetric_around_estimate() {
        let (x, y) = noisy_linear(150, 8);
        let jk = JackknifeCv::fit(&LinFit, AbsoluteResidual, &x, &y, 5, 0.1, 0);
        let probe = [4.0f32];
        let iv = jk.interval(&probe);
        let y_hat = jk.predict(&probe);
        assert!(((y_hat - iv.lo) - (iv.hi - y_hat)).abs() < 1e-9);
        assert!((iv.width() - 2.0 * jk.delta()).abs() < 1e-9);
    }

    #[test]
    fn unstable_model_still_covered_by_jackknife_plus() {
        // An unstable trainer: prediction depends wildly on one point
        // (memorizes the max target). Jackknife+ still yields valid-looking
        // wide intervals rather than collapsing.
        struct MaxFit;
        struct MaxModel {
            max: f64,
        }
        impl Regressor for MaxModel {
            fn predict(&self, _: &[f32]) -> f64 {
                self.max
            }
        }
        impl FitRegressor for MaxFit {
            type Model = MaxModel;
            fn fit(&self, _x: &[Vec<f32>], y: &[f64], _s: u64) -> MaxModel {
                MaxModel { max: y.iter().copied().fold(f64::MIN, f64::max) }
            }
        }
        let (x, y) = noisy_linear(60, 9);
        let jk = JackknifePlus::fit(&MaxFit, &x, &y, 0.1, 0);
        let covered = x
            .iter()
            .zip(&y)
            .filter(|(f, &t)| jk.interval(f).contains(t))
            .count() as f64
            / x.len() as f64;
        assert!(covered > 0.6, "even unstable models keep most points: {covered}");
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn cv_plus_rejects_one_fold() {
        let (x, y) = noisy_linear(10, 0);
        CvPlus::fit(&LinFit, &x, &y, 1, 0.1, 0);
    }
}
