//! Localized conformal prediction (paper §V-D "Promising approaches",
//! after Guan [15] and Foygel Barber et al. [10]).
//!
//! Instead of one global threshold, the interval for a query is calibrated
//! from the scores of its *nearest* calibration queries: a query that looks
//! like a well-predicted region of the workload gets a tight interval, one
//! that lands in a rough region gets a wide one. This trades the clean
//! marginal guarantee for locality; a conservative rank inflation keeps
//! empirical coverage near nominal.

use crate::error::{check_alpha, check_lengths, CardEstError};
use crate::interval::PredictionInterval;
use crate::regressor::Regressor;
use crate::score::{interval_at, ScoreFunction};

/// Localized conformal predictor: k-nearest-neighbour calibration.
#[derive(Debug, Clone)]
pub struct LocalizedConformal<M, S> {
    model: M,
    score: S,
    calib_x: Vec<Vec<f32>>,
    calib_scores: Vec<f64>,
    k: usize,
    alpha: f64,
}

impl<M: Regressor, S: ScoreFunction> LocalizedConformal<M, S> {
    /// Stores the calibration set for neighbourhood lookups.
    ///
    /// `k` is the neighbourhood size; the paper-cited heuristics use
    /// 50–200. Larger `k` converges to split conformal.
    ///
    /// # Panics
    /// Panics on an empty calibration set, `k == 0`, mismatched lengths, or
    /// `alpha` outside `(0, 1)`.
    pub fn calibrate(
        model: M,
        score: S,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        k: usize,
        alpha: f64,
    ) -> Self {
        assert_eq!(calib_x.len(), calib_y.len(), "calibration set length mismatch");
        assert!(!calib_x.is_empty(), "empty calibration set");
        assert!(k > 0, "neighbourhood size must be positive");
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        let calib_scores: Vec<f64> = calib_x
            .iter()
            .zip(calib_y)
            .map(|(x, &y)| score.score(y, model.predict(x)))
            .collect();
        LocalizedConformal {
            model,
            score,
            calib_x: calib_x.to_vec(),
            calib_scores,
            k: k.min(calib_x.len()),
            alpha,
        }
    }

    /// Non-panicking [`LocalizedConformal::calibrate`]: an empty calibration
    /// set is valid and serves infinite intervals until real neighbours
    /// exist; shape/parameter problems become errors.
    pub fn try_calibrate(
        model: M,
        score: S,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        k: usize,
        alpha: f64,
    ) -> Result<Self, CardEstError> {
        check_lengths(calib_x.len(), calib_y.len())?;
        check_alpha(alpha)?;
        if k == 0 {
            return Err(CardEstError::InvalidParameter("neighbourhood size must be positive"));
        }
        let calib_scores: Vec<f64> = calib_x
            .iter()
            .zip(calib_y)
            .map(|(x, &y)| score.score(y, model.predict(x)))
            .collect();
        Ok(LocalizedConformal {
            model,
            score,
            calib_x: calib_x.to_vec(),
            calib_scores,
            k: k.min(calib_x.len().max(1)),
            alpha,
        })
    }

    /// Squared L2 distance between feature vectors.
    fn dist2(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = (x - y) as f64;
                d * d
            })
            .sum()
    }

    /// The local threshold: conformal quantile over the `k` nearest
    /// calibration scores.
    pub fn local_delta(&self, features: &[f32]) -> f64 {
        let mut dists: Vec<(f64, f64)> = self
            .calib_x
            .iter()
            .zip(&self.calib_scores)
            .map(|(x, &s)| (Self::dist2(features, x), s))
            .collect();
        if dists.is_empty() {
            // No neighbours yet (try_calibrate with an empty set): serve the
            // conservative infinite threshold instead of indexing.
            return f64::INFINITY;
        }
        // Partial selection of the k nearest; total_cmp sends a NaN distance
        // (non-finite query features) to the far end instead of panicking,
        // so such a query just calibrates on an arbitrary neighbourhood.
        let k = self.k.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0));
        let neighbour_scores: Vec<f64> =
            dists[..k].iter().map(|&(_, s)| s).collect();
        crate::quantile::conformal_quantile(&neighbour_scores, self.alpha)
    }

    /// The wrapped model's point estimate.
    pub fn predict(&self, features: &[f32]) -> f64 {
        self.model.predict(features)
    }

    /// The locally calibrated prediction interval; a non-finite model
    /// prediction gets the conservative `(-∞, +∞)`.
    pub fn interval(&self, features: &[f32]) -> PredictionInterval {
        self.try_interval(features).unwrap_or(PredictionInterval::UNBOUNDED)
    }

    /// Like [`LocalizedConformal::interval`], but a non-finite model
    /// prediction is reported as [`CardEstError::NonFiniteScore`].
    pub fn try_interval(&self, features: &[f32]) -> Result<PredictionInterval, CardEstError> {
        interval_at(&self.score, self.model.predict(features), self.local_delta(features))
    }

    /// Neighbourhood size in use.
    pub fn k(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::AbsoluteResidual;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Piecewise noise: x < 0.5 is easy (noise 0.01), x >= 0.5 hard (0.5).
    fn piecewise(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f32>> =
            (0..n).map(|_| vec![rng.gen_range(0.0..1.0f32)]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|f| {
                let noise = if f[0] < 0.5 { 0.01 } else { 0.5 };
                f[0] as f64 + rng.gen_range(-noise..noise)
            })
            .collect();
        (x, y)
    }

    #[test]
    fn local_intervals_adapt_to_regional_difficulty() {
        let (cx, cy) = piecewise(1000, 1);
        let model = |f: &[f32]| f[0] as f64;
        let lcp =
            LocalizedConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 80, 0.1);
        let easy = lcp.interval(&[0.2]);
        let hard = lcp.interval(&[0.8]);
        assert!(
            hard.width() > 5.0 * easy.width(),
            "hard {} vs easy {}",
            hard.width(),
            easy.width()
        );
    }

    #[test]
    fn covers_each_region_near_nominal() {
        let (cx, cy) = piecewise(1500, 2);
        let (tx, ty) = piecewise(1500, 3);
        let model = |f: &[f32]| f[0] as f64;
        let lcp =
            LocalizedConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 100, 0.1);
        let mut cover = [0usize; 2];
        let mut count = [0usize; 2];
        for (f, &y) in tx.iter().zip(&ty) {
            let region = usize::from(f[0] >= 0.5);
            count[region] += 1;
            cover[region] += usize::from(lcp.interval(f).contains(y));
        }
        for r in 0..2 {
            let rate = cover[r] as f64 / count[r] as f64;
            assert!(rate >= 0.85, "region {r} coverage {rate}");
        }
    }

    #[test]
    fn k_equal_to_n_recovers_split_conformal() {
        use crate::split::SplitConformal;
        let (cx, cy) = piecewise(400, 4);
        let model = |f: &[f32]| f[0] as f64;
        let lcp = LocalizedConformal::calibrate(
            model,
            AbsoluteResidual,
            &cx,
            &cy,
            cx.len(),
            0.1,
        );
        let scp = SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 0.1);
        let probe = [0.3f32];
        assert!((lcp.local_delta(&probe) - scp.delta()).abs() < 1e-12);
    }

    #[test]
    fn tighter_than_split_conformal_on_easy_region() {
        use crate::split::SplitConformal;
        let (cx, cy) = piecewise(1200, 5);
        let model = |f: &[f32]| f[0] as f64;
        let lcp =
            LocalizedConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 80, 0.1);
        let scp = SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 0.1);
        assert!(lcp.interval(&[0.1]).width() < 0.3 * scp.interval(&[0.1]).width());
    }

    #[test]
    fn oversized_k_is_clamped() {
        let (cx, cy) = piecewise(50, 6);
        let model = |f: &[f32]| f[0] as f64;
        let lcp = LocalizedConformal::calibrate(
            model,
            AbsoluteResidual,
            &cx,
            &cy,
            10_000,
            0.1,
        );
        assert_eq!(lcp.k(), 50);
    }

    #[test]
    fn try_calibrate_handles_empty_and_adversarial_queries() {
        use crate::error::CardEstError;
        let model = |f: &[f32]| f[0] as f64;
        let lcp = LocalizedConformal::try_calibrate(model, AbsoluteResidual, &[], &[], 5, 0.1)
            .expect("empty calibration degrades, not errors");
        assert!(lcp.local_delta(&[0.3]).is_infinite());
        assert!(lcp.interval(&[0.3]).contains(1e12));
        assert!(matches!(
            LocalizedConformal::try_calibrate(model, AbsoluteResidual, &[], &[], 0, 0.1),
            Err(CardEstError::InvalidParameter(_))
        ));
        // NaN query features: distances go NaN, which total_cmp tolerates.
        let (cx, cy) = piecewise(100, 7);
        let lcp =
            LocalizedConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 10, 0.1);
        let d = lcp.local_delta(&[f32::NAN]);
        assert!(!d.is_nan(), "local delta must never be NaN");
        assert!(matches!(
            lcp.try_interval(&[f32::NAN]),
            Err(CardEstError::NonFiniteScore { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "neighbourhood size must be positive")]
    fn rejects_zero_k() {
        let model = |_: &[f32]| 0.0;
        LocalizedConformal::calibrate(
            model,
            AbsoluteResidual,
            &[vec![0.0]],
            &[0.0],
            0,
            0.1,
        );
    }
}
