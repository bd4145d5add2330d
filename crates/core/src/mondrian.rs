//! Mondrian (group-conditional) conformal prediction.
//!
//! The workload-information discussion in the paper (§IV) observes that
//! calibration sets attuned to the workload give tighter thresholds. The
//! Mondrian construction makes that per *query class*: partition queries by
//! a taxonomy function (join template, predicate count, table set, …) and
//! calibrate one threshold per class. Validity then holds *within each
//! class*, which is strictly stronger than the marginal guarantee — at the
//! price of needing enough calibration queries per class.

use std::collections::HashMap;

use crate::interval::PredictionInterval;
use crate::quantile::conformal_quantile;
use crate::regressor::Regressor;
use crate::score::{interval_at, ScoreFunction};

/// Group-conditional split conformal: one δ per taxonomy class.
#[derive(Debug, Clone)]
pub struct MondrianConformal<M, S, G> {
    model: M,
    score: S,
    group_fn: G,
    deltas: HashMap<u64, f64>,
    fallback_delta: f64,
    alpha: f64,
}

impl<M, S, G> MondrianConformal<M, S, G>
where
    M: Regressor,
    S: ScoreFunction,
    G: Fn(&[f32]) -> u64,
{
    /// Calibrates per-class thresholds. Classes are the values of
    /// `group_fn`; queries whose class was unseen (or too small, below
    /// `min_class_size`) fall back to the global threshold.
    ///
    /// # Panics
    /// Panics on an empty calibration set, mismatched lengths, or `alpha`
    /// outside `(0, 1)`.
    pub fn calibrate(
        model: M,
        score: S,
        group_fn: G,
        calib_x: &[Vec<f32>],
        calib_y: &[f64],
        alpha: f64,
        min_class_size: usize,
    ) -> Self {
        assert_eq!(calib_x.len(), calib_y.len(), "calibration set length mismatch");
        assert!(!calib_x.is_empty(), "empty calibration set");
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        let mut by_class: HashMap<u64, Vec<f64>> = HashMap::new();
        let mut all = Vec::with_capacity(calib_x.len());
        for (x, &y) in calib_x.iter().zip(calib_y) {
            let s = score.score(y, model.predict(x));
            by_class.entry(group_fn(x)).or_default().push(s);
            all.push(s);
        }
        let fallback_delta = conformal_quantile(&all, alpha);
        let deltas = by_class
            .into_iter()
            .filter(|(_, scores)| scores.len() >= min_class_size.max(1))
            .map(|(class, scores)| (class, conformal_quantile(&scores, alpha)))
            .collect();
        MondrianConformal { model, score, group_fn, deltas, fallback_delta, alpha }
    }

    /// The threshold used for this query's class (fallback if unseen).
    pub fn delta_for(&self, features: &[f32]) -> f64 {
        *self
            .deltas
            .get(&(self.group_fn)(features))
            .unwrap_or(&self.fallback_delta)
    }

    /// The global fallback threshold.
    pub fn fallback_delta(&self) -> f64 {
        self.fallback_delta
    }

    /// Number of classes with their own threshold.
    pub fn n_classes(&self) -> usize {
        self.deltas.len()
    }

    /// The miscoverage level.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The wrapped model's point estimate.
    pub fn predict(&self, features: &[f32]) -> f64 {
        self.model.predict(features)
    }

    /// The class-calibrated prediction interval; a non-finite model
    /// prediction gets the conservative `(-∞, +∞)`.
    pub fn interval(&self, features: &[f32]) -> PredictionInterval {
        interval_at(&self.score, self.model.predict(features), self.delta_for(features))
            .unwrap_or(PredictionInterval::UNBOUNDED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::AbsoluteResidual;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Class 0 queries (feature[1] = 0) are easy; class 1 are hard.
    fn classed(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let class = f32::from(rng.gen_bool(0.5));
            let base = rng.gen_range(0.0..1.0f32);
            let noise = if class == 0.0 { 0.01 } else { 0.4 };
            x.push(vec![base, class]);
            y.push(base as f64 + rng.gen_range(-noise..noise));
        }
        (x, y)
    }

    fn class_of(f: &[f32]) -> u64 {
        f[1] as u64
    }

    #[test]
    fn per_class_thresholds_reflect_difficulty() {
        let (cx, cy) = classed(1000, 1);
        let model = |f: &[f32]| f[0] as f64;
        let mc = MondrianConformal::calibrate(
            model,
            AbsoluteResidual,
            class_of,
            &cx,
            &cy,
            0.1,
            10,
        );
        assert_eq!(mc.n_classes(), 2);
        let easy = mc.delta_for(&[0.5, 0.0]);
        let hard = mc.delta_for(&[0.5, 1.0]);
        assert!(hard > 5.0 * easy, "hard {hard} vs easy {easy}");
    }

    #[test]
    fn covers_within_each_class() {
        let (cx, cy) = classed(1500, 2);
        let (tx, ty) = classed(1500, 3);
        let model = |f: &[f32]| f[0] as f64;
        let mc = MondrianConformal::calibrate(
            model,
            AbsoluteResidual,
            class_of,
            &cx,
            &cy,
            0.1,
            10,
        );
        for class in [0.0f32, 1.0] {
            let (mut cover, mut count) = (0usize, 0usize);
            for (f, &y) in tx.iter().zip(&ty) {
                if f[1] == class {
                    count += 1;
                    cover += usize::from(mc.interval(f).contains(y));
                }
            }
            let rate = cover as f64 / count as f64;
            assert!(rate >= 0.86, "class {class} coverage {rate}");
        }
    }

    #[test]
    fn plain_split_conformal_overcovers_easy_class() {
        // The motivating defect: one global delta is dominated by the hard
        // class, so the easy class gets needlessly wide intervals.
        use crate::split::SplitConformal;
        let (cx, cy) = classed(1500, 4);
        let model = |f: &[f32]| f[0] as f64;
        let scp = SplitConformal::calibrate(model, AbsoluteResidual, &cx, &cy, 0.1);
        let mc = MondrianConformal::calibrate(
            model,
            AbsoluteResidual,
            class_of,
            &cx,
            &cy,
            0.1,
            10,
        );
        let easy_probe = [0.5f32, 0.0];
        assert!(
            mc.interval(&easy_probe).width() < 0.3 * scp.interval(&easy_probe).width(),
            "mondrian should be much tighter on the easy class"
        );
    }

    #[test]
    fn unseen_class_falls_back_to_global_delta() {
        let (cx, cy) = classed(200, 5);
        let model = |f: &[f32]| f[0] as f64;
        let mc = MondrianConformal::calibrate(
            model,
            AbsoluteResidual,
            class_of,
            &cx,
            &cy,
            0.1,
            10,
        );
        assert_eq!(mc.delta_for(&[0.5, 42.0]), mc.fallback_delta());
    }

    #[test]
    fn tiny_classes_fall_back() {
        let (mut cx, mut cy) = classed(300, 6);
        // Add a 3-member class 7.
        for i in 0..3 {
            cx.push(vec![0.5, 7.0]);
            cy.push(0.5 + i as f64 * 0.001);
        }
        let model = |f: &[f32]| f[0] as f64;
        let mc = MondrianConformal::calibrate(
            model,
            AbsoluteResidual,
            class_of,
            &cx,
            &cy,
            0.1,
            10,
        );
        assert_eq!(mc.delta_for(&[0.5, 7.0]), mc.fallback_delta());
    }
}
