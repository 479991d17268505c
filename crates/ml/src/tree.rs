//! Decision stumps and gradient boosting.
//!
//! Stands in for two XGBoost uses in the paper:
//! * §5.4 "Polynomial expressions": "a tree-based model, XGBoost, ranks the
//!   importance of numerical attributes via self-supervised learning, and
//!   prunes irrelevant features" — [`GradientBoosting::feature_importance`].
//! * the RB (Baran) baseline's downstream random-forest-ish corrector.

/// A depth-1 regression tree: split one feature at one threshold.
#[derive(Debug, Clone)]
pub struct Stump {
    pub feature: usize,
    pub threshold: f64,
    pub left: f64,
    pub right: f64,
}

impl Stump {
    #[inline]
    pub fn predict(&self, x: &[f64]) -> f64 {
        if x[self.feature] <= self.threshold {
            self.left
        } else {
            self.right
        }
    }

    /// Fit a stump minimizing squared error against residuals.
    /// Returns `None` when no split reduces error (constant input).
    pub fn fit(xs: &[Vec<f64>], residuals: &[f64]) -> Option<(Stump, f64)> {
        let n = xs.len();
        if n == 0 {
            return None;
        }
        let dim = xs[0].len();
        let total: f64 = residuals.iter().sum();
        let total_sq: f64 = residuals.iter().map(|r| r * r).sum();
        let base_err = total_sq - total * total / n as f64;
        let mut best: Option<(Stump, f64)> = None;
        #[allow(clippy::needless_range_loop)] // f indexes parallel arrays
        for f in 0..dim {
            // candidate thresholds: midpoints of sorted distinct values
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| xs[a][f].total_cmp(&xs[b][f]));
            let mut left_sum = 0.0;
            let mut left_n = 0usize;
            for w in 0..n - 1 {
                let i = idx[w];
                left_sum += residuals[i];
                left_n += 1;
                if xs[idx[w]][f] == xs[idx[w + 1]][f] {
                    continue;
                }
                let right_sum = total - left_sum;
                let right_n = n - left_n;
                // error reduction of the split
                let gain = left_sum * left_sum / left_n as f64
                    + right_sum * right_sum / right_n as f64
                    - total * total / n as f64;
                if gain > best.as_ref().map(|(_, g)| *g).unwrap_or(1e-12) {
                    best = Some((
                        Stump {
                            feature: f,
                            threshold: (xs[idx[w]][f] + xs[idx[w + 1]][f]) / 2.0,
                            left: left_sum / left_n as f64,
                            right: right_sum / right_n as f64,
                        },
                        gain,
                    ));
                }
            }
        }
        let _ = base_err;
        best
    }
}

/// Gradient-boosted stumps for regression (squared loss).
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    pub base: f64,
    pub learning_rate: f64,
    pub stumps: Vec<Stump>,
    /// Total squared-error gain contributed per feature.
    gains: Vec<f64>,
}

impl GradientBoosting {
    /// Fit `rounds` stumps with shrinkage `learning_rate`.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], rounds: usize, learning_rate: f64) -> Self {
        assert_eq!(xs.len(), ys.len());
        let n = xs.len();
        let dim = xs.first().map(|x| x.len()).unwrap_or(0);
        let base = if n == 0 {
            0.0
        } else {
            ys.iter().sum::<f64>() / n as f64
        };
        let mut model = GradientBoosting {
            base,
            learning_rate,
            stumps: Vec::with_capacity(rounds),
            gains: vec![0.0; dim],
        };
        if n == 0 {
            return model;
        }
        let mut pred = vec![base; n];
        for _ in 0..rounds {
            let residuals: Vec<f64> = ys.iter().zip(&pred).map(|(y, p)| y - p).collect();
            let Some((stump, gain)) = Stump::fit(xs, &residuals) else {
                break;
            };
            model.gains[stump.feature] += gain;
            for (p, x) in pred.iter_mut().zip(xs) {
                *p += learning_rate * stump.predict(x);
            }
            model.stumps.push(stump);
        }
        model
    }

    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.learning_rate * self.stumps.iter().map(|s| s.predict(x)).sum::<f64>()
    }

    /// Per-feature importance (normalized total gain, sums to 1 when any
    /// splits were made). Used to rank/prune numerical attributes (§5.4).
    pub fn feature_importance(&self) -> Vec<f64> {
        let total: f64 = self.gains.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.gains.len()];
        }
        self.gains.iter().map(|g| g / total).collect()
    }

    /// Features ranked by importance, descending, pruned at `min_importance`.
    pub fn selected_features(&self, min_importance: f64) -> Vec<usize> {
        let imp = self.feature_importance();
        let mut ranked: Vec<usize> = (0..imp.len())
            .filter(|&i| imp[i] >= min_importance)
            .collect();
        ranked.sort_by(|&a, &b| imp[b].total_cmp(&imp[a]));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y depends strongly on x0, weakly on nothing else
        let xs: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let a = i as f64 / 10.0;
                vec![a, (i % 7) as f64, 3.0]
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] > 3.0 { 10.0 } else { -10.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn stump_finds_split() {
        let (xs, ys) = xy();
        let (s, gain) = Stump::fit(&xs, &ys).unwrap();
        assert_eq!(s.feature, 0);
        assert!((s.threshold - 3.05).abs() < 0.2);
        assert!(gain > 0.0);
        assert!(s.predict(&[5.0, 0.0, 0.0]) > 0.0);
        assert!(s.predict(&[1.0, 0.0, 0.0]) < 0.0);
    }

    #[test]
    fn stump_constant_input_no_split() {
        let xs = vec![vec![1.0], vec![1.0]];
        let ys = vec![0.0, 10.0];
        assert!(Stump::fit(&xs, &ys).is_none());
    }

    #[test]
    fn boosting_fits_step_function() {
        let (xs, ys) = xy();
        let m = GradientBoosting::fit(&xs, &ys, 30, 0.5);
        assert!(m.predict(&[5.0, 0.0, 3.0]) > 5.0);
        assert!(m.predict(&[0.5, 0.0, 3.0]) < -5.0);
    }

    #[test]
    fn importance_concentrates_on_predictive_feature() {
        let (xs, ys) = xy();
        let m = GradientBoosting::fit(&xs, &ys, 20, 0.5);
        let imp = m.feature_importance();
        assert!(imp[0] > 0.9, "{imp:?}");
        assert_eq!(m.selected_features(0.05), vec![0]);
    }

    #[test]
    fn empty_input_safe() {
        let m = GradientBoosting::fit(&[], &[], 10, 0.1);
        assert_eq!(m.stumps.len(), 0);
        assert_eq!(m.base, 0.0);
    }
}
