//! Linear models: logistic regression via SGD, and LASSO via coordinate
//! descent.
//!
//! Logistic regression is the workhorse classifier behind the trained pair
//! models; LASSO implements the polynomial-expression learner of §5.4
//! ("feeding the selected features … to a predefined polynomial expression
//! with LASSO regularization, it learns a weight for each feature;
//! unimportant features tend to have zero weights").

use rock_data::rng::StdRng;

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Binary logistic-regression classifier.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    pub weights: Vec<f64>,
    pub bias: f64,
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SgdParams {
    pub epochs: usize,
    pub lr: f64,
    /// L2 regularization strength.
    pub l2: f64,
    pub seed: u64,
}

impl Default for SgdParams {
    fn default() -> Self {
        SgdParams {
            epochs: 60,
            lr: 0.2,
            l2: 1e-4,
            seed: 7,
        }
    }
}

impl LogisticRegression {
    pub fn zeros(dim: usize) -> Self {
        LogisticRegression {
            weights: vec![0.0; dim],
            bias: 0.0,
        }
    }

    /// Train from `(features, label)` pairs with mini-SGD. Deterministic for
    /// a fixed seed. Returns the final average log-loss.
    pub fn train(&mut self, xs: &[Vec<f64>], ys: &[bool], p: SgdParams) -> f64 {
        assert_eq!(xs.len(), ys.len());
        if xs.is_empty() {
            return 0.0;
        }
        let dim = self.weights.len();
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut rng = StdRng::seed_from_u64(p.seed);
        let mut loss = 0.0;
        for epoch in 0..p.epochs {
            rng.shuffle(&mut order);
            let lr = p.lr / (1.0 + epoch as f64 * 0.05);
            loss = 0.0;
            for &i in &order {
                let x = &xs[i];
                debug_assert_eq!(x.len(), dim);
                let z = self.raw(x);
                let pred = sigmoid(z);
                let y = ys[i] as u8 as f64;
                let err = pred - y;
                for (w, xi) in self.weights.iter_mut().zip(x) {
                    *w -= lr * (err * xi + p.l2 * *w);
                }
                self.bias -= lr * err;
                let eps = 1e-12;
                loss -= y * (pred + eps).ln() + (1.0 - y) * (1.0 - pred + eps).ln();
            }
            loss /= xs.len() as f64;
        }
        loss
    }

    /// Raw linear score `w·x + b`.
    #[inline]
    pub fn raw(&self, x: &[f64]) -> f64 {
        self.bias
            + self
                .weights
                .iter()
                .zip(x)
                .map(|(w, xi)| w * xi)
                .sum::<f64>()
    }

    /// Probability of the positive class.
    #[inline]
    pub fn prob(&self, x: &[f64]) -> f64 {
        sigmoid(self.raw(x))
    }

    /// Boolean decision at threshold 0.5.
    #[inline]
    pub fn predict(&self, x: &[f64]) -> bool {
        self.raw(x) >= 0.0
    }
}

/// LASSO linear regression solved by cyclic coordinate descent with
/// soft-thresholding.
#[derive(Debug, Clone)]
pub struct Lasso {
    pub weights: Vec<f64>,
    pub intercept: f64,
}

impl Lasso {
    /// Fit `y ≈ X·w + b` with an L1 penalty `lambda`. `iters` full sweeps.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], lambda: f64, iters: usize) -> Self {
        assert_eq!(xs.len(), ys.len());
        let n = xs.len();
        if n == 0 {
            return Lasso {
                weights: Vec::new(),
                intercept: 0.0,
            };
        }
        let dim = xs[0].len();
        let mut w = vec![0.0; dim];
        let mut b = ys.iter().sum::<f64>() / n as f64;
        // Precompute column squared norms.
        let mut col_sq = vec![0.0f64; dim];
        for x in xs {
            for (j, xi) in x.iter().enumerate() {
                col_sq[j] += xi * xi;
            }
        }
        // Residuals r = y - (Xw + b)
        let mut r: Vec<f64> = ys.iter().zip(xs).map(|(y, _)| y - b).collect();
        for _ in 0..iters {
            for j in 0..dim {
                if col_sq[j] == 0.0 {
                    continue;
                }
                // rho = x_j · (r + w_j x_j)
                let mut rho = 0.0;
                for (i, x) in xs.iter().enumerate() {
                    rho += x[j] * (r[i] + w[j] * x[j]);
                }
                let new_w = soft_threshold(rho, lambda * n as f64) / col_sq[j];
                if new_w != w[j] {
                    let delta = new_w - w[j];
                    for (i, x) in xs.iter().enumerate() {
                        r[i] -= delta * x[j];
                    }
                    w[j] = new_w;
                }
            }
            // refit intercept
            let mean_r = r.iter().sum::<f64>() / n as f64;
            if mean_r.abs() > 1e-12 {
                b += mean_r;
                for ri in &mut r {
                    *ri -= mean_r;
                }
            }
        }
        Lasso {
            weights: w,
            intercept: b,
        }
    }

    pub fn predict(&self, x: &[f64]) -> f64 {
        self.intercept
            + self
                .weights
                .iter()
                .zip(x)
                .map(|(w, xi)| w * xi)
                .sum::<f64>()
    }

    /// Indices of features with non-zero weight (the "selected" features of
    /// the §5.4 polynomial-expression discovery).
    pub fn support(&self) -> Vec<usize> {
        self.weights
            .iter()
            .enumerate()
            .filter(|(_, w)| w.abs() > 1e-9)
            .map(|(i, _)| i)
            .collect()
    }
}

#[inline]
fn soft_threshold(x: f64, t: f64) -> f64 {
    if x > t {
        x - t
    } else if x < -t {
        x + t
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lr_learns_linearly_separable() {
        // y = x0 > x1
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let a = i as f64 / 40.0;
            xs.push(vec![a, 1.0 - a]);
            ys.push(a > 0.5);
        }
        let mut m = LogisticRegression::zeros(2);
        let loss = m.train(&xs, &ys, SgdParams::default());
        assert!(loss < 0.4, "loss {loss}");
        assert!(m.predict(&[0.9, 0.1]));
        assert!(!m.predict(&[0.1, 0.9]));
    }

    #[test]
    fn lr_training_deterministic() {
        let xs = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
        ];
        let ys = vec![true, false, true, false];
        let mut a = LogisticRegression::zeros(2);
        let mut b = LogisticRegression::zeros(2);
        a.train(&xs, &ys, SgdParams::default());
        b.train(&xs, &ys, SgdParams::default());
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.bias, b.bias);
    }

    #[test]
    fn lasso_recovers_sparse_signal() {
        // y = 3*x0 - 2*x2, x1 is noise-free but irrelevant
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..50 {
            let a = (i as f64 * 0.37).sin();
            let b = (i as f64 * 0.91).cos();
            let c = (i as f64 * 0.13).sin();
            xs.push(vec![a, b, c]);
            ys.push(3.0 * a - 2.0 * c);
        }
        let m = Lasso::fit(&xs, &ys, 0.01, 200);
        assert!((m.weights[0] - 3.0).abs() < 0.1, "{:?}", m.weights);
        assert!((m.weights[2] + 2.0).abs() < 0.1, "{:?}", m.weights);
        assert!(m.weights[1].abs() < 0.05, "{:?}", m.weights);
    }

    #[test]
    fn lasso_strong_penalty_zeroes_everything() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![0.1, 0.2, 0.3];
        let m = Lasso::fit(&xs, &ys, 100.0, 50);
        assert!(m.support().is_empty());
    }

    #[test]
    fn lasso_support_identifies_features() {
        let xs: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![i as f64, (i * i) as f64 / 30.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[1]).collect();
        let m = Lasso::fit(&xs, &ys, 0.05, 300);
        assert!(m.support().contains(&1));
    }

    #[test]
    fn empty_training_is_safe() {
        let mut m = LogisticRegression::zeros(3);
        assert_eq!(m.train(&[], &[], SgdParams::default()), 0.0);
        let l = Lasso::fit(&[], &[], 0.1, 10);
        assert!(l.weights.is_empty());
    }
}
