//! Predicate pruning and polynomial-expression discovery (paper §5.4).
//!
//! * **FDX-style correlation pruning** — "given a target predicate, Rock
//!   adopts an unsupervised ML model based on FDX [95] to prune predicate
//!   candidates that are not correlated to the target, to speed up rule
//!   discovery." FDX estimates structure from *value-difference*
//!   statistics: for sampled tuple pairs, whether attributes agree. We
//!   compute, per candidate attribute `A` and target `B`, the mutual
//!   information between the agree-indicators of `A` and `B` over sampled
//!   pairs, and prune candidates below a threshold.
//! * **Polynomial expressions** — gradient boosting ranks numerical
//!   attributes (the XGBoost role), LASSO fits a sparse polynomial over
//!   the selected features; non-zero weights become arithmetic
//!   consistency checks (e.g. `total ≈ price · qty`).

use rock_data::{rng::StdRng, AttrId, Database, RelId};
use rock_ml::linear::Lasso;
use rock_ml::tree::GradientBoosting;

/// Ordinary least squares restricted to the `support` columns of `xs`,
/// with an intercept; solved via ridge-stabilized normal equations and
/// Gaussian elimination (supports are tiny, ≤ a dozen terms). Returns the
/// support weights and the intercept.
#[allow(clippy::needless_range_loop)] // Gaussian elimination indexes rows/cols
fn ols(xs: &[Vec<f64>], ys: &[f64], support: &[usize]) -> (Vec<f64>, f64) {
    let k = support.len() + 1; // + intercept column
    let mut ata = vec![vec![0.0f64; k]; k];
    let mut aty = vec![0.0f64; k];
    for (row, &y) in xs.iter().zip(ys) {
        let mut a = Vec::with_capacity(k);
        for &j in support {
            a.push(row[j]);
        }
        a.push(1.0);
        for i in 0..k {
            for j in 0..k {
                ata[i][j] += a[i] * a[j];
            }
            aty[i] += a[i] * y;
        }
    }
    for (i, row) in ata.iter_mut().enumerate() {
        row[i] += 1e-8; // ridge jitter for collinear supports
    }
    // Gaussian elimination with partial pivoting
    let mut m = ata;
    let mut b = aty;
    for col in 0..k {
        let pivot = m
            .iter()
            .enumerate()
            .skip(col)
            .map(|(i, r)| (i, r[col].abs()))
            .max_by(|a, c| a.1.total_cmp(&c.1))
            .map_or(col, |(i, _)| i);
        m.swap(col, pivot);
        b.swap(col, pivot);
        let diag = m[col][col];
        if diag.abs() < 1e-12 {
            continue;
        }
        for row in (col + 1)..k {
            let f = m[row][col] / diag;
            for c in col..k {
                m[row][c] -= f * m[col][c];
            }
            b[row] -= f * b[col];
        }
    }
    let mut w = vec![0.0f64; k];
    for row in (0..k).rev() {
        let mut acc = b[row];
        for c in (row + 1)..k {
            acc -= m[row][c] * w[c];
        }
        w[row] = if m[row][row].abs() < 1e-12 {
            0.0
        } else {
            acc / m[row][row]
        };
    }
    let intercept = w.pop().unwrap_or(0.0);
    (w, intercept)
}

/// Mutual information (in nats) between two binary vectors.
pub fn binary_mutual_information(xs: &[bool], ys: &[bool]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let mut joint = [[0f64; 2]; 2];
    for (&x, &y) in xs.iter().zip(ys) {
        joint[x as usize][y as usize] += 1.0;
    }
    let nf = n as f64;
    let px = [
        (joint[0][0] + joint[0][1]) / nf,
        (joint[1][0] + joint[1][1]) / nf,
    ];
    let py = [
        (joint[0][0] + joint[1][0]) / nf,
        (joint[0][1] + joint[1][1]) / nf,
    ];
    let mut mi = 0.0;
    for x in 0..2 {
        for y in 0..2 {
            let pxy = joint[x][y] / nf;
            if pxy > 0.0 && px[x] > 0.0 && py[y] > 0.0 {
                mi += pxy * (pxy / (px[x] * py[y])).ln();
            }
        }
    }
    mi.max(0.0)
}

/// FDX-style pruning: which attributes correlate (in agree-indicator MI
/// over sampled tuple pairs) with the target attribute. Returns attribute
/// ids with MI ≥ `min_mi`, sorted by MI descending.
#[allow(clippy::needless_range_loop)] // parallel per-attribute vectors
pub fn correlated_attributes(
    db: &Database,
    rel: RelId,
    target: AttrId,
    pairs: usize,
    min_mi: f64,
    seed: u64,
) -> Vec<(AttrId, f64)> {
    let r = db.relation(rel);
    let tids: Vec<_> = r.tids().collect();
    if tids.len() < 2 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agree_target = Vec::with_capacity(pairs);
    let arity = r.schema.arity();
    let mut agree_attr: Vec<Vec<bool>> = vec![Vec::with_capacity(pairs); arity];
    for _ in 0..pairs {
        let i = tids[rng.gen_range(0..tids.len())];
        let j = tids[rng.gen_range(0..tids.len())];
        if i == j {
            continue;
        }
        let (Some(ti), Some(tj)) = (r.get(i), r.get(j)) else {
            continue;
        };
        agree_target.push(ti.get(target).sql_eq(tj.get(target)));
        for a in 0..arity {
            let attr = AttrId(a as u16);
            agree_attr[a].push(ti.get(attr).sql_eq(tj.get(attr)));
        }
    }
    let mut out: Vec<(AttrId, f64)> = (0..arity)
        .filter(|&a| AttrId(a as u16) != target)
        .map(|a| {
            (
                AttrId(a as u16),
                binary_mutual_information(&agree_attr[a], &agree_target),
            )
        })
        .filter(|(_, mi)| *mi >= min_mi)
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// A discovered polynomial expression `target ≈ Σ wᵢ · termᵢ` over
/// numeric attributes (degree ≤ 2 terms: attributes and pairwise
/// products).
#[derive(Debug, Clone)]
pub struct PolynomialExpression {
    pub rel: RelId,
    pub target: AttrId,
    /// (term attributes — one = linear, two = product, weight)
    pub terms: Vec<(Vec<AttrId>, f64)>,
    pub intercept: f64,
    /// mean absolute residual on the training rows
    pub mean_abs_residual: f64,
}

impl PolynomialExpression {
    /// Evaluate on a tuple's numeric view; `None` if a needed attribute is
    /// null/non-numeric.
    pub fn eval(&self, values: &[rock_data::Value]) -> Option<f64> {
        let mut y = self.intercept;
        for (attrs, w) in &self.terms {
            let mut term = *w;
            for a in attrs {
                term *= values.get(a.index())?.as_f64()?;
            }
            y += term;
        }
        Some(y)
    }

    /// Is a tuple consistent with the expression within `tolerance`
    /// (relative)?
    pub fn check(&self, values: &[rock_data::Value], tolerance: f64) -> Option<bool> {
        let pred = self.eval(values)?;
        let actual = values.get(self.target.index())?.as_f64()?;
        let scale = actual.abs().max(pred.abs()).max(1.0);
        Some((pred - actual).abs() / scale <= tolerance)
    }
}

/// Discover a polynomial expression for `target` from the relation's
/// numeric attributes: boosting-based feature ranking prunes attributes,
/// then LASSO fits a sparse degree-2 polynomial (§5.4).
pub fn discover_polynomial(
    db: &Database,
    rel: RelId,
    target: AttrId,
    lambda: f64,
) -> Option<PolynomialExpression> {
    let r = db.relation(rel);
    let numeric: Vec<AttrId> = r
        .schema
        .iter_attrs()
        .filter(|(a, meta)| *a != target && meta.ty.is_numeric())
        .map(|(a, _)| a)
        .collect();
    if numeric.is_empty() {
        return None;
    }
    // rows with target and all numeric attrs non-null
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for t in r.iter() {
        let Some(y) = t.get(target).as_f64() else {
            continue;
        };
        let feats: Option<Vec<f64>> = numeric.iter().map(|a| t.get(*a).as_f64()).collect();
        if let Some(f) = feats {
            xs.push(f);
            ys.push(y);
        }
    }
    if xs.len() < 4 {
        return None;
    }
    // 1. feature pruning. The boosting ranker exists to cut *wide* numeric
    // schemas down before the quadratic term expansion; greedy stumps give
    // zero importance to a small-magnitude addend that a collinear feature
    // shadows (e.g. `fee` next to `amount` in `total = amount + fee`), so
    // for narrow schemas we keep everything and let LASSO select terms.
    let mut selected: Vec<usize> = if numeric.len() <= 6 {
        (0..numeric.len()).collect()
    } else {
        let gb = GradientBoosting::fit(&xs, &ys, 24, 0.3);
        let mut top = gb.selected_features(0.001);
        top.truncate(6);
        if top.is_empty() {
            top = (0..numeric.len().min(6)).collect();
        }
        top
    };
    selected.sort_unstable();
    // 2. degree-2 terms over selected features
    let mut terms: Vec<Vec<usize>> = selected.iter().map(|&i| vec![i]).collect();
    for (ii, &i) in selected.iter().enumerate() {
        for &j in &selected[ii..] {
            terms.push(vec![i, j]);
        }
    }
    let poly_xs: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            terms
                .iter()
                .map(|t| t.iter().map(|&i| x[i]).product())
                .collect()
        })
        .collect();
    // Standardize term columns and the response before LASSO — the raw
    // degree-2 design matrix is badly conditioned (amount² spans orders of
    // magnitude more than amount), which both slows coordinate descent and
    // makes the L1 shrinkage wildly non-uniform across terms.
    let dim = terms.len();
    let mut scale = vec![0.0f64; dim];
    for row in &poly_xs {
        for (j, v) in row.iter().enumerate() {
            scale[j] = scale[j].max(v.abs());
        }
    }
    for s in &mut scale {
        if *s == 0.0 {
            *s = 1.0;
        }
    }
    let y_scale = ys.iter().fold(0.0f64, |m, y| m.max(y.abs())).max(1.0);
    let scaled_xs: Vec<Vec<f64>> = poly_xs
        .iter()
        .map(|row| row.iter().zip(&scale).map(|(v, s)| v / s).collect())
        .collect();
    let scaled_ys: Vec<f64> = ys.iter().map(|y| y / y_scale).collect();
    let lasso = Lasso::fit(&scaled_xs, &scaled_ys, lambda / 100.0, 600);
    // Relaxed LASSO: the L1 penalty biases weights toward zero (≈1%
    // relative — enough to mis-flag small-magnitude rows at a 2%
    // tolerance), so refit OLS on the selected support to debias.
    let support: Vec<usize> = lasso
        .weights
        .iter()
        .enumerate()
        .filter(|(_, w)| w.abs() > 1e-6)
        .map(|(i, _)| i)
        .collect();
    if support.is_empty() {
        return None;
    }
    let (ols_w, ols_b) = ols(&scaled_xs, &scaled_ys, &support);
    let mut kept: Vec<(Vec<AttrId>, f64)> = Vec::new();
    for (si, &ti) in support.iter().enumerate() {
        // unscale: w' = w · y_scale / term_scale
        let w = ols_w[si] * y_scale / scale[ti];
        if w.abs() > 1e-9 {
            kept.push((terms[ti].iter().map(|&i| numeric[i]).collect(), w));
        }
    }
    if kept.is_empty() {
        return None;
    }
    let expr = PolynomialExpression {
        rel,
        target,
        terms: kept,
        intercept: ols_b * y_scale,
        mean_abs_residual: 0.0,
    };
    // residual on training rows
    let mut resid = 0.0;
    let mut n = 0usize;
    for t in r.iter() {
        if let (Some(pred), Some(y)) = (expr.eval(&t.values), t.get(target).as_f64()) {
            resid += (pred - y).abs();
            n += 1;
        }
    }
    Some(PolynomialExpression {
        mean_abs_residual: if n == 0 {
            f64::INFINITY
        } else {
            resid / n as f64
        },
        ..expr
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrType, DatabaseSchema, RelationSchema, Value};

    #[test]
    fn mi_basics() {
        let x = vec![true, true, false, false];
        assert!(binary_mutual_information(&x, &x) > 0.6); // ≈ ln 2
        let indep = vec![true, false, true, false];
        assert!(binary_mutual_information(&x, &indep) < 1e-9);
        assert_eq!(binary_mutual_information(&[], &[]), 0.0);
    }

    fn corr_db() -> Database {
        // city determines area_code; id is independent of both
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Store",
            &[
                ("id", AttrType::Int),
                ("city", AttrType::Str),
                ("area_code", AttrType::Str),
            ],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 0..40i64 {
            let (c, a) = if i % 2 == 0 {
                ("Beijing", "010")
            } else {
                ("Shanghai", "021")
            };
            r.insert_row(vec![Value::Int(i), Value::str(c), Value::str(a)])
                .unwrap();
        }
        db
    }

    #[test]
    fn fdx_pruning_keeps_correlated_attribute() {
        let db = corr_db();
        let kept = correlated_attributes(&db, RelId(0), AttrId(2), 600, 0.05, 1);
        assert!(!kept.is_empty());
        assert_eq!(kept[0].0, AttrId(1), "city must rank first: {kept:?}");
        assert!(
            !kept.iter().any(|(a, _)| *a == AttrId(0)),
            "independent id must be pruned: {kept:?}"
        );
    }

    fn poly_db() -> Database {
        // total = price * qty
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Order",
            &[
                ("price", AttrType::Float),
                ("qty", AttrType::Float),
                ("noise", AttrType::Float),
                ("total", AttrType::Float),
            ],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 1..40 {
            let price = (i % 7 + 1) as f64 * 10.0;
            let qty = (i % 5 + 1) as f64;
            let noise = ((i * 31) % 13) as f64;
            r.insert_row(vec![
                Value::Float(price),
                Value::Float(qty),
                Value::Float(noise),
                Value::Float(price * qty),
            ])
            .unwrap();
        }
        db
    }

    #[test]
    fn polynomial_recovers_price_times_qty() {
        let db = poly_db();
        let expr = discover_polynomial(&db, RelId(0), AttrId(3), 0.05).expect("expression");
        assert!(
            expr.mean_abs_residual < 2.0,
            "residual {} terms {:?}",
            expr.mean_abs_residual,
            expr.terms
        );
        // the product term price·qty must dominate
        let product_w: f64 = expr
            .terms
            .iter()
            .filter(|(attrs, _)| attrs.as_slice() == [AttrId(0), AttrId(1)])
            .map(|(_, w)| *w)
            .sum();
        assert!((product_w - 1.0).abs() < 0.2, "terms {:?}", expr.terms);
        // a consistent row checks out; a corrupted one does not
        let good = vec![
            Value::Float(20.0),
            Value::Float(3.0),
            Value::Float(1.0),
            Value::Float(60.0),
        ];
        let bad = vec![
            Value::Float(20.0),
            Value::Float(3.0),
            Value::Float(1.0),
            Value::Float(999.0),
        ];
        assert_eq!(expr.check(&good, 0.05), Some(true));
        assert_eq!(expr.check(&bad, 0.05), Some(false));
        assert_eq!(
            expr.check(&[Value::Null, Value::Null, Value::Null, Value::Null], 0.05),
            None
        );
    }

    #[test]
    fn polynomial_none_without_numeric_columns() {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("a", AttrType::Str), ("b", AttrType::Float)],
        )]);
        let db = Database::new(&schema);
        assert!(discover_polynomial(&db, RelId(0), AttrId(1), 0.1).is_none());
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use rock_data::{AttrType, Database, DatabaseSchema, RelationSchema, Value};

    #[test]
    fn debug_linear_sum_fit() {
        // the rock-core poly.rs scenario: total = amount + fee, fee = amount/10
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "Payment",
            &[
                ("amount", AttrType::Float),
                ("fee", AttrType::Float),
                ("total", AttrType::Float),
            ],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 1..40 {
            let amount = i as f64 * 10.0;
            let fee = i as f64;
            r.insert_row(vec![
                Value::Float(amount),
                Value::Float(fee),
                Value::Float(amount + fee),
            ])
            .unwrap();
        }
        let e = discover_polynomial(&db, RelId(0), AttrId(2), 0.05).unwrap();
        eprintln!(
            "terms={:?} intercept={} resid={}",
            e.terms, e.intercept, e.mean_abs_residual
        );
        // residual must be tiny relative to smallest total (11)
        assert!(e.mean_abs_residual < 0.05, "resid {}", e.mean_abs_residual);
        // and small rows must check out at 2% tolerance
        let row = vec![Value::Float(10.0), Value::Float(1.0), Value::Float(11.0)];
        assert_eq!(e.check(&row, 0.02), Some(true), "pred {:?}", e.eval(&row));
    }
}
