//! Support and confidence of REE++s (paper §3 "Rule discovery": top-k
//! ranking uses "objective measures (confidence, support)"; §6 sets "the
//! support (resp. confidence) threshold as 1e-8 (resp. 0.9)").
//!
//! * `support(φ, D)` — the number of valuations satisfying `X ∧ p0`,
//!   normalized by the number of possible valuations (the product of bound
//!   relation sizes). The paper's 1e-8 threshold is on this normalized
//!   scale.
//! * `confidence(φ, D)` — `|{h ⊨ X ∧ p0}| / |{h ⊨ X}|`.

use crate::eval::{distinct_ok, enumerate_valuations, EvalContext, Valuation};
use crate::predicate::Predicate;
use crate::rule::Rule;
use rock_data::{Bitset, GlobalTid, RelId, TupleId};

/// Measured support/confidence of one rule over one instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measures {
    /// Count of valuations with `h ⊨ X`.
    pub precondition_count: u64,
    /// Count of valuations with `h ⊨ X ∧ p0`.
    pub satisfying_count: u64,
    /// Number of possible valuations (product of relation sizes).
    pub possible: u64,
}

impl Measures {
    /// Normalized support.
    pub fn support(&self) -> f64 {
        if self.possible == 0 {
            0.0
        } else {
            self.satisfying_count as f64 / self.possible as f64
        }
    }

    /// Confidence; 0 when the precondition never holds (a rule that never
    /// fires carries no evidence).
    pub fn confidence(&self) -> f64 {
        if self.precondition_count == 0 {
            0.0
        } else {
            self.satisfying_count as f64 / self.precondition_count as f64
        }
    }
}

/// Measure a rule over a database.
pub fn measure(rule: &Rule, ctx: &EvalContext<'_>) -> Measures {
    let mut pre = 0u64;
    let mut sat = 0u64;
    enumerate_valuations(rule, ctx, |h| {
        if !distinct_ok(rule, h) {
            return true;
        }
        pre += 1;
        if ctx.eval_predicate(rule, h, &rule.consequence) == Some(true) {
            sat += 1;
        }
        true
    });
    let possible: u64 = rule
        .tuple_vars
        .iter()
        .map(|(_, rel)| ctx.db.relation(*rel).len() as u64)
        .product();
    Measures {
        precondition_count: pre,
        satisfying_count: sat,
        possible,
    }
}

/// Measure and record onto the rule (discovery uses this).
pub fn measure_into(rule: &mut Rule, ctx: &EvalContext<'_>) -> Measures {
    let m = measure(rule, ctx);
    rule.support = m.support();
    rule.confidence = m.confidence();
    m
}

/// The satisfaction bitset of one predicate over a single-relation
/// two-variable template `R(t) ∧ R(s)`, in one of two domains:
///
/// * `Unary` — predicates touching only variable 0 get one bit per tuple,
///   indexed by position in the instance's tid list (`n` bits);
/// * `Pair` — predicates touching variable 1 get one bit per ordered tuple
///   pair, bit `i·n + j` for `(t = tids[i], s = tids[j])` (`n²` bits,
///   diagonal included — the self-pair exclusion of [`distinct_ok`] is a
///   mask applied at measure time, not baked into predicate bitsets).
///
/// The two domains mirror the miner's rule simplification: a conjunction
/// whose predicates never touch `s` is measured as a one-variable rule
/// over `n` valuations, and switches to the `n²` pair domain exactly when
/// a two-variable conjunct (or consequence) joins it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatBits {
    Unary(Bitset),
    Pair(Bitset),
}

impl SatBits {
    pub fn bits(&self) -> &Bitset {
        match self {
            SatBits::Unary(b) | SatBits::Pair(b) => b,
        }
    }

    pub fn heap_bytes(&self) -> usize {
        self.bits().heap_bytes()
    }

    /// Conjoin two satisfaction bitsets over the same `n`-tuple instance,
    /// broadcasting a unary side into the pair domain when the other side
    /// is already pairwise.
    pub fn and(&self, other: &SatBits, n: usize) -> SatBits {
        use SatBits::*;
        match (self, other) {
            (Unary(a), Unary(b)) => Unary(a.and(b)),
            (Pair(a), Pair(b)) => Pair(a.and(b)),
            (Unary(u), Pair(p)) | (Pair(p), Unary(u)) => {
                let mut out = broadcast_rows(u, n);
                out.intersect_with(p);
                Pair(out)
            }
        }
    }
}

/// Broadcast a unary (per-`t`) bitset into the pair domain: row `i` of the
/// `n × n` bit matrix is filled iff bit `i` is set — a unary predicate on
/// `t` constrains every pair `(t, s)` identically.
pub fn broadcast_rows(unary: &Bitset, n: usize) -> Bitset {
    assert_eq!(unary.len(), n, "unary bitset must have one bit per tuple");
    let mut out = Bitset::new(n * n);
    for i in unary.ones() {
        out.set_range(i * n, (i + 1) * n);
    }
    out
}

/// The pair-domain mask excluding the diagonal `(i, i)` — the bitset form
/// of [`distinct_ok`] for a same-relation two-variable template.
pub fn pair_offdiag(n: usize) -> Bitset {
    let mut b = Bitset::full(n * n);
    for i in 0..n {
        b.unset(i * n + i);
    }
    b
}

/// Materialize the satisfaction bitset of `p` over `tids` (the live tuples
/// of `rel`, in iteration order). Each predicate — ML classifiers included
/// — is evaluated once per instance here and never re-evaluated per
/// candidate conjunction. Models referenced by `p` must already be
/// resolved (as after [`Rule::resolve`]).
pub fn predicate_sat_bits(
    p: &Predicate,
    ctx: &EvalContext<'_>,
    rel: RelId,
    tids: &[TupleId],
) -> SatBits {
    let n = tids.len();
    let probe = Rule::new(
        "sat-bits-probe",
        vec![("t".into(), rel), ("s".into(), rel)],
        vec![],
        vec![],
        p.clone(),
    );
    // vertex slots stay unbound (None): vertex-dependent predicates
    // evaluate to undecided = unsatisfied, matching the scan path, which
    // never binds vertices for rules without HER preconditions.
    let n_vertex = p.vertex_vars().iter().map(|&x| x + 1).max().unwrap_or(0);
    let dummy = GlobalTid::new(rel, tids.first().copied().unwrap_or(TupleId(0)));
    let mut h = Valuation::new(vec![dummy; 2], n_vertex);
    if p.tuple_vars().iter().all(|&v| v == 0) {
        let mut bits = Bitset::new(n);
        for (i, &tid) in tids.iter().enumerate() {
            h.tuples[0] = GlobalTid::new(rel, tid);
            if ctx.eval_predicate(&probe, &h, p) == Some(true) {
                bits.set(i);
            }
        }
        SatBits::Unary(bits)
    } else {
        let mut bits = Bitset::new(n * n);
        for (i, &ti) in tids.iter().enumerate() {
            h.tuples[0] = GlobalTid::new(rel, ti);
            for (j, &tj) in tids.iter().enumerate() {
                h.tuples[1] = GlobalTid::new(rel, tj);
                if ctx.eval_predicate(&probe, &h, p) == Some(true) {
                    bits.set(i * n + j);
                }
            }
        }
        SatBits::Pair(bits)
    }
}

/// [`Measures`] from satisfaction bitsets, reproducing [`measure`]'s
/// counting exactly. `pre` is the running conjunction of the precondition
/// (all-ones for an empty `X`), `cons` the consequence's bitset, and
/// `offdiag` the mask of [`pair_offdiag`] (only consulted when either side
/// lives in the pair domain).
pub fn measure_bits(pre: &SatBits, cons: &SatBits, n: usize, offdiag: &Bitset) -> Measures {
    match (pre, cons) {
        (SatBits::Unary(p), SatBits::Unary(c)) => Measures {
            precondition_count: p.count_ones(),
            satisfying_count: p.and_popcount(c),
            possible: n as u64,
        },
        (p, c) => {
            let pp: std::borrow::Cow<'_, Bitset> = match p {
                SatBits::Pair(b) => std::borrow::Cow::Borrowed(b),
                SatBits::Unary(u) => std::borrow::Cow::Owned(broadcast_rows(u, n)),
            };
            let cp: std::borrow::Cow<'_, Bitset> = match c {
                SatBits::Pair(b) => std::borrow::Cow::Borrowed(b),
                SatBits::Unary(u) => std::borrow::Cow::Owned(broadcast_rows(u, n)),
            };
            Measures {
                precondition_count: pp.and_popcount(offdiag),
                satisfying_count: pp.and3_popcount(&cp, offdiag),
                possible: n as u64 * n as u64,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CmpOp;
    use crate::predicate::Predicate;
    use rock_data::{AttrId, AttrType, Database, DatabaseSchema, RelId, RelationSchema, Value};
    use rock_ml::ModelRegistry;

    fn db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("a", AttrType::Str), ("b", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        // 3 tuples with a=x sharing b=1; 1 tuple with a=x but b=2
        r.insert_row(vec![Value::str("x"), Value::str("1")])
            .unwrap();
        r.insert_row(vec![Value::str("x"), Value::str("1")])
            .unwrap();
        r.insert_row(vec![Value::str("x"), Value::str("1")])
            .unwrap();
        r.insert_row(vec![Value::str("x"), Value::str("2")])
            .unwrap();
        db
    }

    fn fd_rule() -> Rule {
        // T(t) ∧ T(s) ∧ t.a = s.a → t.b = s.b
        Rule::new(
            "fd",
            vec![("t".into(), RelId(0)), ("s".into(), RelId(0))],
            vec![],
            vec![Predicate::Attr {
                lvar: 0,
                lattr: AttrId(0),
                op: CmpOp::Eq,
                rvar: 1,
                rattr: AttrId(0),
            }],
            Predicate::Attr {
                lvar: 0,
                lattr: AttrId(1),
                op: CmpOp::Eq,
                rvar: 1,
                rattr: AttrId(1),
            },
        )
    }

    #[test]
    fn support_and_confidence() {
        let db = db();
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let m = measure(&fd_rule(), &ctx);
        // precondition: all ordered distinct pairs (4·3 = 12)
        assert_eq!(m.precondition_count, 12);
        // satisfying: ordered pairs among the three b=1 tuples (3·2 = 6)
        assert_eq!(m.satisfying_count, 6);
        assert_eq!(m.possible, 16);
        assert!((m.support() - 6.0 / 16.0).abs() < 1e-12);
        assert!((m.confidence() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn measure_into_records() {
        let db = db();
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let mut r = fd_rule();
        measure_into(&mut r, &ctx);
        assert!(r.support > 0.0);
        assert!((r.confidence - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_db_zero_measures() {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("a", AttrType::Str), ("b", AttrType::Str)],
        )]);
        let db = Database::new(&schema);
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let m = measure(&fd_rule(), &ctx);
        assert_eq!(m.support(), 0.0);
        assert_eq!(m.confidence(), 0.0);
    }

    #[test]
    fn bitset_measures_match_scan_two_var() {
        let db = db();
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let rule = fd_rule();
        let tids: Vec<TupleId> = db.relation(RelId(0)).tids().collect();
        let n = tids.len();
        let pre = predicate_sat_bits(&rule.precondition[0], &ctx, RelId(0), &tids);
        let cons = predicate_sat_bits(&rule.consequence, &ctx, RelId(0), &tids);
        let m = measure_bits(&pre, &cons, n, &pair_offdiag(n));
        assert_eq!(m, measure(&rule, &ctx));
    }

    #[test]
    fn bitset_measures_match_scan_one_var() {
        let db = db();
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        // t.a = 'x' → t.b = '1': a one-variable rule, unary domain
        let pre_p = Predicate::Const {
            var: 0,
            attr: AttrId(0),
            op: CmpOp::Eq,
            value: Value::str("x"),
        };
        let cons_p = Predicate::Const {
            var: 0,
            attr: AttrId(1),
            op: CmpOp::Eq,
            value: Value::str("1"),
        };
        let rule = Rule::new(
            "const",
            vec![("t".into(), RelId(0))],
            vec![],
            vec![pre_p.clone()],
            cons_p.clone(),
        );
        let tids: Vec<TupleId> = db.relation(RelId(0)).tids().collect();
        let n = tids.len();
        let pre = predicate_sat_bits(&pre_p, &ctx, RelId(0), &tids);
        let cons = predicate_sat_bits(&cons_p, &ctx, RelId(0), &tids);
        assert!(matches!(pre, SatBits::Unary(_)));
        let m = measure_bits(&pre, &cons, n, &pair_offdiag(n));
        assert_eq!(m, measure(&rule, &ctx));
        assert_eq!(m.possible, 4);
    }

    #[test]
    fn bitset_measures_match_scan_mixed_domains() {
        // unary precondition, binary consequence: the unary side must
        // broadcast into the pair domain and mask the diagonal
        let db = db();
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let pre_p = Predicate::Const {
            var: 0,
            attr: AttrId(0),
            op: CmpOp::Eq,
            value: Value::str("x"),
        };
        let cons_p = Predicate::Attr {
            lvar: 0,
            lattr: AttrId(1),
            op: CmpOp::Eq,
            rvar: 1,
            rattr: AttrId(1),
        };
        let rule = Rule::new(
            "mixed",
            vec![("t".into(), RelId(0)), ("s".into(), RelId(0))],
            vec![],
            vec![pre_p.clone()],
            cons_p.clone(),
        );
        let tids: Vec<TupleId> = db.relation(RelId(0)).tids().collect();
        let n = tids.len();
        let pre = predicate_sat_bits(&pre_p, &ctx, RelId(0), &tids);
        let cons = predicate_sat_bits(&cons_p, &ctx, RelId(0), &tids);
        let m = measure_bits(&pre, &cons, n, &pair_offdiag(n));
        assert_eq!(m, measure(&rule, &ctx));
        // all 4 rows have a='x': pre = 4·3 ordered distinct pairs
        assert_eq!(m.precondition_count, 12);
    }

    #[test]
    fn satbits_and_broadcasts_across_domains() {
        let n = 3;
        let u = SatBits::Unary(Bitset::from_bools(&[true, false, true]));
        let mut pair = Bitset::full(n * n);
        pair.unset(0); // drop (0,0)
        let p = SatBits::Pair(pair);
        let up = u.and(&p, n);
        match &up {
            SatBits::Pair(b) => {
                // rows 0 and 2 minus the dropped bit: 3 + 3 - 1
                assert_eq!(b.count_ones(), 5);
                assert!(!b.get(0) && b.get(1) && !b.get(3) && b.get(6));
            }
            _ => panic!("expected pair domain"),
        }
        // unary ∧ unary stays unary
        let uu = u.and(&SatBits::Unary(Bitset::from_bools(&[true, true, false])), n);
        match uu {
            SatBits::Unary(b) => assert_eq!(b.ones().collect::<Vec<_>>(), vec![0]),
            _ => panic!("expected unary domain"),
        }
    }

    #[test]
    fn offdiag_masks_exactly_the_diagonal() {
        let n = 5;
        let off = pair_offdiag(n);
        assert_eq!(off.count_ones(), (n * n - n) as u64);
        for i in 0..n {
            assert!(!off.get(i * n + i));
        }
    }
}
