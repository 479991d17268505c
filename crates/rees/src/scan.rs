//! The scan plan: how a rule's valuations split into Crystal work units
//! `T = (φ, D_T)` (paper §5.2), written once for detection and the chase,
//! in batch and incremental mode alike.
//!
//! * A **full scan** is one unit per variable-0 tid range.
//! * A **delta pass** is `ΔR ⋈ S ∪ R_old ⋈ ΔS`: the pass for tuple
//!   variable `v` pins `v` to a chunk of the tuples a delta touched (the
//!   [`DeltaSet`] that incremental detection and the chase both pass in)
//!   and binds every earlier variable to `R_old`, the live tuples outside
//!   the touched set. Each valuation binding a touched tuple is therefore
//!   enumerated exactly once, by the pass pinning its first touched
//!   variable.
//!
//! Every unit borrows its candidates from sets the plan builds once per
//! (rule, variable) on first use: the live tuples that pass the
//! variable's unary prefilters, as a list and a slot mask, and for a
//! variable bound to `R_old` that set without the touched tuples. A unit
//! then costs what its own range or chunk holds, not a pass over the
//! relation.
//!
//! * A **run pass** ([`ScanPlan::runs`]) covers an FD-shaped rule's join
//!   runs (`crate::runs`) instead of its pairs: each unit owns a chunk of
//!   the run keys, so a run is never split between units.
//!
//! [`ScanPlan::run`] turns a pair unit back into an enumerator call that
//! hands every valuation to the caller's leaf; [`ScanPlan::runs_of`] hands
//! a run unit's keys to the caller instead.

use crate::eval::{enumerate_candidates, CandidateSet, Candidates, EvalContext, Valuation};
use crate::rule::RuleSet;
use crate::runs::{FdRuns, RunKey};
use rock_crystal::sync::OnceLock;
use rock_crystal::work::{partition_range, Partition, WorkUnit};
use rock_data::{Database, DeltaSet, FxHashMap, TupleId};
use std::cmp::Ordering;

/// A candidate set per evaluation path: indexed by
/// [`EvalContext::columnar`], so a plan run under the scalar reference
/// path computes its own prefilters.
type Shared = [OnceLock<CandidateSet>; 2];

/// Work units for a set of rules over one database snapshot. Every unit
/// runs under contexts over that snapshot with the same oracles.
pub struct ScanPlan<'a> {
    rules: &'a RuleSet,
    db: &'a Database,
    /// Target units per full scan and per delta pass.
    parts: u32,
    units: Vec<WorkUnit>,
    /// Per unit (its payload is the index): what its partition ranges over.
    passes: Vec<Pass>,
    /// Touched tuples of each pinned (rule, variable), ascending.
    touched: FxHashMap<(usize, usize), Vec<TupleId>>,
    /// Each (rule, variable) of a pair unit: its candidate set.
    sets: FxHashMap<(usize, usize), Shared>,
    /// `R_old` of each (rule, variable) that a later pass of the rule
    /// binds: its candidate set without the touched tuples.
    old: FxHashMap<(usize, usize), Shared>,
    /// Each run-pass rule's prepared runs and keys.
    runs: FxHashMap<usize, (FdRuns<'a>, Vec<RunKey>)>,
}

/// What a unit's partition ranges over.
#[derive(Clone, Copy)]
enum Pass {
    /// Variable 0's tid slots.
    Full,
    /// The given variable's touched list.
    Pinned(usize),
    /// The rule's run keys.
    Runs,
}

impl<'a> ScanPlan<'a> {
    pub fn new(rules: &'a RuleSet, db: &'a Database, parts: u32) -> Self {
        ScanPlan {
            rules,
            db,
            parts,
            units: Vec::new(),
            passes: Vec::new(),
            touched: FxHashMap::default(),
            sets: FxHashMap::default(),
            old: FxHashMap::default(),
            runs: FxHashMap::default(),
        }
    }

    fn push(&mut self, ri: usize, p: Partition, pass: Pass) {
        let unit = WorkUnit::new(ri as u32, vec![p]).with_payload(self.passes.len() as u64);
        self.units.push(unit);
        self.passes.push(pass);
        if !matches!(pass, Pass::Runs) {
            for v in 0..self.rules.rules[ri].tuple_vars.len() {
                self.sets.entry((ri, v)).or_default();
            }
        }
    }

    /// Scan rule `ri` in full, partitioned on variable 0's tid slots. An
    /// empty relation still gets one (empty) unit.
    pub fn full(&mut self, ri: usize) {
        let rel0 = self.rules.rules[ri].rel_of(0);
        let rows = self.db.relation(rel0).capacity() as u32;
        let mut ranges = partition_range(rel0.0, rows, self.parts);
        if rows == 0 {
            ranges.push(Partition::new(rel0.0, 0, 0));
        }
        for p in ranges {
            self.push(ri, p, Pass::Full);
        }
    }

    /// Delta passes of rule `ri` over the tuples `touched` marks. Every
    /// variable with touched tuples gets one pass, in variable order,
    /// chunked into units.
    pub fn delta(&mut self, ri: usize, touched: &DeltaSet) {
        let rule = &self.rules.rules[ri];
        let mut pinned: Vec<usize> = Vec::new();
        for v in 0..rule.tuple_vars.len() {
            let rel = rule.rel_of(v);
            let list: Vec<TupleId> = touched.tids(rel).collect();
            if list.is_empty() {
                continue;
            }
            for p in partition_range(rel.0, list.len() as u32, self.parts) {
                self.push(ri, p, Pass::Pinned(v));
            }
            self.touched.insert((ri, v), list);
            pinned.push(v);
        }
        // a variable without touched tuples is R_old already, and no pass
        // comes after the last pinned one
        if let Some((_, earlier)) = pinned.split_last() {
            for &w in earlier {
                self.old.insert((ri, w), Shared::default());
            }
        }
    }

    /// A run pass of rule `ri` over the runs `keys` of `fd`, chunked into
    /// units. No keys, no units.
    pub fn runs(&mut self, ri: usize, fd: FdRuns<'a>, keys: Vec<RunKey>) {
        let rel0 = self.rules.rules[ri].rel_of(0);
        for p in partition_range(rel0.0, keys.len() as u32, self.parts) {
            self.push(ri, p, Pass::Runs);
        }
        self.runs.insert(ri, (fd, keys));
    }

    /// A run-pass unit's prepared runs and its chunk of keys; `None` for a
    /// pair unit.
    pub fn runs_of(&self, unit: &WorkUnit) -> Option<(&FdRuns<'a>, &[RunKey])> {
        let Pass::Runs = self.passes[unit.payload as usize] else {
            return None;
        };
        let (fd, keys) = self.runs.get(&(unit.rule as usize))?;
        let p = &unit.partitions[0];
        Some((fd, &keys[p.start as usize..p.end as usize]))
    }

    /// The plan's units, in the order they were added.
    pub fn units(&self) -> Vec<WorkUnit> {
        self.units.clone()
    }

    /// Enumerate one pair unit of this plan, calling `visit` with every
    /// valuation (a run unit enumerates nothing).
    pub fn run<F>(&self, ctx: &EvalContext<'_>, unit: &WorkUnit, visit: F)
    where
        F: FnMut(&Valuation) -> bool,
    {
        let ri = unit.rule as usize;
        let rule = &self.rules.rules[ri];
        let range = unit.partitions[0].start..unit.partitions[0].end;
        let path = usize::from(ctx.columnar);
        let set =
            |w: usize| self.sets[&(ri, w)][path].get_or_init(|| CandidateSet::of(rule, ctx, w));
        let pass = self.passes[unit.payload as usize];
        let candidates: Vec<Candidates<'_>> = match pass {
            Pass::Runs => return,
            Pass::Full => (0..rule.tuple_vars.len())
                .map(|w| match w {
                    0 => set(0).range(range.clone()),
                    _ => set(w).all(),
                })
                .collect(),
            Pass::Pinned(v) => (0..rule.tuple_vars.len())
                .map(|w| {
                    let touched = &self.touched.get(&(ri, w));
                    match (w.cmp(&v), self.old.get(&(ri, w)), touched) {
                        (Ordering::Equal, _, Some(touched)) => {
                            let chunk = &touched[range.start as usize..range.end as usize];
                            set(w).restrict(chunk)
                        }
                        (Ordering::Less, Some(old), Some(touched)) => {
                            old[path].get_or_init(|| set(w).without(touched)).all()
                        }
                        _ => set(w).all(),
                    }
                })
                .collect(),
        };
        enumerate_candidates(rule, ctx, candidates, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rules;
    use rock_data::{AttrType, DatabaseSchema, GlobalTid, RelId, RelationSchema, Value};
    use rock_ml::ModelRegistry;

    fn tids(xs: &[u32]) -> Vec<TupleId> {
        xs.iter().map(|&x| TupleId(x)).collect()
    }

    #[test]
    fn outside_drops_exactly_the_skipped_tuples() {
        let mut list = tids(&[0, 1, 2, 3, 5, 8, 9, 10]);
        list.retain(crate::eval::outside(&tids(&[0, 3, 4, 9, 11])));
        assert_eq!(list, tids(&[1, 2, 5, 8, 10]));
    }

    /// Full scans cover every valuation once; the delta passes cover
    /// exactly the valuations binding a touched tuple, each once.
    #[test]
    fn delta_passes_enumerate_each_touched_valuation_once() {
        let schema = DatabaseSchema::new(vec![
            RelationSchema::of("T", &[("k", AttrType::Str)]),
            RelationSchema::of("E", &[("k", AttrType::Str)]),
        ]);
        let mut db = Database::new(&schema);
        for k in ["a", "a", "b", "a", "b", "a"] {
            db.relation_mut(RelId(0))
                .insert_row(vec![Value::str(k)])
                .unwrap();
        }
        db.relation_mut(RelId(0)).delete(TupleId(4));
        let rules = RuleSet::new(
            parse_rules(
                "rule r: T(t) && T(s) && t.k = s.k -> t.k = s.k\nrule e: E(t) -> t.k = 'x'",
                &schema,
            )
            .unwrap(),
        );
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let collect = |plan: &ScanPlan<'_>| {
            let mut seen: Vec<Vec<GlobalTid>> = Vec::new();
            for unit in plan.units() {
                plan.run(&ctx, &unit, |h| {
                    seen.push(h.tuples.clone());
                    true
                });
            }
            seen.sort();
            seen
        };

        let mut full = ScanPlan::new(&rules, &db, 4);
        full.full(0);
        full.full(1);
        let units = full.units();
        assert_eq!(units.len(), 5, "four ranges, and one empty unit for E");
        assert!(units[4].partitions[0].is_empty());
        let all = collect(&full);

        let touched = tids(&[1, 4, 5]);
        let mut marks = DeltaSet::empty(&db);
        for &t in &touched {
            marks.mark(RelId(0), t);
        }
        let mut delta = ScanPlan::new(&rules, &db, 2);
        delta.delta(0, &marks);
        assert_eq!(delta.units().len(), 4, "two chunks per pinned variable");
        let binds_touched = |h: &Vec<GlobalTid>| h.iter().any(|g| touched.contains(&g.tid));
        let expected: Vec<_> = all.iter().filter(|h| binds_touched(h)).cloned().collect();
        assert!(!expected.is_empty() && expected.len() < all.len());
        assert_eq!(collect(&delta), expected);
    }

    /// The shared candidate sets keep each pass exact when variables carry
    /// unary prefilters: an unpinned variable enumerates only its filtered
    /// tuples, an `R_old` variable its filtered untouched ones, and every
    /// valuation binding a touched tuple still comes once — on both
    /// evaluation paths, at any chunking.
    #[test]
    fn delta_passes_with_prefilters_and_r_old_enumerate_each_touched_valuation_once() {
        let schema = DatabaseSchema::new(vec![
            RelationSchema::of("T", &[("k", AttrType::Str)]),
            RelationSchema::of("E", &[("k", AttrType::Str)]),
        ]);
        let mut db = Database::new(&schema);
        for k in ["a", "c", "a", "b", "a", "c", "b", "a"] {
            let t = db.relation_mut(RelId(0));
            t.insert_row(vec![Value::str(k)]).unwrap();
        }
        for k in ["x", "y", "x", "x"] {
            let e = db.relation_mut(RelId(1));
            e.insert_row(vec![Value::str(k)]).unwrap();
        }
        db.relation_mut(RelId(0)).delete(TupleId(6));
        let rules = RuleSet::new(
            parse_rules(
                "rule q: T(t) && E(u) && T(s) && t.k = s.k && u.k = 'x' && t.k != 'c' \
                 -> t.k = s.k",
                &schema,
            )
            .unwrap(),
        );
        let reg = ModelRegistry::new();
        for columnar in [true, false] {
            let ctx = EvalContext::new(&db, &reg).with_columnar(columnar);
            let collect = |plan: &ScanPlan<'_>| {
                let mut seen: Vec<Vec<GlobalTid>> = Vec::new();
                for unit in plan.units() {
                    plan.run(&ctx, &unit, |h| {
                        seen.push(h.tuples.clone());
                        true
                    });
                }
                seen.sort();
                seen
            };
            let mut full = ScanPlan::new(&rules, &db, 3);
            full.full(0);
            let all = collect(&full);
            assert!(all
                .iter()
                .all(|h| h[1].rel == RelId(1) && h[1].tid != TupleId(1)));

            // touched T tuples pass and fail `t.k != 'c'`, one is dead;
            // with touched E tuples `u` is pinned and then `R_old` too
            let cases: [(&[u32], &[u32]); 3] =
                [(&[0, 1, 6, 7], &[]), (&[2, 5], &[0, 1]), (&[], &[3])];
            for (t_touched, e_touched) in cases {
                let mut marks = DeltaSet::empty(&db);
                for &t in t_touched {
                    marks.mark(RelId(0), TupleId(t));
                }
                for &e in e_touched {
                    marks.mark(RelId(1), TupleId(e));
                }
                let binds_touched =
                    |h: &Vec<GlobalTid>| h.iter().any(|g| marks.contains(g.rel, g.tid));
                let expected: Vec<_> = all.iter().filter(|h| binds_touched(h)).cloned().collect();
                assert!(!expected.is_empty(), "{t_touched:?} {e_touched:?}");
                for parts in [1, 2, 4] {
                    let mut delta = ScanPlan::new(&rules, &db, parts);
                    delta.delta(0, &marks);
                    let got = collect(&delta);
                    assert_eq!(
                        got, expected,
                        "{t_touched:?} {e_touched:?}, {parts} parts, columnar {columnar}"
                    );
                }
            }
        }
    }
}
