//! FD-shaped rules evaluated per join run, not per pair.
//!
//! A rule qualifies ([`FdShape::of`]) when it binds two tuple variables,
//! its precondition is one or more two-variable `=` joins plus unary
//! filters the columnar kernels answer, and its consequence is
//! `t.B = s.B'`. Its valuations then fall into **join runs**: the tuples
//! of each side that pass that side's filters, grouped by the tuple of
//! their join values (the run key; a null joins nothing). Inside one run
//! every pair satisfies the precondition, and whether it satisfies the
//! consequence depends only on the two consequence values, compared by
//! [`Value::sql_eq`] (a null equals nothing, not even another null). So
//! everything the pairwise enumerator derives from a run's `|L|·|R|`
//! pairs is a function of per-value counts:
//!
//! * the violation count is `|L|·|R| − Σ_v L_v·R_v`, less the self-pair
//!   `t = s` that `distinct_ok` excludes;
//! * each member's violating and satisfied partner counts (detection's
//!   blame ratios) and the smallest ratio among its violating partners;
//! * the connected components of the violating bipartite graph (the
//!   chase's equate groups), found on value groups in O(k).
//!
//! A run may be **restricted** to the pairs binding a touched tuple
//! ([`FdRuns::restrict`]): incremental detection counts only violations
//! involving a tuple ΔD touched, and an incremental chase only ever fires
//! valuations binding a tuple of its cumulative delta. Every count and
//! component below honours the restriction; an unrestricted run marks
//! every member touched.
//!
//! `tests/fd_runs.rs` holds this arithmetic against pair enumeration.

use crate::eval::columnar_prefilter_mask;
use crate::op::CmpOp;
use crate::predicate::Predicate;
use crate::rule::Rule;
use rock_data::{AttrId, Bitset, CellRef, ColumnSet, Database, DeltaSet, FxHashMap, FxHashSet};
use rock_data::{GlobalTid, RelId, TupleId, Value};
use std::sync::Arc;

/// The join values shared by every pair of a run, in precondition order.
pub type RunKey = Vec<Value>;

/// The value group of a null consequence cell: it equals nothing.
pub const NULL_GROUP: u32 = u32::MAX;

/// No member on the other side (see [`Run`]'s twins).
const NONE: u32 = u32::MAX;

/// The shape of an FD-like rule. Side 0 is the consequence's left
/// variable, side 1 its right one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdShape {
    /// Tuple variable of each side.
    pub vars: [usize; 2],
    pub rels: [RelId; 2],
    /// Consequence attribute of each side.
    pub attrs: [AttrId; 2],
    /// Each join's attribute on each side, in precondition order.
    pub keys: Vec<[AttrId; 2]>,
}

impl FdShape {
    /// `Some` when `rule` can be evaluated per join run.
    pub fn of(rule: &Rule) -> Option<FdShape> {
        if rule.tuple_vars.len() != 2 || !rule.vertex_vars.is_empty() {
            return None;
        }
        let Predicate::Attr {
            lvar,
            lattr,
            op: CmpOp::Eq,
            rvar,
            rattr,
        } = &rule.consequence
        else {
            return None;
        };
        if lvar == rvar {
            return None;
        }
        let mut keys = Vec::new();
        for p in &rule.precondition {
            match p {
                Predicate::Attr {
                    lvar: a,
                    lattr: aa,
                    op: CmpOp::Eq,
                    rvar: b,
                    rattr: ba,
                } if a != b => keys.push(if a == lvar { [*aa, *ba] } else { [*ba, *aa] }),
                _ if unary_filter(p) => {}
                _ => return None,
            }
        }
        (!keys.is_empty()).then(|| FdShape {
            vars: [*lvar, *rvar],
            rels: [rule.rel_of(*lvar), rule.rel_of(*rvar)],
            attrs: [*lattr, *rattr],
            keys,
        })
    }

    /// Both sides range over one relation, so a tuple may pair with itself
    /// — the self-pair every count excludes.
    pub fn self_pairs(&self) -> bool {
        self.rels[0] == self.rels[1]
    }

    /// A tuple on both sides holds one consequence cell for both roles.
    pub fn shared_cells(&self) -> bool {
        self.self_pairs() && self.attrs[0] == self.attrs[1]
    }

    /// The consequence cell of `tid` on `side`.
    pub fn cell(&self, side: usize, tid: TupleId) -> CellRef {
        CellRef::new(self.rels[side], tid, self.attrs[side])
    }

    /// The tuple `tid` on `side`.
    pub fn tuple(&self, side: usize, tid: TupleId) -> GlobalTid {
        GlobalTid::new(self.rels[side], tid)
    }
}

/// A unary predicate the columnar kernels answer (`t.A ⊕ c`, `t.A ⊕ t.B`,
/// `null(t.A)`).
fn unary_filter(p: &Predicate) -> bool {
    p.tuple_vars().len() == 1
        && matches!(
            p,
            Predicate::Const { .. } | Predicate::Attr { .. } | Predicate::IsNull { .. }
        )
}

/// One FD-shaped rule prepared over a database snapshot: each side's
/// filtered candidates, and the cached join indexes that find a run's
/// members.
pub struct FdRuns<'a> {
    pub shape: FdShape,
    db: &'a Database,
    cols: [Arc<ColumnSet>; 2],
    candidates: [Bitset; 2],
    /// Per side, the tuples a pair must bind one of; `None` counts every
    /// pair.
    touched: Option<[Bitset; 2]>,
}

impl<'a> FdRuns<'a> {
    /// `None` unless `rule` has the FD shape.
    pub fn new(rule: &Rule, db: &'a Database) -> Option<FdRuns<'a>> {
        let shape = FdShape::of(rule)?;
        let cols = shape.rels.map(|r| db.relation(r).columns());
        let candidates = [0, 1].map(|side| {
            let mut mask = cols[side].live().clone();
            for p in &rule.precondition {
                if p.tuple_vars() == [shape.vars[side]] {
                    if let Some(m) = columnar_prefilter_mask(&cols[side], p) {
                        mask.intersect_with(&m);
                    }
                }
            }
            mask
        });
        Some(FdRuns {
            shape,
            db,
            cols,
            candidates,
            touched: None,
        })
    }

    /// Count only the pairs binding a tuple `touched` marks.
    pub fn restrict(&mut self, touched: &DeltaSet) {
        self.touched = Some(self.shape.rels.map(|rel| touched.bits(rel)));
    }

    /// The run `tid` belongs to on `side`: `None` when it is dead, filtered
    /// out, or has a null join value.
    pub fn key_of(&self, side: usize, tid: TupleId) -> Option<RunKey> {
        let mask = &self.candidates[side];
        if tid.index() >= mask.len() || !mask.get(tid.index()) {
            return None;
        }
        let row = self.db.relation(self.shape.rels[side]).get(tid)?;
        let key: RunKey = self
            .shape
            .keys
            .iter()
            .map(|k| row.get(k[side]).clone())
            .collect();
        (!key.iter().any(Value::is_null)).then_some(key)
    }

    /// Every run that can hold a pair, found from the first join's
    /// indexes: a value whose candidates on either side are none, or are
    /// one tuple joining itself, holds no pair and gets no run.
    pub fn all_keys(&self) -> Vec<RunKey> {
        let [left, right] = [0, 1].map(|side| self.cols[side].join_index(self.shape.keys[0][side]));
        let mut keys = Vec::new();
        for (value, lhits) in left {
            let rhits = right.get(value).map(Vec::as_slice).unwrap_or(&[]);
            if !self.may_pair(lhits, rhits) {
                continue;
            }
            if self.shape.keys.len() == 1 {
                keys.push(vec![value.clone()]);
            } else {
                keys.extend(self.keys_of(lhits.iter().map(|&t| (0, t))));
            }
        }
        keys
    }

    /// Whether the candidates among two sides' join-index hits can form a
    /// pair other than a tuple with itself.
    fn may_pair(&self, lhits: &[TupleId], rhits: &[TupleId]) -> bool {
        // the first candidate, and whether there is a second
        let first = |side: usize, hits: &[TupleId]| {
            let mut it = hits.iter().filter(|t| self.candidates[side].get(t.index()));
            (it.next().copied(), it.next().is_some())
        };
        match (first(0, lhits), first(1, rhits)) {
            ((Some(a), more_l), (Some(b), more_r)) => {
                more_l || more_r || !(self.shape.self_pairs() && a == b)
            }
            _ => false,
        }
    }

    /// The distinct runs holding a tuple `marked` marks, on either side,
    /// in the order first seen.
    pub fn marked_keys(&self, marked: &DeltaSet) -> Vec<RunKey> {
        let rels = self.shape.rels;
        self.keys_of((0..2).flat_map(|side| marked.tids(rels[side]).map(move |t| (side, t))))
    }

    /// The distinct runs the given `(side, tuple)`s belong to, in the
    /// order first seen.
    fn keys_of(&self, tuples: impl IntoIterator<Item = (usize, TupleId)>) -> Vec<RunKey> {
        let mut seen: FxHashSet<RunKey> = FxHashSet::default();
        let mut keys = Vec::new();
        for (side, tid) in tuples {
            if let Some(key) = self.key_of(side, tid) {
                if !seen.contains(&key) {
                    seen.insert(key.clone());
                    keys.push(key);
                }
            }
        }
        keys
    }

    /// The members of run `key`, grouped by consequence value.
    pub fn run(&self, key: &RunKey) -> Run {
        let mut groups: FxHashMap<&Value, u32> = FxHashMap::default();
        let sides = [0, 1].map(|side| {
            let Some(first) = key.first() else {
                return Vec::new();
            };
            let rel = self.db.relation(self.shape.rels[side]);
            let hits = self.cols[side]
                .join_index(self.shape.keys[0][side])
                .get(first)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let mut members = Vec::new();
            for &tid in hits {
                if !self.candidates[side].get(tid.index()) {
                    continue;
                }
                let Some(row) = rel.get(tid) else { continue };
                let joins = self.shape.keys[1..]
                    .iter()
                    .zip(&key[1..])
                    .all(|(k, v)| row.get(k[side]).sql_eq(v));
                if !joins {
                    continue;
                }
                let value = row.get(self.shape.attrs[side]);
                let group = if value.is_null() {
                    NULL_GROUP
                } else {
                    let next = groups.len() as u32;
                    *groups.entry(value).or_insert(next)
                };
                let touched = match &self.touched {
                    None => true,
                    Some(t) => tid.index() < t[side].len() && t[side].get(tid.index()),
                };
                members.push(Member {
                    tid,
                    group,
                    touched,
                });
            }
            members
        });
        Run {
            groups: groups.len() as u32,
            self_pairs: self.shape.self_pairs(),
            sides,
        }
    }
}

/// One member of a run side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    pub tid: TupleId,
    /// Consequence value group, [`NULL_GROUP`] for a null.
    pub group: u32,
    /// A pair counts when it binds a touched member.
    pub touched: bool,
}

/// One join run: each side's members in ascending tuple order. Members
/// of two sides with one value share a group id.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Distinct non-null consequence values.
    pub groups: u32,
    /// Both sides range over one relation (see [`FdShape::self_pairs`]).
    pub self_pairs: bool,
    pub sides: [Vec<Member>; 2],
}

/// Per-group member counts of one side, over every member and over the
/// touched ones.
struct Tally {
    all: Vec<u32>,
    all_n: u32,
    touched: Vec<u32>,
    touched_n: u32,
}

/// The two smallest ratios in one value bucket: `(ratio, member index)`.
type Smallest = [(f64, u32); 2];

impl Run {
    /// For each member, the index of the same tuple on the other side
    /// ([`NONE`] if absent): the self-pair partner.
    fn twins(&self) -> [Vec<u32>; 2] {
        let mut twins = [0, 1].map(|side| vec![NONE; self.sides[side].len()]);
        if !self.self_pairs {
            return twins;
        }
        let (mut i, mut j) = (0, 0);
        let [l, r] = &self.sides;
        while i < l.len() && j < r.len() {
            match l[i].tid.cmp(&r[j].tid) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    twins[0][i] = j as u32;
                    twins[1][j] = i as u32;
                    i += 1;
                    j += 1;
                }
            }
        }
        twins
    }

    fn tally(&self, side: usize) -> Tally {
        let n = self.groups as usize;
        let mut t = Tally {
            all: vec![0; n],
            all_n: 0,
            touched: vec![0; n],
            touched_n: 0,
        };
        for m in &self.sides[side] {
            t.all_n += 1;
            if m.touched {
                t.touched_n += 1;
            }
            if m.group != NULL_GROUP {
                t.all[m.group as usize] += 1;
                if m.touched {
                    t.touched[m.group as usize] += 1;
                }
            }
        }
        t
    }

    /// `(violating, satisfied)` partner counts of every member of each
    /// side. A member's partners are the other side's members, less its
    /// own tuple; an untouched member's partners are the touched ones.
    pub fn partner_counts(&self) -> [Vec<(u32, u32)>; 2] {
        let twins = self.twins();
        let tallies = [self.tally(0), self.tally(1)];
        [0, 1].map(|side| {
            let (other, t) = (&self.sides[1 - side], &tallies[1 - side]);
            self.sides[side]
                .iter()
                .zip(&twins[side])
                .map(|(m, &twin)| {
                    let (mut total, counts) = if m.touched {
                        (t.all_n, &t.all)
                    } else {
                        (t.touched_n, &t.touched)
                    };
                    let mut same = match m.group {
                        NULL_GROUP => 0,
                        g => counts[g as usize],
                    };
                    // a twin shares the member's touched flag, so it is a
                    // partner in scope exactly when the member is touched
                    if twin != NONE && m.touched {
                        total -= 1;
                        if m.group != NULL_GROUP && other[twin as usize].group == m.group {
                            same -= 1;
                        }
                    }
                    (total - same, same)
                })
                .collect()
        })
    }

    /// Every member holds one non-null value: no pair violates.
    pub fn uniform(&self) -> bool {
        self.groups == 1 && self.sides.iter().flatten().all(|m| m.group == 0)
    }

    /// Violating pairs of this run (each counted once, from its left
    /// member).
    pub fn violations(&self) -> u64 {
        if self.uniform() {
            return 0;
        }
        let [left, _] = self.partner_counts();
        left.iter().map(|&(v, _)| v as u64).sum()
    }

    /// Detection's blame decision for every member: flagged when some
    /// violating partner's ratio `rp` has `ratio ≥ rp − 1e-12` — the
    /// pairwise rule, answered from the two smallest ratios of the three
    /// value buckets with the smallest ratios. `ratio(side, member)` is
    /// the member's cell's ratio.
    pub fn flags(&self, ratio: impl Fn(usize, &Member) -> f64) -> [Vec<bool>; 2] {
        let twins = self.twins();
        let ratios = [0, 1].map(|side| {
            self.sides[side]
                .iter()
                .map(|m| ratio(side, m))
                .collect::<Vec<f64>>()
        });
        // per side, the three smallest buckets over all members and over
        // the touched ones: (bucket, two smallest)
        let best =
            [0, 1].map(|side| [false, true].map(|only| self.smallest(side, &ratios[side], only)));
        [0, 1].map(|side| {
            let other = 1 - side;
            self.sides[side]
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let buckets = &best[other][usize::from(!m.touched)];
                    let twin = twins[side][i];
                    let mut min = f64::INFINITY;
                    for (bucket, smallest) in buckets {
                        if m.group != NULL_GROUP && *bucket == m.group {
                            continue;
                        }
                        let [first, second] = smallest;
                        let r = if first.1 == twin { second.0 } else { first.0 };
                        min = min.min(r);
                    }
                    ratios[side][i] >= min - 1e-12
                })
                .collect()
        })
    }

    /// The three value buckets of `side` with the smallest member ratios
    /// (nulls form one bucket, which matches no group), each with its two
    /// smallest `(ratio, member)`; `only_touched` considers touched
    /// members only.
    fn smallest(&self, side: usize, ratios: &[f64], only_touched: bool) -> Vec<(u32, Smallest)> {
        let empty: Smallest = [(f64::INFINITY, NONE); 2];
        let mut buckets: Vec<Smallest> = vec![empty; self.groups as usize + 1];
        for (i, m) in self.sides[side].iter().enumerate() {
            if only_touched && !m.touched {
                continue;
            }
            let b = &mut buckets[m.group.min(self.groups) as usize];
            let entry = (ratios[i], i as u32);
            if entry.0 < b[0].0 {
                b[1] = b[0];
                b[0] = entry;
            } else if entry.0 < b[1].0 {
                b[1] = entry;
            }
        }
        let mut ranked: Vec<(u32, Smallest)> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, b)| b[0].1 != NONE)
            .map(|(g, b)| {
                let g = if g as u32 == self.groups {
                    NULL_GROUP
                } else {
                    g as u32
                };
                (g, b)
            })
            .collect();
        ranked.sort_by(|a, b| a.1[0].0.total_cmp(&b.1[0].0));
        ranked.truncate(3);
        ranked
    }

    /// The connected components of the violating bipartite graph with at
    /// least one edge, as `(side, member index)` nodes. With
    /// `shared_cells` a tuple's two nodes are one cell and join one
    /// component.
    ///
    /// Breadth-first search over the complement of the same-value
    /// blocks: a node's neighbours are the other side's unvisited members
    /// outside its value group, less its own tuple, taken bucket by bucket
    /// from per-bucket stacks. Each expansion drains every bucket it may
    /// take from, so it leaves at most two buckets behind (its own group,
    /// and the one holding its twin) and the search is linear in the run.
    pub fn components(&self, shared_cells: bool) -> Vec<Vec<(usize, u32)>> {
        let twins = self.twins();
        let nb = self.groups as usize + 1;
        // [side][0 = all members, 1 = touched members]
        let mut stacks: [[Stacks; 2]; 2] = [0, 1].map(|side| {
            [false, true].map(|only| {
                let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); nb];
                for (i, m) in self.sides[side].iter().enumerate() {
                    if !only || m.touched {
                        buckets[m.group.min(self.groups) as usize].push(i as u32);
                    }
                }
                let open = (0..nb as u32)
                    .filter(|&b| !buckets[b as usize].is_empty())
                    .collect();
                Stacks { buckets, open }
            })
        });
        let mut visited = [0, 1].map(|side| vec![false; self.sides[side].len()]);
        let mut out = Vec::new();
        for side in 0..2 {
            for start in 0..self.sides[side].len() as u32 {
                if visited[side][start as usize] {
                    continue;
                }
                let mut comp: Vec<(usize, u32)> = Vec::new();
                let mut seen = Seen {
                    visited: &mut visited,
                    twins: &twins,
                    shared_cells,
                };
                seen.visit(&mut comp, side, start);
                let mut next = 0;
                while next < comp.len() {
                    let (s, i) = comp[next];
                    next += 1;
                    let m = self.sides[s][i as usize];
                    let twin = twins[s][i as usize];
                    let o = 1 - s;
                    let st = &mut stacks[o][usize::from(!m.touched)];
                    let mut keep = Vec::new();
                    for b in std::mem::take(&mut st.open) {
                        if m.group != NULL_GROUP && b == m.group {
                            keep.push(b);
                            continue;
                        }
                        let list = &mut st.buckets[b as usize];
                        let mut kept_twin = false;
                        while let Some(j) = list.pop() {
                            if j == twin {
                                kept_twin = true;
                            } else if !seen.visited[o][j as usize] {
                                seen.visit(&mut comp, o, j);
                            }
                        }
                        if kept_twin {
                            list.push(twin);
                            keep.push(b);
                        }
                    }
                    st.open = keep;
                }
                // two nodes are one cell only as a tuple's two shared roles
                let tid = |(s, i): (usize, u32)| self.sides[s][i as usize].tid;
                let one_cell = comp.len() == 2 && shared_cells && tid(comp[0]) == tid(comp[1]);
                if comp.len() >= 2 && !one_cell {
                    out.push(comp);
                }
            }
        }
        out
    }

    /// Every counted violating pair as `(left tuple, right tuple)` — the
    /// pairwise expansion, for tests and [`Run::violations`]' oracle.
    pub fn pairs(&self) -> Vec<(TupleId, TupleId)> {
        let [left, right] = &self.sides;
        let mut out = Vec::new();
        for l in left {
            for r in right {
                let counted = l.touched || r.touched;
                let own = self.self_pairs && l.tid == r.tid;
                let same = l.group != NULL_GROUP && l.group == r.group;
                if counted && !own && !same {
                    out.push((l.tid, r.tid));
                }
            }
        }
        out
    }
}

/// The search's visited nodes; visiting a node visits its twin too when
/// the two are one cell.
struct Seen<'s> {
    visited: &'s mut [Vec<bool>; 2],
    twins: &'s [Vec<u32>; 2],
    shared_cells: bool,
}

impl Seen<'_> {
    fn visit(&mut self, comp: &mut Vec<(usize, u32)>, s: usize, i: u32) {
        self.visited[s][i as usize] = true;
        comp.push((s, i));
        let twin = self.twins[s][i as usize];
        if self.shared_cells && twin != NONE && !self.visited[1 - s][twin as usize] {
            self.visited[1 - s][twin as usize] = true;
            comp.push((1 - s, twin));
        }
    }
}

/// Per-bucket stacks of unvisited members, and the buckets that may still
/// hold some.
struct Stacks {
    buckets: Vec<Vec<u32>>,
    open: Vec<u32>,
}
