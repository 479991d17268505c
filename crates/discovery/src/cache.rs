//! The predicate satisfaction-bitset cache behind the levelwise miner.
//!
//! Discovery's cost used to grow multiplicatively with level depth: every
//! candidate conjunction re-evaluated each of its predicates from raw
//! tuples. This module materializes, once per `(predicate, partition)`
//! over the candidate instance set, the bitset of satisfied instances
//! ([`rock_rees::measures::predicate_sat_bits`]) — ML-predicate outputs
//! included, so each embedded classifier runs once per instance rather
//! than once per candidate containing it. The levelwise loop then measures
//! `supp(X ∧ p)` / `conf` with AND+popcount kernels over these bitsets.
//!
//! Materialized bitsets live behind a configurable byte budget with LRU
//! eviction ([`BitsetCache`]): a pair-domain bitset costs `n²/8` bytes, so
//! wide relations can overflow memory if every predicate's bitset were
//! pinned. Entries that no longer fit **spill back to re-evaluation** —
//! the cache simply rebuilds them on the next request (counted as a miss)
//! instead of returning an error, so the budget only ever trades time for
//! memory, never correctness. Hit/miss/eviction/byte counters are exposed
//! via [`CacheStats`] and surfaced in the miner's `DiscoveryReport`.

use rock_crystal::sync::{Arc, LockRank, OnceLock, RankedMutex};
use rock_data::{Bitset, Database, FxHashMap, RelId, TupleId};
use rock_ml::ModelRegistry;
use rock_rees::measures::{measure_bits, pair_offdiag, predicate_sat_bits, Measures, SatBits};
use rock_rees::{EvalContext, Predicate, Rule};

/// Which materialized form of a predicate a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitsForm {
    /// A precondition predicate, in its natural (unary or pair) domain.
    Precondition,
    /// A consequence predicate, in its natural domain.
    Consequence,
    /// A unary consequence broadcast into the pair domain (built from the
    /// `Consequence` entry with a word-fill, not by re-evaluation).
    ConsequencePair,
}

/// Cache key: one bitset per `(predicate slot, partition)`. Predicates are
/// identified by their stable index in the predicate space (`Predicate`
/// itself is not hashable — it contains float constants), partitions by
/// their tid range over the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredKey {
    pub form: BitsForm,
    pub slot: u32,
    pub start: u32,
    pub end: u32,
}

/// Counters describing a cache's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from a resident bitset.
    pub hits: u64,
    /// Requests that had to (re)build the bitset.
    pub misses: u64,
    /// Entries dropped by the LRU policy to respect the budget.
    pub evictions: u64,
    /// Builds whose result exceeded the whole budget and was returned to
    /// the caller without ever being retained.
    pub spills: u64,
    /// Resident entries at snapshot time.
    pub entries: usize,
    /// Resident bytes at snapshot time.
    pub bytes: usize,
    /// High-water mark of resident bytes.
    pub bytes_peak: usize,
    /// The configured budget.
    pub budget_bytes: usize,
}

impl CacheStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    bits: Arc<SatBits>,
    bytes: usize,
    last_used: u64,
}

struct Inner {
    entries: FxHashMap<PredKey, Entry>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    spills: u64,
    bytes_peak: usize,
}

/// A `Sync` LRU cache of satisfaction bitsets under a byte budget.
pub struct BitsetCache {
    budget: usize,
    // DiscoveryCache is a leaf rank: builds run outside the lock, so no
    // other lock is ever acquired while this one is held.
    inner: RankedMutex<Inner>,
}

impl BitsetCache {
    pub fn new(budget_bytes: usize) -> BitsetCache {
        BitsetCache {
            budget: budget_bytes,
            inner: RankedMutex::new(
                LockRank::DiscoveryCache,
                Inner {
                    entries: FxHashMap::default(),
                    tick: 0,
                    bytes: 0,
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                    spills: 0,
                    bytes_peak: 0,
                },
            ),
        }
    }

    /// Return the bitset for `key`, building it with `build` on a miss.
    /// The build runs outside the lock, so concurrent workers never
    /// serialize on predicate evaluation; a lost race simply adopts the
    /// winner's entry.
    pub fn get_or_build<F: FnOnce() -> SatBits>(&self, key: PredKey, build: F) -> Arc<SatBits> {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(&key) {
                entry.last_used = tick;
                let bits = Arc::clone(&entry.bits);
                inner.hits += 1;
                return bits;
            }
        }
        let bits = Arc::new(build());
        let bytes = bits.heap_bytes();
        let mut inner = self.inner.lock();
        inner.misses += 1;
        if let Some(entry) = inner.entries.get_mut(&key) {
            // another worker built it while we did: keep one copy resident
            return Arc::clone(&entry.bits);
        }
        if bytes > self.budget {
            // larger than the whole budget: spill — hand it out once and
            // re-evaluate on the next request rather than thrash the LRU
            inner.spills += 1;
            return bits;
        }
        let tick = inner.tick;
        inner.bytes += bytes;
        inner.entries.insert(
            key,
            Entry {
                bits: Arc::clone(&bits),
                bytes,
                last_used: tick,
            },
        );
        while inner.bytes > self.budget {
            // O(entries) LRU scan; the entry count is bounded by the
            // predicate-space size, not the data size
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(e) = inner.entries.remove(&victim) {
                inner.bytes -= e.bytes;
                inner.evictions += 1;
            }
        }
        inner.bytes_peak = inner.bytes_peak.max(inner.bytes);
        bits
    }

    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            spills: inner.spills,
            entries: inner.entries.len(),
            bytes: inner.bytes,
            bytes_peak: inner.bytes_peak,
            budget_bytes: self.budget,
        }
    }
}

/// Per-relation façade the miner works against: resolves the space's
/// predicates once, owns the tid↔bit-index mapping, and serves (cached)
/// satisfaction bitsets plus bitset-backed [`Measures`].
pub struct PredicateBitsets<'a> {
    ctx: &'a EvalContext<'a>,
    rel: RelId,
    tids: Vec<TupleId>,
    resolved_pre: Vec<Option<Predicate>>,
    resolved_cons: Vec<Option<Predicate>>,
    cache: BitsetCache,
    offdiag: OnceLock<Bitset>,
}

impl<'a> PredicateBitsets<'a> {
    pub fn new(
        ctx: &'a EvalContext<'a>,
        db: &Database,
        rel: RelId,
        preconditions: &[Predicate],
        consequences: &[Predicate],
        registry: &ModelRegistry,
        budget_bytes: usize,
    ) -> PredicateBitsets<'a> {
        let tids: Vec<TupleId> = db.relation(rel).tids().collect();
        let resolve = |p: &Predicate| resolve_predicate(p, rel, registry);
        PredicateBitsets {
            ctx,
            rel,
            tids,
            resolved_pre: preconditions.iter().map(resolve).collect(),
            resolved_cons: consequences.iter().map(resolve).collect(),
            cache: BitsetCache::new(budget_bytes),
            offdiag: OnceLock::new(),
        }
    }

    /// Number of live tuples (bits in the unary domain).
    pub fn n(&self) -> usize {
        self.tids.len()
    }

    /// All-ones root conjunction (the empty precondition): every tuple
    /// satisfies `X = ∅`, in the unary domain until a pair conjunct joins.
    pub fn root(&self) -> Arc<SatBits> {
        Arc::new(SatBits::Unary(Bitset::full(self.tids.len())))
    }

    /// Satisfaction bitset of precondition slot `i`; `None` when the
    /// predicate references an unknown ML model (such candidates are
    /// skipped by the miner, exactly like the scan path's `make_rule`).
    pub fn precondition(&self, i: usize) -> Option<Arc<SatBits>> {
        let p = self.resolved_pre[i].as_ref()?;
        Some(self.build(BitsForm::Precondition, i as u32, p))
    }

    /// Satisfaction bitset of consequence slot `ci` in its natural domain.
    pub fn consequence(&self, ci: usize) -> Option<Arc<SatBits>> {
        let p = self.resolved_cons[ci].as_ref()?;
        Some(self.build(BitsForm::Consequence, ci as u32, p))
    }

    fn build(&self, form: BitsForm, slot: u32, p: &Predicate) -> Arc<SatBits> {
        let key = PredKey {
            form,
            slot,
            start: 0,
            end: self.tids.len() as u32,
        };
        self.cache.get_or_build(key, || {
            predicate_sat_bits(p, self.ctx, self.rel, &self.tids)
        })
    }

    /// Consequence `ci` in the pair domain: pair-domain consequences are
    /// returned as-is; unary ones are row-broadcast (a word-fill over the
    /// natural-domain entry, cached under its own key — no re-evaluation).
    pub fn consequence_pair(&self, ci: usize) -> Option<Arc<SatBits>> {
        let natural = self.consequence(ci)?;
        match natural.as_ref() {
            SatBits::Pair(_) => Some(natural),
            SatBits::Unary(_) => {
                let n = self.tids.len();
                let key = PredKey {
                    form: BitsForm::ConsequencePair,
                    slot: ci as u32,
                    start: 0,
                    end: n as u32,
                };
                Some(self.cache.get_or_build(key, || match natural.as_ref() {
                    SatBits::Unary(u) => SatBits::Pair(rock_rees::measures::broadcast_rows(u, n)),
                    SatBits::Pair(p) => SatBits::Pair(p.clone()),
                }))
            }
        }
    }

    /// Bitset-backed measures of the candidate `pre → consequences[ci]`,
    /// matching `rock_rees::measures::measure` count-for-count. `None`
    /// when the consequence references an unknown model.
    pub fn measure(&self, ci: usize, pre: &SatBits) -> Option<Measures> {
        let n = self.tids.len();
        let cons = self.consequence(ci)?;
        if let (SatBits::Unary(p), SatBits::Unary(c)) = (pre, cons.as_ref()) {
            // one-variable rule: no pair domain, no off-diagonal mask —
            // the same counting as measure_bits' unary arm, inlined so the
            // all-unary path never materializes an n²-bit mask
            return Some(Measures {
                precondition_count: p.count_ones(),
                satisfying_count: p.and_popcount(c),
                possible: n as u64,
            });
        }
        let cons = self.consequence_pair(ci)?;
        let offdiag = self.offdiag.get_or_init(|| pair_offdiag(n));
        Some(measure_bits(pre, &cons, n, offdiag))
    }

    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// Resolve one predicate's model references against the registry via a
/// probe rule (reusing [`Rule::resolve`]); `None` for unknown models.
fn resolve_predicate(p: &Predicate, rel: RelId, registry: &ModelRegistry) -> Option<Predicate> {
    let mut probe = Rule::new(
        "resolve-probe",
        vec![("t".into(), rel), ("s".into(), rel)],
        vec![],
        vec![],
        p.clone(),
    );
    probe.resolve(registry).ok()?;
    Some(probe.consequence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rock_data::{AttrId, AttrType, DatabaseSchema, RelationSchema, Value};
    use rock_rees::CmpOp;

    fn db() -> Database {
        let schema = DatabaseSchema::new(vec![RelationSchema::of(
            "T",
            &[("a", AttrType::Str), ("b", AttrType::Str)],
        )]);
        let mut db = Database::new(&schema);
        let r = db.relation_mut(RelId(0));
        for i in 0..6 {
            let a = if i % 2 == 0 { "x" } else { "y" };
            r.insert_row(vec![Value::str(a), Value::str("1")]).unwrap();
        }
        db
    }

    fn const_pred(attr: u16, value: &str) -> Predicate {
        Predicate::Const {
            var: 0,
            attr: AttrId(attr),
            op: CmpOp::Eq,
            value: Value::str(value),
        }
    }

    #[test]
    fn hit_miss_counters() {
        let cache = BitsetCache::new(1 << 20);
        let key = PredKey {
            form: BitsForm::Precondition,
            slot: 0,
            start: 0,
            end: 64,
        };
        let mut builds = 0;
        for _ in 0..3 {
            let bits = cache.get_or_build(key, || {
                builds += 1;
                SatBits::Unary(Bitset::full(64))
            });
            assert_eq!(bits.bits().count_ones(), 64);
        }
        assert_eq!(builds, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        assert_eq!(s.bytes, 8);
        assert!(s.hit_rate() > 0.6);
    }

    #[test]
    fn lru_evicts_oldest_under_budget() {
        // budget fits exactly two 64-bit entries (8 bytes each)
        let cache = BitsetCache::new(16);
        let key = |slot: u32| PredKey {
            form: BitsForm::Precondition,
            slot,
            start: 0,
            end: 64,
        };
        let build = || SatBits::Unary(Bitset::new(64));
        cache.get_or_build(key(0), build);
        cache.get_or_build(key(1), build);
        cache.get_or_build(key(0), build); // touch 0 so 1 is LRU
        cache.get_or_build(key(2), build); // evicts 1
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        cache.get_or_build(key(0), build);
        cache.get_or_build(key(1), build); // rebuilt: was evicted
        let s = cache.stats();
        assert_eq!(s.misses, 4, "slot 1 re-evaluated after eviction");
        assert!(s.bytes <= 16 && s.bytes_peak <= 16);
    }

    #[test]
    fn oversized_entries_spill_without_residency() {
        let cache = BitsetCache::new(4); // smaller than any 64-bit entry
        let key = PredKey {
            form: BitsForm::Precondition,
            slot: 0,
            start: 0,
            end: 64,
        };
        let mut builds = 0;
        for _ in 0..2 {
            cache.get_or_build(key, || {
                builds += 1;
                SatBits::Unary(Bitset::new(64))
            });
        }
        assert_eq!(builds, 2, "spilled entries re-evaluate every time");
        let s = cache.stats();
        assert_eq!((s.spills, s.entries, s.bytes), (2, 0, 0));
    }

    #[test]
    fn predicate_bitsets_measures_and_caches() {
        let db = db();
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let pre = vec![const_pred(0, "x")];
        let cons = vec![const_pred(1, "1")];
        let pb = PredicateBitsets::new(&ctx, &db, RelId(0), &pre, &cons, &reg, 1 << 20);
        assert_eq!(pb.n(), 6);
        let p0 = pb.precondition(0).unwrap();
        assert_eq!(p0.bits().count_ones(), 3);
        let running = pb.root().and(&p0, pb.n());
        let m = pb.measure(0, &running).unwrap();
        assert_eq!(m.precondition_count, 3);
        assert_eq!(m.satisfying_count, 3);
        assert_eq!(m.possible, 6, "one-variable rule: possible = n");
        // second fetch hits
        pb.precondition(0).unwrap();
        assert!(pb.stats().hits >= 1);
    }

    #[test]
    fn unknown_model_predicates_yield_none() {
        let db = db();
        let reg = ModelRegistry::new();
        let ctx = EvalContext::new(&db, &reg);
        let ml = Predicate::Ml {
            model: rock_rees::ModelRef::named("nope"),
            lvar: 0,
            lattrs: vec![AttrId(0)],
            rvar: 1,
            rattrs: vec![AttrId(0)],
        };
        let pb = PredicateBitsets::new(&ctx, &db, RelId(0), &[ml.clone()], &[ml], &reg, 1 << 20);
        assert!(pb.precondition(0).is_none());
        assert!(pb.consequence(0).is_none());
        assert!(pb.measure(0, &pb.root()).is_none());
    }
}
