//! The model registry and cost accounting.
//!
//! REE++ rules reference ML models *by name* (`MER`, `Maddr`, `Mrank`, …);
//! the registry resolves names to model instances at evaluation time — the
//! "ML library" Crystal maintains (paper §5.1: "Crystal maintains various
//! pre-trained models for different tasks and domains").
//!
//! Two cross-cutting concerns live here:
//! * **Memoization / pre-computation** (§5.4 "ML predication": "Rock
//!   pre-computes the results in advance once the ML predicates are
//!   ready") — inference results are cached keyed by input hashes, so the
//!   chase never pays for the same inference twice.
//! * **Cost metering** — every inference adds the model's declared cost to
//!   a [`CostMeter`]. The benchmark harness reads it to reproduce the
//!   paper's *relative* runtime shapes (e.g. a T5-class model is ~10⁴×
//!   a similarity kernel) without actually running transformer inference.

use crate::correlation::{CorrelationModel, ValuePredictor};
use crate::features::Fnv1a;
use crate::her::HerModel;
use crate::pair::PairClassifier;
use crate::rank::RankModel;
use rock_crystal::sync::{
    Arc, AtomicU64, LockRank, Ordering, RankedMutex, RankedMutexGuard, RankedRwLock,
};
use rock_data::{FxHashMap, Value};

/// Identifier of a registered model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(pub u32);

/// Accumulates modeled inference cost (in abstract cost units) and
/// inference counts. Thread-safe; cost is stored in milli-units.
#[derive(Debug, Default)]
pub struct CostMeter {
    milli_cost: AtomicU64,
    inferences: AtomicU64,
    memo_hits: AtomicU64,
    contentions: AtomicU64,
}

impl CostMeter {
    pub fn add(&self, cost: f64) {
        self.milli_cost
            .fetch_add((cost * 1000.0) as u64, Ordering::Relaxed);
        self.inferences.fetch_add(1, Ordering::Relaxed);
    }

    pub fn hit(&self) {
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Total modeled cost units.
    pub fn cost(&self) -> f64 {
        self.milli_cost.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Number of actual (non-memoized) inferences.
    pub fn inferences(&self) -> u64 {
        self.inferences.load(Ordering::Relaxed)
    }

    /// Number of memoized lookups.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Record one contended memo-shard acquisition (a `try_lock` that had
    /// to fall back to blocking).
    pub fn contend(&self) {
        self.contentions.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of contended memo-shard acquisitions — with the sharded memo
    /// this should stay near zero even under parallel chase workers.
    pub fn contentions(&self) -> u64 {
        self.contentions.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.milli_cost.store(0, Ordering::Relaxed);
        self.inferences.store(0, Ordering::Relaxed);
        self.memo_hits.store(0, Ordering::Relaxed);
        self.contentions.store(0, Ordering::Relaxed);
    }
}

enum Model {
    Pair(Arc<dyn PairClassifier>),
    Rank(Arc<RankModel>),
    Correlation(Arc<CorrelationModel>),
    Predictor(Arc<ValuePredictor>),
    Her(Arc<HerModel>),
}

/// Number of lock shards for the inference memos. Chase workers hash to
/// shards by input, so concurrent lookups of different pairs rarely touch
/// the same mutex.
const MEMO_SHARDS: usize = 16;

/// Shard index for a memo key: multiply-shift over the two input hashes.
fn memo_shard(h1: u64, h2: u64) -> usize {
    (((h1 ^ h2).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 60) as usize & (MEMO_SHARDS - 1)
}

/// Thread-safe registry of named models with memoized inference.
pub struct ModelRegistry {
    // Rank order: RegistryModels < RegistryNames (`register` holds the
    // model table while inserting into the name index) < RegistryFilters
    // < RegistryMemo. All 16 memo shards share one rank — a thread never
    // holds two shards at once.
    models: RankedRwLock<Vec<(String, Model)>>,
    by_name: RankedRwLock<FxHashMap<String, ModelId>>,
    memo_bool: Vec<RankedMutex<FxHashMap<(ModelId, u64, u64), bool>>>,
    memo_score: Vec<RankedMutex<FxHashMap<(ModelId, u64, u64), f64>>>,
    /// Blocking filters (§5.3 filter-and-verify): when a model has a
    /// filter, pairs outside it short-circuit to `false` without inference
    /// — LSH guarantees matches are in the filter with high probability.
    /// Read-mostly after precomputation, hence the `RwLock`.
    block_filters: RankedRwLock<FxHashMap<ModelId, rock_data::FxHashSet<(u64, u64)>>>,
    pub meter: CostMeter,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.models.read().len())
            .field("cost", &self.meter.cost())
            .finish()
    }
}

/// FNV-1a of the values' `Debug` renderings, each followed by `\u{1}`. The
/// bytes are hashed as they are formatted, never collected: this runs twice
/// per `predict_pair`, memo hit or not.
fn hash_values(vs: &[Value]) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv1a::default();
    for v in vs {
        // the writer never fails
        let _ = write!(h, "{v:?}\u{1}");
    }
    h.0
}

impl ModelRegistry {
    pub fn new() -> Self {
        ModelRegistry {
            models: RankedRwLock::new(LockRank::RegistryModels, Vec::new()),
            by_name: RankedRwLock::new(LockRank::RegistryNames, FxHashMap::default()),
            memo_bool: (0..MEMO_SHARDS)
                .map(|_| RankedMutex::new(LockRank::RegistryMemo, FxHashMap::default()))
                .collect(),
            memo_score: (0..MEMO_SHARDS)
                .map(|_| RankedMutex::new(LockRank::RegistryMemo, FxHashMap::default()))
                .collect(),
            block_filters: RankedRwLock::new(LockRank::RegistryFilters, FxHashMap::default()),
            meter: CostMeter::default(),
        }
    }

    /// Lock one memo shard, counting contended acquisitions.
    fn lock_shard<'a, T>(
        &self,
        shards: &'a [RankedMutex<T>],
        idx: usize,
    ) -> RankedMutexGuard<'a, T> {
        match shards[idx].try_lock() {
            Some(g) => g,
            None => {
                self.meter.contend();
                shards[idx].lock()
            }
        }
    }

    /// Hash key of a value vector — the blocking layer builds its filter
    /// sets from these.
    pub fn pair_key(vs: &[Value]) -> u64 {
        hash_values(vs)
    }

    /// Install a blocking filter for a pair model: `predict_pair` returns
    /// `false` without inference for pairs outside `candidates`.
    pub fn set_block_filter(&self, id: ModelId, candidates: rock_data::FxHashSet<(u64, u64)>) {
        self.block_filters.write().insert(id, candidates);
    }

    /// Remove a model's blocking filter.
    pub fn clear_block_filter(&self, id: ModelId) {
        self.block_filters.write().remove(&id);
    }

    /// Whether a blocking filter is installed for this model — the
    /// semi-naive chase only trusts block-mate pruning when the full
    /// filter-and-verify pass ran.
    pub fn has_block_filter(&self, id: ModelId) -> bool {
        self.block_filters.read().contains_key(&id)
    }

    fn register(&self, name: &str, model: Model) -> ModelId {
        let mut models = self.models.write();
        let id = ModelId(models.len() as u32);
        models.push((name.to_owned(), model));
        self.by_name.write().insert(name.to_owned(), id);
        id
    }

    pub fn register_pair(&self, name: &str, m: Arc<dyn PairClassifier>) -> ModelId {
        self.register(name, Model::Pair(m))
    }

    pub fn register_rank(&self, name: &str, m: Arc<RankModel>) -> ModelId {
        self.register(name, Model::Rank(m))
    }

    pub fn register_correlation(&self, name: &str, m: Arc<CorrelationModel>) -> ModelId {
        self.register(name, Model::Correlation(m))
    }

    pub fn register_predictor(&self, name: &str, m: Arc<ValuePredictor>) -> ModelId {
        self.register(name, Model::Predictor(m))
    }

    pub fn register_her(&self, name: &str, m: Arc<HerModel>) -> ModelId {
        self.register(name, Model::Her(m))
    }

    /// Resolve a model name (rule parsing uses this).
    pub fn id(&self, name: &str) -> Option<ModelId> {
        self.by_name.read().get(name).copied()
    }

    /// Name of a model id (pretty-printing rules).
    pub fn name(&self, id: ModelId) -> Option<String> {
        self.models
            .read()
            .get(id.0 as usize)
            .map(|(n, _)| n.clone())
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Boolean pair inference `M(a, b)`, memoized, block-filtered and
    /// cost-metered.
    pub fn predict_pair(&self, id: ModelId, a: &[Value], b: &[Value]) -> bool {
        let key = (id, hash_values(a), hash_values(b));
        {
            let filters = self.block_filters.read();
            if let Some(f) = filters.get(&id) {
                if !f.contains(&(key.1, key.2)) {
                    self.meter.hit();
                    return false;
                }
            }
        }
        let shard = memo_shard(key.1, key.2);
        if let Some(&v) = self.lock_shard(&self.memo_bool, shard).get(&key) {
            self.meter.hit();
            return v;
        }
        let models = self.models.read();
        let Some((_, Model::Pair(m))) = models.get(id.0 as usize) else {
            panic!("model {id:?} is not a pair classifier");
        };
        self.meter.add(m.cost());
        let v = m.predict(a, b);
        drop(models);
        self.lock_shard(&self.memo_bool, shard).insert(key, v);
        v
    }

    /// Pair score, memoized.
    pub fn score_pair(&self, id: ModelId, a: &[Value], b: &[Value]) -> f64 {
        let key = (id, hash_values(a), hash_values(b));
        let shard = memo_shard(key.1, key.2);
        if let Some(&v) = self.lock_shard(&self.memo_score, shard).get(&key) {
            self.meter.hit();
            return v;
        }
        let models = self.models.read();
        let Some((_, Model::Pair(m))) = models.get(id.0 as usize) else {
            panic!("model {id:?} is not a pair classifier");
        };
        self.meter.add(m.cost());
        let v = m.score(a, b);
        drop(models);
        self.lock_shard(&self.memo_score, shard).insert(key, v);
        v
    }

    /// Access the pair classifier itself (for blocking).
    pub fn pair(&self, id: ModelId) -> Option<Arc<dyn PairClassifier>> {
        match self.models.read().get(id.0 as usize) {
            Some((_, Model::Pair(m))) => Some(Arc::clone(m)),
            _ => None,
        }
    }

    /// `Mrank` confidence that `t1 ⪯ t2`, cost-metered (not memoized: the
    /// caller — TD conflict resolution — usually wants both directions and
    /// they derive from one subtraction anyway).
    pub fn rank_confidence(&self, id: ModelId, t1: &[Value], t2: &[Value]) -> f64 {
        let models = self.models.read();
        let Some((_, Model::Rank(m))) = models.get(id.0 as usize) else {
            panic!("model {id:?} is not a rank model");
        };
        self.meter.add(2.0);
        m.confidence(t1, t2)
    }

    /// `Mc` strength, cost-metered.
    pub fn correlation_strength(&self, id: ModelId, evidence: &[Value], c: &Value) -> f64 {
        let models = self.models.read();
        let Some((_, Model::Correlation(m))) = models.get(id.0 as usize) else {
            panic!("model {id:?} is not a correlation model");
        };
        self.meter.add(m.cost());
        m.strength(evidence, c)
    }

    /// `Md` prediction, cost-metered.
    pub fn predict_value(&self, id: ModelId, evidence: &[Value]) -> Option<Value> {
        let models = self.models.read();
        let Some((_, Model::Predictor(m))) = models.get(id.0 as usize) else {
            panic!("model {id:?} is not a value predictor");
        };
        self.meter.add(m.cost());
        m.predict(evidence)
    }

    /// `Md` restricted to a candidate set (MI conflict resolution, §4.2(3)).
    pub fn best_of(&self, id: ModelId, evidence: &[Value], cands: &[Value]) -> Option<Value> {
        let models = self.models.read();
        let Some((_, Model::Predictor(m))) = models.get(id.0 as usize) else {
            panic!("model {id:?} is not a value predictor");
        };
        self.meter.add(m.cost());
        m.best_of(evidence, cands)
    }

    /// HER model handle.
    pub fn her(&self, id: ModelId) -> Option<Arc<HerModel>> {
        match self.models.read().get(id.0 as usize) {
            Some((_, Model::Her(m))) => {
                self.meter.add(m.cost());
                Some(Arc::clone(m))
            }
            _ => None,
        }
    }

    /// Seed the memo with a known result without running inference — the
    /// pre-computation path of §5.4 ("Rock pre-computes the results in
    /// advance once the ML predicates are ready"): the blocking layer
    /// memoizes the model's output for every candidate pair (the block
    /// filter answers for the rest).
    ///
    /// The sides are given as their [`pair_key`](Self::pair_key)s, which
    /// the blocking layer computes once per tuple.
    pub fn memoize_pair(&self, id: ModelId, a_key: u64, b_key: u64, result: bool) {
        let shard = memo_shard(a_key, b_key);
        self.lock_shard(&self.memo_bool, shard)
            .insert((id, a_key, b_key), result);
    }

    /// Drop all memoized results (tests / repeated experiments).
    pub fn clear_memo(&self) {
        for s in &self.memo_bool {
            s.lock().clear();
        }
        for s in &self.memo_score {
            s.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::ExactMatchModel;

    #[test]
    fn register_and_resolve() {
        let reg = ModelRegistry::new();
        let id = reg.register_pair("MER", Arc::new(ExactMatchModel));
        assert_eq!(reg.id("MER"), Some(id));
        assert_eq!(reg.name(id).as_deref(), Some("MER"));
        assert_eq!(reg.id("nope"), None);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn memoization_counts_one_inference() {
        let reg = ModelRegistry::new();
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        let a = [Value::Int(1)];
        let b = [Value::Int(1)];
        assert!(reg.predict_pair(id, &a, &b));
        assert!(reg.predict_pair(id, &a, &b));
        assert_eq!(reg.meter.inferences(), 1);
        assert_eq!(reg.meter.memo_hits(), 1);
        assert!(reg.meter.cost() > 0.0);
    }

    #[test]
    fn clear_memo_forces_reinference() {
        let reg = ModelRegistry::new();
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        reg.predict_pair(id, &[Value::Int(1)], &[Value::Int(1)]);
        reg.clear_memo();
        reg.predict_pair(id, &[Value::Int(1)], &[Value::Int(1)]);
        assert_eq!(reg.meter.inferences(), 2);
    }

    #[test]
    fn distinct_inputs_distinct_memo_keys() {
        let reg = ModelRegistry::new();
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        assert!(reg.predict_pair(id, &[Value::Int(1)], &[Value::Int(1)]));
        assert!(!reg.predict_pair(id, &[Value::Int(1)], &[Value::Int(2)]));
        assert_eq!(reg.meter.inferences(), 2);
    }

    #[test]
    fn pair_key_hashes_the_debug_bytes_of_every_variant() {
        // the key as it was computed before it streamed: format, then hash
        let formatted = |vs: &[Value]| {
            let mut buf = String::new();
            for v in vs {
                buf.push_str(&format!("{v:?}\u{1}"));
            }
            crate::features::fnv1a(buf.as_bytes())
        };
        let each = [
            Value::Null,
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::Float(1.5e300),
            Value::Float(f64::NAN),
            Value::str(""),
            Value::str("plain"),
            Value::str("quote \" slash \\ tab \t nl \n \u{1} é 北 😀 \u{301}"),
            Value::Bool(true),
            Value::Bool(false),
            Value::Date(-1),
            Value::Date(19_000),
        ];
        for v in &each {
            let vs = std::slice::from_ref(v);
            assert_eq!(ModelRegistry::pair_key(vs), formatted(vs), "{v:?}");
        }
        assert_eq!(ModelRegistry::pair_key(&each), formatted(&each));
        assert_eq!(ModelRegistry::pair_key(&[]), formatted(&[]));
        // the separator keeps ("ab", "c") apart from ("a", "bc")
        assert_ne!(
            ModelRegistry::pair_key(&[Value::str("ab"), Value::str("c")]),
            ModelRegistry::pair_key(&[Value::str("a"), Value::str("bc")])
        );
    }

    #[test]
    fn memoize_pair_by_key_is_found_by_predict_pair() {
        let reg = ModelRegistry::new();
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        let (a, b) = ([Value::Int(1)], [Value::Int(2)]);
        // seed the opposite of what the model would say
        reg.memoize_pair(
            id,
            ModelRegistry::pair_key(&a),
            ModelRegistry::pair_key(&b),
            true,
        );
        assert!(reg.predict_pair(id, &a, &b));
        assert_eq!(reg.meter.inferences(), 0);
        assert_eq!(reg.meter.memo_hits(), 1);
    }

    #[test]
    fn meter_reset() {
        let m = CostMeter::default();
        m.add(1.5);
        m.hit();
        assert_eq!(m.inferences(), 1);
        m.reset();
        assert_eq!(m.cost(), 0.0);
        assert_eq!(m.memo_hits(), 0);
    }

    #[test]
    fn block_filter_short_circuits() {
        let reg = ModelRegistry::new();
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        let a = [Value::Int(1)];
        let b = [Value::Int(1)];
        let c = [Value::Int(2)];
        // filter admits only (a, b)
        let mut filter = rock_data::FxHashSet::default();
        filter.insert((ModelRegistry::pair_key(&a), ModelRegistry::pair_key(&b)));
        reg.set_block_filter(id, filter);
        assert!(
            reg.predict_pair(id, &a, &b),
            "candidate pair runs the model"
        );
        assert!(
            !reg.predict_pair(id, &a, &c),
            "non-candidate short-circuits to false"
        );
        // only one real inference happened; the blocked pair was a hit
        assert_eq!(reg.meter.inferences(), 1);
        assert_eq!(reg.meter.memo_hits(), 1);
        // removing the filter lets the blocked pair run for real
        reg.clear_block_filter(id);
        assert!(!reg.predict_pair(id, &a, &c));
        assert_eq!(reg.meter.inferences(), 2);
    }

    #[test]
    #[should_panic(expected = "not a rank model")]
    fn wrong_kind_panics() {
        let reg = ModelRegistry::new();
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        reg.rank_confidence(id, &[], &[]);
    }

    #[test]
    fn sharded_memo_counts_hits_across_shards() {
        // keys spread over many shards must still memoize exactly once each
        let reg = ModelRegistry::new();
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        for i in 0..64 {
            let a = [Value::Int(i)];
            reg.predict_pair(id, &a, &a);
            reg.predict_pair(id, &a, &a);
        }
        assert_eq!(reg.meter.inferences(), 64);
        assert_eq!(reg.meter.memo_hits(), 64);
        // single-threaded access never contends
        assert_eq!(reg.meter.contentions(), 0);
    }

    #[test]
    fn has_block_filter_tracks_install_and_clear() {
        let reg = ModelRegistry::new();
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        assert!(!reg.has_block_filter(id));
        reg.set_block_filter(id, rock_data::FxHashSet::default());
        assert!(reg.has_block_filter(id));
        reg.clear_block_filter(id);
        assert!(!reg.has_block_filter(id));
    }

    #[test]
    fn parallel_memo_access_is_consistent() {
        let reg = Arc::new(ModelRegistry::new());
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        let mut handles = Vec::new();
        for t in 0..4 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for i in 0..128 {
                    let a = [Value::Int((t * 128 + i) % 32)];
                    assert!(reg.predict_pair(id, &a, &a));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 32 distinct keys; races may run a key's inference more than once
        // but the memo stays consistent and bounded
        assert!(reg.meter.inferences() >= 32);
        assert!(reg.meter.inferences() + reg.meter.memo_hits() == 4 * 128);
    }
}
