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
//!   ready") — a pair model's block filter holds the verdicts blocking
//!   computed ([`BlockFilter`]), and the registry keeps the last blocking
//!   pass ([`BlockingPass`]) so that detection and correction over one
//!   snapshot block once; any other pair verdict is cached keyed by input
//!   hashes, and an `Mrank` currency score `g(t)` keyed by its tuple's
//!   hash, so the chase never pays for the same inference twice.
//! * **Cost metering** — every inference adds the model's declared cost to
//!   a [`CostMeter`]. The benchmark harness reads it to reproduce the
//!   paper's *relative* runtime shapes (e.g. a T5-class model is ~10⁴×
//!   a similarity kernel) without actually running transformer inference.

use crate::block_index::{BlockFilter, BlockingPass};
use crate::correlation::{CorrelationModel, ValuePredictor};
use crate::her::HerModel;
use crate::linear::sigmoid;
use crate::pair::PairClassifier;
use crate::rank::RankModel;
use rock_crystal::sync::{
    Arc, AtomicU64, LockRank, Ordering, RankedMutex, RankedMutexGuard, RankedRwLock,
};
use rock_data::{pair_key, FxHashMap, Value};

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

/// Memo of one kind of inference, keyed by model and input hashes.
type Memo<K, V> = Vec<RankedMutex<FxHashMap<K, V>>>;

fn memo<K, V>() -> Memo<K, V> {
    (0..MEMO_SHARDS)
        .map(|_| RankedMutex::new(LockRank::RegistryMemo, FxHashMap::default()))
        .collect()
}

/// Thread-safe registry of named models with memoized inference.
pub struct ModelRegistry {
    // Rank order: RegistryModels < RegistryNames (`register` holds the
    // model table while inserting into the name index) < RegistryFilters
    // < RegistryPass < RegistryMemo. All memo shards of both memos share
    // one rank — a thread never holds two shards at once.
    models: RankedRwLock<Vec<(String, Model)>>,
    by_name: RankedRwLock<FxHashMap<String, ModelId>>,
    memo_bool: Memo<(ModelId, u64, u64), bool>,
    /// `Mrank` currency scores `g(t)`, keyed by the tuple's `pair_key`.
    memo_rank: Memo<(ModelId, u64), f64>,
    /// Blocking filters (§5.3 filter-and-verify): a model with a filter
    /// answers every pair from it — a scored pair with the model's verdict,
    /// any other pair `false` — without inference. LSH guarantees matches
    /// are scored with high probability. Installed whole and read-mostly
    /// after precomputation, hence the `RwLock` over shared entries.
    block_filters: RankedRwLock<FxHashMap<ModelId, Arc<BlockFilter>>>,
    /// The last blocking pass, reinstalled by a blocking call over the same
    /// snapshots and signatures (see [`BlockingPass`]).
    blocking_pass: RankedMutex<Option<Arc<BlockingPass>>>,
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

impl ModelRegistry {
    pub fn new() -> Self {
        ModelRegistry {
            models: RankedRwLock::new(LockRank::RegistryModels, Vec::new()),
            by_name: RankedRwLock::new(LockRank::RegistryNames, FxHashMap::default()),
            memo_bool: memo(),
            memo_rank: memo(),
            block_filters: RankedRwLock::new(LockRank::RegistryFilters, FxHashMap::default()),
            blocking_pass: RankedMutex::new(LockRank::RegistryPass, None),
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

    /// Remove a model's blocking filter.
    pub fn clear_block_filter(&self, id: ModelId) {
        self.block_filters.write().remove(&id);
    }

    /// The model's installed block filter, if any.
    pub fn block_filter(&self, id: ModelId) -> Option<Arc<BlockFilter>> {
        self.block_filters.read().get(&id).cloned()
    }

    /// Install the filters of a blocking pass — `predict_pair` answers
    /// every pair of a filtered model from its filter, without inference —
    /// and keep the pass, replacing the one kept before.
    pub fn install_blocking_pass(&self, pass: Arc<BlockingPass>) {
        self.block_filters
            .write()
            .extend(pass.filters.iter().map(|(id, f)| (*id, Arc::clone(f))));
        *self.blocking_pass.lock() = Some(pass);
    }

    /// The last blocking pass [`Self::install_blocking_pass`] kept, whether
    /// or not its filters are still installed.
    pub fn blocking_pass(&self) -> Option<Arc<BlockingPass>> {
        self.blocking_pass.lock().clone()
    }

    /// Forget the kept blocking pass (its installed filters stay).
    pub fn drop_blocking_pass(&self) {
        *self.blocking_pass.lock() = None;
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

    /// Boolean pair inference `M(a, b)`: answered by the model's block
    /// filter when it has one, by [`Self::infer_pair`] otherwise.
    pub fn predict_pair(&self, id: ModelId, a: &[Value], b: &[Value]) -> bool {
        if let Some(f) = self.block_filters.read().get(&id) {
            self.meter.hit();
            return f.verdict(pair_key(a), pair_key(b)).unwrap_or(false);
        }
        self.infer_pair(id, a, b)
    }

    /// `M(a, b)` from the model itself, whatever block filter is installed:
    /// memoized and cost-metered.
    pub fn infer_pair(&self, id: ModelId, a: &[Value], b: &[Value]) -> bool {
        let key = (id, pair_key(a), pair_key(b));
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

    /// Access the pair classifier itself (for blocking).
    pub fn pair(&self, id: ModelId) -> Option<Arc<dyn PairClassifier>> {
        match self.models.read().get(id.0 as usize) {
            Some((_, Model::Pair(m))) => Some(Arc::clone(m)),
            _ => None,
        }
    }

    /// `Mrank` confidence that `t1 ⪯ t2`: σ(g(t2) − g(t1)), the same bits
    /// as [`RankModel::confidence`]. Each currency score `g(t)` is a pure
    /// function of the tuple's values, so it is memoized per tuple and
    /// metered once (cost [`RankModel::cost`]); a lookup that finds it
    /// counts a memo hit.
    pub fn rank_confidence(&self, id: ModelId, t1: &[Value], t2: &[Value]) -> f64 {
        let m = match self.models.read().get(id.0 as usize) {
            Some((_, Model::Rank(m))) => Arc::clone(m),
            _ => panic!("model {id:?} is not a rank model"),
        };
        sigmoid(self.currency(id, &m, t2) - self.currency(id, &m, t1))
    }

    /// The memoized currency score `g(t)` of rank model `m` (`id`).
    fn currency(&self, id: ModelId, m: &RankModel, t: &[Value]) -> f64 {
        let key = (id, pair_key(t));
        let shard = memo_shard(key.1, 0);
        if let Some(&g) = self.lock_shard(&self.memo_rank, shard).get(&key) {
            self.meter.hit();
            return g;
        }
        self.meter.add(m.cost());
        let g = m.currency(t);
        self.lock_shard(&self.memo_rank, shard).insert(key, g);
        g
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

    /// Drop all memoized results and the kept blocking pass (tests /
    /// repeated experiments).
    pub fn clear_memo(&self) {
        for s in &self.memo_bool {
            s.lock().clear();
        }
        for s in &self.memo_rank {
            s.lock().clear();
        }
        self.drop_blocking_pass();
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
    fn meter_reset() {
        let m = CostMeter::default();
        m.add(1.5);
        m.hit();
        assert_eq!(m.inferences(), 1);
        m.reset();
        assert_eq!(m.cost(), 0.0);
        assert_eq!(m.memo_hits(), 0);
    }

    /// Install `filter` as the only filter of a blocking pass.
    fn install(reg: &ModelRegistry, id: ModelId, filter: BlockFilter) {
        let pass = BlockingPass {
            filters: vec![(id, Arc::new(filter))],
            ..BlockingPass::default()
        };
        reg.install_blocking_pass(Arc::new(pass));
    }

    #[test]
    fn block_filter_answers_every_pair() {
        let reg = ModelRegistry::new();
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        let (a, b, c) = ([Value::Int(1)], [Value::Int(1)], [Value::Int(2)]);
        // the filter scored (a, b) and, opposite to the model, (c, c)
        let mut filter = BlockFilter::default();
        filter.insert(pair_key(&a), pair_key(&b), true);
        filter.insert(pair_key(&c), pair_key(&c), false);
        install(&reg, id, filter);
        assert!(reg.block_filter(id).is_some());
        assert!(reg.predict_pair(id, &a, &b), "scored: the verdict");
        assert!(!reg.predict_pair(id, &c, &c), "scored: the verdict");
        assert!(!reg.predict_pair(id, &a, &c), "not scored: false");
        assert_eq!(reg.meter.inferences(), 0);
        assert_eq!(reg.meter.memo_hits(), 3);
        // removing the filter lets the pairs run for real
        reg.clear_block_filter(id);
        assert!(reg.block_filter(id).is_none());
        assert!(reg.predict_pair(id, &c, &c));
        assert_eq!(reg.meter.inferences(), 1);
    }

    #[test]
    #[should_panic(expected = "not a rank model")]
    fn wrong_kind_panics() {
        let reg = ModelRegistry::new();
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        reg.rank_confidence(id, &[], &[]);
    }

    fn rank_model() -> RankModel {
        let pairs: Vec<(Vec<Value>, Vec<Value>)> = (0..12)
            .map(|i| {
                (
                    vec![Value::str("single"), Value::Int(1000 + i * 10)],
                    vec![Value::str("married"), Value::Int(5000 + i * 10)],
                )
            })
            .collect();
        RankModel::train_creator_critic(2, &pairs, &[], 1, 7)
    }

    fn rank_tuples() -> Vec<Vec<Value>> {
        vec![
            vec![Value::str("single"), Value::Int(1200)],
            vec![Value::str("married"), Value::Int(5100)],
            vec![Value::Null, Value::Int(3000)],
            vec![Value::str("married"), Value::Null],
            vec![Value::Null, Value::Null],
        ]
    }

    #[test]
    fn memoized_rank_confidence_is_the_models_to_the_bit() {
        let reg = ModelRegistry::new();
        let oracle = rank_model();
        let id = reg.register_rank("Mrank", Arc::new(oracle.clone()));
        let ts = rank_tuples();
        // twice: the first sweep computes scores, the second reads the memo
        for _ in 0..2 {
            for a in &ts {
                for b in &ts {
                    let got = reg.rank_confidence(id, a, b);
                    let want = oracle.confidence(a, b);
                    assert_eq!(got.to_bits(), want.to_bits(), "{a:?} / {b:?}");
                }
            }
        }
        // identical tuples tie at σ(0)
        assert_eq!(reg.rank_confidence(id, &ts[2], &ts[2]), 0.5);
    }

    #[test]
    fn rank_meter_counts_one_inference_per_distinct_tuple() {
        let reg = ModelRegistry::new();
        let id = reg.register_rank("Mrank", Arc::new(rank_model()));
        let ts = rank_tuples();
        for a in &ts {
            for b in &ts {
                reg.rank_confidence(id, a, b);
            }
        }
        let n = ts.len() as u64;
        assert_eq!(reg.meter.inferences(), n);
        assert_eq!(reg.meter.cost(), n as f64);
        assert_eq!(reg.meter.memo_hits(), 2 * n * n - n);
    }

    #[test]
    fn clear_memo_recomputes_rank_scores() {
        let reg = ModelRegistry::new();
        let id = reg.register_rank("Mrank", Arc::new(rank_model()));
        let ts = rank_tuples();
        let before = reg.rank_confidence(id, &ts[0], &ts[1]);
        assert_eq!(reg.meter.inferences(), 2);
        reg.clear_memo();
        assert_eq!(reg.rank_confidence(id, &ts[0], &ts[1]), before);
        assert_eq!(reg.meter.inferences(), 4);
        assert_eq!(reg.meter.memo_hits(), 0);
    }

    #[test]
    fn clear_memo_drops_the_kept_blocking_pass() {
        let reg = ModelRegistry::new();
        let id = reg.register_pair("M", Arc::new(ExactMatchModel));
        install(&reg, id, BlockFilter::default());
        assert!(reg.block_filter(id).is_some());
        assert!(reg.blocking_pass().is_some());
        reg.clear_memo();
        assert!(reg.blocking_pass().is_none());
        // dropping the pass leaves its installed filters to their caller
        assert!(reg.block_filter(id).is_some());
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
