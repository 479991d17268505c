//! ETCD-like metadata store (paper §5.1: "The mapping between hash codes
//! and nodes are registered in ETCD, a distributed key-value store").
//!
//! In-process stand-in: a versioned, thread-safe KV store with prefix
//! scans, compare-and-swap, **leases** and **prefix watches** — the ETCD
//! features the registration and status-synchronization paths actually
//! use. Leases run on a logical clock ([`KvStore::tick`]) rather than wall
//! time so membership tests are deterministic: a node that stops calling
//! [`KvStore::keep_alive`] loses its keys after `ttl` ticks, and watchers
//! of `nodes/` observe the deletion (the signal
//! [`crate::scheduler::Cluster::sync_membership`] uses to rebuild the
//! ring without the dead node).

use crate::sync::{Arc, AtomicU64, LockRank, Ordering, RankedRwLock};
use std::collections::BTreeMap;

/// One stored entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub value: Arc<[u8]>,
    /// Monotone per-key modification version.
    pub version: u64,
    /// Lease this key is attached to (0 = none).
    pub lease: u64,
}

/// A change observed by a [`PrefixWatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchEvent {
    Put { key: String, version: u64 },
    Delete { key: String },
}

impl WatchEvent {
    pub fn key(&self) -> &str {
        match self {
            WatchEvent::Put { key, .. } | WatchEvent::Delete { key } => key,
        }
    }
}

/// A poll-based watch over a key prefix: created by
/// [`KvStore::watch_prefix`], it returns the events under its prefix that
/// happened after its creation (or last poll).
#[derive(Debug, Clone)]
pub struct PrefixWatch {
    prefix: String,
    cursor: usize,
}

impl PrefixWatch {
    /// Drain new events under the prefix since the last poll.
    pub fn poll(&mut self, kv: &KvStore) -> Vec<WatchEvent> {
        let (events, cursor) = kv.events_since(self.cursor, &self.prefix);
        self.cursor = cursor;
        events
    }
}

#[derive(Debug, Clone)]
struct LeaseState {
    ttl: u64,
    expires_at: u64,
    keys: Vec<String>,
}

/// Versioned key-value store with prefix scan, leases and watches.
#[derive(Debug)]
pub struct KvStore {
    // Rank order within the store: KvLeases < KvMap < KvEvents. Guards
    // are dropped before cross-field calls (`put_with_lease` releases the
    // lease table before `put_inner` takes the map), so the ranks pin the
    // one legal nesting direction for future edits.
    inner: RankedRwLock<BTreeMap<String, Entry>>,
    leases: RankedRwLock<BTreeMap<u64, LeaseState>>,
    events: RankedRwLock<Vec<WatchEvent>>,
    clock: AtomicU64,
    next_lease: AtomicU64,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore {
            inner: RankedRwLock::new(LockRank::KvMap, BTreeMap::new()),
            leases: RankedRwLock::new(LockRank::KvLeases, BTreeMap::new()),
            events: RankedRwLock::new(LockRank::KvEvents, Vec::new()),
            clock: AtomicU64::new(0),
            next_lease: AtomicU64::new(0),
        }
    }
}

impl KvStore {
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, event: WatchEvent) {
        self.events.write().push(event);
    }

    fn put_inner(&self, key: &str, value: Arc<[u8]>, lease: u64) -> u64 {
        let mut map = self.inner.write();
        let version = map.get(key).map(|e| e.version + 1).unwrap_or(1);
        map.insert(
            key.to_owned(),
            Entry {
                value,
                version,
                lease,
            },
        );
        drop(map);
        self.record(WatchEvent::Put {
            key: key.to_owned(),
            version,
        });
        version
    }

    /// Put unconditionally; returns the new version.
    pub fn put(&self, key: &str, value: impl AsRef<[u8]>) -> u64 {
        self.put_inner(key, Arc::from(value.as_ref()), 0)
    }

    /// Put a key attached to a lease: the key is deleted when the lease
    /// expires or is revoked. Returns `None` if the lease does not exist
    /// (or has already expired).
    pub fn put_with_lease(&self, key: &str, value: impl AsRef<[u8]>, lease: u64) -> Option<u64> {
        let mut leases = self.leases.write();
        let state = leases.get_mut(&lease)?;
        if !state.keys.iter().any(|k| k == key) {
            state.keys.push(key.to_owned());
        }
        drop(leases);
        Some(self.put_inner(key, Arc::from(value.as_ref()), lease))
    }

    /// Get a value.
    pub fn get(&self, key: &str) -> Option<Entry> {
        self.inner.read().get(key).cloned()
    }

    /// Compare-and-swap on the version; returns Ok(new version) or
    /// Err(current version). `expected = 0` means "key must not exist".
    pub fn cas(&self, key: &str, expected: u64, value: impl AsRef<[u8]>) -> Result<u64, u64> {
        let mut map = self.inner.write();
        let current = map.get(key).map(|e| e.version).unwrap_or(0);
        if current != expected {
            return Err(current);
        }
        let version = current + 1;
        map.insert(
            key.to_owned(),
            Entry {
                value: Arc::from(value.as_ref()),
                version,
                lease: 0,
            },
        );
        drop(map);
        self.record(WatchEvent::Put {
            key: key.to_owned(),
            version,
        });
        Ok(version)
    }

    /// Delete; returns whether the key existed.
    pub fn delete(&self, key: &str) -> bool {
        let existed = self.inner.write().remove(key).is_some();
        if existed {
            self.record(WatchEvent::Delete {
                key: key.to_owned(),
            });
        }
        existed
    }

    /// All `(key, entry)` pairs under a prefix, key-ordered.
    pub fn scan_prefix(&self, prefix: &str) -> Vec<(String, Entry)> {
        self.inner
            .read()
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, e)| (k.clone(), e.clone()))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    // ---- logical clock & leases (ETCD lease API over logical ticks) ----

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Advance the logical clock by one tick and return the new time.
    /// Lease expiry is evaluated lazily ([`KvStore::expire_due`]), so a
    /// tick alone never mutates keys.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Grant a lease of `ttl` logical ticks; returns its id (≥ 1).
    pub fn lease_grant(&self, ttl: u64) -> u64 {
        let id = self.next_lease.fetch_add(1, Ordering::AcqRel) + 1;
        let ttl = ttl.max(1);
        self.leases.write().insert(
            id,
            LeaseState {
                ttl,
                expires_at: self.now() + ttl,
                keys: Vec::new(),
            },
        );
        id
    }

    /// Refresh a lease to expire `ttl` ticks from now; false if the lease
    /// does not exist (e.g. already expired — a dead node cannot heartbeat
    /// itself back to life).
    pub fn keep_alive(&self, lease: u64) -> bool {
        let now = self.now();
        let mut leases = self.leases.write();
        match leases.get_mut(&lease) {
            Some(state) => {
                state.expires_at = now + state.ttl;
                true
            }
            None => false,
        }
    }

    /// Revoke a lease, deleting its attached keys; false if unknown.
    pub fn lease_revoke(&self, lease: u64) -> bool {
        let Some(state) = self.leases.write().remove(&lease) else {
            return false;
        };
        for key in state.keys {
            self.delete(&key);
        }
        true
    }

    /// Expire all leases whose deadline has passed (deleting their keys);
    /// returns the expired lease ids.
    pub fn expire_due(&self) -> Vec<u64> {
        let now = self.now();
        let due: Vec<u64> = self
            .leases
            .read()
            .iter()
            .filter(|(_, s)| s.expires_at <= now)
            .map(|(id, _)| *id)
            .collect();
        for id in &due {
            self.lease_revoke(*id);
        }
        due
    }

    /// Remaining ticks on a lease (None if unknown).
    pub fn lease_ttl(&self, lease: u64) -> Option<u64> {
        let now = self.now();
        self.leases
            .read()
            .get(&lease)
            .map(|s| s.expires_at.saturating_sub(now))
    }

    // ---- watches ----

    /// Start watching a prefix; events from this moment on are returned by
    /// [`PrefixWatch::poll`].
    pub fn watch_prefix(&self, prefix: &str) -> PrefixWatch {
        PrefixWatch {
            prefix: prefix.to_owned(),
            cursor: self.events.read().len(),
        }
    }

    fn events_since(&self, cursor: usize, prefix: &str) -> (Vec<WatchEvent>, usize) {
        let log = self.events.read();
        let events = log[cursor.min(log.len())..]
            .iter()
            .filter(|e| e.key().starts_with(prefix))
            .cloned()
            .collect();
        (events, log.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_versions() {
        let kv = KvStore::new();
        assert_eq!(kv.put("a", "1"), 1);
        assert_eq!(kv.put("a", "2"), 2);
        let e = kv.get("a").unwrap();
        assert_eq!(&*e.value, b"2");
        assert_eq!(e.version, 2);
        assert!(kv.get("b").is_none());
    }

    #[test]
    fn cas_semantics() {
        let kv = KvStore::new();
        assert_eq!(kv.cas("k", 0, "init"), Ok(1));
        assert_eq!(kv.cas("k", 0, "again"), Err(1));
        assert_eq!(kv.cas("k", 1, "next"), Ok(2));
        assert_eq!(&*kv.get("k").unwrap().value, b"next");
    }

    #[test]
    fn prefix_scan_ordered() {
        let kv = KvStore::new();
        kv.put("nodes/2", "b");
        kv.put("nodes/1", "a");
        kv.put("units/1", "x");
        let nodes = kv.scan_prefix("nodes/");
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].0, "nodes/1");
        assert_eq!(nodes[1].0, "nodes/2");
        assert_eq!(kv.scan_prefix("zzz").len(), 0);
    }

    #[test]
    fn delete() {
        let kv = KvStore::new();
        kv.put("a", "1");
        assert!(kv.delete("a"));
        assert!(!kv.delete("a"));
        assert!(kv.is_empty());
    }

    #[test]
    fn concurrent_cas_single_winner() {
        use std::sync::Arc;
        let kv = Arc::new(KvStore::new());
        kv.put("leader", "none");
        let mut handles = Vec::new();
        for i in 0..8 {
            let kv = Arc::clone(&kv);
            handles.push(std::thread::spawn(move || {
                kv.cas("leader", 1, format!("node-{i}")).is_ok()
            }));
        }
        let winners = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|ok| *ok)
            .count();
        assert_eq!(winners, 1);
    }

    #[test]
    fn lease_grant_expire_deletes_keys() {
        let kv = KvStore::new();
        let lease = kv.lease_grant(3);
        assert!(kv.put_with_lease("nodes/0", "addr", lease).is_some());
        assert_eq!(kv.get("nodes/0").unwrap().lease, lease);
        kv.tick();
        kv.tick();
        assert!(kv.expire_due().is_empty(), "not due yet");
        kv.tick();
        assert_eq!(kv.expire_due(), vec![lease]);
        assert!(kv.get("nodes/0").is_none());
        assert!(!kv.keep_alive(lease), "expired lease is gone");
    }

    #[test]
    fn keep_alive_extends_lease() {
        let kv = KvStore::new();
        let lease = kv.lease_grant(2);
        kv.put_with_lease("n", "v", lease).unwrap();
        for _ in 0..10 {
            kv.tick();
            assert!(kv.keep_alive(lease));
            assert!(kv.expire_due().is_empty());
        }
        assert!(kv.get("n").is_some());
        assert_eq!(kv.lease_ttl(lease), Some(2));
    }

    #[test]
    fn revoke_deletes_attached_keys() {
        let kv = KvStore::new();
        let lease = kv.lease_grant(100);
        kv.put_with_lease("a", "1", lease).unwrap();
        kv.put_with_lease("b", "2", lease).unwrap();
        kv.put("c", "3");
        assert!(kv.lease_revoke(lease));
        assert!(!kv.lease_revoke(lease));
        assert!(kv.get("a").is_none() && kv.get("b").is_none());
        assert!(kv.get("c").is_some(), "unleased keys survive");
    }

    #[test]
    fn put_with_unknown_lease_rejected() {
        let kv = KvStore::new();
        assert!(kv.put_with_lease("k", "v", 999).is_none());
        assert!(kv.get("k").is_none());
    }

    #[test]
    fn watch_sees_puts_and_deletes_under_prefix() {
        let kv = KvStore::new();
        kv.put("nodes/0", "before"); // before the watch starts
        let mut watch = kv.watch_prefix("nodes/");
        assert!(watch.poll(&kv).is_empty());
        kv.put("nodes/1", "a");
        kv.put("other/9", "x");
        kv.delete("nodes/0");
        let events = watch.poll(&kv);
        assert_eq!(
            events,
            vec![
                WatchEvent::Put {
                    key: "nodes/1".into(),
                    version: 1
                },
                WatchEvent::Delete {
                    key: "nodes/0".into()
                },
            ]
        );
        assert!(watch.poll(&kv).is_empty(), "poll drains");
    }

    #[test]
    fn watch_observes_lease_expiry() {
        let kv = KvStore::new();
        let lease = kv.lease_grant(1);
        kv.put_with_lease("nodes/3", "addr", lease).unwrap();
        let mut watch = kv.watch_prefix("nodes/");
        kv.tick();
        kv.expire_due();
        let events = watch.poll(&kv);
        assert_eq!(
            events,
            vec![WatchEvent::Delete {
                key: "nodes/3".into()
            }]
        );
    }
}
