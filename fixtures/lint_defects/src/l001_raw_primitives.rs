//! L001: raw synchronization primitives that must go through the shim.
//! `Arc` and `mpsc` imports stay unflagged — the shim does not wrap them.

use std::sync::atomic::AtomicU64; //~ L001
use std::sync::Arc;
use std::sync::Mutex; //~ L001
use std::sync::RwLock; //~ L001
use std::sync::{mpsc, Condvar}; //~ L001

struct Holder {
    counter: Arc<AtomicU64>,
    state: Mutex<u64>,
    table: RwLock<Vec<u64>>,
    wakeup: Condvar,
    tx: mpsc::Sender<u64>,
}

fn inline_paths() {
    let _m = std::sync::Mutex::new(0u8); //~ L001
}
