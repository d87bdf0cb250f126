//! Small synchronization helpers shared across the storage crate.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `mutex`, recovering from poisoning.
///
/// Poisoning here only means another reader panicked mid-access; the
/// guarded structures (LRU caches, file handles) are always structurally
/// valid between operations, so recovering is safe. Centralized so a
/// future policy change (logging, propagation) lands in one place.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Read-locks `lock`, recovering from poisoning (see [`lock_unpoisoned`]).
pub(crate) fn read_unpoisoned<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks `lock`, recovering from poisoning (see [`lock_unpoisoned`]).
pub(crate) fn write_unpoisoned<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}
