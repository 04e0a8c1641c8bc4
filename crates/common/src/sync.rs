//! Non-poisoning acquisition of `std::sync` locks.
//!
//! A `std` lock whose holder panics is poisoned, and every later
//! acquisition returns an error. No engine lock guards state that a
//! panic leaves half-updated for a later holder — the worker pool, for
//! one, re-raises a job's panic only after every worker has drained — so
//! these helpers recover the guard instead, and one panic never wedges
//! every later transaction.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock `m`, recovering the guard if a panicking holder poisoned it.
#[inline]
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-lock `l`, recovering the guard if a panicking writer poisoned it.
#[inline]
pub(crate) fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock `l`, recovering the guard if a panicking writer poisoned it.
#[inline]
pub(crate) fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Park on `cv` until `condition` is false (re-checked after every
/// wakeup), recovering the re-acquired guard as [`lock`] does.
#[inline]
pub(crate) fn wait_while<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    condition: impl FnMut(&mut T) -> bool,
) -> MutexGuard<'a, T> {
    cv.wait_while(guard, condition)
        .unwrap_or_else(PoisonError::into_inner)
}
