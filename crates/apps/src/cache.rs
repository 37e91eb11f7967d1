//! Configuration-independent trial data, built once per evaluation
//! session.
//!
//! A benchmark's inputs and the reference answer its check compares
//! against are pure functions of its [`crate::Benchmark::spec`]; only the
//! plan depends on the configuration. [`cached`] lets `instantiate` build
//! that data once and share it (behind an [`Arc`]) with every later trial
//! of the same session. The session is whoever owns the [`InputCache`] —
//! the evaluation farm for one tuning run, a `petal-shard` worker for one
//! `INIT` — and it makes the cache active on a thread with
//! [`InputCache::enter`]. Outside any session [`cached`] simply builds, so
//! one-off runs behave exactly as if no cache existed.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

type Value = Arc<dyn Any + Send + Sync>;
/// One entry: filled once, by whichever thread asks first; concurrent
/// askers for the same key wait for that build instead of repeating it.
type Slot = Arc<OnceLock<Value>>;

thread_local! {
    static ACTIVE: RefCell<Option<InputCache>> = const { RefCell::new(None) };
}

/// A session's store of configuration-independent trial data, keyed by
/// benchmark spec (and value type). Cloning gives another handle to the
/// same store, so the threads of one farm share it.
#[derive(Clone, Default)]
pub struct InputCache {
    slots: Arc<Mutex<HashMap<(String, TypeId), Slot>>>,
}

impl std::fmt::Debug for InputCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InputCache").field("entries", &self.len()).finish()
    }
}

impl InputCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` with this cache active on the calling thread: every
    /// [`cached`] call inside `f` reads from and fills this cache. The
    /// previously active cache (if any) is restored afterwards, also when
    /// `f` panics.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<InputCache>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let previous = self.0.take();
                ACTIVE.with(|active| *active.borrow_mut() = previous);
            }
        }
        let _restore = Restore(ACTIVE.with(|active| active.replace(Some(self.clone()))));
        f()
    }

    /// Drop every entry, ending the session's sharing. Values still held
    /// elsewhere (a running trial's world) live on until released there.
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(String, TypeId), Slot>> {
        // Builds run outside the lock, so a poisoned map is still whole.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The value `build` makes for `key`, shared through the active
/// [`InputCache`] — built on the first call of the session and handed out
/// again afterwards. With no active cache, `build` runs every time.
///
/// `key` must determine the value: use the benchmark's
/// [`crate::Benchmark::spec`], which identifies its inputs exactly.
///
/// # Panics
/// When `build` calls `cached` again with the same key and type.
pub fn cached<T: Send + Sync + 'static>(key: &str, build: impl FnOnce() -> T) -> Arc<T> {
    let Some(cache) = ACTIVE.with(|active| active.borrow().clone()) else {
        return Arc::new(build());
    };
    let slot = Arc::clone(cache.lock().entry((key.to_owned(), TypeId::of::<T>())).or_default());
    let value = slot.get_or_init(|| Arc::new(build()));
    Arc::clone(value).downcast::<T>().unwrap_or_else(|_| unreachable!("slots are keyed by type"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn without_a_session_every_call_builds() {
        let builds = AtomicUsize::new(0);
        let make = || {
            builds.fetch_add(1, Ordering::Relaxed);
            vec![1.0_f64]
        };
        let (a, b) = (cached("k", make), cached("k", make));
        assert_eq!((a, b), (Arc::new(vec![1.0]), Arc::new(vec![1.0])));
        assert_eq!(builds.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_session_builds_each_key_once_and_shares_it_across_threads() {
        let cache = InputCache::new();
        let builds = AtomicUsize::new(0);
        let make = |v: u32| {
            builds.fetch_add(1, Ordering::Relaxed);
            v
        };
        let first = cache.enter(|| cached("k", || make(1)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let again = cache.enter(|| cached("k", || make(2)));
                    assert!(Arc::ptr_eq(&first, &again));
                });
            }
        });
        assert_eq!(cache.enter(|| cached("other", || make(3))), Arc::new(3));
        assert_eq!(*cache.enter(|| cached("k", || String::from("typed"))), "typed");
        assert_eq!(builds.load(Ordering::Relaxed), 2, "String builds don't count");
        assert_eq!(cache.len(), 3);
        // Leaving the session deactivates it.
        assert_eq!(cached("k", || make(4)), Arc::new(4));
    }

    #[test]
    fn clear_releases_entries_and_enter_restores_on_panic() {
        let cache = InputCache::new();
        let weak = Arc::downgrade(&cache.enter(|| cached("k", || 7_u8)));
        assert!(weak.upgrade().is_some());
        cache.clear();
        assert!(weak.upgrade().is_none() && cache.len() == 0);

        let outer = InputCache::new();
        outer.enter(|| {
            let inner = InputCache::new();
            let _ = std::panic::catch_unwind(|| inner.enter(|| panic!("trial panicked")));
            let _ = cached("k", || 1_u8);
        });
        assert_eq!(outer.len(), 1, "the outer session was restored after the panic");
    }
}
