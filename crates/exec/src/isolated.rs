//! [`Isolated`]: one store whose calls run under `catch_unwind`.
//!
//! A call that panics leaves the store's state suspect, so it poisons
//! the store: every later call is refused, without running, until
//! [`Isolated::replace`] swaps in a sound backend. The caller owns the
//! store outright and runs every call on its own thread; there is no
//! lock and no queue here. The three owners of shard backends use it:
//! a [`crate::ShardExecutor`] slot (behind the slot's mutex), a replica
//! group's members and a server's shard (`serve_multi` or `serve`).

use std::panic::{catch_unwind, AssertUnwindSafe};

/// A store and whether a panic poisoned it.
#[derive(Debug)]
pub struct Isolated<S> {
    store: S,
    poisoned: bool,
}

impl<S> Isolated<S> {
    /// A sound store, not poisoned.
    pub fn new(store: S) -> Isolated<S> {
        Isolated {
            store,
            poisoned: false,
        }
    }

    /// Run `f` on the store unless it is poisoned. `None` means `f`
    /// produced no value: the store was poisoned already, or `f`
    /// panicked and poisoned it.
    pub fn run<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> Option<T> {
        if self.poisoned {
            return None;
        }
        let out = catch_unwind(AssertUnwindSafe(|| f(&mut self.store))).ok();
        self.poisoned = out.is_none();
        out
    }

    /// True once a call panicked, until [`Isolated::replace`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The store itself, with no poison check and no panic isolation —
    /// for instrumentation and fault plans, which must reach a store
    /// whatever its state.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Swap in `store` and clear the poison flag. Returns the previous
    /// store.
    pub fn replace(&mut self, store: S) -> S {
        self.poisoned = false;
        std::mem::replace(&mut self.store, store)
    }
}
