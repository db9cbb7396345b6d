//! Drop-in sync primitives for the workspace.
//!
//! Default builds re-export `parking_lot` locks and `std::sync::mpsc`
//! unchanged — zero cost, identical types. Compiled with
//! `RUSTFLAGS="--cfg sanity_check"` the same names resolve to
//! instrumented wrappers that report every acquisition to
//! [`crate::order`]:
//!
//! * each lock gets a lazily assigned id; acquiring while other locks
//!   are held records order-graph edges and reports any cycle with both
//!   acquisition sites (`#[track_caller]`);
//! * blocking `mpsc` sends and receives while a lock is held are
//!   reported as hazards (`try_send` / `try_recv` / `recv_timeout` are
//!   bounded and exempt);
//! * a `Condvar::wait` is a blocking receive: any *other* lock held
//!   across it is reported like a lock held across `recv`;
//! * reviewed-benign patterns can be annotated with
//!   [`crate::order::allow`], which suppresses recording on the current
//!   thread for the guard's lifetime.
//!
//! The root `clippy.toml` disallows the raw `std::sync` locks and
//! channel constructors everywhere else, so workspace code reaches them
//! only through this module.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "this module is the one place the raw std primitives are wrapped"
)]

#[cfg(not(sanity_check))]
pub use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
#[cfg(not(sanity_check))]
pub use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// Default-build `std::sync::mpsc`: the std types, and constructors that
/// forward to std's unchanged.
#[cfg(not(sanity_check))]
pub mod mpsc {
    pub use std::sync::mpsc::{
        Receiver, RecvError, RecvTimeoutError, SendError, Sender, SyncSender, TryRecvError,
        TrySendError,
    };

    #[inline]
    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }

    #[inline]
    pub fn sync_channel<T>(bound: usize) -> (SyncSender<T>, Receiver<T>) {
        std::sync::mpsc::sync_channel(bound)
    }
}

#[cfg(sanity_check)]
pub use instrumented::{
    mpsc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

#[cfg(sanity_check)]
mod instrumented {
    use crate::order;
    use std::fmt;
    use std::ops::{Deref, DerefMut};
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Lazily assign a stable id to a lock. Ids come from a global
    /// counter; `new` must stay `const`, so assignment happens on first
    /// acquisition (CAS race: the loser adopts the winner's id).
    fn lock_id(cell: &AtomicU64) -> u64 {
        match cell.load(Ordering::Relaxed) {
            0 => {
                let fresh = order::fresh_lock_id();
                match cell.compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => fresh,
                    Err(existing) => existing,
                }
            }
            id => id,
        }
    }

    /// Instrumented mutex; same API and (non-poisoning) semantics as the
    /// `parking_lot` shim it wraps.
    pub struct Mutex<T: ?Sized> {
        id: AtomicU64,
        inner: parking_lot::Mutex<T>,
    }

    impl<T> Mutex<T> {
        pub const fn new(value: T) -> Mutex<T> {
            Mutex {
                id: AtomicU64::new(0),
                inner: parking_lot::Mutex::new(value),
            }
        }

        pub fn into_inner(self) -> T {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> Mutex<T> {
        #[track_caller]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let site = Location::caller();
            let id = lock_id(&self.id);
            let inner = self.inner.lock();
            order::on_acquire(id, site);
            MutexGuard { id, inner }
        }

        #[track_caller]
        pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
            let site = Location::caller();
            let id = lock_id(&self.id);
            let inner = self.inner.try_lock()?;
            order::on_acquire(id, site);
            Some(MutexGuard { id, inner })
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.inner.fmt(f)
        }
    }

    pub struct MutexGuard<'a, T: ?Sized> {
        id: u64,
        inner: parking_lot::MutexGuard<'a, T>,
    }

    impl<T: ?Sized> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            order::on_release(self.id);
        }
    }

    /// Instrumented condition variable over [`MutexGuard`].
    pub struct Condvar {
        inner: parking_lot::Condvar,
    }

    impl Condvar {
        pub const fn new() -> Condvar {
            Condvar {
                inner: parking_lot::Condvar::new(),
            }
        }

        /// The wait releases the lock (popped from the held stack) and
        /// re-acquires it before returning — the re-acquisition is
        /// recorded like any other, attributed to the `wait` call site.
        /// In between it blocks like a channel receive, so a second lock
        /// still held here is reported as [`order::Violation::LockAcrossRecv`].
        #[track_caller]
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let site = Location::caller();
            order::on_release(guard.id);
            order::on_recv(site);
            self.inner.wait(&mut guard.inner);
            order::on_acquire(guard.id, site);
        }

        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        pub fn notify_all(&self) {
            self.inner.notify_all();
        }
    }

    impl Default for Condvar {
        fn default() -> Self {
            Condvar::new()
        }
    }

    impl fmt::Debug for Condvar {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Condvar")
        }
    }

    /// Instrumented reader-writer lock. Shared and exclusive
    /// acquisitions feed the same order graph (conservative: a
    /// read-after-read reversal is reported even though it can only
    /// deadlock through writer fairness).
    pub struct RwLock<T: ?Sized> {
        id: AtomicU64,
        inner: parking_lot::RwLock<T>,
    }

    impl<T> RwLock<T> {
        pub const fn new(value: T) -> RwLock<T> {
            RwLock {
                id: AtomicU64::new(0),
                inner: parking_lot::RwLock::new(value),
            }
        }
    }

    impl<T: ?Sized> RwLock<T> {
        #[track_caller]
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            let site = Location::caller();
            let id = lock_id(&self.id);
            let inner = self.inner.read();
            order::on_acquire(id, site);
            RwLockReadGuard { id, inner }
        }

        #[track_caller]
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            let site = Location::caller();
            let id = lock_id(&self.id);
            let inner = self.inner.write();
            order::on_acquire(id, site);
            RwLockWriteGuard { id, inner }
        }
    }

    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    impl<T: ?Sized> fmt::Debug for RwLock<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("RwLock(..)")
        }
    }

    pub struct RwLockReadGuard<'a, T: ?Sized> {
        id: u64,
        inner: std::sync::RwLockReadGuard<'a, T>,
    }

    impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
        fn drop(&mut self) {
            order::on_release(self.id);
        }
    }

    pub struct RwLockWriteGuard<'a, T: ?Sized> {
        id: u64,
        inner: std::sync::RwLockWriteGuard<'a, T>,
    }

    impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.inner
        }
    }

    impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.inner
        }
    }

    impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
        fn drop(&mut self) {
            order::on_release(self.id);
        }
    }

    /// Instrumented `std::sync::mpsc` facade: blocking `send` / `recv`
    /// while a lock is held are reported; nonblocking and timed variants
    /// pass through.
    pub mod mpsc {
        use crate::order;
        use std::panic::Location;
        use std::time::Duration;

        pub use std::sync::mpsc::{
            RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError,
        };

        pub struct Sender<T>(std::sync::mpsc::Sender<T>);

        impl<T> std::fmt::Debug for Sender<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("Sender { .. }")
            }
        }

        impl<T> Clone for Sender<T> {
            fn clone(&self) -> Self {
                Sender(self.0.clone())
            }
        }

        impl<T> Sender<T> {
            #[track_caller]
            pub fn send(&self, value: T) -> Result<(), SendError<T>> {
                order::on_send(Location::caller());
                self.0.send(value)
            }
        }

        pub struct SyncSender<T>(std::sync::mpsc::SyncSender<T>);

        impl<T> std::fmt::Debug for SyncSender<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("SyncSender { .. }")
            }
        }

        impl<T> Clone for SyncSender<T> {
            fn clone(&self) -> Self {
                SyncSender(self.0.clone())
            }
        }

        impl<T> SyncSender<T> {
            #[track_caller]
            pub fn send(&self, value: T) -> Result<(), SendError<T>> {
                order::on_send(Location::caller());
                self.0.send(value)
            }

            pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
                self.0.try_send(value)
            }
        }

        pub struct Receiver<T>(std::sync::mpsc::Receiver<T>);

        impl<T> std::fmt::Debug for Receiver<T> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("Receiver { .. }")
            }
        }

        impl<T> Receiver<T> {
            #[track_caller]
            pub fn recv(&self) -> Result<T, RecvError> {
                order::on_recv(Location::caller());
                self.0.recv()
            }

            pub fn try_recv(&self) -> Result<T, TryRecvError> {
                self.0.try_recv()
            }

            pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
                self.0.recv_timeout(timeout)
            }
        }

        pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
            let (tx, rx) = std::sync::mpsc::channel();
            (Sender(tx), Receiver(rx))
        }

        pub fn sync_channel<T>(bound: usize) -> (SyncSender<T>, Receiver<T>) {
            let (tx, rx) = std::sync::mpsc::sync_channel(bound);
            (SyncSender(tx), Receiver(rx))
        }
    }
}
