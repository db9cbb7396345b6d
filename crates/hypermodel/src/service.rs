//! The one call boundary: a [`Request`] in, a [`Response`] out.
//!
//! A layer that forwards every operation alike (the wire client, a fault
//! injector, a replica group, a sharded router) implements one
//! [`Service::call`] and routes by [`Request::class`] and
//! [`Request::about_mut`]. Generated from the catalogue here:
//!
//! * [`dispatch`]: a request run as its row's typed [`HyperStore`]
//!   method — how a leaf store answers [`HyperStore::call`];
//! * the typed facade `impl<T: Service> HyperStore for T`: each method
//!   builds its row's request, hands it to [`Service::call`] and reads the
//!   answer with [`Reply::from_response`]. Its `call` is `Service::call`,
//!   so a request passes down a stack of services as it is and is
//!   dispatched once, at the leaf.
//!
//! A `Service::call` never hands a request to `dispatch(self, ..)`: that
//! runs the facade's method, which calls `Service::call` again.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::bitmap::Bitmap;
use crate::error::{HmError, Result};
use crate::migrate::NodeExport;
use crate::model::{NodeKind, NodeValue, Oid, RefEdge};
use crate::protocol::{Reply, Request, Response};
use crate::store::{BatchWrite, HyperStore, Reached, Rel, ShardLoad};

/// A store as one call, and through the typed facade a [`HyperStore`].
pub trait Service {
    /// Run one catalogue operation; a failure is the structured
    /// [`HmError`]. A session message ([`Request::Shutdown`],
    /// [`Request::Stats`]) is refused unless the service talks to a
    /// server.
    fn call(&mut self, req: Request) -> Result<Response>;

    /// [`HyperStore::backend_name`].
    fn backend_name(&self) -> &'static str;

    /// [`HyperStore::shard_balance`].
    fn shard_balance(&self) -> Option<Vec<ShardLoad>> {
        None
    }

    /// [`HyperStore::resilience_summary`].
    fn resilience_summary(&self) -> Option<String> {
        None
    }
}

/// The error for a session message handed to a store: only a server can
/// answer one.
pub fn not_an_operation(req: &Request) -> HmError {
    HmError::InvalidArgument(format!(
        "{req:?} is a session message, not a store operation"
    ))
}

/// Hands a value a request carries back to the method it was declared
/// for: by reference where the argument is borrowed, by value otherwise.
macro_rules! lend {
    ($arg:ident: & $($ty:tt)+) => {
        &$arg
    };
    ($arg:ident: $($ty:tt)+) => {
        $arg
    };
}

/// [`dispatch`], one arm per row.
macro_rules! dispatcher {
    ($(
        $class:ident $tag:literal $variant:ident
        fn $name:ident $(( $($arg:ident: [$($ty:tt)+]),+ ))? -> $ret:ty $(, about $subject:ident)?;
    )*) => {
        /// Run `req` as its row's typed method on `store`; the result
        /// type picks the response variant ([`Reply`]). A session message
        /// is refused ([`not_an_operation`]).
        pub fn dispatch<S: HyperStore + ?Sized>(store: &mut S, req: Request) -> Result<Response> {
            match req {
                $(Request::$variant $(( $($arg),+ ))? => {
                    store.$name($($(lend!($arg: $($ty)+)),+)?).map(Reply::into_response)
                })*
                session => Err(not_an_operation(&session)),
            }
        }
    };
}
crate::store_ops!(dispatcher);

/// The typed facade over a [`Service`], one method per row.
macro_rules! facade {
    ($(
        $class:ident $tag:literal $variant:ident
        fn $name:ident $(( $($arg:ident: [$($ty:tt)+]),+ ))? -> $ret:ty $(, about $subject:ident)?;
    )*) => {
        impl<T: Service> HyperStore for T {
            $(
                fn $name(&mut self $($(, $arg: $($ty)+)+)?) -> Result<$ret> {
                    // A borrowed argument is cloned into the request.
                    let req = Request::$variant $(( $($arg.to_owned()),+ ))?;
                    Reply::from_response(Service::call(self, req)?)
                }
            )*

            fn call(&mut self, req: Request) -> Result<Response> {
                Service::call(self, req)
            }

            fn backend_name(&self) -> &'static str {
                Service::backend_name(self)
            }

            fn shard_balance(&self) -> Option<Vec<ShardLoad>> {
                Service::shard_balance(self)
            }

            fn resilience_summary(&self) -> Option<String> {
                Service::resilience_summary(self)
            }
        }
    };
}
crate::store_ops!(facade);
