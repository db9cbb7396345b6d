//! The request/response messages: the wire protocol, and the call
//! boundary between in-process layers ([`crate::service`]).
//!
//! One [`Request`] per row of [`store_ops!`](crate::store_ops): every
//! [`HyperStore`](crate::store::HyperStore) primitive, plus the closure
//! and editing operations as single messages — the paper's §4 "higher
//! level conceptual operations", one round trip where a client with only
//! the primitives pays one per relationship access. [`Request`], its
//! codec, [`Request::class`] and [`Request::about_mut`] are generated
//! from the catalogue; the session messages (`Shutdown`, `Stats`) are
//! written here and answered by the server alone. Fields
//! are encoded by their [`Wire`] impl and results become responses by
//! their [`Reply`] impl, so a new operation adds no codec.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::bitmap::Bitmap;
use crate::codec::{self, Reader, Wire, Writer};
use crate::error::{HmError, Result};
use crate::migrate::NodeExport;
use crate::model::{NodeKind, NodeValue, Oid, RefEdge};
use crate::store::{BatchWrite, Reached, Rel};

const TAG_SHUTDOWN: u8 = 37;
const TAG_STATS: u8 = 48;

/// A catalogue row's class (its first column): how a layer holding
/// several copies of the data treats the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Any one up-to-date copy can answer; repeating it is harmless.
    Read,
    /// Every copy must apply it; a blind repeat could apply it twice.
    Write,
    /// A write every copy must finish before the caller goes on: the
    /// commit family and restart.
    Barrier,
}

/// The type a request carries for an argument the trait declares as
/// `[$ty]`: the owned form of a borrowed argument, the argument itself
/// otherwise.
macro_rules! owned {
    (& $($ty:tt)+) => { <$($ty)+ as ToOwned>::Owned };
    ($($ty:tt)+) => { $($ty)+ };
}

/// [`Request`] and everything that is one arm per operation.
macro_rules! define_requests {
    ($(
        $class:ident $tag:literal $variant:ident
        fn $name:ident $(( $($arg:ident: [$($ty:tt)+]),+ ))? -> $ret:ty $(, about $subject:ident)?;
    )*) => {
        /// A client → server message.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Request {
            $(
                #[doc = concat!("[`", stringify!($name), "`](crate::store::HyperStore::", stringify!($name), ") as one message.")]
                $variant $(( $(owned!($($ty)+)),+ ))?,
            )*
            /// Terminate the serving loop.
            Shutdown,
            /// Scrape the server's metrics registry (counters, gauges,
            /// latency histograms) as a JSON document. Answered by the
            /// serving loop itself, not the store.
            Stats,
        }

        impl Request {
            /// Encode by appending to a caller-owned buffer, so the hot
            /// path (`RemoteStore`, the serving loops) reuses one scratch
            /// `Vec` across requests instead of allocating per call.
            pub fn encode_into(&self, out: &mut Vec<u8>) {
                let w = &mut Writer::over(out);
                match self {
                    $(Request::$variant $(( $($arg),+ ))? => {
                        w.u8($tag);
                        $($( $arg.put(w); )+)?
                    })*
                    Request::Shutdown => w.u8(TAG_SHUTDOWN),
                    Request::Stats => w.u8(TAG_STATS),
                }
            }

            /// Decode from wire bytes.
            // Two rows with one tag must not compile.
            #[deny(unreachable_patterns)]
            pub fn decode(bytes: &[u8]) -> Result<Request> {
                let mut r = Reader::new(bytes);
                let req = match r.u8()? {
                    $($tag => Request::$variant $(( $(<owned!($($ty)+) as Wire>::get(&mut r)?),+ ))?,)*
                    TAG_SHUTDOWN => Request::Shutdown,
                    TAG_STATS => Request::Stats,
                    tag => return Err(HmError::Backend(format!("unknown request tag {tag}"))),
                };
                if !r.is_exhausted() {
                    return Err(HmError::Backend("trailing bytes after request".into()));
                }
                Ok(req)
            }

            /// The catalogue class of the operation this request runs. A
            /// session message counts as a read: repeating one changes no
            /// store.
            pub fn class(&self) -> Class {
                match self {
                    $(Request::$variant { .. } => Class::$class,)*
                    Request::Shutdown | Request::Stats => Class::Read,
                }
            }

            /// The one node the operation addresses (the row's `about`
            /// column), for a layer to rewrite: a sharded store routes the
            /// request to that node's shard under the shard's own id.
            /// `None` for a row without one and for session messages.
            #[allow(unused_variables)]
            pub fn about_mut(&mut self) -> Option<&mut Oid> {
                match self {
                    $(Request::$variant $(( $($arg),+ ))? => { $(return Some($subject);)? })*
                    Request::Shutdown | Request::Stats => {}
                }
                None
            }
        }
    };
}
crate::store_ops!(define_requests);

impl Request {
    /// True when a blind re-execution of this request could change
    /// state twice: the catalogue's `write` and `barrier` classes. A
    /// server keeps the reply of exactly these for a retry to replay.
    pub fn mutates(&self) -> bool {
        self.class() != Class::Read
    }
}

/// [`Response`] and its codec, one row per variant.
macro_rules! define_responses {
    ($( $(#[$doc:meta])* $tag:literal $variant:ident $(( $($field:ident: $ty:ty),+ ))?; )*) => {
        /// A server → client message.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Response {
            $( $(#[$doc])* $variant $(( $($ty),+ ))?, )*
        }

        impl Response {
            /// Encode by appending to a caller-owned buffer (see
            /// [`Request::encode_into`]).
            pub fn encode_into(&self, out: &mut Vec<u8>) {
                let w = &mut Writer::over(out);
                match self {
                    $(Response::$variant $(( $($field),+ ))? => {
                        w.u8($tag);
                        $($( $field.put(w); )+)?
                    })*
                }
            }

            /// Decode from wire bytes.
            #[deny(unreachable_patterns)]
            pub fn decode(bytes: &[u8]) -> Result<Response> {
                let mut r = Reader::new(bytes);
                let resp = match r.u8()? {
                    $($tag => Response::$variant $(( $(<$ty as Wire>::get(&mut r)?),+ ))?,)*
                    tag => return Err(HmError::Backend(format!("unknown response tag {tag}"))),
                };
                if !r.is_exhausted() {
                    return Err(HmError::Backend("trailing bytes after response".into()));
                }
                Ok(resp)
            }
        }
    };
}

define_responses! {
    /// Success with no payload.
    0 Unit;
    /// One object id.
    1 Oid(oid: Oid);
    /// An optional object id.
    2 OptOid(oid: Option<Oid>);
    /// A `u16` (node kind code).
    3 U16(v: u16);
    /// A `u32` (attribute value).
    4 U32(v: u32);
    /// A `u64` (counter, uid).
    5 U64(v: u64);
    /// A `(sum, count)` pair.
    6 SumCount(sum: u64, count: u64);
    /// A list of object ids.
    7 Oids(oids: Vec<Oid>);
    /// A list of reference edges.
    8 Edges(edges: Vec<RefEdge>);
    /// A string (text content).
    9 Text(text: String);
    /// A bitmap (form content).
    10 Form(bitmap: Bitmap);
    /// `(oid, distance)` pairs from the link-sum closure.
    11 Pairs(pairs: Vec<(Oid, u64)>);
    /// The operation failed; the message is the error's display form.
    12 Err(msg: String);
    // Tags 13 and 14 are retired and never reused: one oid or edge list
    // per batched input oid, the answers of the per-level batches that
    // `Expand` replaced.
    /// One `u32` per batched input oid.
    15 U32s(values: Vec<u32>);
    /// The server's metrics registry exported as JSON (see
    /// [`Request::Stats`]).
    16 Stats(json: String);
    /// Opaque bytes: a partition snapshot (`sync_export`) or an encoded
    /// migration batch (`export_nodes`).
    17 Subtree(bytes: Vec<u8>);
    // Tag 18 is retired and never reused: it redirected a request about a
    // node migrated away. The router's directory names the node's current
    // shard, so no request reaches the old one.
    /// The records an `expand` reached.
    19 Reached(reached: Vec<Reached>);
}

/// The error for an answer that is not the variant the caller expected.
pub fn unexpected(resp: Response) -> HmError {
    HmError::Backend(format!("unexpected response {resp:?}"))
}

/// The [`Response`] variant that carries a method's result: how
/// [`dispatch`](crate::service::dispatch) answers and how the typed
/// facade over a [`Service`](crate::service::Service) reads the answer,
/// for every return type in the catalogue.
pub trait Reply: Sized {
    /// The response carrying `self`.
    fn into_response(self) -> Response;

    /// The value `resp` carries, or an error naming the response if it is
    /// not this type's variant.
    fn from_response(resp: Response) -> Result<Self>;
}

macro_rules! replies {
    ($( $ty:ty { $v:pat => $resp:expr, $carried:pat => $back:expr } )*) => {$(
        impl Reply for $ty {
            fn into_response(self) -> Response {
                let $v = self;
                $resp
            }
            fn from_response(resp: Response) -> Result<Self> {
                match resp {
                    $carried => Ok($back),
                    other => Err(unexpected(other)),
                }
            }
        }
    )*};
}

replies! {
    ()                { () => Response::Unit,            Response::Unit => () }
    Oid               { v => Response::Oid(v),           Response::Oid(v) => v }
    Option<Oid>       { v => Response::OptOid(v),        Response::OptOid(v) => v }
    NodeKind          { k => Response::U16(k.0),         Response::U16(k) => NodeKind(k) }
    u32               { v => Response::U32(v),           Response::U32(v) => v }
    u64               { v => Response::U64(v),           Response::U64(v) => v }
    usize             { n => Response::U64(n as u64),    Response::U64(n) => n as usize }
    (u64, usize)      { (s, c) => Response::SumCount(s, c as u64), Response::SumCount(s, c) => (s, c as usize) }
    Vec<Oid>          { v => Response::Oids(v),          Response::Oids(v) => v }
    Vec<RefEdge>      { v => Response::Edges(v),         Response::Edges(v) => v }
    String            { v => Response::Text(v),          Response::Text(v) => v }
    Bitmap            { v => Response::Form(v),          Response::Form(v) => v }
    Vec<(Oid, u64)>   { v => Response::Pairs(v),         Response::Pairs(v) => v }
    Vec<u32>          { v => Response::U32s(v),          Response::U32s(v) => v }
    Vec<u8>           { v => Response::Subtree(v),       Response::Subtree(v) => v }
    Vec<Reached>      { v => Response::Reached(v),       Response::Reached(v) => v }
}

/// A migration batch travels as [`Response::Subtree`] holding its
/// encoding.
impl Reply for Vec<NodeExport> {
    fn into_response(self) -> Response {
        Response::Subtree(codec::to_bytes(&self))
    }
    fn from_response(resp: Response) -> Result<Self> {
        codec::from_bytes(&Vec::<u8>::from_response(resp)?)
    }
}

#[cfg(test)]
mod tests {
    // Every variant's exact bytes, both ways, are pinned by the `server`
    // crate's `tests/wire_golden.rs`; these cover what is not a byte
    // layout.
    use super::*;

    fn req_bytes(req: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        req.encode_into(&mut out);
        out
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Request::decode(&[200]).is_err());
        assert!(Response::decode(&[200]).is_err());
        assert!(Request::decode(&[]).is_err());
        // Trailing bytes.
        let mut bytes = req_bytes(&Request::Commit);
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn writes_and_barriers_mutate_reads_and_session_messages_do_not() {
        assert!(Request::SetHundred(Oid(1), 2).mutates());
        assert!(Request::Commit.mutates());
        assert!(Request::ColdRestart.mutates());
        assert!(!Request::Closure1N(Oid(1)).mutates());
        assert!(!Request::SyncSubtree.mutates());
        assert!(!Request::Stats.mutates());
        assert!(!Request::Shutdown.mutates());
        let mut req = Request::SetText(Oid(4), "x".into());
        *req.about_mut().unwrap() = Oid(9);
        assert_eq!(req, Request::SetText(Oid(9), "x".into()));
        assert_eq!(Request::AddChild(Oid(1), Oid(2)).about_mut(), None);
    }
}
