//! Error type shared by the HyperModel core and every backend.

use crate::model::Oid;
use std::fmt;

/// Errors produced by HyperModel operations.
///
/// Backend-specific failures (I/O, corruption, pool exhaustion) are wrapped
/// in [`HmError::Backend`] so the operation layer stays independent of any
/// particular storage substrate.
#[derive(Debug)]
pub enum HmError {
    /// No node with the given object id exists.
    NodeNotFound(Oid),
    /// No node with the given `uniqueId` attribute exists.
    UniqueIdNotFound(u64),
    /// The operation requires a different node kind (e.g. `textNodeEdit`
    /// on a form node).
    WrongKind {
        /// The object the operation was applied to.
        oid: Oid,
        /// What the operation expected, e.g. `"TextNode"`.
        expected: &'static str,
    },
    /// A schema-level problem: unknown type, duplicate type, unknown
    /// attribute (requirement R4 paths).
    Schema(String),
    /// A versioning problem: no such version, no predecessor (R5 paths).
    Version(String),
    /// An access-control denial (R11 paths).
    AccessDenied(String),
    /// Optimistic concurrency control validation failed; retry the
    /// transaction (R8/R9 paths).
    Conflict(String),
    /// The underlying storage substrate failed.
    Backend(String),
    /// The operation was invoked with an out-of-contract argument.
    InvalidArgument(String),
    /// A request did not complete within its deadline. Transient: callers
    /// with a retry policy may resend the same (idempotent) request.
    Timeout(String),
    /// A specific shard of a sharded deployment is down or crashed.
    /// Point operations routed to it, and fan-out operations, fail fast
    /// with this error.
    ShardUnavailable {
        /// Index of the unavailable shard.
        shard: usize,
        /// Human-readable cause (crash, connection loss, ...).
        msg: String,
    },
}

impl HmError {
    /// Whether this error is transient — a retry of the same request may
    /// succeed (timeouts, dropped connections). Permanent errors (unknown
    /// node, schema violation, ...) must not be retried.
    pub fn is_transient(&self) -> bool {
        matches!(self, HmError::Timeout(_) | HmError::ShardUnavailable { .. })
    }
}

impl fmt::Display for HmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HmError::NodeNotFound(oid) => write!(f, "node {oid} not found"),
            HmError::UniqueIdNotFound(uid) => write!(f, "no node with uniqueId {uid}"),
            HmError::WrongKind { oid, expected } => {
                write!(f, "node {oid} is not a {expected}")
            }
            HmError::Schema(msg) => write!(f, "schema error: {msg}"),
            HmError::Version(msg) => write!(f, "version error: {msg}"),
            HmError::AccessDenied(msg) => write!(f, "access denied: {msg}"),
            HmError::Conflict(msg) => write!(f, "transaction conflict: {msg}"),
            HmError::Backend(msg) => write!(f, "backend error: {msg}"),
            HmError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            HmError::Timeout(msg) => write!(f, "timed out: {msg}"),
            HmError::ShardUnavailable { shard, msg } => {
                write!(f, "shard {shard} unavailable: {msg}")
            }
        }
    }
}

impl std::error::Error for HmError {}

/// Convenience alias used throughout the HyperModel crates.
pub type Result<T> = std::result::Result<T, HmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            HmError::NodeNotFound(Oid(7)).to_string(),
            "node #7 not found"
        );
        assert_eq!(
            HmError::UniqueIdNotFound(12).to_string(),
            "no node with uniqueId 12"
        );
        assert_eq!(
            HmError::WrongKind {
                oid: Oid(1),
                expected: "TextNode"
            }
            .to_string(),
            "node #1 is not a TextNode"
        );
        assert_eq!(
            HmError::Backend("io".into()).to_string(),
            "backend error: io"
        );
        assert_eq!(
            HmError::Timeout("recv".into()).to_string(),
            "timed out: recv"
        );
        assert_eq!(
            HmError::ShardUnavailable {
                shard: 2,
                msg: "crashed".into()
            }
            .to_string(),
            "shard 2 unavailable: crashed"
        );
    }

    #[test]
    fn transient_classification() {
        assert!(HmError::Timeout("t".into()).is_transient());
        assert!(HmError::ShardUnavailable {
            shard: 0,
            msg: "down".into()
        }
        .is_transient());
        assert!(!HmError::NodeNotFound(Oid(1)).is_transient());
        assert!(!HmError::Backend("io".into()).is_transient());
    }
}
