//! Remote sharded deployment: N TCP HyperModel servers behind one router.
//!
//! Each shard is a [`server::RemoteStore`] over its own TCP connection;
//! the [`ShardedStore`] on top sends each round of a closure to the
//! connections with work in parallel, one `Expand` each, which walks the
//! closure to the shard boundary — the paper's R6 server architecture
//! scaled horizontally.

use std::net::TcpStream;

use hypermodel::error::{HmError, Result};
use server::client::RemoteStore;
use server::transport::TcpTransport;

use crate::replica::ReplicaGroup;
use crate::router::Placement;
use crate::store::ShardedStore;

/// One connection per address.
fn connect_all(addrs: &[String]) -> Result<Vec<RemoteStore>> {
    addrs
        .iter()
        .map(|addr| {
            let stream = TcpStream::connect(addr)
                .map_err(|e| HmError::Backend(format!("connect {addr}: {e}")))?;
            let transport = TcpTransport::new(stream)?;
            Ok(RemoteStore::new(Box::new(transport)))
        })
        .collect()
}

/// Connect to one HyperModel server per address and compose the
/// connections into a sharded store.
pub fn connect_sharded(
    addrs: &[String],
    placement: Placement,
) -> Result<ShardedStore<RemoteStore>> {
    if addrs.is_empty() {
        return Err(HmError::InvalidArgument(
            "sharded-remote needs at least one server address".into(),
        ));
    }
    Ok(ShardedStore::new(
        connect_all(addrs)?,
        placement,
        "sharded-remote",
    ))
}

/// Connect to `n * k` HyperModel servers and compose them into a
/// K-way replicated sharded store.
///
/// `addrs` is group-major: the first `k` addresses are the mirrors of
/// shard 0 (primary first), the next `k` of shard 1, and so on. Each
/// mirror is an independent server holding a full copy of its group's
/// partition.
pub fn connect_sharded_replicated(
    addrs: &[String],
    k: usize,
    placement: Placement,
) -> Result<ShardedStore<ReplicaGroup<RemoteStore>>> {
    if k == 0 || addrs.is_empty() || !addrs.len().is_multiple_of(k) {
        return Err(HmError::InvalidArgument(format!(
            "sharded-remote replication needs a positive multiple of k={k} addresses, got {}",
            addrs.len()
        )));
    }
    Ok(ShardedStore::new_replicated(
        connect_all(addrs)?,
        k,
        placement,
        "sharded-remote",
    ))
}
