//! Skewed-traffic rebalancing experiment: drive a Zipf closure workload
//! at a sharded store and let the [`rebalance::Rebalancer`] act between
//! windows, measuring the load imbalance before and after.
//!
//! This is the e2e counterpart of `hyperbench run --skew zipf:<s>
//! --rebalance`: the same [`rebalance_pass`] backs both the CLI and the
//! integration test, so the acceptance bar ("the rebalancer
//! measurably reduces the busy-time imbalance under skew, with the
//! oracle sweep green afterwards") is exercised identically in both.

use hypermodel::error::{HmError, Result};
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::ops::OpId;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use rebalance::Rebalancer;
use shard::{Placement, ShardedStore};

use crate::input::{OpInput, Workload};

/// The outcome of one [`rebalance_pass`].
#[derive(Debug, Clone)]
pub struct RebalanceReport {
    /// Backend label (`sharded-mem:N`).
    pub backend: String,
    /// Zipf exponent the closure starts were drawn with (0 = uniform).
    pub skew: f64,
    /// Window load imbalance (max/mean) before any migration.
    pub imbalance_before: f64,
    /// Window load imbalance after the rebalancer acted, same traffic mix.
    pub imbalance_after: f64,
    /// Migrations the rebalancer performed.
    pub migrations: u64,
    /// Total nodes moved across those migrations.
    pub moved_nodes: usize,
    /// Whether the post-rebalance oracle sweep found every node intact.
    pub verified: bool,
}

impl std::fmt::Display for RebalanceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} skew={:.2}: imbalance {:.2} -> {:.2} after {} migration(s) \
             ({} nodes moved), oracle sweep {}",
            self.backend,
            self.skew,
            self.imbalance_before,
            self.imbalance_after,
            self.migrations,
            self.moved_nodes,
            if self.verified { "ok" } else { "FAILED" }
        )
    }
}

/// Run the skew/rebalance experiment on a fresh `sharded-mem:<shards>`
/// store loaded with `db`.
///
/// Protocol: draw one batch of Zipf-skewed closure starts, then
/// 1. drive the batch and measure the window imbalance (*before*);
/// 2. drive it `rounds` more times, offering the [`Rebalancer`] one
///    decision after each window (its own observation baseline is
///    independent of the meter's);
/// 3. drive once more and measure again (*after*);
/// 4. sweep the whole store against the generator oracle — migrations
///    must never change what any operation returns.
///
/// The same input batch is replayed for every window so before/after
/// compare placements, not traffic luck.
pub fn rebalance_pass(
    db: &TestDatabase,
    shards: usize,
    placement: Placement,
    skew: f64,
    closures_per_window: usize,
    rounds: usize,
) -> Result<RebalanceReport> {
    let stores: Vec<MemStore> = (0..shards).map(|_| MemStore::new()).collect();
    let mut store = ShardedStore::new(stores, placement, "sharded-mem");
    let report = load_database(&mut store, db)?;
    let oids = report.oids;

    let mut workload = Workload::new(db.clone(), oids.clone(), 0xBEEF).with_skew(skew);
    let starts: Vec<Oid> = workload
        .inputs_for(OpId::Closure1N, closures_per_window)
        .into_iter()
        .map(|input| match input {
            OpInput::Node(o) => Ok(o),
            other => Err(HmError::Backend(format!(
                "closure input must be a node, got {other:?}"
            ))),
        })
        .collect::<Result<_>>()?;

    // Two independent observers over the same cumulative counters: `rb`
    // decides, `meter` only measures. Score by request counts alone so
    // the experiment is reproducible — the busy-EWMA weight is wall
    // clock, and a seeded workload should report a seeded imbalance.
    // Prime both so the bulk load is not mistaken for traffic.
    let mut rb = Rebalancer::with_watermarks(1.2, 1.1);
    rb.score_requests_only();
    let mut meter = Rebalancer::new();
    meter.score_requests_only();
    let balance = |s: &ShardedStore<MemStore>| {
        s.shard_balance()
            .ok_or_else(|| HmError::Backend("sharded store reports no balance".into()))
    };
    rb.observe(&balance(&store)?);
    meter.observe(&balance(&store)?);
    store.reset_touches();

    let drive = |s: &mut ShardedStore<MemStore>| -> Result<()> {
        for &start in &starts {
            s.closure_1n(start)?;
        }
        Ok(())
    };

    drive(&mut store)?;
    let imbalance_before = meter.observe(&balance(&store)?);

    let mut moved_nodes = 0;
    for _ in 0..rounds {
        drive(&mut store)?;
        for m in rb.run(&mut store, 1)? {
            moved_nodes += m.moved;
        }
    }

    // Rebase the meter past the rebalancing rounds (the migrations
    // issue requests of their own), then measure one clean window.
    meter.observe(&balance(&store)?);
    drive(&mut store)?;
    let imbalance_after = meter.observe(&balance(&store)?);

    let sweep = hypermodel::verify::verify_store(&mut store, db, &oids)?;
    Ok(RebalanceReport {
        backend: format!("sharded-mem:{shards}"),
        skew,
        imbalance_before,
        imbalance_after,
        migrations: rb.migrations(),
        moved_nodes,
        verified: sweep.is_ok(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermodel::config::GenConfig;

    #[test]
    fn uniform_traffic_needs_no_rebalancing() {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let r = rebalance_pass(&db, 2, Placement::affinity(), 0.0, 60, 2).unwrap();
        assert!(r.verified, "oracle sweep must pass untouched stores too");
        assert_eq!(r.skew, 0.0);
    }
}
