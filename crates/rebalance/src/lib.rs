//! Load-driven auto-rebalancing for a [`shard::ShardedStore`].
//!
//! The [`Rebalancer`] is a policy loop over two signals the store
//! already maintains: the per-shard load report
//! ([`HyperStore::shard_balance`] — `busy_us` EWMA, queue depth,
//! request counts) and the per-subtree *touch counters*
//! ([`ShardedStore::touch_counts`] — closure executions per start
//! node). Each [`Rebalancer::run_once`] observes one window; when the
//! load imbalance (max/mean) crosses the **high watermark**, the
//! hottest touched subtree owned by the most-loaded shard is migrated
//! online ([`ShardedStore::migrate_subtree`]) onto the least-loaded
//! shard. Hysteresis: once triggered, the rebalancer keeps acting until
//! imbalance falls under the **low watermark**, so it neither
//! oscillates around a single threshold nor stops half-way through a
//! hot spot.
//!
//! A migration only rewrites the router's directory entry of each moved
//! node; nothing is left behind to compact, because the store's
//! `&mut self` access model makes every call a quiesce point and no
//! request can still hold the old placement.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use hypermodel::error::{HmError, Result};
use hypermodel::model::Oid;
use hypermodel::store::{HyperStore, ShardLoad};
use shard::ShardedStore;

/// `max / mean` of a set of per-shard scores (1.0 = perfectly even;
/// empty or all-zero scores also read as even).
pub fn imbalance_of(scores: &[u64]) -> f64 {
    let max = scores.iter().copied().max().unwrap_or(0) as f64;
    let mean = scores.iter().sum::<u64>() as f64 / scores.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// One completed rebalancing migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Migration {
    /// The subtree root that was moved.
    pub root: Oid,
    /// Donor shard (most loaded at decision time).
    pub from: usize,
    /// Recipient shard (least loaded at decision time).
    pub to: usize,
    /// Nodes moved.
    pub moved: usize,
    /// The imbalance that triggered the move.
    pub imbalance: f64,
}

/// The auto-rebalancing policy loop. See the crate docs for the model.
#[derive(Debug)]
pub struct Rebalancer {
    high: f64,
    low: f64,
    /// Weight each window's request delta by the shard's busy-time
    /// EWMA (the default). Off = score by request counts alone.
    weight_busy: bool,
    /// Request counters at the previous observation, for windowed
    /// deltas (the counters themselves are cumulative).
    last_requests: Vec<u64>,
    /// Hysteresis state: triggered and not yet back under `low`.
    active: bool,
    migrations: u64,
}

impl Default for Rebalancer {
    fn default() -> Rebalancer {
        Rebalancer::new()
    }
}

impl Rebalancer {
    /// A rebalancer with the default watermarks: trigger at 1.5×
    /// max/mean, stand down under 1.15×.
    pub fn new() -> Rebalancer {
        Rebalancer::with_watermarks(1.5, 1.15)
    }

    /// A rebalancer triggering at imbalance `high` and standing down
    /// under `low` (`1.0 <= low <= high`).
    pub fn with_watermarks(high: f64, low: f64) -> Rebalancer {
        assert!(
            1.0 <= low && low <= high,
            "watermarks must satisfy 1.0 <= low ({low}) <= high ({high})"
        );
        Rebalancer {
            high,
            low,
            weight_busy: true,
            last_requests: Vec::new(),
            active: false,
            migrations: 0,
        }
    }

    /// Score windows by request counts alone, without the busy-time
    /// EWMA weight. The default weighting reflects what each request
    /// actually cost, but the EWMA is wall-clock — deterministic
    /// deployments (tests, reproducible soaks) can trade the cost
    /// signal away for scores that depend only on the traffic itself.
    pub fn score_requests_only(&mut self) {
        self.weight_busy = false;
    }

    /// Migrations performed by this rebalancer so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Per-shard load score for one observation window: the requests
    /// issued since the previous observation, weighted by the shard's
    /// busy-time EWMA (µs of lock hold per job — how expensive each of
    /// those requests was), plus its current queue backlog. The EWMA
    /// alone is a *cost* signal, not a throughput one — an idle shard
    /// keeps its stale average — so it only ever scales the window's
    /// actual traffic.
    fn window_scores(&mut self, loads: &[ShardLoad]) -> Vec<u64> {
        self.last_requests.resize(loads.len(), 0);
        loads
            .iter()
            .zip(self.last_requests.iter_mut())
            .map(|(l, last)| {
                let delta = l.requests.saturating_sub(*last);
                *last = l.requests;
                let weight = if self.weight_busy {
                    l.busy_us.max(1)
                } else {
                    1
                };
                delta.saturating_mul(weight) + l.queued
            })
            .collect()
    }

    /// Consume one observation window without acting on it and return
    /// its load imbalance. Use this to prime the window after a bulk
    /// load (so the loading traffic is not mistaken for a hot spot), or
    /// on a dedicated instance as a pure imbalance meter.
    pub fn observe(&mut self, loads: &[ShardLoad]) -> f64 {
        imbalance_of(&self.window_scores(loads))
    }

    /// Observe one window and migrate at most one hot subtree.
    ///
    /// Returns `Ok(None)` when balanced (imbalance under the active
    /// watermark), when no shard pair disagrees, or when the donor owns
    /// no touched subtree to move. On a migration, the touch window is
    /// reset so the next decision sees fresh traffic only.
    pub fn run_once<S: HyperStore + Send + 'static>(
        &mut self,
        store: &mut ShardedStore<S>,
    ) -> Result<Option<Migration>> {
        let loads = store
            .shard_balance()
            .ok_or_else(|| HmError::Backend("store reports no shard balance".into()))?;
        let scores = self.window_scores(&loads);
        let imbalance = imbalance_of(&scores);
        obs::gauge_set("shard.load.imbalance", (imbalance * 100.0) as i64);

        let watermark = if self.active { self.low } else { self.high };
        if imbalance < watermark {
            self.active = false;
            return Ok(None);
        }
        let donor = match (0..scores.len()).max_by_key(|&s| (scores[s], s)) {
            Some(s) => s,
            None => return Ok(None),
        };
        let recipient = (0..scores.len())
            .min_by_key(|&s| (scores[s], s))
            .expect("non-empty");
        if donor == recipient || scores[donor] == scores[recipient] {
            self.active = false;
            return Ok(None);
        }
        // The hottest touched subtree the donor owns is the candidate;
        // a donor hot purely from untracked point traffic yields none.
        let candidate = store
            .touch_counts()
            .into_iter()
            .find(|&(root, _)| store.owner_of(root) == Some(donor))
            .map(|(root, _)| root);
        let root = match candidate {
            Some(r) => r,
            None => {
                self.active = false;
                return Ok(None);
            }
        };
        let moved = store.migrate_subtree(root, recipient)?;
        self.active = true;
        self.migrations += 1;
        store.reset_touches();
        Ok(Some(Migration {
            root,
            from: donor,
            to: recipient,
            moved,
            imbalance,
        }))
    }

    /// Run [`Rebalancer::run_once`] until the store is balanced or
    /// `max_migrations` were performed; returns the migrations made.
    pub fn run<S: HyperStore + Send + 'static>(
        &mut self,
        store: &mut ShardedStore<S>,
        max_migrations: usize,
    ) -> Result<Vec<Migration>> {
        let mut out = Vec::new();
        while out.len() < max_migrations {
            match self.run_once(store)? {
                Some(m) => out.push(m),
                None => break,
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermodel::config::GenConfig;
    use hypermodel::generate::TestDatabase;
    use hypermodel::load::load_database;
    use hypermodel::oracle::Oracle;
    use mem_backend::MemStore;
    use shard::Placement;

    fn sharded(n: usize) -> ShardedStore<MemStore> {
        let shards = (0..n).map(|_| MemStore::new()).collect();
        ShardedStore::new(shards, Placement::affinity(), "sharded-mem")
    }

    fn closure_starts(store: &ShardedStore<MemStore>, oids: &[Oid], db: &TestDatabase) -> Vec<Oid> {
        let _ = store;
        let oracle = Oracle::new(db);
        db.level_indices(oracle.closure_start_level())
            .map(|i| oids[i as usize])
            .collect()
    }

    #[test]
    fn watermarks_are_validated() {
        assert!(std::panic::catch_unwind(|| Rebalancer::with_watermarks(1.2, 1.4)).is_err());
        assert!(std::panic::catch_unwind(|| Rebalancer::with_watermarks(2.0, 0.5)).is_err());
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance_of(&[]), 1.0);
        assert_eq!(imbalance_of(&[0, 0]), 1.0);
        assert!((imbalance_of(&[30, 10]) - 1.5).abs() < 1e-9);
    }

    /// Arrange one closure-start subtree per shard (migrating if the
    /// placement hash clumped them) and return one start per shard.
    fn one_start_per_shard(s: &mut ShardedStore<MemStore>, starts: &[Oid]) -> Vec<Oid> {
        let n = s.shard_count();
        let mut per: Vec<Option<Oid>> = vec![None; n];
        for &st in starts {
            let owner = s.owner_of(st).unwrap();
            if per[owner].is_none() {
                per[owner] = Some(st);
            }
        }
        let mut spare: Vec<Oid> = starts
            .iter()
            .copied()
            .filter(|st| !per.contains(&Some(*st)))
            .collect();
        for (shard, slot) in per.iter_mut().enumerate() {
            if slot.is_none() {
                let st = spare.pop().expect("enough closure starts to spread");
                s.migrate_subtree(st, shard).unwrap();
                *slot = Some(st);
            }
        }
        per.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn a_balanced_store_is_left_alone() {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut s = sharded(2);
        let r = load_database(&mut s, &db).unwrap();
        let starts = closure_starts(&s, &r.oids, &db);
        let per_shard = one_start_per_shard(&mut s, &starts);

        // The high watermark leaves room for µs-clock noise in the
        // busy-EWMA weight: equal request deltas cannot cross it.
        let mut rb = Rebalancer::with_watermarks(4.0, 1.1);
        rb.window_scores(&s.shard_balance().unwrap()); // consume loading
        s.reset_touches();
        for _ in 0..100 {
            for &st in &per_shard {
                s.closure_1n(st).unwrap();
            }
        }
        assert_eq!(rb.run_once(&mut s).unwrap(), None);
        assert_eq!(rb.migrations(), 0);
    }

    #[test]
    fn skewed_traffic_triggers_a_migration_off_the_hot_shard() {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut s = sharded(2);
        let r = load_database(&mut s, &db).unwrap();
        let starts = closure_starts(&s, &r.oids, &db);
        let hot = starts[0];
        let donor = s.owner_of(hot).unwrap();

        let mut rb = Rebalancer::with_watermarks(1.3, 1.1);
        rb.score_requests_only(); // busy EWMA is wall-clock noise here
        rb.window_scores(&s.shard_balance().unwrap()); // consume loading
        s.reset_touches();
        for _ in 0..200 {
            s.closure_1n(hot).unwrap();
        }
        for _ in 0..300 {
            s.hundred_of(hot).unwrap();
        }
        let m = rb
            .run_once(&mut s)
            .unwrap()
            .expect("hot subtree must migrate");
        assert_eq!(m.root, hot);
        assert_eq!(m.from, donor);
        assert_ne!(m.to, donor);
        assert!(m.moved > 0);
        assert!(m.imbalance >= 1.3);
        assert_eq!(s.owner_of(hot), Some(m.to));
        assert_eq!(s.migrations(), 1);
        // The touch window was consumed.
        assert!(s.touch_counts().is_empty());
    }

    #[test]
    fn rebalancing_reduces_the_measured_imbalance() {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut s = sharded(2);
        let r = load_database(&mut s, &db).unwrap();
        let starts = closure_starts(&s, &r.oids, &db);
        let hot = starts[0];
        let donor = s.owner_of(hot).unwrap();
        // Make the donor own a second hot subtree too, so post-move
        // traffic genuinely spreads across both shards.
        let second = match starts
            .iter()
            .copied()
            .find(|&st| st != hot && s.owner_of(st) == Some(donor))
        {
            Some(st) => st,
            None => {
                let st = starts.iter().copied().find(|&st| st != hot).unwrap();
                s.migrate_subtree(st, donor).unwrap();
                st
            }
        };

        let mut rb = Rebalancer::with_watermarks(1.3, 1.1);
        rb.score_requests_only(); // busy EWMA is wall-clock noise here
        rb.window_scores(&s.shard_balance().unwrap());
        s.reset_touches();
        let drive = |s: &mut ShardedStore<MemStore>| {
            for _ in 0..100 {
                s.closure_1n(hot).unwrap();
                s.closure_1n(second).unwrap();
            }
            // Point reads (owner-only requests) keep the skew decisive.
            for _ in 0..300 {
                s.hundred_of(hot).unwrap();
                s.hundred_of(second).unwrap();
            }
        };
        drive(&mut s);
        let before = imbalance_of(&rb.window_scores(&s.shard_balance().unwrap()));
        assert!(before >= 1.3, "traffic must start skewed, got {before}");
        // Measuring consumed the window; replay the same mix so the
        // rebalancer observes it too.
        drive(&mut s);
        rb.run_once(&mut s).unwrap().expect("must migrate");
        // Fresh window with the same traffic mix, now spread.
        drive(&mut s);
        let after = imbalance_of(&rb.window_scores(&s.shard_balance().unwrap()));
        assert!(
            after < before,
            "imbalance must drop: before {before}, after {after}"
        );
    }

    #[test]
    fn hysteresis_keeps_acting_until_under_the_low_watermark() {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut s = sharded(2);
        let r = load_database(&mut s, &db).unwrap();
        let starts = closure_starts(&s, &r.oids, &db);
        // The windows below steer imbalance through request-count
        // ratios (point reads land on the owning shard only), so score
        // by requests alone — the busy-EWMA weight is wall-clock and
        // would smear the bands on a loaded machine. The trigger
        // window is nearly all-one-shard (imbalance ≈ 2.0 of a 2.0
        // maximum) and the mid-band window is a 3:1 ratio (≈ 1.5),
        // inside (1.05, 1.9) by construction.
        let mut rb = Rebalancer::with_watermarks(1.9, 1.05);
        rb.score_requests_only();
        rb.window_scores(&s.shard_balance().unwrap());
        s.reset_touches();
        // One closure records the migration candidate's touch; the
        // point reads carry the skew.
        s.closure_1n(starts[0]).unwrap();
        for _ in 0..500 {
            s.hundred_of(starts[0]).unwrap();
        }
        assert!(rb.run_once(&mut s).unwrap().is_some(), "first trigger");
        assert_eq!(s.migrations(), 1);
        // A quiet window (no traffic beyond the migration's own
        // bookkeeping) stands the rebalancer down: whatever tiny
        // imbalance it reads, the touch window was consumed, so there
        // is no candidate to act on.
        assert_eq!(rb.run_once(&mut s).unwrap(), None, "no traffic window");
        // A later mid-band window (between the watermarks) must NOT
        // act: standing down means a new migration requires crossing
        // `high` again, not merely `low`. starts[0] now lives on the
        // recipient; pick a subtree still on the donor for the 3:1 mix
        // and touch it so a candidate exists if the watermark logic
        // were wrong.
        let donor_owned = starts
            .iter()
            .copied()
            .find(|&st| s.owner_of(st) != s.owner_of(starts[0]))
            .expect("a start left on the donor");
        s.closure_1n(donor_owned).unwrap();
        for i in 0..400 {
            let st = if i % 4 == 0 { starts[0] } else { donor_owned };
            s.hundred_of(st).unwrap();
        }
        assert_eq!(rb.run_once(&mut s).unwrap(), None, "mid-band window");
        assert_eq!(s.migrations(), 1);
    }
}
