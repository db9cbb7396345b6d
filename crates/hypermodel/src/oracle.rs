//! A pure reference implementation of every operation, computed directly
//! from the generated [`TestDatabase`] description.
//!
//! The oracle is deliberately *independent* of the `HyperStore` trait and
//! its default methods: it recomputes closures with its own recursion so
//! that a bug in the shared default implementations cannot hide by
//! agreeing with itself. Cross-backend tests run each operation on a
//! backend, map the returned [`crate::model::Oid`]s back to `uniqueId`s,
//! and compare against the oracle.
//!
//! All oracle results are expressed in node *indices* (`uniqueId - 1`).
//! Ordered results (1-N closures, children) preserve order; set results
//! are returned sorted.

use crate::generate::{TestDatabase, NO_PARENT};
use crate::model::NodeKind;

/// Reference result provider for one test database.
#[derive(Debug)]
pub struct Oracle<'a> {
    db: &'a TestDatabase,
    part_of: Vec<Vec<u32>>,
    ref_from: Vec<Vec<(u32, u8, u8)>>,
}

impl<'a> Oracle<'a> {
    /// Build the oracle (materializes the inverse relationships).
    pub fn new(db: &'a TestDatabase) -> Oracle<'a> {
        Oracle {
            part_of: db.compute_part_of(),
            ref_from: db.compute_ref_from(),
            db,
        }
    }

    /// The underlying database description.
    pub fn db(&self) -> &TestDatabase {
        self.db
    }

    /// O1/O2: the `hundred` attribute of node `idx`.
    pub fn hundred(&self, idx: u32) -> u32 {
        self.db.nodes[idx as usize].value.attrs.hundred
    }

    /// The `ten` attribute of node `idx`.
    pub fn ten(&self, idx: u32) -> u32 {
        self.db.nodes[idx as usize].value.attrs.ten
    }

    /// The `million` attribute of node `idx`.
    pub fn million(&self, idx: u32) -> u32 {
        self.db.nodes[idx as usize].value.attrs.million
    }

    /// O3: indices with `hundred` in `lo..=hi`, sorted.
    pub fn range_hundred(&self, lo: u32, hi: u32) -> Vec<u32> {
        (0..self.db.len() as u32)
            .filter(|&i| (lo..=hi).contains(&self.hundred(i)))
            .collect()
    }

    /// O4: indices with `million` in `lo..=hi`, sorted.
    pub fn range_million(&self, lo: u32, hi: u32) -> Vec<u32> {
        (0..self.db.len() as u32)
            .filter(|&i| (lo..=hi).contains(&self.million(i)))
            .collect()
    }

    /// O5A: ordered children.
    pub fn children(&self, idx: u32) -> Vec<u32> {
        self.db.children[idx as usize].clone()
    }

    /// O5B: parts (generation order).
    pub fn parts(&self, idx: u32) -> Vec<u32> {
        self.db.parts[idx as usize].clone()
    }

    /// O6: the reference target of `idx`.
    pub fn ref_to(&self, idx: u32) -> Vec<(u32, u8, u8)> {
        let (t, f, o) = self.db.refs[idx as usize];
        vec![(t, f, o)]
    }

    /// O7A: the parent, if any.
    pub fn parent(&self, idx: u32) -> Option<u32> {
        let p = self.db.parent[idx as usize];
        (p != NO_PARENT).then_some(p)
    }

    /// O7B: owners in the M-N aggregation, sorted.
    pub fn part_of(&self, idx: u32) -> Vec<u32> {
        let mut v = self.part_of[idx as usize].clone();
        v.sort_unstable();
        v
    }

    /// O8: referencing nodes `(source, offsetFrom, offsetTo)`, sorted.
    pub fn ref_from(&self, idx: u32) -> Vec<(u32, u8, u8)> {
        let mut v = self.ref_from[idx as usize].clone();
        v.sort_unstable();
        v
    }

    /// O9: number of nodes a sequential scan must visit.
    pub fn seq_scan_count(&self) -> u64 {
        self.db.len() as u64
    }

    /// O10: pre-order 1-N closure from `start`.
    pub fn closure_1n(&self, start: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.rec_1n(start, &mut out);
        out
    }

    fn rec_1n(&self, idx: u32, out: &mut Vec<u32>) {
        out.push(idx);
        for &k in &self.db.children[idx as usize] {
            self.rec_1n(k, out);
        }
    }

    /// O11: sum of `hundred` over the 1-N closure.
    pub fn closure_1n_att_sum(&self, start: u32) -> (u64, usize) {
        let closure = self.closure_1n(start);
        let sum = closure.iter().map(|&i| self.hundred(i) as u64).sum();
        (sum, closure.len())
    }

    /// O13: pre-order 1-N closure with exclusion + pruning on
    /// `million ∈ lo..=hi`.
    pub fn closure_1n_pred(&self, start: u32, lo: u32, hi: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.rec_1n_pred(start, lo, hi, &mut out);
        out
    }

    fn rec_1n_pred(&self, idx: u32, lo: u32, hi: u32, out: &mut Vec<u32>) {
        if (lo..=hi).contains(&self.million(idx)) {
            return;
        }
        out.push(idx);
        for &k in &self.db.children[idx as usize] {
            self.rec_1n_pred(k, lo, hi, out);
        }
    }

    /// O14: pre-order M-N closure (no deduplication).
    pub fn closure_mn(&self, start: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.rec_mn(start, &mut out);
        out
    }

    fn rec_mn(&self, idx: u32, out: &mut Vec<u32>) {
        out.push(idx);
        for &p in &self.db.parts[idx as usize] {
            self.rec_mn(p, out);
        }
    }

    /// O15: attributed-M-N closure to `depth` (start excluded).
    pub fn closure_mnatt(&self, start: u32, depth: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut current = start;
        for _ in 0..depth {
            let (t, _, _) = self.db.refs[current as usize];
            out.push(t);
            current = t;
        }
        out
    }

    /// O18: attributed-M-N closure with cumulative `offsetTo` distances.
    pub fn closure_mnatt_linksum(&self, start: u32, depth: u32) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        let mut current = start;
        let mut dist = 0u64;
        for _ in 0..depth {
            let (t, _, off_to) = self.db.refs[current as usize];
            dist += off_to as u64;
            out.push((t, dist));
            current = t;
        }
        out
    }

    /// Indices eligible as closure starts (level 3, or the deepest
    /// internal level for shallow test configs).
    pub fn closure_start_level(&self) -> u32 {
        3.min(self.db.config.leaf_level.saturating_sub(1))
    }

    /// Expected closure size from a closure-start node down to the leaves.
    pub fn expected_closure_size(&self) -> u64 {
        self.db
            .config
            .closure_size_from_level(self.closure_start_level())
    }

    /// The text content of text node `idx`.
    pub fn text(&self, idx: u32) -> &str {
        match &self.db.nodes[idx as usize].value.content {
            crate::model::Content::Text(s) => s,
            other => panic!("node {idx} is not a text node: {other:?}"),
        }
    }

    /// Kind of node `idx`.
    pub fn kind(&self, idx: u32) -> NodeKind {
        self.db.nodes[idx as usize].value.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GenConfig;

    fn tiny() -> TestDatabase {
        TestDatabase::generate(&GenConfig::tiny())
    }

    #[test]
    fn closure_1n_is_preorder_and_complete() {
        let db = tiny();
        let oracle = Oracle::new(&db);
        let c = oracle.closure_1n(0);
        assert_eq!(c.len(), 31, "root closure covers the whole tree");
        assert_eq!(c[0], 0);
        assert_eq!(c[1], 1, "first child follows the root");
        assert_eq!(c[2], 6, "grandchild before sibling (pre-order)");
        // Every node exactly once.
        let mut sorted = c.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 31);
    }

    #[test]
    fn closure_1n_from_mid_level() {
        let db = tiny();
        let oracle = Oracle::new(&db);
        let c = oracle.closure_1n(1);
        assert_eq!(c, vec![1, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn closure_mn_counts_paths_not_nodes() {
        let db = tiny();
        let oracle = Oracle::new(&db);
        let c = oracle.closure_mn(0);
        // Root + 5 level-1 parts + 5*5 level-2 parts = 31 path visits,
        // regardless of sharing.
        assert_eq!(c.len(), 31);
        assert_eq!(c[0], 0);
    }

    #[test]
    fn closure_mnatt_is_a_depth_limited_chain() {
        let db = tiny();
        let oracle = Oracle::new(&db);
        let c = oracle.closure_mnatt(0, 25);
        assert_eq!(c.len(), 25);
        // Follows refs exactly.
        let first = db.refs[0].0;
        assert_eq!(c[0], first);
        assert_eq!(c[1], db.refs[first as usize].0);
    }

    #[test]
    fn linksum_accumulates_offsets() {
        let db = tiny();
        let oracle = Oracle::new(&db);
        let pairs = oracle.closure_mnatt_linksum(0, 10);
        assert_eq!(pairs.len(), 10);
        let mut expect = 0u64;
        let mut cur = 0u32;
        for &(node, dist) in &pairs {
            let (t, _, off_to) = db.refs[cur as usize];
            expect += off_to as u64;
            assert_eq!(node, t);
            assert_eq!(dist, expect);
            cur = t;
        }
    }

    #[test]
    fn range_lookups_match_brute_force_selectivity() {
        let db = TestDatabase::generate(&GenConfig::level(4));
        let oracle = Oracle::new(&db);
        let hits = oracle.range_hundred(1, 10);
        // 10% selectivity over 781 nodes: expect roughly 78 ± generous slack.
        assert!((40..120).contains(&hits.len()), "got {}", hits.len());
        for &i in &hits {
            assert!((1..=10).contains(&oracle.hundred(i)));
        }
        let m = oracle.range_million(1, 10_000);
        for &i in &m {
            assert!((1..=10_000).contains(&oracle.million(i)));
        }
    }

    #[test]
    fn closure_pred_prunes_subtrees() {
        let db = tiny();
        let oracle = Oracle::new(&db);
        // Choose a range that certainly contains node 1's million value:
        let m = oracle.million(1);
        let c = oracle.closure_1n_pred(0, m, m);
        assert!(!c.contains(&1));
        // All of node 1's children are pruned too (they can only be
        // reached through node 1)...unless their own million also equals m
        // (they'd still be excluded). Either way they are absent.
        for k in 6..=10u32 {
            assert!(!c.contains(&k));
        }
        // Root survives if its million differs.
        if oracle.million(0) != m {
            assert_eq!(c[0], 0);
        }
    }

    #[test]
    fn closure_att_sum_matches_closure() {
        let db = tiny();
        let oracle = Oracle::new(&db);
        let (sum, count) = oracle.closure_1n_att_sum(2);
        let closure = oracle.closure_1n(2);
        assert_eq!(count, closure.len());
        let expect: u64 = closure.iter().map(|&i| oracle.hundred(i) as u64).sum();
        assert_eq!(sum, expect);
    }

    #[test]
    fn start_level_adapts_to_shallow_databases() {
        let db = tiny(); // leaf level 2
        let oracle = Oracle::new(&db);
        assert_eq!(oracle.closure_start_level(), 1);
        let db4 = TestDatabase::generate(&GenConfig::level(4));
        let oracle4 = Oracle::new(&db4);
        assert_eq!(oracle4.closure_start_level(), 3);
        assert_eq!(oracle4.expected_closure_size(), 6);
    }
}
