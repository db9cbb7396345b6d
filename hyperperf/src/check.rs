//! The correctness gate: every operation's result is compared with the
//! generator-side [`Oracle`], which shares no code with the stores.

use std::collections::HashMap;
use std::fmt::Debug;

use harness::input::{OpInput, Workload};
use hypermodel::error::Result;
use hypermodel::model::{Content, Oid, RefEdge};
use hypermodel::ops::OpId;
use hypermodel::oracle::Oracle;
use hypermodel::store::HyperStore;
use hypermodel::text::{substitute, VERSION_1, VERSION_2};

use crate::workloads::Group;

/// Operations attempted and failed. A mismatch with the oracle, an
/// error, or a missing result each count as one failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks run.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    const MAX_MESSAGES: usize = 8;

    /// Count one attempt; `what` is rendered only on failure.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < Self::MAX_MESSAGES {
                self.messages.push(what());
            }
        }
    }

    /// Count one attempt that passes when `got` is `Ok(expected)`.
    pub fn expect<T: PartialEq + Debug>(&mut self, what: &str, expected: &T, got: Result<T>) {
        let ok = got.as_ref().is_ok_and(|g| g == expected);
        self.record(ok, || match got {
            Ok(g) => format!("{what}: expected {expected:?}, got {g:?}"),
            Err(e) => format!("{what}: {e}"),
        });
    }

    /// True when nothing failed and something ran.
    pub fn is_correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Node index ↔ object id, both ways.
pub struct Ids {
    /// `oids[i]` is the object id of node index `i`.
    pub oids: Vec<Oid>,
    index: HashMap<Oid, u32>,
}

impl Ids {
    /// Index the oid map a load returned.
    pub fn new(oids: Vec<Oid>) -> Ids {
        let index = oids
            .iter()
            .enumerate()
            .map(|(i, &o)| (o, i as u32))
            .collect();
        Ids { oids, index }
    }

    /// The node index of `oid`; an id the load never issued maps to
    /// `u32::MAX`, which no oracle result contains.
    pub fn idx(&self, oid: Oid) -> u32 {
        self.index.get(&oid).copied().unwrap_or(u32::MAX)
    }

    fn idxs(&self, oids: &[Oid]) -> Vec<u32> {
        oids.iter().map(|&o| self.idx(o)).collect()
    }

    fn sorted_idxs(&self, oids: &[Oid]) -> Vec<u32> {
        let mut v = self.idxs(oids);
        v.sort_unstable();
        v
    }

    fn edges(&self, edges: &[RefEdge]) -> Vec<(u32, u8, u8)> {
        let mut v: Vec<_> = edges
            .iter()
            .map(|e| (self.idx(e.target), e.offset_from, e.offset_to))
            .collect();
        v.sort_unstable();
        v
    }
}

/// One operation's inputs for a segment, with the node count the oracle
/// says each must return.
pub struct Case {
    /// The operation.
    pub op: OpId,
    /// Its inputs, reused every round (§6: the warm run repeats the cold
    /// run's inputs).
    pub inputs: Vec<OpInput>,
    /// `expect[i]` is what `execute_once` must return for `inputs[i]`.
    pub expect: Vec<u64>,
}

/// The million-range the harness derives from the repetition index for
/// O13 (`harness::protocol::execute_once`).
fn pred_range(rep: usize) -> (u32, u32) {
    let lo = (rep as u32 % 99) * 10_000 + 1;
    (lo, lo + 9999)
}

fn input_idx(ids: &Ids, input: OpInput) -> u32 {
    match input {
        OpInput::Node(oid) => ids.idx(oid),
        OpInput::Uid(uid) => (uid - 1) as u32,
        OpInput::Range(..) | OpInput::None => 0,
    }
}

/// A lookup is the cheapest operation and the one whose cost varies
/// most with the node drawn, so it gets this many times the inputs of
/// the other read operations.
pub const LOOKUP_FACTOR: usize = 4;

/// Draw the inputs of all 20 operations. O9 keeps the harness's two
/// repetitions.
pub fn draw_inputs(
    workload: &mut Workload,
    read_inputs: usize,
    edit_inputs: usize,
) -> Vec<(OpId, Vec<OpInput>)> {
    OpId::ALL
        .iter()
        .map(|&op| {
            let reps = match (op, Group::of(op)) {
                (OpId::SeqScan, _) => 2.min(read_inputs),
                (_, Group::Edit) => edit_inputs,
                (_, Group::Lookup) => read_inputs * LOOKUP_FACTOR,
                _ => read_inputs,
            };
            (op, workload.inputs_for(op, reps))
        })
        .collect()
}

/// Attach to each drawn input the node count the oracle expects.
pub fn plan_cases(drawn: Vec<(OpId, Vec<OpInput>)>, oracle: &Oracle, ids: &Ids) -> Vec<Case> {
    drawn
        .into_iter()
        .map(|(op, inputs)| {
            let expect = inputs
                .iter()
                .enumerate()
                .map(|(rep, &input)| expected_count(oracle, ids, op, input, rep))
                .collect();
            Case { op, inputs, expect }
        })
        .collect()
}

fn expected_count(oracle: &Oracle, ids: &Ids, op: OpId, input: OpInput, rep: usize) -> u64 {
    let i = input_idx(ids, input);
    let len = |n: usize| n as u64;
    match op {
        OpId::NameLookup | OpId::NameOidLookup | OpId::TextNodeEdit | OpId::FormNodeEdit => 1,
        OpId::RangeLookupHundred | OpId::RangeLookupMillion => {
            let OpInput::Range(lo, hi) = input else {
                return 0;
            };
            if op == OpId::RangeLookupHundred {
                len(oracle.range_hundred(lo, hi).len())
            } else {
                len(oracle.range_million(lo, hi).len())
            }
        }
        OpId::GroupLookup1N => len(oracle.children(i).len()),
        OpId::GroupLookupMN => len(oracle.parts(i).len()),
        OpId::GroupLookupMNAtt => len(oracle.ref_to(i).len()),
        OpId::RefLookup1N => u64::from(oracle.parent(i).is_some()),
        OpId::RefLookupMN => len(oracle.part_of(i).len()),
        OpId::RefLookupMNAtt => len(oracle.ref_from(i).len().max(1)),
        OpId::SeqScan => oracle.seq_scan_count(),
        OpId::Closure1N | OpId::Closure1NAttSum | OpId::Closure1NAttSet => {
            len(oracle.closure_1n(i).len())
        }
        OpId::Closure1NPred => {
            let (lo, hi) = pred_range(rep);
            len(oracle.closure_1n_pred(i, lo, hi).len().max(1))
        }
        OpId::ClosureMN => len(oracle.closure_mn(i).len()),
        OpId::ClosureMNAtt | OpId::ClosureMNAttLinkSum => {
            len(oracle.closure_mnatt(i, OpId::MNATT_DEPTH).len())
        }
    }
}

/// Compare the ids and values each read operation returns with the
/// oracle, input by input. Runs outside the timed phase: `execute_once`
/// reports only a count, so this is where contents are checked.
pub fn check_results(
    store: &mut dyn HyperStore,
    oracle: &Oracle,
    ids: &Ids,
    case: &Case,
    tally: &mut Tally,
) {
    let op = case.op;
    for (rep, &input) in case.inputs.iter().enumerate() {
        let what = format!("{} {input:?}", op.code());
        let i = input_idx(ids, input);
        let oid = ids.oids.get(i as usize).copied().unwrap_or(Oid(0));
        match op {
            OpId::NameLookup => {
                let OpInput::Uid(uid) = input else { continue };
                tally.expect(&what, &oid, store.lookup_unique(uid));
                tally.expect(&what, &oracle.hundred(i), store.hundred_of(oid));
            }
            OpId::NameOidLookup => tally.expect(&what, &oracle.hundred(i), store.hundred_of(oid)),
            OpId::RangeLookupHundred | OpId::RangeLookupMillion => {
                let OpInput::Range(lo, hi) = input else {
                    continue;
                };
                let (want, got) = if op == OpId::RangeLookupHundred {
                    (oracle.range_hundred(lo, hi), store.range_hundred(lo, hi))
                } else {
                    (oracle.range_million(lo, hi), store.range_million(lo, hi))
                };
                tally.expect(&what, &want, got.map(|v| ids.sorted_idxs(&v)));
            }
            OpId::GroupLookup1N => tally.expect(
                &what,
                &oracle.children(i),
                store.children(oid).map(|v| ids.idxs(&v)),
            ),
            OpId::GroupLookupMN => {
                let mut want = oracle.parts(i);
                want.sort_unstable();
                tally.expect(&what, &want, store.parts(oid).map(|v| ids.sorted_idxs(&v)));
            }
            OpId::GroupLookupMNAtt => tally.expect(
                &what,
                &oracle.ref_to(i),
                store.refs_to(oid).map(|e| ids.edges(&e)),
            ),
            OpId::RefLookup1N => tally.expect(
                &what,
                &oracle.parent(i),
                store.parent(oid).map(|p| p.map(|p| ids.idx(p))),
            ),
            OpId::RefLookupMN => tally.expect(
                &what,
                &oracle.part_of(i),
                store.part_of(oid).map(|v| ids.sorted_idxs(&v)),
            ),
            OpId::RefLookupMNAtt => tally.expect(
                &what,
                &oracle.ref_from(i),
                store.refs_from(oid).map(|e| ids.edges(&e)),
            ),
            OpId::SeqScan => tally.expect(&what, &oracle.seq_scan_count(), store.seq_scan_ten()),
            OpId::Closure1N => tally.expect(
                &what,
                &oracle.closure_1n(i),
                store.closure_1n(oid).map(|v| ids.idxs(&v)),
            ),
            OpId::Closure1NAttSum => tally.expect(
                &what,
                &oracle.closure_1n_att_sum(i),
                store.closure_1n_att_sum(oid),
            ),
            OpId::Closure1NPred => {
                let (lo, hi) = pred_range(rep);
                tally.expect(
                    &what,
                    &oracle.closure_1n_pred(i, lo, hi),
                    store.closure_1n_pred(oid, lo, hi).map(|v| ids.idxs(&v)),
                );
            }
            OpId::ClosureMN => {
                let mut want = oracle.closure_mn(i);
                want.sort_unstable();
                tally.expect(
                    &what,
                    &want,
                    store.closure_mn(oid).map(|v| ids.sorted_idxs(&v)),
                );
            }
            OpId::ClosureMNAtt => tally.expect(
                &what,
                &oracle.closure_mnatt(i, OpId::MNATT_DEPTH),
                store
                    .closure_mnatt(oid, OpId::MNATT_DEPTH)
                    .map(|v| ids.idxs(&v)),
            ),
            OpId::ClosureMNAttLinkSum => tally.expect(
                &what,
                &oracle.closure_mnatt_linksum(i, OpId::MNATT_DEPTH),
                store
                    .closure_mnatt_linksum(oid, OpId::MNATT_DEPTH)
                    .map(|v| v.iter().map(|&(o, d)| (ids.idx(o), d)).collect::<Vec<_>>()),
            ),
            // Edits are checked by the state they leave: `check_edited`.
            OpId::Closure1NAttSet | OpId::TextNodeEdit | OpId::FormNodeEdit => {}
        }
    }
}

/// The text `textNodeEdit` leaves in node `idx` after a forward pass.
pub fn edited_text(oracle: &Oracle, idx: u32) -> String {
    substitute(oracle.text(idx), VERSION_1, VERSION_2).0
}

/// After one forward pass over an edit case, check that the store holds
/// exactly what the oracle says the edits produce.
pub fn check_edited(
    store: &mut dyn HyperStore,
    oracle: &Oracle,
    ids: &Ids,
    case: &Case,
    tally: &mut Tally,
) {
    let starts: Vec<u32> = case.inputs.iter().map(|&i| input_idx(ids, i)).collect();
    match case.op {
        OpId::Closure1NAttSet => {
            // A node is flipped once per input whose closure holds it.
            let mut flips: HashMap<u32, u32> = HashMap::new();
            for &s in &starts {
                for n in oracle.closure_1n(s) {
                    *flips.entry(n).or_default() += 1;
                }
            }
            for (n, count) in flips {
                let h = oracle.hundred(n);
                let want = if count % 2 == 1 {
                    99u32.wrapping_sub(h)
                } else {
                    h
                };
                tally.expect(
                    &format!("O12 hundred of node {n}"),
                    &want,
                    store.hundred_of(ids.oids[n as usize]),
                );
            }
        }
        OpId::TextNodeEdit => {
            for &s in &starts {
                tally.expect(
                    &format!("O16 text of node {s}"),
                    &edited_text(oracle, s),
                    store.text_of(ids.oids[s as usize]),
                );
            }
        }
        OpId::FormNodeEdit => {
            // §6.7: every repetition inverts the same node.
            let Some(&s) = starts.first() else { return };
            let Content::Form(original) = &oracle.db().nodes[s as usize].value.content else {
                tally.record(false, || format!("O17 input {s} is not a form node"));
                return;
            };
            let mut want = original.clone();
            if starts.len() % 2 == 1 {
                want.invert_rect(25, 25, 50, 50);
            }
            tally.expect(
                &format!("O17 form of node {s}"),
                &want,
                store.form_of(ids.oids[s as usize]),
            );
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermodel::config::GenConfig;
    use hypermodel::generate::TestDatabase;
    use hypermodel::load::load_database;
    use mem_backend::MemStore;

    /// A loaded store, its database, and cases of `reads` + `edits` inputs.
    fn loaded(reads: usize, edits: usize) -> (MemStore, TestDatabase, Ids, Vec<Case>) {
        let db = TestDatabase::generate(&GenConfig::level(3));
        let mut store = MemStore::new();
        let ids = Ids::new(load_database(&mut store, &db).expect("load").oids);
        let mut workload = Workload::new(db, ids.oids.clone(), 5);
        let drawn = draw_inputs(&mut workload, reads, edits);
        let cases = plan_cases(drawn, &Oracle::new(&workload.db), &ids);
        (store, workload.db, ids, cases)
    }

    #[test]
    fn a_correct_store_passes_every_check() {
        let (mut store, db, ids, cases) = loaded(6, 3);
        let oracle = Oracle::new(&db);
        let mut tally = Tally::default();
        for case in &cases {
            check_results(&mut store, &oracle, &ids, case, &mut tally);
            for (rep, &input) in case.inputs.iter().enumerate() {
                let got = harness::protocol::execute_once(&mut store, case.op, input, rep, true);
                tally.expect(case.op.code(), &case.expect[rep], got);
            }
            check_edited(&mut store, &oracle, &ids, case, &mut tally);
        }
        assert!(tally.is_correct(), "{:?}", tally.messages);
        assert!(tally.attempted > 100);
    }

    #[test]
    fn a_wrong_expected_value_fails_the_gate() {
        let (mut store, _db, _ids, mut cases) = loaded(4, 2);
        let closure = cases
            .iter_mut()
            .find(|c| c.op == OpId::Closure1N)
            .expect("O10 planned");
        closure.expect[0] += 1; // the deliberately broken oracle value
        let mut tally = Tally::default();
        for (rep, &input) in closure.inputs.iter().enumerate() {
            let got = harness::protocol::execute_once(&mut store, closure.op, input, rep, true);
            tally.expect("O10", &closure.expect[rep], got);
        }
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert!(!tally.is_correct());
        assert!(tally.messages[0].starts_with("O10: expected"));
    }

    #[test]
    fn a_store_that_lost_an_edit_fails_the_state_check() {
        let (mut store, db, ids, cases) = loaded(2, 3);
        let oracle = Oracle::new(&db);
        let text = cases
            .iter()
            .find(|c| c.op == OpId::TextNodeEdit)
            .expect("O16 planned");
        // No edit was applied, so the store still holds version1 text.
        let mut tally = Tally::default();
        check_edited(&mut store, &oracle, &ids, text, &mut tally);
        assert!(tally.failed > 0);
    }
}
