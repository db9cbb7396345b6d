//! The catalogue script: one call of every catalogue row, with inputs
//! taken from a loaded tiny database, so a store can be compared row by
//! row with a `MemStore` loaded the same way. `remote_conformance.rs`
//! checks that the script covers the catalogue, and runs it over the
//! wire; `shard`'s `catalogue_layers.rs` runs it through every middle
//! layer.

#![allow(dead_code)]

use hypermodel::bitmap::Bitmap;
use hypermodel::error::Result;
use hypermodel::generate::TestDatabase;
use hypermodel::migrate::NodeExport;
use hypermodel::model::{NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::protocol::{Reply, Response};
use hypermodel::store::{BatchWrite, HyperStore, Rel};
use mem_backend::MemStore;

/// What the steps call with: nodes of each shape, fresh values, and the
/// inputs a script cannot make up (a snapshot, an exported node).
pub struct Inputs {
    root: Oid,
    inner: Oid,
    leaf: Oid,
    text: Oid,
    form: Oid,
    frontier: [Oid; 2],
    /// The first two nodes the script creates.
    created: [Oid; 2],
    /// The exported node, once installed as a new record.
    installed: Oid,
    values: [NodeValue; 3],
    writes: Vec<BatchWrite>,
    bitmap: Bitmap,
    snapshot: Vec<u8>,
    batch: Vec<NodeExport>,
}

impl Inputs {
    /// The inputs for `db` loaded as `oids`, the snapshot and the export
    /// taken from `local`, which holds the same load.
    pub fn new(db: &TestDatabase, oids: &[Oid], local: &mut MemStore) -> Inputs {
        let kind = |k: NodeKind| {
            let at = db.nodes.iter().rposition(|n| n.value.kind == k).unwrap();
            oids[at]
        };
        let (root, inner, leaf) = (oids[0], oids[1], oids[db.len() - 1]);
        let fresh = |unique_id: u64| {
            let mut value = db.nodes[3].value.clone();
            value.attrs.unique_id = unique_id;
            value
        };
        let writes = vec![
            BatchWrite::Create {
                value: fresh(1005),
                near: Some(inner),
            },
            BatchWrite::Extra(fresh(1006)),
            BatchWrite::Child(leaf, inner),
            BatchWrite::Part(leaf, inner),
            BatchWrite::Ref(
                leaf,
                RefEdge {
                    target: inner,
                    offset_from: 2,
                    offset_to: 5,
                },
            ),
            BatchWrite::SetHundred(root, 7),
        ];
        // An exported node re-installed as a new record (after the five
        // creates of the script).
        let mut batch = local.export_nodes(&[leaf]).unwrap();
        batch[0].reuse = None;
        batch[0].value.attrs.unique_id = 1004;
        let next = db.len() as u64;
        Inputs {
            root,
            inner,
            leaf,
            text: kind(NodeKind::TEXT),
            form: kind(NodeKind::FORM),
            frontier: [root, inner],
            created: [Oid(next + 1), Oid(next + 2)],
            installed: Oid(next + 6),
            values: [fresh(1001), fresh(1002), fresh(1003)],
            writes,
            bitmap: Bitmap::white(7, 3),
            snapshot: local.sync_export().unwrap(),
            batch,
        }
    }
}

/// One step per catalogue row: the row's method name, and a call of the
/// method with its answer as the response that carries it.
pub type Step = (
    &'static str,
    fn(&mut dyn HyperStore, &Inputs) -> Result<Response>,
);

/// Every catalogue row once, in an order where each step's inputs exist:
/// reads, then writes, the commit family, and whole-store repair last.
pub fn script() -> Vec<Step> {
    macro_rules! steps {
        ($i:ident; $($name:ident($($arg:expr),*),)*) => {
            vec![$((
                stringify!($name),
                |s: &mut dyn HyperStore, $i: &Inputs| {
                    let _ = $i;
                    s.$name($($arg),*).map(Reply::into_response)
                },
            )),*]
        };
    }
    steps![i;
        lookup_unique(2),
        unique_id_of(i.inner),
        kind_of(i.text),
        ten_of(i.inner),
        hundred_of(i.inner),
        million_of(i.inner),
        set_hundred(i.inner, 42),
        range_hundred(10, 60),
        range_million(1, 500_000),
        children(i.root),
        parent(i.inner),
        parts(i.root),
        part_of(i.leaf),
        refs_to(i.inner),
        refs_from(i.inner),
        seq_scan_ten(),
        text_of(i.text),
        set_text(i.text, "version1 and version1"),
        form_of(i.form),
        set_form(i.form, &i.bitmap),
        create_node(&i.values[0]),
        create_node_clustered(&i.values[1], Some(i.inner)),
        add_child(i.leaf, i.created[0]),
        add_part(i.leaf, i.created[1]),
        add_ref(i.leaf, i.inner, 3, 9),
        insert_extra_node(&i.values[2]),
        commit(),
        cold_restart(),
        closure_1n(i.root),
        closure_1n_att_sum(i.root),
        closure_1n_att_set(i.inner),
        closure_1n_pred(i.root, 1, 500_000),
        closure_mn(i.root),
        closure_mnatt(i.inner, 4),
        closure_mnatt_linksum(i.inner, 4),
        text_node_edit(i.text, "version1", "version-2"),
        form_node_edit(i.form, 1, 1, 3, 2),
        hundred_batch(&i.frontier),
        expand(Rel::Children, &[(i.root, u32::MAX), (i.leaf, 1)], Some((1, 500_000))),
        write_batch(&i.writes),
        prepare_commit(900),
        commit_prepared(900),
        abort_prepared(901),
        sync_export(),
        export_nodes(&i.frontier),
        install_nodes(&i.batch),
        activate_nodes(&[i.installed]),
        retire_nodes(&[i.leaf]),
        sync_import(&i.snapshot),
    ]
}

/// A step's answer in a form two stores can be compared by: the rows
/// whose answer is a set (range lookups and the inverse relationships)
/// in id order, since a store returns a set in its own order.
pub fn canonical(name: &str, answer: Result<Response>) -> String {
    let set = matches!(
        name,
        "range_hundred" | "range_million" | "part_of" | "refs_from"
    );
    match answer {
        Ok(Response::Oids(mut v)) if set => {
            v.sort_unstable();
            format!("{:?}", Ok::<_, ()>(Response::Oids(v)))
        }
        Ok(Response::Edges(mut v)) if set => {
            v.sort_unstable_by_key(|e| (e.target, e.offset_from, e.offset_to));
            format!("{:?}", Ok::<_, ()>(Response::Edges(v)))
        }
        other => format!("{other:?}"),
    }
}
