//! The load verifier must pass on faithful loads and flag every class of
//! divergence a broken port could introduce.

use hypermodel::config::GenConfig;
use hypermodel::error::Result;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::protocol::{Request, Response};
use hypermodel::store::HyperStore;
use hypermodel::text::{VERSION_1, VERSION_2};
use hypermodel::verify::verify_store;
use mem_backend::MemStore;

fn loaded() -> (MemStore, TestDatabase, Vec<hypermodel::model::Oid>) {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut store = MemStore::new();
    let report = load_database(&mut store, &db).unwrap();
    (store, db, report.oids)
}

#[test]
fn faithful_load_verifies_clean() {
    let (mut store, db, oids) = loaded();
    let report = verify_store(&mut store, &db, &oids).unwrap();
    assert!(report.is_ok(), "{report}");
    assert_eq!(report.nodes_checked, db.len());
    assert!(report.relationship_checks > db.len() * 3);
    assert!(report.content_checks >= db.text_indices().len());
}

#[test]
fn attribute_corruption_is_flagged() {
    let (mut store, db, oids) = loaded();
    store.set_hundred(oids[7], 9999).unwrap();
    let report = verify_store(&mut store, &db, &oids).unwrap();
    assert!(!report.is_ok());
    assert!(
        report
            .errors
            .iter()
            .any(|e| e.contains("node 7") && e.contains("attribute")),
        "{report}"
    );
}

#[test]
fn content_corruption_is_flagged() {
    let (mut store, db, oids) = loaded();
    let ti = db.text_indices()[2];
    store
        .text_node_edit(oids[ti as usize], VERSION_1, VERSION_2)
        .unwrap();
    let report = verify_store(&mut store, &db, &oids).unwrap();
    assert!(
        report.errors.iter().any(|e| e.contains("text content")),
        "{report}"
    );
}

#[test]
fn structural_corruption_is_flagged() {
    let (mut store, db, oids) = loaded();
    // An extra dangling relationship: node 3 gains a 6th child.
    store.add_child(oids[3], oids[30]).unwrap();
    let report = verify_store(&mut store, &db, &oids).unwrap();
    assert!(!report.is_ok());
    assert!(
        report.errors.iter().any(|e| e.contains("children")),
        "{report}"
    );
}

#[test]
fn extra_reference_is_flagged() {
    let (mut store, db, oids) = loaded();
    store.add_ref(oids[5], oids[6], 1, 2).unwrap();
    let report = verify_store(&mut store, &db, &oids).unwrap();
    assert!(report.errors.iter().any(|e| e.contains("ref")), "{report}");
}

#[test]
fn wrong_oid_map_is_flagged() {
    let (mut store, db, mut oids) = loaded();
    oids.swap(10, 11);
    let report = verify_store(&mut store, &db, &oids).unwrap();
    assert!(!report.is_ok());
    // Truncated map is the early guard.
    let report = verify_store(&mut store, &db, &oids[..5]).unwrap();
    assert_eq!(report.errors.len(), 1);
    assert!(report.errors[0].contains("oid map"));
}

#[test]
fn error_cap_keeps_reports_bounded() {
    let (mut store, db, oids) = loaded();
    // Corrupt everything: flip every node's hundred.
    for &oid in &oids {
        let h = store.hundred_of(oid).unwrap();
        store.set_hundred(oid, h + 1000).unwrap();
    }
    let report = verify_store(&mut store, &db, &oids).unwrap();
    assert_eq!(
        report.errors.len(),
        hypermodel::verify::VerifyReport::MAX_ERRORS
    );
}

/// A store whose M-N closures lose their last node: every primitive is
/// intact, so only a check of the closure answers themselves can see it.
struct ShortClosureMn(MemStore);

impl hypermodel::Service for ShortClosureMn {
    fn call(&mut self, req: Request) -> Result<Response> {
        match req {
            Request::ClosureMN(start) => {
                let mut closure = self.0.closure_mn(start)?;
                closure.pop();
                Ok(Response::Oids(closure))
            }
            other => self.0.call(other),
        }
    }

    fn backend_name(&self) -> &'static str {
        "short-closure-mn"
    }
}

#[test]
fn closure_corruption_is_flagged() {
    let (store, db, oids) = loaded();
    let mut store = ShortClosureMn(store);
    let report = verify_store(&mut store, &db, &oids).unwrap();
    assert!(!report.is_ok());
    assert!(
        report.errors.iter().all(|e| e.contains("closureMN (O14)")),
        "{report}"
    );
}
