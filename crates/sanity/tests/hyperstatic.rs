//! End-to-end tests for the `hyperstatic` binary: the real workspace
//! must analyze clean, and a seeded
//! violation of each static rule must fail the run with a
//! `file:line`-addressed finding carrying the full call chain.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Empty stubs for the dispatch roots `hyperstatic` expects in `file`
/// (every configured root must exist), minus `except`.
fn root_stubs(file: &str, except: &str) -> String {
    sanity::static_graph::PANIC_ROOTS
        .iter()
        .filter(|(f, name)| *f == file && *name != except)
        .map(|(_, name)| format!("pub fn {name}() {{}}\n"))
        .collect()
}

const SERVER_RS: &str = "crates/server/src/server.rs";

/// `body` (which defines `dispatch`) followed by stubs for the other
/// roots of server.rs, so line numbers in `body` stay put.
fn server_rs(body: &str) -> String {
    format!("{body}{}", root_stubs(SERVER_RS, "dispatch"))
}

/// A minimal seeded workspace with nothing to report.
fn seed_tree(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("hyperstatic-seed-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    write(&root, "Cargo.toml", "[workspace]\nmembers = []\n");
    for (file, _) in sanity::static_graph::PANIC_ROOTS {
        write(&root, file, &root_stubs(file, ""));
    }
    write(
        &root,
        "crates/shard/src/store.rs",
        "pub fn get(v: Option<u32>) -> u32 {\n    v.unwrap_or(0)\n}\n",
    );
    root
}

fn write(root: &Path, rel: &str, body: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    std::fs::write(path, body).expect("write seed file");
}

fn run(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hyperstatic"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run hyperstatic");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

#[test]
fn real_workspace_is_clean() {
    let (code, text) = run(&workspace_root(), &[]);
    assert_eq!(code, 0, "hyperstatic should be clean at HEAD:\n{text}");
    assert!(
        text.contains("hyperstatic: clean"),
        "unexpected output:\n{text}"
    );
}

#[test]
fn clean_seed_tree_reports_nothing() {
    let root = seed_tree("clean");
    let (code, text) = run(&root, &[]);
    assert_eq!(code, 0, "clean tree must pass:\n{text}");
}

#[test]
fn transitive_lock_across_send_is_reported_with_chain() {
    let root = seed_tree("lock-send");
    write(
        &root,
        "crates/shard/src/store.rs",
        "pub struct Store;\n\
         impl Store {\n\
             pub fn outer(&self) {\n\
                 let g = self.m.lock();\n\
                 self.forward();\n\
             }\n\
             pub fn forward(&self) {\n\
                 self.tx.send(1);\n\
             }\n\
         }\n",
    );
    let (code, text) = run(&root, &[]);
    assert_eq!(code, 1, "seeded hazard must fail:\n{text}");
    assert!(
        text.contains("[lock-across-blocking]"),
        "wrong rule:\n{text}"
    );
    // The finding is addressed at the call site and carries the full
    // chain down to the blocking primitive, every hop file:line'd.
    assert!(
        text.contains("crates/shard/src/store.rs:5"),
        "missing call site:\n{text}"
    );
    assert!(
        text.contains("lock `Store.m` (acquired at crates/shard/src/store.rs:4)"),
        "missing acquisition site:\n{text}"
    );
    assert!(
        text.contains("Store::outer -> `send` at crates/shard/src/store.rs:8"),
        "missing blocking chain:\n{text}"
    );
}

#[test]
fn static_lock_order_cycle_is_reported_with_both_sites() {
    let root = seed_tree("cycle");
    write(
        &root,
        "crates/shard/src/store.rs",
        "pub struct P;\n\
         impl P {\n\
             pub fn ab(&self) {\n\
                 let g = self.a.lock();\n\
                 let h = self.b.lock();\n\
                 drop(h);\n\
                 drop(g);\n\
             }\n\
             pub fn ba(&self) {\n\
                 let h = self.b.lock();\n\
                 let g = self.a.lock();\n\
                 drop(g);\n\
                 drop(h);\n\
             }\n\
         }\n",
    );
    let (code, text) = run(&root, &[]);
    assert_eq!(code, 1, "seeded cycle must fail:\n{text}");
    assert!(text.contains("[static-lock-cycle]"), "wrong rule:\n{text}");
    assert!(
        text.contains("P.a") && text.contains("P.b"),
        "lock names:\n{text}"
    );
    // Both directions are cited with their acquisition sites.
    assert!(
        text.contains("crates/shard/src/store.rs:5")
            && text.contains("crates/shard/src/store.rs:11"),
        "missing cycle leg sites:\n{text}"
    );
}

/// The panic fixture: a dispatch root reaching an `unwrap` two calls
/// down. Used by several tests below.
fn panic_tree(tag: &str) -> PathBuf {
    let root = seed_tree(tag);
    write(
        &root,
        SERVER_RS,
        &server_rs(
            "pub fn dispatch(req: u32) -> u32 {\n\
                 helper(req)\n\
             }\n\
             fn helper(v: u32) -> u32 {\n\
                 decode(v).unwrap()\n\
             }\n\
             fn decode(v: u32) -> Option<u32> {\n\
                 Some(v)\n\
             }\n",
        ),
    );
    root
}

#[test]
fn panic_reachable_from_dispatch_is_reported_with_chain() {
    let (code, text) = run(&panic_tree("panic"), &[]);
    assert_eq!(code, 1, "seeded panic path must fail:\n{text}");
    assert!(text.contains("[panic-path]"), "wrong rule:\n{text}");
    assert!(
        text.contains("`unwrap` at crates/server/src/server.rs:5"),
        "missing panic site:\n{text}"
    );
    assert!(
        text.contains("dispatch (crates/server/src/server.rs:2) -> helper"),
        "missing call chain:\n{text}"
    );
}

const CLIENT_RS: &str = "crates/server/src/client.rs";

#[test]
fn panic_under_generated_client_stubs_is_reported_through_rpc() {
    // The shape of the real client: the store methods come out of a
    // macro (no `fn kind_of` in the text for `dispatch` to link to) and
    // all funnel into `rpc`, which picks the reply decoder through a
    // generic parameter.
    let root = seed_tree("rpc-root");
    write(
        &root,
        CLIENT_RS,
        "impl RemoteStore {\n\
             fn call(&mut self, req: Request) -> Response {\n\
                 self.round_trip(None)\n\
             }\n\
             fn round_trip(&mut self, t: Option<u32>) -> Response {\n\
                 panic!(\"seeded\")\n\
             }\n\
             fn rpc<T: Reply>(&mut self, req: Request) -> T {\n\
                 T::from_response(self.call(req))\n\
             }\n\
         }\n\
         impl Reply for u32 {\n\
             fn from_response(resp: Response) -> u32 {\n\
                 resp.value().unwrap()\n\
             }\n\
         }\n\
         impl HyperStore for RemoteStore {\n\
             hypermodel::store_ops!(remote_methods);\n\
         }\n",
    );
    let (code, text) = run(&root, &[]);
    assert_eq!(code, 1, "seeded panics must fail:\n{text}");
    assert!(
        text.contains("`panic!` at crates/server/src/client.rs:6")
            && text.contains(
                "RemoteStore::rpc (crates/server/src/client.rs:9) -> \
                 RemoteStore::call (crates/server/src/client.rs:3) -> RemoteStore::round_trip"
            ),
        "client call path not under the gate:\n{text}"
    );
    assert!(
        text.contains("`unwrap` at crates/server/src/client.rs:14")
            && text
                .contains("RemoteStore::rpc (crates/server/src/client.rs:9) -> u32::from_response"),
        "`T::from_response(` must link to the impls:\n{text}"
    );
}

#[test]
fn real_client_round_trip_is_under_the_panic_gate() {
    // The workspace's own client.rs with a panic planted in
    // `round_trip`: whatever shape the stubs above it take, the one
    // place a request crosses the wire must stay reachable from a root.
    let real = std::fs::read_to_string(workspace_root().join(CLIENT_RS)).expect("client.rs");
    let at = real.find("fn round_trip(").expect("round_trip exists");
    let body = at + real[at..].find("{\n").expect("round_trip body") + 2;
    let planted = format!("{}panic!(\"seeded\");\n{}", &real[..body], &real[body..]);
    let root = seed_tree("real-client");
    write(&root, CLIENT_RS, &planted);
    let (code, text) = run(&root, &[]);
    assert_eq!(code, 1, "planted panic must fail:\n{text}");
    assert!(
        text.contains("[panic-path] `panic!`") && text.contains("-> RemoteStore::round_trip"),
        "round_trip left the gate:\n{text}"
    );
}

#[test]
fn allow_marker_suppresses_and_unused_marker_warns() {
    let root = seed_tree("allows");
    write(
        &root,
        SERVER_RS,
        &server_rs(
            "pub fn dispatch(req: u32) -> u32 {\n\
                 helper(req)\n\
             }\n\
             fn helper(v: u32) -> u32 {\n\
                 // lint:allow(panic-path)\n\
                 decode(v).unwrap()\n\
             }\n\
             // lint:allow(panic-path)\n\
             fn decode(v: u32) -> Option<u32> {\n\
                 Some(v)\n\
             }\n",
        ),
    );
    let (code, text) = run(&root, &[]);
    assert_eq!(code, 0, "allowed finding must not fail:\n{text}");
    assert!(
        text.contains("[unused-allow]") && text.contains("server.rs:8"),
        "stray marker must warn:\n{text}"
    );
    let (code, text) = run(&root, &["--strict-allows"]);
    assert_eq!(code, 1, "--strict-allows must promote the warning:\n{text}");
}

#[test]
fn renamed_dispatch_root_fails_instead_of_silently_losing_coverage() {
    // `dispatch` renamed: the panic below it is no longer reachable from
    // any root, so without the dead-root check the run would be clean.
    let root = seed_tree("dead-root");
    write(
        &root,
        SERVER_RS,
        &server_rs(
            "pub fn dispatch_v2(req: u32) -> u32 {\n\
                 Some(req).unwrap()\n\
             }\n",
        ),
    );
    let (code, text) = run(&root, &[]);
    assert_eq!(code, 1, "dead root must fail:\n{text}");
    assert!(
        text.contains("crates/server/src/server.rs")
            && text.contains("dispatch root `dispatch` matches no function"),
        "missing dead-root report:\n{text}"
    );
}

#[test]
fn graph_json_exports_static_lock_edges() {
    let root = seed_tree("graph");
    write(
        &root,
        "crates/shard/src/store.rs",
        "pub struct P;\n\
         impl P {\n\
             pub fn ab(&self) {\n\
                 let g = self.a.lock();\n\
                 let h = self.b.lock();\n\
                 drop(h);\n\
             }\n\
         }\n",
    );
    let out = root.join("graph.json");
    let (code, text) = run(&root, &["--graph-json", out.to_str().expect("utf8 path")]);
    assert_eq!(code, 0, "acyclic nesting is not a finding:\n{text}");
    let json = std::fs::read_to_string(&out).expect("graph json written");
    assert!(
        json.contains("\"from\":\"P.a\"") && json.contains("\"to\":\"P.b\""),
        "edge missing: {json}"
    );
    assert!(
        json.contains("crates/shard/src/store.rs:4")
            && json.contains("crates/shard/src/store.rs:5"),
        "edge sites missing: {json}"
    );
}
