//! A replica group starts no threads: a replicated sharded store runs one
//! executor worker per logical shard and none per member. The one test
//! lives in its own binary, so no sibling test starts an executor while
//! it counts threads.
#![cfg(target_os = "linux")]

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mem_backend::MemStore;
use shard::{Placement, ShardedStore};

/// Every thread of this process: task id → name.
fn threads() -> BTreeMap<String, String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|task| {
            let task = task.unwrap().path();
            let name = std::fs::read_to_string(task.join("comm")).unwrap_or_default();
            let tid = task.file_name().unwrap().to_string_lossy().into_owned();
            (tid, name.trim_end().to_string())
        })
        .collect()
}

#[test]
fn a_replicated_store_adds_one_worker_per_shard_and_none_per_member() {
    let before = threads();
    let members = (0..4).map(|_| MemStore::new()).collect();
    let store = ShardedStore::new_replicated(members, 2, Placement::OidHash, "sharded-mem");

    // A new thread names itself once it runs: wait until every new one
    // has, then count them.
    let deadline = Instant::now() + Duration::from_secs(10);
    let added = loop {
        let added: Vec<String> = threads()
            .into_iter()
            .filter(|(tid, _)| !before.contains_key(tid))
            .map(|(_, name)| name)
            .collect();
        if added.iter().all(|n| n.starts_with("shard-exec-")) || Instant::now() > deadline {
            break added;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(added.len(), 2, "threads added: {added:?}");
    assert!(
        added.iter().all(|n| n.starts_with("shard-exec-")),
        "threads added: {added:?}"
    );
    drop(store);
}
