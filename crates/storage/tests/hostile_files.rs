//! Hostile files: a committed database whose log has bytes flipped, is cut
//! short or has garbage appended is opened, and one whose file has a page
//! mutated has that page fetched. Each returns `Ok` or a `StorageError`;
//! none panics. The files live in memory (`fake_fs`).

mod fake_fs;

use fake_fs::{FakeFs, Files};
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;
use storage::engine::{wal_path_for, Engine};
use storage::heap::HeapFile;
use storage::{PageId, PAGE_SIZE};

const FRAMES: usize = 64;

fn db_path() -> &'static Path {
    Path::new("hostile.db")
}

/// A database of a few pages whose log holds zero-based and delta
/// records, a two-phase commit and an abort: its files after a crash, and
/// after a checkpoint.
fn committed() -> &'static [Files; 2] {
    static FILES: OnceLock<[Files; 2]> = OnceLock::new();
    FILES.get_or_init(|| {
        let fs = FakeFs::default();
        let mut e = Engine::create_in(&fs, db_path(), FRAMES).unwrap();
        let mut heap = HeapFile::create(e.pool()).unwrap();
        e.catalog_set("heap", heap.first_page().0).unwrap();
        let mut rids = Vec::new();
        for n in 0..200u32 {
            rids.push(heap.insert(e.pool(), &n.to_le_bytes().repeat(20)).unwrap());
        }
        e.commit().unwrap();
        for (n, &rid) in rids.iter().enumerate().step_by(7) {
            heap.update(e.pool(), rid, &[n as u8; 80]).unwrap();
            e.commit().unwrap();
        }
        heap.update(e.pool(), rids[3], b"prepared").unwrap();
        e.prepare(1).unwrap();
        e.commit_prepared(1).unwrap();
        heap.update(e.pool(), rids[4], b"aborted").unwrap();
        e.prepare(2).unwrap();
        e.abort_prepared(2).unwrap();
        let crashed = fs.files();
        e.checkpoint().unwrap();
        [crashed, fs.files()]
    })
}

#[derive(Debug, Clone)]
enum Mutation {
    /// XOR these bytes in at these offsets (taken modulo the length).
    Flip(Vec<(usize, u8)>),
    /// Keep this many bytes (modulo the length).
    Cut(usize),
    Append(Vec<u8>),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        proptest::collection::vec((any::<usize>(), 1u8..=255), 1..8).prop_map(Mutation::Flip),
        any::<usize>().prop_map(Mutation::Cut),
        proptest::collection::vec(any::<u8>(), 1..64).prop_map(Mutation::Append),
    ]
}

fn mutate(bytes: &mut Vec<u8>, mutation: &Mutation) {
    match mutation {
        Mutation::Flip(flips) => {
            for &(at, xor) in flips {
                let len = bytes.len();
                bytes[at % len] ^= xor;
            }
        }
        Mutation::Cut(keep) => bytes.truncate(keep % bytes.len()),
        Mutation::Append(garbage) => bytes.extend_from_slice(garbage),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_mutated_log_opens_or_is_refused(mutation in arb_mutation()) {
        let [crashed, _] = committed();
        let fs = FakeFs::with_files(crashed.to_vec());
        let wal = wal_path_for(db_path());
        let mut log = fs.file(&wal).unwrap();
        mutate(&mut log, &mutation);
        fs.put_file(&wal, log);
        // Ok or Err; a panic fails the property.
        let _ = Engine::open_in(&fs, db_path(), FRAMES);
    }

    #[test]
    fn a_mutated_page_is_fetched_or_refused(page in any::<usize>(), mutation in arb_mutation()) {
        // After the checkpoint the log is empty and the file is what the
        // pool reads.
        let [_, checkpointed] = committed();
        let fs = FakeFs::with_files(checkpointed.to_vec());
        let mut bytes = fs.file(db_path()).unwrap();
        let pages = bytes.len() / PAGE_SIZE;
        let page = page % pages;
        let mut image = bytes[page * PAGE_SIZE..(page + 1) * PAGE_SIZE].to_vec();
        mutate(&mut image, &mutation);
        // A page cut short or grown keeps its slot: the rest is zeros or
        // dropped.
        image.resize(PAGE_SIZE, 0);
        bytes[page * PAGE_SIZE..(page + 1) * PAGE_SIZE].copy_from_slice(&image);
        fs.put_file(db_path(), bytes);
        if let Ok((mut engine, _)) = Engine::open_in(&fs, db_path(), FRAMES) {
            let _ = engine.pool().page(PageId(page as u64));
        }
    }
}
