//! `BackendSpec`: the grammar round-trips, refuses what it refused as
//! hyperbench's private parser, and every small legal composition
//! deploys, passes the oracle sweep and cleans up after itself.

use harness::backend::{BackendSpec, DbFiles, PlacementKind, ShardKind};
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::verify::verify_store;

/// Every spec value with at most `max_n` shards and `max_k` mirrors whose
/// spelling parses.
fn legal_specs(max_n: usize, max_k: usize) -> Vec<BackendSpec> {
    let mut candidates = vec![
        BackendSpec::Mem,
        BackendSpec::Disk,
        BackendSpec::Rel,
        BackendSpec::Remote,
    ];
    for shards in [ShardKind::Mem, ShardKind::Disk, ShardKind::Tcp] {
        for n in 1..=max_n {
            for k in 1..=max_k {
                for placement in [PlacementKind::Hash, PlacementKind::Affinity] {
                    candidates.push(BackendSpec::Sharded {
                        shards,
                        n,
                        k,
                        placement,
                    });
                }
            }
        }
    }
    candidates
        .into_iter()
        .filter(|s| s.to_string().parse::<BackendSpec>().is_ok())
        .collect()
}

#[test]
fn every_legal_spec_round_trips_in_any_suffix_order() {
    let legal = legal_specs(64, 8);
    // 4 single stores, 64 × 8 × 2 for each of mem and tcp, 64 × 2 for disk.
    assert_eq!(legal.len(), 4 + 2 * 64 * 8 * 2 + 64 * 2);
    for spec in legal {
        let text = spec.to_string();
        assert_eq!(text.parse(), Ok(spec), "{text}");
        if let BackendSpec::Sharded {
            shards,
            n,
            k,
            placement,
        } = spec
        {
            // The longest spelling, suffixes reversed, means the same.
            let placement = match placement {
                PlacementKind::Hash => "hash",
                PlacementKind::Affinity => "affinity",
            };
            let long = match shards {
                ShardKind::Disk => format!("sharded-{shards}:{n}:{placement}"),
                _ => format!("sharded-{shards}:{n}:{placement}:r{k}"),
            };
            assert_eq!(long.parse(), Ok(spec), "{long}");
        }
    }
    for pinned in [
        "sharded-mem:4",
        "sharded-tcp:4",
        "sharded-tcp:2:r2",
        "sharded-disk:3",
    ] {
        assert_eq!(
            pinned.parse::<BackendSpec>().map(|s| s.to_string()),
            Ok(pinned.to_string())
        );
    }
}

#[test]
fn refusals_keep_their_messages() {
    let unknown = |spec: &str| {
        format!(
            "unknown backend {spec} (use mem|disk|rel|remote|sharded-mem:N[:rK][:hash|:affinity]|sharded-disk:N[:hash|:affinity]|sharded-tcp:N[:rK][:hash|:affinity]|all)"
        )
    };
    let table = [
        (
            "sharded-disk:2:r2",
            "backend sharded-disk:2:r2: replication needs a backend with `sync_export`; only mem mirrors have one".to_string(),
        ),
        ("sharded-rel:2", unknown("sharded-rel:2")),
        ("sharded-mem:0", unknown("sharded-mem:0")),
        ("sharded-mem:65", unknown("sharded-mem:65")),
        ("sharded-mem:2:r9", unknown("sharded-mem:2:r9")),
        (
            "sharded-mem:2:r2:r2",
            "backend sharded-mem:2:r2:r2: replication factor given twice".to_string(),
        ),
        (
            "sharded-mem:2:hash:affinity",
            unknown("sharded-mem:2:hash:affinity"),
        ),
        ("sharded-mem:2:foo", unknown("sharded-mem:2:foo")),
        ("sharded-mem:2:", unknown("sharded-mem:2:")),
        ("mem:2", unknown("mem:2")),
    ];
    for (spec, message) in table {
        assert_eq!(spec.parse::<BackendSpec>(), Err(message), "{spec}");
    }

    // A spec built in code meets the same refusals before anything starts.
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mirrored_disk = BackendSpec::Sharded {
        shards: ShardKind::Disk,
        n: 2,
        k: 2,
        placement: PlacementKind::Hash,
    };
    let err = mirrored_disk
        .deploy(&db, &std::env::temp_dir(), 64, None)
        .err()
        .expect("sharded-disk mirrors are refused");
    assert!(err.to_string().contains("sync_export"), "{err}");
}

/// The oracle sweep over every legal composition with N ≤ 4 and K ≤ 2.
#[test]
fn every_small_spec_passes_the_oracle_sweep() {
    let specs = legal_specs(4, 2);
    assert_eq!(specs.len(), 44);
    let db = TestDatabase::generate(&GenConfig::level(3));
    let dir = DbFiles::dir(&std::env::temp_dir(), "spec-sweep").unwrap();
    for spec in specs {
        let mut dep = spec.deploy(&db, dir.path(), 256, None).unwrap();
        let report = verify_store(dep.store.as_mut(), &db, &dep.load.oids).unwrap();
        assert!(report.is_ok(), "{spec}: {report}");
        if let Some(stats) = dep.stop().unwrap() {
            assert_eq!(stats.errors, 0, "{spec}: server answered with errors");
        }
    }
}

/// Dropping a deployment — as an erroring run does, without closing it —
/// removes every file it created.
#[test]
fn dropped_deployments_leave_no_files() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let dir = DbFiles::dir(&std::env::temp_dir(), "spec-drop").unwrap();
    for spec in ["disk", "rel", "sharded-disk:2"] {
        let spec: BackendSpec = spec.parse().unwrap();
        let dep = spec.deploy(&db, dir.path(), 64, None).unwrap();
        assert!(std::fs::read_dir(dir.path()).unwrap().next().is_some());
        drop(dep);
        let left: Vec<_> = std::fs::read_dir(dir.path()).unwrap().collect();
        assert!(left.is_empty(), "{spec} left {left:?}");
    }
}

/// The bytes a deployment reports stored are the bytes of the files it
/// created: each database file and its log, and for `sharded-disk` every
/// shard's pair plus the decision log.
#[test]
fn stored_bytes_are_the_sizes_of_the_files_a_deployment_made() {
    fn bytes_under(path: &std::path::Path) -> u64 {
        let meta = std::fs::metadata(path).unwrap();
        if !meta.is_dir() {
            return meta.len();
        }
        let entries = std::fs::read_dir(path).unwrap();
        entries.map(|e| bytes_under(&e.unwrap().path())).sum()
    }
    let db = TestDatabase::generate(&GenConfig::level(3));
    let dir = DbFiles::dir(&std::env::temp_dir(), "spec-bytes").unwrap();
    for spec in ["disk", "rel", "sharded-disk:2", "sharded-disk:3:hash"] {
        let spec: BackendSpec = spec.parse().unwrap();
        let dep = spec.deploy(&db, dir.path(), 256, None).unwrap();
        assert!(dep.stored_bytes > 0, "{spec}");
        assert_eq!(dep.stored_bytes, bytes_under(dir.path()), "{spec}");
    }
}
