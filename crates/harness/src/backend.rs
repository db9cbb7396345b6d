//! Backend specs: the one statement of which store compositions the
//! benchmark can run, and the one code that builds them.
//!
//! A composition is named by a string (`hyperbench --backend`); see
//! [`BackendSpec`] for the grammar. [`BackendSpec::deploy`] builds the
//! named composition, loads a test database into it and hands back a
//! [`Deployment`] that owns everything it started: the store, the
//! in-process server of a `sharded-tcp` deployment, and the database
//! files, which are removed when the deployment is dropped — on the error
//! path too.

use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

use chaos::{ChaosStore, FaultPlan, FaultyTransport};
use disk_backend::DiskStore;
use hypermodel::error::{HmError, Result};
use hypermodel::generate::TestDatabase;
use hypermodel::load::{load_database, LoadReport};
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use rel_backend::RelStore;
use server::client::RetryPolicy;
use server::{ChannelTransport, MultiServer, MultiStats, RemoteStore, TcpTransport, Transport};
use shard::{Placement, ShardedStore};

/// The backend grammar as usage lines and parse errors print it.
pub const GRAMMAR: &str = "mem|disk|rel|remote|sharded-mem:N[:rK][:hash|:affinity]|sharded-disk:N[:hash|:affinity]|sharded-tcp:N[:rK][:hash|:affinity]";

/// A store composition, parsed from or printed as its spelling:
///
/// ```text
/// mem | disk | rel | remote
/// sharded-mem:N[:rK][:hash|:affinity]
/// sharded-disk:N[:hash|:affinity]
/// sharded-tcp:N[:rK][:hash|:affinity]
/// ```
///
/// * `mem`, `disk`, `rel` — one in-process store; `disk` and `rel` keep a
///   database file and its log.
/// * `remote` — a `mem` store behind the wire protocol, served on a thread
///   of this process over an in-memory channel.
/// * `sharded-*:N` — N shards (1 ≤ N ≤ 64) behind a `ShardedStore`
///   router: `mem` shards, `disk` shards (one file each plus the
///   coordinator's decision log, all in one directory), or `tcp` — `mem`
///   shards behind one `serve_multi` event loop, reached over loopback TCP.
/// * `:rK` — every shard is a `ReplicaGroup` of K mirrors (1 ≤ K ≤ 8).
///   `sharded-disk` refuses it: a mirror is repaired by `sync_export`,
///   which only `mem` stores implement.
/// * `:hash` places every node by hashing its id; `:affinity` (the
///   default) keeps each subtree rooted at depth 2 — where the benchmark
///   starts its closures — whole on one shard.
///
/// The suffixes come in any order, each at most once. [`Display`]
/// prints the shortest spelling, `:rK` before the placement, so
/// `s.to_string().parse() == Ok(s)`.
///
/// [`Display`]: fmt::Display
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSpec {
    /// `mem`.
    Mem,
    /// `disk`.
    Disk,
    /// `rel`.
    Rel,
    /// `remote`.
    Remote,
    /// `sharded-{mem,disk,tcp}:N[:rK][:hash|:affinity]`.
    Sharded {
        /// What each shard is.
        shards: ShardKind,
        /// Logical shards.
        n: usize,
        /// Mirrors per logical shard (1 = unreplicated).
        k: usize,
        /// How nodes are placed on shards.
        placement: PlacementKind,
    },
}

/// What each shard of a sharded spec is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardKind {
    /// An in-process `MemStore`.
    Mem,
    /// A `DiskStore` with its own file.
    Disk,
    /// A `MemStore` behind the in-process multi-shard server, over TCP.
    Tcp,
}

/// The placement policies a spec can spell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// `:hash` — [`Placement::OidHash`].
    Hash,
    /// `:affinity` — [`Placement::affinity`].
    Affinity,
}

impl From<PlacementKind> for Placement {
    fn from(p: PlacementKind) -> Placement {
        match p {
            PlacementKind::Hash => Placement::OidHash,
            PlacementKind::Affinity => Placement::affinity(),
        }
    }
}

impl fmt::Display for ShardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardKind::Mem => "mem",
            ShardKind::Disk => "disk",
            ShardKind::Tcp => "tcp",
        })
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BackendSpec::Mem => f.write_str("mem"),
            BackendSpec::Disk => f.write_str("disk"),
            BackendSpec::Rel => f.write_str("rel"),
            BackendSpec::Remote => f.write_str("remote"),
            BackendSpec::Sharded {
                shards,
                n,
                k,
                placement,
            } => {
                write!(f, "sharded-{shards}:{n}")?;
                if k != 1 {
                    write!(f, ":r{k}")?;
                }
                if placement == PlacementKind::Hash {
                    f.write_str(":hash")?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for BackendSpec {
    /// The message to refuse the spelling with.
    type Err = String;

    fn from_str(text: &str) -> std::result::Result<BackendSpec, String> {
        let unknown = || unknown_backend(text);
        match text {
            "mem" => return Ok(BackendSpec::Mem),
            "disk" => return Ok(BackendSpec::Disk),
            "rel" => return Ok(BackendSpec::Rel),
            "remote" => return Ok(BackendSpec::Remote),
            _ => {}
        }
        let mut parts = text.split(':');
        let shards = match parts.next() {
            Some("sharded-mem") => ShardKind::Mem,
            Some("sharded-disk") => ShardKind::Disk,
            Some("sharded-tcp") => ShardKind::Tcp,
            _ => return Err(unknown()),
        };
        let n = parts
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(unknown)?;
        let (mut k, mut r_suffixes) = (1, 0);
        let (mut placement, mut placement_suffixes) = (PlacementKind::Affinity, 0);
        for part in parts {
            if let Some(r) = part.strip_prefix('r') {
                // An unreadable factor is 0, which `validate` refuses
                // after the refusals that outrank it.
                k = r.parse().unwrap_or(0);
                r_suffixes += 1;
            } else {
                placement = match part {
                    "hash" => PlacementKind::Hash,
                    "affinity" => PlacementKind::Affinity,
                    _ => return Err(unknown()),
                };
                placement_suffixes += 1;
            }
        }
        let spec = BackendSpec::Sharded {
            shards,
            n,
            k,
            placement,
        };
        spec.validate(text, r_suffixes, placement_suffixes)?;
        Ok(spec)
    }
}

/// `--backend` also takes `all`, hyperbench's name for `mem`, `disk` and
/// `rel` in turn, so the refusal lists it.
fn unknown_backend(text: &str) -> String {
    format!("unknown backend {text} (use {GRAMMAR}|all)")
}

impl BackendSpec {
    /// Every refusal of a well-formed sharded spec, in the order they
    /// outrank each other. `text` is the spelling to name, written with
    /// `r_suffixes` `:rK` and `placement_suffixes` placement suffixes.
    fn validate(
        &self,
        text: &str,
        r_suffixes: usize,
        placement_suffixes: usize,
    ) -> std::result::Result<(), String> {
        let BackendSpec::Sharded { shards, n, k, .. } = *self else {
            return Ok(());
        };
        if !(1..=64).contains(&n) {
            return Err(unknown_backend(text));
        }
        if shards == ShardKind::Disk && r_suffixes > 0 {
            return Err(format!(
                "backend {text}: replication needs a backend with `sync_export`; only mem mirrors have one"
            ));
        }
        if r_suffixes > 1 {
            return Err(format!("backend {text}: replication factor given twice"));
        }
        if placement_suffixes > 1 || !(1..=8).contains(&k) {
            return Err(unknown_backend(text));
        }
        Ok(())
    }

    /// Build this composition, load `db` into it and, under a fault plan,
    /// wrap it in the chaos layer — after the load, so crash plans target
    /// the benchmark's operations, not the bulk load. Database files go
    /// into `dir`; paged stores get a pool of `pool_frames` frames.
    ///
    /// On `remote` the fault plan also degrades the transport (drops,
    /// duplicates, delays) and the client retries. On `sharded-tcp:N:rK`
    /// the transport faults hit one replica connection only — the first
    /// mirror of shard 0 — so the run exercises failover and repair, not a
    /// total outage.
    pub fn deploy(
        &self,
        db: &TestDatabase,
        dir: &Path,
        pool_frames: usize,
        faults: Option<&FaultPlan>,
    ) -> Result<Deployment> {
        let r_suffixes = match *self {
            BackendSpec::Sharded { k, .. } => usize::from(k != 1),
            _ => 0,
        };
        self.validate(&self.to_string(), r_suffixes, 1)
            .map_err(HmError::InvalidArgument)?;
        let level = db.config.leaf_level;
        // Declared before any store, so they are dropped after it on the
        // error path too.
        let mut files = None;
        let mut server = None;
        let (store, load, stored_bytes) = match *self {
            BackendSpec::Mem => loaded(MemStore::new(), db, faults)?,
            BackendSpec::Disk => {
                let path = files
                    .insert(DbFiles::new(dir, &format!("disk-l{level}")))
                    .path();
                let mut store = DiskStore::create(path, pool_frames)?;
                let load = load_database(&mut store, db)?;
                let size = store.stored_bytes();
                (boxed(store, faults), load, size)
            }
            BackendSpec::Rel => {
                let path = files
                    .insert(DbFiles::new(dir, &format!("rel-l{level}")))
                    .path();
                let mut store = RelStore::create(path, pool_frames)?;
                let load = load_database(&mut store, db)?;
                let size = store.stored_bytes();
                (boxed(store, faults), load, size)
            }
            BackendSpec::Remote => {
                let mut backing = MemStore::new();
                let (client_end, mut server_end) = ChannelTransport::pair(Duration::ZERO);
                let client_end: Box<dyn Transport> = match faults {
                    Some(plan) => {
                        let mut server_side = FaultyTransport::new(server_end, plan.clone());
                        std::thread::spawn(move || {
                            let _ = server::serve(&mut backing, &mut server_side);
                        });
                        Box::new(FaultyTransport::new(client_end, plan.clone()))
                    }
                    None => {
                        std::thread::spawn(move || {
                            let _ = server::serve(&mut backing, &mut server_end);
                        });
                        Box::new(client_end)
                    }
                };
                let mut store = RemoteStore::new(client_end);
                if faults.is_some() {
                    store = store.with_retry(RetryPolicy {
                        request_timeout: Duration::from_millis(50),
                        max_retries: 10,
                        backoff_base: Duration::from_millis(1),
                        backoff_max: Duration::from_millis(20),
                    });
                }
                // Loading through the wire measures marshalling + dispatch.
                loaded(store, db, faults)?
            }
            BackendSpec::Sharded {
                shards: ShardKind::Mem,
                n,
                k,
                placement,
            } => {
                let shards: Vec<MemStore> = (0..n * k).map(|_| MemStore::new()).collect();
                if k == 1 {
                    let store = ShardedStore::new(shards, placement.into(), "sharded-mem");
                    loaded(store, db, faults)?
                } else {
                    let store =
                        ShardedStore::new_replicated(shards, k, placement.into(), "sharded-mem");
                    loaded(store, db, faults)?
                }
            }
            BackendSpec::Sharded {
                shards: ShardKind::Tcp,
                n,
                k,
                placement,
            } => {
                // One process, N*K shard servers: mem shards behind the
                // nonblocking event loop, a router in front. Loading and
                // every operation cross real TCP.
                let shards: Vec<MemStore> = (0..n * k).map(|_| MemStore::new()).collect();
                let addrs = server.insert(server::serve_multi(shards)?).addr_strings();
                if k == 1 {
                    loaded(
                        shard::connect_sharded(&addrs, placement.into())?,
                        db,
                        faults,
                    )?
                } else if let Some(plan) = faults {
                    let faulty_member = 1usize;
                    let mut members = Vec::new();
                    for (i, addr) in addrs.iter().enumerate() {
                        let stream = std::net::TcpStream::connect(addr)
                            .map_err(|e| HmError::Backend(format!("connect {addr}: {e}")))?;
                        let transport = TcpTransport::new(stream)?;
                        let transport: Box<dyn Transport> = if i == faulty_member {
                            Box::new(FaultyTransport::new(transport, plan.clone()))
                        } else {
                            Box::new(transport)
                        };
                        members.push(RemoteStore::new(transport));
                    }
                    let store = ShardedStore::new_replicated(
                        members,
                        k,
                        placement.into(),
                        "sharded-remote",
                    );
                    loaded(store, db, faults)?
                } else {
                    let store = shard::connect_sharded_replicated(&addrs, k, placement.into())?;
                    loaded(store, db, faults)?
                }
            }
            BackendSpec::Sharded {
                shards: ShardKind::Disk,
                n,
                placement,
                ..
            } => {
                let shard_dir = files
                    .insert(DbFiles::dir(dir, &format!("sharded-disk-l{level}"))?)
                    .path();
                let shards = (0..n)
                    .map(|i| {
                        DiskStore::create(&shard_dir.join(format!("shard-{i}.db")), pool_frames)
                    })
                    .collect::<Result<Vec<_>>>()?;
                // Crash-safe cross-shard commit: the coordinator's
                // decision log lives next to the shard files.
                let store = ShardedStore::new(shards, placement.into(), "sharded-disk")
                    .with_commit_log(&shard_dir.join("decisions.log"))?;
                let (store, load, _) = loaded(store, db, faults)?;
                (store, load, 0)
            }
        };
        Ok(Deployment {
            store,
            load,
            stored_bytes,
            server,
            _files: files,
        })
    }
}

/// A loaded store, boxed (see [`BackendSpec::deploy`]), with its load
/// report and stored bytes.
type Loaded = (Box<dyn HyperStore>, LoadReport, u64);

/// Load `db` into `store`, then box it; a store without files has 0 bytes.
fn loaded<S: HyperStore + 'static>(
    mut store: S,
    db: &TestDatabase,
    faults: Option<&FaultPlan>,
) -> Result<Loaded> {
    let load = load_database(&mut store, db)?;
    Ok((boxed(store, faults), load, 0))
}

/// Box `store`, wrapping it in the chaos layer when a fault plan is active.
fn boxed<S: HyperStore + 'static>(store: S, faults: Option<&FaultPlan>) -> Box<dyn HyperStore> {
    match faults {
        Some(plan) => Box::new(ChaosStore::new(store, plan.clone())),
        None => Box::new(store),
    }
}

/// A deployed, loaded composition. Field order is drop order: the store's
/// connections close before the server stops, and the files go last.
pub struct Deployment {
    /// The store, as the benchmark operations see it.
    pub store: Box<dyn HyperStore>,
    /// The load's oid map and creation timings.
    pub load: LoadReport,
    /// Bytes of the database file and its write-ahead log (`disk` and
    /// `rel`; 0 otherwise).
    pub stored_bytes: u64,
    server: Option<MultiServer>,
    _files: Option<DbFiles>,
}

impl Deployment {
    /// The in-process multi-shard server of a `sharded-tcp` deployment.
    pub fn server(&self) -> Option<&MultiServer> {
        self.server.as_ref()
    }

    /// Close the store, stop the server and report what it served
    /// (`None` without a server), then remove the files.
    pub fn stop(self) -> Result<Option<MultiStats>> {
        let Deployment { store, server, .. } = self;
        drop(store);
        server.map(MultiServer::stop).transpose()
    }
}

/// A database file with its log — or a directory of them — that is
/// removed, with whatever a crashed earlier run left at the same path,
/// when this guard is created and again when it is dropped.
#[derive(Debug)]
pub struct DbFiles {
    path: PathBuf,
}

impl DbFiles {
    /// The file `dir/hyperbench-<pid>-<tag>.db` and its log.
    pub fn new(dir: &Path, tag: &str) -> DbFiles {
        let files = DbFiles {
            path: dir.join(format!("hyperbench-{}-{tag}.db", std::process::id())),
        };
        files.remove();
        files
    }

    /// The directory `dir/hyperbench-<pid>-<tag>`, created empty.
    pub fn dir(dir: &Path, tag: &str) -> Result<DbFiles> {
        let files = DbFiles {
            path: dir.join(format!("hyperbench-{}-{tag}", std::process::id())),
        };
        files.remove();
        std::fs::create_dir_all(&files.path)
            .map_err(|e| HmError::Backend(format!("create {}: {e}", files.path.display())))?;
        Ok(files)
    }

    /// The database file (or directory) path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn remove(&self) {
        if self.path.is_dir() {
            let _ = std::fs::remove_dir_all(&self.path);
        } else {
            let _ = std::fs::remove_file(&self.path);
            let _ = std::fs::remove_file(storage::engine::wal_path_for(&self.path));
        }
    }
}

impl Drop for DbFiles {
    fn drop(&mut self) {
        self.remove();
    }
}
