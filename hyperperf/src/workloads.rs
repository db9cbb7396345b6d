//! The six workloads and the names of every metric, as fixed data. The
//! same names appear in `BENCHMARK.json`; `tests/smoke.rs` holds the two
//! together.

use hypermodel::ops::OpId;

/// Which stack a workload drives, and the one cache regime that differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// `MemStore` in the caller's process.
    Mem,
    /// `DiskStore` with a buffer pool of `frames` 8 KiB frames; when
    /// `cold`, `cold_restart()` runs before every operation batch (§6
    /// step b), so each batch starts from an empty pool.
    Disk {
        /// Buffer-pool frames.
        frames: usize,
        /// Drop the pool before every batch.
        cold: bool,
    },
    /// `RelStore` with a buffer pool of `frames` frames.
    Rel {
        /// Buffer-pool frames.
        frames: usize,
    },
    /// Two `MemStore` shards behind `serve_multi` on loopback, reached
    /// through a `connect_sharded` router with the default placement.
    Tcp2,
}

/// One workload: a stack plus a traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The stack under test.
    pub stack: StackKind,
    /// Inputs per read operation (lookup, range, closure) per round.
    pub read_inputs: usize,
    /// Inputs per edit operation (O12, O16, O17) per round.
    pub edit_inputs: usize,
    /// Run under a fixed single-CPU affinity (see `envinfo::repin`).
    pub pin: bool,
    /// Carry the durability check: drop the disk store without closing
    /// it, reopen, read the last acknowledged edit back.
    pub reopen_check: bool,
}

/// 64 MiB of frames: at least four times the level-6 database file, so
/// warm workloads never evict.
const WARM_FRAMES: usize = 8192;
/// 2 MiB of frames: about an eighth of the level-6 database file.
const COLD_FRAMES: usize = 256;

/// The workloads, in the order they are run and reported.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "mem.warm",
        stack: StackKind::Mem,
        read_inputs: 50,
        edit_inputs: 50,
        pin: false,
        reopen_check: false,
    },
    // The two warm disk workloads share a stack and differ in mix: every
    // workload must report every end-to-end metric, so the read-side one
    // carries a small edit batch and the write-side one a small read
    // batch, and each spends its run on its own side.
    WorkloadDef {
        name: "disk.warm",
        stack: StackKind::Disk {
            frames: WARM_FRAMES,
            cold: false,
        },
        read_inputs: 50,
        edit_inputs: 10,
        pin: false,
        reopen_check: false,
    },
    WorkloadDef {
        name: "disk.cold",
        stack: StackKind::Disk {
            frames: COLD_FRAMES,
            cold: true,
        },
        read_inputs: 50,
        edit_inputs: 10,
        pin: false,
        reopen_check: false,
    },
    WorkloadDef {
        name: "disk.edit",
        stack: StackKind::Disk {
            frames: WARM_FRAMES,
            cold: false,
        },
        read_inputs: 10,
        edit_inputs: 50,
        pin: false,
        reopen_check: true,
    },
    WorkloadDef {
        name: "rel.warm",
        stack: StackKind::Rel {
            frames: WARM_FRAMES,
        },
        read_inputs: 50,
        edit_inputs: 50,
        pin: false,
        reopen_check: false,
    },
    // Unpinned on two cores this stack is bimodal (the event loop and the
    // caller land on one core or two); one fixed CPU repeats.
    WorkloadDef {
        name: "tcp2.warm",
        stack: StackKind::Tcp2,
        read_inputs: 50,
        edit_inputs: 50,
        pin: true,
        reopen_check: false,
    },
];

/// Seed `hyperperf run` starts from when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Measured seconds per run; `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The four user-visible operation groups the 20 operations fold into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// "Follow a link": O1, O2, O5A, O5B, O6, O7A, O7B, O8; µs per call.
    Lookup,
    /// O3, O4, O9; ns per node returned.
    Range,
    /// "Open a subtree": O10, O11, O13, O14, O15, O18; µs per node.
    Closure,
    /// "Save": O12, O16, O17, each with its commit; µs per commit.
    Edit,
}

impl Group {
    /// All groups, in report order.
    pub const ALL: [Group; 4] = [Group::Lookup, Group::Range, Group::Closure, Group::Edit];

    /// The group an operation belongs to.
    pub fn of(op: OpId) -> Group {
        match op {
            OpId::NameLookup
            | OpId::NameOidLookup
            | OpId::GroupLookup1N
            | OpId::GroupLookupMN
            | OpId::GroupLookupMNAtt
            | OpId::RefLookup1N
            | OpId::RefLookupMN
            | OpId::RefLookupMNAtt => Group::Lookup,
            OpId::RangeLookupHundred | OpId::RangeLookupMillion | OpId::SeqScan => Group::Range,
            OpId::Closure1N
            | OpId::Closure1NAttSum
            | OpId::Closure1NPred
            | OpId::ClosureMN
            | OpId::ClosureMNAtt
            | OpId::ClosureMNAttLinkSum => Group::Closure,
            OpId::Closure1NAttSet | OpId::TextNodeEdit | OpId::FormNodeEdit => Group::Edit,
        }
    }

    /// The end-to-end metric this group reports as.
    pub fn metric(self) -> &'static str {
        match self {
            Group::Lookup => "lookup_us",
            Group::Range => "range_scan_ns_per_node",
            Group::Closure => "closure_us_per_node",
            Group::Edit => "edit_us",
        }
    }

    /// Whether samples are time per node returned (else per call).
    pub fn per_node(self) -> bool {
        matches!(self, Group::Range | Group::Closure)
    }

    /// Seconds to the group's unit.
    pub fn scale(self) -> f64 {
        match self {
            Group::Range => 1e9,
            _ => 1e6,
        }
    }
}

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("lookup_us", "us"),
    ("range_scan_ns_per_node", "ns"),
    ("closure_us_per_node", "us"),
    ("edit_us", "us"),
    ("rss_mb", "MiB"),
    ("stored_bytes_per_user_byte", "ratio"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. A layer a
/// workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("hypermodel.gen_s", "s"),
    ("hypermodel.load_nodes_per_s", "1/s"),
    ("mem.op_ns", "ns"),
    ("backend.apply_us", "us"),
    ("backend.commit_us", "us"),
    ("storage.buffer.hit_ratio", "ratio"),
    ("storage.buffer.misses_per_op", "count"),
    ("storage.buffer.evictions_per_op", "count"),
    ("storage.page_reads_per_op", "count"),
    ("storage.miss_us", "us"),
    ("storage.wal.appends_per_commit", "count"),
    ("storage.wal.fsyncs_per_commit", "count"),
    ("storage.page_writes_per_commit", "count"),
    ("storage.wal_bytes_per_user_byte", "ratio"),
    ("server.codec_ns", "ns"),
    ("server.round_trips_per_op", "count"),
    ("server.bytes_per_op", "B"),
    ("server.write_syscalls_per_op", "count"),
    ("exec.dispatch_us", "us"),
    ("exec.jobs_per_op", "count"),
    ("exec.dispatch_wait_us", "us"),
    ("exec.loop_frames_per_op", "count"),
    ("exec.loop_parks_per_op", "count"),
    ("shard.self_us", "us"),
    ("shard.fanout_per_op", "count"),
    ("shard.2pc_per_commit", "count"),
    ("obs.trace_overhead", "ratio"),
    ("layer.bench_op_us", "us"),
    ("layer.shard_us", "us"),
    ("layer.server_us", "us"),
    ("layer.codec_us", "us"),
    ("layer.exec_us", "us"),
    ("layer.backend_us", "us"),
    ("layer.storage_io_us", "us"),
    ("layer.sum_ratio", "ratio"),
];
