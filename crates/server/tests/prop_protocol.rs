//! Property tests for the wire protocol: arbitrary messages round-trip
//! through `encode_into` (which appends and never disturbs what the
//! buffer already holds), and arbitrary garbage never panics the
//! decoder, nor makes it reserve more than `codec::prealloc_cap` lets a
//! list take: no more than the bytes behind it. The two payloads a shard
//! decodes beyond the protocol's own fields — `MemStore`'s repair
//! snapshot and a migration batch — are held to twice their input's
//! length (see [`GROWTH`]). Garbage sent to a server — split into its
//! sequence number and message, then answered by the frame handler — is
//! answered with an error, never a panic, under the same bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::store::HyperStore;
use hypermodel::{BatchWrite, Bitmap, NodeExport, Reached, Rel};
use mem_backend::MemStore;
use proptest::prelude::*;
use server::protocol::{Request, Response};
use server::transport::MAX_FRAME;
use server::{put_seq, serve, split_seq, ChannelTransport, Transport};

/// The system allocator, noting the largest single allocation each thread
/// asks for, so a test can bound what a decode reserves.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: nothing to note once the thread's locals are gone.
    let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: every method hands its arguments unchanged to `System`, so the
// caller gets exactly `System`'s guarantees; the bookkeeping reads a size
// and sets a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded; the caller meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; `ptr` came from `System` through this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded; the caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// The largest allocation `f` makes on this thread.
fn peak_allocation(f: impl FnOnce()) -> usize {
    PEAK.with(|peak| peak.set(0));
    f();
    PEAK.with(Cell::get)
}

fn arb_oid() -> impl Strategy<Value = Oid> {
    (0u64..1 << 55).prop_map(Oid)
}

fn arb_node_value() -> impl Strategy<Value = NodeValue> {
    (
        any::<u64>(),
        1u32..=10,
        1u32..=100,
        1u32..=1000,
        1u32..=1_000_000,
        prop_oneof![Just(0u8), Just(1u8), Just(2u8),],
        proptest::collection::vec(any::<u8>(), 0..64),
        "[a-z ]{0,80}",
        1u16..60,
        1u16..60,
    )
        .prop_map(
            |(uid, ten, hundred, thousand, million, kind_sel, _bytes, text, w, h)| {
                let (kind, content) = match kind_sel {
                    0 => (NodeKind::INTERNAL, Content::None),
                    1 => (NodeKind::TEXT, Content::Text(text)),
                    _ => (NodeKind::FORM, Content::Form(Bitmap::white(w, h))),
                };
                NodeValue {
                    kind,
                    attrs: NodeAttrs {
                        unique_id: uid,
                        ten,
                        hundred,
                        thousand,
                        million,
                    },
                    content,
                }
            },
        )
}

fn arb_oids() -> impl Strategy<Value = Vec<Oid>> {
    proptest::collection::vec(arb_oid(), 0..20)
}

fn arb_edges() -> impl Strategy<Value = Vec<RefEdge>> {
    proptest::collection::vec((arb_oid(), 0u8..10, 0u8..10), 0..20).prop_map(|v| {
        v.into_iter()
            .map(|(target, offset_from, offset_to)| RefEdge {
                target,
                offset_from,
                offset_to,
            })
            .collect()
    })
}

fn arb_rel() -> impl Strategy<Value = Rel> {
    prop_oneof![Just(Rel::Children), Just(Rel::Parts), Just(Rel::RefsTo)]
}

fn arb_reached() -> impl Strategy<Value = Reached> {
    (arb_oid(), any::<u32>(), proptest::option::of(arb_edges()))
        .prop_map(|(node, depth, list)| Reached { node, depth, list })
}

fn arb_export() -> impl Strategy<Value = NodeExport> {
    (
        arb_node_value(),
        any::<bool>(),
        // The batch format spells "no parent" / "no reuse" as oid 0.
        proptest::option::of((1u64..1 << 55).prop_map(Oid)),
        arb_oids(),
        arb_oids(),
        arb_edges(),
        proptest::option::of((1u64..1 << 55).prop_map(Oid)),
    )
        .prop_map(
            |(value, in_structure, parent, children, parts, refs_to, reuse)| NodeExport {
                value,
                in_structure,
                parent,
                part_of: parts.iter().rev().copied().collect(),
                refs_from: refs_to.iter().rev().copied().collect(),
                children,
                parts,
                refs_to,
                reuse,
            },
        )
}

fn arb_batch_write() -> impl Strategy<Value = BatchWrite> {
    prop_oneof![
        (arb_node_value(), proptest::option::of(arb_oid()))
            .prop_map(|(value, near)| BatchWrite::Create { value, near }),
        arb_node_value().prop_map(BatchWrite::Extra),
        (arb_oid(), arb_oid()).prop_map(|(a, b)| BatchWrite::Child(a, b)),
        (arb_oid(), arb_oid()).prop_map(|(a, b)| BatchWrite::Part(a, b)),
        (arb_oid(), arb_oid(), 0u8..10, 0u8..10).prop_map(|(a, target, offset_from, offset_to)| {
            BatchWrite::Ref(
                a,
                RefEdge {
                    target,
                    offset_from,
                    offset_to,
                },
            )
        }),
        (arb_oid(), any::<u32>()).prop_map(|(o, v)| BatchWrite::SetHundred(o, v)),
    ]
}

fn bitmap((w, h): (u16, u16)) -> Bitmap {
    Bitmap::white(w, h)
}

/// Every request that is not an envelope.
fn arb_request() -> impl Strategy<Value = Request> {
    let oid = arb_oid;
    let range = || (any::<u32>(), any::<u32>());
    let form = || (1u16..60, 1u16..60).prop_map(bitmap);
    prop_oneof![
        any::<u64>().prop_map(Request::LookupUnique),
        oid().prop_map(Request::UniqueIdOf),
        oid().prop_map(Request::KindOf),
        oid().prop_map(Request::TenOf),
        oid().prop_map(Request::HundredOf),
        oid().prop_map(Request::MillionOf),
        (oid(), any::<u32>()).prop_map(|(o, v)| Request::SetHundred(o, v)),
        range().prop_map(|(a, b)| Request::RangeHundred(a, b)),
        range().prop_map(|(a, b)| Request::RangeMillion(a, b)),
        oid().prop_map(Request::Children),
        oid().prop_map(Request::Parent),
        oid().prop_map(Request::Parts),
        oid().prop_map(Request::PartOf),
        oid().prop_map(Request::RefsTo),
        oid().prop_map(Request::RefsFrom),
        Just(Request::SeqScanTen),
        oid().prop_map(Request::TextOf),
        (oid(), "[a-z]{0,100}").prop_map(|(o, s)| Request::SetText(o, s)),
        oid().prop_map(Request::FormOf),
        (oid(), form()).prop_map(|(o, bm)| Request::SetForm(o, bm)),
        arb_node_value().prop_map(Request::CreateNode),
        (arb_node_value(), proptest::option::of(oid()))
            .prop_map(|(v, n)| Request::CreateNodeClustered(v, n)),
        (oid(), oid()).prop_map(|(a, b)| Request::AddChild(a, b)),
        (oid(), oid()).prop_map(|(a, b)| Request::AddPart(a, b)),
        (oid(), oid(), 0u8..10, 0u8..10).prop_map(|(a, b, f, t)| Request::AddRef(a, b, f, t)),
        arb_node_value().prop_map(Request::InsertExtraNode),
        Just(Request::Commit),
        Just(Request::ColdRestart),
        oid().prop_map(Request::Closure1N),
        oid().prop_map(Request::Closure1NAttSum),
        oid().prop_map(Request::Closure1NAttSet),
        (oid(), range()).prop_map(|(o, (lo, hi))| Request::Closure1NPred(o, lo, hi)),
        oid().prop_map(Request::ClosureMN),
        (oid(), 1u32..100).prop_map(|(o, d)| Request::ClosureMNAtt(o, d)),
        (oid(), 1u32..100).prop_map(|(o, d)| Request::ClosureMNAttLinkSum(o, d)),
        (oid(), "[a-z]{1,20}", "[a-z]{1,20}").prop_map(|(o, f, t)| Request::TextNodeEdit(o, f, t)),
        (
            oid(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>()
        )
            .prop_map(|(o, a, b, c, d)| Request::FormNodeEdit(o, a, b, c, d)),
        Just(Request::Shutdown),
        Just(Request::Stats),
        arb_oids().prop_map(Request::HundredBatch),
        (
            arb_rel(),
            proptest::collection::vec((arb_oid(), any::<u32>()), 0..20),
            proptest::option::of(range()),
        )
            .prop_map(|(rel, starts, prune)| Request::Expand(rel, starts, prune)),
        any::<u64>().prop_map(Request::PrepareCommit),
        any::<u64>().prop_map(Request::CommitPrepared),
        any::<u64>().prop_map(Request::AbortPrepared),
        Just(Request::SyncSubtree),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Request::InstallSubtree),
        arb_oids().prop_map(Request::ExportNodes),
        proptest::collection::vec(arb_export(), 0..4).prop_map(Request::InstallNodes),
        arb_oids().prop_map(Request::ActivateNodes),
        arb_oids().prop_map(Request::RetireNodes),
        proptest::collection::vec(arb_batch_write(), 0..8).prop_map(Request::WriteBatch),
    ]
}

/// The `Request` variant of every catalogue row.
macro_rules! catalogued_variants {
    ($(
        $class:ident $tag:literal $variant:ident
        fn $name:ident $(( $($arg:ident: [$($ty:tt)+]),+ ))? -> $ret:ty $(, about $subject:ident)?;
    )*) => {
        [$(stringify!($variant)),*]
    };
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Unit),
        arb_oid().prop_map(Response::Oid),
        proptest::option::of(arb_oid()).prop_map(Response::OptOid),
        any::<u16>().prop_map(Response::U16),
        any::<u32>().prop_map(Response::U32),
        any::<u64>().prop_map(Response::U64),
        (any::<u64>(), any::<u64>()).prop_map(|(s, c)| Response::SumCount(s, c)),
        proptest::collection::vec(arb_oid(), 0..50).prop_map(Response::Oids),
        arb_edges().prop_map(Response::Edges),
        "[ -~]{0,200}".prop_map(Response::Text),
        (1u16..50, 1u16..50).prop_map(|d| Response::Form(bitmap(d))),
        proptest::collection::vec((arb_oid(), any::<u64>()), 0..30).prop_map(Response::Pairs),
        "[ -~]{0,100}".prop_map(Response::Err),
        proptest::collection::vec(any::<u32>(), 0..50).prop_map(Response::U32s),
        "[ -~]{0,100}".prop_map(Response::Stats),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Response::Subtree),
        proptest::collection::vec(arb_reached(), 0..8).prop_map(Response::Reached),
    ]
}

fn request_bytes(req: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    req.encode_into(&mut bytes);
    bytes
}

fn response_bytes(resp: &Response) -> Vec<u8> {
    let mut bytes = Vec::new();
    resp.encode_into(&mut bytes);
    bytes
}

/// A loaded 13-node database's repair snapshot (what `InstallSubtree`
/// carries) and the `InstallNodes` frame migrating all of it.
fn shipped() -> &'static (Vec<u8>, Vec<u8>) {
    static SHIPPED: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    SHIPPED.get_or_init(|| {
        let mut cfg = GenConfig::tiny();
        cfg.fanout = 3;
        let db = TestDatabase::generate(&cfg);
        let mut store = MemStore::new();
        let oids = load_database(&mut store, &db).unwrap().oids;
        let batch = Request::InstallNodes(store.export_nodes(&oids).unwrap());
        (store.sync_export().unwrap(), request_bytes(&batch))
    })
}

/// The most a hostile snapshot or batch may make the decoder allocate at
/// once, as a multiple of its length. No count reserves more than the
/// bytes left behind it; past that a list grows only for elements it has
/// actually decoded. Any 10 bytes decode as a reference edge, which takes
/// 16 in memory, so a lying count in front of a run of garbage may grow
/// that list once (doubling) to twice the input.
const GROWTH: f64 = 2.0;

/// The largest single allocation importing `snapshot` into a store makes,
/// over the snapshot's length.
fn import_peak(snapshot: &[u8]) -> f64 {
    let mut store = MemStore::new();
    peak_allocation(|| drop(store.sync_import(snapshot))) as f64 / snapshot.len() as f64
}

/// The largest single allocation decoding `frame` makes, over its length.
fn decode_peak(frame: &[u8]) -> f64 {
    peak_allocation(|| drop(Request::decode(frame))) as f64 / frame.len() as f64
}

/// Serve `frame`, then a `Shutdown`, to an empty `MemStore` through the
/// `serve` pump on this thread, so the allocator sees the server's every
/// allocation. Returns the largest of them and the replies' numbers and
/// responses.
fn served(frame: &[u8]) -> (usize, Vec<(u64, Response)>) {
    let (mut client, mut server_end) = ChannelTransport::pair(std::time::Duration::ZERO);
    let mut shutdown = Vec::new();
    put_seq(&mut shutdown, u64::MAX);
    Request::Shutdown.encode_into(&mut shutdown);
    client.send(frame).unwrap();
    client.send(&shutdown).unwrap();
    let store = MemStore::new();
    let peak = peak_allocation(|| {
        serve(store, &mut server_end).unwrap();
    });
    drop(server_end);
    let mut replies = Vec::new();
    let mut reply = Vec::new();
    while client.recv_into(&mut reply, None).unwrap() {
        let (seq, body) = split_seq(&reply).unwrap();
        replies.push((seq, Response::decode(body).unwrap()));
    }
    (peak, replies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    // A catalogue row the generator above does not produce fails here,
    // so the properties below always range over every operation.
    #[test]
    fn every_request_variant_is_generated(
        reqs in proptest::collection::vec(arb_request(), 4000..4001),
    ) {
        let seen: std::collections::BTreeSet<String> = reqs
            .iter()
            .map(|r| format!("{r:?}").split('(').next().unwrap().to_string())
            .collect();
        for variant in hypermodel::store_ops!(catalogued_variants) {
            prop_assert!(seen.contains(variant), "{variant} is never generated");
        }
        prop_assert!(seen.contains("Shutdown") && seen.contains("Stats"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_round_trip(req in arb_request()) {
        let mut buf = vec![0xAAu8, 0xBB, 0xCC];
        req.encode_into(&mut buf);
        prop_assert_eq!(&buf[..3], &[0xAA, 0xBB, 0xCC][..]);
        prop_assert_eq!(Request::decode(&buf[3..]).unwrap(), req);
    }

    #[test]
    fn responses_round_trip(resp in arb_response()) {
        let mut buf = vec![0x42u8];
        resp.encode_into(&mut buf);
        prop_assert_eq!(buf[0], 0x42);
        prop_assert_eq!(Response::decode(&buf[1..]).unwrap(), resp);
    }

    // Reusing one scratch buffer across many messages (the client and
    // serve-loop pattern: clear, encode_into, send) never leaks bytes
    // from an earlier, longer message into a later one.
    #[test]
    fn scratch_reuse_is_clean(reqs in proptest::collection::vec(arb_request(), 1..8)) {
        let mut scratch = Vec::new();
        for req in &reqs {
            scratch.clear();
            req.encode_into(&mut scratch);
            let mut fresh = Vec::new();
            req.encode_into(&mut fresh);
            prop_assert_eq!(&scratch, &fresh);
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    // Garbage through the envelope split and the frame handler: answered
    // under its number (0 if it is too short to hold one) and then the
    // `Shutdown` is, or the garbage itself was a `Shutdown`. A store
    // that panicked would answer `ShardUnavailable`.
    #[test]
    fn the_server_answers_garbage_without_panicking(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let (peak, replies) = served(&bytes);
        prop_assert!(peak <= MAX_FRAME, "{peak} bytes reserved");
        let seq = split_seq(&bytes).map_or(0, |(seq, _)| seq);
        prop_assert_eq!(replies.first().map(|(n, _)| *n), Some(seq));
        prop_assert!(replies.len() <= 2);
        let poisoned = Response::Err(exec::ExecError::Poisoned(0).into_hm().to_string());
        prop_assert!(replies.iter().all(|(_, resp)| *resp != poisoned));
    }

    #[test]
    fn truncated_valid_messages_error_not_panic(
        req in arb_request(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut bytes = Vec::new();
        req.encode_into(&mut bytes);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if cut < bytes.len() {
            // A strict prefix must never decode into a *different* valid
            // message of the same length-independent kind; it either
            // errors or (for zero-payload requests) is the empty-cut case.
            if let Ok(decoded) = Request::decode(&bytes[..cut]) {
                prop_assert_ne!(decoded, req);
            }
        }
    }

    // Mutated *valid* frames: a flipped byte lands in a length prefix, a
    // tag or a flag far more often than random garbage does — in a batch
    // of writes, mutated in every case, nearly always. The decode errors
    // or succeeds; it never panics or reserves more than a frame's worth.
    #[test]
    fn mutated_valid_frames_error_or_decode_never_panic(
        req in arb_request(),
        writes in proptest::collection::vec(arb_batch_write(), 1..8),
        resp in arb_response(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mutated = |mut bytes: Vec<u8>| {
            let i = at % bytes.len();
            bytes[i] = byte;
            bytes
        };
        for frame in [request_bytes(&req), request_bytes(&Request::WriteBatch(writes))] {
            let bytes = mutated(frame);
            let peak = peak_allocation(|| drop(Request::decode(&bytes)));
            prop_assert!(peak <= MAX_FRAME, "{peak} bytes reserved");
        }
        let bytes = mutated(response_bytes(&resp));
        let peak = peak_allocation(|| drop(Response::decode(&bytes)));
        prop_assert!(peak <= MAX_FRAME, "{peak} bytes reserved");
    }

    // The repair snapshot and the migration batch with one byte
    // replaced: the decode errors or succeeds, and never allocates more
    // than `GROWTH` times the input at once.
    #[test]
    fn mutated_snapshots_and_batches_allocate_at_most_twice_their_length(
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (snapshot, batch) = shipped();
        let mutated = |bytes: &[u8]| {
            let mut bytes = bytes.to_vec();
            let i = at % bytes.len();
            bytes[i] = byte;
            bytes
        };
        let (imported, decoded) = (import_peak(&mutated(snapshot)), decode_peak(&mutated(batch)));
        prop_assert!(imported <= GROWTH, "import allocated {imported}× its input");
        prop_assert!(decoded <= GROWTH, "decode allocated {decoded}× its input");
    }

    // An option's presence byte is 0 or 1. Anything else used to decode
    // as `None`: a corrupted `CreateNodeClustered` silently lost its
    // placement hint instead of being refused.
    #[test]
    fn corrupted_option_flag_is_refused(
        value in arb_node_value(),
        near in proptest::option::of(arb_oid()),
        flag in 2u8..=255,
    ) {
        let mut bytes = request_bytes(&Request::CreateNodeClustered(value, near));
        // tag, then the length-prefixed record, then the flag.
        let record = u32::from_le_bytes(bytes[1..5].try_into().unwrap()) as usize;
        bytes[5 + record] = flag;
        prop_assert!(Request::decode(&bytes).is_err());

        let mut bytes = response_bytes(&Response::OptOid(near));
        bytes[1] = flag;
        prop_assert!(Response::decode(&bytes).is_err());
    }
}

/// A batch announcing four billion writes and carrying one: refused on the
/// missing items, after reserving no more than a frame's worth of them.
#[test]
fn lying_write_batch_count_reserves_at_most_prealloc_cap() {
    let mut bytes = request_bytes(&Request::WriteBatch(vec![BatchWrite::SetHundred(
        Oid(1),
        2,
    )]));
    bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut decoded = None;
    let peak = peak_allocation(|| decoded = Some(Request::decode(&bytes)));
    assert!(decoded.unwrap().is_err());
    assert!(peak <= MAX_FRAME, "{peak} bytes reserved");
}

/// `bytes` with one `u32` window below 256 overwritten with half the
/// input's length, for each such window, so every count lies once — by
/// an amount a `count <= input length` check lets through. (Counts of four
/// billion are refused by the same clamp; the unit tests send those.)
fn lying_counts(bytes: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    let lie = (bytes.len() as u32 / 2).to_le_bytes();
    (0..bytes.len() - 3).filter_map(move |i| {
        let window: [u8; 4] = bytes[i..i + 4].try_into().unwrap();
        (u32::from_le_bytes(window) < 256).then(|| {
            let mut lying = bytes.to_vec();
            lying[i..i + 4].copy_from_slice(&lie);
            (i, lying)
        })
    })
}

/// Every count field of the repair snapshot and of the migration batch
/// lies ([`lying_counts`]): the import or decode never allocates more than
/// `GROWTH` times the input at once. (Before the shared codec a lying
/// snapshot reserved 208 and a lying batch 224 times their input; a lying
/// schema, 128 GiB.)
#[test]
fn lying_counts_in_snapshots_and_batches_allocate_at_most_twice_their_length() {
    let (snapshot, batch) = shipped();
    assert!(import_peak(snapshot) <= 1.0 && decode_peak(batch) <= 1.0);
    for (i, snapshot) in lying_counts(snapshot) {
        let ratio = import_peak(&snapshot);
        assert!(
            ratio <= GROWTH,
            "count at {i}: import allocated {ratio}× its input"
        );
    }
    for (i, batch) in lying_counts(batch) {
        let ratio = decode_peak(&batch);
        assert!(
            ratio <= GROWTH,
            "count at {i}: decode allocated {ratio}× its input"
        );
    }
}
