//! Property tests for the wire protocol: arbitrary messages round-trip
//! through `encode_into` (which appends and never disturbs what the
//! buffer already holds), and arbitrary garbage never panics the
//! decoder.

use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::{Bitmap, NodeExport};
use proptest::prelude::*;
use server::protocol::{Request, Response};

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

fn bitmap((w, h): (u16, u16)) -> Bitmap {
    Bitmap::white(w, h)
}

/// Every request that is not an envelope.
fn arb_plain_request() -> impl Strategy<Value = Request> {
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
        arb_oids().prop_map(Request::ChildrenBatch),
        arb_oids().prop_map(Request::PartsBatch),
        arb_oids().prop_map(Request::RefsToBatch),
        arb_oids().prop_map(Request::HundredBatch),
        arb_oids().prop_map(Request::MillionBatch),
        proptest::collection::vec((oid(), any::<u32>()), 0..20).prop_map(Request::SetHundredBatch),
        any::<u64>().prop_map(Request::PrepareCommit),
        any::<u64>().prop_map(Request::CommitPrepared),
        any::<u64>().prop_map(Request::AbortPrepared),
        Just(Request::SyncSubtree),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Request::InstallSubtree),
        arb_oids().prop_map(Request::ExportNodes),
        proptest::collection::vec(arb_export(), 0..4).prop_map(Request::InstallNodes),
        arb_oids().prop_map(Request::ActivateNodes),
        (arb_oids(), any::<u16>(), any::<u64>())
            .prop_map(|(o, to, epoch)| Request::RetireNodes(o, to, epoch)),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        9 => arb_plain_request(),
        1 => (any::<u64>(), arb_plain_request())
            .prop_map(|(id, inner)| Request::Tagged(id, Box::new(inner))),
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
        proptest::collection::vec(arb_oids(), 0..8).prop_map(Response::OidLists),
        proptest::collection::vec(arb_edges(), 0..8).prop_map(Response::EdgeLists),
        proptest::collection::vec(any::<u32>(), 0..50).prop_map(Response::U32s),
        "[ -~]{0,100}".prop_map(Response::Stats),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Response::Subtree),
        (any::<u16>(), any::<u64>()).prop_map(|(to, epoch)| Response::Moved(to, epoch)),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    // A catalogue row the generator above does not produce fails here,
    // so the properties below always range over every operation.
    #[test]
    fn every_request_variant_is_generated(
        reqs in proptest::collection::vec(arb_plain_request(), 4000..4001),
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
    // tag or a flag far more often than random garbage does.
    #[test]
    fn mutated_valid_frames_error_or_decode_never_panic(
        req in arb_request(),
        resp in arb_response(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = request_bytes(&req);
        let i = at % bytes.len();
        bytes[i] = byte;
        let _ = Request::decode(&bytes);
        let mut bytes = response_bytes(&resp);
        let i = at % bytes.len();
        bytes[i] = byte;
        let _ = Response::decode(&bytes);
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
