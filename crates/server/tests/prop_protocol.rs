//! Property tests for the wire protocol: arbitrary messages round-trip
//! through `encode_into` (which appends and never disturbs what the
//! buffer already holds), and arbitrary garbage never panics the
//! decoder.

use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::Bitmap;
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

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u64>().prop_map(Request::LookupUnique),
        arb_oid().prop_map(Request::HundredOf),
        arb_oid().prop_map(Request::Children),
        (arb_oid(), any::<u32>()).prop_map(|(o, v)| Request::SetHundred(o, v)),
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| Request::RangeHundred(a, b)),
        (arb_oid(), "[a-z]{0,100}").prop_map(|(o, s)| Request::SetText(o, s)),
        arb_node_value().prop_map(Request::CreateNode),
        (arb_node_value(), proptest::option::of(arb_oid()))
            .prop_map(|(v, n)| Request::CreateNodeClustered(v, n)),
        (arb_oid(), arb_oid(), 0u8..10, 0u8..10)
            .prop_map(|(a, b, f, t)| Request::AddRef(a, b, f, t)),
        (arb_oid(), 1u32..100).prop_map(|(o, d)| Request::ClosureMNAtt(o, d)),
        (arb_oid(), "[a-z]{1,20}", "[a-z]{1,20}")
            .prop_map(|(o, f, t)| Request::TextNodeEdit(o, f, t)),
        (
            arb_oid(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>()
        )
            .prop_map(|(o, a, b, c, d)| Request::FormNodeEdit(o, a, b, c, d)),
        Just(Request::Commit),
        Just(Request::SeqScanTen),
        Just(Request::Shutdown),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Unit),
        arb_oid().prop_map(Response::Oid),
        proptest::option::of(arb_oid()).prop_map(Response::OptOid),
        any::<u32>().prop_map(Response::U32),
        any::<u64>().prop_map(Response::U64),
        (any::<u64>(), any::<u64>()).prop_map(|(s, c)| Response::SumCount(s, c)),
        proptest::collection::vec(arb_oid(), 0..50).prop_map(Response::Oids),
        proptest::collection::vec((arb_oid(), 0u8..10, 0u8..10), 0..20).prop_map(|v| {
            Response::Edges(
                v.into_iter()
                    .map(|(target, offset_from, offset_to)| RefEdge {
                        target,
                        offset_from,
                        offset_to,
                    })
                    .collect(),
            )
        }),
        "[ -~]{0,200}".prop_map(Response::Text),
        (1u16..50, 1u16..50).prop_map(|(w, h)| Response::Form(Bitmap::white(w, h))),
        proptest::collection::vec((arb_oid(), any::<u64>()), 0..30).prop_map(Response::Pairs),
        "[ -~]{0,100}".prop_map(Response::Err),
    ]
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
}
