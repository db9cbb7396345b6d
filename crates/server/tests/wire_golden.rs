//! Golden frames: one instance of every `Request` and `Response`
//! variant with its exact wire bytes. The bytes were captured from the
//! hand-written encoder this crate had before the codec was generated
//! from the operation catalogue (commit 1440198), so a frame that
//! encodes to its golden and decodes from it is byte-compatible with
//! every earlier build. `WriteBatch` (tag 55) came later; its golden is
//! composed by hand from the scalar goldens its items repeat. Tag 43 (a
//! batch of `set_hundred`, now a `WriteBatch` of `SetHundred` items) is
//! retired and refused. `InstallNodes` (tag 52) dropped the redundant
//! `u32` length that once wrapped its counted batch, so its golden is the
//! captured frame without those four bytes. `Expand` (tag 56) and its
//! answer, `Response::Reached` (tag 19), came later too, composed by hand
//! from the field layouts above; the per-level batches they replaced
//! (request tags 38–40 and 42, response tags 13 and 14) are retired and
//! refused. Tag 47, an envelope that carried a retry id around a
//! mutation, is retired too: every frame now starts with its `u64`
//! sequence number instead, in front of the message's golden bytes.
//!
//! `request_golden` / `response_golden` match on the variant without a
//! wildcard: a new catalogue row (or response variant) does not compile
//! until it has a golden here.

use hypermodel::migrate::{NodeExport, MIGRATE_SLOT_BASE};
use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::{BatchWrite, Bitmap, Reached, Rel};
use server::protocol::{Request, Response};
use server::{put_seq, split_seq};

fn bitmap() -> Bitmap {
    let mut bm = Bitmap::white(9, 2);
    bm.set(8, 1, true);
    bm
}

fn attrs(unique_id: u64) -> NodeAttrs {
    NodeAttrs {
        unique_id,
        ten: 4,
        hundred: 5,
        thousand: 6,
        million: 7,
    }
}

fn text_value() -> NodeValue {
    NodeValue {
        kind: NodeKind::TEXT,
        attrs: attrs(3),
        content: Content::Text("version1 tail".into()),
    }
}

fn form_value() -> NodeValue {
    NodeValue {
        kind: NodeKind::FORM,
        attrs: attrs(8),
        content: Content::Form(bitmap()),
    }
}

fn edge(target: u64) -> RefEdge {
    edge_with(target, 4, 5)
}

fn edge_with(target: u64, offset_from: u8, offset_to: u8) -> RefEdge {
    RefEdge {
        target: Oid(target),
        offset_from,
        offset_to,
    }
}

fn export() -> NodeExport {
    NodeExport {
        value: text_value(),
        in_structure: true,
        parent: Some(Oid(9)),
        children: vec![Oid(MIGRATE_SLOT_BASE + 1), Oid(12)],
        parts: vec![Oid(3)],
        part_of: vec![],
        refs_to: vec![edge(MIGRATE_SLOT_BASE)],
        refs_from: vec![],
        reuse: Some(Oid(77)),
    }
}

fn request_samples() -> Vec<Request> {
    vec![
        Request::LookupUnique(42),
        Request::UniqueIdOf(Oid(1)),
        Request::KindOf(Oid(2)),
        Request::TenOf(Oid(3)),
        Request::HundredOf(Oid(4)),
        Request::MillionOf(Oid(5)),
        Request::SetHundred(Oid(6), 77),
        Request::RangeHundred(1, 10),
        Request::RangeMillion(5, 10_000),
        Request::Children(Oid(7)),
        Request::Parent(Oid(8)),
        Request::Parts(Oid(9)),
        Request::PartOf(Oid(10)),
        Request::RefsTo(Oid(11)),
        Request::RefsFrom(Oid(12)),
        Request::SeqScanTen,
        Request::TextOf(Oid(13)),
        Request::SetText(Oid(14), "some text".into()),
        Request::FormOf(Oid(15)),
        Request::SetForm(Oid(16), bitmap()),
        Request::CreateNode(text_value()),
        Request::CreateNodeClustered(form_value(), Some(Oid(17))),
        Request::CreateNodeClustered(text_value(), None),
        Request::AddChild(Oid(18), Oid(19)),
        Request::AddPart(Oid(20), Oid(21)),
        Request::AddRef(Oid(22), Oid(23), 3, 9),
        Request::InsertExtraNode(form_value()),
        Request::Commit,
        Request::ColdRestart,
        Request::Closure1N(Oid(24)),
        Request::Closure1NAttSum(Oid(25)),
        Request::Closure1NAttSet(Oid(26)),
        Request::Closure1NPred(Oid(27), 1, 10_000),
        Request::ClosureMN(Oid(28)),
        Request::ClosureMNAtt(Oid(29), 25),
        Request::ClosureMNAttLinkSum(Oid(30), 25),
        Request::TextNodeEdit(Oid(31), "version1".into(), "version-2".into()),
        Request::FormNodeEdit(Oid(32), 25, 25, 50, 50),
        Request::Shutdown,
        Request::HundredBatch(vec![Oid(36), Oid(37), Oid(38)]),
        Request::PrepareCommit(900),
        Request::CommitPrepared(901),
        Request::AbortPrepared(902),
        Request::Stats,
        Request::SyncSubtree,
        Request::InstallSubtree(vec![1, 0, 0, 0, 42]),
        Request::ExportNodes(vec![Oid(43), Oid(44)]),
        Request::InstallNodes(vec![export()]),
        Request::ActivateNodes(vec![Oid(45)]),
        Request::RetireNodes(vec![Oid(46), Oid(47)]),
        Request::WriteBatch(batch_writes()),
        Request::Expand(
            Rel::RefsTo,
            vec![(Oid(33), 25), (Oid(34), u32::MAX)],
            Some((1, 10_000)),
        ),
    ]
}

/// One item of every kind, each with the arguments of the scalar request
/// sample it stands for.
fn batch_writes() -> Vec<BatchWrite> {
    vec![
        BatchWrite::Create {
            value: form_value(),
            near: Some(Oid(17)),
        },
        BatchWrite::Create {
            value: text_value(),
            near: None,
        },
        BatchWrite::Extra(form_value()),
        BatchWrite::Child(Oid(18), Oid(19)),
        BatchWrite::Part(Oid(20), Oid(21)),
        BatchWrite::Ref(Oid(22), edge_with(23, 3, 9)),
        BatchWrite::SetHundred(Oid(6), 77),
    ]
}

/// The scalar request each of [`batch_writes`] stands for.
fn scalar_requests() -> Vec<Request> {
    vec![
        Request::CreateNodeClustered(form_value(), Some(Oid(17))),
        Request::CreateNodeClustered(text_value(), None),
        Request::InsertExtraNode(form_value()),
        Request::AddChild(Oid(18), Oid(19)),
        Request::AddPart(Oid(20), Oid(21)),
        Request::AddRef(Oid(22), Oid(23), 3, 9),
        Request::SetHundred(Oid(6), 77),
    ]
}

/// The frame for this variant's instance in [`request_samples`]: the tag
/// byte, a space, the payload, in hex.
fn request_golden(req: &Request) -> &'static str {
    match req {
        Request::LookupUnique(..) => "00 2a00000000000000",
        Request::UniqueIdOf(..) => "01 0100000000000000",
        Request::KindOf(..) => "02 0200000000000000",
        Request::TenOf(..) => "03 0300000000000000",
        Request::HundredOf(..) => "04 0400000000000000",
        Request::MillionOf(..) => "05 0500000000000000",
        Request::SetHundred(..) => "06 06000000000000004d000000",
        Request::RangeHundred(..) => "07 010000000a000000",
        Request::RangeMillion(..) => "08 0500000010270000",
        Request::Children(..) => "09 0700000000000000",
        Request::Parent(..) => "0a 0800000000000000",
        Request::Parts(..) => "0b 0900000000000000",
        Request::PartOf(..) => "0c 0a00000000000000",
        Request::RefsTo(..) => "0d 0b00000000000000",
        Request::RefsFrom(..) => "0e 0c00000000000000",
        Request::SeqScanTen => "0f",
        Request::TextOf(..) => "10 0d00000000000000",
        Request::SetText(..) => "11 0e0000000000000009000000736f6d652074657874",
        Request::FormOf(..) => "12 0f00000000000000",
        Request::SetForm(..) => "13 10000000000000000900020003000000000002",
        Request::CreateNode(..) => "14 2c0000000100030000000000000004000000050000000600000007000000010d00000076657273696f6e31207461696c",
        Request::CreateNodeClustered(_, Some(_)) => "15 2200000002000800000000000000040000000500000006000000070000000209000200000002011100000000000000",
        Request::CreateNodeClustered(_, None) => "15 2c0000000100030000000000000004000000050000000600000007000000010d00000076657273696f6e31207461696c00",
        Request::AddChild(..) => "16 12000000000000001300000000000000",
        Request::AddPart(..) => "17 14000000000000001500000000000000",
        Request::AddRef(..) => "18 160000000000000017000000000000000309",
        Request::InsertExtraNode(..) => "19 2200000002000800000000000000040000000500000006000000070000000209000200000002",
        Request::Commit => "1a",
        Request::ColdRestart => "1b",
        Request::Closure1N(..) => "1c 1800000000000000",
        Request::Closure1NAttSum(..) => "1d 1900000000000000",
        Request::Closure1NAttSet(..) => "1e 1a00000000000000",
        Request::Closure1NPred(..) => "1f 1b000000000000000100000010270000",
        Request::ClosureMN(..) => "20 1c00000000000000",
        Request::ClosureMNAtt(..) => "21 1d0000000000000019000000",
        Request::ClosureMNAttLinkSum(..) => "22 1e0000000000000019000000",
        Request::TextNodeEdit(..) => "23 1f000000000000000800000076657273696f6e310900000076657273696f6e2d32",
        Request::FormNodeEdit(..) => "24 20000000000000001900190032003200",
        Request::Shutdown => "25",
        Request::HundredBatch(..) => "29 03000000240000000000000025000000000000002600000000000000",
        Request::PrepareCommit(..) => "2c 8403000000000000",
        Request::CommitPrepared(..) => "2d 8503000000000000",
        Request::AbortPrepared(..) => "2e 8603000000000000",
        Request::Stats => "30",
        Request::SyncSubtree => "31",
        Request::InstallSubtree(..) => "32 05000000010000002a",
        Request::ExportNodes(..) => "33 020000002b000000000000002c00000000000000",
        Request::InstallNodes(..) => "34 010000002c0000000100030000000000000004000000050000000600000007000000010d00000076657273696f6e31207461696c0109000000000000000200000001000000000000010c00000000000000010000000300000000000000000000000100000000000000000000010405000000004d00000000000000",
        Request::ActivateNodes(..) => "35 010000002d00000000000000",
        Request::RetireNodes(..) => "36 020000002e000000000000002f00000000000000",
        // The item count, then each item as its scalar request's frame.
        Request::WriteBatch(..) => concat!(
            "37 07000000",
            " 15 2200000002000800000000000000040000000500000006000000070000000209000200000002011100000000000000",
            " 15 2c0000000100030000000000000004000000050000000600000007000000010d00000076657273696f6e31207461696c00",
            " 19 2200000002000800000000000000040000000500000006000000070000000209000200000002",
            " 16 12000000000000001300000000000000",
            " 17 14000000000000001500000000000000",
            " 18 160000000000000017000000000000000309",
            " 06 06000000000000004d000000",
        ),
        // The relationship byte, the counted (oid, depth) starts, then the
        // prune range as an option.
        Request::Expand(..) => concat!(
            "38 02 02000000",
            " 2100000000000000 19000000 2200000000000000 ffffffff",
            " 01 01000000 10270000",
        ),
    }
}

fn response_samples() -> Vec<Response> {
    vec![
        Response::Unit,
        Response::Oid(Oid(5)),
        Response::OptOid(Some(Oid(6))),
        Response::OptOid(None),
        Response::U16(9),
        Response::U32(100),
        Response::U64(u64::MAX),
        Response::SumCount(12345, 678),
        Response::Oids(vec![Oid(1), Oid(2)]),
        Response::Edges(vec![edge(3)]),
        Response::Text("hello".into()),
        Response::Form(bitmap()),
        Response::Pairs(vec![(Oid(4), 17), (Oid(5), 26)]),
        Response::Err("backend error: boom".into()),
        Response::U32s(vec![1, 2, 3]),
        Response::Stats("{\"counters\": {}}".into()),
        Response::Subtree(vec![9, 8, 7]),
        Response::Reached(vec![
            Reached {
                node: Oid(6),
                depth: 3,
                list: Some(vec![edge(8)]),
            },
            Reached {
                node: Oid(7),
                depth: 0,
                list: None,
            },
        ]),
    ]
}

fn response_golden(resp: &Response) -> &'static str {
    match resp {
        Response::Unit => "00",
        Response::Oid(..) => "01 0500000000000000",
        Response::OptOid(Some(_)) => "02 010600000000000000",
        Response::OptOid(None) => "02 00",
        Response::U16(..) => "03 0900",
        Response::U32(..) => "04 64000000",
        Response::U64(..) => "05 ffffffffffffffff",
        Response::SumCount(..) => "06 3930000000000000a602000000000000",
        Response::Oids(..) => "07 0200000001000000000000000200000000000000",
        Response::Edges(..) => "08 0100000003000000000000000405",
        Response::Text(..) => "09 0500000068656c6c6f",
        Response::Form(..) => "0a 0900020003000000000002",
        Response::Pairs(..) => {
            "0b 020000000400000000000000110000000000000005000000000000001a00000000000000"
        }
        Response::Err(..) => "0c 130000006261636b656e64206572726f723a20626f6f6d",
        Response::U32s(..) => "0f 03000000010000000200000003000000",
        Response::Stats(..) => "10 100000007b22636f756e74657273223a207b7d7d",
        Response::Subtree(..) => "11 03000000090807",
        // The count, then each record: node, depth, list as an option.
        Response::Reached(..) => concat!(
            "13 02000000",
            " 0600000000000000 03000000 01 01000000 0800000000000000 0405",
            " 0700000000000000 00000000 00",
        ),
    }
}

fn unhex(golden: &str) -> Vec<u8> {
    let digits: Vec<u8> = golden.bytes().filter(|b| *b != b' ').collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn every_request_encodes_to_and_decodes_from_its_golden_frame() {
    let mut tags = std::collections::BTreeSet::new();
    for req in request_samples() {
        let frame = unhex(request_golden(&req));
        let mut encoded = Vec::new();
        req.encode_into(&mut encoded);
        assert_eq!(encoded, frame, "{req:?}");
        assert_eq!(Request::decode(&frame).unwrap(), req);
        tags.insert(frame[0]);
    }
    // Tags are dense but for the retired ones: a sample list that skipped
    // a variant leaves a hole.
    let retired = [38, 39, 40, 42, 43, 47];
    assert_eq!(
        tags.into_iter().collect::<Vec<u8>>(),
        (0..=56)
            .filter(|t| !retired.contains(t))
            .collect::<Vec<u8>>()
    );
    for tag in retired {
        let frame = [vec![tag], unhex("01000000 2700000000000000")].concat();
        assert!(Request::decode(&frame).is_err(), "tag {tag} is retired");
    }
}

#[test]
fn each_batch_write_is_encoded_as_its_scalar_request() {
    for (item, scalar) in batch_writes().into_iter().zip(scalar_requests()) {
        let mut batch = Vec::new();
        Request::WriteBatch(vec![item]).encode_into(&mut batch);
        let mut alone = Vec::new();
        scalar.encode_into(&mut alone);
        assert_eq!(batch[..5], [55, 1, 0, 0, 0], "{scalar:?}");
        assert_eq!(batch[5..], alone[..], "{scalar:?}");
    }
}

#[test]
fn every_response_encodes_to_and_decodes_from_its_golden_frame() {
    let mut tags = std::collections::BTreeSet::new();
    for resp in response_samples() {
        let frame = unhex(response_golden(&resp));
        let mut encoded = Vec::new();
        resp.encode_into(&mut encoded);
        assert_eq!(encoded, frame, "{resp:?}");
        assert_eq!(Response::decode(&frame).unwrap(), resp);
        tags.insert(frame[0]);
    }
    let retired = [13, 14, 18];
    assert_eq!(
        tags.into_iter().collect::<Vec<u8>>(),
        (0..=19)
            .filter(|t| !retired.contains(t))
            .collect::<Vec<u8>>()
    );
    assert!(
        Response::decode(&unhex("12 03002a00000000000000")).is_err(),
        "tag 18 is retired"
    );
    for golden in ["0d 01000000 00000000", "0e 01000000 00000000"] {
        assert!(
            Response::decode(&unhex(golden)).is_err(),
            "{golden} is retired"
        );
    }
}

#[test]
fn tag_47_is_an_unknown_request() {
    let frame = unhex("2f 2b020000000000000d000000062a000000000000000d000000");
    let err = Request::decode(&frame).unwrap_err();
    assert!(err.to_string().contains("unknown request tag 47"), "{err}");
}

/// A frame is its little-endian `u64` sequence number, then the message
/// as its golden above: a request from the client, and the reply that
/// echoes its number.
#[test]
fn the_envelope_is_the_number_then_the_message() {
    let req = Request::SetHundred(Oid(42), 13);
    let mut frame = Vec::new();
    put_seq(&mut frame, 555);
    req.encode_into(&mut frame);
    assert_eq!(
        frame,
        unhex("2b02000000000000 06 2a00000000000000 0d000000")
    );
    let (seq, body) = split_seq(&frame).unwrap();
    assert_eq!((seq, Request::decode(body).unwrap()), (555, req));

    let mut reply = Vec::new();
    put_seq(&mut reply, 555);
    Response::U32(100).encode_into(&mut reply);
    assert_eq!(reply, unhex("2b02000000000000 04 64000000"));
    let (seq, body) = split_seq(&reply).unwrap();
    assert_eq!(
        (seq, Response::decode(body).unwrap()),
        (555, Response::U32(100))
    );

    for short in 0..8 {
        assert!(split_seq(&frame[..short]).is_err(), "{short} bytes");
    }
}
