//! The request/response wire protocol.
//!
//! One request message per [`hypermodel::store::HyperStore`] primitive,
//! plus *server-side* variants of the closure and editing operations.
//! The server-side operations exist to reproduce the paper's §4
//! observation that "many database-system will be able to support some
//! higher level conceptual operations more efficiently than others": a
//! client that only has the primitives must pay one round trip per
//! relationship access during a closure, while a server that implements
//! the conceptual operation answers in one round trip.

use hypermodel::error::{HmError, Result};
use hypermodel::model::{NodeValue, Oid, RefEdge};
use hypermodel::Bitmap;

use crate::codec::{prealloc_cap, Reader, Writer};

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    // ---- primitives -------------------------------------------------
    /// `lookup_unique`.
    LookupUnique(u64),
    /// `unique_id_of`.
    UniqueIdOf(Oid),
    /// `kind_of`.
    KindOf(Oid),
    /// `ten_of`.
    TenOf(Oid),
    /// `hundred_of`.
    HundredOf(Oid),
    /// `million_of`.
    MillionOf(Oid),
    /// `set_hundred`.
    SetHundred(Oid, u32),
    /// `range_hundred`.
    RangeHundred(u32, u32),
    /// `range_million`.
    RangeMillion(u32, u32),
    /// `children`.
    Children(Oid),
    /// `parent`.
    Parent(Oid),
    /// `parts`.
    Parts(Oid),
    /// `part_of`.
    PartOf(Oid),
    /// `refs_to`.
    RefsTo(Oid),
    /// `refs_from`.
    RefsFrom(Oid),
    /// `seq_scan_ten`.
    SeqScanTen,
    /// `text_of`.
    TextOf(Oid),
    /// `set_text`.
    SetText(Oid, String),
    /// `form_of`.
    FormOf(Oid),
    /// `set_form`.
    SetForm(Oid, Bitmap),
    /// `create_node`.
    CreateNode(NodeValue),
    /// `create_node_clustered`.
    CreateNodeClustered(NodeValue, Option<Oid>),
    /// `add_child`.
    AddChild(Oid, Oid),
    /// `add_part`.
    AddPart(Oid, Oid),
    /// `add_ref`.
    AddRef(Oid, Oid, u8, u8),
    /// `insert_extra_node`.
    InsertExtraNode(NodeValue),
    /// `commit`.
    Commit,
    /// `cold_restart`.
    ColdRestart,
    // ---- server-side conceptual operations ---------------------------
    /// `closure_1n` executed on the server.
    Closure1N(Oid),
    /// `closure_1n_att_sum` executed on the server.
    Closure1NAttSum(Oid),
    /// `closure_1n_att_set` executed on the server.
    Closure1NAttSet(Oid),
    /// `closure_1n_pred` executed on the server.
    Closure1NPred(Oid, u32, u32),
    /// `closure_mn` executed on the server.
    ClosureMN(Oid),
    /// `closure_mnatt` executed on the server.
    ClosureMNAtt(Oid, u32),
    /// `closure_mnatt_linksum` executed on the server.
    ClosureMNAttLinkSum(Oid, u32),
    /// `text_node_edit` executed on the server.
    TextNodeEdit(Oid, String, String),
    /// `form_node_edit` executed on the server.
    FormNodeEdit(Oid, u16, u16, u16, u16),
    // ---- session control ---------------------------------------------
    /// Terminate the serving loop.
    Shutdown,
    /// Scrape the server's metrics registry (counters, gauges, latency
    /// histograms) as a JSON document. Answered by the serving loop
    /// itself, not the store.
    Stats,
    // ---- batched primitives -------------------------------------------
    /// `children_batch`: `children` for each oid, one round trip.
    ChildrenBatch(Vec<Oid>),
    /// `parts_batch`.
    PartsBatch(Vec<Oid>),
    /// `refs_to_batch`.
    RefsToBatch(Vec<Oid>),
    /// `hundred_batch`.
    HundredBatch(Vec<Oid>),
    /// `million_batch`.
    MillionBatch(Vec<Oid>),
    /// `set_hundred_batch`.
    SetHundredBatch(Vec<(Oid, u32)>),
    // ---- two-phase commit ---------------------------------------------
    /// `prepare_commit`: phase one of a coordinated commit.
    PrepareCommit(u64),
    /// `commit_prepared`: coordinator decided commit.
    CommitPrepared(u64),
    /// `abort_prepared`: coordinator decided abort.
    AbortPrepared(u64),
    // ---- anti-entropy --------------------------------------------------
    /// `sync_export`: serialize this server's full partition state so a
    /// lagging replica can be repaired from it.
    SyncSubtree,
    /// `sync_import`: replace this server's partition state with the
    /// given snapshot (the payload of a [`Response::Subtree`]).
    InstallSubtree(Vec<u8>),
    // ---- idempotent retry envelope ------------------------------------
    /// A request tagged with a client-chosen id. The server remembers
    /// recently-seen ids and replays the stored response instead of
    /// re-executing, so a retried mutation applies at most once even
    /// when the first response was lost in flight. Must not nest.
    Tagged(u64, Box<Request>),
    // ---- online migration -----------------------------------------------
    /// `export_nodes`: the relationship state of each oid, answered as
    /// an encoded migration batch in a [`Response::Subtree`].
    ExportNodes(Vec<Oid>),
    /// `install_nodes`: install an encoded migration batch *inert*
    /// (present but invisible to every index and the scan extent);
    /// answers with the assigned local oids in batch order.
    InstallNodes(Vec<u8>),
    /// `activate_nodes`: make inert-installed records live — the
    /// migration's commit point on this server.
    ActivateNodes(Vec<Oid>),
    /// `retire_nodes`: demote migrated-away records to ghost stand-ins,
    /// remembering `(moved_to, epoch)` so stale direct requests can be
    /// answered with a [`Response::Moved`] redirect.
    RetireNodes(Vec<Oid>, u16, u64),
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with no payload.
    Unit,
    /// One object id.
    Oid(Oid),
    /// An optional object id.
    OptOid(Option<Oid>),
    /// A `u16` (node kind code).
    U16(u16),
    /// A `u32` (attribute value).
    U32(u32),
    /// A `u64` (counter, uid).
    U64(u64),
    /// A `(sum, count)` pair.
    SumCount(u64, u64),
    /// A list of object ids.
    Oids(Vec<Oid>),
    /// A list of reference edges.
    Edges(Vec<RefEdge>),
    /// A string (text content).
    Text(String),
    /// A bitmap (form content).
    Form(Bitmap),
    /// `(oid, distance)` pairs from the link-sum closure.
    Pairs(Vec<(Oid, u64)>),
    /// The operation failed; the message is the error's display form.
    Err(String),
    /// One oid list per batched input oid.
    OidLists(Vec<Vec<Oid>>),
    /// One edge list per batched input oid.
    EdgeLists(Vec<Vec<RefEdge>>),
    /// One `u32` per batched input oid.
    U32s(Vec<u32>),
    /// The server's metrics registry exported as JSON (see
    /// [`Request::Stats`]).
    Stats(String),
    /// A partition snapshot (answer to [`Request::SyncSubtree`]).
    Subtree(Vec<u8>),
    /// The addressed node was migrated away: `(destination shard,
    /// forwarding epoch)`. The client should refresh its placement map
    /// and re-issue the request against the destination.
    Moved(u16, u64),
}

const REQ_TAGS: u8 = 55; // highest request tag + 1, for decode validation

impl Request {
    fn tag(&self) -> u8 {
        match self {
            Request::LookupUnique(_) => 0,
            Request::UniqueIdOf(_) => 1,
            Request::KindOf(_) => 2,
            Request::TenOf(_) => 3,
            Request::HundredOf(_) => 4,
            Request::MillionOf(_) => 5,
            Request::SetHundred(..) => 6,
            Request::RangeHundred(..) => 7,
            Request::RangeMillion(..) => 8,
            Request::Children(_) => 9,
            Request::Parent(_) => 10,
            Request::Parts(_) => 11,
            Request::PartOf(_) => 12,
            Request::RefsTo(_) => 13,
            Request::RefsFrom(_) => 14,
            Request::SeqScanTen => 15,
            Request::TextOf(_) => 16,
            Request::SetText(..) => 17,
            Request::FormOf(_) => 18,
            Request::SetForm(..) => 19,
            Request::CreateNode(_) => 20,
            Request::CreateNodeClustered(..) => 21,
            Request::AddChild(..) => 22,
            Request::AddPart(..) => 23,
            Request::AddRef(..) => 24,
            Request::InsertExtraNode(_) => 25,
            Request::Commit => 26,
            Request::ColdRestart => 27,
            Request::Closure1N(_) => 28,
            Request::Closure1NAttSum(_) => 29,
            Request::Closure1NAttSet(_) => 30,
            Request::Closure1NPred(..) => 31,
            Request::ClosureMN(_) => 32,
            Request::ClosureMNAtt(..) => 33,
            Request::ClosureMNAttLinkSum(..) => 34,
            Request::TextNodeEdit(..) => 35,
            Request::FormNodeEdit(..) => 36,
            Request::Shutdown => 37,
            Request::ChildrenBatch(_) => 38,
            Request::PartsBatch(_) => 39,
            Request::RefsToBatch(_) => 40,
            Request::HundredBatch(_) => 41,
            Request::MillionBatch(_) => 42,
            Request::SetHundredBatch(_) => 43,
            Request::PrepareCommit(_) => 44,
            Request::CommitPrepared(_) => 45,
            Request::AbortPrepared(_) => 46,
            Request::Tagged(..) => 47,
            Request::Stats => 48,
            Request::SyncSubtree => 49,
            Request::InstallSubtree(_) => 50,
            Request::ExportNodes(_) => 51,
            Request::InstallNodes(_) => 52,
            Request::ActivateNodes(_) => 53,
            Request::RetireNodes(..) => 54,
        }
    }

    /// Encode by appending to a caller-owned buffer, so the hot path
    /// (`RemoteStore`, the serving loops) reuses one scratch `Vec`
    /// across requests instead of allocating per call.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_body(&mut Writer::over(out));
    }

    fn encode_body(&self, w: &mut Writer) {
        w.u8(self.tag());
        match self {
            Request::LookupUnique(uid) => w.u64(*uid),
            Request::UniqueIdOf(o)
            | Request::KindOf(o)
            | Request::TenOf(o)
            | Request::HundredOf(o)
            | Request::MillionOf(o)
            | Request::Children(o)
            | Request::Parent(o)
            | Request::Parts(o)
            | Request::PartOf(o)
            | Request::RefsTo(o)
            | Request::RefsFrom(o)
            | Request::TextOf(o)
            | Request::FormOf(o)
            | Request::Closure1N(o)
            | Request::Closure1NAttSum(o)
            | Request::Closure1NAttSet(o)
            | Request::ClosureMN(o) => w.oid(*o),
            Request::SetHundred(o, v) => {
                w.oid(*o);
                w.u32(*v);
            }
            Request::RangeHundred(lo, hi) | Request::RangeMillion(lo, hi) => {
                w.u32(*lo);
                w.u32(*hi);
            }
            Request::SeqScanTen
            | Request::Commit
            | Request::ColdRestart
            | Request::Shutdown
            | Request::Stats
            | Request::SyncSubtree => {}
            Request::InstallSubtree(b) => w.bytes(b),
            Request::SetText(o, s) => {
                w.oid(*o);
                w.string(s);
            }
            Request::SetForm(o, bm) => {
                w.oid(*o);
                w.bitmap(bm);
            }
            Request::CreateNode(v) | Request::InsertExtraNode(v) => w.node_value(v),
            Request::CreateNodeClustered(v, near) => {
                w.node_value(v);
                match near {
                    Some(n) => {
                        w.u8(1);
                        w.oid(*n);
                    }
                    None => w.u8(0),
                }
            }
            Request::AddChild(a, b) | Request::AddPart(a, b) => {
                w.oid(*a);
                w.oid(*b);
            }
            Request::AddRef(a, b, f, t) => {
                w.oid(*a);
                w.oid(*b);
                w.u8(*f);
                w.u8(*t);
            }
            Request::Closure1NPred(o, lo, hi) => {
                w.oid(*o);
                w.u32(*lo);
                w.u32(*hi);
            }
            Request::ClosureMNAtt(o, d) | Request::ClosureMNAttLinkSum(o, d) => {
                w.oid(*o);
                w.u32(*d);
            }
            Request::TextNodeEdit(o, from, to) => {
                w.oid(*o);
                w.string(from);
                w.string(to);
            }
            Request::FormNodeEdit(o, x0, y0, x1, y1) => {
                w.oid(*o);
                w.u16(*x0);
                w.u16(*y0);
                w.u16(*x1);
                w.u16(*y1);
            }
            Request::ChildrenBatch(v)
            | Request::PartsBatch(v)
            | Request::RefsToBatch(v)
            | Request::HundredBatch(v)
            | Request::MillionBatch(v)
            | Request::ExportNodes(v)
            | Request::ActivateNodes(v) => w.oids(v),
            Request::InstallNodes(b) => w.bytes(b),
            Request::RetireNodes(v, to, epoch) => {
                w.oids(v);
                w.u16(*to);
                w.u64(*epoch);
            }
            Request::SetHundredBatch(v) => {
                w.u32(v.len() as u32);
                for (o, val) in v {
                    w.oid(*o);
                    w.u32(*val);
                }
            }
            Request::PrepareCommit(txid)
            | Request::CommitPrepared(txid)
            | Request::AbortPrepared(txid) => w.u64(*txid),
            Request::Tagged(id, inner) => {
                w.u64(*id);
                w.nested(|w| inner.encode_body(w));
            }
        }
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<Request> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        if tag >= REQ_TAGS {
            return Err(HmError::Backend(format!("unknown request tag {tag}")));
        }
        let req = match tag {
            0 => Request::LookupUnique(r.u64()?),
            1 => Request::UniqueIdOf(r.oid()?),
            2 => Request::KindOf(r.oid()?),
            3 => Request::TenOf(r.oid()?),
            4 => Request::HundredOf(r.oid()?),
            5 => Request::MillionOf(r.oid()?),
            6 => Request::SetHundred(r.oid()?, r.u32()?),
            7 => Request::RangeHundred(r.u32()?, r.u32()?),
            8 => Request::RangeMillion(r.u32()?, r.u32()?),
            9 => Request::Children(r.oid()?),
            10 => Request::Parent(r.oid()?),
            11 => Request::Parts(r.oid()?),
            12 => Request::PartOf(r.oid()?),
            13 => Request::RefsTo(r.oid()?),
            14 => Request::RefsFrom(r.oid()?),
            15 => Request::SeqScanTen,
            16 => Request::TextOf(r.oid()?),
            17 => Request::SetText(r.oid()?, r.string()?),
            18 => Request::FormOf(r.oid()?),
            19 => Request::SetForm(r.oid()?, r.bitmap()?),
            20 => Request::CreateNode(r.node_value()?),
            21 => {
                let v = r.node_value()?;
                let near = if r.u8()? == 1 { Some(r.oid()?) } else { None };
                Request::CreateNodeClustered(v, near)
            }
            22 => Request::AddChild(r.oid()?, r.oid()?),
            23 => Request::AddPart(r.oid()?, r.oid()?),
            24 => Request::AddRef(r.oid()?, r.oid()?, r.u8()?, r.u8()?),
            25 => Request::InsertExtraNode(r.node_value()?),
            26 => Request::Commit,
            27 => Request::ColdRestart,
            28 => Request::Closure1N(r.oid()?),
            29 => Request::Closure1NAttSum(r.oid()?),
            30 => Request::Closure1NAttSet(r.oid()?),
            31 => Request::Closure1NPred(r.oid()?, r.u32()?, r.u32()?),
            32 => Request::ClosureMN(r.oid()?),
            33 => Request::ClosureMNAtt(r.oid()?, r.u32()?),
            34 => Request::ClosureMNAttLinkSum(r.oid()?, r.u32()?),
            35 => Request::TextNodeEdit(r.oid()?, r.string()?, r.string()?),
            36 => Request::FormNodeEdit(r.oid()?, r.u16()?, r.u16()?, r.u16()?, r.u16()?),
            37 => Request::Shutdown,
            38 => Request::ChildrenBatch(r.oids()?),
            39 => Request::PartsBatch(r.oids()?),
            40 => Request::RefsToBatch(r.oids()?),
            41 => Request::HundredBatch(r.oids()?),
            42 => Request::MillionBatch(r.oids()?),
            43 => {
                let n = r.u32()? as usize;
                let mut v = Vec::with_capacity(prealloc_cap(n, 12));
                for _ in 0..n {
                    v.push((r.oid()?, r.u32()?));
                }
                Request::SetHundredBatch(v)
            }
            44 => Request::PrepareCommit(r.u64()?),
            45 => Request::CommitPrepared(r.u64()?),
            46 => Request::AbortPrepared(r.u64()?),
            47 => {
                let id = r.u64()?;
                // Borrow the envelope payload straight out of the frame;
                // the inner decode makes its own owned fields.
                let inner = Request::decode(r.bytes_ref()?)?;
                if matches!(inner, Request::Tagged(..)) {
                    return Err(HmError::Backend("nested tagged request".into()));
                }
                Request::Tagged(id, Box::new(inner))
            }
            48 => Request::Stats,
            49 => Request::SyncSubtree,
            50 => Request::InstallSubtree(r.bytes()?),
            51 => Request::ExportNodes(r.oids()?),
            52 => Request::InstallNodes(r.bytes()?),
            53 => Request::ActivateNodes(r.oids()?),
            54 => Request::RetireNodes(r.oids()?, r.u16()?, r.u64()?),
            _ => unreachable!("tag validated above"),
        };
        if !r.is_exhausted() {
            return Err(HmError::Backend("trailing bytes after request".into()));
        }
        Ok(req)
    }
}

/// The single node a request is *about*, for requests the server can
/// answer with [`Response::Moved`] when that node has been migrated
/// away. Batches, structural mutations between two nodes and the
/// migration internals themselves return `None`: they either have no
/// single subject or must observe the store directly.
pub fn redirect_subject(req: &Request) -> Option<Oid> {
    match req {
        Request::UniqueIdOf(o)
        | Request::KindOf(o)
        | Request::TenOf(o)
        | Request::HundredOf(o)
        | Request::MillionOf(o)
        | Request::SetHundred(o, _)
        | Request::Children(o)
        | Request::Parent(o)
        | Request::Parts(o)
        | Request::PartOf(o)
        | Request::RefsTo(o)
        | Request::RefsFrom(o)
        | Request::TextOf(o)
        | Request::SetText(o, _)
        | Request::FormOf(o)
        | Request::SetForm(o, _)
        | Request::Closure1N(o)
        | Request::Closure1NAttSum(o)
        | Request::Closure1NAttSet(o)
        | Request::Closure1NPred(o, ..)
        | Request::ClosureMN(o)
        | Request::ClosureMNAtt(o, _)
        | Request::ClosureMNAttLinkSum(o, _)
        | Request::TextNodeEdit(o, ..)
        | Request::FormNodeEdit(o, ..) => Some(*o),
        Request::Tagged(_, inner) => redirect_subject(inner),
        _ => None,
    }
}

impl Response {
    /// Encode by appending to a caller-owned buffer (see
    /// [`Request::encode_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::over(out);
        let w = &mut w;
        match self {
            Response::Unit => w.u8(0),
            Response::Oid(o) => {
                w.u8(1);
                w.oid(*o);
            }
            Response::OptOid(opt) => {
                w.u8(2);
                match opt {
                    Some(o) => {
                        w.u8(1);
                        w.oid(*o);
                    }
                    None => w.u8(0),
                }
            }
            Response::U16(v) => {
                w.u8(3);
                w.u16(*v);
            }
            Response::U32(v) => {
                w.u8(4);
                w.u32(*v);
            }
            Response::U64(v) => {
                w.u8(5);
                w.u64(*v);
            }
            Response::SumCount(s, c) => {
                w.u8(6);
                w.u64(*s);
                w.u64(*c);
            }
            Response::Oids(v) => {
                w.u8(7);
                w.oids(v);
            }
            Response::Edges(v) => {
                w.u8(8);
                w.edges(v);
            }
            Response::Text(s) => {
                w.u8(9);
                w.string(s);
            }
            Response::Form(bm) => {
                w.u8(10);
                w.bitmap(bm);
            }
            Response::Pairs(v) => {
                w.u8(11);
                w.u32(v.len() as u32);
                for (o, d) in v {
                    w.oid(*o);
                    w.u64(*d);
                }
            }
            Response::Err(msg) => {
                w.u8(12);
                w.string(msg);
            }
            Response::OidLists(lists) => {
                w.u8(13);
                w.u32(lists.len() as u32);
                for l in lists {
                    w.oids(l);
                }
            }
            Response::EdgeLists(lists) => {
                w.u8(14);
                w.u32(lists.len() as u32);
                for l in lists {
                    w.edges(l);
                }
            }
            Response::U32s(vals) => {
                w.u8(15);
                w.u32(vals.len() as u32);
                for v in vals {
                    w.u32(*v);
                }
            }
            Response::Stats(json) => {
                w.u8(16);
                w.string(json);
            }
            Response::Subtree(b) => {
                w.u8(17);
                w.bytes(b);
            }
            Response::Moved(to, epoch) => {
                w.u8(18);
                w.u16(*to);
                w.u64(*epoch);
            }
        }
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<Response> {
        let mut r = Reader::new(bytes);
        let resp = match r.u8()? {
            0 => Response::Unit,
            1 => Response::Oid(r.oid()?),
            2 => Response::OptOid(if r.u8()? == 1 { Some(r.oid()?) } else { None }),
            3 => Response::U16(r.u16()?),
            4 => Response::U32(r.u32()?),
            5 => Response::U64(r.u64()?),
            6 => Response::SumCount(r.u64()?, r.u64()?),
            7 => Response::Oids(r.oids()?),
            8 => Response::Edges(r.edges()?),
            9 => Response::Text(r.string()?),
            10 => Response::Form(r.bitmap()?),
            11 => {
                let n = r.u32()? as usize;
                let mut v = Vec::with_capacity(prealloc_cap(n, 16));
                for _ in 0..n {
                    v.push((r.oid()?, r.u64()?));
                }
                Response::Pairs(v)
            }
            12 => Response::Err(r.string()?),
            13 => {
                let n = r.u32()? as usize;
                let mut v = Vec::with_capacity(prealloc_cap(n, 4));
                for _ in 0..n {
                    v.push(r.oids()?);
                }
                Response::OidLists(v)
            }
            14 => {
                let n = r.u32()? as usize;
                let mut v = Vec::with_capacity(prealloc_cap(n, 4));
                for _ in 0..n {
                    v.push(r.edges()?);
                }
                Response::EdgeLists(v)
            }
            15 => {
                let n = r.u32()? as usize;
                let mut v = Vec::with_capacity(prealloc_cap(n, 4));
                for _ in 0..n {
                    v.push(r.u32()?);
                }
                Response::U32s(v)
            }
            16 => Response::Stats(r.string()?),
            17 => Response::Subtree(r.bytes()?),
            18 => Response::Moved(r.u16()?, r.u64()?),
            other => {
                return Err(HmError::Backend(format!("unknown response tag {other}")));
            }
        };
        if !r.is_exhausted() {
            return Err(HmError::Backend("trailing bytes after response".into()));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermodel::model::{Content, NodeAttrs, NodeKind};

    fn req_bytes(req: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        req.encode_into(&mut out);
        out
    }

    fn resp_bytes(resp: &Response) -> Vec<u8> {
        let mut out = Vec::new();
        resp.encode_into(&mut out);
        out
    }

    fn sample_value() -> NodeValue {
        NodeValue {
            kind: NodeKind::FORM,
            attrs: NodeAttrs {
                unique_id: 3,
                ten: 4,
                hundred: 5,
                thousand: 6,
                million: 7,
            },
            content: Content::Form(Bitmap::white(100, 120)),
        }
    }

    #[test]
    fn every_request_round_trips() {
        let requests = vec![
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
            Request::SetForm(Oid(16), Bitmap::white(30, 40)),
            Request::CreateNode(sample_value()),
            Request::CreateNodeClustered(sample_value(), Some(Oid(17))),
            Request::CreateNodeClustered(sample_value(), None),
            Request::AddChild(Oid(18), Oid(19)),
            Request::AddPart(Oid(20), Oid(21)),
            Request::AddRef(Oid(22), Oid(23), 3, 9),
            Request::InsertExtraNode(sample_value()),
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
            Request::SyncSubtree,
            Request::InstallSubtree(vec![1, 0, 0, 0, 42]),
            Request::Shutdown,
            Request::ChildrenBatch(vec![Oid(33), Oid(34)]),
            Request::PartsBatch(vec![]),
            Request::RefsToBatch(vec![Oid(35)]),
            Request::HundredBatch(vec![Oid(36), Oid(37), Oid(38)]),
            Request::MillionBatch(vec![Oid(39)]),
            Request::SetHundredBatch(vec![(Oid(40), 7), (Oid(41), 93)]),
            Request::PrepareCommit(900),
            Request::CommitPrepared(901),
            Request::AbortPrepared(902),
            Request::Tagged(555, Box::new(Request::SetHundred(Oid(42), 13))),
            Request::Stats,
            Request::ExportNodes(vec![Oid(43), Oid(44)]),
            Request::InstallNodes(vec![0, 0, 0, 1, 7]),
            Request::ActivateNodes(vec![Oid(45)]),
            Request::RetireNodes(vec![Oid(46), Oid(47)], 2, 11),
        ];
        for req in requests {
            let decoded = Request::decode(&req_bytes(&req)).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn every_response_round_trips() {
        let responses = vec![
            Response::Unit,
            Response::Oid(Oid(5)),
            Response::OptOid(Some(Oid(6))),
            Response::OptOid(None),
            Response::U16(9),
            Response::U32(100),
            Response::U64(u64::MAX),
            Response::SumCount(12345, 678),
            Response::Oids(vec![Oid(1), Oid(2)]),
            Response::Edges(vec![RefEdge {
                target: Oid(3),
                offset_from: 1,
                offset_to: 2,
            }]),
            Response::Text("hello".into()),
            Response::Form(Bitmap::white(10, 10)),
            Response::Pairs(vec![(Oid(4), 17), (Oid(5), 26)]),
            Response::Err("backend error: boom".into()),
            Response::OidLists(vec![vec![Oid(6), Oid(7)], vec![]]),
            Response::EdgeLists(vec![vec![RefEdge {
                target: Oid(8),
                offset_from: 4,
                offset_to: 5,
            }]]),
            Response::U32s(vec![1, 2, 3]),
            Response::Stats("{\"counters\": {}}".into()),
            Response::Subtree(vec![9, 8, 7]),
            Response::Moved(3, 42),
        ];
        for resp in responses {
            let decoded = Response::decode(&resp_bytes(&resp)).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Request::decode(&[200]).is_err());
        assert!(Response::decode(&[200]).is_err());
        assert!(Request::decode(&[]).is_err());
        // Trailing bytes.
        let mut bytes = req_bytes(&Request::Commit);
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn redirect_subject_sees_through_tagging() {
        assert_eq!(redirect_subject(&Request::Children(Oid(5))), Some(Oid(5)));
        let tagged = Request::Tagged(1, Box::new(Request::SetHundred(Oid(9), 3)));
        assert_eq!(redirect_subject(&tagged), Some(Oid(9)));
        assert_eq!(redirect_subject(&Request::AddChild(Oid(1), Oid(2))), None);
        assert_eq!(redirect_subject(&Request::ExportNodes(vec![Oid(3)])), None);
        assert_eq!(redirect_subject(&Request::SeqScanTen), None);
    }

    #[test]
    fn nested_tagged_is_rejected() {
        let inner = Request::Tagged(1, Box::new(Request::Commit));
        let outer = Request::Tagged(2, Box::new(inner));
        assert!(Request::decode(&req_bytes(&outer)).is_err());
    }
}
