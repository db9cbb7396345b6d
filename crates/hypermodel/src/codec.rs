//! The one byte codec: little-endian, length-prefixed, no external
//! dependencies.
//!
//! [`Writer`] and [`Reader`] move bytes and fixed-width integers;
//! [`Wire`] is how every typed value is written and read — the canonical
//! node record ([`NodeValue::encode`]), the schema catalogue record, the
//! wire protocol's fields, migration batches and the in-memory backend's
//! repair snapshot — so a type is encoded one way wherever it appears,
//! and every decoded length is checked against the bytes that remain
//! before anything is sized by it.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;

use crate::bitmap::Bitmap;
use crate::error::{HmError, Result};
use crate::ext::AccessMode;
use crate::model::{NodeValue, Oid, RefEdge};
use crate::store::{BatchWrite, Reached, Rel};

/// Element-count cap for preallocating `n` elements of `elem_size` bytes
/// each from an untrusted count, when the input has `remaining` bytes
/// left.
///
/// Clamp to the element count those bytes could back at one in-memory
/// element size each, so no reservation is larger than the input behind
/// it. The caller still reads exactly `n` elements — a lying count hits
/// the reader's bounds check, not the allocator. (A list of a type whose
/// encoding is smaller than its in-memory size, such as empty lists or
/// 10-byte reference edges, grows past that — but only for elements it
/// has actually decoded.)
pub fn prealloc_cap(n: usize, elem_size: usize, remaining: usize) -> usize {
    n.min(remaining / elem_size.max(1))
}

/// `value`'s encoding, in a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut Writer::over(&mut out));
    out
}

/// Read one `T` that fills `bytes` exactly: trailing bytes are refused.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T> {
    let mut r = Reader::new(bytes);
    let value = T::get(&mut r)?;
    if !r.is_exhausted() {
        return Err(HmError::Backend(
            "trailing bytes after encoded value".into(),
        ));
    }
    Ok(value)
}

/// Append-only byte writer over a caller-owned buffer.
///
/// Borrowing rather than owning lets every encode path reuse one
/// scratch `Vec` across calls — the wire hot path allocates nothing
/// once the buffer has grown to its high-water mark.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `buf` (existing contents are kept).
    #[inline]
    pub fn over(buf: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { buf }
    }

    /// Write a length-prefixed sub-message: reserves the `u32` length,
    /// runs `f`, then patches the prefix with the byte count `f` wrote.
    pub fn nested(&mut self, f: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        f(self);
        let n = (self.buf.len() - at - 4) as u32;
        // A `Writer` only appends, so the reserved prefix is still there.
        if let Some(prefix) = self.buf.get_mut(at..at + 4) {
            prefix.copy_from_slice(&n.to_le_bytes());
        }
    }

    /// Write one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.raw(v);
    }

    /// Write bytes with no length prefix: the reader knows the length,
    /// or they run to the end of the record ([`Reader::rest`]).
    #[inline]
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Sequential byte reader with bounds checking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated() -> HmError {
    HmError::Backend("encoded value truncated".into())
}

impl<'a> Reader<'a> {
    /// Wrap an encoded buffer.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed.
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, as a borrow of the buffer.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        // checked_add: a hostile length near usize::MAX must not wrap the
        // bounds check into a panic or an out-of-range slice.
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        let s = self.buf.get(self.pos..end).ok_or_else(truncated)?;
        self.pos = end;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?.try_into().map_err(|_| truncated())
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Read a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Every byte not yet consumed, as a borrow of the buffer: the last
    /// field of a record that runs to its end.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        rest
    }

    /// Read a length-prefixed byte string as a borrow of the buffer: the
    /// length is checked against what the buffer holds before anything is
    /// sized by it.
    #[inline]
    pub fn bytes_ref(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

/// A type with one encoding: every record, catalogue, message and
/// snapshot field goes through `put` / `get`, so adding a format never
/// adds a reader.
pub trait Wire: Sized {
    /// Append `self`'s encoding.
    fn put(&self, w: &mut Writer);

    /// Read one value.
    fn get(r: &mut Reader) -> Result<Self>;

    /// Append a `u32` count and each item: the encoding of `Vec<Self>`.
    fn put_all(items: &[Self], w: &mut Writer) {
        w.u32(items.len() as u32);
        for item in items {
            item.put(w);
        }
    }

    /// Read what [`Wire::put_all`] wrote. The one place a decoded count
    /// sizes an allocation, and only through [`prealloc_cap`].
    fn get_all(r: &mut Reader) -> Result<Vec<Self>> {
        let n = r.u32()? as usize;
        let cap = prealloc_cap(n, std::mem::size_of::<Self>(), r.remaining());
        let mut items = Vec::with_capacity(cap);
        for _ in 0..n {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        T::put_all(self, w);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        T::get_all(r)
    }
}

impl Wire for u8 {
    fn put(&self, w: &mut Writer) {
        w.u8(*self);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        r.u8()
    }
    // A byte string has the generic layout (count, then items) and is
    // moved as one slice.
    fn put_all(items: &[u8], w: &mut Writer) {
        w.bytes(items);
    }
    fn get_all(r: &mut Reader) -> Result<Vec<u8>> {
        Ok(r.bytes_ref()?.to_vec())
    }
}

macro_rules! wire_int {
    ($($int:ident)*) => {$(
        impl Wire for $int {
            #[inline]
            fn put(&self, w: &mut Writer) {
                w.$int(*self);
            }
            #[inline]
            fn get(r: &mut Reader) -> Result<Self> {
                r.$int()
            }
        }
    )*};
}
wire_int!(u16 u32 u64);

/// Two's complement, as a `u64`.
impl Wire for i64 {
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        Ok(r.u64()? as i64)
    }
}

/// One byte, 0 or 1. Any other byte is refused, so a corrupted flag
/// neither reads as `true` nor, as an option's presence flag, drops the
/// value after it.
impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }
    fn get(r: &mut Reader) -> Result<Self> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(HmError::Backend(format!("bool byte {b}"))),
        }
    }
}

impl Wire for Oid {
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.u64(self.0);
    }
    #[inline]
    fn get(r: &mut Reader) -> Result<Self> {
        Ok(Oid(r.u64()?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A presence flag (a `bool`), then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader) -> Result<Self> {
        bool::get(r)?.then(|| T::get(r)).transpose()
    }
}

/// A count, then each `(key, value)` pair in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, w: &mut Writer) {
        w.u32(self.len() as u32);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut Reader) -> Result<Self> {
        (0..r.u32()?).map(|_| <(K, V)>::get(r)).collect()
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.bytes(self.as_bytes());
    }
    fn get(r: &mut Reader) -> Result<Self> {
        String::from_utf8(Vec::get(r)?)
            .map_err(|_| HmError::Backend("encoded string is not utf-8".into()))
    }
}

impl Wire for RefEdge {
    #[inline]
    fn put(&self, w: &mut Writer) {
        self.target.put(w);
        w.u8(self.offset_from);
        w.u8(self.offset_to);
    }
    #[inline]
    fn get(r: &mut Reader) -> Result<Self> {
        Ok(RefEdge {
            target: Oid::get(r)?,
            offset_from: r.u8()?,
            offset_to: r.u8()?,
        })
    }
}

impl Wire for Bitmap {
    fn put(&self, w: &mut Writer) {
        w.u16(self.width());
        w.u16(self.height());
        w.bytes(self.bits());
    }
    fn get(r: &mut Reader) -> Result<Self> {
        let (w, h) = (r.u16()?, r.u16()?);
        Bitmap::from_bits(w, h, Vec::get(r)?).map_err(HmError::Backend)
    }
}

/// The canonical record ([`NodeValue::encode`]), length-prefixed.
impl Wire for NodeValue {
    fn put(&self, w: &mut Writer) {
        w.nested(|w| self.put_record(w));
    }
    fn get(r: &mut Reader) -> Result<Self> {
        NodeValue::decode(r.bytes_ref()?)
    }
}

/// One byte: 0 public write, 1 public read, 2 no access.
impl Wire for AccessMode {
    fn put(&self, w: &mut Writer) {
        w.u8(match self {
            AccessMode::PublicWrite => 0,
            AccessMode::PublicRead => 1,
            AccessMode::NoAccess => 2,
        });
    }
    fn get(r: &mut Reader) -> Result<Self> {
        match r.u8()? {
            0 => Ok(AccessMode::PublicWrite),
            1 => Ok(AccessMode::PublicRead),
            2 => Ok(AccessMode::NoAccess),
            mode => Err(HmError::Backend(format!("access mode {mode}"))),
        }
    }
}

/// A tag byte, then the fields: each item is encoded exactly as the
/// request of the scalar operation it stands for, tag included, so a
/// batch is a counted run of scalar request bodies.
impl Wire for BatchWrite {
    fn put(&self, w: &mut Writer) {
        match self {
            BatchWrite::Create { value, near } => {
                w.u8(BATCH_CREATE);
                value.put(w);
                near.put(w);
            }
            BatchWrite::Extra(value) => {
                w.u8(BATCH_EXTRA);
                value.put(w);
            }
            BatchWrite::Child(parent, child) => {
                w.u8(BATCH_CHILD);
                parent.put(w);
                child.put(w);
            }
            BatchWrite::Part(owner, part) => {
                w.u8(BATCH_PART);
                owner.put(w);
                part.put(w);
            }
            BatchWrite::Ref(from, edge) => {
                w.u8(BATCH_REF);
                from.put(w);
                edge.put(w);
            }
            BatchWrite::SetHundred(oid, value) => {
                w.u8(BATCH_SET_HUNDRED);
                oid.put(w);
                w.u32(*value);
            }
        }
    }
    fn get(r: &mut Reader) -> Result<Self> {
        Ok(match r.u8()? {
            BATCH_CREATE => BatchWrite::Create {
                value: NodeValue::get(r)?,
                near: Option::get(r)?,
            },
            BATCH_EXTRA => BatchWrite::Extra(NodeValue::get(r)?),
            BATCH_CHILD => BatchWrite::Child(Oid::get(r)?, Oid::get(r)?),
            BATCH_PART => BatchWrite::Part(Oid::get(r)?, Oid::get(r)?),
            BATCH_REF => BatchWrite::Ref(Oid::get(r)?, RefEdge::get(r)?),
            BATCH_SET_HUNDRED => BatchWrite::SetHundred(Oid::get(r)?, r.u32()?),
            tag => return Err(HmError::Backend(format!("unknown batch write tag {tag}"))),
        })
    }
}

/// One byte: 0 children, 1 parts, 2 refsTo.
impl Wire for Rel {
    fn put(&self, w: &mut Writer) {
        w.u8(match self {
            Rel::Children => 0,
            Rel::Parts => 1,
            Rel::RefsTo => 2,
        });
    }
    fn get(r: &mut Reader) -> Result<Self> {
        match r.u8()? {
            0 => Ok(Rel::Children),
            1 => Ok(Rel::Parts),
            2 => Ok(Rel::RefsTo),
            rel => Err(HmError::Backend(format!("relationship {rel}"))),
        }
    }
}

impl Wire for Reached {
    fn put(&self, w: &mut Writer) {
        self.node.put(w);
        w.u32(self.depth);
        self.list.put(w);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        Ok(Reached {
            node: Oid::get(r)?,
            depth: r.u32()?,
            list: Option::get(r)?,
        })
    }
}

/// [`BatchWrite`] item tags: the catalogue tags of `create_node_clustered`,
/// `insert_extra_node`, `add_child`, `add_part`, `add_ref` and
/// `set_hundred`.
const BATCH_CREATE: u8 = 21;
const BATCH_EXTRA: u8 = 25;
const BATCH_CHILD: u8 = 22;
const BATCH_PART: u8 = 23;
const BATCH_REF: u8 = 24;
const BATCH_SET_HUNDRED: u8 = 6;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Content, NodeAttrs, NodeKind};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn scalar_round_trip() {
        let mut buf = Vec::new();
        let mut w = Writer::over(&mut buf);
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX - 1);
        "hello wire".to_string().put(&mut w);
        let bytes = buf;
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(String::get(&mut r).unwrap(), "hello wire");
        assert!(r.is_exhausted());
    }

    #[test]
    fn collections_round_trip() {
        round_trip(vec![Oid(1), Oid(99), Oid(12345)]);
        round_trip(vec![RefEdge {
            target: Oid(5),
            offset_from: 3,
            offset_to: 9,
        }]);
        round_trip(vec![vec![Oid(1)], vec![]]);
        round_trip(vec![(Oid(4), 7u32)]);
        round_trip(Some(Oid(3)));
        round_trip(None::<Oid>);
        round_trip(BTreeMap::from([((1u64, 2u32), -3i64), ((4, 5), 6)]));
        round_trip(vec![true, false]);
        round_trip(vec![AccessMode::NoAccess, AccessMode::PublicRead]);
        round_trip(vec![Rel::Children, Rel::Parts, Rel::RefsTo]);
        round_trip(vec![
            Reached {
                node: Oid(2),
                depth: u32::MAX,
                list: Some(vec![]),
            },
            Reached {
                node: Oid(3),
                depth: 0,
                list: None,
            },
        ]);
        let mut bm = Bitmap::white(20, 10);
        bm.set(3, 3, true);
        round_trip(bm);
    }

    #[test]
    fn byte_strings_share_the_generic_vec_layout() {
        // `u8` overrides `put_all`/`get_all` for speed only.
        let bytes = vec![9u8, 8, 7];
        assert_eq!(to_bytes(&bytes), [3, 0, 0, 0, 9, 8, 7]);
        round_trip(bytes);
    }

    #[test]
    fn node_value_is_its_record_length_prefixed() {
        let v = NodeValue {
            kind: NodeKind::TEXT,
            attrs: NodeAttrs {
                unique_id: 9,
                ten: 1,
                hundred: 2,
                thousand: 3,
                million: 4,
            },
            content: Content::Text("version1 words version1 tail version1".into()),
        };
        let record = v.encode();
        let mut prefixed = (record.len() as u32).to_le_bytes().to_vec();
        prefixed.extend_from_slice(&record);
        assert_eq!(to_bytes(&v), prefixed);
        round_trip(v);
    }

    #[test]
    fn flag_bytes_other_than_0_or_1_are_refused() {
        for flag in [2u8, 0x80, 0xFF] {
            let bytes = [flag, 7, 0, 0, 0, 0, 0, 0, 0];
            assert!(Option::<Oid>::get(&mut Reader::new(&bytes)).is_err());
            assert!(bool::get(&mut Reader::new(&bytes)).is_err());
        }
        assert!(AccessMode::get(&mut Reader::new(&[3])).is_err());
        assert!(Rel::get(&mut Reader::new(&[3])).is_err());
    }

    #[test]
    fn lying_count_reserves_at_most_the_remaining_bytes() {
        // 4 billion oids announced, two bytes present: the decode fails
        // on the bounds check and the reservation was clamped first.
        let bytes = [0xff, 0xff, 0xff, 0xff, 1, 2];
        assert!(Vec::<Oid>::get(&mut Reader::new(&bytes)).is_err());
        assert_eq!(prealloc_cap(u32::MAX as usize, 8, 2), 0);
        assert_eq!(prealloc_cap(u32::MAX as usize, 8, 80), 10);
        assert_eq!(prealloc_cap(3, 8, 80), 3);
        assert_eq!(prealloc_cap(3, 0, 0), 0);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_detected() {
        let bytes = to_bytes(&"0123456789".to_string());
        assert!(from_bytes::<String>(&bytes[..bytes.len() - 2]).is_err());
        assert!(from_bytes::<String>(&bytes[..2]).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(from_bytes::<String>(&trailing).is_err());
    }
}
