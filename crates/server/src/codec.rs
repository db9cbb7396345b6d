//! Binary encoding primitives for the wire protocol.
//!
//! Little-endian, length-prefixed, no external dependencies — the same
//! conventions as the storage engine's record formats, so the whole
//! system speaks one dialect. [`Writer`] and [`Reader`] move bytes and
//! fixed-width integers; [`Wire`] is how every typed message field is
//! written and read, so a field type is encoded one way wherever it
//! appears.

use hypermodel::error::{HmError, Result};
use hypermodel::model::{NodeValue, Oid, RefEdge};
use hypermodel::{BatchWrite, Bitmap, NodeExport};

/// Element-count cap for preallocating from an untrusted length prefix.
///
/// No prefix can legitimately describe more than one frame's worth of
/// payload, so clamp to the element count a maximal frame could carry
/// before reserving. The caller still reads exactly `n` elements — a
/// lying prefix hits the reader's bounds check, not the allocator.
pub fn prealloc_cap(n: usize, elem_size: usize) -> usize {
    n.min(crate::transport::MAX_FRAME / elem_size.max(1))
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
    pub fn over(buf: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { buf }
    }

    /// Write a length-prefixed sub-message: reserves the `u32` length,
    /// runs `f`, then patches the prefix with the byte count `f` wrote.
    /// Replaces the encode-to-temporary-then-`bytes()` pattern.
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
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
}

/// Sequential byte reader with bounds checking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn short() -> HmError {
    HmError::Backend("wire message truncated".into())
}

impl<'a> Reader<'a> {
    /// Wrap a message.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        // checked_add: a hostile length prefix near usize::MAX must not
        // wrap the bounds check into a panic or an out-of-range slice.
        let end = self.pos.checked_add(n).ok_or_else(short)?;
        let s = self.buf.get(self.pos..end).ok_or_else(short)?;
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes(b.try_into().map_err(|_| short())?))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().map_err(|_| short())?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().map_err(|_| short())?))
    }

    /// Read a length-prefixed byte string as a borrow of the frame: the
    /// length is checked against what the frame holds before anything is
    /// sized by it.
    pub fn bytes_ref(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

/// A type with one wire encoding: every request and response field goes
/// through `put` / `get`, so adding a message never adds a codec.
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

    /// Read what [`Wire::put_all`] wrote. The one place a decoded length
    /// sizes an allocation, and only through [`prealloc_cap`].
    fn get_all(r: &mut Reader) -> Result<Vec<Self>> {
        let n = r.u32()? as usize;
        let mut items = Vec::with_capacity(prealloc_cap(n, std::mem::size_of::<Self>()));
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
            fn put(&self, w: &mut Writer) {
                w.$int(*self);
            }
            fn get(r: &mut Reader) -> Result<Self> {
                r.$int()
            }
        }
    )*};
}
wire_int!(u16 u32 u64);

impl Wire for Oid {
    fn put(&self, w: &mut Writer) {
        w.u64(self.0);
    }
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

/// A presence byte, then the value. Only 0 and 1 are presence bytes: a
/// corrupted flag must not quietly drop the value after it.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
            None => w.u8(0),
        }
    }
    fn get(r: &mut Reader) -> Result<Self> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            flag => Err(HmError::Backend(format!("wire option flag {flag}"))),
        }
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.bytes(self.as_bytes());
    }
    fn get(r: &mut Reader) -> Result<Self> {
        String::from_utf8(Vec::get(r)?)
            .map_err(|_| HmError::Backend("wire string is not utf-8".into()))
    }
}

impl Wire for RefEdge {
    fn put(&self, w: &mut Writer) {
        self.target.put(w);
        w.u8(self.offset_from);
        w.u8(self.offset_to);
    }
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

/// The canonical record encoding, length-prefixed.
impl Wire for NodeValue {
    fn put(&self, w: &mut Writer) {
        w.nested(|w| self.encode_into(w.buf));
    }
    fn get(r: &mut Reader) -> Result<Self> {
        NodeValue::decode(r.bytes_ref()?)
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

/// [`BatchWrite`] item tags: the catalogue tags of `create_node_clustered`,
/// `insert_extra_node`, `add_child`, `add_part`, `add_ref` and
/// `set_hundred`.
const BATCH_CREATE: u8 = 21;
const BATCH_EXTRA: u8 = 25;
const BATCH_CHILD: u8 = 22;
const BATCH_PART: u8 = 23;
const BATCH_REF: u8 = 24;
const BATCH_SET_HUNDRED: u8 = 6;

/// A migration batch in `hypermodel::migrate`'s own portable format,
/// length-prefixed. (`NodeExport` alone has no wire form, so this does
/// not meet the blanket `Vec<T>` impl.)
impl Wire for Vec<NodeExport> {
    fn put(&self, w: &mut Writer) {
        w.bytes(&hypermodel::migrate::encode_batch(self));
    }
    fn get(r: &mut Reader) -> Result<Self> {
        hypermodel::migrate::decode_batch(r.bytes_ref()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermodel::model::{Content, NodeAttrs, NodeKind};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.put(&mut Writer::over(&mut buf));
        let mut r = Reader::new(&buf);
        assert_eq!(T::get(&mut r).unwrap(), v);
        assert!(r.is_exhausted());
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
        let mut bm = Bitmap::white(20, 10);
        bm.set(3, 3, true);
        round_trip(bm);
    }

    #[test]
    fn byte_strings_share_the_generic_vec_layout() {
        // `u8` overrides `put_all`/`get_all` for speed only.
        let bytes = vec![9u8, 8, 7];
        let mut fast = Vec::new();
        bytes.put(&mut Writer::over(&mut fast));
        assert_eq!(fast, [3, 0, 0, 0, 9, 8, 7]);
        round_trip(bytes);
    }

    #[test]
    fn node_value_round_trip() {
        round_trip(NodeValue {
            kind: NodeKind::TEXT,
            attrs: NodeAttrs {
                unique_id: 9,
                ten: 1,
                hundred: 2,
                thousand: 3,
                million: 4,
            },
            content: Content::Text("version1 words version1 tail version1".into()),
        });
    }

    #[test]
    fn option_flag_other_than_0_or_1_is_refused() {
        for flag in [2u8, 0x80, 0xFF] {
            let bytes = [flag, 7, 0, 0, 0, 0, 0, 0, 0];
            assert!(Option::<Oid>::get(&mut Reader::new(&bytes)).is_err());
        }
    }

    #[test]
    fn lying_length_prefix_reserves_at_most_a_frame() {
        // 4 billion oids announced, none present: the decode fails on the
        // bounds check and the reservation was clamped first.
        let bytes = u32::MAX.to_le_bytes();
        assert!(Vec::<Oid>::get(&mut Reader::new(&bytes)).is_err());
        assert_eq!(
            prealloc_cap(u32::MAX as usize, 8),
            crate::transport::MAX_FRAME / 8
        );
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        "0123456789".to_string().put(&mut Writer::over(&mut buf));
        let bytes = buf;
        assert!(String::get(&mut Reader::new(&bytes[..bytes.len() - 2])).is_err());
        assert!(String::get(&mut Reader::new(&bytes[..2])).is_err());
    }
}
