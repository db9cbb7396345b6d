//! Fixed-size page abstraction.
//!
//! All on-disk structures in the storage engine are built from fixed-size
//! pages. A page is a [`PAGE_SIZE`]-byte buffer with a small common header:
//!
//! ```text
//! offset  size  field
//! 0       4     checksum (CRC-32 of bytes 4..PAGE_SIZE)
//! 4       8     page id (self-identifying, guards against misdirected I/O)
//! 12      1     page kind tag
//! 13      3     reserved
//! 16      ...   kind-specific payload
//! ```
//!
//! The checksum is computed on write-out and verified on read-in by the
//! [disk manager](crate::disk::DiskManager). Helper accessors on [`Page`]
//! read and write little-endian integers without unsafe code.
//!
//! The buffer pool lends a page for writing as a [`PageMut`], whose
//! writers save the old bytes of each [`CHUNK`]-byte chunk before its
//! first change; [`SavedChunks`] reads them back as the page's
//! before-image (see [`crate::buffer`]).

use std::ops::{Deref, Range};

use crate::buffer::Saver;
use crate::checksum::crc32;
use crate::error::{Result, StorageError};

/// Size of every page in bytes.
///
/// 8 KiB matches the paper's era of disk-oriented object servers and holds
/// ~100 HyperModel node records per page (80 bytes each, §5.2).
pub const PAGE_SIZE: usize = 8192;

/// Offset of the checksum field within a page.
pub const CHECKSUM_OFFSET: usize = 0;
/// Offset of the self-identifying page id.
pub const PAGE_ID_OFFSET: usize = 4;
/// Offset of the page kind tag.
pub const KIND_OFFSET: usize = 12;
/// First byte available to kind-specific payloads.
pub const HEADER_SIZE: usize = 16;
/// Bytes in a chunk: the unit in which a [`PageMut`] saves old bytes.
pub const CHUNK: usize = 128;
/// Chunks in a page, one bit each of a `u64` mask.
pub const CHUNKS: usize = PAGE_SIZE / CHUNK;
const _: () = assert!(CHUNKS == u64::BITS as usize);

/// Within a [`PageKind::Free`] page: the next free page in the chain
/// (0 terminates the list).
pub const FREE_NEXT_OFFSET: usize = HEADER_SIZE;
/// Within the meta page: head of the persistent free-page list. The
/// engine catalog payload starts after this field.
pub const META_FREELIST_OFFSET: usize = HEADER_SIZE;

/// Identifier of a page within a single database file.
///
/// Page 0 is always the catalog/meta page; data pages start at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// The catalog page, always present.
    pub const META: PageId = PageId(0);

    /// Raw numeric value.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Discriminates the layout of a page's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageKind {
    /// Uninitialized / freed page.
    Free = 0,
    /// The catalog page (page 0).
    Meta = 1,
    /// Slotted heap page holding variable-size records.
    Heap = 2,
    /// B+Tree interior node.
    BTreeInternal = 3,
    /// B+Tree leaf node.
    BTreeLeaf = 4,
    /// Overflow page holding a fragment of an oversized value.
    Overflow = 5,
}

impl PageKind {
    /// Parse a kind tag, rejecting unknown values as corruption.
    pub fn from_u8(v: u8) -> Option<PageKind> {
        match v {
            0 => Some(PageKind::Free),
            1 => Some(PageKind::Meta),
            2 => Some(PageKind::Heap),
            3 => Some(PageKind::BTreeInternal),
            4 => Some(PageKind::BTreeLeaf),
            5 => Some(PageKind::Overflow),
            _ => None,
        }
    }
}

/// An in-memory image of one page.
///
/// The buffer is heap-allocated to keep `Page` values cheap to move and to
/// avoid blowing the stack in deep call chains.
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// Create an all-zero page (kind [`PageKind::Free`]) with the given id
    /// stamped into the header.
    pub fn new(id: PageId) -> Page {
        let mut p = Page {
            buf: vec![0u8; PAGE_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("sized"),
        };
        p.write_u64(PAGE_ID_OFFSET, id.0);
        p
    }

    /// Wrap a raw buffer read from disk. No validation is performed here;
    /// use [`Page::verify`] for that.
    pub fn from_bytes(buf: Box<[u8; PAGE_SIZE]>) -> Page {
        Page { buf }
    }

    /// Immutable view of the raw bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    /// Mutable view of the raw bytes, for the disk read that fills a frame
    /// no transaction is changing.
    #[inline]
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.buf
    }

    /// The page id recorded in the header.
    #[inline]
    pub fn id(&self) -> PageId {
        PageId(self.read_u64(PAGE_ID_OFFSET))
    }

    /// The page kind recorded in the header, or an error for unknown tags.
    pub fn kind(&self) -> Result<PageKind> {
        PageKind::from_u8(self.buf[KIND_OFFSET]).ok_or_else(|| StorageError::Corruption {
            page: Some(self.id().0),
            detail: format!("unknown page kind {}", self.buf[KIND_OFFSET]),
        })
    }

    /// Stamp the page kind.
    pub fn set_kind(&mut self, kind: PageKind) {
        self.buf[KIND_OFFSET] = kind as u8;
    }

    /// Recompute and store the header checksum. Called by the disk manager
    /// immediately before write-out.
    pub fn seal(&mut self) {
        let sum = crc32(&self.buf[PAGE_ID_OFFSET..]);
        self.buf[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].copy_from_slice(&sum.to_le_bytes());
    }

    /// Verify checksum and self-identification against the expected id.
    pub fn verify(&self, expect: PageId) -> Result<()> {
        let stored = u32::from_le_bytes(
            self.buf[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4]
                .try_into()
                .expect("4 bytes"),
        );
        let actual = crc32(&self.buf[PAGE_ID_OFFSET..]);
        if stored != actual {
            return Err(StorageError::Corruption {
                page: Some(expect.0),
                detail: format!("checksum mismatch: stored {stored:#x}, computed {actual:#x}"),
            });
        }
        if self.id() != expect {
            return Err(StorageError::Corruption {
                page: Some(expect.0),
                detail: format!("misdirected page: header says {}", self.id()),
            });
        }
        Ok(())
    }

    /// Read a little-endian `u16` at `off`.
    #[inline]
    pub fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.buf[off..off + 2].try_into().expect("2 bytes"))
    }

    /// Write a little-endian `u16` at `off`.
    #[inline]
    pub fn write_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian `u32` at `off`.
    #[inline]
    pub fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.buf[off..off + 4].try_into().expect("4 bytes"))
    }

    /// Write a little-endian `u32` at `off`.
    #[inline]
    pub fn write_u32(&mut self, off: usize, v: u32) {
        self.buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a little-endian `u64` at `off`.
    #[inline]
    pub fn read_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.buf[off..off + 8].try_into().expect("8 bytes"))
    }

    /// Write a little-endian `u64` at `off`.
    #[inline]
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Copy `data` into the page at `off`.
    #[inline]
    pub fn write_bytes(&mut self, off: usize, data: &[u8]) {
        self.buf[off..off + data.len()].copy_from_slice(data);
    }

    /// Borrow `len` bytes at `off`.
    #[inline]
    pub fn read_bytes(&self, off: usize, len: usize) -> &[u8] {
        &self.buf[off..off + len]
    }

    /// Zero the payload (everything after the common header), preserving
    /// id; resets kind to `Free`.
    pub fn clear_payload(&mut self) {
        let id = self.id();
        self.buf.fill(0);
        self.write_u64(PAGE_ID_OFFSET, id.0);
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            buf: self.buf.clone(),
        }
    }

    /// Copy `source`'s bytes into this page's buffer; allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.buf.copy_from_slice(&*source.buf);
    }
}

/// A page lent for writing by the buffer pool (or wrapped with
/// [`PageMut::from`], for a page of its own, which saves nothing).
///
/// Its writers are the only way to change a pool frame. Before each
/// write, a pool frame saves the old bytes of every chunk the write
/// covers that it has not saved since it went dirty, so that commit diffs
/// those chunks only (see [`crate::buffer`], before-images). Reads go
/// through `Deref` to the [`Page`].
pub struct PageMut<'a> {
    page: &'a mut Page,
    saver: Option<Saver<'a>>,
}

impl<'a> PageMut<'a> {
    /// Lend `page`, saving its old bytes through `saver` if there is one.
    pub(crate) fn new(page: &'a mut Page, saver: Option<Saver<'a>>) -> PageMut<'a> {
        PageMut { page, saver }
    }

    /// Save the chunks that bytes `off..off + len` overlap.
    #[inline]
    fn save(&mut self, off: usize, len: usize) {
        if let Some(saver) = &mut self.saver {
            saver.save(&self.page.buf, off, len);
        }
    }

    /// Write a little-endian `u16` at `off`.
    #[inline]
    pub fn write_u16(&mut self, off: usize, v: u16) {
        self.save(off, 2);
        self.page.write_u16(off, v);
    }

    /// Write a little-endian `u32` at `off`.
    #[inline]
    pub fn write_u32(&mut self, off: usize, v: u32) {
        self.save(off, 4);
        self.page.write_u32(off, v);
    }

    /// Write a little-endian `u64` at `off`.
    #[inline]
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.save(off, 8);
        self.page.write_u64(off, v);
    }

    /// Copy `data` into the page at `off`.
    #[inline]
    pub fn write_bytes(&mut self, off: usize, data: &[u8]) {
        self.save(off, data.len());
        self.page.write_bytes(off, data);
    }

    /// Copy bytes `src` to `dst` within the page; the two may overlap.
    #[inline]
    pub fn copy_within(&mut self, src: Range<usize>, dst: usize) {
        self.save(dst, src.len());
        self.page.buf.copy_within(src, dst);
    }

    /// Stamp the page kind.
    pub fn set_kind(&mut self, kind: PageKind) {
        self.save(KIND_OFFSET, 1);
        self.page.set_kind(kind);
    }

    /// Zero the payload, preserving id; resets kind to `Free`.
    pub fn clear_payload(&mut self) {
        self.save(0, PAGE_SIZE);
        self.page.clear_payload();
    }
}

impl Deref for PageMut<'_> {
    type Target = Page;

    fn deref(&self) -> &Page {
        self.page
    }
}

impl std::fmt::Debug for PageMut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.page.fmt(f)
    }
}

impl<'a> From<&'a mut Page> for PageMut<'a> {
    /// Lend a page of one's own: its writers save nothing.
    fn from(page: &'a mut Page) -> PageMut<'a> {
        PageMut { page, saver: None }
    }
}

/// Each chunk at its own place: how [`SavedChunks::whole`] finds a
/// page's chunks in the page itself.
const IN_PLACE: [u32; CHUNKS] = {
    let mut table = [0; CHUNKS];
    let mut c = 0;
    while c < CHUNKS {
        table[c] = c as u32;
        c += 1;
    }
    table
};

/// A page's before-image as the chunks a [`PageMut`] saved: for each chunk
/// in the mask, its bytes when the frame went dirty. The bytes of every
/// other chunk are the page's current ones.
#[derive(Debug, Clone, Copy)]
pub struct SavedChunks<'a> {
    mask: u64,
    /// Per chunk, the index of its saved bytes in `bytes`, in chunks.
    slots: &'a [u32; CHUNKS],
    bytes: &'a [u8],
}

impl<'a> SavedChunks<'a> {
    /// The chunks of `mask`, saved at `slots` of `bytes`.
    pub(crate) fn new(mask: u64, slots: &'a [u32; CHUNKS], bytes: &'a [u8]) -> SavedChunks<'a> {
        SavedChunks { mask, slots, bytes }
    }

    /// Every chunk of `page` saved: a whole before-image.
    pub fn whole(page: &'a [u8; PAGE_SIZE]) -> SavedChunks<'a> {
        SavedChunks::new(u64::MAX, &IN_PLACE, page)
    }

    /// Which chunks are saved: bit `c` for chunk `c`.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Bytes saved.
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize * CHUNK
    }

    /// True if no chunk is saved.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// The saved chunks in ascending order, as `(chunk, old bytes)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a [u8; CHUNK])> + 'a {
        let (mut mask, slots, bytes) = (self.mask, self.slots, self.bytes);
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let c = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let at = slots[c] as usize * CHUNK;
            Some((c, bytes[at..at + CHUNK].try_into().expect("one chunk")))
        })
    }

    /// True if `page` holds the saved bytes in every saved chunk: the
    /// page is as it was before it went dirty.
    pub fn unchanged(&self, page: &[u8; PAGE_SIZE]) -> bool {
        self.iter()
            .all(|(c, old)| old[..] == page[c * CHUNK..(c + 1) * CHUNK])
    }

    /// Put the saved bytes back into `page`.
    pub(crate) fn restore(&self, page: &mut Page) {
        for (c, old) in self.iter() {
            page.buf[c * CHUNK..(c + 1) * CHUNK].copy_from_slice(old);
        }
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.id())
            .field("kind_tag", &self.buf[KIND_OFFSET])
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A sealed heap page, id 42, whose byte `i` past the header is
    /// `i * 7 % 251`: every byte the checksum covers is set.
    pub(crate) fn patterned_page() -> Page {
        let mut p = Page::new(PageId(42));
        p.set_kind(PageKind::Heap);
        for i in HEADER_SIZE..PAGE_SIZE {
            p.bytes_mut()[i] = (i * 7 % 251) as u8;
        }
        p.seal();
        p
    }

    /// Copies of `page` with one fault each: bit `offset % 8` flipped at
    /// every byte offset, then each 4 KiB half zeroed (a torn sector write).
    pub(crate) fn corruptions(page: &Page) -> impl Iterator<Item = (String, Page)> + '_ {
        let flips = (0..PAGE_SIZE).map(move |off| {
            let mut bad = page.clone();
            bad.bytes_mut()[off] ^= 1 << (off % 8);
            (format!("bit {} of byte {off} flipped", off % 8), bad)
        });
        let torn = [0, PAGE_SIZE / 2].into_iter().map(move |at| {
            let mut bad = page.clone();
            bad.bytes_mut()[at..at + PAGE_SIZE / 2].fill(0);
            (format!("bytes {at}.. zeroed"), bad)
        });
        flips.chain(torn)
    }

    /// The seal of [`patterned_page`], recorded from the slice-by-8
    /// checksum before it was braided: the on-disk format.
    #[test]
    fn seal_of_a_fixed_page_is_pinned() {
        let p = patterned_page();
        assert_eq!(p.read_u32(CHECKSUM_OFFSET), 0xC278_CD32);
        p.verify(PageId(42)).unwrap();
    }

    #[test]
    fn verify_detects_every_flipped_bit_and_torn_half() {
        let page = patterned_page();
        for (fault, bad) in corruptions(&page) {
            assert!(
                matches!(bad.verify(PageId(42)), Err(StorageError::Corruption { .. })),
                "{fault} passed verification"
            );
        }
    }

    #[test]
    fn new_page_is_self_identifying() {
        let p = Page::new(PageId(42));
        assert_eq!(p.id(), PageId(42));
        assert_eq!(p.kind().unwrap(), PageKind::Free);
    }

    #[test]
    fn seal_then_verify_round_trips() {
        let mut p = Page::new(PageId(7));
        p.set_kind(PageKind::Heap);
        p.write_u64(100, 0xdead_beef);
        p.seal();
        p.verify(PageId(7)).unwrap();
    }

    #[test]
    fn verify_detects_bit_rot() {
        let mut p = Page::new(PageId(7));
        p.seal();
        p.bytes_mut()[500] ^= 0x01;
        let err = p.verify(PageId(7)).unwrap_err();
        assert!(matches!(err, StorageError::Corruption { .. }));
    }

    #[test]
    fn verify_detects_misdirected_write() {
        let mut p = Page::new(PageId(7));
        p.seal();
        let err = p.verify(PageId(8)).unwrap_err();
        assert!(err.to_string().contains("checksum") || err.to_string().contains("misdirected"));
    }

    #[test]
    fn little_endian_accessors_round_trip() {
        let mut p = Page::new(PageId(1));
        p.write_u16(20, 0xabcd);
        p.write_u32(22, 0x1234_5678);
        p.write_u64(26, u64::MAX - 3);
        assert_eq!(p.read_u16(20), 0xabcd);
        assert_eq!(p.read_u32(22), 0x1234_5678);
        assert_eq!(p.read_u64(26), u64::MAX - 3);
    }

    #[test]
    fn unknown_kind_is_corruption() {
        let mut p = Page::new(PageId(3));
        p.bytes_mut()[KIND_OFFSET] = 200;
        assert!(p.kind().is_err());
    }

    #[test]
    fn clear_payload_preserves_id() {
        let mut p = Page::new(PageId(9));
        p.set_kind(PageKind::Heap);
        p.write_u64(1000, 77);
        p.clear_payload();
        assert_eq!(p.id(), PageId(9));
        assert_eq!(p.read_u64(1000), 0);
        assert_eq!(p.kind().unwrap(), PageKind::Free);
    }
}
