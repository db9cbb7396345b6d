//! The workspace's wire-frame format, defined once for both directions
//! and both I/O styles.
//!
//! A frame is a `u32` little-endian length, then a `u64` little-endian
//! **trace id**, then the payload; the length counts the trace id and
//! the payload, so a well-formed frame body is between
//! [`TRACE_HEADER`] and [`MAX_FRAME`] bytes long.
//!
//! [`write_frame`] is the only header writer and [`FrameBuf`] the only
//! header parser. `FrameBuf` is an inbound byte buffer that a caller
//! fills straight from its socket ([`FrameBuf::fill`], one `read` into
//! the buffer tail) and parses complete frames out of
//! ([`FrameBuf::next_frame`], a cursor advance — no copy). It never
//! blocks or loops itself, so the blocking `server::TcpTransport`
//! (which calls `fill` until a frame is complete) and the nonblocking
//! [`crate::EventLoop`] (which calls `fill` until `WouldBlock` and
//! treats that as "no frame yet") share it unchanged.

use std::io::{self, ErrorKind, Read};
use std::sync::Arc;

/// Largest accepted frame body (trace id + payload). A peer announcing
/// more is dropped from the header alone.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes of the frame body carrying the trace id, counted in the length
/// prefix ahead of the payload.
pub const TRACE_HEADER: usize = 8;

/// Bytes of the length prefix.
const LEN_PREFIX: usize = 4;

/// Space offered to each `read`, and the dead-prefix size past which a
/// buffer is compacted — large enough that a burst of back-to-back
/// frames arrives in one syscall and compaction is an occasional
/// memmove, not a per-frame one.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Append `payload` to `out` as one frame carrying `trace`.
pub fn write_frame(out: &mut Vec<u8>, trace: u64, payload: &[u8]) {
    out.extend_from_slice(&((payload.len() + TRACE_HEADER) as u32).to_le_bytes());
    out.extend_from_slice(&trace.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Inbound framing state for one byte-stream connection.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// `buf[pos..len]` holds received, not-yet-parsed bytes;
    /// `pos <= len <= buf.len()` always.
    pos: usize,
    len: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// True when no unparsed byte is buffered — end-of-stream here is a
    /// clean close, anywhere else it cuts a frame short.
    pub fn is_empty(&self) -> bool {
        self.pos == self.len
    }

    /// Body length announced by the header at the cursor, validated
    /// against the format's bounds; `None` until the whole length
    /// prefix is buffered.
    fn announced(&self) -> io::Result<Option<usize>> {
        let unparsed = self.buf.get(self.pos..self.len).unwrap_or_default();
        let Some(prefix) = unparsed.first_chunk::<LEN_PREFIX>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(invalid(format!("oversized frame: {len} bytes")));
        }
        if len < TRACE_HEADER {
            return Err(invalid(format!("truncated frame: {len} bytes")));
        }
        Ok(Some(len))
    }

    /// True when a complete frame is buffered, i.e. the next
    /// [`FrameBuf::next_frame`] yields one without another `fill`.
    pub fn has_frame(&self) -> bool {
        matches!(self.announced(), Ok(Some(len)) if self.len - self.pos >= LEN_PREFIX + len)
    }

    /// Parse the frame at the cursor and step past it: its trace id and
    /// a borrow of its payload. `Ok(None)` means the buffered bytes do
    /// not yet hold a complete frame; an out-of-bounds length prefix is
    /// `InvalidData`.
    pub fn next_frame(&mut self) -> io::Result<Option<(u64, &[u8])>> {
        let Some(len) = self.announced()? else {
            return Ok(None);
        };
        let start = self.pos + LEN_PREFIX;
        let end = start + len;
        if end > self.len {
            return Ok(None);
        }
        let body = self.buf.get(start..end).unwrap_or_default();
        let Some((trace, payload)) = body.split_first_chunk::<TRACE_HEADER>() else {
            return Ok(None);
        };
        self.pos = end;
        Ok(Some((u64::from_le_bytes(*trace), payload)))
    }

    /// One `read` from `r` into the buffer tail; returns the byte count
    /// (`0` = end of stream) or the reader's error untouched, so a
    /// nonblocking caller sees its `WouldBlock`. The header at the
    /// cursor is validated *before* the buffer grows for the frame it
    /// announces, and growth follows the bytes that actually arrive
    /// (at most doubling per read), never the announcement: a lying
    /// length costs its sender four bytes and the receiver nothing.
    pub fn fill<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        let buffered = self.len - self.pos;
        let want = match self.announced()? {
            // Room for the rest of this frame, so a large one needs few
            // reads, but no more than has been received so far.
            Some(len) => (LEN_PREFIX + len)
                .saturating_sub(buffered)
                .clamp(READ_CHUNK, buffered.max(READ_CHUNK)),
            None => READ_CHUNK,
        };
        // Drained: rewind instead of growing forever. Otherwise compact
        // once the dead prefix outweighs a read chunk.
        if self.pos == self.len {
            self.pos = 0;
            self.len = 0;
        } else if self.pos >= READ_CHUNK {
            self.buf.copy_within(self.pos..self.len, 0);
            self.len -= self.pos;
            self.pos = 0;
        }
        if self.buf.len() < self.len + want {
            self.buf.resize(self.len + want, 0);
        }
        let n = r.read(self.buf.get_mut(self.len..).unwrap_or_default())?;
        self.len += n;
        Ok(n)
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

/// Cached handles for the process-wide wire-traffic counters
/// (`net.bytes_sent`, `net.bytes_recv`, `net.write_batches`), resolved
/// once per connection or loop so the hot path pays one relaxed add,
/// not a registry lookup. Every framed byte stream — client transports
/// and the server event loop — feeds the same three names.
pub struct NetCounters {
    sent: Arc<obs::Counter>,
    recv: Arc<obs::Counter>,
    batches: Arc<obs::Counter>,
}

impl NetCounters {
    /// Resolve (and thereby pre-register) the counter handles.
    pub fn new() -> NetCounters {
        let reg = obs::registry();
        NetCounters {
            sent: reg.counter("net.bytes_sent"),
            recv: reg.counter("net.bytes_recv"),
            batches: reg.counter("net.write_batches"),
        }
    }

    /// Account one successful write syscall of `n` bytes.
    pub fn wrote(&self, n: usize) {
        self.sent.add(n as u64);
        self.batches.incr();
    }

    /// Account one successful read syscall of `n` bytes.
    pub fn read(&self, n: usize) {
        self.recv.add(n as u64);
    }
}

impl Default for NetCounters {
    fn default() -> NetCounters {
        NetCounters::new()
    }
}
