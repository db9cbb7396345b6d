//! The shared frame buffer under every way a byte stream can be cut
//! up: one byte per read, many frames per read, `WouldBlock` between
//! arbitrary chunks, end-of-stream mid-frame, and hostile length
//! prefixes. Both the blocking TCP transport and the nonblocking event
//! loop sit on exactly this code.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read};

use exec::frame::{write_frame, FrameBuf, MAX_FRAME};
use proptest::prelude::*;

type Frame = (u64, Vec<u8>);

fn wire(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    for (trace, payload) in frames {
        write_frame(&mut out, *trace, payload);
    }
    out
}

/// Hands out its chunks one per `read`, answering `WouldBlock` between
/// them (when `blocky`) the way a nonblocking socket does between
/// packets, and `Ok(0)` once they are gone.
struct Chunked {
    chunks: VecDeque<Vec<u8>>,
    blocky: bool,
    block_next: bool,
    reads: usize,
}

impl Chunked {
    fn new(stream: &[u8], sizes: impl IntoIterator<Item = usize>, blocky: bool) -> Chunked {
        let mut chunks = VecDeque::new();
        let mut rest = stream;
        for size in sizes {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at(size.clamp(1, rest.len()));
            chunks.push_back(head.to_vec());
            rest = tail;
        }
        if !rest.is_empty() {
            chunks.push_back(rest.to_vec());
        }
        Chunked {
            chunks,
            blocky,
            block_next: false,
            reads: 0,
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        if std::mem::take(&mut self.block_next) {
            return Err(ErrorKind::WouldBlock.into());
        }
        let Some(chunk) = self.chunks.pop_front() else {
            return Ok(0);
        };
        assert!(chunk.len() <= buf.len(), "fill offers at least a chunk");
        buf[..chunk.len()].copy_from_slice(&chunk);
        self.block_next = self.blocky;
        Ok(chunk.len())
    }
}

/// Consume `r` to end-of-stream the way both callers do — parse what is
/// buffered, then fill, treating `WouldBlock` as "no frame yet".
fn drain<R: Read>(buf: &mut FrameBuf, r: &mut R) -> io::Result<Vec<Frame>> {
    let mut frames = Vec::new();
    loop {
        while let Some((trace, payload)) = buf.next_frame()? {
            frames.push((trace, payload.to_vec()));
        }
        match buf.fill(r) {
            Ok(0) => return Ok(frames),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
    }
}

#[test]
fn survives_one_byte_at_a_time() {
    // Every fill returns a single byte, so the buffer crosses every
    // possible partial-header and partial-payload state.
    let frames: Vec<Frame> = vec![
        (1000, vec![]),
        (1001, vec![7]),
        (1002, (0..=255u8).collect()),
        (1003, vec![0x5A; 3000]),
    ];
    let stream = wire(&frames);
    let mut r = Chunked::new(&stream, std::iter::repeat_n(1, stream.len()), false);
    let mut buf = FrameBuf::new();
    assert_eq!(drain(&mut buf, &mut r).unwrap(), frames);
    // End of stream exactly at a frame boundary is a clean close.
    assert!(buf.is_empty());
}

#[test]
fn parses_back_to_back_frames_from_one_read() {
    let frames: Vec<Frame> = (0..10u8).map(|i| (u64::from(i), vec![i; 5])).collect();
    let stream = wire(&frames);
    let mut r = Chunked::new(&stream, [stream.len()], false);
    let mut buf = FrameBuf::new();
    assert!(!buf.has_frame());
    assert_eq!(buf.fill(&mut r).unwrap(), stream.len());
    for expect in &frames {
        assert!(buf.has_frame(), "frame {} should be buffered", expect.0);
        let (trace, payload) = buf.next_frame().unwrap().unwrap();
        assert_eq!((trace, payload), (expect.0, expect.1.as_slice()));
    }
    assert!(!buf.has_frame() && buf.is_empty());
    assert_eq!(r.reads, 1, "only the first frame touched the stream");
}

#[test]
fn long_stream_in_odd_chunks_loses_nothing_across_compaction() {
    // ~400 KiB through 1000-byte reads: partial frames sit behind a dead
    // prefix that crosses the compaction threshold several times.
    let frames: Vec<Frame> = (0..130u64)
        .map(|i| (i, vec![i as u8; 3000 + i as usize]))
        .collect();
    let stream = wire(&frames);
    let mut r = Chunked::new(&stream, std::iter::repeat_n(1000, stream.len()), true);
    let mut buf = FrameBuf::new();
    assert_eq!(drain(&mut buf, &mut r).unwrap(), frames);
    assert!(buf.is_empty());
}

#[test]
fn end_of_stream_mid_frame_leaves_the_buffer_non_empty() {
    let mut stream = wire(&[(7, vec![1, 2, 3, 4])]);
    stream.truncate(stream.len() - 2);
    let mut r = Chunked::new(&stream, std::iter::repeat_n(1, stream.len()), false);
    let mut buf = FrameBuf::new();
    assert_eq!(drain(&mut buf, &mut r).unwrap(), vec![]);
    assert!(!buf.is_empty(), "a cut-short frame is not a clean close");
}

/// A reader no correct caller reaches.
struct Unreachable;

impl Read for Unreachable {
    fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
        panic!("read after a hostile header");
    }
}

#[test]
fn hostile_lengths_are_refused_from_the_header_alone() {
    // Too long, and too short to hold the trace id.
    for (len, what) in [
        (u32::MAX, "oversized"),
        (MAX_FRAME as u32 + 1, "oversized"),
        (3, "truncated"),
    ] {
        let mut buf = FrameBuf::new();
        let mut header = Chunked::new(&len.to_le_bytes(), [1, 1, 1, 1], true);
        let err = drain(&mut buf, &mut header).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert!(err.to_string().contains(what), "{len}: {err}");
        assert_eq!(header.reads, 7, "four bytes and three WouldBlocks, no more");
        // Refused before the buffer grows: fill does not even reach the
        // read.
        let err = buf.fill(&mut Unreachable).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }
    // The largest legal length is not refused.
    let mut buf = FrameBuf::new();
    let mut header = Chunked::new(&(MAX_FRAME as u32).to_le_bytes(), [4], false);
    assert_eq!(buf.fill(&mut header).unwrap(), 4);
    assert!(buf.next_frame().unwrap().is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Split invariance: however a valid multi-frame stream is chunked,
    // and with `WouldBlock` between any two chunks, the same
    // `(trace, payload)` sequence comes out.
    #[test]
    fn any_chunking_yields_the_same_frames(
        frames in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..200)),
            1..8,
        ),
        sizes in proptest::collection::vec(1usize..64, 0..64),
        blocky in any::<bool>(),
    ) {
        let stream = wire(&frames);
        let mut r = Chunked::new(&stream, sizes, blocky);
        let mut buf = FrameBuf::new();
        prop_assert_eq!(drain(&mut buf, &mut r).unwrap(), frames);
        prop_assert!(buf.is_empty());
    }
}
