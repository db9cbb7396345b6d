//! Message transports: in-process channels and TCP.
//!
//! Both carry the same frames (`exec::frame`: `u32` length + `u64` trace
//! id + payload) so the marshalling cost is identical; the channel
//! transport adds an optional simulated one-way latency per frame,
//! letting experiments model the paper's local-area-network
//! workstation/server setups without real network variance.
//!
//! Trace propagation: [`Transport::send`] stamps each outgoing frame
//! with the calling thread's current trace id (`obs::trace::current`),
//! and [`Transport::recv_into`] installs the received frame's trace id
//! as current — so a blocking server thread dispatches inside the
//! client's trace, and a client thread reading a reply rejoins the
//! trace it sent.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use exec::frame::{write_frame, FrameBuf, NetCounters};
use hypermodel::error::{HmError, Result};
use sanity::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

pub use exec::frame::MAX_FRAME;

/// A bidirectional, framed message pipe.
pub trait Transport: Send {
    /// Send one frame.
    fn send(&mut self, frame: &[u8]) -> Result<()>;

    /// Receive one frame into a caller-owned buffer (its previous
    /// contents are replaced), so a looping caller reuses one
    /// allocation across frames. Returns `false` when the peer closed.
    ///
    /// With `timeout: None` the call blocks until a frame or a close
    /// arrives. With `Some(t)` it returns [`HmError::Timeout`] when `t`
    /// passes with no frame. The connection stays usable: a frame that
    /// arrives later (or sits half-read on a stream transport) is
    /// returned by a later call, so a caller that retries on the same
    /// transport must tell a late reply from the one it waits for, as
    /// `RemoteStore` does by the reply's sequence number.
    fn recv_into(&mut self, out: &mut Vec<u8>, timeout: Option<Duration>) -> Result<bool>;
}

/// One end of an in-process channel transport.
pub struct ChannelTransport {
    tx: Sender<(u64, Vec<u8>)>,
    rx: Receiver<(u64, Vec<u8>)>,
    /// Simulated one-way latency, slept before each send.
    pub latency: Duration,
}

impl ChannelTransport {
    /// A connected pair of endpoints with the given simulated one-way
    /// latency (applied on both directions, so a request/response round
    /// trip costs `2 × latency`).
    pub fn pair(latency: Duration) -> (ChannelTransport, ChannelTransport) {
        let (tx_a, rx_b) = channel();
        let (tx_b, rx_a) = channel();
        (
            ChannelTransport {
                tx: tx_a,
                rx: rx_a,
                latency,
            },
            ChannelTransport {
                tx: tx_b,
                rx: rx_b,
                latency,
            },
        )
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        self.tx
            .send((obs::trace::current(), frame.to_vec()))
            .map_err(|_| HmError::Backend("peer disconnected".into()))
    }

    fn recv_into(&mut self, out: &mut Vec<u8>, timeout: Option<Duration>) -> Result<bool> {
        let got = match timeout {
            None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(t) => self.rx.recv_timeout(t),
        };
        match got {
            Ok((trace, frame)) => {
                obs::trace::set(trace);
                *out = frame;
                Ok(true)
            }
            Err(RecvTimeoutError::Timeout) => {
                Err(HmError::Timeout(format!("no frame within {timeout:?}")))
            }
            Err(RecvTimeoutError::Disconnected) => Ok(false), // peer dropped: clean shutdown
        }
    }
}

/// A TCP transport, buffered on both sides: each outgoing frame is
/// assembled in a reused scratch buffer and leaves in **one** write
/// syscall; inbound bytes arrive through large reads into a
/// [`FrameBuf`] that complete frames are parsed out of.
pub struct TcpTransport {
    stream: TcpStream,
    sbuf: Vec<u8>,
    inbound: FrameBuf,
    net: NetCounters,
}

impl TcpTransport {
    /// Wrap a connected stream. Disables Nagle so request/response
    /// round trips are not delayed.
    pub fn new(stream: TcpStream) -> Result<TcpTransport> {
        stream
            .set_nodelay(true)
            .map_err(|e| HmError::Backend(format!("set_nodelay: {e}")))?;
        Ok(TcpTransport {
            stream,
            sbuf: Vec::new(),
            inbound: FrameBuf::new(),
            net: NetCounters::new(),
        })
    }

    /// Block (subject to the socket's read timeout) until a complete
    /// frame is buffered, then copy its payload into `out` and install
    /// its trace id. `false` on a clean close at a frame boundary; a
    /// close mid-frame is an error.
    fn recv_blocking(&mut self, out: &mut Vec<u8>) -> Result<bool> {
        loop {
            if let Some((trace, payload)) = self
                .inbound
                .next_frame()
                .map_err(|e| tcp_io_err("tcp recv", e))?
            {
                obs::trace::set(trace);
                out.clear();
                out.extend_from_slice(payload);
                return Ok(true);
            }
            match self.inbound.fill(&mut self.stream) {
                Ok(0) if self.inbound.is_empty() => return Ok(false),
                Ok(0) => return Err(HmError::Backend("tcp recv: eof mid-frame".into())),
                Ok(n) => self.net.read(n),
                Err(e) => return Err(tcp_io_err("tcp recv", e)),
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.sbuf.clear();
        write_frame(&mut self.sbuf, obs::trace::current(), frame);
        self.stream
            .write_all(&self.sbuf)
            .map_err(|e| HmError::Backend(format!("tcp send: {e}")))?;
        self.net.wrote(self.sbuf.len());
        Ok(())
    }

    fn recv_into(&mut self, out: &mut Vec<u8>, timeout: Option<Duration>) -> Result<bool> {
        // A buffered frame answers without touching the socket (and
        // without the two timeout fcntls).
        let Some(timeout) = timeout.filter(|_| !self.inbound.has_frame()) else {
            return self.recv_blocking(out);
        };
        // A zero Duration means "no timeout" to the OS; clamp up.
        let timeout = timeout.max(Duration::from_millis(1));
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| HmError::Backend(format!("set_read_timeout: {e}")))?;
        let got = self.recv_blocking(out);
        self.stream
            .set_read_timeout(None)
            .map_err(|e| HmError::Backend(format!("clear_read_timeout: {e}")))?;
        got
    }
}

/// Map a socket error to [`HmError`], classifying read-deadline expiry
/// (reported as `WouldBlock` on Unix, `TimedOut` on Windows) as
/// [`HmError::Timeout`] so retry policies can tell it from a dead peer.
fn tcp_io_err(what: &str, e: std::io::Error) -> HmError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            HmError::Timeout(format!("{what}: {e}"))
        }
        _ => HmError::Backend(format!("{what}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One received frame, `None` once the peer closed.
    fn recv(t: &mut dyn Transport, timeout: Option<Duration>) -> Result<Option<Vec<u8>>> {
        let mut out = Vec::new();
        Ok(t.recv_into(&mut out, timeout)?.then_some(out))
    }

    fn tcp_pair() -> (TcpTransport, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (TcpTransport::new(accepted).unwrap(), raw)
    }

    #[test]
    fn channel_pair_round_trips() {
        let (mut a, mut b) = ChannelTransport::pair(Duration::ZERO);
        a.send(b"hello").unwrap();
        assert_eq!(recv(&mut b, None).unwrap().unwrap(), b"hello");
        b.send(b"world").unwrap();
        assert_eq!(recv(&mut a, None).unwrap().unwrap(), b"world");
    }

    #[test]
    fn channel_close_reads_as_none() {
        let (mut a, b) = ChannelTransport::pair(Duration::ZERO);
        drop(b);
        assert!(a.send(b"x").is_err());
        let (a2, mut b2) = ChannelTransport::pair(Duration::ZERO);
        drop(a2);
        assert_eq!(recv(&mut b2, None).unwrap(), None);
    }

    #[test]
    fn channel_recv_timeout_times_out_and_delivers() {
        let (mut a, mut b) = ChannelTransport::pair(Duration::ZERO);
        assert!(matches!(
            recv(&mut b, Some(Duration::from_millis(1))),
            Err(HmError::Timeout(_))
        ));
        a.send(b"late").unwrap();
        assert_eq!(
            recv(&mut b, Some(Duration::from_millis(100)))
                .unwrap()
                .unwrap(),
            b"late"
        );
        drop(a);
        assert_eq!(recv(&mut b, Some(Duration::from_millis(1))).unwrap(), None);
    }

    #[test]
    fn tcp_recv_timeout_expires_without_killing_connection() {
        let (mut server, raw) = tcp_pair();
        let echo = std::thread::spawn(move || {
            let frame = recv(&mut server, None).unwrap().unwrap();
            server.send(&frame).unwrap();
        });
        let mut t = TcpTransport::new(raw).unwrap();
        // Nothing sent yet: the bounded wait must expire as a Timeout.
        assert!(matches!(
            recv(&mut t, Some(Duration::from_millis(10))),
            Err(HmError::Timeout(_))
        ));
        // The socket still works afterwards.
        t.send(b"after timeout").unwrap();
        assert_eq!(
            recv(&mut t, Some(Duration::from_secs(5))).unwrap().unwrap(),
            b"after timeout"
        );
        echo.join().unwrap();
    }

    #[test]
    fn tcp_round_trip_on_loopback() {
        let (mut server, raw) = tcp_pair();
        let echo = std::thread::spawn(move || {
            let frame = recv(&mut server, None).unwrap().unwrap();
            assert_eq!(
                obs::trace::current(),
                0xFEED,
                "recv installs the sender's trace"
            );
            server.send(&frame).unwrap();
            assert_eq!(recv(&mut server, None).unwrap(), None, "client closed");
        });
        {
            let mut t = TcpTransport::new(raw).unwrap();
            let _trace = obs::trace::scope(0xFEED);
            t.send(b"ping over tcp").unwrap();
            assert_eq!(recv(&mut t, None).unwrap().unwrap(), b"ping over tcp");
        }
        echo.join().unwrap();
    }

    #[test]
    fn tcp_large_frame() {
        let (mut server, raw) = tcp_pair();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let reader = std::thread::spawn(move || {
            assert_eq!(recv(&mut server, None).unwrap().unwrap(), expect);
        });
        let mut t = TcpTransport::new(raw).unwrap();
        t.send(&payload).unwrap();
        drop(t);
        reader.join().unwrap();
    }

    #[test]
    fn tcp_close_mid_frame_is_an_error_and_bad_lengths_are_refused() {
        // A frame cut short by the close is not a clean disconnect.
        let (mut server, mut raw) = tcp_pair();
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, &[1, 2, 3, 4]);
        raw.write_all(&wire[..wire.len() - 2]).unwrap();
        drop(raw);
        let err = recv(&mut server, None).unwrap_err();
        assert!(err.to_string().contains("eof mid-frame"), "{err}");

        // An out-of-bounds length prefix surfaces as a typed error.
        let (mut server, mut raw) = tcp_pair();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let err = recv(&mut server, None).unwrap_err();
        assert!(err.to_string().contains("oversized frame"), "{err}");
    }
}
