//! Length-prefixed, CRC-32-checked wire frames.
//!
//! Every protocol message travels in exactly one frame:
//!
//! ```text
//! len      u32 LE   payload byte length (0 < len <= MAX_FRAME_BYTES)
//! crc      u32 LE   CRC-32 (IEEE) of the payload bytes
//! payload  len bytes — one encoded [`crate::proto::Message`]
//! ```
//!
//! The length prefix bounds every allocation before it happens (an
//! oversize prefix is rejected without reading the body), and the CRC
//! rejects torn or corrupted frames before they reach the message
//! decoder. The CRC implementation is the workspace-wide
//! [`freqdedup_trace::io::Crc32`] — the same polynomial the trace format
//! and the durable store use.
//!
//! **One write per frame, buffered reads.** [`write_frame`] hands the
//! writer header and payload as one buffer — on a `TCP_NODELAY` socket
//! two writes are two syscalls and two segments — so there is no flush
//! to forget. Both ends of a connection read through a
//! 64 KiB [`std::io::BufReader`] over the socket, so a header and its
//! payload, and many small frames, arrive per `read`.

use std::fmt;
use std::io::{Read, Write};

use freqdedup_trace::io::crc32;

/// Hard upper bound on a frame payload (32 MiB). Large enough for a
/// generously sized chunk batch, small enough that a corrupted length
/// prefix cannot drive an absurd allocation.
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// Capacity of the `BufReader` each end of a connection reads its socket
/// through: room for several metadata-mode batches per `read`; larger
/// frames bypass it for the part that does not fit.
pub(crate) const READ_BUFFER_BYTES: usize = 64 << 10;

/// Errors produced by the wire layer (framing and message codec).
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket / stream failure.
    Io(std::io::Error),
    /// The connection ended mid-frame (a torn frame).
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME_BYTES`] (or was zero).
    Oversize {
        /// The offending length prefix.
        len: u64,
    },
    /// The payload failed its CRC — corruption on the wire.
    BadCrc {
        /// CRC carried by the frame header.
        expected: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// The payload did not decode as a well-formed message.
    Malformed(&'static str),
    /// The peer speaks an unsupported protocol version.
    BadVersion(u16),
    /// The peer stalled mid-frame past the stall cap (a half-open or
    /// wedged connection), or an operation exceeded its deadline.
    Timeout,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::Oversize { len } => write!(f, "frame length {len} exceeds limits"),
            WireError::BadCrc { expected, actual } => write!(
                f,
                "frame checksum mismatch (expected {expected:#010x}, got {actual:#010x})"
            ),
            WireError::Malformed(what) => write!(f, "malformed message: {what}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Timeout => write!(f, "peer stalled past the mid-frame deadline"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame around `payload`: header and payload leave in a
/// single `write_all` of one assembled buffer.
///
/// # Errors
///
/// [`WireError::Oversize`] for empty or over-limit payloads,
/// [`WireError::Io`] on write failure.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), WireError> {
    if payload.is_empty() || payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::Oversize {
            len: payload.len() as u64,
        });
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    Ok(())
}

/// Reads one frame, verifying its length bound and CRC.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly *at a
/// frame boundary* (no bytes of a new frame had arrived); end-of-stream
/// anywhere inside a frame is [`WireError::Truncated`].
///
/// A read timeout (`WouldBlock` / `TimedOut`) **before the first byte**
/// of a frame surfaces as [`WireError::Io`] so a server session can poll
/// its stop flag between requests; once a frame has started, timeouts are
/// retried internally (the peer has committed to sending the rest).
///
/// # Errors
///
/// [`WireError::Oversize`], [`WireError::BadCrc`], [`WireError::Truncated`]
/// or [`WireError::Io`].
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 8];
    if !read_full(reader, &mut header, false)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let expected = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(WireError::Oversize { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    read_full(reader, &mut payload, true)?;
    let actual = crc32(&payload);
    if actual != expected {
        return Err(WireError::BadCrc { expected, actual });
    }
    Ok(Some(payload))
}

/// A peer that starts a frame but stalls is cut off after this many
/// consecutive timed-out reads. On server sessions (25 ms socket
/// timeout) that is ~30 s of mid-frame silence — without the cap, one
/// stalled client would pin its pool worker forever and a graceful
/// shutdown could never finish draining. Streams without a read timeout
/// (the client side) never hit this path.
const MAX_MID_FRAME_STALLS: u32 = 1200;

/// Fills `buf` completely. `mid_frame` says whether earlier bytes of the
/// same frame were already read (the body follows its header). At a frame
/// boundary, clean EOF before the first byte is `Ok(false)` and a timeout
/// before the first byte surfaces as `Io`; once the frame has started,
/// EOF is [`WireError::Truncated`] and timeouts are retried (the rest is
/// in flight) up to [`MAX_MID_FRAME_STALLS`] consecutive stalls, after
/// which the read fails with the typed [`WireError::Timeout`] (a
/// half-open connection, not a torn frame).
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8], mid_frame: bool) -> Result<bool, WireError> {
    let mut got = 0;
    let mut stalls = 0u32;
    while got < buf.len() {
        match reader.read(&mut buf[got..]) {
            Ok(0) if got == 0 && !mid_frame => return Ok(false),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if (got > 0 || mid_frame)
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                stalls += 1;
                if stalls >= MAX_MID_FRAME_STALLS {
                    return Err(WireError::Timeout);
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frame").unwrap();
        let mut cursor = &buf[..];
        let payload = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(payload, b"hello frame");
        // Clean EOF at the boundary after the frame.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn back_to_back_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"two").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"one");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"two");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn rejects_corrupt_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn rejects_truncation_at_every_point() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"truncate me").unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]);
            assert!(
                matches!(err, Err(WireError::Truncated)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_oversize_length_prefix() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::Oversize { .. })
        ));
        // Zero-length frames are equally invalid.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::Oversize { len: 0 })
        ));
        assert!(write_frame(&mut Vec::new(), &[]).is_err());
    }

    /// Accepts everything, counting the `write` calls it sees.
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_per_frame() {
        let mut w = CountingWriter {
            calls: 0,
            bytes: Vec::new(),
        };
        for (i, payload) in [&b"x"[..], &[7u8; 100_000][..]].into_iter().enumerate() {
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.calls, i + 1, "header and payload leave in one write");
        }
        let mut cursor = &w.bytes[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"x");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap().len(), 100_000);
    }

    /// Hands out one byte per `read` — the worst segmentation a socket
    /// can produce.
    struct ByteAtATime<'a>(&'a [u8]);

    impl Read for ByteAtATime<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&byte, rest)), Some(slot)) => {
                    *slot = byte;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn buffered_reader_reassembles_dribbled_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, &[9u8; 300]).unwrap();
        let mut reader = std::io::BufReader::with_capacity(64, ByteAtATime(&wire));
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), [9u8; 300]);
        assert!(read_frame(&mut reader).unwrap().is_none());
        // Clean EOF only at a frame boundary; anywhere inside, a tear.
        for cut in 1..wire.len() {
            let mut reader = std::io::BufReader::with_capacity(64, ByteAtATime(&wire[..cut]));
            let mut end = read_frame(&mut reader);
            while matches!(end, Ok(Some(_))) {
                end = read_frame(&mut reader);
            }
            if cut == 8 + b"first".len() {
                assert!(matches!(end, Ok(None)), "cut at boundary: {end:?}");
            } else {
                assert!(
                    matches!(end, Err(WireError::Truncated)),
                    "cut at {cut}: {end:?}"
                );
            }
        }
    }

    /// Yields its bytes, then stalls forever with `WouldBlock` — the shape
    /// of a half-open connection under a socket read timeout.
    struct StallingReader {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn mid_frame_stall_times_out_typed() {
        let mut full = Vec::new();
        write_frame(&mut full, b"stall victim").unwrap();
        // Stall mid-header and mid-body: both must surface as the typed
        // Timeout (the stall cap), never hang and never claim Truncated.
        for keep in [3, 10] {
            let mut r = StallingReader {
                data: full[..keep].to_vec(),
                pos: 0,
            };
            assert!(
                matches!(read_frame(&mut r), Err(WireError::Timeout)),
                "stall after {keep} bytes"
            );
            // The same through the buffered reader both ends use.
            r.pos = 0;
            assert!(
                matches!(
                    read_frame(&mut std::io::BufReader::new(r)),
                    Err(WireError::Timeout)
                ),
                "buffered stall after {keep} bytes"
            );
        }
        // A stall before the first byte is Io (the idle-poll contract),
        // raw and buffered alike.
        let mut r = StallingReader {
            data: Vec::new(),
            pos: 0,
        };
        assert!(matches!(read_frame(&mut r), Err(WireError::Io(_))));
        assert!(matches!(
            read_frame(&mut std::io::BufReader::new(r)),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn error_display_readable() {
        assert!(WireError::Truncated.to_string().contains("mid-frame"));
        assert!(WireError::BadCrc {
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("checksum"));
    }

    /// The bytes `write_frame` produced for this message before the CRC
    /// went slicing-by-8 (generated at commit 06fbb93): a kernel change
    /// that alters a sent byte fails here, not at a peer.
    #[test]
    fn frame_bytes_are_pinned() {
        let msg = crate::proto::Message::PutChunkBatch {
            seq: 7,
            chunks: vec![
                freqdedup_trace::ChunkRecord::new(0x1122_3344_5566_7788u64, 5),
                freqdedup_trace::ChunkRecord::new(9u64, 11),
            ],
            payloads: Some(vec![b"hello".to_vec(), b"wire frames".to_vec()]),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &msg.encode()).unwrap();
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "3a00000050c63af9030700000001020000008877665544332211050000000500",
                "000068656c6c6f09000000000000000b0000000b00000077697265206672616d",
                "6573",
            )
        );
        let payload = read_frame(&mut &wire[..]).unwrap().unwrap();
        assert_eq!(crate::proto::Message::decode(&payload).unwrap(), msg);
    }
}
