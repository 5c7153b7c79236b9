//! The length-prefixed binary wire protocol.
//!
//! A frame is a little-endian `u32` body length followed by the body.
//! Every body starts with the same 4-byte preamble — magic `0x4D46`
//! ("MF"), protocol version, message kind — followed by the 8-byte
//! request id, so a response can always be correlated even when the
//! request itself was refused.
//!
//! ```text
//! frame    := len:u32le body[len]
//! request  := magic:u16le ver:u8 kind(1):u8 id:u64le fmt:u8
//!             deadline_micros:u32le xa:u64le yb:u64le flags:u8 (34 B, v3)
//!             (v2 requests omit the trailing flags byte — 33 B)
//! response := magic:u16le ver:u8 kind(2):u8 id:u64le status:u8 payload
//!   status 0 Ok               payload ph:u64le pl:u64le flags_lo:u8 flags_hi:u8
//!                                     queue_micros:u32le exec_micros:u32le
//!   status 1 Overloaded       payload retry_after_micros:u64le queued:u32le
//!   status 2 Malformed        payload code:u8
//!   status 3 DeadlineExceeded payload deadline_micros:u32le
//! ```
//!
//! The parser is *strict*: every deviation — truncated header, length
//! prefix beyond the cap, empty body, wrong magic/version/kind, an
//! unknown format tag, or trailing bytes after a complete message — is
//! a typed [`WireError`], never a panic. The server answers a malformed
//! frame with a typed `Malformed` response carrying
//! [`WireError::code`], then closes the connection (after a framing
//! error the stream position can no longer be trusted).

use mfm_softfloat::Flags;
use mfmult::{Format, MultResult, Operation};
use std::io::{Read, Write};

/// Frame preamble magic: `"MF"` as a little-endian `u16`.
pub const MAGIC: u16 = 0x4D46;
/// Protocol version this build speaks. Version 2 widened the `Ok`
/// payload with per-request `queue_micros`/`exec_micros` timing;
/// version 3 appends a request `flags` byte carrying the `critical`
/// bit that asks the server for triple-modular-redundant voting.
pub const VERSION: u8 = 3;
/// Oldest protocol version still accepted on decode. A v2 request body
/// has no flags byte; it decodes with `critical = false`, so old
/// clients negotiate down transparently.
pub const MIN_VERSION: u8 = 2;
/// Request flag bit 0: the client marks the operation *critical* and
/// the server votes it across three units before answering.
pub const FLAG_CRITICAL: u8 = 0b1;
/// Message kind: request.
pub const KIND_REQUEST: u8 = 1;
/// Message kind: response.
pub const KIND_RESPONSE: u8 = 2;
/// Largest body any conforming frame can carry; the length prefix is
/// validated against this cap *before* any allocation, so a hostile
/// 4 GiB length prefix cannot balloon memory.
pub const MAX_BODY: u32 = 256;

const REQUEST_BODY: usize = 34;
const PREAMBLE: usize = 4;

/// One multiply request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// The operation (format + packed operands).
    pub op: Operation,
    /// Relative deadline in microseconds from arrival; 0 means "no
    /// deadline" (the server applies its configured default).
    pub deadline_micros: u32,
    /// Whether the client asked for triple-modular-redundant voting
    /// (wire-v3 `flags` bit 0). Decodes as `false` from v2 frames.
    pub critical: bool,
}

/// One response, correlated by request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// The multiply result.
    Ok {
        /// Echoed request id.
        id: u64,
        /// High 64-bit output.
        ph: u64,
        /// Low 64-bit output (int64 only).
        pl: u64,
        /// Lower-lane exception flags (hardware mask).
        flags_lo: u8,
        /// Upper-lane exception flags (hardware mask).
        flags_hi: u8,
        /// Microseconds the request sat queued before dispatch.
        queue_micros: u32,
        /// Microseconds of execution (batch eval + verification).
        exec_micros: u32,
    },
    /// Load was shed: the request was *not* executed and may be retried
    /// after the given hint. Never sent silently — every shed request
    /// gets exactly one of these.
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// Deterministic jittered retry hint, in microseconds.
        retry_after_micros: u64,
        /// Queue occupancy the request collided with.
        queued: u32,
    },
    /// The frame failed strict parsing; `code` is [`WireError::code`].
    /// `id` is 0 when the error occurred before the id could be read.
    Malformed {
        /// Echoed request id (0 if unreadable).
        id: u64,
        /// Stable numeric error class.
        code: u8,
    },
    /// The request's deadline passed before a unit could serve it; the
    /// operation was cancelled in-queue and never executed.
    DeadlineExceeded {
        /// Echoed request id.
        id: u64,
        /// The deadline the request carried, echoed back.
        deadline_micros: u32,
    },
}

impl Response {
    /// The correlation id this response answers.
    pub fn id(&self) -> u64 {
        match *self {
            Response::Ok { id, .. }
            | Response::Overloaded { id, .. }
            | Response::Malformed { id, .. }
            | Response::DeadlineExceeded { id, .. } => id,
        }
    }

    /// Builds an `Ok` response from a checked [`MultResult`] plus the
    /// per-request timing split measured by the service.
    pub fn from_result(id: u64, r: &MultResult, queue_micros: u32, exec_micros: u32) -> Self {
        Response::Ok {
            id,
            ph: r.ph,
            pl: r.pl,
            flags_lo: r.flags_lo.bits(),
            flags_hi: r.flags_hi.bits(),
            queue_micros,
            exec_micros,
        }
    }

    /// The product an `Ok` answer carries, as a result of `format` (the
    /// request's); `None` for every other response.
    pub fn result(&self, format: Format) -> Option<MultResult> {
        match *self {
            Response::Ok {
                ph,
                pl,
                flags_lo,
                flags_hi,
                ..
            } => Some(MultResult {
                format,
                ph,
                pl,
                flags_lo: Flags::from_bits(flags_lo),
                flags_hi: Flags::from_bits(flags_hi),
            }),
            _ => None,
        }
    }
}

/// Everything that can be wrong with a frame, as a typed, non-panicking
/// error. `code()` gives each class a stable wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside the 4-byte length prefix.
    TruncatedHeader {
        /// Prefix bytes actually read.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_BODY`].
    Oversized {
        /// Advertised body length.
        len: u32,
    },
    /// The length prefix was zero — no body can be a valid message.
    EmptyBody,
    /// The stream ended before `need` body bytes arrived.
    TruncatedBody {
        /// Bytes the length prefix promised.
        need: usize,
        /// Bytes actually read.
        got: usize,
    },
    /// The preamble magic was not [`MAGIC`].
    BadMagic {
        /// The magic actually read.
        got: u16,
    },
    /// The version byte was outside the accepted
    /// [`MIN_VERSION`]`..=`[`VERSION`] negotiation window.
    BadVersion {
        /// The version actually read.
        got: u8,
    },
    /// The kind byte was not a known message kind.
    BadKind {
        /// The kind actually read.
        got: u8,
    },
    /// The format tag does not name a supported format.
    BadFormat {
        /// The tag actually read.
        got: u8,
    },
    /// The status byte of a response was unknown.
    BadStatus {
        /// The status actually read.
        got: u8,
    },
    /// The body was longer than the message it contains.
    TrailingGarbage {
        /// Bytes the message needs.
        expected: usize,
        /// Bytes the body carried.
        got: usize,
    },
}

impl WireError {
    /// Stable numeric class carried in `Malformed` responses.
    pub const fn code(self) -> u8 {
        match self {
            WireError::TruncatedHeader { .. } => 1,
            WireError::Oversized { .. } => 2,
            WireError::EmptyBody => 3,
            WireError::TruncatedBody { .. } => 4,
            WireError::BadMagic { .. } => 5,
            WireError::BadVersion { .. } => 6,
            WireError::BadKind { .. } => 7,
            WireError::BadFormat { .. } => 8,
            WireError::BadStatus { .. } => 9,
            WireError::TrailingGarbage { .. } => 10,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WireError::TruncatedHeader { got } => {
                write!(f, "truncated length prefix ({got} of 4 bytes)")
            }
            WireError::Oversized { len } => {
                write!(f, "length prefix {len} exceeds the {MAX_BODY}-byte cap")
            }
            WireError::EmptyBody => f.write_str("zero-length body"),
            WireError::TruncatedBody { need, got } => {
                write!(f, "truncated body ({got} of {need} bytes)")
            }
            WireError::BadMagic { got } => write!(f, "bad magic {got:#06x}"),
            WireError::BadVersion { got } => write!(f, "unsupported version {got}"),
            WireError::BadKind { got } => write!(f, "unknown message kind {got}"),
            WireError::BadFormat { got } => write!(f, "unknown format tag {got}"),
            WireError::BadStatus { got } => write!(f, "unknown response status {got}"),
            WireError::TrailingGarbage { expected, got } => {
                write!(
                    f,
                    "trailing garbage ({got} body bytes, message needs {expected})"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A stream-level read failure: either a typed protocol violation or an
/// I/O error from the transport.
#[derive(Debug)]
pub enum FrameError {
    /// The bytes violated the protocol.
    Wire(WireError),
    /// The read timed out at a frame boundary with nothing consumed: a
    /// quiet-but-intact stream. Callers poll again; nothing was lost.
    Idle,
    /// The transport failed, or the stream stalled *mid-frame* past the
    /// read timeout (partial bytes are gone — the stream is desynced
    /// and must be torn down).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Wire(e) => write!(f, "protocol error: {e}"),
            FrameError::Idle => write!(f, "idle: read timed out between frames"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

const fn tag_of(f: Format) -> u8 {
    match f {
        Format::Int64 => 0,
        Format::Binary64 => 1,
        Format::DualBinary32 => 2,
        Format::SingleBinary32 => 3,
        Format::QuadBinary16 => 4,
    }
}

const fn format_of(tag: u8) -> Option<Format> {
    match tag {
        0 => Some(Format::Int64),
        1 => Some(Format::Binary64),
        2 => Some(Format::DualBinary32),
        3 => Some(Format::SingleBinary32),
        4 => Some(Format::QuadBinary16),
        _ => None,
    }
}

fn preamble(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind);
}

/// Encodes a request as a complete frame (length prefix included).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut body = Vec::with_capacity(REQUEST_BODY);
    preamble(&mut body, KIND_REQUEST);
    body.extend_from_slice(&req.id.to_le_bytes());
    body.push(tag_of(req.op.format));
    body.extend_from_slice(&req.deadline_micros.to_le_bytes());
    body.extend_from_slice(&req.op.xa.to_le_bytes());
    body.extend_from_slice(&req.op.yb.to_le_bytes());
    body.push(if req.critical { FLAG_CRITICAL } else { 0 });
    frame(body)
}

/// Encodes a response as a complete frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut body = Vec::with_capacity(39);
    preamble(&mut body, KIND_RESPONSE);
    body.extend_from_slice(&resp.id().to_le_bytes());
    match *resp {
        Response::Ok {
            ph,
            pl,
            flags_lo,
            flags_hi,
            queue_micros,
            exec_micros,
            ..
        } => {
            body.push(0);
            body.extend_from_slice(&ph.to_le_bytes());
            body.extend_from_slice(&pl.to_le_bytes());
            body.push(flags_lo);
            body.push(flags_hi);
            body.extend_from_slice(&queue_micros.to_le_bytes());
            body.extend_from_slice(&exec_micros.to_le_bytes());
        }
        Response::Overloaded {
            retry_after_micros,
            queued,
            ..
        } => {
            body.push(1);
            body.extend_from_slice(&retry_after_micros.to_le_bytes());
            body.extend_from_slice(&queued.to_le_bytes());
        }
        Response::Malformed { code, .. } => {
            body.push(2);
            body.push(code);
        }
        Response::DeadlineExceeded {
            deadline_micros, ..
        } => {
            body.push(3);
            body.extend_from_slice(&deadline_micros.to_le_bytes());
        }
    }
    frame(body)
}

fn frame(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        match self.b.get(self.i..self.i + N) {
            Some(s) => {
                self.i += N;
                Ok(s.try_into().expect("slice length checked"))
            }
            None => Err(WireError::TruncatedBody {
                need: self.i + N,
                got: self.b.len(),
            }),
        }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(WireError::TrailingGarbage {
                expected: self.i,
                got: self.b.len(),
            })
        }
    }
}

/// Parses the common preamble and returns `(version, id)`. Any version
/// inside the [`MIN_VERSION`]`..=`[`VERSION`] window is accepted — the
/// caller shapes the rest of the body by the negotiated version. The id
/// is read before kind-specific payload so even refused messages
/// correlate.
fn parse_preamble(c: &mut Cursor<'_>, want_kind: u8) -> Result<(u8, u64), WireError> {
    let magic = c.u16()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let version = c.u8()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(WireError::BadVersion { got: version });
    }
    let kind = c.u8()?;
    if kind != want_kind {
        return Err(WireError::BadKind { got: kind });
    }
    Ok((version, c.u64()?))
}

/// Strictly parses one request body. Rejects everything that is not an
/// exact, well-formed request — including trailing bytes. A v2 body
/// (33 bytes, no flags) decodes with `critical = false`; a v3 body must
/// carry its flags byte. Reserved flag bits are masked off, not
/// rejected, so a v4 client degrades gracefully against this build.
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    if body.is_empty() {
        return Err(WireError::EmptyBody);
    }
    let mut c = Cursor { b: body, i: 0 };
    let (version, id) = parse_preamble(&mut c, KIND_REQUEST)?;
    let tag = c.u8()?;
    let format = format_of(tag).ok_or(WireError::BadFormat { got: tag })?;
    let deadline_micros = c.u32()?;
    let xa = c.u64()?;
    let yb = c.u64()?;
    let critical = if version >= 3 {
        c.u8()? & FLAG_CRITICAL != 0
    } else {
        false
    };
    c.done()?;
    Ok(Request {
        id,
        op: Operation { format, xa, yb },
        deadline_micros,
        critical,
    })
}

/// The request id of a body whose preamble parsed far enough to carry
/// one, regardless of later errors — lets a `Malformed` response echo
/// the id when it is recoverable.
pub fn salvage_id(body: &[u8]) -> u64 {
    if body.len() >= PREAMBLE + 8 && body[..2] == MAGIC.to_le_bytes() {
        u64::from_le_bytes(
            body[PREAMBLE..PREAMBLE + 8]
                .try_into()
                .expect("length checked"),
        )
    } else {
        0
    }
}

/// Strictly parses one response body (the client side of the protocol).
pub fn decode_response(body: &[u8]) -> Result<Response, WireError> {
    if body.is_empty() {
        return Err(WireError::EmptyBody);
    }
    let mut c = Cursor { b: body, i: 0 };
    let (_version, id) = parse_preamble(&mut c, KIND_RESPONSE)?;
    let status = c.u8()?;
    let resp = match status {
        0 => Response::Ok {
            id,
            ph: c.u64()?,
            pl: c.u64()?,
            flags_lo: c.u8()?,
            flags_hi: c.u8()?,
            queue_micros: c.u32()?,
            exec_micros: c.u32()?,
        },
        1 => Response::Overloaded {
            id,
            retry_after_micros: c.u64()?,
            queued: c.u32()?,
        },
        2 => Response::Malformed { id, code: c.u8()? },
        3 => Response::DeadlineExceeded {
            id,
            deadline_micros: c.u32()?,
        },
        got => return Err(WireError::BadStatus { got }),
    };
    c.done()?;
    Ok(resp)
}

/// Reads one frame body off a stream. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer closed between messages); every other
/// deviation is a typed error. The length prefix is validated against
/// [`MAX_BODY`] *before* the body allocation.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Wire(WireError::TruncatedHeader { got })),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if got == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(FrameError::Idle)
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(FrameError::Wire(WireError::EmptyBody));
    }
    if len > MAX_BODY {
        return Err(FrameError::Wire(WireError::Oversized { len }));
    }
    let mut body = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < body.len() {
        match r.read(&mut body[got..]) {
            Ok(0) => {
                return Err(FrameError::Wire(WireError::TruncatedBody {
                    need: body.len(),
                    got,
                }))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(body))
}

/// Writes one already-encoded frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            id: 0xDEAD_BEEF_0042,
            op: Operation::dual_binary32(0x3F80_0000, 0x4000_0000, 0x4040_0000, 0x3F00_0000),
            deadline_micros: 1500,
            critical: false,
        }
    }

    /// Re-encodes a request as its 33-byte v2 body (no flags byte) —
    /// what an old client still on the previous protocol emits.
    fn encode_request_v2(req: &Request) -> Vec<u8> {
        let mut f = encode_request(req);
        f.truncate(f.len() - 1); // drop the v3 flags byte
        f[..4].copy_from_slice(&((REQUEST_BODY - 1) as u32).to_le_bytes());
        f[6] = 2; // version byte back to v2
        f
    }

    #[test]
    fn request_round_trips() {
        for critical in [false, true] {
            let req = Request {
                critical,
                ..sample_request()
            };
            let f = encode_request(&req);
            assert_eq!(
                u32::from_le_bytes(f[..4].try_into().unwrap()) as usize,
                f.len() - 4
            );
            assert_eq!(f.len() - 4, REQUEST_BODY);
            assert_eq!(decode_request(&f[4..]).unwrap(), req);
        }
    }

    #[test]
    fn v2_requests_negotiate_down_to_non_critical() {
        // A v2 body — one byte shorter, version byte 2 — decodes with
        // `critical = false` and everything else intact.
        let req = sample_request();
        let f = encode_request_v2(&req);
        assert_eq!(f.len() - 4, REQUEST_BODY - 1);
        let got = decode_request(&f[4..]).unwrap();
        assert_eq!(got, req);
        assert!(!got.critical);
        // Reserved v3 flag bits are masked, not rejected.
        let mut v3 = encode_request(&req);
        let last = v3.len() - 1;
        v3[last] = 0b1110; // reserved bits set, critical clear
        assert!(!decode_request(&v3[4..]).unwrap().critical);
        v3[last] = 0b1111; // reserved bits set, critical set
        assert!(decode_request(&v3[4..]).unwrap().critical);
    }

    #[test]
    fn every_response_round_trips() {
        let cases = [
            Response::Ok {
                id: 7,
                ph: u64::MAX,
                pl: 1,
                flags_lo: 0b101,
                flags_hi: 0,
                queue_micros: 420,
                exec_micros: 37,
            },
            Response::Overloaded {
                id: 8,
                retry_after_micros: 12_000,
                queued: 32,
            },
            Response::Malformed { id: 0, code: 5 },
            Response::DeadlineExceeded {
                id: 9,
                deadline_micros: 250,
            },
        ];
        for resp in cases {
            let f = encode_response(&resp);
            assert_eq!(decode_response(&f[4..]).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn stream_reader_reassembles_split_writes() {
        let req = sample_request();
        let f = encode_request(&req);
        // A reader that returns one byte at a time (slow client).
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut r = OneByte(&f, 0);
        let body = read_frame(&mut r).unwrap().expect("one frame");
        assert_eq!(decode_request(&body).unwrap(), req);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after");
    }

    // ---- the adversarial corpus -------------------------------------

    /// Every corpus entry: a raw byte stream, the typed error strict
    /// parsing must map it to, and the id [`salvage_id`] must recover
    /// from the body bytes (0 when the preamble cannot be trusted).
    fn adversarial_corpus() -> Vec<(&'static str, Vec<u8>, WireError, u64)> {
        let req = sample_request();
        let id = req.id;
        let good = encode_request(&req);
        let body = good[4..].to_vec();
        let mut truncated_header = good.clone();
        truncated_header.truncate(2);
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_BODY + 1).to_le_bytes());
        oversized.extend_from_slice(&[0u8; 16]);
        let mut zero_len = Vec::new();
        zero_len.extend_from_slice(&0u32.to_le_bytes());
        let mut truncated_body = good.clone();
        truncated_body.truncate(4 + 10);
        let mut trailing = good.clone();
        trailing.extend_from_slice(b"garbage");
        // Fix up the length prefix so the framing is consistent and the
        // garbage lands inside the body.
        let tlen = (trailing.len() - 4) as u32;
        trailing[..4].copy_from_slice(&tlen.to_le_bytes());
        let mut bad_magic = good.clone();
        bad_magic[4] = 0x58;
        let mut bad_version = good.clone();
        bad_version[6] = 99;
        let mut ancient_version = good.clone();
        ancient_version[6] = 1; // below the negotiation window
        let mut bad_kind = good.clone();
        bad_kind[7] = 9;
        let mut bad_format = good.clone();
        bad_format[16] = 200;
        // v2→v3 negotiation edge cases: a v2 frame truncated mid-body,
        // a v2 frame oversized by a stray v3 flags byte, and a v3 frame
        // that lost its flags byte in transit.
        let v2 = encode_request_v2(&req);
        let mut v2_truncated = v2.clone();
        v2_truncated.truncate(4 + 20);
        let mut v2_oversized = v2.clone();
        v2_oversized.push(0);
        v2_oversized[..4].copy_from_slice(&(REQUEST_BODY as u32).to_le_bytes());
        let mut v3_flagless = good.clone();
        v3_flagless.truncate(4 + REQUEST_BODY - 1);
        v3_flagless[..4].copy_from_slice(&((REQUEST_BODY - 1) as u32).to_le_bytes());
        vec![
            (
                "truncated header",
                truncated_header,
                WireError::TruncatedHeader { got: 2 },
                0,
            ),
            (
                "oversized length prefix",
                oversized,
                WireError::Oversized { len: MAX_BODY + 1 },
                0,
            ),
            ("zero-length body", zero_len, WireError::EmptyBody, 0),
            (
                "truncated body",
                truncated_body,
                WireError::TruncatedBody { need: 34, got: 10 },
                0, // only 10 body bytes arrived — not enough for an id
            ),
            (
                "trailing garbage",
                trailing,
                WireError::TrailingGarbage {
                    expected: body.len(),
                    got: body.len() + 7,
                },
                id,
            ),
            (
                "bad magic",
                bad_magic,
                WireError::BadMagic { got: 0x4D58 },
                0,
            ),
            (
                "bad version",
                bad_version,
                WireError::BadVersion { got: 99 },
                id,
            ),
            (
                "ancient version below the window",
                ancient_version,
                WireError::BadVersion { got: 1 },
                id,
            ),
            ("bad kind", bad_kind, WireError::BadKind { got: 9 }, id),
            (
                "bad format tag",
                bad_format,
                WireError::BadFormat { got: 200 },
                id,
            ),
            (
                "v2 negotiation frame truncated mid-body",
                v2_truncated,
                WireError::TruncatedBody { need: 33, got: 20 },
                id,
            ),
            (
                "v2 negotiation frame oversized by a v3 flags byte",
                v2_oversized,
                WireError::TrailingGarbage {
                    expected: REQUEST_BODY - 1,
                    got: REQUEST_BODY,
                },
                id,
            ),
            (
                "v3 frame missing its flags byte",
                v3_flagless,
                WireError::TruncatedBody {
                    need: REQUEST_BODY,
                    got: REQUEST_BODY - 1,
                },
                id,
            ),
        ]
    }

    #[test]
    fn adversarial_frames_map_to_typed_errors_without_panicking() {
        for (name, bytes, want, want_salvage) in adversarial_corpus() {
            let mut r = std::io::Cursor::new(bytes.clone());
            let got = match read_frame(&mut r) {
                Err(FrameError::Wire(e)) => e,
                Ok(Some(b)) => decode_request(&b).expect_err(name),
                other => panic!("{name}: expected a typed error, got {other:?}"),
            };
            assert_eq!(got, want, "{name}");
            // The error class has a stable nonzero wire code.
            assert!(got.code() > 0, "{name}");
            // On every corpus entry the id salvage is exact: recovered
            // whenever the preamble bytes are intact, 0 otherwise — the
            // Malformed response always correlates when it can.
            let body_bytes = bytes.get(4..).unwrap_or(&[]);
            assert_eq!(salvage_id(body_bytes), want_salvage, "{name}: salvage");
        }
    }

    #[test]
    fn random_bytes_never_panic_the_parser() {
        // A cheap deterministic fuzz: feed 4k pseudo-random streams of
        // assorted lengths; the parser must return, not panic.
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for round in 0..4096 {
            let len = (round % 80) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let mut r = std::io::Cursor::new(bytes.clone());
            if let Ok(Some(body)) = read_frame(&mut r) {
                let _ = decode_request(&body);
                let _ = decode_response(&body);
                let _ = salvage_id(&body);
            }
            let _ = decode_request(&bytes);
            let _ = decode_response(&bytes);
        }
    }

    #[test]
    fn salvage_id_recovers_ids_when_the_preamble_is_sound() {
        let req = sample_request();
        let f = encode_request(&req);
        let mut body = f[4..].to_vec();
        body[12] = 200; // corrupt the format tag, id bytes untouched
        assert!(decode_request(&body).is_err() || body[12] != 200);
        assert_eq!(salvage_id(&body), req.id);
        assert_eq!(salvage_id(&[1, 2, 3]), 0, "too short to carry an id");
        let mut bad = f[4..].to_vec();
        bad[0] = 0; // magic broken: the id bytes cannot be trusted
        assert_eq!(salvage_id(&bad), 0);
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = std::io::Cursor::new(bytes);
        match read_frame(&mut r) {
            Err(FrameError::Wire(WireError::Oversized { len })) => assert_eq!(len, u32::MAX),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }
}
