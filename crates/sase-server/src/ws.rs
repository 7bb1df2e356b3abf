//! Minimal RFC 6455 WebSocket support: the handshake digest (SHA-1 +
//! base64, hand-rolled — the container has no crypto crate and needs
//! none for a non-secret checksum) and the frame codec.
//!
//! The server speaks text frames only. Client-to-server frames MUST be
//! masked and server-to-client frames MUST NOT be, exactly as the RFC
//! requires; violations are typed [`ServerError::Protocol`] faults that
//! tear down the offending connection. Fragmented messages are not
//! supported — every frame must carry `FIN`; the subscription protocol's
//! messages are single short text lines.
//!
//! ## Subscription protocol (text frames)
//!
//! | client sends          | server replies            |
//! |-----------------------|---------------------------|
//! | `subscribe <query>`   | `subscribed <query>`      |
//! | `unsubscribe <query>` | `unsubscribed <query>`    |
//! | `ping`                | `pong`                    |
//! | anything else         | `error <message>`         |
//!
//! Emissions arrive unsolicited as `event <ComplexEvent display>` text
//! frames on every query the connection subscribed to.

use std::io::{BufReader, Read, Write};

use crate::{Result, ServerError};

/// The protocol GUID every accept digest mixes in (RFC 6455 §1.3).
const WS_GUID: &str = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11";

// ---------------------------------------------------------------------------
// SHA-1 (FIPS 180-4) — handshake checksum only, nothing secret
// ---------------------------------------------------------------------------

/// SHA-1 digest of `data`. Used only for the WebSocket accept key; SHA-1
/// is broken for collision resistance but the handshake needs an
/// interoperable checksum, not security.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [
        0x6745_2301,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ];
    let ml = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&ml.to_be_bytes());
    let mut w = [0u32; 80];
    for chunk in msg.chunks_exact(64) {
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let t = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = t;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }
    let mut out = [0u8; 20];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Standard base64 (RFC 4648, with padding) of `data`.
pub fn base64(data: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Compute the `Sec-WebSocket-Accept` value for a client's
/// `Sec-WebSocket-Key`.
pub fn accept_key(client_key: &str) -> String {
    let mut joined = client_key.trim().to_string();
    joined.push_str(WS_GUID);
    base64(&sha1(joined.as_bytes()))
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// WebSocket frame opcodes this server understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// UTF-8 text payload — the only data frame the protocol uses.
    Text,
    /// Binary payload (accepted, answered with an error message).
    Binary,
    /// Connection close.
    Close,
    /// Keep-alive probe; answered with [`Opcode::Pong`].
    Ping,
    /// Keep-alive reply.
    Pong,
}

impl Opcode {
    fn from_bits(bits: u8) -> Option<Opcode> {
        match bits {
            0x1 => Some(Opcode::Text),
            0x2 => Some(Opcode::Binary),
            0x8 => Some(Opcode::Close),
            0x9 => Some(Opcode::Ping),
            0xA => Some(Opcode::Pong),
            _ => None,
        }
    }

    fn bits(self) -> u8 {
        match self {
            Opcode::Text => 0x1,
            Opcode::Binary => 0x2,
            Opcode::Close => 0x8,
            Opcode::Ping => 0x9,
            Opcode::Pong => 0xA,
        }
    }
}

/// Upper bound on a single frame's payload; a subscription command or a
/// rendered emission is never remotely this large.
pub const MAX_WS_FRAME: u64 = 1 << 20;

/// Append one frame to `buf`. `mask` carries the client role's masking
/// key (`None` for server-to-client frames, per the RFC).
pub fn put_frame(buf: &mut Vec<u8>, opcode: Opcode, payload: &[u8], mask: Option<[u8; 4]>) {
    buf.reserve(payload.len() + 14);
    buf.push(0x80 | opcode.bits()); // FIN, no extensions
    let mask_bit = if mask.is_some() { 0x80 } else { 0x00 };
    match payload.len() {
        n if n < 126 => buf.push(mask_bit | n as u8),
        n if n <= u16::MAX as usize => {
            buf.push(mask_bit | 126);
            buf.extend_from_slice(&(n as u16).to_be_bytes());
        }
        n => {
            buf.push(mask_bit | 127);
            buf.extend_from_slice(&(n as u64).to_be_bytes());
        }
    }
    match mask {
        None => buf.extend_from_slice(payload),
        Some(key) => {
            buf.extend_from_slice(&key);
            buf.extend(payload.iter().enumerate().map(|(i, b)| b ^ key[i % 4]));
        }
    }
}

/// Write one frame with one `write_all`; see [`put_frame`].
pub fn write_frame(
    w: &mut impl Write,
    opcode: Opcode,
    payload: &[u8],
    mask: Option<[u8; 4]>,
) -> std::io::Result<()> {
    let mut frame = Vec::new();
    put_frame(&mut frame, opcode, payload, mask);
    w.write_all(&frame)
}

/// Read one complete frame, returning `(opcode, unmasked payload)`.
/// `Ok(None)` is clean EOF between frames. `require_mask` enforces the
/// RFC's role asymmetry: servers set it (client frames must be masked),
/// clients clear it (server frames must not be).
pub fn read_frame(r: &mut impl Read, require_mask: bool) -> Result<Option<(Opcode, Vec<u8>)>> {
    let mut hdr = [0u8; 2];
    match read_full(r, &mut hdr)? {
        Filled::Eof => return Ok(None),
        Filled::Partial => return Err(ServerError::Protocol("websocket stream truncated".into())),
        Filled::Full => {}
    }
    let fin = hdr[0] & 0x80 != 0;
    if hdr[0] & 0x70 != 0 {
        return Err(ServerError::Protocol(
            "websocket extension bits set without a negotiated extension".into(),
        ));
    }
    if !fin {
        return Err(ServerError::Protocol(
            "fragmented websocket messages are not supported".into(),
        ));
    }
    let opcode = Opcode::from_bits(hdr[0] & 0x0F).ok_or_else(|| {
        ServerError::Protocol(format!("unsupported websocket opcode {:#x}", hdr[0] & 0x0F))
    })?;
    let masked = hdr[1] & 0x80 != 0;
    if masked != require_mask {
        return Err(ServerError::Protocol(if require_mask {
            "client frames must be masked".into()
        } else {
            "server frames must not be masked".into()
        }));
    }
    let mut len = u64::from(hdr[1] & 0x7F);
    if len == 126 {
        let mut ext = [0u8; 2];
        read_all_or_protocol(r, &mut ext)?;
        len = u64::from(u16::from_be_bytes(ext));
    } else if len == 127 {
        let mut ext = [0u8; 8];
        read_all_or_protocol(r, &mut ext)?;
        len = u64::from_be_bytes(ext);
    }
    if len > MAX_WS_FRAME {
        return Err(ServerError::Protocol(format!(
            "websocket frame of {len} bytes exceeds cap {MAX_WS_FRAME}"
        )));
    }
    let key = if masked {
        let mut k = [0u8; 4];
        read_all_or_protocol(r, &mut k)?;
        Some(k)
    } else {
        None
    };
    let mut payload = vec![0u8; len as usize];
    read_all_or_protocol(r, &mut payload)?;
    if let Some(k) = key {
        for (i, b) in payload.iter_mut().enumerate() {
            *b ^= k[i % 4];
        }
    }
    Ok(Some((opcode, payload)))
}

enum Filled {
    Full,
    Partial,
    Eof,
}

fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<Filled> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Filled::Eof
                } else {
                    Filled::Partial
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Filled::Full)
}

fn read_all_or_protocol(r: &mut impl Read, buf: &mut [u8]) -> Result<()> {
    match read_full(r, buf)? {
        Filled::Full => Ok(()),
        _ => Err(ServerError::Protocol("websocket stream truncated".into())),
    }
}

// ---------------------------------------------------------------------------
// Client half
// ---------------------------------------------------------------------------

/// A blocking client-side WebSocket connection over any byte stream,
/// used by the push-subscription client and the load bench. Frames are
/// read through a buffer, so pushes the server wrote together are
/// received together instead of costing two socket reads each.
pub struct WsClient<S: Read + Write> {
    stream: BufReader<S>,
    mask_seq: u32,
}

impl<S: Read + Write> WsClient<S> {
    /// Perform the client half of the RFC 6455 handshake on `stream`
    /// (request `path`, any `host`), validating the accept digest.
    pub fn handshake(stream: S, host: &str, path: &str) -> Result<Self> {
        let key = base64(b"sase-server-ws19"); // 16 bytes, as the RFC asks
        let request = format!(
            "GET {path} HTTP/1.1\r\nHost: {host}\r\nUpgrade: websocket\r\n\
             Connection: Upgrade\r\nSec-WebSocket-Key: {key}\r\n\
             Sec-WebSocket-Version: 13\r\n\r\n"
        );
        let mut stream = BufReader::new(stream);
        stream.get_mut().write_all(request.as_bytes())?;
        // Frames may follow the response head in the same packet; they
        // stay in the buffer for `recv_text`.
        let mut head = Vec::with_capacity(256);
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            if head.len() > 16 * 1024 {
                return Err(ServerError::Protocol("oversized handshake response".into()));
            }
            match read_full(&mut stream, &mut byte)? {
                Filled::Full => head.push(byte[0]),
                _ => return Err(ServerError::Protocol("handshake truncated".into())),
            }
        }
        let text = String::from_utf8_lossy(&head);
        if !text.starts_with("HTTP/1.1 101") {
            return Err(ServerError::Protocol(format!(
                "handshake refused: {}",
                text.lines().next().unwrap_or_default()
            )));
        }
        let want = accept_key(&key);
        let ok = text.lines().any(|l| {
            l.to_ascii_lowercase().starts_with("sec-websocket-accept:")
                && l.split(':').nth(1).map(str::trim) == Some(want.as_str())
        });
        if !ok {
            return Err(ServerError::Protocol(
                "bad Sec-WebSocket-Accept digest".into(),
            ));
        }
        Ok(WsClient {
            stream,
            mask_seq: 0x9E37_79B9,
        })
    }

    /// Send one text frame (masked, as clients must).
    pub fn send_text(&mut self, text: &str) -> Result<()> {
        self.mask_seq = self.mask_seq.wrapping_mul(0x01000193).wrapping_add(1);
        write_frame(
            self.stream.get_mut(),
            Opcode::Text,
            text.as_bytes(),
            Some(self.mask_seq.to_be_bytes()),
        )?;
        Ok(())
    }

    /// Receive the next *text* message, transparently answering pings and
    /// returning `Ok(None)` on close or clean EOF.
    pub fn recv_text(&mut self) -> Result<Option<String>> {
        loop {
            match read_frame(&mut self.stream, false)? {
                None | Some((Opcode::Close, _)) => return Ok(None),
                Some((Opcode::Ping, payload)) => {
                    self.mask_seq = self.mask_seq.wrapping_mul(0x01000193).wrapping_add(1);
                    write_frame(
                        self.stream.get_mut(),
                        Opcode::Pong,
                        &payload,
                        Some(self.mask_seq.to_be_bytes()),
                    )?;
                }
                Some((Opcode::Pong, _)) => {}
                Some((Opcode::Binary, _)) => {
                    return Err(ServerError::Protocol(
                        "unexpected binary frame from server".into(),
                    ));
                }
                Some((Opcode::Text, payload)) => {
                    return String::from_utf8(payload)
                        .map(Some)
                        .map_err(|_| ServerError::Protocol("non-UTF-8 text frame".into()));
                }
            }
        }
    }

    /// Send a close frame and consume the stream.
    pub fn close(mut self) -> Result<()> {
        self.mask_seq = self.mask_seq.wrapping_mul(0x01000193).wrapping_add(1);
        write_frame(
            self.stream.get_mut(),
            Opcode::Close,
            &[],
            Some(self.mask_seq.to_be_bytes()),
        )?;
        Ok(())
    }

    /// The underlying stream (to set timeouts on a `TcpStream`).
    pub fn stream(&self) -> &S {
        self.stream.get_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_timeout_mid_frame_ends_the_read() {
        let mut buf = Vec::new();
        put_frame(&mut buf, Opcode::Text, b"hello", Some([1, 2, 3, 4]));
        for kind in [std::io::ErrorKind::TimedOut, std::io::ErrorKind::WouldBlock] {
            let mut peer = crate::SilentPeer::new(&buf[..4], kind);
            let err = read_frame(&mut peer, true).unwrap_err();
            assert!(matches!(err, ServerError::Io(_)), "{err}");
        }
    }

    #[test]
    fn sha1_matches_known_vectors() {
        let hex = |d: [u8; 20]| d.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(
            hex(sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(hex(sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(sha1(b"The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn base64_matches_known_vectors() {
        assert_eq!(base64(b""), "");
        assert_eq!(base64(b"f"), "Zg==");
        assert_eq!(base64(b"fo"), "Zm8=");
        assert_eq!(base64(b"foo"), "Zm9v");
        assert_eq!(base64(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn rfc6455_accept_digest() {
        // The worked example from RFC 6455 §1.3.
        assert_eq!(
            accept_key("dGhlIHNhbXBsZSBub25jZQ=="),
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        );
    }

    #[test]
    fn frames_round_trip_masked_and_unmasked() {
        for mask in [None, Some([1u8, 2, 3, 4])] {
            let mut buf = Vec::new();
            write_frame(&mut buf, Opcode::Text, b"hello push", mask).unwrap();
            let (op, payload) = read_frame(&mut &buf[..], mask.is_some()).unwrap().unwrap();
            assert_eq!(op, Opcode::Text);
            assert_eq!(payload, b"hello push");
        }
        // A 200-byte payload exercises the 16-bit length form.
        let big = vec![0x42u8; 200];
        let mut buf = Vec::new();
        write_frame(&mut buf, Opcode::Binary, &big, None).unwrap();
        let (op, payload) = read_frame(&mut &buf[..], false).unwrap().unwrap();
        assert_eq!(op, Opcode::Binary);
        assert_eq!(payload, big);
    }

    #[test]
    fn mask_asymmetry_is_enforced() {
        let mut unmasked = Vec::new();
        write_frame(&mut unmasked, Opcode::Text, b"x", None).unwrap();
        assert!(matches!(
            read_frame(&mut &unmasked[..], true),
            Err(ServerError::Protocol(_))
        ));
        let mut masked = Vec::new();
        write_frame(&mut masked, Opcode::Text, b"x", Some([9, 9, 9, 9])).unwrap();
        assert!(matches!(
            read_frame(&mut &masked[..], false),
            Err(ServerError::Protocol(_))
        ));
    }
}
