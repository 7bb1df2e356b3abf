//! Wire format for raw readings.
//!
//! Figure 1 annotates the link between the physical device layer and the
//! rest of SASE as "communication over socket": readers ship raw readings
//! as framed binary messages. This module implements that frame format.
//! No deployment in this workspace moves readings over it; the benchmark's
//! `rfid.frame_encode_us_per_tick` / `rfid.frame_decode_us_per_tick` rows
//! time it, and the unit tests below exercise corrupted and truncated
//! frames.
//!
//! ## Frame layout (big-endian)
//!
//! ```text
//! magic     u16   0x5A5E ("SASE")
//! tick      u64   scan cycle of every reading in the frame
//! count     u16   number of readings
//! readings  count × {
//!   reader  u32
//!   kind    u8    0 = full code, 1 = truncated
//!   code    u64   full code, or the partial bits
//!   bits    u8    valid low bits (only meaningful when kind = 1)
//! }
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use sase_stream::reading::{RawReading, RawTag, Tick};

/// Frame magic number.
pub const MAGIC: u16 = 0x5A5E;

/// Errors decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a header, or than `count` readings require.
    Truncated,
    /// Bad magic number.
    BadMagic(u16),
    /// Unknown tag-kind discriminant.
    BadKind(u8),
    /// The frame mixes ticks (readings must share the frame's tick).
    MixedTicks,
    /// Garbage bytes follow the declared reading count. A frame must be
    /// exactly as long as its header says: trailing bytes mean a framing
    /// bug or corruption, and accepting them would let it go unnoticed
    /// (the durable store reuses this framing discipline).
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            WireError::BadKind(k) => write!(f, "unknown tag kind {k}"),
            WireError::MixedTicks => write!(f, "frame mixes scan cycles"),
            WireError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the declared readings")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encode one scan cycle's readings into a frame.
///
/// Every reading must carry `tick` (a frame is one scan cycle); violations
/// are reported as [`WireError::MixedTicks`].
pub fn encode_frame(tick: Tick, readings: &[RawReading]) -> Result<Bytes, WireError> {
    if readings.iter().any(|r| r.tick != tick) {
        return Err(WireError::MixedTicks);
    }
    let mut buf = BytesMut::with_capacity(12 + readings.len() * 14);
    buf.put_u16(MAGIC);
    buf.put_u64(tick);
    buf.put_u16(readings.len() as u16);
    for r in readings {
        buf.put_u32(r.reader);
        match r.tag {
            RawTag::Full(code) => {
                buf.put_u8(0);
                buf.put_u64(code);
                buf.put_u8(0);
            }
            RawTag::Truncated { partial, bits } => {
                buf.put_u8(1);
                buf.put_u64(partial);
                buf.put_u8(bits);
            }
        }
    }
    Ok(buf.freeze())
}

/// Decode a frame back into `(tick, readings)`.
pub fn decode_frame(mut frame: Bytes) -> Result<(Tick, Vec<RawReading>), WireError> {
    if frame.remaining() < 12 {
        return Err(WireError::Truncated);
    }
    let magic = frame.get_u16();
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let tick = frame.get_u64();
    let count = frame.get_u16() as usize;
    if frame.remaining() < count * 14 {
        return Err(WireError::Truncated);
    }
    let mut readings = Vec::with_capacity(count);
    for _ in 0..count {
        let reader = frame.get_u32();
        let kind = frame.get_u8();
        let code = frame.get_u64();
        let bits = frame.get_u8();
        let tag = match kind {
            0 => RawTag::Full(code),
            1 => RawTag::Truncated {
                partial: code,
                bits,
            },
            k => return Err(WireError::BadKind(k)),
        };
        readings.push(RawReading { tag, reader, tick });
    }
    if frame.has_remaining() {
        return Err(WireError::TrailingBytes(frame.remaining()));
    }
    Ok((tick, readings))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: Tick) -> Vec<RawReading> {
        vec![
            RawReading::full(0xEC00_0000_0000_002A, 1, tick),
            RawReading {
                tag: RawTag::Truncated {
                    partial: 0xBEEF,
                    bits: 16,
                },
                reader: 4,
                tick,
            },
        ]
    }

    #[test]
    fn round_trip() {
        let readings = sample(7);
        let frame = encode_frame(7, &readings).unwrap();
        let (tick, decoded) = decode_frame(frame).unwrap();
        assert_eq!(tick, 7);
        assert_eq!(decoded, readings);
    }

    #[test]
    fn empty_frame_round_trips() {
        let frame = encode_frame(3, &[]).unwrap();
        let (tick, decoded) = decode_frame(frame).unwrap();
        assert_eq!(tick, 3);
        assert!(decoded.is_empty());
    }

    #[test]
    fn mixed_ticks_rejected() {
        let mut readings = sample(7);
        readings.push(RawReading::full(1, 1, 8));
        assert_eq!(encode_frame(7, &readings), Err(WireError::MixedTicks));
    }

    #[test]
    fn corrupted_frames_rejected() {
        let frame = encode_frame(7, &sample(7)).unwrap();
        // Truncation at every prefix length must error, never panic.
        for cut in 0..frame.len() {
            let prefix = frame.slice(0..cut);
            assert!(decode_frame(prefix).is_err(), "prefix of {cut} bytes");
        }
        // Bad magic.
        let mut bad = BytesMut::from(&frame[..]);
        bad[0] = 0;
        assert!(matches!(
            decode_frame(bad.freeze()),
            Err(WireError::BadMagic(_))
        ));
        // Bad kind discriminant (first reading's kind byte = offset 16).
        let mut bad = BytesMut::from(&frame[..]);
        bad[16] = 9;
        assert_eq!(decode_frame(bad.freeze()), Err(WireError::BadKind(9)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        // Regression: frames with bytes after the declared reading count
        // used to decode successfully, silently ignoring the garbage.
        let frame = encode_frame(7, &sample(7)).unwrap();
        for extra in 1..4usize {
            let mut padded = BytesMut::from(&frame[..]);
            padded.extend_from_slice(&vec![0xAB; extra]);
            assert_eq!(
                decode_frame(padded.freeze()),
                Err(WireError::TrailingBytes(extra)),
                "{extra} trailing bytes"
            );
        }
        // An exact frame still round-trips.
        assert!(decode_frame(frame).is_ok());
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::BadMagic(3).to_string().contains("magic"));
        assert!(WireError::TrailingBytes(5)
            .to_string()
            .contains("5 trailing"));
    }
}
