//! The fleet wire protocol: length-prefixed, CRC-framed messages.
//!
//! Every message between the supervisor and its worker travels as one
//! frame over a pipe:
//!
//! ```text
//! u32 LE   magic ("RFLF")
//! u32 LE   payload length
//! u32 LE   CRC-32 of the payload
//! bytes    payload: the message as JSON
//! ```
//!
//! No simulation state travels on the wire: the worker's recovery points
//! are checkpoint files, and a frame only names them. A frame is written
//! atomically (one buffer, one `write_all` under the sender's writer
//! lock), which is what makes the injected `msg-truncate` fault
//! meaningful: cutting a frame short is exactly what a crashed peer leaves
//! on the pipe, and [`read_frame`] reports it as a typed
//! [`FrameError::Truncated`], never a panic.

use std::io::Read;

use serde::{Deserialize, Serialize};

use crate::crc32::crc32;

/// Frame magic: "RFLF" little-endian.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"RFLF");

/// Upper bound on a frame payload (1 MiB) — a corrupt length prefix must
/// not drive a giant allocation.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// One protocol message.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireMsg {
    // ---- supervisor → worker ----
    /// Liveness probe; the worker's reader thread answers inline.
    Ping { nonce: u64 },

    // ---- worker → supervisor ----
    /// The worker committed a step.
    StepDone { step: u64, time_bits: u64 },
    /// The worker wrote a series checkpoint it can be restarted from.
    /// Paths travel as UTF-8 strings — the supervisor chose the series
    /// directory, so they are never foreign bytes.
    CheckpointDone { step: u64, path: String },
    /// Final state digest (mirrors `StateDigest`, field for field).
    Digest {
        crc: u32,
        step: u64,
        time_bits: u64,
        leaves: u64,
        cells: u64,
    },
    /// Periodic liveness signal from the worker's heartbeat thread.
    Heartbeat,
    /// Probe answer.
    Pong { nonce: u64 },
    /// Orderly goodbye; EOF after this is a clean exit, not a loss.
    Bye,
}

/// Typed framing errors. `Eof` is a clean end-of-stream (zero bytes where
/// a frame would start); everything else is a damaged or hostile stream.
#[derive(Debug)]
pub enum FrameError {
    Io(std::io::Error),
    /// Clean EOF at a frame boundary.
    Eof,
    /// The stream ended inside a frame — the `msg-truncate` shape.
    Truncated {
        what: &'static str,
    },
    BadMagic {
        found: u32,
    },
    TooLarge {
        len: u32,
    },
    Crc {
        stored: u32,
        computed: u32,
    },
    /// Message JSON malformed.
    Header(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O: {e}"),
            FrameError::Eof => write!(f, "end of stream"),
            FrameError::Truncated { what } => write!(f, "stream ended inside {what}"),
            FrameError::BadMagic { found } => write!(f, "bad frame magic {found:#010x}"),
            FrameError::TooLarge { len } => write!(f, "frame payload of {len} bytes too large"),
            FrameError::Crc { stored, computed } => write!(
                f,
                "frame CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            FrameError::Header(m) => write!(f, "frame header: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Serialize one frame (prelude + payload) into a single buffer, ready for
/// an atomic `write_all`.
pub fn encode_frame(msg: &WireMsg) -> Result<Vec<u8>, FrameError> {
    let payload = serde_json::to_string(msg)
        .map_err(|e| FrameError::Header(e.to_string()))?
        .into_bytes();
    if payload.len() > MAX_PAYLOAD as usize {
        return Err(FrameError::TooLarge {
            len: payload.len() as u32,
        });
    }
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Fill `buf`, distinguishing a clean EOF before the first byte
/// (`Eof`, only when `at_boundary`) from a tear mid-structure.
fn read_exact_frame(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
    what: &'static str,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    FrameError::Eof
                } else {
                    FrameError::Truncated { what }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame: verify magic, length bound, and payload CRC, then
/// decode the message. Returns the message and the frame's size in bytes.
pub fn read_frame(r: &mut impl Read) -> Result<(WireMsg, usize), FrameError> {
    let mut prelude = [0u8; 12];
    read_exact_frame(r, &mut prelude, true, "frame prelude")?;
    let magic = u32::from_le_bytes(prelude[0..4].try_into().unwrap());
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let payload_len = u32::from_le_bytes(prelude[4..8].try_into().unwrap());
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge { len: payload_len });
    }
    let stored = u32::from_le_bytes(prelude[8..12].try_into().unwrap());
    let mut payload = vec![0u8; payload_len as usize];
    read_exact_frame(r, &mut payload, false, "frame payload")?;
    let computed = crc32(&payload);
    if stored != computed {
        return Err(FrameError::Crc { stored, computed });
    }
    let msg = serde_json::from_slice(&payload).map_err(|e| FrameError::Header(e.to_string()))?;
    Ok((msg, prelude.len() + payload.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let msg = WireMsg::CheckpointDone {
            step: 41,
            path: "series/fleet_000041.ckpt".into(),
        };
        let buf = encode_frame(&msg).unwrap();
        let (back, len) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, msg);
        assert_eq!(len, buf.len());
        // A second read at the boundary is a clean EOF.
        let mut rest = &buf[buf.len()..];
        assert!(matches!(read_frame(&mut rest), Err(FrameError::Eof)));
    }

    #[test]
    fn torn_frame_is_typed_truncation_not_eof() {
        let buf = encode_frame(&WireMsg::Ping { nonce: 7 }).unwrap();
        for cut in [1, 6, buf.len() - 1] {
            let mut r = &buf[..cut];
            match read_frame(&mut r) {
                Err(FrameError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_payload_is_a_crc_error() {
        let mut buf = encode_frame(&WireMsg::Heartbeat).unwrap();
        let n = buf.len();
        buf[n - 1] ^= 0x10;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Crc { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = encode_frame(&WireMsg::Bye).unwrap();
        buf[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::BadMagic { .. })
        ));
    }
}
