//! `oblivion-wire`: shared wire-format primitives.
//!
//! Two independent subsystems of the workspace speak length-checked,
//! checksummed byte protocols: the TCP serving layer (`oblivion-serve`)
//! and the crash-consistent checkpoint store (`oblivion-ckpt`). This
//! crate is the one place their framing and integrity machinery lives,
//! so a poisoning bug or a checksum change cannot drift between them:
//!
//! * [`frame`] — incremental LF framing for pipelined byte streams
//!   ([`FrameBuf`]), with bounded memory under hostile input (over-long
//!   unterminated lines poison the buffer and resynchronize at the next
//!   LF).
//! * [`mod@crc32`] — standard CRC-32 (IEEE) with a const-built table.
//! * [`bytes`] — the validating little-endian codec ([`ByteWriter`] /
//!   [`ByteReader`]): corrupt payloads decode to typed errors, never
//!   panics.
//!
//! Dependency-free like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod crc32;
pub mod frame;

pub use bytes::{ByteReader, ByteWriter, CkptError};
pub use crc32::crc32;
pub use frame::{FrameBuf, Framed};
