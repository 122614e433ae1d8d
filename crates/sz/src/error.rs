//! The workspace-wide error type for fallible compression APIs.
//!
//! Every decode-path failure — bad magic, unsupported version, truncation,
//! missing or corrupt sections, shape mismatches — surfaces as a
//! [`CfcError`] instead of a panic, so attacker-controlled bytes can never
//! take a service down. Encode-side misconfiguration (non-finite samples,
//! non-positive bounds) uses the same type.

use std::fmt;

/// Error enum shared by [`crate::SzCompressor`], the cross-field
/// compressor and the archive subsystem in `cfc-core`.
#[derive(Debug, Clone, PartialEq)]
pub enum CfcError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic {
        /// Magic the decoder expected.
        expected: [u8; 4],
        /// Leading bytes actually found (up to 4).
        found: Vec<u8>,
    },
    /// The container version is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the stream.
        found: u16,
        /// Newest version this build decodes.
        supported: u16,
    },
    /// A structurally invalid header field (ndim, zero extent, oversize…).
    InvalidHeader(String),
    /// The buffer ended before a read completed.
    Truncated {
        /// What was being read.
        context: &'static str,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// A required container section is absent.
    MissingSection {
        /// Raw section tag.
        tag: u8,
        /// Human-readable section name.
        name: &'static str,
    },
    /// A section or payload failed internal validation.
    Corrupt {
        /// Which decode stage detected the corruption.
        context: &'static str,
        /// What exactly was wrong.
        detail: String,
    },
    /// Decoded metadata disagrees with caller-supplied or embedded shapes.
    ShapeMismatch {
        /// Shape the decoder expected.
        expected: String,
        /// Shape actually found.
        found: String,
    },
    /// Encode-side input validation failure (bad bound, non-finite data…).
    InvalidInput(String),
    /// A payload's checksum disagrees with the one recorded in its index —
    /// bit rot or in-flight corruption detected before decoding.
    ChecksumMismatch {
        /// What was being verified (e.g. "archive block").
        context: &'static str,
        /// Checksum recorded at write time.
        expected: u32,
        /// Checksum of the bytes actually read.
        found: u32,
    },
    /// An underlying `std::io` operation failed (streaming archive I/O).
    Io {
        /// What was being read or written.
        context: &'static str,
        /// The failure's [`std::io::ErrorKind`] — the signal
        /// [`CfcError::is_transient`] classifies retryability from.
        kind: std::io::ErrorKind,
        /// The I/O error's message (`std::io::Error` is not `Clone`).
        detail: String,
    },
    /// Any of the above, wrapped with the archive field (and, when block
    /// random access is involved, block index) it occurred in. Produced by
    /// [`CfcError::in_field`] on the archive decode paths so multi-field
    /// failures always name their origin; the underlying failure is
    /// reachable through [`std::error::Error::source`].
    InField {
        /// Name of the archive field being decoded.
        field: String,
        /// Block index within the field, when the failure is block-scoped.
        block: Option<usize>,
        /// The underlying failure.
        source: Box<CfcError>,
    },
}

impl CfcError {
    /// Wrap a [`std::io::Error`] with the operation it interrupted,
    /// preserving its [`std::io::ErrorKind`] for transience classification.
    pub fn io(context: &'static str, e: &std::io::Error) -> CfcError {
        CfcError::Io {
            context,
            kind: e.kind(),
            detail: e.to_string(),
        }
    }

    /// Whether an [`std::io::ErrorKind`] names a *transient* condition —
    /// one where retrying the same operation can plausibly succeed
    /// (interrupted syscalls, timeouts, contention), as opposed to
    /// permanent failures like missing files, bad data, or EOF.
    ///
    /// This is the single source of truth for every retry loop in the
    /// workspace; see [`CfcError::is_transient`] for the error-level view.
    pub fn io_kind_is_transient(kind: std::io::ErrorKind) -> bool {
        use std::io::ErrorKind::*;
        matches!(kind, Interrupted | TimedOut | WouldBlock)
    }

    /// Whether this error is worth retrying: its [`CfcError::root_cause`]
    /// is an [`CfcError::Io`] of a transient [`std::io::ErrorKind`]
    /// (interrupted syscall, timeout, would-block). Checksum mismatches,
    /// truncation, and structural corruption are deterministic — retrying
    /// them re-reads the same bad bytes — so they are never transient.
    pub fn is_transient(&self) -> bool {
        match self.root_cause() {
            CfcError::Io { kind, .. } => Self::io_kind_is_transient(*kind),
            _ => false,
        }
    }

    /// Wrap this error with the archive field (and optional block index)
    /// it occurred in. An error that already carries field context is
    /// returned unchanged — the innermost attribution, recorded closest to
    /// the failure site, is the accurate one.
    pub fn in_field(self, field: &str, block: Option<usize>) -> CfcError {
        match self {
            CfcError::InField { .. } => self,
            other => CfcError::InField {
                field: field.to_string(),
                block,
                source: Box::new(other),
            },
        }
    }

    /// The error with any field/block attribution stripped — the
    /// underlying failure a caller should match on.
    pub fn root_cause(&self) -> &CfcError {
        match self {
            CfcError::InField { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for CfcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfcError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                std::str::from_utf8(expected).unwrap_or("????"),
                found
            ),
            CfcError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported stream version {found} (this build decodes ≤ {supported})"
            ),
            CfcError::InvalidHeader(msg) => write!(f, "invalid header: {msg}"),
            CfcError::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated input while reading {context}: needed {needed} bytes, had {available}"
            ),
            CfcError::MissingSection { tag, name } => {
                write!(f, "stream missing required section {name} (tag {tag})")
            }
            CfcError::Corrupt { context, detail } => write!(f, "corrupt {context}: {detail}"),
            CfcError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            CfcError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            CfcError::ChecksumMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch in {context}: recorded {expected:#010x}, computed {found:#010x}"
            ),
            CfcError::Io {
                context, detail, ..
            } => write!(f, "I/O error while {context}: {detail}"),
            CfcError::InField {
                field,
                block,
                source,
            } => match block {
                Some(b) => write!(f, "field {field:?} block {b}: {source}"),
                None => write!(f, "field {field:?}: {source}"),
            },
        }
    }
}

impl std::error::Error for CfcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CfcError::InField { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Checked little-endian reader over untrusted bytes.
///
/// Every accessor returns [`CfcError::Truncated`] instead of panicking when
/// the buffer runs out — the primitive all decode paths are built on.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Absolute cursor position.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Borrow the next `n` bytes and advance.
    pub fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CfcError> {
        if n > self.remaining() {
            return Err(CfcError::Truncated {
                context,
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, CfcError> {
        Ok(self.bytes(1, context)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, CfcError> {
        Ok(u16::from_le_bytes(
            self.bytes(2, context)?.try_into().unwrap(),
        ))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, CfcError> {
        Ok(u32::from_le_bytes(
            self.bytes(4, context)?.try_into().unwrap(),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, CfcError> {
        Ok(u64::from_le_bytes(
            self.bytes(8, context)?.try_into().unwrap(),
        ))
    }

    /// Read a little-endian `u64` and validate it fits `usize` and the
    /// remaining buffer (for length prefixes of in-buffer payloads).
    pub fn len_u64(&mut self, context: &'static str) -> Result<usize, CfcError> {
        let v = self.u64(context)?;
        let n = usize::try_from(v).map_err(|_| {
            CfcError::InvalidHeader(format!("{context}: length {v} does not fit in memory"))
        })?;
        if n > self.remaining() {
            return Err(CfcError::Truncated {
                context,
                needed: n,
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Read a little-endian `f32`.
    pub fn f32(&mut self, context: &'static str) -> Result<f32, CfcError> {
        Ok(f32::from_bits(self.u32(context)?))
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self, context: &'static str) -> Result<f64, CfcError> {
        Ok(f64::from_bits(self.u64(context)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reads_and_truncates() {
        let mut data = Vec::new();
        data.extend_from_slice(&7u16.to_le_bytes());
        data.extend_from_slice(&9u64.to_le_bytes());
        data.extend_from_slice(b"xy");
        let mut r = Reader::new(&data);
        assert_eq!(r.u16("a").unwrap(), 7);
        assert_eq!(r.u64("b").unwrap(), 9);
        assert_eq!(r.bytes(2, "c").unwrap(), b"xy");
        assert_eq!(r.remaining(), 0);
        assert!(matches!(
            r.u8("d"),
            Err(CfcError::Truncated { context: "d", .. })
        ));
    }

    #[test]
    fn len_u64_rejects_oversize() {
        let mut data = Vec::new();
        data.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut r = Reader::new(&data);
        assert!(r.len_u64("len").is_err());
    }

    /// One instance of every variant, paired with its exact rendered
    /// message. Exhaustive: adding a variant without extending this table
    /// fails the message-stability test below.
    fn variant_messages() -> Vec<(CfcError, &'static str)> {
        vec![
            (
                CfcError::BadMagic {
                    expected: *b"CFSZ",
                    found: vec![1, 2],
                },
                "bad magic: expected \"CFSZ\", found [1, 2]",
            ),
            (
                CfcError::UnsupportedVersion {
                    found: 9,
                    supported: 2,
                },
                "unsupported stream version 9 (this build decodes ≤ 2)",
            ),
            (
                CfcError::InvalidHeader("ndim 7".into()),
                "invalid header: ndim 7",
            ),
            (
                CfcError::Truncated {
                    context: "header",
                    needed: 8,
                    available: 2,
                },
                "truncated input while reading header: needed 8 bytes, had 2",
            ),
            (
                CfcError::MissingSection {
                    tag: 3,
                    name: "codes",
                },
                "stream missing required section codes (tag 3)",
            ),
            (
                CfcError::Corrupt {
                    context: "archive",
                    detail: "zero fields".into(),
                },
                "corrupt archive: zero fields",
            ),
            (
                CfcError::ShapeMismatch {
                    expected: "4x4".into(),
                    found: "4x5".into(),
                },
                "shape mismatch: expected 4x4, found 4x5",
            ),
            (
                CfcError::InvalidInput("bad bound".into()),
                "invalid input: bad bound",
            ),
            (
                CfcError::ChecksumMismatch {
                    context: "archive block",
                    expected: 1,
                    found: 2,
                },
                "checksum mismatch in archive block: recorded 0x00000001, computed 0x00000002",
            ),
            (
                CfcError::Io {
                    context: "writing archive",
                    kind: std::io::ErrorKind::Other,
                    detail: "disk full".into(),
                },
                "I/O error while writing archive: disk full",
            ),
            (
                CfcError::InvalidInput("short".into()).in_field("T", Some(3)),
                "field \"T\" block 3: invalid input: short",
            ),
            (
                CfcError::InvalidInput("short".into()).in_field("T", None),
                "field \"T\": invalid input: short",
            ),
        ]
    }

    #[test]
    fn every_variant_message_is_nonempty_and_stable() {
        for (e, want) in variant_messages() {
            let got = e.to_string();
            assert!(!got.is_empty(), "{e:?} renders an empty message");
            assert_eq!(got, want, "message drifted for {e:?}");
        }
    }

    #[test]
    fn in_field_attaches_context_once_and_chains_source() {
        use std::error::Error;
        let inner = CfcError::ChecksumMismatch {
            context: "archive block",
            expected: 1,
            found: 2,
        };
        let wrapped = inner.clone().in_field("RH", Some(4));
        assert_eq!(wrapped.root_cause(), &inner);
        assert_eq!(
            wrapped.source().unwrap().to_string(),
            inner.to_string(),
            "source() must expose the underlying failure"
        );
        // re-wrapping keeps the innermost (accurate) attribution
        let rewrapped = wrapped.clone().in_field("outer", None);
        assert_eq!(rewrapped, wrapped);
        // non-wrapped variants have no source and are their own root cause
        assert!(inner.source().is_none());
        assert_eq!(inner.root_cause(), &inner);
    }

    #[test]
    fn io_transience_classification() {
        use std::io::ErrorKind;
        // transient: retrying the same operation can plausibly succeed
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
        ] {
            assert!(CfcError::io_kind_is_transient(kind), "{kind:?}");
            let e = CfcError::io("reading block", &std::io::Error::new(kind, "flaky"));
            assert!(e.is_transient(), "{kind:?} should be transient");
            // attribution does not change the classification
            assert!(e.in_field("T", Some(2)).is_transient());
        }
        // permanent: the same bytes (or the same absence) come back
        for kind in [
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::UnexpectedEof,
            ErrorKind::InvalidData,
            ErrorKind::BrokenPipe,
            ErrorKind::Other,
        ] {
            assert!(!CfcError::io_kind_is_transient(kind), "{kind:?}");
            let e = CfcError::io("reading block", &std::io::Error::new(kind, "dead"));
            assert!(!e.is_transient(), "{kind:?} should be permanent");
        }
        // non-I/O failures are deterministic, never transient
        for e in [
            CfcError::ChecksumMismatch {
                context: "archive block",
                expected: 1,
                found: 2,
            },
            CfcError::Truncated {
                context: "header",
                needed: 8,
                available: 2,
            },
            CfcError::InvalidInput("bad".into()),
        ] {
            assert!(!e.is_transient(), "{e:?}");
            assert!(!e.in_field("T", None).is_transient());
        }
    }

    #[test]
    fn io_constructor_preserves_kind() {
        let e = CfcError::io(
            "sizing archive",
            &std::io::Error::new(std::io::ErrorKind::TimedOut, "slow disk"),
        );
        assert!(matches!(
            e,
            CfcError::Io {
                context: "sizing archive",
                kind: std::io::ErrorKind::TimedOut,
                ..
            }
        ));
        assert_eq!(
            e.to_string(),
            "I/O error while sizing archive: slow disk",
            "kind must not leak into the stable message"
        );
    }

    #[test]
    fn errors_display() {
        let e = CfcError::Truncated {
            context: "header",
            needed: 8,
            available: 2,
        };
        assert!(e.to_string().contains("header"));
        let e = CfcError::BadMagic {
            expected: *b"CFSZ",
            found: vec![1, 2],
        };
        assert!(e.to_string().contains("CFSZ"));
    }
}
