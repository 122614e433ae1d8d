//! Positional byte sources for archive reads.
//!
//! The archive read path is random-access: every block decode reads one
//! `(offset, length)` span, and a serving store issues those reads from
//! many threads at once. [`ArchiveSource`] captures exactly that shape —
//! a *positional* read (`pread`-style) through `&self` — so concurrent
//! block reads never serialize on a shared seek position:
//!
//! * [`std::fs::File`] implements it via the OS positional-read call
//!   (`pread` on unix, `seek_read` on windows): no lock, no shared file
//!   cursor, every thread reads independently.
//! * `Cursor<Vec<u8>>`, `Vec<u8>` and `&[u8]` implement it by slicing the
//!   buffer: lock-free.
//! * [`super::fault::FaultInjectingReader`] wraps any of them and applies
//!   its fault plan by absolute offset — still no cursor, still no lock.
//!
//! With positional reads the kernel (or the slice) is the only arbiter,
//! which is what lets cache-miss storms, `decode_all` workers, and
//! speculative prefetch overlap their I/O instead of queueing on a lock.

/// A thread-safe positional byte source: the archive subsystem's view of
/// "somewhere bytes live". All methods take `&self`; implementations must
/// support concurrent calls (the store reads from many threads).
pub trait ArchiveSource: Send + Sync {
    /// Total length of the source in bytes.
    fn len(&self) -> std::io::Result<u64>;

    /// Fill `buf` from the bytes starting at absolute `offset`, failing
    /// with `UnexpectedEof` when the source ends first. Must not assume
    /// anything about a "current position" — there is none.
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()>;

    /// Whether the source is empty (`len() == 0`).
    fn is_empty(&self) -> std::io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(unix)]
impl ArchiveSource for std::fs::File {
    fn len(&self) -> std::io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(self, buf, offset)
    }
}

#[cfg(windows)]
impl ArchiveSource for std::fs::File {
    fn len(&self) -> std::io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn read_exact_at(&self, mut offset: u64, mut buf: &mut [u8]) -> std::io::Result<()> {
        while !buf.is_empty() {
            match std::os::windows::fs::FileExt::seek_read(self, buf, offset) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "failed to fill whole buffer",
                    ))
                }
                Ok(n) => {
                    buf = &mut buf[n..];
                    offset += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl ArchiveSource for std::io::Cursor<Vec<u8>> {
    fn len(&self) -> std::io::Result<u64> {
        Ok(self.get_ref().len() as u64)
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        read_exact_at_slice(self.get_ref(), offset, buf)
    }
}

impl ArchiveSource for Vec<u8> {
    fn len(&self) -> std::io::Result<u64> {
        Ok(Vec::len(self) as u64)
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        read_exact_at_slice(self, offset, buf)
    }
}

impl ArchiveSource for &[u8] {
    fn len(&self) -> std::io::Result<u64> {
        Ok(<[u8]>::len(self) as u64)
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        read_exact_at_slice(self, offset, buf)
    }
}

/// Positional read out of an in-memory slice (shared by the in-memory
/// impls).
fn read_exact_at_slice(bytes: &[u8], offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    let start = usize::try_from(offset).unwrap_or(usize::MAX);
    let end = start.checked_add(buf.len());
    match end {
        Some(end) if end <= bytes.len() => {
            buf.copy_from_slice(&bytes[start..end]);
            Ok(())
        }
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "failed to fill whole buffer",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| i as u8).collect()
    }

    #[test]
    fn slice_sources_read_positionally() {
        let src = std::io::Cursor::new(bytes(64));
        assert_eq!(src.len().unwrap(), 64);
        let mut buf = [0u8; 4];
        src.read_exact_at(10, &mut buf).unwrap();
        assert_eq!(buf, [10, 11, 12, 13]);
        // reads never disturb each other: same source, different offsets
        src.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0, 1, 2, 3]);
        assert!(src.read_exact_at(62, &mut buf).is_err(), "past the end");
        assert!(src.read_exact_at(u64::MAX, &mut buf).is_err());
    }

    #[test]
    fn concurrent_reads_see_consistent_bytes() {
        let src = std::sync::Arc::new(std::io::Cursor::new(bytes(256)));
        std::thread::scope(|s| {
            for t in 0..4 {
                let src = std::sync::Arc::clone(&src);
                s.spawn(move || {
                    for i in 0..64 {
                        let off = ((t * 64 + i) % 250) as u64;
                        let mut buf = [0u8; 4];
                        src.read_exact_at(off, &mut buf).unwrap();
                        for (k, b) in buf.iter().enumerate() {
                            assert_eq!(*b, (off as usize + k) as u8);
                        }
                    }
                });
            }
        });
    }
}
