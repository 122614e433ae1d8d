//! Deterministic fault injection for archive robustness tests and benches.
//!
//! [`FaultInjectingReader`] wraps any [`ArchiveSource`] and perturbs what
//! its positional reads return according to a [`FaultPlan`] built up front:
//!
//! * **Bit flips** — XOR a mask into the byte at a chosen offset, or at
//!   seeded-pseudorandom offsets within a range ([`FaultPlan::flip_at`],
//!   [`FaultPlan::flip_random`]). The underlying source is never mutated;
//!   corruption happens in the read path, so the same source can be read
//!   clean through a different reader.
//! * **Truncation** — the source ends at a chosen length
//!   ([`FaultPlan::truncate_at`]), modelling a torn upload.
//! * **Transient errors** — reads overlapping a chosen offset range fail
//!   with a transient [`std::io::ErrorKind`] a bounded number of times,
//!   then succeed ([`FaultPlan::transient_at`]), modelling a flaky disk.
//! * **Permanent errors** — reads overlapping a range always fail
//!   ([`FaultPlan::unreadable_at`]), modelling a bad sector.
//! * **Panics** — a read overlapping a range panics
//!   ([`FaultPlan::panic_at`]), for exercising worker panic isolation.
//!
//! The plan is a cheap cloneable handle ([`FaultPlan::clone`]) over shared
//! state: tests keep one clone, hand the other to the reader, and assert on
//! [`FaultPlan::stats`] afterwards. Everything is deterministic — the same
//! seed and plan produce the same corrupted stream on every run.
//!
//! ### Transient errors are `TimedOut`, not `Interrupted`
//!
//! I/O layers under an [`ArchiveSource`] (`std`'s `read_exact`, the
//! kernel's restartable syscalls) swallow `ErrorKind::Interrupted` and
//! try again, so an injected `Interrupted` would model a fault no caller
//! ever sees. [`FaultPlan::transient_at`] therefore defaults to
//! `ErrorKind::TimedOut` — still classified transient by
//! [`cfc_sz::CfcError::is_transient`] — which reaches the store's retry
//! loop the way a real flaky disk does.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use super::source::ArchiveSource;

/// Counters for faults actually delivered, readable from any [`FaultPlan`]
/// clone while the reader is in use elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Bytes whose value was altered by a bit-flip site on their way out.
    pub flips_applied: u64,
    /// Reads that failed with an injected transient error.
    pub transient_errors: u64,
    /// Reads that failed with an injected permanent error.
    pub permanent_errors: u64,
    /// Reads shortened or turned into EOF by the truncation point.
    pub truncated_reads: u64,
}

#[derive(Debug)]
struct ErrorSite {
    start: u64,
    end: u64,
    kind: std::io::ErrorKind,
    /// Remaining failures before the site burns out; `u32::MAX` = forever.
    remaining: AtomicU32,
    panic: bool,
}

#[derive(Debug, Default)]
struct PlanState {
    /// Sorted by offset; each entry is `(offset, xor_mask)`.
    flips: Vec<(u64, u8)>,
    sites: Vec<ErrorSite>,
    truncate_at: Option<u64>,
    flips_applied: AtomicU64,
    transient_errors: AtomicU64,
    permanent_errors: AtomicU64,
    truncated_reads: AtomicU64,
}

/// A deterministic schedule of faults, shared between the reader that
/// suffers them and the test that asserts on them.
///
/// Build with the chained `*_at` methods, clone once for the reader, keep
/// the original to call [`stats`](FaultPlan::stats). A default plan injects
/// nothing — [`FaultInjectingReader`] then behaves as a transparent wrapper.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    state: Arc<PlanState>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    fn state_mut(&mut self) -> &mut PlanState {
        Arc::get_mut(&mut self.state)
            .expect("FaultPlan must be configured before it is cloned or handed to a reader")
    }

    /// XOR `mask` into the byte at `offset` whenever it is read.
    ///
    /// A zero mask is rejected (it would be a no-op that still looks like a
    /// configured fault).
    pub fn flip_at(mut self, offset: u64, mask: u8) -> FaultPlan {
        assert!(mask != 0, "bit-flip mask must be non-zero");
        let st = self.state_mut();
        st.flips.push((offset, mask));
        st.flips.sort_unstable_by_key(|&(off, _)| off);
        self
    }

    /// Flip one seeded-pseudorandom bit in each of `count` distinct bytes
    /// within `range`. Deterministic for a given `(seed, range, count)`.
    pub fn flip_random(
        mut self,
        seed: u64,
        range: std::ops::Range<u64>,
        count: usize,
    ) -> FaultPlan {
        let span = range.end.saturating_sub(range.start);
        assert!(span > 0, "flip_random range must be non-empty");
        assert!(
            (count as u64) <= span,
            "cannot place {count} distinct flips in a {span}-byte range"
        );
        let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            // xorshift64*: small, dependency-free, good enough to scatter
            // fault offsets.
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let st = self.state_mut();
        let mut placed = 0usize;
        while placed < count {
            let r = next();
            let offset = range.start + r % span;
            if st.flips.iter().any(|&(off, _)| off == offset) {
                continue;
            }
            let mask = 1u8 << (r >> 32 & 7);
            st.flips.push((offset, mask));
            placed += 1;
        }
        st.flips.sort_unstable_by_key(|&(off, _)| off);
        self
    }

    /// End the source at `len` bytes, as if it had been torn off there:
    /// reads reaching past it fail with `UnexpectedEof`.
    pub fn truncate_at(mut self, len: u64) -> FaultPlan {
        self.state_mut().truncate_at = Some(len);
        self
    }

    /// Fail reads overlapping `range` with `ErrorKind::TimedOut` the first
    /// `times` times, then let them through.
    ///
    /// `TimedOut` rather than `Interrupted`: the point of a transient
    /// fault is to reach the *caller's* retry logic (see module docs).
    pub fn transient_at(self, range: std::ops::Range<u64>, times: u32) -> FaultPlan {
        self.transient_at_kind(range, times, std::io::ErrorKind::TimedOut)
    }

    /// [`transient_at`](FaultPlan::transient_at) with an explicit error kind.
    pub fn transient_at_kind(
        mut self,
        range: std::ops::Range<u64>,
        times: u32,
        kind: std::io::ErrorKind,
    ) -> FaultPlan {
        assert!(times < u32::MAX, "use unreadable_at for permanent faults");
        self.state_mut().sites.push(ErrorSite {
            start: range.start,
            end: range.end,
            kind,
            remaining: AtomicU32::new(times),
            panic: false,
        });
        self
    }

    /// Always fail reads overlapping `range`, as if the bytes sat on a bad
    /// sector.
    pub fn unreadable_at(mut self, range: std::ops::Range<u64>) -> FaultPlan {
        self.state_mut().sites.push(ErrorSite {
            start: range.start,
            end: range.end,
            kind: std::io::ErrorKind::InvalidData,
            remaining: AtomicU32::new(u32::MAX),
            panic: false,
        });
        self
    }

    /// Panic on any read overlapping `range`. For testing panic isolation
    /// (e.g. serve workers wrapped in `catch_unwind`), not error paths.
    pub fn panic_at(mut self, range: std::ops::Range<u64>) -> FaultPlan {
        self.state_mut().sites.push(ErrorSite {
            start: range.start,
            end: range.end,
            kind: std::io::ErrorKind::Other,
            remaining: AtomicU32::new(u32::MAX),
            panic: true,
        });
        self
    }

    /// Offsets of every configured bit flip, sorted ascending. Lets a test
    /// map planned corruption back to block indices without re-deriving the
    /// RNG sequence.
    pub fn flip_offsets(&self) -> Vec<u64> {
        self.state.flips.iter().map(|&(off, _)| off).collect()
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> FaultStats {
        let st = &self.state;
        FaultStats {
            flips_applied: st.flips_applied.load(Ordering::Relaxed),
            transient_errors: st.transient_errors.load(Ordering::Relaxed),
            permanent_errors: st.permanent_errors.load(Ordering::Relaxed),
            truncated_reads: st.truncated_reads.load(Ordering::Relaxed),
        }
    }
}

/// An [`ArchiveSource`] that injects the faults described by a
/// [`FaultPlan`] into an otherwise healthy source. See the module docs for
/// the fault vocabulary. Positional like the source it wraps: faults are
/// keyed by absolute offset, so concurrent readers suffer them
/// independently — no cursor, no lock.
#[derive(Debug)]
pub struct FaultInjectingReader<S> {
    inner: S,
    plan: FaultPlan,
}

impl<S: ArchiveSource> FaultInjectingReader<S> {
    /// Wrap `inner`, injecting the faults in `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultInjectingReader<S> {
        FaultInjectingReader { inner, plan }
    }

    /// The wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ArchiveSource> ArchiveSource for FaultInjectingReader<S> {
    /// The *effective* (possibly truncated) length, so size probes see
    /// the torn file, not the original.
    fn len(&self) -> std::io::Result<u64> {
        let real = self.inner.len()?;
        Ok(match self.plan.state.truncate_at {
            Some(limit) => real.min(limit),
            None => real,
        })
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let st = &self.plan.state;
        let span = offset..offset.saturating_add(buf.len() as u64);
        if st.truncate_at.is_some_and(|limit| span.end > limit) {
            st.truncated_reads.fetch_add(1, Ordering::Relaxed);
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "failed to fill whole buffer",
            ));
        }
        for site in &st.sites {
            if site.start >= span.end || site.end <= span.start {
                continue;
            }
            if site.panic {
                panic!(
                    "injected fault: panic on read of bytes {}..{}",
                    span.start, span.end
                );
            }
            let mut remaining = site.remaining.load(Ordering::Relaxed);
            loop {
                if remaining == 0 {
                    break;
                }
                let next = if remaining == u32::MAX {
                    u32::MAX
                } else {
                    remaining - 1
                };
                match site.remaining.compare_exchange_weak(
                    remaining,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        if remaining == u32::MAX {
                            st.permanent_errors.fetch_add(1, Ordering::Relaxed);
                        } else {
                            st.transient_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        return Err(std::io::Error::new(
                            site.kind,
                            format!(
                                "injected fault: bytes {}..{} unreadable",
                                site.start, site.end
                            ),
                        ));
                    }
                    Err(seen) => remaining = seen,
                }
            }
        }
        self.inner.read_exact_at(offset, buf)?;
        // flips is sorted; find the slice of flips inside the bytes served.
        let lo = st.flips.partition_point(|&(off, _)| off < span.start);
        for &(off, mask) in &st.flips[lo..] {
            if off >= span.end {
                break;
            }
            buf[(off - span.start) as usize] ^= mask;
            st.flips_applied.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(n: usize) -> Vec<u8> {
        (0..n).map(|i| i as u8).collect()
    }

    /// Everything the source admits to holding, in one positional read.
    fn read_all<S: ArchiveSource>(r: &S) -> Vec<u8> {
        let mut out = vec![0u8; r.len().expect("len") as usize];
        r.read_exact_at(0, &mut out).expect("read whole source");
        out
    }

    #[test]
    fn transparent_without_faults() {
        let r = FaultInjectingReader::new(source(64), FaultPlan::new());
        assert_eq!(read_all(&r), source(64));
    }

    #[test]
    fn flips_exactly_the_planned_bytes() {
        let plan = FaultPlan::new().flip_at(3, 0xff).flip_at(60, 0x01);
        let r = FaultInjectingReader::new(source(64), plan.clone());
        let got = read_all(&r);
        let mut want = source(64);
        want[3] ^= 0xff;
        want[60] ^= 0x01;
        assert_eq!(got, want);
        assert_eq!(plan.stats().flips_applied, 2);
        assert_eq!(plan.flip_offsets(), vec![3, 60]);
    }

    #[test]
    fn flips_apply_on_every_read_of_the_byte() {
        let plan = FaultPlan::new().flip_at(10, 0x80);
        let r = FaultInjectingReader::new(source(64), plan.clone());
        // Read the flipped byte twice; the flip applies both times.
        for _ in 0..2 {
            let mut b = [0u8; 1];
            r.read_exact_at(10, &mut b).expect("read");
            assert_eq!(b[0], 10 ^ 0x80);
        }
        assert_eq!(plan.stats().flips_applied, 2);
    }

    #[test]
    fn flip_random_is_deterministic_and_in_range() {
        let a = FaultPlan::new().flip_random(42, 100..200, 8);
        let b = FaultPlan::new().flip_random(42, 100..200, 8);
        assert_eq!(a.flip_offsets(), b.flip_offsets());
        assert_eq!(a.flip_offsets().len(), 8);
        assert!(a
            .flip_offsets()
            .iter()
            .all(|&off| (100..200).contains(&off)));
        let c = FaultPlan::new().flip_random(43, 100..200, 8);
        assert_ne!(a.flip_offsets(), c.flip_offsets(), "seed must matter");
    }

    #[test]
    fn truncation_reports_eof_and_bounds_the_length() {
        let plan = FaultPlan::new().truncate_at(16);
        let r = FaultInjectingReader::new(source(64), plan.clone());
        assert_eq!(r.len().expect("len"), 16);
        assert_eq!(read_all(&r), &source(64)[..16]);
        let mut buf = [0u8; 4];
        let err = r.read_exact_at(14, &mut buf).expect_err("torn off at 16");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert!(plan.stats().truncated_reads > 0);
    }

    #[test]
    fn transient_fault_fails_then_recovers() {
        let plan = FaultPlan::new().transient_at(8..12, 2);
        let r = FaultInjectingReader::new(source(64), plan.clone());
        let mut buf = [0u8; 16];
        for _ in 0..2 {
            let err = r.read_exact_at(0, &mut buf).expect_err("injected timeout");
            assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        }
        r.read_exact_at(0, &mut buf).expect("site burned out");
        assert_eq!(buf[8], 8);
        assert_eq!(plan.stats().transient_errors, 2);
    }

    #[test]
    fn unreadable_site_fails_forever() {
        let plan = FaultPlan::new().unreadable_at(30..34);
        let r = FaultInjectingReader::new(source(64), plan.clone());
        let mut buf = [0u8; 8];
        for _ in 0..3 {
            r.read_exact_at(28, &mut buf).expect_err("bad sector");
        }
        // Reads that do not overlap the site still succeed.
        r.read_exact_at(0, &mut buf).expect("clean range");
        assert_eq!(plan.stats().permanent_errors, 3);
    }

    #[test]
    fn panic_site_panics_on_overlap() {
        let plan = FaultPlan::new().panic_at(5..6);
        let r = FaultInjectingReader::new(source(64), plan);
        let mut buf = [0u8; 4];
        r.read_exact_at(0, &mut buf).expect("before the site");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = r.read_exact_at(4, &mut buf);
        }));
        assert!(panicked.is_err(), "read over the site must panic");
    }
}
