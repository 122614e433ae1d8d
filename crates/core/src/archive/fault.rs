//! Deterministic fault injection for archive robustness tests and benches.
//!
//! [`FaultInjectingReader`] wraps any [`ArchiveSource`] and makes its
//! positional reads fail according to a [`FaultPlan`] built up front:
//!
//! * **Transient errors** — reads overlapping a chosen offset range fail
//!   with `ErrorKind::TimedOut` a bounded number of times, then succeed
//!   ([`FaultPlan::transient_at`]), modelling a flaky disk.
//! * **Permanent errors** — reads overlapping a range always fail
//!   ([`FaultPlan::unreadable_at`]), modelling a bad sector.
//! * **Panics** — a read overlapping a range panics
//!   ([`FaultPlan::panic_at`]), for exercising worker panic isolation.
//!
//! Corrupt *bytes* are not a read fault: damage tests mutate the archive
//! bytes directly, so the same damage reaches every read path.
//!
//! The plan is a cheap cloneable handle ([`FaultPlan::clone`]) over shared
//! state: tests keep one clone, hand the other to the reader, and assert on
//! [`FaultPlan::stats`] afterwards.
//!
//! ### Transient errors are `TimedOut`, not `Interrupted`
//!
//! I/O layers under an [`ArchiveSource`] (`std`'s `read_exact`, the
//! kernel's restartable syscalls) swallow `ErrorKind::Interrupted` and
//! try again, so an injected `Interrupted` would model a fault no caller
//! ever sees. `TimedOut` is still classified transient by
//! [`cfc_sz::CfcError::is_transient`], and reaches the store's retry loop
//! the way a real flaky disk does.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use super::source::ArchiveSource;

/// Counters for faults actually delivered, readable from any [`FaultPlan`]
/// clone while the reader is in use elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Reads that failed with an injected transient error.
    pub transient_errors: u64,
    /// Reads that failed with an injected permanent error.
    pub permanent_errors: u64,
}

#[derive(Debug)]
struct ErrorSite {
    start: u64,
    end: u64,
    /// Remaining failures before the site burns out; `u32::MAX` = forever.
    remaining: AtomicU32,
    panic: bool,
}

#[derive(Debug, Default)]
struct PlanState {
    sites: Vec<ErrorSite>,
    transient_errors: AtomicU64,
    permanent_errors: AtomicU64,
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

    /// Add a site failing (or panicking on) reads that overlap `range`,
    /// `times` times (`u32::MAX`: forever).
    fn site(mut self, range: std::ops::Range<u64>, times: u32, panic: bool) -> FaultPlan {
        Arc::get_mut(&mut self.state)
            .expect("FaultPlan must be configured before it is cloned or handed to a reader")
            .sites
            .push(ErrorSite {
                start: range.start,
                end: range.end,
                remaining: AtomicU32::new(times),
                panic,
            });
        self
    }

    /// Fail reads overlapping `range` with `ErrorKind::TimedOut` the first
    /// `times` times, then let them through.
    ///
    /// `TimedOut` rather than `Interrupted`: the point of a transient
    /// fault is to reach the *caller's* retry logic (see module docs).
    pub fn transient_at(self, range: std::ops::Range<u64>, times: u32) -> FaultPlan {
        assert!(times < u32::MAX, "use unreadable_at for permanent faults");
        self.site(range, times, false)
    }

    /// Always fail reads overlapping `range` (`ErrorKind::InvalidData`),
    /// as if the bytes sat on a bad sector.
    pub fn unreadable_at(self, range: std::ops::Range<u64>) -> FaultPlan {
        self.site(range, u32::MAX, false)
    }

    /// Panic on any read overlapping `range`. For testing panic isolation
    /// (e.g. serve workers wrapped in `catch_unwind`), not error paths.
    pub fn panic_at(self, range: std::ops::Range<u64>) -> FaultPlan {
        self.site(range, u32::MAX, true)
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> FaultStats {
        let st = &self.state;
        FaultStats {
            transient_errors: st.transient_errors.load(Ordering::Relaxed),
            permanent_errors: st.permanent_errors.load(Ordering::Relaxed),
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
}

impl<S: ArchiveSource> ArchiveSource for FaultInjectingReader<S> {
    fn len(&self) -> std::io::Result<u64> {
        self.inner.len()
    }

    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let st = &self.plan.state;
        let span = offset..offset.saturating_add(buf.len() as u64);
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
            while remaining > 0 {
                let permanent = remaining == u32::MAX;
                let next = if permanent { remaining } else { remaining - 1 };
                match site.remaining.compare_exchange_weak(
                    remaining,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let (kind, counter) = if permanent {
                            (std::io::ErrorKind::InvalidData, &st.permanent_errors)
                        } else {
                            (std::io::ErrorKind::TimedOut, &st.transient_errors)
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                        return Err(std::io::Error::new(
                            kind,
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
        self.inner.read_exact_at(offset, buf)
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
            let err = r.read_exact_at(28, &mut buf).expect_err("bad sector");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
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
