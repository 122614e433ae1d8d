//! Salvage-decode policy and damage reporting.
//!
//! A chunked CFAR archive (v2 or v3) verifies every block against its
//! recorded CRC32 before the entropy decoder sees it — but detection alone turns one flipped bit into
//! a failed request for the 99% of blocks that are healthy. The types here
//! let callers choose the other trade-off:
//!
//! * [`DecodePolicy::Strict`] — historic behaviour: the first corrupt,
//!   truncated, or unreadable block fails the whole call with a typed error
//!   naming the field and block.
//! * [`DecodePolicy::Salvage`] — corrupt blocks are skipped, their region
//!   of the output is filled with a configurable fill value, and each is
//!   reported in a [`DamageMap`] returned alongside the data.
//!
//! Damage is attributed *causally*: when a cross-field target's block fails
//! because one of its **anchor** blocks was corrupt, the map records both
//! the anchor block (the root damage) and the target block with
//! [`BlockDamage::cascaded_from`] naming the anchor — so an operator can
//! tell one bad anchor block from N independently-damaged fields.

use cfc_sz::CfcError;

/// How a decode call treats damaged blocks. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodePolicy {
    /// Fail the whole call on the first damaged block (the default
    /// everywhere a policy is not explicitly passed).
    Strict,
    /// Skip damaged blocks, filling their output region with `fill`, and
    /// report them in a [`DamageMap`].
    Salvage {
        /// Value written to every sample of a damaged block's region.
        fill: f32,
    },
}

impl DecodePolicy {
    /// Salvage with the default fill value of `0.0`.
    pub fn salvage() -> DecodePolicy {
        DecodePolicy::Salvage { fill: 0.0 }
    }

    /// The fill value when salvaging, `None` under [`DecodePolicy::Strict`].
    pub fn fill(&self) -> Option<f32> {
        match self {
            DecodePolicy::Strict => None,
            DecodePolicy::Salvage { fill } => Some(*fill),
        }
    }
}

/// One damaged block: where it was, why it failed, and — when the damage
/// cascaded from a corrupt anchor — which field actually carried the rot.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDamage {
    /// Field whose output contains filled samples.
    pub field: String,
    /// Block index (axis-0 chunk) within `field`.
    pub block: usize,
    /// `Some(anchor)` when this block itself was healthy but could not be
    /// decoded because `anchor`'s matching block (or the field's meta area)
    /// was damaged; `None` when the damage is the block's own.
    pub cascaded_from: Option<String>,
    /// Root cause, stripped of field/block attribution (that lives in the
    /// fields above).
    pub error: CfcError,
}

/// Per-block damage report produced by a [`DecodePolicy::Salvage`] decode.
///
/// Deduplicated on `(field, block)` — a root anchor failure surfaced
/// through several dependents is recorded once per damaged location.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DamageMap {
    damaged: Vec<BlockDamage>,
}

impl DamageMap {
    /// An empty (healthy) map.
    pub fn new() -> DamageMap {
        DamageMap::default()
    }

    /// No damage was recorded.
    pub fn is_empty(&self) -> bool {
        self.damaged.is_empty()
    }

    /// Number of damaged `(field, block)` locations.
    pub fn len(&self) -> usize {
        self.damaged.len()
    }

    /// All damage entries, in the order the decode encountered them.
    pub fn iter(&self) -> impl Iterator<Item = &BlockDamage> {
        self.damaged.iter()
    }

    /// Sorted block indices recorded as damaged for `field`.
    pub fn blocks_of(&self, field: &str) -> Vec<usize> {
        let mut blocks: Vec<usize> = self
            .damaged
            .iter()
            .filter(|d| d.field == field)
            .map(|d| d.block)
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    /// Record one damaged block; duplicate `(field, block)` locations are
    /// ignored (first cause wins — it was recorded closest to the failure).
    pub(crate) fn record(
        &mut self,
        field: &str,
        block: usize,
        cascaded_from: Option<String>,
        error: CfcError,
    ) {
        if self
            .damaged
            .iter()
            .any(|d| d.field == field && d.block == block)
        {
            return;
        }
        self.damaged.push(BlockDamage {
            field: field.to_string(),
            block,
            cascaded_from,
            error,
        });
    }

    /// Compact single-line rendering for logs and HTTP headers:
    /// fields in first-damaged order, sorted block lists —
    /// `"T:0,3;RH:1"`. Empty string when healthy.
    pub fn summary(&self) -> String {
        let mut fields: Vec<&str> = Vec::new();
        for d in &self.damaged {
            if !fields.contains(&d.field.as_str()) {
                fields.push(&d.field);
            }
        }
        let mut out = String::new();
        for f in fields {
            if !out.is_empty() {
                out.push(';');
            }
            out.push_str(f);
            out.push(':');
            for (i, b) in self.blocks_of(f).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
        }
        out
    }
}

impl<'a> IntoIterator for &'a DamageMap {
    type Item = &'a BlockDamage;
    type IntoIter = std::slice::Iter<'a, BlockDamage>;
    fn into_iter(self) -> Self::IntoIter {
        self.damaged.iter()
    }
}

/// Decoded data plus the damage report describing which parts of it are
/// fill rather than signal. Produced by `read` on
/// [`super::ArchiveReader`] and [`super::ArchiveStore`]; `damage` is
/// empty when every block decoded cleanly (always, under
/// [`DecodePolicy::Strict`]).
#[derive(Debug, Clone)]
pub struct Salvaged<T> {
    /// The decoded value, with damaged regions filled.
    pub data: T,
    /// Which blocks were filled, and why.
    pub damage: DamageMap,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err() -> CfcError {
        CfcError::ChecksumMismatch {
            context: "archive block",
            expected: 1,
            found: 2,
        }
    }

    #[test]
    fn record_dedupes_and_blocks_of_sorts() {
        let mut m = DamageMap::new();
        m.record("T", 3, None, err());
        m.record("T", 0, Some("A".into()), err());
        m.record("T", 3, Some("late duplicate".into()), err());
        m.record("A", 1, None, err());
        assert_eq!(m.len(), 3);
        assert_eq!(m.blocks_of("T"), vec![0, 3]);
        assert_eq!(m.blocks_of("A"), vec![1]);
        assert_eq!(m.blocks_of("missing"), Vec::<usize>::new());
        // first cause wins on the duplicate
        let t3 = m.iter().find(|d| d.field == "T" && d.block == 3).unwrap();
        assert_eq!(t3.cascaded_from, None);
    }

    #[test]
    fn summary_groups_fields_in_first_damaged_order() {
        let mut m = DamageMap::new();
        assert_eq!(m.summary(), "");
        m.record("T", 3, None, err());
        m.record("RH", 1, None, err());
        m.record("T", 0, None, err());
        assert_eq!(m.summary(), "T:0,3;RH:1");
    }

    #[test]
    fn policy_fill_accessor() {
        assert_eq!(DecodePolicy::Strict.fill(), None);
        assert_eq!(DecodePolicy::salvage().fill(), Some(0.0));
        assert_eq!(DecodePolicy::Salvage { fill: -1.5 }.fill(), Some(-1.5));
    }
}
