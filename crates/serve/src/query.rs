//! Typed parsing of region-endpoint and block-endpoint URL query strings.
//!
//! The region endpoint addresses an axis-aligned box as two comma-joined
//! integer lists, optionally followed by a decode-policy suffix and a
//! temporal-archive epoch selector:
//!
//! ```text
//! /field/RH/region?start=0,0,0&shape=4,64,64
//! /field/RH/region?start=0,0&shape=4,64&mode=salvage&fill=-1&epoch=3
//! ```
//!
//! [`region_request_from_query`] turns that into a validated
//! [`cfc_tensor::Region`], [`DecodePolicy`] and epoch, or a
//! [`RegionQueryError`] that names exactly what was wrong — missing,
//! duplicated or unknown parameters, unparseable or overflowing integers,
//! rank mismatches, empty extents, a bad mode or fill. The parser never
//! panics on any input (in particular it front-runs the panicking
//! `Region::from_ranges` constructor on empty axes and start+shape
//! overflow).
//!
//! `mode` is `strict` (the default) or `salvage`; `fill` (salvage only)
//! is the finite `f32` written over damaged blocks, default `0`; `epoch`
//! selects a snapshot of a v3 temporal archive, default `0`. The block
//! endpoint accepts `epoch` alone, via [`epoch_from_query`]; both grammars
//! walk the query through one `key=value` loop.
//!
//! Bounds are *not* checked here: the caller validates the region against
//! the field it addresses (`Region::validate`), which is where
//! out-of-range requests become `422` responses, and whether the epoch
//! exists (out-of-range epochs are `404`s, like unknown fields).

use cfc_core::archive::DecodePolicy;
use cfc_tensor::{Region, MAX_DIMS};

/// Why a query string does not describe a region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionQueryError {
    /// A required parameter (`start` or `shape`) is absent.
    MissingParam(&'static str),
    /// A required parameter appears more than once.
    DuplicateParam(&'static str),
    /// A parameter other than `start`/`shape` was supplied.
    UnknownParam(String),
    /// A list element failed to parse as a non-negative integer (also
    /// covers values too large for `usize`).
    BadInteger {
        /// Which parameter held the bad element.
        param: &'static str,
        /// The element as received.
        value: String,
    },
    /// `start` and `shape` list different numbers of axes.
    RankMismatch {
        /// Axes in `start`.
        start: usize,
        /// Axes in `shape`.
        shape: usize,
    },
    /// The axis count is outside the supported `1..=MAX_DIMS`.
    BadRank(usize),
    /// A `shape` extent of zero (regions are never empty).
    EmptyAxis(usize),
    /// `start + shape` overflows the index space on an axis.
    Overflow(usize),
    /// `mode` is neither `strict` nor `salvage`.
    BadMode(String),
    /// `fill` is not a finite float.
    BadFill(String),
    /// `fill` was supplied without `mode=salvage` (strict decodes never
    /// fill anything, so the parameter would be silently meaningless).
    FillWithoutSalvage,
    /// `epoch` failed to parse as a non-negative integer.
    BadEpoch(String),
}

impl std::fmt::Display for RegionQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionQueryError::MissingParam(p) => write!(f, "missing query parameter `{p}`"),
            RegionQueryError::DuplicateParam(p) => write!(f, "duplicate query parameter `{p}`"),
            RegionQueryError::UnknownParam(p) => write!(f, "unknown query parameter `{p}`"),
            RegionQueryError::BadInteger { param, value } => {
                write!(
                    f,
                    "`{param}` element {value:?} is not a valid non-negative integer"
                )
            }
            RegionQueryError::RankMismatch { start, shape } => {
                write!(f, "`start` lists {start} axes but `shape` lists {shape}")
            }
            RegionQueryError::BadRank(n) => {
                write!(f, "{n} axes outside the supported 1..={MAX_DIMS}")
            }
            RegionQueryError::EmptyAxis(k) => write!(f, "axis {k} has zero extent"),
            RegionQueryError::Overflow(k) => {
                write!(f, "start + shape overflows the index space on axis {k}")
            }
            RegionQueryError::BadMode(m) => {
                write!(f, "`mode` must be `strict` or `salvage`, got {m:?}")
            }
            RegionQueryError::BadFill(v) => {
                write!(f, "`fill` element {v:?} is not a finite float")
            }
            RegionQueryError::FillWithoutSalvage => {
                write!(f, "`fill` only applies with `mode=salvage`")
            }
            RegionQueryError::BadEpoch(v) => {
                write!(f, "`epoch` value {v:?} is not a valid non-negative integer")
            }
        }
    }
}

impl std::error::Error for RegionQueryError {}

fn parse_list(param: &'static str, raw: &str) -> Result<Vec<usize>, RegionQueryError> {
    raw.split(',')
        .map(|part| {
            let part = part.trim();
            part.parse::<usize>()
                .map_err(|_| RegionQueryError::BadInteger {
                    param,
                    value: part.to_string(),
                })
        })
        .collect()
}

/// Validate parsed `start`/`shape` lists into a [`Region`].
fn build_region(
    start: Option<Vec<usize>>,
    shape: Option<Vec<usize>>,
) -> Result<Region, RegionQueryError> {
    let start = start.ok_or(RegionQueryError::MissingParam("start"))?;
    let shape = shape.ok_or(RegionQueryError::MissingParam("shape"))?;
    if start.len() != shape.len() {
        return Err(RegionQueryError::RankMismatch {
            start: start.len(),
            shape: shape.len(),
        });
    }
    if !(1..=MAX_DIMS).contains(&start.len()) {
        return Err(RegionQueryError::BadRank(start.len()));
    }
    let mut ranges = Vec::with_capacity(start.len());
    for (k, (&s, &extent)) in start.iter().zip(&shape).enumerate() {
        if extent == 0 {
            return Err(RegionQueryError::EmptyAxis(k));
        }
        let end = s.checked_add(extent).ok_or(RegionQueryError::Overflow(k))?;
        ranges.push((s, end));
    }
    Ok(Region::from_ranges(&ranges))
}

/// Parse an `epoch` parameter value into a non-negative integer.
fn parse_epoch(raw: &str) -> Result<usize, RegionQueryError> {
    let raw = raw.trim();
    raw.parse::<usize>()
        .map_err(|_| RegionQueryError::BadEpoch(raw.to_string()))
}

/// The one `key=value` walk behind both endpoint grammars: each pair is
/// handed to `take` in query order, after the checks every parameter
/// shares — a key outside `keys` is [`RegionQueryError::UnknownParam`],
/// a key seen twice [`RegionQueryError::DuplicateParam`].
fn for_each_param<'q>(
    query: &'q str,
    keys: &[&'static str],
    mut take: impl FnMut(&'static str, &'q str) -> Result<(), RegionQueryError>,
) -> Result<(), RegionQueryError> {
    let mut seen = 0u32;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        let Some(k) = keys.iter().position(|&name| name == key) else {
            return Err(RegionQueryError::UnknownParam(key.to_string()));
        };
        if seen & (1 << k) != 0 {
            return Err(RegionQueryError::DuplicateParam(keys[k]));
        }
        seen |= 1 << k;
        take(keys[k], value)?;
    }
    Ok(())
}

/// Parse the block-endpoint query grammar: empty, or `epoch=N` alone.
/// Returns the epoch to decode at (default 0).
pub fn epoch_from_query(query: &str) -> Result<usize, RegionQueryError> {
    let mut epoch = 0;
    for_each_param(query, &["epoch"], |_, value| {
        epoch = parse_epoch(value)?;
        Ok(())
    })?;
    Ok(epoch)
}

/// Parse the full region-endpoint grammar:
/// `start=…&shape=…[&mode=strict|salvage[&fill=F]][&epoch=N]` into the
/// region to decode, the [`DecodePolicy`] to decode it under, and the
/// epoch to decode at.
///
/// Omitted `mode` means [`DecodePolicy::Strict`]; `fill` defaults to `0`
/// under `mode=salvage` and is rejected under strict (it would silently
/// do nothing); omitted `epoch` means `0`, the first (or only) snapshot.
pub fn region_request_from_query(
    query: &str,
) -> Result<(Region, DecodePolicy, usize), RegionQueryError> {
    let mut start = None;
    let mut shape = None;
    let mut mode = None;
    let mut fill_raw = None;
    let mut epoch = 0;
    let keys = ["start", "shape", "mode", "fill", "epoch"];
    for_each_param(query, &keys, |key, value| {
        match key {
            "start" => start = Some(parse_list(key, value)?),
            "shape" => shape = Some(parse_list(key, value)?),
            "mode" => mode = Some(value),
            "fill" => fill_raw = Some(value),
            _ => epoch = parse_epoch(value)?,
        }
        Ok(())
    })?;
    let region = build_region(start, shape)?;
    let policy = match mode {
        None | Some("strict") => {
            if fill_raw.is_some() {
                return Err(RegionQueryError::FillWithoutSalvage);
            }
            DecodePolicy::Strict
        }
        Some("salvage") => {
            let fill = match fill_raw {
                None => 0.0,
                Some(raw) => {
                    let v: f32 = raw
                        .trim()
                        .parse()
                        .map_err(|_| RegionQueryError::BadFill(raw.to_string()))?;
                    if !v.is_finite() {
                        return Err(RegionQueryError::BadFill(raw.to_string()));
                    }
                    v
                }
            };
            DecodePolicy::Salvage { fill }
        }
        Some(other) => return Err(RegionQueryError::BadMode(other.to_string())),
    };
    Ok((region, policy, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The region of a query, or why it has none.
    fn region_of(query: &str) -> Result<Region, RegionQueryError> {
        region_request_from_query(query).map(|(region, _, _)| region)
    }

    #[test]
    fn parses_well_formed_queries() {
        assert_eq!(
            region_of("start=0,0,0&shape=4,64,64").unwrap(),
            Region::d3(0, 4, 0, 64, 0, 64)
        );
        assert_eq!(region_of("shape=8&start=3").unwrap(), Region::d1(3, 11));
        // whitespace around elements tolerated
        assert_eq!(
            region_of("start=1, 2&shape= 3,4").unwrap(),
            Region::d2(1, 4, 2, 6)
        );
    }

    #[test]
    fn rejects_missing_and_duplicate_params() {
        assert_eq!(region_of(""), Err(RegionQueryError::MissingParam("start")));
        assert_eq!(
            region_of("start=0,0"),
            Err(RegionQueryError::MissingParam("shape"))
        );
        assert_eq!(
            region_of("start=1&start=2&shape=3"),
            Err(RegionQueryError::DuplicateParam("start"))
        );
        assert_eq!(
            region_of("start=1&shape=2&limit=9"),
            Err(RegionQueryError::UnknownParam("limit".into()))
        );
    }

    #[test]
    fn rejects_malformed_integers() {
        for bad in [
            "start=a&shape=2",
            "start=-1&shape=2",
            "start=1.5&shape=2",
            "start=&shape=2",
        ] {
            assert!(
                matches!(region_of(bad), Err(RegionQueryError::BadInteger { .. })),
                "{bad} should be a BadInteger error"
            );
        }
        // a value that overflows usize is a parse error, not a panic
        assert!(matches!(
            region_of("start=99999999999999999999999999&shape=2"),
            Err(RegionQueryError::BadInteger { param: "start", .. })
        ));
    }

    #[test]
    fn rejects_rank_problems() {
        assert_eq!(
            region_of("start=0,0&shape=4,64,64"),
            Err(RegionQueryError::RankMismatch { start: 2, shape: 3 })
        );
        assert_eq!(
            region_of("start=0,0,0,0&shape=1,1,1,1"),
            Err(RegionQueryError::BadRank(4))
        );
    }

    #[test]
    fn parses_decode_modes() {
        let (r, p, e) = region_request_from_query("start=0,0&shape=4,4").unwrap();
        assert_eq!(r, Region::d2(0, 4, 0, 4));
        assert_eq!(p, DecodePolicy::Strict);
        assert_eq!(e, 0);
        let (_, p, _) = region_request_from_query("start=0&shape=4&mode=strict").unwrap();
        assert_eq!(p, DecodePolicy::Strict);
        let (_, p, _) = region_request_from_query("start=0&shape=4&mode=salvage").unwrap();
        assert_eq!(p, DecodePolicy::Salvage { fill: 0.0 });
        let (_, p, _) =
            region_request_from_query("mode=salvage&fill=-1.5&start=0&shape=4").unwrap();
        assert_eq!(p, DecodePolicy::Salvage { fill: -1.5 });
    }

    #[test]
    fn parses_and_rejects_epochs() {
        let (_, _, e) = region_request_from_query("start=0&shape=4&epoch=3").unwrap();
        assert_eq!(e, 3);
        let (_, p, e) = region_request_from_query("epoch=7&mode=salvage&start=0&shape=4").unwrap();
        assert_eq!(p, DecodePolicy::Salvage { fill: 0.0 });
        assert_eq!(e, 7);
        assert_eq!(
            region_request_from_query("start=0&shape=4&epoch=-1"),
            Err(RegionQueryError::BadEpoch("-1".into()))
        );
        assert_eq!(
            region_request_from_query("start=0&shape=4&epoch=two"),
            Err(RegionQueryError::BadEpoch("two".into()))
        );
        assert_eq!(
            region_request_from_query("start=0&shape=4&epoch=1&epoch=2"),
            Err(RegionQueryError::DuplicateParam("epoch"))
        );
        // the block-endpoint grammar: epoch alone, default 0
        assert_eq!(epoch_from_query(""), Ok(0));
        assert_eq!(epoch_from_query("epoch=5"), Ok(5));
        assert_eq!(
            epoch_from_query("epoch=x"),
            Err(RegionQueryError::BadEpoch("x".into()))
        );
        assert_eq!(
            epoch_from_query("start=0"),
            Err(RegionQueryError::UnknownParam("start".into()))
        );
    }

    #[test]
    fn rejects_bad_modes_and_fills() {
        assert_eq!(
            region_request_from_query("start=0&shape=4&mode=lenient"),
            Err(RegionQueryError::BadMode("lenient".into()))
        );
        assert_eq!(
            region_request_from_query("start=0&shape=4&mode=salvage&fill=nan"),
            Err(RegionQueryError::BadFill("nan".into()))
        );
        assert_eq!(
            region_request_from_query("start=0&shape=4&mode=salvage&fill="),
            Err(RegionQueryError::BadFill("".into()))
        );
        assert_eq!(
            region_request_from_query("start=0&shape=4&fill=1"),
            Err(RegionQueryError::FillWithoutSalvage)
        );
        assert_eq!(
            region_request_from_query("start=0&shape=4&mode=salvage&mode=strict"),
            Err(RegionQueryError::DuplicateParam("mode"))
        );
        // the block grammar refuses policy parameters
        assert_eq!(
            epoch_from_query("epoch=1&mode=salvage"),
            Err(RegionQueryError::UnknownParam("mode".into()))
        );
    }

    #[test]
    fn rejects_empty_axes_and_overflow() {
        assert_eq!(
            region_of("start=0,3&shape=4,0"),
            Err(RegionQueryError::EmptyAxis(1))
        );
        assert_eq!(
            region_of(&format!("start={}&shape=2", usize::MAX)),
            Err(RegionQueryError::Overflow(0))
        );
    }
}
