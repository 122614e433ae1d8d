//! Grayscale PGM output for the paper's visualization figures (1, 6, 7, 9).

use std::io::Write;
use std::path::Path;

use cfc_tensor::{Field, FieldStats};

/// Write a 2-D field as an 8-bit PGM, min-max scaled.
pub fn write_pgm(field: &Field, path: &Path) -> std::io::Result<()> {
    write_pgm_ref(field, field, path)
}

/// Write a 2-D field scaled against a *reference* field's range so multiple
/// panels share one color scale (needed for honest visual comparison).
pub fn write_pgm_ref(field: &Field, reference: &Field, path: &Path) -> std::io::Result<()> {
    assert_eq!(field.shape().ndim(), 2, "PGM output needs a 2-D field");
    let shape = field.shape();
    let (rows, cols) = (shape.dims()[0], shape.dims()[1]);
    let stats = FieldStats::of(reference);
    let range = stats.range().max(1e-12);
    let mut out = Vec::with_capacity(rows * cols + 64);
    write!(&mut out, "P5\n{cols} {rows}\n255\n")?;
    for &v in field.as_slice() {
        let g = ((v - stats.min) / range * 255.0).clamp(0.0, 255.0) as u8;
        out.push(g);
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, out)
}
