//! Experiment and model configuration, mirroring the paper's Table III.

/// CFNN architecture hyperparameters (paper Fig. 4).
///
/// The network is: `conv3×3(in→f1) → ReLU → depthwise3×3(f1) →
/// pointwise1×1(f1→f2) → ReLU → channel-attention(f2, r) → conv3×3(f2→out)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CfnnSpec {
    /// Input channels: `n_anchors × n_dims` backward-difference planes.
    pub in_channels: usize,
    /// Output channels: `n_dims` predicted target differences.
    pub out_channels: usize,
    /// Feature width after the initial convolution.
    pub feat1: usize,
    /// Feature width after the pointwise convolution.
    pub feat2: usize,
    /// Channel-attention bottleneck reduction.
    pub reduction: usize,
}

impl CfnnSpec {
    /// Exact learnable-parameter count of the generated network.
    pub fn num_params(&self) -> usize {
        let k2 = 9;
        let initial = self.in_channels * self.feat1 * k2 + self.feat1;
        let depthwise = self.feat1 * k2 + self.feat1;
        let pointwise = self.feat1 * self.feat2 + self.feat2;
        let hidden = (self.feat2 / self.reduction).max(1);
        let attention = 2 * self.feat2 * hidden;
        let final_conv = self.feat2 * self.out_channels * k2 + self.out_channels;
        initial + depthwise + pointwise + attention + final_conv
    }

    /// Spec sized for the paper's 3-D cases (3 anchors → ~33 k parameters,
    /// Table III reports 32 871).
    pub fn paper_3d(n_anchors: usize) -> Self {
        CfnnSpec {
            in_channels: n_anchors * 3,
            out_channels: 3,
            feat1: 139,
            feat2: 104,
            reduction: 8,
        }
    }

    /// Spec sized near the paper's CESM (2-D) cases (~4.5–6 k parameters).
    pub fn paper_2d(n_anchors: usize) -> Self {
        CfnnSpec {
            in_channels: n_anchors * 2,
            out_channels: 2,
            feat1: 44,
            feat2: 34,
            reduction: 8,
        }
    }

    /// A small, fast spec for tests and quick experiments.
    pub fn compact(n_anchors: usize, n_dims: usize) -> Self {
        CfnnSpec {
            in_channels: n_anchors * n_dims,
            out_channels: n_dims,
            feat1: 16,
            feat2: 24,
            reduction: 8,
        }
    }

    /// The 3-D spec the archive writer trains for a plan entry that names
    /// none (`ArchiveBuilder::cross_field`): 9 → 24 → 32 → 3 at 3 anchors,
    /// 4 131 parameters, 16.5 kB of `f32`. On the scaled grids it is wider
    /// than the data pays for — [`paper_table3`]'s rows carry measured
    /// widths — and it keeps this width because the writer's pinned bytes
    /// and `training_pin` are made with it.
    pub fn scaled_3d(n_anchors: usize) -> Self {
        CfnnSpec {
            in_channels: n_anchors * 3,
            out_channels: 3,
            feat1: 24,
            feat2: 32,
            reduction: 8,
        }
    }

    /// The 2-D spec the archive writer trains for a plan entry that names
    /// none, and the net the golden fixtures embed: `feat1` 12, `feat2` 16
    /// (see [`CfnnSpec::scaled_3d`] for why Table III no longer uses it).
    pub fn scaled_2d(n_anchors: usize) -> Self {
        CfnnSpec {
            in_channels: n_anchors * 2,
            out_channels: 2,
            feat1: 12,
            feat2: 16,
            reduction: 8,
        }
    }
}

/// Training hyperparameters for CFNN.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Square patch edge.
    pub patch: usize,
    /// Number of training patches sampled.
    pub n_patches: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Epochs over the sampled patch set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Sampling/initialization seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            patch: 24,
            n_patches: 256,
            batch: 16,
            epochs: 25,
            lr: 2e-3,
            seed: 7,
        }
    }
}

impl TrainConfig {
    /// What training needs of a configuration whatever the data: a patch
    /// and a batch of at least one, and a finite positive learning rate.
    /// `n_patches` and `epochs` may be zero — an untrained network is a
    /// valid, if useless, model.
    pub fn validate(&self) -> Result<(), String> {
        if self.patch == 0 {
            return Err("TrainConfig::patch must be at least 1".into());
        }
        if self.batch == 0 {
            return Err("TrainConfig::batch must be at least 1".into());
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return Err(format!(
                "TrainConfig::lr must be finite and positive, got {}",
                self.lr
            ));
        }
        Ok(())
    }

    /// Tiny config for unit tests.
    pub fn fast() -> Self {
        TrainConfig {
            patch: 12,
            n_patches: 48,
            batch: 12,
            epochs: 8,
            lr: 4e-3,
            seed: 7,
        }
    }
}

/// One experiment row: a target field, its anchors, and the model spec —
/// the reproduction of the paper's Table III.
#[derive(Debug, Clone)]
pub struct CrossFieldConfig {
    /// Dataset name (matches `cfc-datagen` catalog names).
    pub dataset: &'static str,
    /// Target field name.
    pub target: &'static str,
    /// Anchor field names (order matters: channel layout).
    pub anchors: Vec<&'static str>,
    /// CFNN architecture.
    pub spec: CfnnSpec,
}

/// `spec` at widths `feat1` → `feat2`, everything else kept.
fn width(spec: CfnnSpec, feat1: usize, feat2: usize) -> CfnnSpec {
    CfnnSpec {
        feat1,
        feat2,
        ..spec
    }
}

/// The paper's Table III experiment configurations.
///
/// Each row's CFNN widths are measured, not sized by proportion. Over
/// (`feat1`, `feat2`) ∈ {2, 4, 8, 12, 16, 24} × {2, 4, 8, 16, 32}, take the
/// fewest bits per value of the row's cross-field stream, model included,
/// summed over the five full-size Table II bounds (`TrainConfig::default()`);
/// of the widths within 0.5 % of that sum, the row ships the one with the
/// fewest parameters. The sweep (README, "Table II") picked 4 × 8 for
/// SCALE RH, 2 × 2 for SCALE W, 12 × 32 for Hurricane Wf and 4 × 4 for the
/// three CESM rows: 251 to 2 643 parameters.
pub fn paper_table3() -> Vec<CrossFieldConfig> {
    vec![
        CrossFieldConfig {
            dataset: "SCALE",
            target: "RH",
            anchors: vec!["T", "QV", "PRES"],
            spec: width(CfnnSpec::scaled_3d(3), 4, 8),
        },
        CrossFieldConfig {
            dataset: "SCALE",
            target: "W",
            anchors: vec!["U", "V", "PRES"],
            spec: width(CfnnSpec::scaled_3d(3), 2, 2),
        },
        CrossFieldConfig {
            dataset: "Hurricane",
            target: "Wf",
            anchors: vec!["Uf", "Vf", "Pf"],
            spec: width(CfnnSpec::scaled_3d(3), 12, 32),
        },
        CrossFieldConfig {
            dataset: "CESM-ATM",
            target: "CLDTOT",
            anchors: vec!["CLDLOW", "CLDMED", "CLDHGH"],
            spec: width(CfnnSpec::scaled_2d(3), 4, 4),
        },
        CrossFieldConfig {
            dataset: "CESM-ATM",
            target: "LWCF",
            anchors: vec!["FLUTC", "FLNT"],
            spec: width(CfnnSpec::scaled_2d(2), 4, 4),
        },
        CrossFieldConfig {
            dataset: "CESM-ATM",
            target: "FLUT",
            anchors: vec!["FLNT", "FLNTC", "FLUTC", "LWCF"],
            spec: width(CfnnSpec::scaled_2d(4), 4, 4),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_3d_spec_lands_near_33k_params() {
        let n = CfnnSpec::paper_3d(3).num_params();
        // solved to land within 10 parameters of the paper's 32 871
        assert!(
            (32_800..32_900).contains(&n),
            "3-D spec {n} params, paper reports 32 871"
        );
    }

    #[test]
    fn paper_2d_specs_land_near_5k_params() {
        for anchors in [2usize, 3, 4] {
            let n = CfnnSpec::paper_2d(anchors).num_params();
            // paper: 4 470 (2 anchors), 5 270 (3), 6 070 (4); f1=44/f2=34
            // lands within ~100 of each
            let paper = 4470 + (anchors - 2) * 800;
            assert!(
                n.abs_diff(paper) < 150,
                "2-D spec ({anchors} anchors) {n} params vs paper {paper}"
            );
        }
    }

    #[test]
    fn table3_matches_paper_rows() {
        let rows = paper_table3();
        assert_eq!(rows.len(), 6);
        let wf = rows.iter().find(|r| r.target == "Wf").unwrap();
        assert_eq!(wf.anchors, vec!["Uf", "Vf", "Pf"]);
        let flut = rows.iter().find(|r| r.target == "FLUT").unwrap();
        assert_eq!(flut.anchors.len(), 4);
        // the widths the sweep chose (see `paper_table3`), reduction 8 throughout
        let widths: Vec<_> = rows
            .iter()
            .map(|r| {
                assert_eq!(r.spec.reduction, 8, "{}", r.target);
                (r.target, r.spec.feat1, r.spec.feat2, r.spec.num_params())
            })
            .collect();
        assert_eq!(
            widths,
            [
                ("RH", 4, 8, 643),
                ("W", 2, 2, 251),
                ("Wf", 12, 32, 2643),
                ("CLDTOT", 4, 4, 362),
                ("LWCF", 4, 4, 290),
                ("FLUT", 4, 4, 434),
            ]
        );
    }

    #[test]
    fn num_params_formula_is_consistent_with_built_model() {
        let spec = CfnnSpec::compact(3, 2);
        let mut net = crate::diffnet::build_cfnn(&spec, 1);
        assert_eq!(net.num_params(), spec.num_params());
    }
}
