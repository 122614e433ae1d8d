//! Experiment and model configuration, mirroring the paper's Table III.
//!
//! A CFNN's shape is its two widths, [`CfnnSpec`]; the network is built
//! from them and the data in one place, [`crate::diffnet::build_cfnn`].
//! Two constructors name the widths used beside Table III's measured ones:
//! [`CfnnSpec::paper`], the paper-parity widths, and
//! [`CfnnSpec::writer_default`], what the archive writer trains for a plan
//! row without a spec.

/// The CFNN's two free widths (paper Fig. 4). The rest of the network is
/// fixed, and built in one place, [`crate::diffnet::build_cfnn`]: its
/// channel counts come from the data — the anchors' `n_anchors × ndim`
/// backward differences in, the target's `ndim` out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CfnnSpec {
    /// Feature width after the initial convolution.
    pub feat1: usize,
    /// Feature width after the pointwise convolution.
    pub feat2: usize,
}

impl CfnnSpec {
    /// The widths at which the network's parameter count lands near the
    /// paper's Table III: 139 × 104 for `ndim`-3 data (32 863 parameters at
    /// 3 anchors against the paper's 32 871), 44 × 34 otherwise (4 484 /
    /// 5 276 / 6 068 at 2 / 3 / 4 anchors against 4 470 / 5 270 / 6 070).
    pub fn paper(ndim: usize) -> Self {
        let (feat1, feat2) = if ndim == 3 { (139, 104) } else { (44, 34) };
        CfnnSpec { feat1, feat2 }
    }

    /// The widths the archive writer trains for a plan entry that names
    /// none (`ArchiveBuilder::cross_field`): 24 × 32 for `ndim`-3 data
    /// (4 131 parameters at 3 anchors, 16.5 kB of `f32`), 12 × 16
    /// otherwise — the net the golden fixtures embed. On the scaled grids
    /// they are wider than the data pays for ([`paper_table3`]'s rows carry
    /// measured widths); they stay because the writer's pinned bytes,
    /// `training_pin` and the golden fixtures are made with them.
    pub fn writer_default(ndim: usize) -> Self {
        let (feat1, feat2) = if ndim == 3 { (24, 32) } else { (12, 16) };
        CfnnSpec { feat1, feat2 }
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
            spec: CfnnSpec { feat1: 4, feat2: 8 },
        },
        CrossFieldConfig {
            dataset: "SCALE",
            target: "W",
            anchors: vec!["U", "V", "PRES"],
            spec: CfnnSpec { feat1: 2, feat2: 2 },
        },
        CrossFieldConfig {
            dataset: "Hurricane",
            target: "Wf",
            anchors: vec!["Uf", "Vf", "Pf"],
            spec: CfnnSpec {
                feat1: 12,
                feat2: 32,
            },
        },
        CrossFieldConfig {
            dataset: "CESM-ATM",
            target: "CLDTOT",
            anchors: vec!["CLDLOW", "CLDMED", "CLDHGH"],
            spec: CfnnSpec { feat1: 4, feat2: 4 },
        },
        CrossFieldConfig {
            dataset: "CESM-ATM",
            target: "LWCF",
            anchors: vec!["FLUTC", "FLNT"],
            spec: CfnnSpec { feat1: 4, feat2: 4 },
        },
        CrossFieldConfig {
            dataset: "CESM-ATM",
            target: "FLUT",
            anchors: vec!["FLNT", "FLNTC", "FLUTC", "LWCF"],
            spec: CfnnSpec { feat1: 4, feat2: 4 },
        },
    ]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::diffnet::build_cfnn;

    /// The narrow 16 × 24 net the crate's unit tests train.
    pub(crate) const NARROW: CfnnSpec = CfnnSpec {
        feat1: 16,
        feat2: 24,
    };

    /// Learnable parameters of `spec`'s network over `n_anchors` anchors
    /// of `ndim`-D data.
    fn params(spec: &CfnnSpec, n_anchors: usize, ndim: usize) -> usize {
        build_cfnn(spec, n_anchors, ndim, 1).num_params()
    }

    #[test]
    fn paper_parity_3d_lands_near_33k_params() {
        let n = params(&CfnnSpec::paper(3), 3, 3);
        // solved to land within 10 parameters of the paper's 32 871
        assert!(
            (32_800..32_900).contains(&n),
            "3-D spec {n} params, paper reports 32 871"
        );
    }

    #[test]
    fn paper_parity_2d_lands_near_5k_params() {
        for anchors in [2usize, 3, 4] {
            let n = params(&CfnnSpec::paper(2), anchors, 2);
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
        // the widths the sweep chose (see `paper_table3`); CESM is the 2-D
        // dataset
        let widths: Vec<_> = rows
            .iter()
            .map(|r| {
                let ndim = if r.dataset == "CESM-ATM" { 2 } else { 3 };
                let n = params(&r.spec, r.anchors.len(), ndim);
                (r.target, r.spec.feat1, r.spec.feat2, n)
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
}
