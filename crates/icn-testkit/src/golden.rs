//! Golden-snapshot hashing of the pipeline stage outputs.
//!
//! Each stage of a pinned study run (synthetic scale 0.05, fast study
//! configuration with the Figure 2 sweep enabled) is reduced to a stable
//! 64-bit FNV-1a hash over a *canonical rendering*: every float is
//! formatted with fixed precision (`{:.10e}`, `-0.0` collapsed to `0.0`),
//! every field is written in a fixed order, and the stage map is stored
//! with sorted keys. The hashes live under `tests/golden/` in the repo;
//! `icn testkit` recomputes and compares them, and `icn testkit --bless`
//! regenerates the file byte-identically.
//!
//! A hash, not the full output, is stored on purpose: the point is drift
//! *detection* (any behavioural change must be consciously blessed), while
//! the differential-oracle and metamorphic tiers explain *what* broke.

use icn_cluster::ClusterPath;
use icn_core::{IcnStudy, StudyConfig};
use icn_obs::Json;
use icn_stats::{Fnv1a, Matrix};
use icn_synth::{Dataset, SynthConfig};
use std::path::{Path, PathBuf};

/// Schema tag written into golden files.
const GOLDEN_SCHEMA: &str = "icn-golden/v1";

/// The scale the checked-in golden snapshots are pinned at.
pub const GOLDEN_SCALE: f64 = 0.05;

/// The scale the sampled-path golden snapshot is pinned at. Deliberately
/// larger than [`GOLDEN_SCALE`]: with the pinned
/// `SAMPLED_GOLDEN_BUDGET_MB` (1 MiB) budget the population at this scale does
/// not fit the exact path, so the snapshot genuinely exercises the
/// sample-cluster-extend machinery (a budget that admits the whole
/// population would silently degrade the snapshot to exact Ward).
pub const SAMPLED_GOLDEN_SCALE: f64 = 0.1;

/// The memory budget the sampled-path golden run is pinned at. 1 MB caps
/// the sample at 362 antennas, a strict ~76% sample of the scale-0.1
/// population (475 live antennas).
const SAMPLED_GOLDEN_BUDGET_MB: usize = 1;

/// Canonical fixed-precision rendering of one float. `-0.0` collapses to
/// `0.0` so the hash cannot depend on sign-of-zero noise.
pub(crate) fn canon_f64(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let v = if v == 0.0 { 0.0 } else { v };
    format!("{v:.10e}")
}

/// Streaming FNV-1a 64-bit hasher over canonical renderings. All `feed`
/// methods separate values with `;` so adjacent fields cannot alias.
#[derive(Default)]
pub(crate) struct Canon {
    state: Fnv1a,
}

impl Canon {
    /// A fresh hasher at the FNV-1a offset basis.
    pub(crate) fn new() -> Canon {
        Canon::default()
    }

    /// Feeds raw text.
    pub(crate) fn text(&mut self, s: &str) -> &mut Self {
        self.state.write(s.as_bytes()).write(b";");
        self
    }

    /// Feeds one float in canonical form.
    pub(crate) fn f64(&mut self, v: f64) -> &mut Self {
        self.text(&canon_f64(v))
    }

    /// Feeds one integer.
    pub(crate) fn usize(&mut self, v: usize) -> &mut Self {
        self.text(&v.to_string())
    }

    /// Feeds a slice of floats.
    pub(crate) fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        for &v in vs {
            self.f64(v);
        }
        self
    }

    /// Feeds a slice of integers.
    pub(crate) fn usizes(&mut self, vs: &[usize]) -> &mut Self {
        for &v in vs {
            self.usize(v);
        }
        self
    }

    /// Feeds a matrix: shape first, then all cells in row-major order.
    pub(crate) fn matrix(&mut self, m: &Matrix) -> &mut Self {
        self.usize(m.rows()).usize(m.cols()).f64s(m.as_slice())
    }

    /// The final hash as a fixed-width hex string.
    pub(crate) fn hex(&self) -> String {
        format!("{:016x}", self.state.finish())
    }
}

/// Stage name → canonical hash for one pipeline run.
pub struct PipelineSnapshot {
    /// Synthetic scale the run was pinned at.
    pub scale: f64,
    /// `(stage name, hash)` pairs sorted by stage name.
    pub stages: Vec<(String, String)>,
}

/// Runs the pinned study (paper synth config at `scale`, fast study config
/// with the k-sweep enabled) and hashes every stage output.
pub fn snapshot_pipeline(scale: f64) -> PipelineSnapshot {
    let dataset = Dataset::generate(SynthConfig::paper().with_scale(scale));
    let config = StudyConfig {
        run_k_sweep: true,
        ..StudyConfig::fast()
    };
    let study = IcnStudy::run(&dataset, config);
    snapshot_study(scale, &dataset, &study)
}

/// Runs the pinned study down the **sampled** stage-2 path (scalable
/// large-N escape hatch forced on via a 1 MiB cluster budget) and
/// hashes every stage output. The sampled path has its own golden file —
/// see [`goldens`] — so drift in the sampler, the
/// nearest-centroid extension or the refinement loop is caught exactly
/// like drift in the exact path, without touching the exact-path hashes.
pub fn snapshot_pipeline_sampled(scale: f64) -> PipelineSnapshot {
    let dataset = Dataset::generate(SynthConfig::paper().with_scale(scale));
    let config = StudyConfig {
        run_k_sweep: true,
        cluster_path: ClusterPath::Sampled,
        cluster_budget_mb: SAMPLED_GOLDEN_BUDGET_MB,
        ..StudyConfig::fast()
    };
    let study = IcnStudy::run(&dataset, config);
    snapshot_study(scale, &dataset, &study)
}

/// Hashes every stage of an already-run study (exposed so tests can reuse
/// a fixture instead of re-running the pipeline).
pub(crate) fn snapshot_study(scale: f64, dataset: &Dataset, study: &IcnStudy) -> PipelineSnapshot {
    let mut stages = Vec::new();

    let mut c = Canon::new();
    c.text("dataset")
        .matrix(&dataset.indoor_totals)
        .matrix(&dataset.outdoor_totals)
        .usize(dataset.num_antennas())
        .usize(dataset.num_services());
    stages.push(("dataset".to_string(), c.hex()));

    let mut c = Canon::new();
    c.text("transform")
        .usizes(&study.live_rows)
        .matrix(&study.rsca);
    stages.push(("stage1_transform".to_string(), c.hex()));

    let mut c = Canon::new();
    c.text("cluster");
    for m in &study.history.merges {
        c.usize(m.a).usize(m.b).f64(m.height).usize(m.size);
    }
    c.usizes(&study.labels)
        .usizes(&study.labels_coarse)
        .usizes(&study.consolidation);
    for q in &study.k_sweep {
        c.usize(q.k).f64(q.silhouette).f64(q.dunn);
    }
    stages.push(("stage2_cluster".to_string(), c.hex()));

    let mut c = Canon::new();
    c.text("surrogate").f64(study.surrogate_accuracy);
    match study.surrogate_oob {
        Some(oob) => c.f64(oob),
        None => c.text("no-oob"),
    };
    c.usizes(&study.surrogate.predict_batch(&study.rsca));
    for ex in &study.explanations {
        c.usize(ex.class);
        for inf in &ex.influences {
            c.usize(inf.feature)
                .f64(inf.mean_abs_shap)
                .f64(inf.shap_value_correlation)
                .f64(inf.mean_shap_on_members)
                .text(&format!("{:?}", inf.direction));
        }
    }
    stages.push(("stage3_surrogate".to_string(), c.hex()));

    let mut c = Canon::new();
    c.text("environments");
    for row in &study.crosstab.counts {
        c.usizes(row);
    }
    c.usizes(&study.crosstab.cluster_sizes)
        .usizes(&study.crosstab.env_sizes)
        .f64s(&study.crosstab.paris_share);
    stages.push(("stage4_environments".to_string(), c.hex()));

    let mut c = Canon::new();
    c.text("outdoor")
        .usizes(&study.outdoor.predicted)
        .f64s(&study.outdoor.distribution)
        .usize(study.outdoor.dominant.0)
        .f64(study.outdoor.dominant.1);
    stages.push(("stage5_outdoor".to_string(), c.hex()));

    stages.sort_by(|a, b| a.0.cmp(&b.0));
    PipelineSnapshot { scale, stages }
}

/// Runs the pinned study **with the stage-6 forecast phase enabled** and
/// hashes the forecast artefacts: the cluster series, all three model
/// forecasts, the backtest scores and the anomaly scores/hour sets. The
/// five pipeline stages are deliberately *not* re-hashed here — they have
/// their own golden file — so this snapshot moves only when forecasting
/// behaviour moves.
fn snapshot_forecast(scale: f64) -> PipelineSnapshot {
    let dataset = Dataset::generate(SynthConfig::paper().with_scale(scale));
    let config = StudyConfig {
        run_forecast: true,
        ..StudyConfig::fast()
    };
    let study = IcnStudy::run(&dataset, config);
    let report = study.forecast.as_ref().expect("run_forecast was set");
    let mut stages = Vec::new();

    let mut c = Canon::new();
    c.text("forecast_series");
    for cl in &report.clusters {
        c.usize(cl.cluster).usize(cl.n_antennas).f64s(&cl.series);
    }
    stages.push(("forecast_series".to_string(), c.hex()));

    let mut c = Canon::new();
    c.text("forecast_models")
        .usize(report.horizon)
        .text(report.model.as_str());
    for cl in &report.clusters {
        c.usize(cl.cluster)
            .f64s(&cl.naive)
            .f64s(&cl.ets)
            .f64s(&cl.forest)
            .usize(cl.busy_hour);
    }
    stages.push(("forecast_models".to_string(), c.hex()));

    let mut c = Canon::new();
    c.text("forecast_backtest");
    for cl in &report.clusters {
        for s in [cl.backtest.naive, cl.backtest.ets, cl.backtest.forest] {
            c.f64(s.mae).f64(s.smape);
        }
    }
    stages.push(("forecast_backtest".to_string(), c.hex()));

    let mut c = Canon::new();
    c.text("forecast_anomalies");
    for cl in &report.clusters {
        c.usize(cl.cluster)
            .usizes(&cl.anomalies.flagged)
            .f64s(&cl.anomalies.scores);
    }
    stages.push(("forecast_anomalies".to_string(), c.hex()));

    stages.sort_by(|a, b| a.0.cmp(&b.0));
    PipelineSnapshot { scale, stages }
}

/// One checked-in golden: its label, its file and the recipe that
/// recomputes it.
#[derive(Debug)]
pub struct Golden {
    /// Names the golden in `icn testkit` output (`"ingest"`).
    pub label: &'static str,
    /// The golden file.
    pub path: PathBuf,
    /// The scale the recipe runs at.
    pub scale: f64,
    recipe: fn(f64) -> PipelineSnapshot,
}

impl Golden {
    /// Recomputes the snapshot.
    pub fn snapshot(&self) -> PipelineSnapshot {
        (self.recipe)(self.scale)
    }
}

/// The goldens `icn testkit` checks in `dir` when asked for `scale`: the
/// pipeline golden (`pipeline-<scale>.json`) at any scale, and at
/// [`GOLDEN_SCALE`] also the ingest, sampled-path and forecast goldens,
/// which are pinned there. The sampled-path file name carries its own
/// pinned scale so an accidental re-pin is visible in review.
pub fn goldens(dir: &Path, scale: f64) -> Vec<Golden> {
    let mut list = vec![Golden {
        label: "pipeline",
        path: dir.join(format!("pipeline-{scale}.json")),
        scale,
        recipe: snapshot_pipeline,
    }];
    if (scale - GOLDEN_SCALE).abs() < 1e-12 {
        list.extend([
            Golden {
                label: "ingest",
                path: dir.join("ingest_scale005.json"),
                scale,
                recipe: crate::ingest::snapshot_ingest,
            },
            Golden {
                label: "sampled-path",
                path: dir.join(format!("pipeline-sampled-{SAMPLED_GOLDEN_SCALE}.json")),
                scale: SAMPLED_GOLDEN_SCALE,
                recipe: snapshot_pipeline_sampled,
            },
            Golden {
                label: "forecast",
                path: dir.join(format!("forecast-{scale}.json")),
                scale,
                recipe: snapshot_forecast,
            },
        ]);
    }
    list
}

/// The repo's checked-in golden directory (`tests/golden/` at the
/// workspace root), resolved relative to this crate's source location.
pub fn default_golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Renders a snapshot as the exact bytes stored in the golden file:
/// pretty-printed JSON with sorted stage keys and a trailing newline.
pub fn render_golden(snap: &PipelineSnapshot) -> String {
    let stages: Vec<(&str, Json)> = snap
        .stages
        .iter()
        .map(|(name, hash)| (name.as_str(), Json::str(hash)))
        .collect();
    let out = Json::obj(vec![
        ("schema", Json::str(GOLDEN_SCHEMA)),
        ("scale", Json::num(snap.scale)),
        ("stages", Json::obj(stages)),
    ]);
    out.to_pretty() // to_pretty already ends with a newline
}

/// Writes (blesses) a snapshot to `path`, creating the parent directory
/// if needed.
pub fn write_golden(path: &Path, snap: &PipelineSnapshot) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, render_golden(snap))
}

/// Compares a freshly computed snapshot against the blessed golden file
/// at `path`. `Ok(())` means no drift; `Err` carries one human-readable
/// line per divergence (missing file, missing/extra stage, hash mismatch).
pub fn compare_golden(path: &Path, snap: &PipelineSnapshot) -> Result<(), Vec<String>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            return Err(vec![format!(
                "golden file {} unreadable ({e}); run `icn testkit --bless`",
                path.display()
            )])
        }
    };
    let parsed = match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            return Err(vec![format!(
                "golden file {} is not JSON: {e}",
                path.display()
            )])
        }
    };
    let mut drift = Vec::new();
    if parsed.get("schema").and_then(Json::as_str) != Some(GOLDEN_SCHEMA) {
        drift.push(format!(
            "golden file {} has unexpected schema",
            path.display()
        ));
    }
    let blessed: Vec<(String, String)> = parsed
        .get("stages")
        .and_then(Json::entries)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| v.as_str().map(|h| (k.clone(), h.to_string())))
                .collect()
        })
        .unwrap_or_default();
    for (name, hash) in &snap.stages {
        match blessed.iter().find(|(k, _)| k == name) {
            None => drift.push(format!("stage {name}: no blessed hash")),
            Some((_, b)) if b != hash => {
                drift.push(format!(
                    "stage {name}: drift (blessed {b}, computed {hash})"
                ));
            }
            Some(_) => {}
        }
    }
    for (name, _) in &blessed {
        if !snap.stages.iter().any(|(k, _)| k == name) {
            drift.push(format!("stage {name}: blessed but no longer computed"));
        }
    }
    if drift.is_empty() {
        Ok(())
    } else {
        Err(drift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_f64_is_fixed_precision_and_sign_stable() {
        assert_eq!(canon_f64(0.0), canon_f64(-0.0));
        assert_eq!(canon_f64(1.0), "1.0000000000e0");
        assert_eq!(canon_f64(0.05), "5.0000000000e-2");
        assert_eq!(canon_f64(f64::INFINITY), "inf");
        // 10 fractional digits: quiet last-bit noise below that is absorbed.
        assert_eq!(canon_f64(1.0 + 1e-13), canon_f64(1.0));
        assert_ne!(canon_f64(1.0 + 1e-9), canon_f64(1.0));
    }

    #[test]
    fn hasher_separates_adjacent_fields() {
        let mut a = Canon::new();
        a.text("ab").text("c");
        let mut b = Canon::new();
        b.text("a").text("bc");
        assert_ne!(a.hex(), b.hex());
        // And is order sensitive.
        let mut c = Canon::new();
        c.usize(1).usize(2);
        let mut d = Canon::new();
        d.usize(2).usize(1);
        assert_ne!(c.hex(), d.hex());
    }

    #[test]
    fn render_is_byte_stable() {
        let snap = PipelineSnapshot {
            scale: 0.05,
            stages: vec![
                ("dataset".into(), "00ff".into()),
                ("stage1_transform".into(), "abcd".into()),
            ],
        };
        let a = render_golden(&snap);
        let b = render_golden(&snap);
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.contains("icn-golden/v1"));
    }

    #[test]
    fn compare_reports_drift_and_missing_stages() {
        let dir = std::env::temp_dir().join(format!("icn-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("pipeline-0.5.json");
        let snap = PipelineSnapshot {
            scale: 0.5,
            stages: vec![("dataset".into(), "aa".into())],
        };
        // Missing file is drift.
        assert!(compare_golden(&path, &snap).is_err());
        // Blessed copy matches itself.
        write_golden(&path, &snap).unwrap();
        assert!(compare_golden(&path, &snap).is_ok());
        // A changed hash is reported by stage name.
        let moved = PipelineSnapshot {
            scale: 0.5,
            stages: vec![("dataset".into(), "bb".into())],
        };
        let drift = compare_golden(&path, &moved).unwrap_err();
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("dataset"), "{drift:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
