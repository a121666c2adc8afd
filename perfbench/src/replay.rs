//! The traced replay: each job re-run by calling each layer's coarsest
//! public functions in pipeline order, with the benchmark's own timer
//! around every call. The library's `icn_obs` registry stays disabled.
//!
//! The study replay mirrors `IcnStudy::run` on the exact clustering path;
//! its per-layer prints must equal the untraced job's.

use crate::rss;
use crate::workloads::{self, Inputs, Job, Print, Workload};
use icn_cluster::{agglomerate_condensed, sweep_k, Condensed, Dendrogram, Linkage};
use icn_core::{classify_outdoor_with, cluster_profiles, filter_dead_rows, rsca, EnvCrosstab};
use icn_forest::{RandomForest, SoaForest, TrainSet};
use icn_synth::{Antenna, StudyCalendar};
use std::time::Instant;

/// One traced job: milliseconds per layer call, the whole job's wall,
/// work counts for the rate metrics, and the per-layer output print.
#[derive(Default)]
pub struct Trace {
    pub ms: Vec<(&'static str, f64)>,
    pub wall_ms: f64,
    pub cluster_rss_growth_mb: f64,
    pub trees: f64,
    pub samples: f64,
    pub records: f64,
    pub accepted: f64,
    pub print: Print,
}

impl Trace {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ms.push((name, t0.elapsed().as_secs_f64() * 1e3));
        out
    }

    /// Milliseconds spent in the named layer call (0 if it never ran).
    pub fn get(&self, name: &str) -> f64 {
        self.ms
            .iter()
            .filter(|(n, _)| *n == name)
            .fold(0.0, |sum, (_, v)| sum + v)
    }

    /// Job wall not covered by any layer span.
    pub fn unattributed_ms(&self) -> f64 {
        self.ms.iter().fold(self.wall_ms, |rest, (_, v)| rest - v)
    }
}

pub fn replay(w: &Workload, inputs: &Inputs) -> Trace {
    let mut t = Trace::default();
    let t0 = Instant::now();
    match w.job {
        Job::Study(cfg) => replay_study(&mut t, inputs, cfg),
        Job::Ingest { .. } => {
            let feed = inputs.feed.as_ref().expect("ingest feed");
            let result = t.span("ingest.run", || workloads::ingest(feed));
            t.records = result.records_consumed as f64;
            t.accepted = result.stats.ok as f64;
            t.print = vec![("ingest.run", workloads::h_ingest(&result))];
        }
    }
    t.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    t
}

fn replay_study(t: &mut Trace, inputs: &Inputs, cfg: icn_core::StudyConfig) {
    let ds = &inputs.dataset;
    let (t_live, live_rows, rsca_m) = t.span("core.transform", || {
        let (t_live, live_rows) = filter_dead_rows(&ds.indoor_totals);
        let rsca_m = rsca(&t_live);
        (t_live, live_rows, rsca_m)
    });

    let rss_before = rss::now_mb();
    rss::reset_peak();
    let cond = t.span("cluster.condensed", || {
        Condensed::from_rows(&rsca_m, Linkage::Ward.base_metric())
    });
    let history = t.span("cluster.agglomerate", || {
        agglomerate_condensed(&cond, Linkage::Ward)
    });
    let k_sweep = t.span("cluster.sweep", || {
        if cfg.run_k_sweep {
            let cond_eucl = cond.sqrt_values();
            sweep_k(
                &history,
                &cond_eucl,
                cfg.k_sweep_lo..=cfg.k_sweep_hi.min(history.n - 1),
            )
        } else {
            Vec::new()
        }
    });
    let (labels, labels_coarse, consolidation, profiles) = t.span("cluster.cut", || {
        let dendrogram = Dendrogram::from_history(&history);
        let labels = history.cut(cfg.k);
        let coarse = history.cut(cfg.k_coarse);
        let consolidation = dendrogram.consolidation(cfg.k, cfg.k_coarse);
        let profiles = cluster_profiles(&rsca_m, &labels, cfg.k);
        (labels, coarse, consolidation, profiles)
    });
    t.cluster_rss_growth_mb = rss::peak_mb() - rss_before;
    drop(cond);

    let (surrogate, ts) = t.span("forest.fit", || {
        let ts = TrainSet::new(rsca_m.clone(), labels.clone());
        (RandomForest::fit(&ts, &cfg.forest_config()), ts)
    });
    let (frozen, accuracy) = t.span("forest.predict", || {
        let frozen = SoaForest::from_forest(&surrogate);
        let preds = frozen.predict_batch(&ts.x);
        let hits = preds.iter().zip(&ts.y).filter(|(p, y)| p == y).count();
        (frozen, hits as f64 / ts.len() as f64)
    });
    let shap = t.span("shap.batch", || {
        icn_shap::forest_shap_batch_soa(&frozen, &rsca_m)
    });
    let explanations: Vec<_> = t.span("shap.explain", || {
        shap.iter()
            .enumerate()
            .map(|(c, s)| icn_shap::explain_class(s, &rsca_m, &labels, c))
            .collect()
    });
    drop(shap);
    t.trees = cfg.n_trees as f64;
    t.samples = rsca_m.rows() as f64;

    let live_antennas =
        || -> Vec<Antenna> { live_rows.iter().map(|&i| ds.antennas[i].clone()).collect() };
    let crosstab = t.span("core.env", || {
        EnvCrosstab::build(&live_antennas(), &labels, cfg.k)
    });
    let outdoor = t.span("core.outdoor", || {
        classify_outdoor_with(&ds.outdoor_totals, &t_live, &frozen)
    });

    let forecast = cfg.run_forecast.then(|| {
        let window = StudyCalendar::temporal_window();
        let series = t.span("forecast.series", || {
            let rows: Vec<&[f64]> = (0..t_live.rows()).map(|i| t_live.row(i)).collect();
            icn_forecast::study_cluster_series(
                &live_antennas(),
                &rows,
                &labels,
                cfg.k,
                &ds.services,
                StudyCalendar::paper_period().num_days(),
                &window,
                ds.root_rng(),
            )
        });
        t.span("forecast.fit", || {
            icn_forecast::forecast_series(&series, &window, &cfg.forecast_config())
        })
    });

    t.print = vec![
        (
            "core.transform",
            workloads::h_transform(&live_rows, &rsca_m),
        ),
        ("cluster.agglomerate", workloads::h_history(&history)),
        ("cluster.sweep", workloads::h_sweep(&k_sweep)),
        (
            "cluster.cut",
            workloads::h_cuts(&labels, &labels_coarse, &consolidation, &profiles),
        ),
        (
            "forest.fit",
            workloads::h_forest(accuracy, surrogate.oob_accuracy),
        ),
        ("shap.explain", workloads::h_shap(&explanations)),
        ("core.env", workloads::h_env(&crosstab)),
        ("core.outdoor", workloads::h_outdoor(&outdoor)),
        ("forecast.fit", workloads::h_forecast(forecast.as_ref())),
    ];
}
