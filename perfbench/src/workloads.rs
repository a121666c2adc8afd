//! The four batch workloads: their inputs (set-up), the untraced job each
//! one times through the public entry points, and the checks on its output.

use icn_cluster::{ClusterPath, KQuality, MergeHistory};
use icn_core::{ClusterProfile, EnvCrosstab, IcnStudy, OutdoorComparison, StudyConfig};
use icn_forecast::ForecastReport;
use icn_ingest::{
    FaultConfig, FaultReport, HourlyRecord, IngestConfig, IngestPipeline, IngestResult,
    IngestSchema, QuarantineReason, RecordSource, SourceError,
};
use icn_shap::ClassExplanation;
use icn_stats::Matrix;
use icn_synth::{record_stream, Dataset, Date, StudyCalendar, SynthConfig};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["study", "cluster_wide", "forecast", "ingest_dirty"];

/// What a workload runs as its job.
#[derive(Clone, Copy, Debug)]
pub enum Job {
    /// `IcnStudy::run` with this configuration.
    Study(StudyConfig),
    /// A faulted feed over this many days, replayed through `IngestPipeline`.
    Ingest { days: usize, faults: FaultConfig },
}

/// One workload: a synthetic dataset scale, how many datasets one run
/// holds, and the job run on each.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub scale: f64,
    /// Datasets per run. Job cost and result quality vary from one
    /// dataset seed to the next (tree sizes follow how separable the
    /// clusters come out), so a run averages over several.
    pub inputs: usize,
    pub job: Job,
}

impl Workload {
    /// Dataset seed of input `i` in a run with `seed`: a run with a single
    /// input uses `seed` itself, and runs with distinct seeds never share
    /// a dataset.
    pub fn input_seed(&self, seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(self.inputs as u64).wrapping_add(i as u64)
    }
}

/// The named workload, at its benchmark size or at the tiny smoke size.
///
/// Every study workload forces `ClusterPath::Exact`: the traced replay
/// mirrors the exact path, and with `Auto` a change to the 12N² budget
/// model would switch `cluster_wide` (above ≈1.3× paper scale) to the
/// sampled path under the benchmark.
pub fn workload(name: &str, tiny: bool) -> Option<Workload> {
    let paper = StudyConfig {
        cluster_path: ClusterPath::Exact,
        ..StudyConfig::paper()
    };
    let (name, scale, tiny_scale, inputs, job) = match name {
        // Paper configuration (k = 9, 100 trees, k-sweep) on four datasets
        // at scale 0.25: forest fit and SHAP are most of the wall, stage 2
        // a few percent.
        "study" => ("study", 0.25, 0.03, 4, Job::Study(paper)),
        // Exact Ward + k-sweep at 1.5× paper scale with a 2-tree surrogate:
        // the distance matrices dominate both wall and peak RSS. Stage 2
        // costs the same on every dataset of a given size, so one will do.
        "cluster_wide" => (
            "cluster_wide",
            1.5,
            0.05,
            1,
            Job::Study(StudyConfig {
                n_trees: 2,
                ..paper
            }),
        ),
        // Stage 6 on (ETS, 24 h horizon), small surrogate, no sweep: the
        // series regeneration and the per-cluster model fits dominate. At
        // scale 0.25 ETS no longer reliably beats the seasonal-naive MAE.
        "forecast" => (
            "forecast",
            0.5,
            0.08,
            3,
            Job::Study(StudyConfig {
                n_trees: 10,
                run_k_sweep: false,
                run_forecast: true,
                ..paper
            }),
        ),
        // Duplicates and in-lateness reorders only: the rebuilt T must
        // stay bit-identical, and every duplicate must be quarantined.
        // One ~200 MB feed per run; ingest cost barely depends on the seed.
        "ingest_dirty" => (
            "ingest_dirty",
            0.25,
            0.02,
            1,
            Job::Ingest {
                days: if tiny { 1 } else { 3 },
                faults: FaultConfig {
                    duplicate: 0.02,
                    reorder: 0.1,
                    ..FaultConfig::default()
                },
            },
        ),
        _ => return None,
    };
    Some(Workload {
        name,
        scale: if tiny { tiny_scale } else { scale },
        inputs: if tiny { 1 } else { inputs },
        job,
    })
}

/// A materialised, faulted record feed.
pub struct Feed {
    pub schema: IngestSchema,
    pub records: Vec<HourlyRecord>,
    pub injected: FaultReport,
}

/// Everything a job reads; built in set-up, outside every job timing.
pub struct Inputs {
    pub dataset: Dataset,
    pub feed: Option<Feed>,
}

/// One set-up: the inputs plus the seconds spent generating the dataset
/// and building the feed (zero when the workload has none).
pub fn setup(w: &Workload, seed: u64) -> (Inputs, f64, f64) {
    let t0 = Instant::now();
    let dataset = Dataset::generate(SynthConfig::paper().with_scale(w.scale).with_seed(seed));
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let feed = match w.job {
        Job::Study(_) => None,
        Job::Ingest { days, faults } => Some(build_feed(&dataset, days, faults, seed)),
    };
    let feed_s = if feed.is_some() {
        t1.elapsed().as_secs_f64()
    } else {
        0.0
    };
    (Inputs { dataset, feed }, generate_s, feed_s)
}

fn build_feed(dataset: &Dataset, days: usize, faults: FaultConfig, seed: u64) -> Feed {
    let window = StudyCalendar::custom(Date::new(2023, 1, 9), days);
    let stream = record_stream(dataset, &window);
    let schema = stream.schema();
    let mut source = stream.with_faults(FaultConfig {
        seed: seed ^ 0xFA_017,
        ..faults
    });
    let mut records = Vec::new();
    loop {
        let chunk = source
            .next_chunk(FEED_PULL)
            .expect("the feed injects no source errors");
        if chunk.is_empty() {
            break;
        }
        records.extend(chunk);
    }
    Feed {
        schema,
        records,
        injected: source.report().clone(),
    }
}

/// Replays a materialised feed without copying it up front.
pub struct SliceSource<'a> {
    records: &'a [HourlyRecord],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    pub fn new(records: &'a [HourlyRecord]) -> Self {
        SliceSource { records, pos: 0 }
    }
}

impl RecordSource for SliceSource<'_> {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<HourlyRecord>, SourceError> {
        let end = (self.pos + max).min(self.records.len());
        let chunk = self.records[self.pos..end].to_vec();
        self.pos = end;
        Ok(chunk)
    }
}

/// A job's output.
pub enum Output {
    Study(Box<IcnStudy>),
    Ingest(IngestResult),
}

/// Runs the workload's job through the public entry points.
pub fn run_job(w: &Workload, inputs: &Inputs) -> Output {
    match w.job {
        Job::Study(cfg) => Output::Study(Box::new(IcnStudy::run(&inputs.dataset, cfg))),
        Job::Ingest { .. } => Output::Ingest(ingest(inputs.feed.as_ref().expect("ingest feed"))),
    }
}

/// Records per source pull when replaying the feed: a bulk replay. At the
/// 4,096-record default the per-pull validation threads made run-to-run
/// wall on a shared 2-vCPU host spread twice as wide.
const FEED_PULL: usize = 1 << 16;

/// `IngestPipeline` over the whole feed (shared by the job and the replay).
pub fn ingest(feed: &Feed) -> IngestResult {
    let config = IngestConfig {
        chunk_size: FEED_PULL,
        ..IngestConfig::default()
    };
    let mut pipe = IngestPipeline::new(feed.schema, config);
    pipe.run(&mut SliceSource::new(&feed.records))
        .expect("a slice source raises no errors");
    pipe.finish()
}

/// Per-layer output hashes of one job: equal prints mean equal outputs.
pub type Print = Vec<(&'static str, u64)>;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
    fn f(&mut self, x: f64) -> &mut Self {
        self.u(x.to_bits())
    }
    fn us(&mut self, xs: &[usize]) -> &mut Self {
        self.u(xs.len() as u64);
        for &x in xs {
            self.u(x as u64);
        }
        self
    }
    fn fs(&mut self, xs: &[f64]) -> &mut Self {
        self.u(xs.len() as u64);
        for &x in xs {
            self.f(x);
        }
        self
    }
}

pub fn h_transform(live_rows: &[usize], rsca: &Matrix) -> u64 {
    Fnv::new().us(live_rows).fs(rsca.as_slice()).0
}

pub fn h_history(h: &MergeHistory) -> u64 {
    let mut f = Fnv::new();
    f.u(h.n as u64);
    for m in &h.merges {
        f.u(m.a as u64).u(m.b as u64).f(m.height).u(m.size as u64);
    }
    f.0
}

pub fn h_sweep(sweep: &[KQuality]) -> u64 {
    let mut f = Fnv::new();
    for q in sweep {
        f.u(q.k as u64).f(q.silhouette).f(q.dunn);
    }
    f.0
}

pub fn h_cuts(
    labels: &[usize],
    coarse: &[usize],
    consolidation: &[usize],
    profiles: &[ClusterProfile],
) -> u64 {
    let mut f = Fnv::new();
    f.us(labels).us(coarse).us(consolidation);
    for p in profiles {
        f.u(p.cluster as u64).u(p.size as u64).fs(&p.mean_rsca);
    }
    f.0
}

pub fn h_forest(accuracy: f64, oob: Option<f64>) -> u64 {
    Fnv::new().f(accuracy).f(oob.unwrap_or(-1.0)).0
}

pub fn h_shap(explanations: &[ClassExplanation]) -> u64 {
    let mut f = Fnv::new();
    for e in explanations {
        f.u(e.class as u64);
        for i in &e.influences {
            f.u(i.feature as u64)
                .f(i.mean_abs_shap)
                .f(i.shap_value_correlation)
                .f(i.mean_shap_on_members);
        }
    }
    f.0
}

pub fn h_env(c: &EnvCrosstab) -> u64 {
    let mut f = Fnv::new();
    for row in &c.counts {
        f.us(row);
    }
    f.fs(&c.paris_share).0
}

pub fn h_outdoor(o: &OutdoorComparison) -> u64 {
    Fnv::new().us(&o.predicted).fs(&o.distribution).0
}

pub fn h_forecast(report: Option<&ForecastReport>) -> u64 {
    let mut f = Fnv::new();
    for c in report.map_or(&[][..], |r| &r.clusters) {
        f.u(c.cluster as u64).fs(&c.series).fs(&c.forecast);
        f.f(c.backtest.naive.mae)
            .f(c.backtest.ets.mae)
            .f(c.backtest.forest.mae);
        f.us(&c.anomalies.flagged);
    }
    f.0
}

pub fn h_ingest(r: &IngestResult) -> u64 {
    let mut f = Fnv::new();
    f.fs(r.totals.as_slice()).fs(&r.hourly_volume);
    f.u(r.records_consumed)
        .u(r.stats.ok)
        .u(r.stats.quarantined_total());
    f.0
}

/// The per-layer print of a job's output.
pub fn print(out: &Output) -> Print {
    match out {
        Output::Study(s) => vec![
            ("core.transform", h_transform(&s.live_rows, &s.rsca)),
            ("cluster.agglomerate", h_history(&s.history)),
            ("cluster.sweep", h_sweep(&s.k_sweep)),
            (
                "cluster.cut",
                h_cuts(&s.labels, &s.labels_coarse, &s.consolidation, &s.profiles),
            ),
            (
                "forest.fit",
                h_forest(s.surrogate_accuracy, s.surrogate_oob),
            ),
            ("shap.explain", h_shap(&s.explanations)),
            ("core.env", h_env(&s.crosstab)),
            ("core.outdoor", h_outdoor(&s.outdoor)),
            ("forecast.fit", h_forecast(s.forecast.as_ref())),
        ],
        Output::Ingest(r) => vec![("ingest.run", h_ingest(r))],
    }
}

/// Names the layers whose prints differ (empty when they all agree).
pub fn diff(got: &Print, want: &Print) -> Vec<&'static str> {
    let mut bad: Vec<&'static str> = got
        .iter()
        .filter(|(name, h)| want.iter().all(|(n, w)| n != name || w != h))
        .map(|&(name, _)| name)
        .collect();
    if got.len() != want.len() {
        bad.push("layer set");
    }
    bad
}

/// Checks a job's output: the workload's own invariants, and — when a
/// reference print is given — equality with it, layer by layer.
pub fn check(inputs: &Inputs, out: &Output, reference: Option<&Print>) -> Result<(), String> {
    match out {
        Output::Study(s) => check_study(inputs, s)?,
        Output::Ingest(r) => check_ingest(inputs, r)?,
    }
    if let Some(want) = reference {
        let bad = diff(&print(out), want);
        if !bad.is_empty() {
            return Err(format!("output differs from the reference in {bad:?}"));
        }
    }
    Ok(())
}

fn check_study(inputs: &Inputs, s: &IcnStudy) -> Result<(), String> {
    let cfg = &s.config;
    let k = cfg.k;
    let n = s.live_rows.len();
    let services = inputs.dataset.num_services();
    if s.labels.len() != n || s.labels.iter().any(|&l| l >= k) {
        return Err("labels do not cover the live rows with ids below k".into());
    }
    if s.history.n != n || s.history.merges.len() + 1 != n {
        return Err("merge history is not a full hierarchy of the live rows".into());
    }
    if s.explanations.len() != k
        || s.explanations
            .iter()
            .any(|e| e.influences.len() != services)
    {
        return Err("SHAP explanations do not cover k clusters × all services".into());
    }
    let outdoor_share: f64 = s.outdoor.distribution.iter().sum();
    if s.outdoor.predicted.len() != inputs.dataset.outdoor_totals.rows()
        || (outdoor_share - 1.0).abs() > 1e-9
    {
        return Err("outdoor predictions do not cover the outdoor antennas".into());
    }
    if cfg.run_k_sweep == s.k_sweep.is_empty() {
        return Err("k-sweep presence does not match the configuration".into());
    }
    match (&s.forecast, cfg.run_forecast) {
        (None, false) => Ok(()),
        (Some(r), true) => check_forecast(r, cfg.forecast_horizon),
        _ => Err("forecast presence does not match the configuration".into()),
    }
}

fn check_forecast(r: &ForecastReport, horizon: usize) -> Result<(), String> {
    if let Some(c) = r
        .clusters
        .iter()
        .find(|c| c.n_antennas > 0 && c.forecast.len() != horizon)
    {
        return Err(format!(
            "cluster {} has a {}-hour forecast, not {horizon}",
            c.cluster,
            c.forecast.len()
        ));
    }
    Ok(())
}

fn check_ingest(inputs: &Inputs, r: &IngestResult) -> Result<(), String> {
    let feed = inputs.feed.as_ref().expect("ingest feed");
    let batch = inputs.dataset.indoor_totals.as_slice();
    let diverging = r
        .totals
        .as_slice()
        .iter()
        .zip(batch)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    if r.totals.as_slice().len() != batch.len() || diverging != 0 {
        return Err(format!(
            "{diverging} cells of the streamed T diverge from the batch T"
        ));
    }
    let quarantined = r.stats.quarantined_for(QuarantineReason::DuplicateKey);
    if quarantined != feed.injected.duplicated || r.stats.quarantined_total() != quarantined {
        return Err(format!(
            "quarantined {} duplicates ({} in all) but {} were injected",
            quarantined,
            r.stats.quarantined_total(),
            feed.injected.duplicated
        ));
    }
    if r.records_consumed != feed.records.len() as u64 {
        return Err("the pipeline did not consume the whole feed".into());
    }
    Ok(())
}

/// Result-quality gauges of one output. `None` where the workload does
/// not produce the quantity.
#[derive(Default)]
pub struct Quality {
    /// ARI of the k-cut against the planted archetypes on the live rows.
    pub ari_planted: Option<f64>,
    pub surrogate_acc: Option<f64>,
    /// Mean rolling-origin ETS MAE as a share of the seasonal-naive MAE on
    /// the same backtest. The share, unlike the MAE in MB/h, does not move
    /// with the traffic level each dataset seed draws.
    pub forecast_mae: Option<f64>,
}

pub fn quality(inputs: &Inputs, out: &Output) -> Quality {
    let Output::Study(s) = out else {
        return Quality::default();
    };
    let planted = inputs.dataset.planted_labels();
    let live: Vec<usize> = s.live_rows.iter().map(|&i| planted[i]).collect();
    let backtest = s.forecast.as_ref().map(ForecastReport::mean_backtest);
    Quality {
        ari_planted: Some(icn_cluster::adjusted_rand_index(&s.labels, &live)),
        surrogate_acc: Some(s.surrogate_accuracy),
        forecast_mae: backtest.map(|b| b.ets.mae / b.naive.mae),
    }
}

/// Damages an output the way a wrong result would: one flipped label, or
/// one nudged cell of T. The smoke mode checks that this is caught.
pub fn corrupt(out: &mut Output) {
    match out {
        Output::Study(s) => {
            let k = s.config.k;
            s.labels[0] = (s.labels[0] + 1) % k;
        }
        Output::Ingest(r) => {
            let v = r.totals.get(0, 0);
            r.totals.set(0, 0, f64::from_bits(v.to_bits() ^ 1));
        }
    }
}
