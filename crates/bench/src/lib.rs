//! Shared harness code for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper. They share a common CLI (`--scale <f64>` to shrink the antenna
//! population, `--seed <u64>`, `--sweep` to enable the Figure 2 sweep,
//! `--metrics-out <path>` to export an [`icn_obs::BenchReport`],
//! `--trace-out <path>` for a Chrome trace) and common dataset/study
//! runners. An unknown flag or a bad value exits with status 2; a scale
//! whose totals matrices alone exceed physical memory exits with status 3
//! before anything is generated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use icn_core::{IcnStudy, StudyConfig};
use icn_obs::BenchReport;
use icn_synth::{Dataset, SynthConfig};

/// Parsed harness options.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Population scale (1.0 = the paper's 4,762 antennas).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Run the (slow) Figure 2 sweep.
    pub sweep: bool,
    /// Destination for the machine-readable metrics report, if any.
    pub metrics_out: Option<String>,
    /// Destination for the Chrome trace-event export, if any.
    pub trace_out: Option<String>,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scale: 1.0,
            seed: SynthConfig::default().seed,
            sweep: false,
            metrics_out: None,
            trace_out: None,
        }
    }
}

/// Parses the harness flags (program name excluded). Every flag but
/// `--sweep` takes a value; a missing or unparsable value, a scale that is
/// not a positive finite number, and any unknown argument are errors.
fn parse_args(args: &[String]) -> Result<HarnessOpts, String> {
    let mut opts = HarnessOpts::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--sweep" => opts.sweep = true,
            "--scale" => {
                let v = value()?;
                opts.scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--metrics-out" => opts.metrics_out = Some(value()?.clone()),
            "--trace-out" => opts.trace_out = Some(value()?.clone()),
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    Ok(opts)
}

/// Parses the process arguments with `parse_args`, exiting with status 2
/// on a usage error, and enables the global [`icn_obs`] registry when a
/// metrics or trace destination was requested (so the whole run is
/// traced; [`write_metrics`] writes it out).
pub fn parse_opts() -> HarnessOpts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| {
        eprintln!(
            "{e}\nflags: --scale <f64> --seed <u64> --sweep \
             --metrics-out <path> --trace-out <path>"
        );
        std::process::exit(2);
    });
    if opts.metrics_out.is_some() || opts.trace_out.is_some() {
        icn_obs::global().enable();
    }
    opts
}

/// Writes the accumulated metrics to `opts.metrics_out` and/or the
/// Chrome trace to `opts.trace_out` (no-op when neither flag was given).
/// Call once, at the end of the binary.
pub fn write_metrics(opts: &HarnessOpts, run_id: &str) {
    if opts.metrics_out.is_none() && opts.trace_out.is_none() {
        return;
    }
    let snap = icn_obs::global().snapshot();
    if let Some(path) = &opts.metrics_out {
        let report = BenchReport::build(&snap, run_id, opts.scale);
        match report.write_to_file(path) {
            Ok(()) => eprintln!("metrics written to {path}"),
            Err(e) => {
                eprintln!("failed to write metrics to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        match icn_obs::write_chrome_trace(&snap, path) {
            Ok(()) => eprintln!("chrome trace written to {path}"),
            Err(e) => {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Exits with status 3, naming both numbers, when the totals matrices
/// of `config` alone exceed physical memory
/// ([`SynthConfig::check_fits`]): a harness refuses an unfit `--scale`
/// before it generates anything.
pub fn refuse_unfit(config: &SynthConfig) {
    if let Err(e) = config.check_fits(None) {
        eprintln!("{e}");
        std::process::exit(3);
    }
}

/// Generates the dataset for the harness options, after
/// [`refuse_unfit`].
pub fn dataset(opts: &HarnessOpts) -> Dataset {
    let config = SynthConfig::paper()
        .with_scale(opts.scale)
        .with_seed(opts.seed);
    refuse_unfit(&config);
    Dataset::generate(config)
}

/// Runs the full study (with or without the k-sweep).
pub fn study(ds: &Dataset, opts: &HarnessOpts) -> IcnStudy {
    let config = StudyConfig {
        run_k_sweep: opts.sweep,
        ..StudyConfig::paper()
    };
    IcnStudy::run(ds, config)
}

/// Prints the standard harness banner.
pub fn banner(what: &str, ds: &Dataset) {
    println!(
        "=== {what} ===\n(scale {:.3}: {} indoor antennas, {} services, {} outdoor)\n",
        ds.config.scale,
        ds.num_antennas(),
        ds.num_services(),
        ds.outdoor.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_paper_scale() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.scale, 1.0);
        assert_eq!(o.seed, HarnessOpts::default().seed);
        assert!(!o.sweep);
        assert!(o.metrics_out.is_none() && o.trace_out.is_none());
    }

    #[test]
    fn parses_every_flag() {
        let o = parse_args(&args(&[
            "--scale",
            "0.1",
            "--seed",
            "7",
            "--sweep",
            "--metrics-out",
            "m.json",
            "--trace-out",
            "t.json",
        ]))
        .unwrap();
        assert_eq!(o.scale, 0.1);
        assert_eq!(o.seed, 7);
        assert!(o.sweep);
        assert_eq!(o.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        for bad in [
            &["--scal", "0.1"][..],
            &["0.1"],
            &["--scale", "x"],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "nan"],
            &["--scale", "inf"],
            &["--seed", "-3"],
            &["--scale"],
            &["--metrics-out"],
            &["--sweep", "--trace-out"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn small_dataset_and_study_roundtrip() {
        let opts = HarnessOpts {
            scale: 0.04,
            ..HarnessOpts::default()
        };
        let ds = dataset(&opts);
        assert!(ds.num_antennas() > 50);
        let st = study(&ds, &opts);
        assert_eq!(st.cluster_sizes().len(), 9);
    }
}
