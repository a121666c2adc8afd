//! Bounded ring-buffer structured event log with levels and an `ICN_LOG`
//! filter.
//!
//! Library code emits structured records through [`crate::Registry::log`]
//! (or the [`crate::obs_log!`] convenience macro). Records are only
//! retained while the registry is collecting — with the registry disabled
//! the log path is the same single-relaxed-load no-op as every other
//! mutator, preserving the overhead-guard contract.
//!
//! The `ICN_LOG` environment variable filters what is kept, with the
//! familiar `level[,target=level]*` grammar:
//!
//! ```text
//! ICN_LOG=debug                 # keep debug and above for every target
//! ICN_LOG=warn,ingest=trace     # warn+ globally, everything for ingest
//! ICN_LOG=off                   # keep nothing
//! ```
//!
//! When `ICN_LOG` is set explicitly, matching records are additionally
//! echoed to stderr as they happen (like `env_logger`); when unset, the
//! default filter is `info` and records are only retained in the ring
//! buffer (capacity [`LOG_CAPACITY`]; the oldest records are dropped and
//! counted once full). The retained records ride along in registry
//! snapshots and appear as instant events in the Chrome trace export.

use std::time::Duration;

/// Maximum number of retained log records; older records are dropped
/// (and the drop count reported in [`crate::Snapshot::logs_dropped`]).
pub(crate) const LOG_CAPACITY: usize = 4096;

/// Log severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-affecting problems.
    Error,
    /// Suspicious conditions (quarantines, retries).
    Warn,
    /// Stage-level progress.
    Info,
    /// Chunk-level detail.
    Debug,
    /// Everything.
    Trace,
}

impl Level {
    /// Lower-case name (`"warn"`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name (case-insensitive). `None` for unknown names.
    pub(crate) fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

/// One retained log record.
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord {
    /// Monotonic sequence number (never reset within a process).
    pub seq: u64,
    /// Severity.
    pub level: Level,
    /// Subsystem target (`"ingest"`, `"pipeline"`, …).
    pub target: String,
    /// Preformatted message.
    pub message: String,
    /// Offset from the registry epoch.
    pub at: Duration,
    /// Dense thread index (same numbering as [`crate::SpanData::thread`]).
    pub thread: u64,
}

/// A parsed `ICN_LOG` filter: a default maximum level plus per-target
/// overrides (longest matching target prefix wins).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LogFilter {
    /// Maximum level kept for targets without an override; `None` = off.
    pub default: Option<Level>,
    /// `(target, max level)` overrides; `None` silences the target.
    pub targets: Vec<(String, Option<Level>)>,
    /// Whether matching records are echoed to stderr as they happen.
    pub echo: bool,
}

impl LogFilter {
    /// The filter used when `ICN_LOG` is unset: keep `info` and above,
    /// no stderr echo.
    fn default_filter() -> LogFilter {
        LogFilter {
            default: Some(Level::Info),
            targets: Vec::new(),
            echo: false,
        }
    }

    /// Parses an `ICN_LOG` specification (`level[,target=level]*`;
    /// `off`/`none` silence). Unknown level names fall back to the
    /// default filter's level rather than erroring — observability must
    /// never take a process down.
    fn from_spec(spec: &str) -> LogFilter {
        let mut filter = LogFilter {
            default: Some(Level::Info),
            targets: Vec::new(),
            echo: true,
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                Some((target, level)) => {
                    let lv = match level.trim().to_ascii_lowercase().as_str() {
                        "off" | "none" => None,
                        other => Level::parse(other).map(Some).unwrap_or(Some(Level::Info)),
                    };
                    filter.targets.push((target.trim().to_string(), lv));
                }
                None => {
                    filter.default = match part.to_ascii_lowercase().as_str() {
                        "off" | "none" => None,
                        other => Level::parse(other).map(Some).unwrap_or(Some(Level::Info)),
                    };
                }
            }
        }
        filter
    }

    /// Reads the process-wide filter from `ICN_LOG` (cached after the
    /// first call).
    pub(crate) fn from_env() -> &'static LogFilter {
        static FILTER: std::sync::OnceLock<LogFilter> = std::sync::OnceLock::new();
        FILTER.get_or_init(|| match std::env::var("ICN_LOG") {
            Ok(spec) => LogFilter::from_spec(&spec),
            Err(_) => LogFilter::default_filter(),
        })
    }

    /// Whether a record at `level` for `target` passes the filter.
    pub(crate) fn enabled(&self, level: Level, target: &str) -> bool {
        let mut best: Option<&(String, Option<Level>)> = None;
        for entry in &self.targets {
            let longer = match best {
                Some(b) => entry.0.len() > b.0.len(),
                None => true,
            };
            if longer && target.starts_with(entry.0.as_str()) {
                best = Some(entry);
            }
        }
        let max = match best {
            Some((_, lv)) => *lv,
            None => self.default,
        };
        max.is_some_and(|m| level <= m)
    }
}

/// Emits a structured log record to the global registry. The message is
/// only formatted when the registry is collecting — with observability
/// disabled this compiles down to one relaxed atomic load.
///
/// ```
/// icn_obs::obs_log!(Warn, "ingest", "quarantined {} records", 3);
/// ```
#[macro_export]
macro_rules! obs_log {
    ($level:ident, $target:expr, $($arg:tt)*) => {
        if $crate::global().is_enabled() {
            $crate::global().log($crate::Level::$level, $target, &format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_is_severity_first() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn default_filter_keeps_info_and_above() {
        let f = LogFilter::default_filter();
        assert!(f.enabled(Level::Error, "any"));
        assert!(f.enabled(Level::Info, "any"));
        assert!(!f.enabled(Level::Debug, "any"));
        assert!(!f.echo);
    }

    #[test]
    fn spec_with_target_overrides() {
        let f = LogFilter::from_spec("warn,ingest=trace,shap=off");
        assert!(f.echo);
        assert!(f.enabled(Level::Warn, "pipeline"));
        assert!(!f.enabled(Level::Info, "pipeline"));
        assert!(f.enabled(Level::Trace, "ingest"));
        assert!(!f.enabled(Level::Error, "shap"));
    }

    #[test]
    fn longest_target_prefix_wins() {
        let f = LogFilter::from_spec("info,ingest=off,ingest.seal=debug");
        assert!(!f.enabled(Level::Error, "ingest"));
        assert!(f.enabled(Level::Debug, "ingest.seal"));
    }

    #[test]
    fn off_and_garbage_specs() {
        assert!(!LogFilter::from_spec("off").enabled(Level::Error, "x"));
        // Unknown level names degrade to info rather than erroring.
        let f = LogFilter::from_spec("nonsense");
        assert!(f.enabled(Level::Info, "x"));
        assert!(!f.enabled(Level::Debug, "x"));
    }

    #[test]
    fn level_names_round_trip() {
        for lv in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(lv.name()), Some(lv));
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
    }
}
