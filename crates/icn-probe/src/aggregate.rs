//! Hourly aggregation and privacy suppression.
//!
//! The paper's probe data "is aggregated over time within intervals of one
//! hour" per BTS and service (Section 3), and the Ethics appendix stresses
//! that personal identifiers are deleted on aggregation and that the
//! spatio-temporal granularity prevents re-identification. This module is
//! that aggregation stage for one antenna: it consumes the antenna's
//! classified session records, folds them into its service × hour cube,
//! optionally applies **k-suppression** — dropping cells with fewer than
//! `k` sessions, the standard guard against single subscriber
//! re-identification in released aggregates — and folds the hours away
//! into the antenna's row of the totals matrix.

use crate::dpi::DpiLabel;
use crate::flows::SessionRecord;
use crate::uli::antenna_for_uli;

/// One antenna's aggregated service × hour measurement cube.
#[derive(Clone, Debug)]
pub struct HourlyCube {
    /// The antenna whose records this cube aggregates.
    antenna: usize,
    /// Size of the antenna id space ULIs resolve against.
    n_antennas: usize,
    n_services: usize,
    n_hours: usize,
    /// MB per (service, hour), flattened.
    mb: Vec<f64>,
    /// Session count per cell (for suppression decisions).
    sessions: Vec<u32>,
    /// Records dropped because the ULI could not be resolved.
    pub dropped_bad_uli: usize,
    /// Records dropped because DPI left them unclassified.
    pub dropped_unclassified: usize,
}

impl HourlyCube {
    /// Creates an empty cube for `antenna`, one of `n_antennas`.
    pub fn new(antenna: usize, n_antennas: usize, n_services: usize, n_hours: usize) -> Self {
        let cells = n_services * n_hours;
        HourlyCube {
            antenna,
            n_antennas,
            n_services,
            n_hours,
            mb: vec![0.0; cells],
            sessions: vec![0; cells],
            dropped_bad_uli: 0,
            dropped_unclassified: 0,
        }
    }

    #[inline]
    fn idx(&self, s: usize, h: usize) -> usize {
        s * self.n_hours + h
    }

    /// Ingests one classified record. Records with unresolvable ULIs or
    /// without a DPI label are counted and dropped — the probe cannot
    /// attribute them.
    ///
    /// # Panics
    /// If the ULI resolves to another antenna than the cube's.
    pub fn ingest(&mut self, record: &SessionRecord, label: DpiLabel) {
        let Some(antenna) = antenna_for_uli(record.uli, self.n_antennas) else {
            self.dropped_bad_uli += 1;
            return;
        };
        let DpiLabel::Service(service) = label else {
            self.dropped_unclassified += 1;
            return;
        };
        assert_eq!(antenna, self.antenna, "ingest: record of another antenna");
        assert!(service < self.n_services, "ingest: bad service index");
        assert!(record.hour < self.n_hours, "ingest: hour out of window");
        let i = self.idx(service, record.hour);
        self.mb[i] += record.bytes_total() as f64 / 1e6;
        self.sessions[i] += 1;
    }

    /// Sessions aggregated into the cube (before any suppression).
    pub(crate) fn session_count(&self) -> usize {
        self.sessions.iter().map(|&n| n as usize).sum()
    }

    /// Applies k-suppression: zeroes every cell carrying fewer than
    /// `min_sessions` sessions. Returns the number of suppressed cells.
    pub(crate) fn suppress_below(&mut self, min_sessions: u32) -> usize {
        let mut suppressed = 0;
        for (mb, count) in self.mb.iter_mut().zip(&mut self.sessions) {
            if *count > 0 && *count < min_sessions {
                *mb = 0.0;
                *count = 0;
                suppressed += 1;
            }
        }
        suppressed
    }

    /// Folds hours away, in ascending order, into the antenna's row of the
    /// antenna × service totals matrix — the `T` the analysis pipeline
    /// consumes.
    pub fn totals_row(&self) -> Vec<f64> {
        self.mb
            .chunks_exact(self.n_hours)
            .map(|hours| {
                let mut acc = 0.0;
                for &v in hours {
                    acc += v;
                }
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{Protocol, SessionRecord};
    use crate::uli::uli_for_antenna;

    fn mb(cube: &HourlyCube, s: usize, h: usize) -> f64 {
        cube.mb[cube.idx(s, h)]
    }

    fn record(antenna: usize, service: usize, hour: usize, mb: f64) -> SessionRecord {
        SessionRecord {
            uli: uli_for_antenna(antenna),
            service,
            hour,
            bytes_down: (mb * 1e6) as u64,
            bytes_up: 0,
            protocol: Protocol::Tcp,
        }
    }

    #[test]
    fn ingestion_accumulates() {
        let mut cube = HourlyCube::new(1, 4, 3, 24);
        cube.ingest(&record(1, 2, 5, 10.0), DpiLabel::Service(2));
        cube.ingest(&record(1, 2, 5, 4.0), DpiLabel::Service(2));
        assert!((mb(&cube, 2, 5) - 14.0).abs() < 1e-9);
        assert_eq!(cube.sessions[cube.idx(2, 5)], 2);
        assert_eq!(cube.session_count(), 2);
        assert_eq!(mb(&cube, 0, 0), 0.0);
    }

    #[test]
    fn dpi_label_overrides_ground_truth() {
        // The cube files bytes under the classifier's label, not truth —
        // that's how DPI confusion perturbs the downstream matrix.
        let mut cube = HourlyCube::new(0, 2, 3, 1);
        cube.ingest(&record(0, 1, 0, 5.0), DpiLabel::Service(2));
        assert_eq!(mb(&cube, 1, 0), 0.0);
        assert!((mb(&cube, 2, 0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bad_uli_and_unclassified_dropped() {
        let mut cube = HourlyCube::new(0, 2, 2, 1);
        // Antenna 5 does not exist among 2 antennas.
        cube.ingest(&record(5, 0, 0, 1.0), DpiLabel::Service(0));
        cube.ingest(&record(0, 0, 0, 1.0), DpiLabel::Unclassified);
        assert_eq!(cube.dropped_bad_uli, 1);
        assert_eq!(cube.dropped_unclassified, 1);
        assert_eq!(cube.session_count(), 0);
        assert_eq!(cube.totals_row(), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "record of another antenna")]
    fn record_of_another_antenna_panics() {
        let mut cube = HourlyCube::new(0, 2, 2, 1);
        cube.ingest(&record(1, 0, 0, 1.0), DpiLabel::Service(0));
    }

    #[test]
    fn totals_row_folds_hours() {
        let mut cube = HourlyCube::new(0, 2, 2, 3);
        cube.ingest(&record(0, 1, 0, 1.0), DpiLabel::Service(1));
        cube.ingest(&record(0, 1, 2, 2.0), DpiLabel::Service(1));
        let row = cube.totals_row();
        assert!((row[1] - 3.0).abs() < 1e-9);
        assert_eq!(row[0], 0.0);
    }

    #[test]
    fn suppression_zeroes_sparse_cells() {
        let mut cube = HourlyCube::new(0, 1, 1, 2);
        // Hour 0: one session (sparse). Hour 1: three sessions.
        cube.ingest(&record(0, 0, 0, 9.0), DpiLabel::Service(0));
        for _ in 0..3 {
            cube.ingest(&record(0, 0, 1, 1.0), DpiLabel::Service(0));
        }
        let suppressed = cube.suppress_below(3);
        assert_eq!(suppressed, 1);
        assert_eq!(mb(&cube, 0, 0), 0.0);
        assert!((mb(&cube, 0, 1) - 3.0).abs() < 1e-9);
        assert_eq!(cube.session_count(), 3);
    }
}
