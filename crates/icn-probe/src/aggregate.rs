//! Hourly aggregation and privacy suppression.
//!
//! The paper's probe data "is aggregated over time within intervals of one
//! hour" per BTS and service (Section 3), and the Ethics appendix stresses
//! that personal identifiers are deleted on aggregation and that the
//! spatio-temporal granularity prevents re-identification. This module is
//! that aggregation stage: it consumes classified session records, folds
//! them into an `(antenna, service, hour)` cube and the antenna × service
//! totals matrix, and optionally applies **k-suppression** — dropping
//! cells with fewer than `k` sessions, the standard guard against single
//! subscriber re-identification in released aggregates.

use crate::dpi::DpiLabel;
use crate::flows::SessionRecord;
use crate::uli::antenna_for_uli;
use icn_stats::Matrix;
use std::ops::Range;

/// The aggregated hourly measurement cube.
#[derive(Clone, Debug)]
pub struct HourlyCube {
    /// Size of the antenna id space ULIs resolve against.
    n_antennas: usize,
    /// Antenna rows held: all of `0..n_antennas`, or one worker's slab.
    rows: Range<usize>,
    n_services: usize,
    n_hours: usize,
    /// MB per (antenna, service, hour), flattened.
    mb: Vec<f64>,
    /// Session count per cell (for suppression decisions).
    sessions: Vec<u32>,
    /// Records dropped because the ULI could not be resolved.
    pub dropped_bad_uli: usize,
    /// Records dropped because DPI left them unclassified.
    pub dropped_unclassified: usize,
}

impl HourlyCube {
    /// Creates an empty cube.
    pub fn new(n_antennas: usize, n_services: usize, n_hours: usize) -> Self {
        Self::with_rows(0..n_antennas, n_antennas, n_services, n_hours)
    }

    /// Creates an empty slab holding only `antenna`'s service × hour rows,
    /// for a worker whose sessions all resolve to that antenna.
    pub(crate) fn slab(
        antenna: usize,
        n_antennas: usize,
        n_services: usize,
        n_hours: usize,
    ) -> Self {
        Self::with_rows(antenna..antenna + 1, n_antennas, n_services, n_hours)
    }

    fn with_rows(rows: Range<usize>, n_antennas: usize, n_services: usize, n_hours: usize) -> Self {
        let cells = rows.len() * n_services * n_hours;
        HourlyCube {
            n_antennas,
            rows,
            n_services,
            n_hours,
            mb: vec![0.0; cells],
            sessions: vec![0; cells],
            dropped_bad_uli: 0,
            dropped_unclassified: 0,
        }
    }

    #[inline]
    fn idx(&self, a: usize, s: usize, h: usize) -> usize {
        ((a - self.rows.start) * self.n_services + s) * self.n_hours + h
    }

    /// Ingests one classified record. Records with unresolvable ULIs or
    /// without a DPI label are counted and dropped — the probe cannot
    /// attribute them.
    pub fn ingest(&mut self, record: &SessionRecord, label: DpiLabel) {
        let Some(antenna) = antenna_for_uli(record.uli, self.n_antennas) else {
            self.dropped_bad_uli += 1;
            return;
        };
        let DpiLabel::Service(service) = label else {
            self.dropped_unclassified += 1;
            return;
        };
        assert!(
            self.rows.contains(&antenna),
            "ingest: antenna outside the cube's rows"
        );
        assert!(service < self.n_services, "ingest: bad service index");
        assert!(record.hour < self.n_hours, "ingest: hour out of window");
        let i = self.idx(antenna, service, record.hour);
        self.mb[i] += record.bytes_total() as f64 / 1e6;
        self.sessions[i] += 1;
    }

    /// Copies a worker's slab into its antenna's rows and adds its drop
    /// counters.
    pub(crate) fn add_slab(&mut self, slab: &HourlyCube) {
        assert_eq!(slab.n_services, self.n_services, "add_slab: service count");
        assert_eq!(slab.n_hours, self.n_hours, "add_slab: hour count");
        let lo = self.idx(slab.rows.start, 0, 0);
        let hi = lo + slab.mb.len();
        self.mb[lo..hi].copy_from_slice(&slab.mb);
        self.sessions[lo..hi].copy_from_slice(&slab.sessions);
        self.dropped_bad_uli += slab.dropped_bad_uli;
        self.dropped_unclassified += slab.dropped_unclassified;
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

    /// Folds hours away into the antenna × service totals matrix — the `T`
    /// the analysis pipeline consumes. Row `r` is antenna `rows.start + r`.
    pub fn totals_matrix(&self) -> Matrix {
        let mut t = Matrix::zeros(self.rows.len(), self.n_services);
        for (r, a) in self.rows.clone().enumerate() {
            for s in 0..self.n_services {
                let mut acc = 0.0;
                for h in 0..self.n_hours {
                    acc += self.mb[self.idx(a, s, h)];
                }
                t.set(r, s, acc);
            }
        }
        t
    }

    /// Hourly series of one antenna summed over services.
    pub fn antenna_series(&self, antenna: usize) -> Vec<f64> {
        (0..self.n_hours)
            .map(|h| {
                (0..self.n_services)
                    .map(|s| self.mb[self.idx(antenna, s, h)])
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::{Protocol, SessionRecord};
    use crate::uli::uli_for_antenna;

    fn mb(cube: &HourlyCube, a: usize, s: usize, h: usize) -> f64 {
        cube.mb[cube.idx(a, s, h)]
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
        let mut cube = HourlyCube::new(4, 3, 24);
        cube.ingest(&record(1, 2, 5, 10.0), DpiLabel::Service(2));
        cube.ingest(&record(1, 2, 5, 4.0), DpiLabel::Service(2));
        assert!((mb(&cube, 1, 2, 5) - 14.0).abs() < 1e-9);
        assert_eq!(cube.sessions[cube.idx(1, 2, 5)], 2);
        assert_eq!(mb(&cube, 0, 0, 0), 0.0);
    }

    #[test]
    fn dpi_label_overrides_ground_truth() {
        // The cube files bytes under the classifier's label, not truth —
        // that's how DPI confusion perturbs the downstream matrix.
        let mut cube = HourlyCube::new(2, 3, 1);
        cube.ingest(&record(0, 1, 0, 5.0), DpiLabel::Service(2));
        assert_eq!(mb(&cube, 0, 1, 0), 0.0);
        assert!((mb(&cube, 0, 2, 0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bad_uli_and_unclassified_dropped() {
        let mut cube = HourlyCube::new(2, 2, 1);
        // Antenna 5 does not exist in a 2-antenna cube.
        cube.ingest(&record(5, 0, 0, 1.0), DpiLabel::Service(0));
        cube.ingest(&record(0, 0, 0, 1.0), DpiLabel::Unclassified);
        assert_eq!(cube.dropped_bad_uli, 1);
        assert_eq!(cube.dropped_unclassified, 1);
        assert_eq!(cube.totals_matrix().total(), 0.0);
    }

    #[test]
    fn totals_matrix_folds_hours() {
        let mut cube = HourlyCube::new(2, 2, 3);
        cube.ingest(&record(0, 1, 0, 1.0), DpiLabel::Service(1));
        cube.ingest(&record(0, 1, 2, 2.0), DpiLabel::Service(1));
        let t = cube.totals_matrix();
        assert!((t.get(0, 1) - 3.0).abs() < 1e-9);
        assert_eq!(t.get(1, 0), 0.0);
    }

    #[test]
    fn suppression_zeroes_sparse_cells() {
        let mut cube = HourlyCube::new(1, 1, 2);
        // Hour 0: one session (sparse). Hour 1: three sessions.
        cube.ingest(&record(0, 0, 0, 9.0), DpiLabel::Service(0));
        for _ in 0..3 {
            cube.ingest(&record(0, 0, 1, 1.0), DpiLabel::Service(0));
        }
        let suppressed = cube.suppress_below(3);
        assert_eq!(suppressed, 1);
        assert_eq!(mb(&cube, 0, 0, 0), 0.0);
        assert!((mb(&cube, 0, 0, 1) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn slabs_add_up_to_the_directly_ingested_cube() {
        let records = [
            (record(0, 1, 0, 2.5), DpiLabel::Service(1)),
            (record(2, 0, 1, 4.0), DpiLabel::Service(2)),
            (record(2, 0, 1, 1.0), DpiLabel::Unclassified),
            (record(1, 2, 1, 3.0), DpiLabel::Service(2)),
        ];
        let mut direct = HourlyCube::new(3, 3, 2);
        let mut merged = HourlyCube::new(3, 3, 2);
        for a in 0..3 {
            let mut slab = HourlyCube::slab(a, 3, 3, 2);
            for (r, label) in records.iter().filter(|(r, _)| r.uli == uli_for_antenna(a)) {
                slab.ingest(r, *label);
            }
            merged.add_slab(&slab);
        }
        for (r, label) in &records {
            direct.ingest(r, *label);
        }
        assert_eq!(merged.mb, direct.mb);
        assert_eq!(merged.sessions, direct.sessions);
        assert_eq!(merged.session_count(), 3);
        assert_eq!(merged.dropped_unclassified, 1);
        assert_eq!(merged.totals_matrix(), direct.totals_matrix());
    }

    #[test]
    fn antenna_series_sums_services() {
        let mut cube = HourlyCube::new(1, 2, 2);
        cube.ingest(&record(0, 0, 0, 1.0), DpiLabel::Service(0));
        cube.ingest(&record(0, 1, 0, 2.0), DpiLabel::Service(1));
        cube.ingest(&record(0, 1, 1, 4.0), DpiLabel::Service(1));
        assert_eq!(cube.antenna_series(0), vec![3.0, 4.0]);
    }
}
