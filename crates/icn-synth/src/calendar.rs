//! Study-period calendar.
//!
//! The paper's measurement campaign runs from **21 November 2022** to
//! **24 January 2023** (65 days), and the temporal analysis of Section 6
//! zooms into **4–24 January 2023** (21 days). This module provides a
//! minimal proleptic-Gregorian date type (no external time crate needed; we
//! only ever handle this fixed window), weekday computation, and the special
//! days the paper calls out: weekends, the Christmas/New-Year holidays, and
//! the **national general strike of 19 January 2023** whose traffic collapse
//! is visible in Figure 10.
//!
//! The one-off days are calendar data: a calendar either plants them (the
//! strike, the holidays and the per-site event schedules drawn over it) or,
//! built by [`StudyCalendar::without_signals`], covers the same days with
//! none of them — the signal-free control of the anomaly detector.

/// Day of week.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Weekday {
    /// Monday.
    Mon,
    /// Tuesday.
    Tue,
    /// Wednesday.
    Wed,
    /// Thursday.
    Thu,
    /// Friday.
    Fri,
    /// Saturday.
    Sat,
    /// Sunday.
    Sun,
}

impl Weekday {
    /// True for Saturday and Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Sat | Weekday::Sun)
    }
}

/// A calendar date (proleptic Gregorian).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Date {
    /// Four-digit year.
    pub year: i32,
    /// Month, 1–12.
    pub month: u8,
    /// Day of month, 1–31.
    pub day: u8,
}

impl Date {
    /// Constructs a date, validating the month/day ranges.
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        assert!((1..=12).contains(&month), "Date: bad month {month}");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "Date: bad day {day} for {year}-{month:02}"
        );
        Date { year, month, day }
    }

    /// Days since 1970-01-01 (can be negative). Standard civil-days
    /// algorithm (Howard Hinnant's `days_from_civil`).
    fn days_from_epoch(&self) -> i64 {
        let y = if self.month <= 2 {
            self.year - 1
        } else {
            self.year
        } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe - 719_468
    }

    /// Date from days since the Unix epoch (inverse of
    /// [`Date::days_from_epoch`]).
    fn from_epoch_days(z: i64) -> Self {
        let z = z + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
        let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u8;
        Date::new((y + i64::from(m <= 2)) as i32, m, d)
    }

    /// Weekday of this date.
    pub fn weekday(&self) -> Weekday {
        // 1970-01-01 was a Thursday.
        let z = self.days_from_epoch().rem_euclid(7);
        match z {
            0 => Weekday::Thu,
            1 => Weekday::Fri,
            2 => Weekday::Sat,
            3 => Weekday::Sun,
            4 => Weekday::Mon,
            5 => Weekday::Tue,
            _ => Weekday::Wed,
        }
    }

    /// The date `n` days later (or earlier for negative `n`).
    fn plus_days(&self, n: i64) -> Date {
        Date::from_epoch_days(self.days_from_epoch() + n)
    }

    /// `YYYY-MM-DD` string.
    pub fn iso(&self) -> String {
        format!("{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => unreachable!("validated month"),
    }
}

/// The measurement study calendar: the recording period, the temporal-zoom
/// window of Section 6, and the special days.
#[derive(Clone, Debug)]
pub struct StudyCalendar {
    start: Date,
    days: usize,
    /// False on a [`StudyCalendar::without_signals`] control.
    signals: bool,
}

impl StudyCalendar {
    /// The paper's recording period: 2022-11-21 .. 2023-01-24 inclusive
    /// (65 days).
    pub fn paper_period() -> Self {
        StudyCalendar::custom(Date::new(2022, 11, 21), 65)
    }

    /// The temporal-analysis window of Section 6: 2023-01-04 .. 2023-01-24
    /// inclusive (21 days).
    pub fn temporal_window() -> Self {
        StudyCalendar::custom(Date::new(2023, 1, 4), 21)
    }

    /// A custom window (used by scaled-down tests).
    pub fn custom(start: Date, days: usize) -> Self {
        assert!(days > 0, "StudyCalendar: zero-length period");
        StudyCalendar {
            start,
            days,
            signals: true,
        }
    }

    /// The same days with every planted one-off removed: no strike, no
    /// holidays and no site events. Weekly structure (weekends, the Sunday
    /// dip) repeats every week and stays. Generating from this calendar
    /// re-synthesises the same antennas with the same totals and noise
    /// streams, minus the signals.
    pub fn without_signals(&self) -> StudyCalendar {
        StudyCalendar {
            signals: false,
            ..self.clone()
        }
    }

    /// True unless this calendar was built by
    /// [`StudyCalendar::without_signals`]. Only a calendar with signals
    /// plants the [`StudyCalendar::strike_day`], the
    /// [`StudyCalendar::is_holiday`] days and site events.
    pub(crate) fn has_signals(&self) -> bool {
        self.signals
    }

    /// First day of the period.
    pub fn start(&self) -> Date {
        self.start
    }

    /// Number of days in the period.
    pub fn num_days(&self) -> usize {
        self.days
    }

    /// Number of hourly slots (`num_days * 24`).
    pub fn num_hours(&self) -> usize {
        self.days * 24
    }

    /// Date of the `i`-th day of the period.
    pub fn date(&self, i: usize) -> Date {
        assert!(i < self.days, "StudyCalendar::date out of range");
        self.start.plus_days(i as i64)
    }

    /// Iterator over `(day_index, Date)`.
    pub fn iter_days(&self) -> impl Iterator<Item = (usize, Date)> + '_ {
        (0..self.days).map(move |i| (i, self.date(i)))
    }

    /// Day index of a date inside this period, if any.
    pub fn day_index(&self, d: Date) -> Option<usize> {
        let off = d.days_from_epoch() - self.start.days_from_epoch();
        if off >= 0 && (off as usize) < self.days {
            Some(off as usize)
        } else {
            None
        }
    }

    /// The national general strike day the paper highlights (19 Jan 2023).
    pub fn strike_day() -> Date {
        Date::new(2023, 1, 19)
    }

    /// True if `d` is a public-holiday-like day inside the period
    /// (Christmas, New Year) during which commute traffic collapses.
    pub(crate) fn is_holiday(d: Date) -> bool {
        matches!(
            (d.month, d.day),
            (12, 24) | (12, 25) | (12, 26) | (12, 31) | (1, 1)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icn_stats::check::{cases, len_in};
    use icn_stats::Rng;

    #[test]
    fn epoch_anchor() {
        assert_eq!(Date::new(1970, 1, 1).days_from_epoch(), 0);
        assert_eq!(Date::new(1970, 1, 2).days_from_epoch(), 1);
        assert_eq!(Date::new(1969, 12, 31).days_from_epoch(), -1);
    }

    #[test]
    fn round_trip_epoch_days() {
        for z in [-1000i64, 0, 1, 19_000, 19_500] {
            assert_eq!(Date::from_epoch_days(z).days_from_epoch(), z);
        }
    }

    #[test]
    fn known_weekdays() {
        // 2023-01-19 (the strike day) was a Thursday.
        assert_eq!(Date::new(2023, 1, 19).weekday(), Weekday::Thu);
        // 2022-11-21 (study start) was a Monday.
        assert_eq!(Date::new(2022, 11, 21).weekday(), Weekday::Mon);
        // 2023-01-07/08 is the weekend the paper mentions.
        assert!(Date::new(2023, 1, 7).weekday().is_weekend());
        assert!(Date::new(2023, 1, 8).weekday().is_weekend());
        assert!(!Date::new(2023, 1, 9).weekday().is_weekend());
    }

    #[test]
    fn leap_year_february() {
        assert_eq!(Date::new(2024, 2, 29).plus_days(1), Date::new(2024, 3, 1));
    }

    #[test]
    #[should_panic(expected = "bad day")]
    fn invalid_feb_29_panics() {
        Date::new(2023, 2, 29);
    }

    #[test]
    fn paper_period_covers_both_endpoints() {
        let cal = StudyCalendar::paper_period();
        assert_eq!(cal.date(0), Date::new(2022, 11, 21));
        assert_eq!(cal.date(cal.num_days() - 1), Date::new(2023, 1, 24));
        assert_eq!(cal.num_hours(), 65 * 24);
    }

    #[test]
    fn temporal_window_matches_section6() {
        let cal = StudyCalendar::temporal_window();
        assert_eq!(cal.date(0), Date::new(2023, 1, 4));
        assert_eq!(cal.date(20), Date::new(2023, 1, 24));
        assert!(cal.day_index(StudyCalendar::strike_day()).is_some());
    }

    #[test]
    fn day_index_inverse_of_date() {
        let cal = StudyCalendar::paper_period();
        for (i, d) in cal.iter_days() {
            assert_eq!(cal.day_index(d), Some(i));
        }
        assert_eq!(cal.day_index(Date::new(2022, 11, 20)), None);
        assert_eq!(cal.day_index(Date::new(2023, 1, 25)), None);
    }

    #[test]
    fn strike_inside_paper_period() {
        let cal = StudyCalendar::paper_period();
        assert!(cal.day_index(StudyCalendar::strike_day()).is_some());
    }

    #[test]
    fn holidays_recognised() {
        assert!(StudyCalendar::is_holiday(Date::new(2022, 12, 25)));
        assert!(StudyCalendar::is_holiday(Date::new(2023, 1, 1)));
        assert!(!StudyCalendar::is_holiday(Date::new(2023, 1, 19)));
    }

    #[test]
    fn without_signals_keeps_the_days() {
        let cal = StudyCalendar::temporal_window();
        let control = cal.without_signals();
        assert!(cal.has_signals() && !control.has_signals());
        assert_eq!(control.start(), cal.start());
        assert_eq!(control.num_days(), cal.num_days());
    }

    #[test]
    fn iso_format() {
        assert_eq!(Date::new(2023, 1, 4).iso(), "2023-01-04");
    }

    fn epoch_days_in(rng: &mut Rng, lo: i64, hi: i64) -> i64 {
        lo + rng.below((hi - lo) as u64) as i64
    }

    #[test]
    fn date_round_trip() {
        cases(32, |case, rng| {
            let z = epoch_days_in(rng, -200_000, 200_000);
            let d = Date::from_epoch_days(z);
            assert_eq!(d.days_from_epoch(), z, "case {case}");
        });
    }

    #[test]
    fn plus_days_is_additive() {
        cases(32, |case, rng| {
            let z = epoch_days_in(rng, -50_000, 50_000);
            let a = epoch_days_in(rng, -500, 500);
            let b = epoch_days_in(rng, -500, 500);
            let d = Date::from_epoch_days(z);
            assert_eq!(
                d.plus_days(a).plus_days(b),
                d.plus_days(a + b),
                "case {case}"
            );
        });
    }

    #[test]
    fn weekday_cycles_every_seven_days() {
        cases(32, |case, rng| {
            let d = Date::from_epoch_days(epoch_days_in(rng, -50_000, 50_000));
            assert_eq!(d.weekday(), d.plus_days(7).weekday(), "case {case}");
            assert_ne!(d.weekday(), d.plus_days(1).weekday(), "case {case}");
        });
    }

    #[test]
    fn calendar_day_index_consistent() {
        cases(32, |case, rng| {
            let start = epoch_days_in(rng, 18_000, 20_000);
            let days = len_in(rng, 1, 90);
            let cal = StudyCalendar::custom(Date::from_epoch_days(start), days);
            for i in (0..days).step_by(7) {
                assert_eq!(cal.day_index(cal.date(i)), Some(i), "case {case} day {i}");
            }
            assert_eq!(cal.num_hours(), days * 24, "case {case}");
        });
    }
}
