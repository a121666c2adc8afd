//! Known-signal fixtures for the temporal toolkit (Section 6 figures).
//!
//! Rather than trusting the synthesiser end to end, these tests feed
//! hand-built signals whose rhythm, period, and peaks are known in closed
//! form — a pure 24 h sine, a weekday/weekend square wave, a heatmap with
//! a planted strike-day dip — and assert the exact statistic each
//! analysis function must read off.

use icn_repro::icn_core::{autocorrelation, Rhythm, TemporalHeatmap};
use icn_repro::prelude::*;

mod common;

const TAU: f64 = std::f64::consts::TAU;

/// A noiseless sine with a 24 h period peaking at `peak_hour` each day.
fn pure_sine(days: usize, peak_hour: usize) -> Vec<f64> {
    (0..days * 24)
        .map(|h| 10.0 + 5.0 * ((h as f64 - peak_hour as f64) / 24.0 * TAU).cos())
        .collect()
}

/// A weekly square wave: high on weekday working hours, low otherwise.
/// `start_weekday` is the weekday index (0 = Monday) of hour 0.
fn weekday_square(weeks: usize, start_weekday: usize) -> Vec<f64> {
    (0..weeks * 168)
        .map(|h| {
            let day = (start_weekday + h / 24) % 7;
            let hour = h % 24;
            if day < 5 && (8..=18).contains(&hour) {
                1.0
            } else {
                0.2
            }
        })
        .collect()
}

#[test]
fn sine_has_daily_rhythm_and_period_24() {
    let s = pure_sine(14, 18);
    // The biased sample ACF of an exact 24 h-periodic series is
    // (n − lag) / n at every multiple of the period.
    let n = s.len() as f64;
    for lag in [24usize, 48, 168] {
        let expected = (n - lag as f64) / n;
        let got = autocorrelation(&s, lag);
        assert!(
            (got - expected).abs() < 1e-9,
            "lag {lag}: acf {got} vs closed form {expected}"
        );
    }
    let rhythm = Rhythm::of(&s);
    // Bias makes the weekly coefficient top out at (n − 168)/n = 0.5 here.
    assert!(rhythm.daily > 0.9 && rhythm.weekly > 0.45);
}

#[test]
fn sine_peak_lands_on_the_planted_hour() {
    for peak in [6usize, 12, 18, 21] {
        let s = pure_sine(7, peak);
        let day = &s[..24];
        let argmax = (0..24)
            .max_by(|&a, &b| day[a].partial_cmp(&day[b]).unwrap())
            .unwrap();
        assert_eq!(argmax, peak, "planted peak hour not recovered");
    }
}

#[test]
fn square_wave_has_weekly_period_168() {
    let s = weekday_square(6, 0);
    let rhythm = Rhythm::of(&s);
    assert!(
        rhythm.weekly > rhythm.daily,
        "weekday/weekend structure repeats weekly, not daily: {rhythm:?}"
    );
    // At the weekly lag, the square wave realigns exactly.
    let n = s.len() as f64;
    assert!((autocorrelation(&s, 168) - (n - 168.0) / n).abs() < 1e-9);
}

/// Builds a heatmap directly from planted per-day/per-hour values over a
/// window starting Monday 2023-01-09 (so it contains the 2023-01-19
/// strike Thursday plus a peer Thursday on the 12th).
fn planted_heatmap(days: usize, value: impl Fn(usize, usize) -> f64) -> TemporalHeatmap {
    let window = common::probe_window(days);
    let values: Vec<Vec<f64>> = (0..days)
        .map(|d| (0..24).map(|h| value(d, h)).collect())
        .collect();
    TemporalHeatmap {
        window,
        values,
        n_antennas: 1,
    }
}

#[test]
fn strike_day_dip_is_read_off_exactly() {
    let window = common::probe_window(14);
    let strike = window.day_index(StudyCalendar::strike_day()).unwrap();
    // Flat unit traffic, except the strike Thursday runs at 30%.
    let hm = planted_heatmap(14, |d, _| if d == strike { 0.3 } else { 1.0 });
    let dip = hm.strike_dip();
    assert!(
        (dip - 0.3).abs() < 1e-12,
        "planted 0.3 dip, strike_dip() read {dip}"
    );
    // The flat control has no dip at all.
    let flat = planted_heatmap(14, |_, _| 1.0);
    assert!((flat.strike_dip() - 1.0).abs() < 1e-12);
}

#[test]
fn commute_peaks_dominate_planted_commuter_signal() {
    // Plant morning/evening commute peaks on every day; the commute ratio
    // is exactly peak/base on weekdays by construction.
    let hm = planted_heatmap(14, |_, h| {
        if [7, 8, 9, 17, 18, 19].contains(&h) {
            1.0
        } else {
            0.25
        }
    });
    assert!(
        (hm.commute_ratio() - 4.0).abs() < 1e-12,
        "commute ratio {} for a planted 4:1 peak",
        hm.commute_ratio()
    );
    // A flat profile scores exactly 1.
    let flat = planted_heatmap(14, |_, _| 0.7);
    assert!((flat.commute_ratio() - 1.0).abs() < 1e-12);

    // And the planted peak hours are literally the argmax hours.
    let day = hm.day(0);
    let argmax = (0..24)
        .max_by(|&a, &b| day[a].partial_cmp(&day[b]).unwrap())
        .unwrap();
    assert!([7, 8, 9, 17, 18, 19].contains(&argmax));
}

#[test]
fn weekend_ratio_reads_planted_weekend_share() {
    // Window starts on a Monday; days 5, 6, 12, 13 are weekends. Weekend
    // daytime runs at 20% of weekday daytime.
    let window = common::probe_window(14);
    let weekend: Vec<usize> = window
        .iter_days()
        .filter(|(_, date)| date.weekday().is_weekend())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(weekend, vec![5, 6, 12, 13]);
    let hm = planted_heatmap(14, |d, _| if weekend.contains(&d) { 0.2 } else { 1.0 });
    assert!(
        (hm.weekend_ratio() - 0.2).abs() < 1e-12,
        "weekend ratio {} for a planted 0.2 share",
        hm.weekend_ratio()
    );
}
