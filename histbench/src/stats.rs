//! Statistics rules shared by every phase: the percentile rule, open-loop
//! latency from the due time, span self time, and the capacity rule.

use std::time::Instant;

/// A percentile reading together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// The percentile actually reported (may be lower than asked for).
    pub pct: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Number of samples it was computed from.
    pub n: usize,
}

/// Linear-interpolated percentile of already sorted samples.
fn at(sorted: &[f64], pct: f64) -> f64 {
    let pos = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The percentile rule: reports `pct` when at least 10 samples lie beyond
/// it, otherwise the highest percentile that still has 10 samples beyond
/// it (never below the median). Returns `None` for no samples.
pub fn percentile(samples: &[f64], pct: f64) -> Option<Reading> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Samples beyond percentile p: n * (1 - p/100) >= 10.
    let supported = (100.0 * (1.0 - 10.0 / n as f64)).max(50.0);
    let pct = pct.min(supported);
    Some(Reading {
        pct,
        value: at(&sorted, pct),
        n,
    })
}

/// The median (always supported when there is at least one sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0).map(|r| r.value)
}

/// One open-loop request: when it was due, when the generator actually sent
/// it, and when its reply was complete.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSample {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl OpenLoopSample {
    /// Latency as a user sees it: from the due time, so a stalled
    /// generator or server charges its stall to every request behind it.
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }

    /// How late the generator sent the request.
    pub fn lateness_us(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }
}

/// A closed time interval `[start, end]` in microseconds since some origin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    pub start: f64,
    pub end: f64,
}

/// Self time of a span: its duration minus the union of its children's
/// intervals clipped to it (overlapping children are counted once).
pub fn self_time(span: Interval, children: &[Interval]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    (span.end - span.start - covered).max(0.0)
}

/// The outcome of one rung of an open-loop rate ladder.
#[derive(Clone, Debug)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency from the due time (see [`percentile`]), microseconds.
    pub p99_us: f64,
    /// Requests sent but unanswered at the end of the rung.
    pub backlog_end: usize,
    /// Whether every request of the rung was answered correctly.
    pub all_ok: bool,
}

/// Whether a rung meets the latency limit without a growing backlog: the
/// requests left unanswered at its end must fit in one limit's worth of
/// service at its rate.
pub fn rung_passes(r: &Rung, limit_us: f64) -> bool {
    r.all_ok && r.p99_us <= limit_us && r.backlog_end as f64 <= r.rate * limit_us / 1e6
}

/// The capacity rule: the highest rate that meets the tail-latency limit
/// with a bounded backlog. Between the highest passing rung and the rung
/// above it (which failed) the rate is interpolated where the tail latency
/// crosses the limit, so the reading is not quantized to the ladder. A
/// failed rung below a passing one is a transient stall, not overload
/// (overload never passes), so it does not cap the reading. `None` if no
/// rung passes.
pub fn capacity(rungs: &[Rung], limit_us: f64) -> Option<f64> {
    let passing = rungs.iter().rposition(|r| rung_passes(r, limit_us))? + 1;
    let ok = &rungs[passing - 1];
    let Some(fail) = rungs.get(passing) else {
        return Some(ok.rate);
    };
    // A failing rung with an in-limit p99 failed on backlog or errors: no
    // crossing to interpolate, the last passing rate stands.
    if fail.p99_us <= limit_us || !fail.all_ok {
        return Some(ok.rate);
    }
    let frac = ((limit_us - ok.p99_us) / (fail.p99_us - ok.p99_us)).clamp(0.0, 1.0);
    Some(ok.rate + (fail.rate - ok.rate) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let r = percentile(&v, 99.0).unwrap();
        assert_eq!(r.pct, 99.0);
        assert_eq!(r.n, 1000);
        assert!((r.value - 990.01).abs() < 1e-6);
        // 200 samples support only p95 (10 beyond).
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let r = percentile(&v, 99.0).unwrap();
        assert!((r.pct - 95.0).abs() < 1e-9);
        // Tiny samples fall back to the median, never below it.
        let r = percentile(&[3.0, 1.0, 2.0], 99.0).unwrap();
        assert_eq!((r.pct, r.value), (50.0, 2.0));
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        let s = OpenLoopSample {
            due,
            sent: due + Duration::from_micros(300),
            done: due + Duration::from_micros(1000),
        };
        assert!((s.latency_us() - 1000.0).abs() < 1.0);
        assert!((s.lateness_us() - 300.0).abs() < 1.0);
        // Sent early (never happens, but must not go negative).
        let early = OpenLoopSample {
            due: due + Duration::from_micros(5),
            sent: due,
            done: due,
        };
        assert_eq!(early.lateness_us(), 0.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let span = Interval {
            start: 0.0,
            end: 100.0,
        };
        let kids = [
            Interval {
                start: 10.0,
                end: 40.0,
            },
            Interval {
                start: 30.0,
                end: 50.0,
            },
            Interval {
                start: 90.0,
                end: 120.0,
            },
            Interval {
                start: 200.0,
                end: 300.0,
            },
        ];
        // Union inside the span: [10, 50] + [90, 100] = 50.
        assert!((self_time(span, &kids) - 50.0).abs() < 1e-9);
        assert_eq!(self_time(span, &[]), 100.0);
        let all = [Interval {
            start: -5.0,
            end: 105.0,
        }];
        assert_eq!(self_time(span, &all), 0.0);
    }

    fn rung(rate: f64, p99_us: f64, backlog_end: usize) -> Rung {
        Rung {
            rate,
            p99_us,
            backlog_end,
            all_ok: true,
        }
    }

    #[test]
    fn capacity_is_the_highest_passing_rung_interpolated() {
        let limit = 1000.0;
        let ladder = [
            rung(1000.0, 100.0, 0),
            rung(2000.0, 200.0, 0),
            rung(4000.0, 5800.0, 0),
        ];
        // Crossing at (1000-200)/(5800-200) = 1/7 of the way to 4000.
        let c = capacity(&ladder, limit).unwrap();
        assert!((c - (2000.0 + 2000.0 / 7.0)).abs() < 1e-6);
        // A growing backlog fails a rung even with a good p99: at
        // 2000/s a 1 ms limit tolerates 2 requests in flight.
        let ladder = [rung(1000.0, 100.0, 0), rung(2000.0, 200.0, 3)];
        assert_eq!(capacity(&ladder, limit), Some(1000.0));
        // A stalled rung below a passing one does not cap the reading.
        let ladder = [
            rung(1000.0, 100.0, 0),
            rung(2000.0, 2000.0, 0),
            rung(4000.0, 10.0, 0),
        ];
        assert_eq!(capacity(&ladder, limit), Some(4000.0));
        // Everything passes: the top rung.
        let ladder = [rung(1000.0, 100.0, 0), rung(2000.0, 200.0, 0)];
        assert_eq!(capacity(&ladder, limit), Some(2000.0));
        assert_eq!(capacity(&[rung(1000.0, 5000.0, 0)], limit), None);
    }
}
