//! The benchmark's own arithmetic: percentiles that carry their
//! sample counts, and due-time latency for the open loop. Unit-tested below, because a wrong
//! percentile or a latency timed from the send instead of the due
//! time would make every figure the benchmark prints wrong.

use std::time::{Duration, Instant};

/// One percentile of a sample set, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile asked for, in `0..=1`.
    pub q: f64,
    /// The sample at that rank (nearest-rank definition).
    pub value: f64,
    /// How many samples the set held.
    pub samples: usize,
    /// How many samples lie strictly above the rank.
    pub beyond: usize,
}

/// Nearest-rank percentile: the smallest sample with at least
/// `q * n` samples at or below it. `None` on an empty set.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        q,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median, as the benchmark reports it (nearest rank).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5).map(|p| p.value)
}

/// Samples that must lie beyond a tail percentile before it is more
/// than one unlucky sample.
pub const TAIL_MIN_BEYOND: usize = 10;

/// An open-loop send schedule: request `i` is due at
/// `start + i / rate`, whatever happened to earlier requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period: Duration,
}

impl Schedule {
    /// `rate` requests per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Schedule {
        Schedule {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period * i as u32
    }

    /// How many requests fall due within `window` of the start.
    pub fn count_within(&self, window: Duration) -> usize {
        (window.as_secs_f64() / self.period.as_secs_f64()).floor() as usize
    }
}

/// Latency of an open-loop request, timed from when it was due, so a
/// stall that delays later sends counts against every request it
/// delayed.
pub fn due_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// How late the generator sent a request (zero when on time).
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_rank_and_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&v, 0.99).unwrap();
        assert_eq!(p.value, 99.0);
        assert_eq!((p.samples, p.beyond), (100, 1));
        let p = percentile(&v, 0.5).unwrap();
        assert_eq!((p.value, p.beyond), (50.0, 50));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 0.9), percentile(&v, 0.9));
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(1.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 100.0); // one request every 10 ms
        assert_eq!(s.due(3) - t0, Duration::from_millis(30));
        assert_eq!(s.count_within(Duration::from_secs(2)), 200);
        // Request 0 stalls for 35 ms; requests 1..=3 could only be
        // sent once it returned, at 35 ms, and each took 1 ms.
        let stall_end = t0 + Duration::from_millis(35);
        assert_eq!(due_latency(s.due(0), stall_end).as_millis(), 35);
        let mut sent = stall_end;
        let mut lat = Vec::new();
        for i in 1..=3 {
            let done = sent + Duration::from_millis(1);
            lat.push(due_latency(s.due(i), done).as_millis());
            assert_eq!(
                lateness(s.due(i), sent),
                sent.saturating_duration_since(s.due(i))
            );
            sent = done;
        }
        // Timed from the send they would read 1 ms each; from the due
        // time they carry the wait the stall imposed on them.
        assert_eq!(lat, vec![26, 17, 8]);
        // A request sent early is not late.
        assert_eq!(lateness(s.due(5), t0), Duration::ZERO);
    }
}
