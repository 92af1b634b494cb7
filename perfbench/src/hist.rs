//! Latency recording at full resolution.
//!
//! [`Hist`] buckets nanosecond values exactly below 256 and, above, into
//! 128 sub-buckets per power of two, so no bucket is wider than 1/128
//! (0.8%) of its lower edge. `obs::Histogram`'s log2 buckets would
//! quantise p99 by 2x. [`Schedule`] maps an input index to the time it
//! was due under the open-loop rate.

use std::time::{Duration, Instant};

const EXACT: u64 = 256;
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = EXACT as usize + (64 - 8) * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // >= 8
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    EXACT as usize + (e as usize - 8) * SUB + sub
}

/// `[low, high)` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < EXACT as usize {
        return (i as u64, i as u64 + 1);
    }
    let e = (i - EXACT as usize) / SUB + 8;
    let sub = ((i - EXACT as usize) % SUB) as u64;
    let width = 1u64 << (e as u32 - SUB_BITS);
    let low = (SUB as u64 + sub) * width;
    (low, low.saturating_add(width))
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The bucket holding the sample of rank `ceil(q · n)`.
    fn rank_bucket(&self, q: f64) -> Option<usize> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(i);
            }
        }
        None
    }

    /// The `q`-quantile in nanoseconds: the midpoint of its bucket
    /// (exact below 256 ns). `0.0` when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        self.rank_bucket(q).map_or(0.0, |i| {
            let (low, high) = bounds(i);
            if high - low == 1 {
                low as f64
            } else {
                (low as f64 + high as f64) / 2.0
            }
        })
    }

    /// Samples in buckets above the one holding the `q`-quantile.
    pub fn beyond(&self, q: f64) -> u64 {
        self.rank_bucket(q)
            .map_or(0, |i| self.counts[i + 1..].iter().sum())
    }
}

/// The open-loop arrival schedule: input `first + k` is due at
/// `t0 + k / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub t0: Instant,
    pub first: u64,
    pub rate: f64,
}

impl Schedule {
    pub fn due(&self, index: u64) -> Instant {
        let k = index.saturating_sub(self.first);
        self.t0 + Duration::from_secs_f64(k as f64 / self.rate)
    }

    /// Inputs due at or before `now`, counted from `first`.
    pub fn due_by(&self, now: Instant) -> u64 {
        match now.checked_duration_since(self.t0) {
            Some(elapsed) => (elapsed.as_secs_f64() * self.rate).floor() as u64 + 1,
            None => 0,
        }
    }

    /// Latency of a result made from inputs `a` and `b` and returned at
    /// `returned`: measured from the due time of the later input, so a
    /// stall also counts against the inputs queued behind it. `None`
    /// when the later input predates the schedule.
    pub fn latency(&self, a: u64, b: u64, returned: Instant) -> Option<Duration> {
        let later = a.max(b);
        (later >= self.first).then(|| returned.saturating_duration_since(self.due(later)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_at_most_one_percent_wide() {
        for i in EXACT as usize..BUCKETS {
            let (low, high) = bounds(i);
            assert!((high - low) as f64 <= 0.01 * low as f64, "bucket {i}");
            assert_eq!(index(low), i);
            assert_eq!(index(high - 1), i);
        }
    }

    #[test]
    fn quantiles_resolve_a_ten_percent_change() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        for v in 1..=10_000u64 {
            a.record(v * 1_000);
            b.record(v * 1_100);
        }
        let (pa, pb) = (a.quantile_ns(0.99), b.quantile_ns(0.99));
        assert!((pa / 9_900_000.0 - 1.0).abs() < 0.01, "{pa}");
        assert!((pb / pa - 1.1).abs() < 0.02, "{pa} {pb}");
        assert_eq!(a.count(), 10_000);
        // Samples above p99's bucket: the 100 above rank 9_900, less
        // those sharing its bucket (65.5 µs wide here, 66 samples at most).
        let beyond = a.beyond(0.99);
        assert!((100 - 66..=100).contains(&beyond), "{beyond}");
    }

    #[test]
    fn latency_is_measured_from_the_later_inputs_due_time() {
        let t0 = Instant::now();
        // 1000 inputs/s from index 100: input 100 + k is due at k ms.
        let s = Schedule {
            t0,
            first: 100,
            rate: 1_000.0,
        };
        let ms = Duration::from_millis;
        assert_eq!(s.due(100), t0);
        assert_eq!(s.due(150), t0 + ms(50));
        // Returned at 70 ms; the later input (150) was due at 50 ms.
        assert_eq!(s.latency(120, 150, t0 + ms(70)), Some(ms(20)));
        assert_eq!(s.latency(150, 120, t0 + ms(70)), Some(ms(20)));
        // A partner from before the schedule does not matter.
        assert_eq!(s.latency(3, 110, t0 + ms(12)), Some(ms(2)));
        // Both inputs before the schedule: not a sample.
        assert_eq!(s.latency(3, 99, t0 + ms(12)), None);
        // Returned before due (impossible in practice) clamps to zero.
        assert_eq!(s.latency(100, 160, t0 + ms(1)), Some(Duration::ZERO));
        // Inputs 100..=109 are due by 9.5 ms.
        assert_eq!(s.due_by(t0 + Duration::from_micros(9_500)), 10);
    }
}
