//! Log-linear latency recorder.
//!
//! Values (nanoseconds) below 128 get one bucket each; above that, every
//! power-of-two range is split into 64 equal sub-buckets, so a bucket is at
//! most 1/64 of its lower edge wide. A percentile is reported as the
//! midpoint of the bucket that holds the requested rank, which puts it
//! within 1/128 (< 1%) of the exact sample value.

/// Sub-bucket precision: 2^SUB_BITS buckets below the first split.
use std::time::Duration;

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const HALF: u64 = SUB / 2;
/// Enough buckets for any `u64`.
const BUCKETS: usize = ((64 - SUB_BITS as usize + 1) * HALF as usize) + HALF as usize;

/// A mergeable latency histogram with bounded relative error.
#[derive(Clone)]
pub struct Recorder {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS + 1;
    (shift as u64 * HALF + (v >> shift)) as usize
}

/// The inclusive value range `[lo, hi]` a bucket covers.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i);
    }
    let shift = i / HALF - 1;
    let sub = i - shift * HALF;
    let lo = sub << shift;
    (lo, lo + ((1u64 << shift) - 1))
}

impl Recorder {
    /// Record one value in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    /// Record an elapsed duration.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Recorder) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds: the sample of rank
    /// `ceil(q·n)` in sorted order, to within the bucket error. 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bounds(i);
                // Every sample is ≤ max, so clamping only removes error.
                return ((lo as f64 + hi as f64) / 2.0).min(self.max as f64);
            }
        }
        self.max as f64
    }

    /// Samples strictly above the `q`-quantile's rank (how many samples a
    /// reported percentile rests on).
    pub fn beyond(&self, q: f64) -> u64 {
        let rank = ((q * self.total as f64).ceil() as u64).min(self.total);
        self.total - rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_value_range() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bounds(i);
            assert_eq!(lo, next, "bucket {i} starts where the previous ended");
            assert_eq!(index(lo), i);
            assert_eq!(index(hi), i);
            if hi == u64::MAX {
                return;
            }
            next = hi + 1;
        }
        panic!("buckets do not reach u64::MAX");
    }

    #[test]
    fn percentiles_match_sorted_samples_within_one_percent() {
        let mut rng = Rng::new(7);
        for shape in 0..4u64 {
            let mut rec = Recorder::default();
            let mut samples = Vec::new();
            for _ in 0..50_000 {
                // Latency-like: a body around tens of microseconds with a
                // heavy tail several orders of magnitude out.
                let base = 20_000 + rng.below(40_000 << shape);
                let v = if rng.below(100) == 0 {
                    base * (10 + rng.below(500))
                } else {
                    base
                };
                rec.record(v);
                samples.push(v);
            }
            samples.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999] {
                let want = exact(&samples, q);
                let got = rec.quantile(q);
                let err = (got - want).abs() / want;
                assert!(err <= 0.01, "shape {shape} q {q}: got {got}, exact {want}");
            }
            assert_eq!(rec.count(), samples.len() as u64);
        }
    }

    #[test]
    fn small_values_are_exact_and_merge_adds() {
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        for v in 1..=100u64 {
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.quantile(0.5), 50.0);
        assert_eq!(a.quantile(0.99), 99.0);
        assert_eq!(a.beyond(0.99), 1);
    }
}
