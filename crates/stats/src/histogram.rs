//! The one latency statistic: a log-bucketed histogram.
//!
//! Every latency figure in the workspace — the engine's per-packet report,
//! the telemetry observers' per-destination and per-hop breakdowns, the
//! window deltas of a stream — is a [`LogHistogram`]: exact count, sum,
//! minimum and maximum, plus log-linear bucket counts for the percentiles,
//! in at most 15 KiB however long the run.
//!
//! # The estimator and its bound
//!
//! Values below 32 ps get a bucket each; above that every octave
//! `[2^e, 2^(e+1))` is split into 32 equal buckets. A quantile is found by
//! nearest rank and reported as its bucket's *upper* edge, clamped to the
//! exact maximum. With `x` the nearest-rank sample of the sorted samples,
//!
//! ```text
//! x <= quantile(q) <= min(x + x/32, max)
//! ```
//!
//! so a percentile never understates the exact one, overstates it by at
//! most 1/32 (3.125 %), and never exceeds a latency that was observed.
//! Mean, minimum, maximum and count carry no error at all.

use std::fmt;

use asynoc_kernel::Duration;

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per power of two.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// The bucket domain is closed: `bucket_of(u64::MAX)` is the last one.
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

fn bucket_of(value: u64) -> usize {
    if value < SUB {
        value as usize
    } else {
        let exponent = 63 - value.leading_zeros();
        let sub = (value >> (exponent - SUB_BITS)) - SUB;
        (SUB as u32 + (exponent - SUB_BITS) * SUB as u32) as usize + sub as usize
    }
}

fn bucket_high(bucket: usize) -> u64 {
    if bucket < SUB as usize {
        bucket as u64
    } else {
        let octave = (bucket as u64 - SUB) / SUB + SUB_BITS as u64;
        let sub = (bucket as u64 - SUB) % SUB;
        let width = 1u64 << (octave - SUB_BITS as u64);
        ((1u64 << octave) - 1) + (sub + 1) * width
    }
}

/// A log-linear histogram of latencies with exact aggregates.
///
/// Two histograms are equal exactly when they hold the same aggregates and
/// the same bucket counts, whatever order the samples arrived or were
/// [`merge`](LogHistogram::merge)d in.
///
/// # Examples
///
/// ```
/// use asynoc_kernel::Duration;
/// use asynoc_stats::LogHistogram;
///
/// let mut latency = LogHistogram::new();
/// for ps in [1_000u64, 2_000, 3_000] {
///     latency.record(Duration::from_ps(ps));
/// }
/// assert_eq!(latency.count(), 3);
/// assert_eq!(latency.mean(), Some(Duration::from_ps(2_000)));
/// assert_eq!(latency.max(), Some(Duration::from_ps(3_000)));
/// // The median's bucket is [1984, 2015]: at most 2 000 / 32 above it.
/// assert_eq!(latency.median(), Some(Duration::from_ps(2_015)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Counts up to the highest occupied bucket: empty, or ending non-zero.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram that grows to the largest sample it sees.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// An empty histogram holding its whole bucket range (1 920 counters,
    /// 15 KiB) up front, so that recording never allocates.
    #[must_use]
    pub fn preallocated() -> Self {
        LogHistogram {
            counts: Vec::with_capacity(BUCKETS),
            ..LogHistogram::default()
        }
    }

    /// Records one latency.
    pub fn record(&mut self, latency: Duration) {
        let value = latency.as_ps();
        let bucket = bucket_of(value);
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples, in picoseconds.
    #[must_use]
    pub fn sum_ps(&self) -> u128 {
        self.sum
    }

    /// Exact mean latency, rounded down to a picosecond; `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_ps((self.sum / u128::from(self.count)) as u64))
    }

    /// Exact smallest sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<Duration> {
        (self.count > 0).then_some(Duration::from_ps(self.min))
    }

    /// Exact largest sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<Duration> {
        (self.count > 0).then_some(Duration::from_ps(self.max))
    }

    /// The `q`-quantile by nearest rank, reported as the containing
    /// bucket's upper edge clamped to the exact maximum (see the
    /// [module docs](self) for the bound); `None` if empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        let bucket = self.counts.iter().position(|&n| {
            seen += n;
            seen >= rank
        });
        let edge = bucket.map_or(self.max, |bucket| bucket_high(bucket).min(self.max));
        Some(Duration::from_ps(edge))
    }

    /// Median latency.
    #[must_use]
    pub fn median(&self) -> Option<Duration> {
        self.quantile(0.5)
    }

    /// 99th-percentile latency.
    #[must_use]
    pub fn p99(&self) -> Option<Duration> {
        self.quantile(0.99)
    }

    /// Folds another histogram into this one: the result equals the
    /// histogram that recorded both sample sets itself.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The occupied buckets as `(bucket index, count)`, in index order.
    /// Together with [`count`](Self::count), [`sum_ps`](Self::sum_ps),
    /// [`min`](Self::min) and [`max`](Self::max) they are the histogram's
    /// whole state: [`from_parts`](Self::from_parts) rebuilds it.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(bucket, &n)| (bucket, n))
    }

    /// Rebuilds a histogram from its parts (`min`, `max`, `sum` in
    /// picoseconds). They come from outside the program — a stream file —
    /// so what `record` maintains is checked: bucket indices inside the
    /// closed domain and strictly increasing, no empty bucket listed,
    /// counts summing to `count`, `min` and `max` inside the first and last
    /// bucket, `sum` between `count * min` and `count * max`; else `None`.
    #[must_use]
    pub fn from_parts(
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
        buckets: impl IntoIterator<Item = (u64, u64)>,
    ) -> Option<LogHistogram> {
        let mut counts = Vec::new();
        let mut total = 0u64;
        for (bucket, n) in buckets {
            let bucket = usize::try_from(bucket).ok()?;
            if bucket >= BUCKETS || bucket < counts.len() || n == 0 {
                return None;
            }
            total = total.checked_add(n)?;
            counts.resize(bucket + 1, 0);
            counts[bucket] = n;
        }
        let consistent = if count == 0 {
            (sum, min, max) == (0, 0, 0)
        } else {
            let wide = |v: u64| u128::from(count) * u128::from(v);
            counts.iter().position(|&n| n > 0) == Some(bucket_of(min))
                && counts.len() == bucket_of(max) + 1
                && min <= max
                && (wide(min)..=wide(max)).contains(&sum)
        };
        (total == count && consistent).then_some(LogHistogram {
            counts,
            count,
            sum,
            min,
            max,
        })
    }

    /// The samples spread over `bins` equal-width bins spanning
    /// `[min, max]`, as `(low edge, high edge, count)` rows for display
    /// (the last bin is closed); each bucket is counted whole at the value
    /// a quantile would report for it. No rows if there are no samples.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    #[must_use]
    pub fn equal_width(&self, bins: u64) -> Vec<(Duration, Duration, u64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let span = (self.max - self.min).max(1);
        let edge = |bin: u64| Duration::from_ps(self.min + span * bin / bins);
        let mut rows: Vec<_> = (0..bins).map(|bin| (edge(bin), edge(bin + 1), 0)).collect();
        for (bucket, n) in self.buckets() {
            let offset = u128::from(bucket_high(bucket).min(self.max) - self.min);
            let bin = (offset * u128::from(bins) / (u128::from(span) + 1)) as usize;
            rows[bin].2 += n;
        }
        rows
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(f, "n={} mean={}", self.count, mean),
            None => write!(f, "n=0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynoc_kernel::SimRng;

    fn histogram(ps: &[u64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &p in ps {
            h.record(Duration::from_ps(p));
        }
        h
    }

    /// Exact nearest-rank percentile of a sample vector: what the engine
    /// reported while it still kept every sample, and the reference the
    /// estimator's bound is stated against.
    fn percentile(samples: &mut [u64], q: f64) -> u64 {
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
        samples[rank.min(samples.len() - 1)]
    }

    #[test]
    fn buckets_partition_the_whole_value_line() {
        assert_eq!(bucket_of(u64::MAX) + 1, BUCKETS);
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
        for bucket in 0..BUCKETS - 1 {
            let high = bucket_high(bucket);
            assert_eq!(bucket_of(high), bucket, "upper edge of {bucket}");
            assert_eq!(bucket_of(high + 1), bucket + 1, "start of {}", bucket + 1);
        }
    }

    #[test]
    fn quantiles_stay_inside_the_stated_bound() {
        let mut rng = SimRng::seed_from(0x010C_B0C5);
        for case in 0..10_000 {
            // Magnitudes from a few picoseconds to a few milliseconds.
            let spread = 1usize << rng.range_inclusive(3, 32);
            let len = rng.range_inclusive(1, 120);
            let mut samples: Vec<u64> = (0..len).map(|_| rng.index(spread) as u64).collect();
            let h = histogram(&samples);
            let max = h.max().unwrap().as_ps();
            for q in [0.5, 0.9, 0.99, 0.999] {
                let exact = percentile(&mut samples, q);
                let got = h.quantile(q).unwrap().as_ps();
                assert!(
                    exact <= got && got <= (exact + exact / 32).min(max),
                    "case {case} q={q}: exact {exact}, estimate {got}, max {max}"
                );
            }
        }
    }

    #[test]
    fn small_values_the_extremes_and_the_aggregates_are_exact() {
        let h = histogram(&[0, 1, 5, 31]);
        let ps = |d: Option<Duration>| d.map(Duration::as_ps);
        assert_eq!(ps(h.quantile(0.0)), Some(0));
        assert_eq!(ps(h.median()), Some(1));
        assert_eq!(ps(h.quantile(1.0)), Some(31));
        assert_eq!((ps(h.min()), ps(h.max())), (Some(0), Some(31)));
        // The top bucket's edge is past the largest sample: clamped.
        assert_eq!(ps(histogram(&[10, 1_000]).p99()), Some(1_000));

        let h = histogram(&[5, 1, 3, 2, 5]);
        assert_eq!((h.count(), h.sum_ps()), (5, 16));
        assert_eq!(ps(h.mean()), Some(3), "16 / 5, rounded down");
        assert_eq!(h.to_string(), "n=5 mean=3 ps");
        let big = histogram(&[u64::MAX / 2; 1_000]);
        assert_eq!(big.mean(), big.max(), "a u128 sum does not overflow");
    }

    #[test]
    fn an_empty_histogram_reports_nothing() {
        let h = LogHistogram::new();
        assert!(h.is_empty() && h.equal_width(4).is_empty());
        assert_eq!(
            (h.mean(), h.min(), h.max(), h.p99()),
            (None, None, None, None)
        );
        assert_eq!(h.to_string(), "n=0");
    }

    #[test]
    fn merging_equals_recording_everything_in_one() {
        let (a, b) = ([3u64, 700, 52_000], [9u64, 1_000_000]);
        let mut merged = histogram(&a);
        merged.merge(&histogram(&b));
        assert_eq!(merged, histogram(&[&a[..], &b[..]].concat()));
        let mut into_empty = LogHistogram::preallocated();
        into_empty.merge(&merged);
        into_empty.merge(&LogHistogram::new());
        assert_eq!(into_empty, merged);
    }

    #[test]
    fn parts_round_trip_and_only_recordable_parts_are_accepted() {
        let h = histogram(&[3, 700, 700, 52_000, u64::MAX]);
        let (n, sum, min, max) = (h.count, h.sum, h.min, h.max);
        let buckets: Vec<(u64, u64)> = h.buckets().map(|(b, n)| (b as u64, n)).collect();
        let build = |n, sum, min, max, buckets: &[(u64, u64)]| {
            LogHistogram::from_parts(n, sum, min, max, buckets.iter().copied())
        };
        assert_eq!(build(n, sum, min, max, &buckets), Some(h));
        assert_eq!(build(0, 0, 0, 0, &[]), Some(LogHistogram::new()));

        let with = |at: usize, pair| {
            let mut moved = buckets.clone();
            moved[at] = pair;
            moved
        };
        for (bad, why) in [
            (with(3, (BUCKETS as u64, 1)), "past the domain"),
            (with(3, (4_000_000_000_000_000, 1)), "far past the domain"),
            (with(1, buckets[0]), "not increasing"),
            (with(1, (buckets[1].0, 0)), "an empty bucket"),
            (with(1, (buckets[1].0, 3)), "counts do not sum to n"),
        ] {
            assert_eq!(build(n, sum, min, max, &bad), None, "{why}");
        }
        assert_eq!(build(n, sum, max, min, &buckets), None, "min above max");
        assert_eq!(
            build(n, sum, min + 1, max, &buckets),
            None,
            "min outside its bucket"
        );
        assert_eq!(
            build(n, sum, min, max / 2, &buckets),
            None,
            "max outside its bucket"
        );
        assert_eq!(build(n, 0, min, max, &buckets), None, "sum below n * min");
        assert_eq!(
            build(0, 0, 0, 1, &[]),
            None,
            "an empty histogram has no extremes"
        );
    }

    #[test]
    fn equal_width_bins_conserve_samples_and_partition_the_range() {
        let mut rng = SimRng::seed_from(7);
        for _case in 0..64 {
            let len = rng.range_inclusive(1, 199);
            let samples: Vec<u64> = (0..len).map(|_| rng.index(1_000_000) as u64).collect();
            let bins = rng.range_inclusive(1, 15);
            let h = histogram(&samples);
            let rows = h.equal_width(bins as u64);
            assert_eq!(rows.len(), bins);
            assert_eq!(rows.iter().map(|row| row.2).sum::<u64>(), h.count());
            assert_eq!(Some(rows[0].0), h.min());
            assert!(rows.windows(2).all(|pair| pair[0].1 == pair[1].0));
            assert_eq!(
                rows[bins - 1].1,
                h.max().unwrap().max(rows[0].0 + Duration::from_ps(1))
            );
        }
        let single = histogram(&[500, 500, 500]).equal_width(4);
        assert_eq!(
            single.iter().map(|row| row.2).collect::<Vec<_>>(),
            [3, 0, 0, 0]
        );
    }
}
