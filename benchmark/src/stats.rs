//! Order statistics, the segment rule, the seeded shuffle and the output
//! checksum. Everything here is pure so the measurement rules have tests.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`pct` in 1..=99) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it (a tail
/// estimated from a handful of samples is noise, not a measurement).
pub fn percentile(sorted: &[u64], pct: usize) -> Option<u64> {
    let n = sorted.len();
    let rank = (pct * n).div_ceil(100).max(1);
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of a slice (mean of the middle pair for even lengths); 0 when
/// empty. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        if n < 2 {
            return v.first().copied().unwrap_or(0.0);
        }
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// One timed segment: how many units ran, how long the segment took, and
/// every unit's exact latency in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    pub units: u64,
    pub elapsed_ns: u64,
    pub lat_ns: Vec<u64>,
}

/// What one timed phase measured. `attempted` and `failed` count its
/// operations (errors, refused submits, wire statuses other than Ok).
#[derive(Debug, Default, Clone)]
pub struct Measured {
    pub segments: Vec<Segment>,
    pub tally: crate::report::Tally,
}

impl Segment {
    pub fn units_per_s(&self) -> f64 {
        self.units as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }
}

/// The value a twentieth of the way down from the best of `values`: the
/// third highest of 56 when `best_is_high`, the third lowest otherwise.
///
/// The reference host slows a program down by up to half for seconds at a
/// time (measured with a register-only spin loop, see the README) and never
/// speeds it up, so the median over segments moves with the host while the
/// best few segments stay put. One lucky segment does not set it either.
pub fn best_twentieth(values: &mut [f64], best_is_high: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let from_best = values.len().div_ceil(20) - 1;
    if best_is_high {
        values[values.len() - 1 - from_best]
    } else {
        values[from_best]
    }
}

/// Units per second in the best twentieth of segments.
pub fn throughput(segments: &[Segment]) -> f64 {
    best_twentieth(
        &mut segments
            .iter()
            .map(Segment::units_per_s)
            .collect::<Vec<_>>(),
        true,
    )
}

/// Median unit latency in nanoseconds in the best twentieth of segments:
/// each segment's own median first, then the best twentieth across segments.
pub fn latency_p50(segments: &[Segment]) -> f64 {
    let mut medians: Vec<f64> = segments
        .iter()
        .filter(|s| !s.lat_ns.is_empty())
        .map(|s| median(&mut s.lat_ns.iter().map(|&v| v as f64).collect::<Vec<_>>()))
        .collect();
    best_twentieth(&mut medians, false)
}

/// A tail percentile in nanoseconds over all samples pooled, or `None` when
/// fewer than ten samples lie beyond it.
pub fn tail_percentile(segments: &[Segment], pct: usize) -> Option<f64> {
    let mut pooled: Vec<u64> = segments
        .iter()
        .flat_map(|s| s.lat_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    percentile(&pooled, pct).map(|p| p as f64)
}

/// Plain median latency of all samples, in nanoseconds.
pub fn raw_median_ns(segments: &[Segment]) -> f64 {
    median(
        &mut segments
            .iter()
            .flat_map(|s| s.lat_ns.iter().map(|&v| v as f64))
            .collect::<Vec<_>>(),
    )
}

/// SplitMix64: the benchmark's own generator, so the shuffle depends on the
/// seed alone and not on any library's stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// FNV-1a over the bit patterns of an output, chained through `state`, so
/// two runs at one seed and SIMD level can be diffed by one number.
pub fn checksum(state: u64, out: &[f32]) -> u64 {
    let mut h = if state == 0 {
        0xCBF2_9CE4_8422_2325
    } else {
        state
    };
    for v in out {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Walks `lo..hi` forward then backward without repeating the end points,
/// so a finite correlated stream can be replayed for any length of time
/// with no discontinuity between consecutive units.
#[derive(Debug, Clone)]
pub struct PingPong {
    lo: usize,
    hi: usize,
    next: usize,
    forward: bool,
}

impl PingPong {
    pub fn new(lo: usize, hi: usize) -> Self {
        assert!(lo < hi, "empty unit range");
        PingPong {
            lo,
            hi,
            next: lo,
            forward: true,
        }
    }

    pub fn next_index(&mut self) -> usize {
        let cur = self.next;
        if self.hi - self.lo > 1 {
            if self.forward && cur + 1 == self.hi {
                self.forward = false;
            } else if !self.forward && cur == self.lo {
                self.forward = true;
            }
            self.next = if self.forward { cur + 1 } else { cur - 1 };
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&v, 50), None, "rank 10 leaves only 9 beyond");
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 50), Some(10));
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99), Some(990));
        assert_eq!(percentile(&v[..999], 99), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn host_stalls_do_not_move_the_result_while_a_few_segments_run_free() {
        let segment = |units, lat| Segment {
            units,
            elapsed_ns: 1_000_000_000,
            lat_ns: vec![lat; 5],
        };
        // 56 segments: 50 slowed by the host to various degrees, 6 free.
        let mut segs: Vec<Segment> = (0..50)
            .map(|i| segment(500 + 5 * i, 2000 - 5 * i))
            .collect();
        segs.extend((0..6).map(|_| segment(1000, 1000)));
        assert_eq!(throughput(&segs), 1000.0);
        assert_eq!(latency_p50(&segs), 1000.0);
        // One lucky segment does not set the result either.
        segs.push(segment(5000, 10));
        assert_eq!(throughput(&segs), 1000.0);
        assert_eq!(latency_p50(&segs), 1000.0);
    }

    #[test]
    fn best_twentieth_is_the_third_best_of_56_and_the_best_of_7() {
        let mut v: Vec<f64> = (1..=56).map(f64::from).collect();
        assert_eq!(best_twentieth(&mut v, true), 54.0);
        assert_eq!(best_twentieth(&mut v, false), 3.0);
        let mut v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(best_twentieth(&mut v, true), 7.0);
        assert_eq!(best_twentieth(&mut v, false), 1.0);
        assert_eq!(best_twentieth(&mut [4.0], true), 4.0);
        assert_eq!(best_twentieth(&mut [], true), 0.0);
    }

    #[test]
    fn tails_pool_all_segments_and_keep_the_ten_beyond_rule() {
        let segs: Vec<Segment> = (0..7)
            .map(|i| Segment {
                units: 8,
                elapsed_ns: 1,
                lat_ns: vec![i; 8],
            })
            .collect();
        // 56 pooled samples support a median but no 90th percentile.
        assert_eq!(tail_percentile(&segs, 50), Some(3.0));
        assert_eq!(tail_percentile(&segs, 90), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..100).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        shuffle(&mut c, 8);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "another seed, another order");
        assert_ne!(a, base);
        a.sort_unstable();
        assert_eq!(a, base, "a permutation loses nothing");
    }

    #[test]
    fn ping_pong_never_repeats_an_end_point() {
        let mut p = PingPong::new(2, 5);
        let walk: Vec<usize> = (0..9).map(|_| p.next_index()).collect();
        assert_eq!(walk, [2, 3, 4, 3, 2, 3, 4, 3, 2]);
        let mut single = PingPong::new(4, 5);
        assert_eq!([single.next_index(), single.next_index()], [4, 4]);
    }

    #[test]
    fn checksum_depends_on_every_bit_and_on_order() {
        let a = checksum(0, &[1.0, 2.0]);
        assert_eq!(a, checksum(0, &[1.0, 2.0]));
        assert_ne!(a, checksum(0, &[2.0, 1.0]));
        assert_ne!(checksum(0, &[0.0]), checksum(0, &[-0.0]));
        assert_eq!(checksum(checksum(0, &[1.0]), &[2.0]), a);
    }
}
