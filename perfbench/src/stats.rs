//! Order statistics and process counters.

/// Nearest-rank percentile `q_num/q_den` of an ascending slice — the
/// formula `sit_bench::harness` uses for its medians and p95s. Every
/// percentile this benchmark reports goes through here.
pub fn nearest_rank<T: Copy>(sorted: &[T], q_num: usize, q_den: usize) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * q_num).div_ceil(q_den);
    sorted[rank.max(1) - 1]
}

/// Nearest-rank median of unsorted floats.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 1, 2)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` (two `timeval`s
    // then fourteen `long`s on 64-bit Linux), and RUSAGE_SELF (0) is a
    // valid `who`; getrusage writes only into that struct.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // Linux reports ru_maxrss in KiB.
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_harness_formula() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 1, 2), 50);
        assert_eq!(nearest_rank(&v, 99, 100), 99);
        assert_eq!(nearest_rank(&v, 19, 20), 95);
        assert_eq!(nearest_rank(&[7u64], 99, 100), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
