//! Order statistics and the few process-level readings the harness needs.

/// Nearest-rank percentile of `samples` (`q` in `0..=1`); the samples need
/// not be sorted. Nearest rank reports a value that was actually measured,
/// which is what a latency percentile should be.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the usual midpoint rule for even counts.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest sample: on a shared host, the repeat the neighbours
/// disturbed least.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The steady reading of a closed loop's per-solve times.
///
/// Solve `i` works on input `i % slots`. On a shared host the time of a
/// solve is its own cost plus whatever the neighbours took, and the
/// neighbours come and go on a scale of seconds: the fastest repeat of an
/// input is the one they disturbed least. This takes that fastest repeat
/// per input, then the median across inputs.
pub fn typical(times: &[f64], slots: usize) -> f64 {
    median(&best_per_slot(times, slots))
}

/// The fastest time of each input slot that was solved at least once.
pub fn best_per_slot(times: &[f64], slots: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; slots.min(times.len())];
    for (i, &t) in times.iter().enumerate() {
        let slot = i % slots;
        best[slot] = best[slot].min(t);
    }
    best
}

/// `VmHWM` (peak resident set) of this process in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable VmHWM line: {line}"))?;
    Ok(kib / 1024.0)
}

/// SplitMix64: the harness's own generator for sources and probe
/// frontiers, so `--seed` fixes them independently of the library's RNG.
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

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// the benchmark could resolve.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over a slice of `i64` — the per-solve answer digest that lets
/// the loops compare answers without retaining them.
pub fn digest_i64(values: &[i64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &v in values {
        h = (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 0.2), 1.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // ten samples: p90 is the 9th, p50 the 5th
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.9), 9.0);
        assert_eq!(percentile(&ten, 0.5), 5.0);
    }

    #[test]
    fn median_uses_midpoint_for_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn typical_is_the_median_of_each_inputs_fastest_repeat() {
        // three inputs, solved in turn: 0 1 2 0 1 2 0
        let times = [5.0, 2.0, 9.0, 4.0, 3.0, 7.0, 6.0];
        assert_eq!(best_per_slot(&times, 3), vec![4.0, 2.0, 7.0]);
        assert_eq!(typical(&times, 3), 4.0);
        // one input: the fastest solve
        assert_eq!(typical(&times, 1), 2.0);
        assert_eq!(fastest(&times), 2.0);
        // fewer solves than inputs: only the inputs that ran
        assert_eq!(best_per_slot(&times[..2], 3), vec![5.0, 2.0]);
    }

    #[test]
    fn splitmix_repeats_and_stays_in_range() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..100 {
            let x = a.below(17);
            assert_eq!(x, b.below(17));
            assert!(x < 17);
        }
    }

    #[test]
    fn digest_separates_neighbouring_answers() {
        assert_ne!(digest_i64(&[0, 1, -1]), digest_i64(&[0, 1, 1]));
        assert_eq!(digest_i64(&[0, 1, -1]), digest_i64(&[0, 1, -1]));
    }

    #[test]
    fn peak_rss_reads_a_positive_value() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
