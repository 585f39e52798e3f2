//! The benchmark's estimators: the quantile rule, the unit-min timing
//! rule and the digest hash. Pure functions, covered by the self-tests.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank quantile of `samples` (sorted here); `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Whether `n` samples support reporting quantile `q`: at least
/// [`TAIL_SAMPLES`] of them must lie beyond it. The benchmark reports
/// p95, which needs 200 samples; below that the metric is omitted, not
/// replaced by a lower percentile under the same name.
pub fn supports_quantile(n: usize, q: f64) -> bool {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n >= rank + TAIL_SAMPLES
}

/// `quantile` gated by `supports_quantile`.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    if supports_quantile(samples.len(), q) {
        quantile(samples, q)
    } else {
        None
    }
}

/// Median of `samples` (the mean of the two middle values when even).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The timing rule. `passes[p][u]` is the host time of unit `u` in pass
/// `p`; the estimate is the sum over units of the unit's fastest pass.
/// The sandbox's noise only adds time, so the minimum is the sample
/// least disturbed, and taking it per unit rather than per pass keeps
/// one slow stretch in a pass from spoiling the whole pass.
pub fn unit_min_sum(passes: &[Vec<u64>]) -> u64 {
    let Some(first) = passes.first() else {
        return 0;
    };
    (0..first.len())
        .map(|u| passes.iter().map(|pass| pass[u]).min().unwrap_or(0))
        .sum()
}

/// Times one call, in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let clock = std::time::Instant::now();
    let result = f();
    (clock.elapsed().as_nanos() as u64, result)
}

/// FNV-1a, 64 bit: the digest that makes "byte-identical" checkable.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// An empty hash.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes a string and a terminator, so that adjacent strings do not
    /// run together.
    pub fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(&[0xff]);
    }

    /// Hashes one number.
    pub fn number(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}
