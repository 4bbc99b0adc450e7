//! Streaming histograms: p50/p95/p99 without storing samples.
//!
//! [`StreamingHistogram`] keeps geometrically-spaced buckets (HDR-style):
//! bucket `i ≥ 1` covers `[f·g^(i-1), f·g^i)` for a growth factor `g`
//! above a fixed floor `f = 1e-6`, so ratios and sub-millisecond timings
//! resolve as finely as large values; zero (and anything below the
//! floor) lands in bucket 0, which reports 0.
//! Quantiles are read by walking the cumulative counts and reporting the
//! geometric midpoint of the bucket containing the target rank, so the
//! relative error of any quantile at or above the floor is bounded by
//! `√g − 1` (≈2.5% at the default `g = 1.05`) regardless of how many
//! samples streamed through. Memory is `O(log(max/f))` buckets — under a
//! thousand `u64`s up to 1e12 — and `observe` is O(1).

use serde::{Deserialize, Serialize};

/// Default bucket growth factor: ~2.5% worst-case relative quantile error.
pub const DEFAULT_GROWTH: f64 = 1.05;

/// Lower edge of the geometric buckets; smaller values share the zero
/// bucket.
const FLOOR: f64 = 1e-6;

/// A fixed-memory streaming histogram over non-negative values.
///
/// Non-finite and negative observations are ignored (they would poison
/// the bucket index); exact `count`/`sum`/`min`/`max` are tracked on the
/// side so the edges of the distribution are reported exactly.
#[derive(Debug, Clone)]
pub struct StreamingHistogram {
    growth: f64,
    inv_ln_growth: f64,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// A histogram with the default growth factor ([`DEFAULT_GROWTH`]).
    pub fn new() -> Self {
        Self::with_growth(DEFAULT_GROWTH)
    }

    /// A histogram with bucket boundaries growing by `growth` (> 1.0) per
    /// bucket; smaller growth → tighter quantiles, more buckets.
    pub fn with_growth(growth: f64) -> Self {
        assert!(growth > 1.0, "growth factor must exceed 1.0");
        StreamingHistogram {
            growth,
            inv_ln_growth: 1.0 / growth.ln(),
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(&self, v: f64) -> usize {
        if v < FLOOR {
            0
        } else {
            // v in [f·g^(i-1), f·g^i) → bucket i.
            ((v / FLOOR).ln() * self.inv_ln_growth).floor() as usize + 1
        }
    }

    /// Record one observation. Ignores NaN, ±∞, and negative values.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        let b = self.bucket_of(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Exact minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), accurate to the bucket width:
    /// the geometric midpoint of the bucket holding rank `⌈q·count⌉`,
    /// clamped to the exact observed `[min, max]`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = if b == 0 {
                    0.0
                } else {
                    // Geometric midpoint of [f·g^(b-1), f·g^b).
                    FLOOR * self.growth.powf(b as f64 - 0.5)
                };
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The standard summary reported in run records.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            p50: self.quantile(0.50).unwrap_or(0.0),
            p95: self.quantile(0.95).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            mean: self.mean().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
            count: self.count,
        }
    }
}

/// A serializable quantile summary of one histogram (the `phases` entries
/// of a run record's `summary` event).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quantiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean (exact).
    pub mean: f64,
    /// Maximum (exact).
    pub max: f64,
    /// Number of observations.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact quantile of a sorted sample set, matching the histogram's
    /// rank convention (rank ⌈q·n⌉, 1-based).
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn assert_close(h: &StreamingHistogram, sorted: &[f64], q: f64, rel_tol: f64) {
        let exact = exact_quantile(sorted, q);
        let approx = h.quantile(q).unwrap();
        let rel = (approx - exact).abs() / exact.abs().max(1e-12);
        assert!(
            rel <= rel_tol,
            "q={q}: approx {approx} vs exact {exact} (rel err {rel:.4} > {rel_tol})"
        );
    }

    #[test]
    fn uniform_quantiles_are_within_bucket_error() {
        let mut h = StreamingHistogram::new();
        let values: Vec<f64> = (1..=100_000).map(|i| i as f64).collect();
        for &v in &values {
            h.observe(v);
        }
        // √1.05 − 1 ≈ 2.47%; allow 3% for boundary effects.
        for q in [0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 0.999] {
            assert_close(&h, &values, q, 0.03);
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(100_000.0));
    }

    #[test]
    fn heavy_tailed_quantiles_are_within_bucket_error() {
        // A deterministic lognormal-ish distribution spanning ~7 decades:
        // exactly the shape of latency data the histogram exists for.
        let mut values: Vec<f64> = (0..50_000)
            .map(|i| {
                let t = i as f64 / 50_000.0;
                (16.0 * t * t).exp() // 1 → e^16 ≈ 8.9e6
            })
            .collect();
        let mut h = StreamingHistogram::new();
        for &v in &values {
            h.observe(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.50, 0.95, 0.99] {
            assert_close(&h, &values, q, 0.03);
        }
    }

    #[test]
    fn sub_unit_quantiles_are_within_bucket_error() {
        // Ratios in (0, 1) — overlap fractions, hit rates — and a bimodal
        // stream that a single sub-unit bucket would report as 0.5.
        let mut ratios: Vec<f64> = (1..10_000).map(|i| i as f64 / 10_000.0).collect();
        let mut bimodal = vec![0.1; 100];
        bimodal.extend([0.9; 100]);
        for values in [&mut ratios, &mut bimodal] {
            let mut h = StreamingHistogram::new();
            for &v in values.iter() {
                h.observe(v);
            }
            values.sort_by(f64::total_cmp);
            for q in [0.01, 0.10, 0.50, 0.90, 0.95, 0.99] {
                assert_close(&h, values, q, 0.03);
            }
        }
    }

    #[test]
    fn zero_has_its_own_bucket() {
        let mut h = StreamingHistogram::new();
        for _ in 0..60 {
            h.observe(0.0);
        }
        for _ in 0..40 {
            h.observe(0.25);
        }
        assert_eq!(h.quantile(0.5), Some(0.0));
        assert_close(&h, &[0.25], 0.95, 0.03);
    }

    #[test]
    fn constant_distribution_is_exact() {
        let mut h = StreamingHistogram::new();
        for _ in 0..1000 {
            h.observe(42.0);
        }
        // The geometric midpoint is clamped to the observed [min, max], so a
        // constant stream reports exactly.
        assert_eq!(h.quantile(0.5), Some(42.0));
        assert_eq!(h.quantile(0.99), Some(42.0));
        assert_eq!(h.mean(), Some(42.0));
    }

    #[test]
    fn empty_and_garbage_observations() {
        let mut h = StreamingHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(-1.0);
        assert_eq!(h.count(), 0, "non-finite/negative values are ignored");
        h.observe(0.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Some(0.0), "sub-unit bucket clamps to min");
    }

    #[test]
    fn memory_stays_logarithmic() {
        let mut h = StreamingHistogram::new();
        for i in 0..1_000_000u64 {
            // Nanosecond-scale dynamic range: 1 to 1e12.
            h.observe(((i % 12) as f64 * 2.3).exp());
        }
        assert!(h.counts.len() < 1024, "bucket count {} must stay bounded", h.counts.len());
    }

    #[test]
    fn quantiles_summary_is_serializable() {
        let mut h = StreamingHistogram::new();
        for i in 1..=100 {
            h.observe(i as f64);
        }
        let q = h.quantiles();
        assert_eq!(q.count, 100);
        let s = serde_json::to_string(&q).unwrap();
        let back: Quantiles = serde_json::from_str(&s).unwrap();
        assert_eq!(back, q);
    }
}
