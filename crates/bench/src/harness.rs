//! The A/B harness shared by the `benches/` binaries.
//!
//! Each bench compares two or three *arms* — configurations of one real
//! deployment choice (SIMD on/off, overlapped reduction on/off, batched or
//! single serving, f32/f16/bf16 serving, precomputed edges) — on the same
//! work. The harness fixes how that comparison is run and reported:
//!
//! * [`rotate`] runs the arms in rotating order within each rep, so drift
//!   on a shared host lands on every arm instead of biasing the one that
//!   always runs first;
//! * [`quantile`] is the one nearest-rank quantile (the rule perfbench
//!   uses), and [`ArmStats`] summarises one arm's samples with it;
//! * [`write_report`] writes the bench's `BENCH_<name>.json` at the repo
//!   root.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Serialize;

/// The nearest-rank `q`-quantile of `samples`: the smallest sample with
/// at least `⌈q·n⌉` samples at or below it. Reads 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// One arm's samples summarised by [`quantile`].
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ArmStats {
    /// What one sample measures, e.g. `"s/step"` or `"req/s"`.
    pub unit: &'static str,
    /// Number of samples.
    pub n: usize,
    /// 0.5-quantile.
    pub median: f64,
    /// 0.1-quantile.
    pub p10: f64,
    /// 0.9-quantile.
    pub p90: f64,
    /// 0.75-quantile less the 0.25-quantile.
    pub iqr: f64,
}

impl ArmStats {
    /// Summarise `samples`, each measured in `unit`.
    pub fn of(unit: &'static str, samples: &[f64]) -> Self {
        ArmStats {
            unit,
            n: samples.len(),
            median: quantile(samples, 0.5),
            p10: quantile(samples, 0.1),
            p90: quantile(samples, 0.9),
            iqr: quantile(samples, 0.75) - quantile(samples, 0.25),
        }
    }
}

/// Run `reps` repetitions of `arms` arms: rep `r` calls `run(arm, r)` for
/// `arm = r, r + 1, …` (mod `arms`). Returns each arm's results in rep
/// order.
pub fn rotate<T>(arms: usize, reps: usize, mut run: impl FnMut(usize, usize) -> T) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..arms).map(|_| Vec::with_capacity(reps)).collect();
    for rep in 0..reps {
        for k in 0..arms {
            let arm = (rep + k) % arms;
            out[arm].push(run(arm, rep));
        }
    }
    out
}

/// Run `f` and return its wall time in seconds with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Write `report` as pretty JSON to `BENCH_<name>.json` at the repo root
/// and return the path.
pub fn write_report<T: Serialize>(name: &str, report: &T) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root");
    let path = root.join(format!("BENCH_{name}.json"));
    let json = serde_json::to_string_pretty(report).expect("serialize bench report");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(quantile(&[7.0], q), 7.0);
        }
        // n = 4: ranks ⌈2⌉ = 2, ⌈3.6⌉ = 4, ⌈3.96⌉ = 4; unsorted input.
        let even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&even, 0.5), 2.0);
        assert_eq!(quantile(&even, 0.9), 4.0);
        assert_eq!(quantile(&even, 0.99), 4.0);
        // n = 10: ranks 5, 9, 10.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.5), 5.0);
        assert_eq!(quantile(&ten, 0.9), 9.0);
        assert_eq!(quantile(&ten, 0.99), 10.0);
    }

    #[test]
    fn arm_stats_summarise_with_the_same_rule() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = ArmStats::of("s", &ten);
        assert_eq!((s.n, s.median, s.p10, s.p90), (10, 5.0, 1.0, 9.0));
        assert_eq!(s.iqr, 8.0 - 3.0);
        let empty = ArmStats::of("s", &[]);
        assert_eq!((empty.n, empty.median, empty.iqr), (0, 0.0, 0.0));
    }

    #[test]
    fn rotate_starts_each_rep_at_the_next_arm() {
        let mut order = Vec::new();
        let out = rotate(3, 4, |arm, rep| {
            order.push(arm);
            (arm, rep)
        });
        assert_eq!(order, [0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]);
        for (arm, results) in out.iter().enumerate() {
            assert_eq!(results, &(0..4).map(|rep| (arm, rep)).collect::<Vec<_>>());
        }
    }
}
