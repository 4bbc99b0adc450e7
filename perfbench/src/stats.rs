//! Exact statistics over raw samples, digests, and process/host probes.
//!
//! Quantiles here are computed from every recorded sample, never from
//! the run record's bucketed histograms (whose buckets are ~5% wide).

use std::time::{Duration, Instant};

use matsciml::tensor::Vec3;

/// Nearest-rank quantile (rank ⌈q·n⌉, 1-based) of an unsorted sample set;
/// 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), q) - 1]
}

fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p99, p90 and p50 that has at least ten samples beyond
/// it, as `(value, percentile)`; a tail estimate with fewer samples past
/// it is noise.
pub fn supported_tail(samples: &[f64]) -> (f64, f64) {
    for pct in [99.0, 90.0] {
        let q = pct / 100.0;
        if samples.len() >= 10 && samples.len() - nearest_rank(samples.len(), q) >= 10 {
            return (quantile(samples, q), pct);
        }
    }
    (median(samples), 50.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a over 32-bit words: a digest of exact bit patterns.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.word(v.to_bits());
        }
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// SplitMix64: the benchmark's own seeded input stream.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn signed_unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }

    /// Move every position by up to `amplitude` per coordinate.
    pub fn jitter(&mut self, positions: &mut [Vec3], amplitude: f32) {
        for p in positions {
            *p = *p
                + Vec3::new(
                    amplitude * self.signed_unit(),
                    amplitude * self.signed_unit(),
                    amplitude * self.signed_unit(),
                );
        }
    }
}

/// Whole-process CPU accounting from `getrusage(RUSAGE_SELF)`, which —
/// unlike `/proc/self/status` — includes threads that have already exited
/// (the per-step rank threads do).
#[derive(Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
    pub max_rss_kb: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process, exited
/// threads included (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution).
/// Unlike wall time it does not grow while other tenants of the host hold
/// the CPUs, so on a shared machine it is the steady measure of work.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` matches the C `struct timespec` on 64-bit Linux,
    // the pointer is valid for one write, and the clock id is valid.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) cannot fail");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
        // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
        // Linux (two timevals then fourteen longs), the pointer is valid
        // for writes of that size, and RUSAGE_SELF (0) is a valid `who`.
        let rc = unsafe { getrusage(0, ru.as_mut_ptr()) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
        );
        // SAFETY: zero-initialised and fully written by the successful call.
        let ru = unsafe { ru.assume_init() };
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&ru.utime),
            sys_s: secs(&ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
            max_rss_kb: ru.maxrss as u64,
        }
    }

    /// Counters accumulated since `earlier` (the peak RSS stays absolute).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            max_rss_kb: self.max_rss_kb,
        }
    }

    pub fn add(&mut self, other: &Usage) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.ctx_switches += other.ctx_switches;
        self.max_rss_kb = self.max_rss_kb.max(other.max_rss_kb);
    }

    pub fn sys_frac(&self) -> f64 {
        frac(self.sys_s, self.user_s + self.sys_s)
    }
}

/// Host-wide CPU time from the first line of `/proc/stat`, to report the
/// share stolen by the hypervisor while a run measured.
#[derive(Clone, Copy)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    pub fn now() -> Option<HostCpu> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user.
        let steal = *fields.get(7)?;
        Some(HostCpu {
            total: fields.iter().take(8).sum(),
            steal,
        })
    }

    pub fn steal_frac_since(&self, earlier: &HostCpu) -> f64 {
        frac(
            (self.steal - earlier.steal) as f64,
            (self.total - earlier.total) as f64,
        )
    }
}

/// Wall and process-CPU seconds of one timed section, and the share of
/// the host's CPU time stolen while it ran.
#[derive(Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal: f64,
}

impl Cost {
    /// The CPU seconds the process actually ran. Process CPU time on a
    /// guest also counts the time the hypervisor took a vCPU away in the
    /// middle of a slice (steal); on a shared host that is up to a third
    /// of it. Taking the host's stolen share out leaves the figure
    /// independent of what the host's other tenants do.
    pub fn received_cpu_s(&self) -> f64 {
        self.cpu_s * (1.0 - self.steal)
    }
}

/// Set-up time: the median CPU seconds of the repeats, less the share
/// stolen over the whole set-up phase (one repeat can be shorter than a
/// `/proc/stat` tick).
pub fn setup_cpu_s(repeats: &[Cost], phase: &Cost) -> f64 {
    median(&repeats.iter().map(|c| c.cpu_s).collect::<Vec<_>>()) * (1.0 - phase.steal)
}

/// Run `f`, measuring its [`Cost`]. `/proc/stat` is read outside the
/// timed interval.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let host0 = HostCpu::now();
    let (t, c) = (Instant::now(), process_cpu_s());
    let out = f();
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), process_cpu_s() - c);
    let steal = match (host0, HostCpu::now()) {
        (Some(a), Some(b)) => b.steal_frac_since(&a),
        _ => 0.0,
    };
    (
        out,
        Cost {
            wall_s,
            cpu_s,
            steal,
        },
    )
}
