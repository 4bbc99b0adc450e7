//! Size-class buffer pool backing [`Tensor`](crate::Tensor) storage.
//!
//! Every `f32` buffer a tensor allocates is drawn from a thread-local
//! freelist of recycled buffers, and every buffer a tensor drops is
//! returned to it. The pool is what makes a reused autograd tape
//! allocation-free in steady state: once a training step has run each
//! buffer shape once, every later step's `take` is served from the
//! freelist ([`PoolStats::hits`]) and the global allocator is never
//! touched again ([`PoolStats::misses`] stays flat).
//!
//! Design:
//!
//! * **Size classes are powers of two.** A fresh miss allocates capacity
//!   `len.next_power_of_two()`, and a returned buffer is filed under the
//!   *largest* power of two ≤ its capacity. Together these guarantee a
//!   buffer recycled from class `c` can serve any request with
//!   `len.next_power_of_two() == 2^c`, so a fixed working set converges
//!   to a 100% hit rate.
//! * **Freelists are thread-local** (no locks on the hot path); the
//!   hit/miss/byte counters are global relaxed atomics so observability
//!   sees the whole process.
//! * **Contents are never trusted.** `take` hands back a cleared
//!   (length-0) buffer; callers fill it. [`Tensor::zeros`](crate::Tensor::zeros)
//!   therefore always writes its zeros — results cannot depend on what a
//!   recycled buffer previously held.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One freelist per power-of-two size class; class `c` holds buffers with
/// `2^c <= capacity < 2^(c+1)`.
const NUM_CLASSES: usize = 40;

/// At most this many free buffers are retained per class (per thread);
/// beyond that, returned buffers are released to the allocator.
const MAX_PER_CLASS: usize = 256;

/// Buffers larger than this many elements (64 MiB of f32) bypass the pool
/// entirely — retaining them would pin too much memory for too little
/// reuse.
const MAX_POOLED_ELEMS: usize = 1 << 24;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BYTES_RECYCLED: AtomicU64 = AtomicU64::new(0);
static BYTES_FRESH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static FREELISTS: RefCell<Vec<Vec<Vec<f32>>>> =
        RefCell::new((0..NUM_CLASSES).map(|_| Vec::new()).collect());
}

/// Cumulative global pool counters (relaxed atomics; process-wide).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served from a freelist.
    pub hits: u64,
    /// `take` calls that had to allocate fresh memory (or found the pool
    /// disabled / the request too large to pool).
    pub misses: u64,
    /// Bytes of requests served from recycled buffers.
    pub bytes_recycled: u64,
    /// Bytes of requests served by fresh allocation.
    pub bytes_fresh: u64,
}

impl PoolStats {
    /// Counter-wise difference `self - earlier` (for per-step deltas).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            bytes_recycled: self.bytes_recycled - earlier.bytes_recycled,
            bytes_fresh: self.bytes_fresh - earlier.bytes_fresh,
        }
    }

    /// Hit fraction in `[0, 1]`; 1.0 when there were no takes at all.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Snapshot the cumulative pool counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Relaxed),
        misses: MISSES.load(Relaxed),
        bytes_recycled: BYTES_RECYCLED.load(Relaxed),
        bytes_fresh: BYTES_FRESH.load(Relaxed),
    }
}

/// Zero all cumulative pool counters (retained buffers are unaffected).
pub fn reset_pool_stats() {
    HITS.store(0, Relaxed);
    MISSES.store(0, Relaxed);
    BYTES_RECYCLED.store(0, Relaxed);
    BYTES_FRESH.store(0, Relaxed);
}

/// Bytes currently retained by this thread's freelists.
pub fn pool_retained_bytes() -> usize {
    FREELISTS
        .try_with(|f| {
            f.borrow()
                .iter()
                .flat_map(|class| class.iter())
                .map(|v| v.capacity() * 4)
                .sum()
        })
        .unwrap_or(0)
}

/// Release every buffer retained by this thread's freelists.
pub fn clear_pool() {
    let _ = FREELISTS.try_with(|f| f.borrow_mut().iter_mut().for_each(Vec::clear));
}

/// Class a request of `len` elements is served from: `log2` of the next
/// power of two.
#[inline]
fn class_of_len(len: usize) -> usize {
    len.next_power_of_two().trailing_zeros() as usize
}

/// Class a buffer of capacity `cap >= 1` is filed under: `floor(log2 cap)`,
/// so every buffer in class `c` has capacity ≥ `2^c` and can serve any
/// request routed to class `c`.
#[inline]
fn class_of_cap(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

/// Obtain a cleared buffer able to hold `len` elements (length 0 on
/// return; callers push/resize). Pooled when possible.
pub(crate) fn take(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    if len <= MAX_POOLED_ELEMS {
        let class = class_of_len(len);
        let recycled = FREELISTS
            .try_with(|f| f.borrow_mut()[class].pop())
            .unwrap_or(None);
        if let Some(mut v) = recycled {
            debug_assert!(v.capacity() >= len);
            v.clear();
            HITS.fetch_add(1, Relaxed);
            BYTES_RECYCLED.fetch_add(4 * len as u64, Relaxed);
            return v;
        }
    }
    MISSES.fetch_add(1, Relaxed);
    BYTES_FRESH.fetch_add(4 * len as u64, Relaxed);
    // Allocate the full class capacity so the buffer comes back to the
    // same class it was served from (see module docs).
    Vec::with_capacity(len.next_power_of_two())
}

/// Return a buffer to the current thread's freelist (dropped instead when
/// the buffer is empty/oversized or the class is full).
pub(crate) fn give(v: Vec<f32>) {
    let cap = v.capacity();
    if cap == 0 || cap > MAX_POOLED_ELEMS {
        return;
    }
    let class = class_of_cap(cap);
    // try_with: during thread teardown the freelist may already be gone;
    // then the buffer simply drops.
    let _ = FREELISTS.try_with(|f| {
        let mut lists = f.borrow_mut();
        let list = &mut lists[class];
        if list.len() < MAX_PER_CLASS {
            list.push(v);
        }
    });
}

/// Pool-backed owned `f32` buffer: the storage cell inside `Tensor`.
///
/// `Drop` returns the underlying allocation to the pool; `Clone` (what
/// `Arc::make_mut` calls on copy-on-write) draws the copy's storage from
/// the pool. Dereferences to `[f32]`.
pub struct Buf {
    vec: Vec<f32>,
}

impl Buf {
    /// A buffer of `n` zeros. The zeros are always written (recycled
    /// memory is never trusted).
    pub(crate) fn zeroed(n: usize) -> Buf {
        let mut vec = take(n);
        vec.resize(n, 0.0);
        Buf { vec }
    }

    /// A buffer of `n` copies of `value`.
    pub(crate) fn filled(n: usize, value: f32) -> Buf {
        let mut vec = take(n);
        vec.resize(n, value);
        Buf { vec }
    }

    /// A buffer built by evaluating `f` at indices `0..n`.
    pub(crate) fn from_fn(n: usize, f: impl FnMut(usize) -> f32) -> Buf {
        let mut vec = take(n);
        vec.extend((0..n).map(f));
        Buf { vec }
    }

    /// Adopt an externally built `Vec` (its allocation joins the pool when
    /// the buffer is eventually dropped).
    pub(crate) fn from_vec(vec: Vec<f32>) -> Buf {
        Buf { vec }
    }
}

impl std::ops::Deref for Buf {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        &self.vec
    }
}

impl std::ops::DerefMut for Buf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.vec
    }
}

impl Clone for Buf {
    fn clone(&self) -> Buf {
        let mut vec = take(self.vec.len());
        vec.extend_from_slice(&self.vec);
        Buf { vec }
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.vec));
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Buf) -> bool {
        self.vec == other.vec
    }
}

impl std::fmt::Debug for Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Buf").field("len", &self.vec.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_round_as_documented() {
        assert_eq!(class_of_len(1), 0);
        assert_eq!(class_of_len(2), 1);
        assert_eq!(class_of_len(3), 2);
        assert_eq!(class_of_len(64), 6);
        assert_eq!(class_of_len(65), 7);
        assert_eq!(class_of_cap(64), 6);
        assert_eq!(class_of_cap(127), 6);
        assert_eq!(class_of_cap(128), 7);
    }

    #[test]
    fn dropped_buffer_is_recycled_for_same_class() {
        // Use an odd size so class rounding is exercised.
        let before = pool_stats();
        let b = Buf::filled(100, 3.0);
        drop(b);
        let b2 = Buf::zeroed(97); // same class (128)
        assert!(b2.iter().all(|&v| v == 0.0), "recycled memory must be rewritten");
        let after = pool_stats();
        assert!(
            after.hits > before.hits,
            "second take in the class must be a pool hit"
        );
        drop(b2);
    }

    #[test]
    fn clone_draws_from_pool_and_preserves_contents() {
        let a = Buf::from_fn(33, |i| i as f32);
        drop(Buf::zeroed(40)); // prime the class-64 freelist
        let b = a.clone();
        assert_eq!(&a[..], &b[..]);
    }

    #[test]
    fn zero_len_take_allocates_nothing() {
        let before = pool_stats();
        let v = take(0);
        assert_eq!(v.capacity(), 0);
        give(v);
        let after = pool_stats();
        assert_eq!(before.hits, after.hits);
        assert_eq!(before.misses, after.misses);
    }
}
