//! What the ledger reads from the host: CPU count, resident set, a fixed
//! calibration kernel, and a counting allocator for the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

pub fn cpus() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// A `kB` field of `/proc/self/status` in MB (0 where procfs is missing).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            line.strip_prefix(field)?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Milliseconds the host needs for a fixed kernel (fill 2^20 words with
/// splitmix64, sort them), fastest of three: the same work on every run,
/// so a slow reading names the host, not the program.
pub fn calib_ms() -> f64 {
    (0..3)
        .map(|rep| {
            let start = Instant::now();
            let mut words: Vec<u64> = (0..1u64 << 20).map(|i| splitmix64(i ^ rep)).collect();
            words.sort_unstable();
            std::hint::black_box(&words);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The system allocator with two relaxed counters (calls and bytes); they
/// publish no other data. Counting is off outside [`count_allocs`], so the
/// untraced runs pay one shared read per call and no cache-line traffic.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller's obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `work` with counting on; returns its result and the
/// `(allocation calls, bytes requested)` it made on any thread.
pub fn count_allocs<R>(work: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed));
    COUNTING.store(true, Ordering::Relaxed);
    let result = work();
    COUNTING.store(false, Ordering::Relaxed);
    let calls = ALLOCS.load(Ordering::Relaxed) - before.0;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - before.1;
    (result, calls, bytes)
}
