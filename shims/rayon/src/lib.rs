//! # rayon (offline shim) — a real data-parallel pool
//!
//! A stand-in for `rayon` written for this workspace's hermetic (no
//! crates.io) build environment. Unlike the original sequential shim, this
//! version genuinely executes `par_iter` / `into_par_iter` pipelines on
//! multiple scoped worker threads:
//!
//! * **Scheduling** is self-balancing: the input is split into chunks
//!   (several per worker), each worker is dealt a contiguous run of them
//!   behind one atomic cursor, and a worker that finishes its run claims
//!   the rest of the others' through their cursors — so a worker that lands
//!   the expensive chunks does not become the critical path.
//! * **Determinism** is absolute: every chunk's results land in that
//!   chunk's own slot, the slots are concatenated in input order, and chunk
//!   *boundaries* never influence what a pure `map` computes — so a
//!   pipeline's output is byte-identical to sequential execution at any
//!   pool size. (Closures that mutate shared state through locks can of
//!   course still observe scheduling order; the workspace's pipelines are
//!   pure per item.)
//! * **Pool size** resolves, in order: an enclosing
//!   [`ThreadPool::install`] scope → the `RAYON_NUM_THREADS` environment
//!   variable → the number of available CPUs (those two read once per
//!   process). Size 1
//!   short-circuits to plain sequential execution with zero thread traffic.
//! * Workers are **scoped threads** spawned per parallel operation
//!   (`std::thread::scope`), so non-`'static` borrows work exactly like
//!   real rayon and a panicking closure propagates to the caller. The
//!   calling thread is worker 0 and only the others are spawned: measured on
//!   the 2-vCPU development host, one operation over 16 trivial items costs
//!   50–55 µs at pool 2 and 73–80 µs at pool 4 (66 and 104 µs when the
//!   caller parked and every worker was spawned). That is noise for point
//!   generation and shard indexing; a caller with less work than that per
//!   operation should not come here (`knn_core::local::candidate_stage`
//!   decides per call).
//!
//! Swapping the real crate back in (when a registry is available) requires
//! no source changes at call sites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The traits rayon users glob-import.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

// ---------------------------------------------------------------------------
// Pool sizing.
// ---------------------------------------------------------------------------

thread_local! {
    /// Pool size imposed by an enclosing [`ThreadPool::install`] (0 = none).
    static INSTALLED_POOL_SIZE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The size of a pool nobody sized: `RAYON_NUM_THREADS`, else the available
/// CPUs. Resolved once per process, as real rayon does when it builds its
/// global pool — `available_parallelism` re-reads the affinity mask and the
/// cgroup quota files on every call (13 µs here), which every parallel
/// operation outside an [`ThreadPool::install`] scope used to pay twice.
fn default_pool_size() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let env = std::env::var("RAYON_NUM_THREADS").ok();
        env.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n > 0).unwrap_or_else(|| {
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
        })
    })
}

/// Number of worker threads parallel operations on this thread will use.
///
/// Resolution order: enclosing [`ThreadPool::install`] →
/// `RAYON_NUM_THREADS` → available CPUs (the last two as of the first call
/// in the process).
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_POOL_SIZE.with(std::cell::Cell::get);
    if installed > 0 {
        return installed;
    }
    default_pool_size()
}

/// Error returned when a pool cannot be (re)configured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPoolBuildError {
    reason: &'static str,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error: {}", self.reason)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring rayon's `ThreadPoolBuilder`.
#[derive(Debug, Clone, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// New builder with default (auto) sizing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fix the worker count; `0` keeps automatic sizing (rayon semantics).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    fn resolved(&self) -> usize {
        self.num_threads.unwrap_or_else(default_pool_size)
    }

    /// Build a pool handle whose size applies inside [`ThreadPool::install`].
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.resolved() })
    }
}

/// A sized pool handle. The shim has no persistent worker threads — the
/// handle simply pins the worker count for operations run under
/// [`ThreadPool::install`].
#[derive(Debug, Clone)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Worker count of this pool.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `op` with this pool's size governing every parallel operation
    /// it performs on this thread.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let prev = INSTALLED_POOL_SIZE.with(|c| c.replace(self.num_threads));
        // Restore on unwind too, so a panicking op does not leak the size
        // into unrelated code on this thread.
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED_POOL_SIZE.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(prev);
        op()
    }
}

// ---------------------------------------------------------------------------
// The executor.
// ---------------------------------------------------------------------------

/// Chunks per worker: enough slack for the cursor to even out imbalanced
/// items, few enough that per-chunk bookkeeping stays negligible.
const CHUNKS_PER_WORKER: usize = 8;

/// Map `items` through `f` on the current pool, preserving input order.
///
/// The parallel path splits the items into chunks, deals each worker a
/// contiguous run of them, lets every worker claim chunks through one
/// atomic cursor per run (its own run first, then the others'), writes each
/// chunk's results into that chunk's own slot, and concatenates the slots
/// in order — bit-identical to the sequential path for pure `f`.
fn parallel_map<I, R, F>(items: Vec<I>, f: &F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Chunk `c` is claimed by exactly one worker, so its two locks are never
    // contended; they only let the claimant move the items out and the
    // results in. The cursors can be `Relaxed`: they only hand out distinct
    // indices, and the data moves through those locks and the scope's join.
    let chunk_len = n.div_ceil(threads * CHUNKS_PER_WORKER);
    let mut chunks: Vec<Mutex<Vec<I>>> = Vec::with_capacity(n.div_ceil(chunk_len));
    let mut iter = items.into_iter();
    while iter.len() > 0 {
        chunks.push(Mutex::new(iter.by_ref().take(chunk_len).collect()));
    }
    let slots: Vec<Mutex<Vec<R>>> = chunks.iter().map(|_| Mutex::new(Vec::new())).collect();
    // Worker `w`'s run is chunks `start(w)..start(w + 1)`. Runs keep a
    // worker on neighbouring items, which one cursor shared by all workers
    // would interleave: the candidate stage's cells are machine-major, so a
    // run keeps a worker's cache on its own machines' shards.
    let start = |w: usize| (w * chunks.len()).div_ceil(threads);
    let cursors: Vec<AtomicUsize> = (0..threads).map(|w| AtomicUsize::new(start(w))).collect();

    // Spawned workers inherit the caller's resolved pool size (fresh threads
    // have no install scope), so nested parallel operations keep honoring
    // it — real rayon's nested ops likewise stay inside the enclosing pool.
    let inherited = current_num_threads();
    let work = |w: usize| {
        for run in (0..threads).map(|off| (w + off) % threads) {
            let mut c = cursors[run].fetch_add(1, Ordering::Relaxed);
            while c < start(run + 1) {
                let items = std::mem::take(&mut *chunks[c].lock().expect("chunk lock"));
                let results: Vec<R> = items.into_iter().map(f).collect();
                *slots[c].lock().expect("slot lock") = results;
                c = cursors[run].fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    // The calling thread is worker 0: `threads − 1` spawns per operation,
    // and at pool 2 the caller starts on its own run while the one other
    // worker is still being created. A panic on either side reaches the
    // caller when the scope ends, after every worker has been joined.
    std::thread::scope(|scope| {
        let work = &work;
        for w in 1..threads {
            scope.spawn(move || {
                INSTALLED_POOL_SIZE.with(|c| c.set(inherited));
                work(w);
            });
        }
        work(0);
    });

    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.extend(slot.into_inner().expect("slot lock"));
    }
    out
}

// ---------------------------------------------------------------------------
// Parallel iterator facade.
// ---------------------------------------------------------------------------

/// The (small) parallel-iterator interface the workspace uses: `map` and
/// `collect`, both order-preserving.
pub trait ParallelIterator: Sized {
    /// Item type produced by the pipeline.
    type Item: Send;

    /// Execute the whole pipeline, returning the items in input order.
    /// Adapter stages (`map`) run on the pool; base stages only enumerate.
    fn run(self) -> Vec<Self::Item>;

    /// Order-preserving parallel map.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Collect the pipeline's results in input order.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.run().into_iter().collect()
    }
}

/// Order-preserving parallel map stage.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync,
{
    type Item = R;

    fn run(self) -> Vec<R> {
        parallel_map(self.base.run(), &self.f)
    }
}

/// Base parallel iterator over an owned collection (or integer range).
pub struct IntoParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for IntoParIter<T> {
    type Item = T;

    fn run(self) -> Vec<T> {
        self.items
    }
}

/// Base parallel iterator borrowing a slice.
pub struct SliceParIter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for SliceParIter<'data, T> {
    type Item = &'data T;

    fn run(self) -> Vec<&'data T> {
        self.slice.iter().collect()
    }
}

/// Conversion into a parallel iterator, mirroring rayon's
/// `IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// The resulting parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type.
    type Item: Send;

    /// Convert `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = IntoParIter<T>;
    type Item = T;

    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

macro_rules! impl_range_into_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Iter = IntoParIter<$t>;
            type Item = $t;

            fn into_par_iter(self) -> IntoParIter<$t> {
                IntoParIter { items: self.collect() }
            }
        }
    )*};
}
impl_range_into_par_iter!(usize, u64, u32, i64, i32);

/// Borrowing conversion, mirroring rayon's `IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// The resulting parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type (a borrow).
    type Item: Send + 'data;

    /// Parallel iterator over `&self`.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = SliceParIter<'data, T>;
    type Item = &'data T;

    fn par_iter(&'data self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Iter = SliceParIter<'data, T>;
    type Item = &'data T;

    fn par_iter(&'data self) -> SliceParIter<'data, T> {
        SliceParIter { slice: self }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn with_pool<R>(n: usize, f: impl FnOnce() -> R) -> R {
        ThreadPoolBuilder::new().num_threads(n).build().expect("pool").install(f)
    }

    #[test]
    fn range_pipeline_matches_sequential() {
        let seq: Vec<usize> = (0..10usize).map(|i| i * i).collect();
        for pool in [1, 2, 8] {
            let par: Vec<usize> =
                with_pool(pool, || (0..10usize).into_par_iter().map(|i| i * i).collect());
            assert_eq!(par, seq, "pool size {pool}");
        }
    }

    #[test]
    fn par_iter_over_slices() {
        let v = vec![1u64, 2, 3];
        let doubled: Vec<u64> = v.par_iter().map(|&x| 2 * x).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
    }

    #[test]
    fn order_preserved_at_scale_and_any_pool_size() {
        // Large enough to span many chunks; squares are distinct, so any
        // reordering or loss is caught exactly.
        let n = 100_000usize;
        let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(i as u64)).collect();
        for pool in [1, 2, 3, 8, 64] {
            let par: Vec<u64> = with_pool(pool, || {
                (0..n).into_par_iter().map(|i| (i as u64).wrapping_mul(i as u64)).collect()
            });
            assert_eq!(par, seq, "pool size {pool}");
        }
    }

    #[test]
    fn order_preserved_under_skewed_work() {
        // Front-loaded work: the first chunks are ~1000x more expensive, so
        // workers definitely finish chunks out of order — results must
        // still come back in input order.
        let n = 4_000usize;
        let work = |i: usize| {
            let iters = if i < 100 { 20_000 } else { 20 };
            let mut acc = i as u64;
            for _ in 0..iters {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            }
            (i, acc)
        };
        let seq: Vec<(usize, u64)> = (0..n).map(work).collect();
        let par: Vec<(usize, u64)> = with_pool(8, || (0..n).into_par_iter().map(work).collect());
        assert_eq!(par, seq);
    }

    #[test]
    fn all_items_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let n = 10_000usize;
        let _: Vec<usize> = with_pool(4, || {
            (0..n).into_par_iter().map(|_| counter.fetch_add(1, Ordering::Relaxed)).collect()
        });
        assert_eq!(counter.load(Ordering::Relaxed), n);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> =
            with_pool(8, || Vec::<u32>::new().into_par_iter().map(|x| x + 1).collect());
        assert!(empty.is_empty());
        let one: Vec<u32> = with_pool(8, || vec![41u32].into_par_iter().map(|x| x + 1).collect());
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn worker_panic_propagates_from_map() {
        let caught = std::panic::catch_unwind(|| {
            with_pool(4, || {
                let _: Vec<u32> = (0..1000usize)
                    .into_par_iter()
                    .map(|i| if i == 777 { panic!("item panic") } else { i as u32 })
                    .collect();
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn workers_inherit_installed_pool_size() {
        // Nested parallel ops inside a worker must honor the enclosing
        // install scope, like real rayon's pool-bound nested operations.
        let sizes: Vec<usize> =
            with_pool(3, || (0..8usize).into_par_iter().map(|_| current_num_threads()).collect());
        assert!(sizes.iter().all(|&s| s == 3), "workers saw {sizes:?}, expected all 3");
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let p2 = ThreadPoolBuilder::new().num_threads(2).build().expect("pool");
        let p5 = ThreadPoolBuilder::new().num_threads(5).build().expect("pool");
        let ambient = current_num_threads();
        p2.install(|| {
            assert_eq!(current_num_threads(), 2);
            p5.install(|| assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 2);
        });
        assert_eq!(current_num_threads(), ambient);
    }

    #[test]
    fn install_restores_after_panic() {
        let ambient = current_num_threads();
        let p = ThreadPoolBuilder::new().num_threads(3).build().expect("pool");
        let _ = std::panic::catch_unwind(|| p.install(|| panic!("boom")));
        assert_eq!(current_num_threads(), ambient);
    }

    #[test]
    fn builder_zero_means_auto() {
        let p = ThreadPoolBuilder::new().num_threads(0).build().expect("pool");
        assert!(p.current_num_threads() >= 1);
    }

    #[test]
    fn map_chains_compose() {
        let seq: Vec<String> = (0..500usize).map(|i| i * 3).map(|i| format!("v{i}")).collect();
        let par: Vec<String> = with_pool(4, || {
            (0..500usize).into_par_iter().map(|i| i * 3).map(|i| format!("v{i}")).collect()
        });
        assert_eq!(par, seq);
    }

    #[test]
    fn repeated_tiny_ops_do_not_deadlock() {
        // Smoke test: many tiny operations (one chunk per worker) finish,
        // in order, with every worker running out of chunks at once.
        for pool in [2usize, 4] {
            for round in 0..300usize {
                let out: Vec<usize> =
                    with_pool(pool, || (0..pool).into_par_iter().map(|i| i + round).collect());
                assert_eq!(out, (0..pool).map(|i| i + round).collect::<Vec<_>>());
            }
        }
    }
}
