//! # rayon (offline shim) — a real work-stealing data-parallel pool
//!
//! A stand-in for `rayon` written for this workspace's hermetic (no
//! crates.io) build environment. Unlike the original sequential shim, this
//! version genuinely executes `par_iter` / `into_par_iter` pipelines on
//! multiple scoped worker threads:
//!
//! * **Scheduling** is work-stealing: the input is split into chunks
//!   (several per worker), chunks are dealt round-robin onto per-worker
//!   deques, and a worker that drains its own deque steals from its
//!   neighbors' — so a worker that lands the expensive chunks does not
//!   become the critical path.
//! * **Determinism** is absolute: every chunk remembers the index range it
//!   came from, results are reassembled in input order, and chunk
//!   *boundaries* never influence what a pure `map` computes — so a
//!   pipeline's output is byte-identical to sequential execution at any
//!   pool size. (Closures that mutate shared state through locks can of
//!   course still observe scheduling order; the workspace's pipelines are
//!   pure per item.)
//! * **Pool size** resolves, in order: an enclosing
//!   [`ThreadPool::install`] scope → a [`ThreadPoolBuilder::build_global`]
//!   override → the `RAYON_NUM_THREADS` environment variable → the number
//!   of available CPUs (those two read once per process). Size 1
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

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

/// The traits rayon users glob-import.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

// ---------------------------------------------------------------------------
// Pool sizing.
// ---------------------------------------------------------------------------

/// Global pool-size override installed by [`ThreadPoolBuilder::build_global`].
static GLOBAL_POOL_SIZE: OnceLock<usize> = OnceLock::new();

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
/// Resolution order: enclosing [`ThreadPool::install`] → global override
/// ([`ThreadPoolBuilder::build_global`]) → `RAYON_NUM_THREADS` → available
/// CPUs (the last two as of the first call in the process).
pub fn current_num_threads() -> usize {
    let installed = INSTALLED_POOL_SIZE.with(std::cell::Cell::get);
    if installed > 0 {
        return installed;
    }
    GLOBAL_POOL_SIZE.get().copied().unwrap_or_else(default_pool_size)
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

    /// Install this configuration as the process-global default. Errors if a
    /// global pool was already installed (same contract as rayon).
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let n = self.resolved();
        GLOBAL_POOL_SIZE
            .set(n)
            .map_err(|_| ThreadPoolBuildError { reason: "global pool already initialized" })
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
    /// (and nested [`join`]) it performs on this thread.
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
// The work-stealing executor.
// ---------------------------------------------------------------------------

/// Chunks per worker: enough slack for stealing to even out imbalanced
/// items, few enough that per-chunk bookkeeping stays negligible.
const CHUNKS_PER_WORKER: usize = 8;

/// Map `items` through `f` on the current pool, preserving input order.
///
/// The parallel path splits the items into indexed chunks, deals them onto
/// per-worker deques, lets idle workers steal, and reassembles results by
/// chunk index — bit-identical to the sequential path for pure `f`.
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

    // Split into order-tagged chunks.
    let chunk_len = n.div_ceil(threads * CHUNKS_PER_WORKER).max(1);
    let mut chunks: Vec<(usize, Vec<I>)> = Vec::with_capacity(n.div_ceil(chunk_len));
    let mut iter = items.into_iter();
    let mut start = 0;
    loop {
        let chunk: Vec<I> = iter.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        let len = chunk.len();
        chunks.push((start, chunk));
        start += len;
    }

    // Deal contiguous runs of chunks to each worker's deque (locality), let
    // idle workers steal from the back of their neighbors'.
    type Deque<I> = Mutex<VecDeque<(usize, Vec<I>)>>;
    let num_chunks = chunks.len();
    let mut deques: Vec<Deque<I>> = (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, chunk) in chunks.into_iter().enumerate() {
        let owner = i * threads / num_chunks;
        deques[owner.min(threads - 1)].get_mut().expect("fresh deque").push_back(chunk);
    }

    // Spawned workers inherit the caller's resolved pool size (fresh threads
    // have no install scope), so nested parallel operations keep honoring
    // it — real rayon's nested ops likewise stay inside the enclosing pool.
    let inherited = current_num_threads();
    let done = Mutex::new(Vec::with_capacity(threads * CHUNKS_PER_WORKER));
    let work = |w: usize| {
        let mut local: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            // Own deque first (front = original order), then steal from
            // the back of the others'. The own-deque guard must drop before
            // stealing (separate statement): a `pop_front().or_else(steal)`
            // chain would hold it across the steal and deadlock two
            // mutually-stealing workers whose deques run dry together.
            let mut task = deques[w].lock().expect("deque lock").pop_front();
            if task.is_none() {
                task = (1..threads).find_map(|off| {
                    deques[(w + off) % threads].lock().expect("deque lock").pop_back()
                });
            }
            let Some((idx, chunk)) = task else { break };
            local.push((idx, chunk.into_iter().map(f).collect()));
        }
        if !local.is_empty() {
            done.lock().expect("result lock").extend(local);
        }
    };
    // The calling thread is worker 0: `threads − 1` spawns per operation,
    // and at pool 2 the caller starts on its own deque while the one other
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

    let mut parts = done.into_inner().expect("result lock");
    parts.sort_unstable_by_key(|&(idx, _)| idx);
    let mut out = Vec::with_capacity(n);
    for (_, part) in parts {
        out.extend(part);
    }
    out
}

/// Run the two closures, potentially in parallel, returning both results.
///
/// With a pool size of 1 this is plain sequential `(a(), b())`; otherwise
/// `b` runs on a scoped thread while the caller runs `a`, and a panic in
/// either closure propagates to the caller.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let inherited = current_num_threads();
    if inherited <= 1 {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(move || {
            INSTALLED_POOL_SIZE.with(|c| c.set(inherited));
            oper_b()
        });
        let ra = oper_a();
        let rb = match hb.join() {
            Ok(rb) => rb,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (ra, rb)
    })
}

// ---------------------------------------------------------------------------
// Parallel iterator facade.
// ---------------------------------------------------------------------------

/// The (small) parallel-iterator interface the workspace uses: `map`,
/// `for_each`, `collect`, `sum`, all order-preserving.
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

    /// Run `f` on every item (scheduling order unspecified, as in rayon).
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let _ = self.map(&f).run();
    }

    /// Collect the pipeline's results in input order.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.run().into_iter().collect()
    }

    /// Sum the pipeline's results.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.run().into_iter().sum()
    }

    /// Number of items the pipeline will produce.
    fn count(self) -> usize {
        self.run().len()
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
        let sum: u64 = v.par_iter().map(|&x| x).sum();
        assert_eq!(sum, 6);
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
        // stealing definitely reshuffles execution order — results must
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
        with_pool(4, || {
            (0..n).into_par_iter().for_each(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
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
    fn join_returns_both_results() {
        for pool in [1, 4] {
            let (a, b) =
                with_pool(pool, || join(|| (0..100u64).sum::<u64>(), || "right".to_string()));
            assert_eq!(a, 4950);
            assert_eq!(b, "right");
        }
    }

    #[test]
    fn join_propagates_panics() {
        let caught = std::panic::catch_unwind(|| with_pool(4, || join(|| 1u32, || panic!("boom"))));
        assert!(caught.is_err());
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
        let (a, b) = with_pool(5, || join(current_num_threads, current_num_threads));
        assert_eq!((a, b), (5, 5));
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
        // Regression: workers whose deques run dry together used to hold
        // their own deque lock while stealing, deadlocking mutually. Tiny
        // inputs (one chunk per worker) maximize simultaneous dry-out.
        for pool in [2usize, 4] {
            for round in 0..300usize {
                let out: Vec<usize> =
                    with_pool(pool, || (0..pool).into_par_iter().map(|i| i + round).collect());
                assert_eq!(out, (0..pool).map(|i| i + round).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn count_counts() {
        assert_eq!(with_pool(4, || (0..12345usize).into_par_iter().count()), 12345);
    }
}
