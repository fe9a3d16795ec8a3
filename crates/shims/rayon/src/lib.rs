//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! the parallel-iterator subset it uses as a local crate, implemented over
//! `std::thread::scope`. Parallelism is real (one worker per core by
//! default); results are collected **in input order**, so a parallel map is
//! bit-for-bit identical to its serial equivalent whenever each item's work
//! depends only on the item (the workspace derives per-item RNG seeds from
//! indices for exactly this reason).
//!
//! Thread count: `ThreadPoolBuilder::new().num_threads(n).build()?.install(f)`
//! runs every parallel call made inside `f` (including nested calls on the
//! pool's own workers) under a **pool-local** worker budget of `n`, however
//! many workers sibling calls elsewhere in the process hold. `n = 1` forces
//! inline execution, which the determinism regression tests use to compare
//! serial and parallel runs. The `RAYON_NUM_THREADS` environment variable is
//! honored like upstream.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A worker budget: a width and the extra workers currently alive under it.
/// Nested `par_iter` levels consult `active` so total workers stay near the
/// width instead of multiplying per nesting level.
#[derive(Debug)]
struct Budget {
    /// `None` for the process-wide budget, whose width is read on demand.
    width: Option<usize>,
    active: AtomicUsize,
}

impl Budget {
    fn width(&self) -> usize {
        self.width.unwrap_or_else(default_num_threads)
    }

    /// What a parallel call happening *now* may use: the width minus
    /// workers already running (approximate — racy reads only make the
    /// bound slightly loose, never the results wrong, since collection
    /// order never depends on the thread count).
    fn available(&self) -> usize {
        self.width()
            .saturating_sub(self.active.load(Ordering::Relaxed))
            .max(1)
    }
}

/// The budget of parallel calls made outside any [`ThreadPool::install`].
static GLOBAL: Budget = Budget {
    width: None,
    active: AtomicUsize::new(0),
};

thread_local! {
    /// The pool installed on this thread (directly, or inherited by one of
    /// the pool's workers); `None` means the process-wide budget.
    static POOL: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
}

/// Number of worker threads parallel calls on this thread will use.
pub fn current_num_threads() -> usize {
    POOL.with(|p| p.borrow().as_ref().map(|b| b.width()))
        .unwrap_or_else(default_num_threads)
        .max(1)
}

/// The width of the process-wide budget: `RAYON_NUM_THREADS`, else the
/// core count.
fn default_num_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Common traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

/// A pipeline stage: every iterator is an indexed pure evaluator, which is
/// what makes order-preserving parallel collection trivial.
pub trait ParallelIterator: Sized + Sync {
    /// Item produced per index.
    type Item: Send;

    /// Number of items.
    fn len(&self) -> usize;

    /// Produces the item at `index`. Must be pure per index (may run on any
    /// worker thread, exactly once per index).
    fn eval(&self, index: usize) -> Self::Item;

    /// `true` when the pipeline has no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maps each item through `f` (applied on worker threads).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { inner: self, f }
    }

    /// Pairs each item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }

    /// Evaluates the pipeline in parallel, preserving input order. The
    /// spawn width is capped by the current worker budget (the installed
    /// pool's, else the process-wide one), so nested parallel calls degrade
    /// toward inline execution instead of multiplying threads per nesting
    /// level.
    fn to_vec(self) -> Vec<Self::Item> {
        let n = self.len();
        let pool = POOL.with(|p| p.borrow().clone());
        let budget = pool.as_deref().unwrap_or(&GLOBAL);
        let threads = budget.available().min(n.max(1));
        if threads <= 1 || n <= 1 {
            return (0..n).map(|i| self.eval(i)).collect();
        }
        let chunk = n.div_ceil(threads);
        // The calling thread keeps working too; only the spawned workers
        // beyond it count against the budget.
        let spawned = n.div_ceil(chunk).saturating_sub(1);
        budget.active.fetch_add(spawned, Ordering::Relaxed);
        let mut out: Vec<Self::Item> = Vec::with_capacity(n);
        let this = &self;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(spawned);
            let mut start = chunk.min(n);
            while start < n {
                let end = (start + chunk).min(n);
                let pool = pool.clone();
                handles.push(scope.spawn(move || {
                    // Workers inherit the pool, so their nested calls draw
                    // on the same budget.
                    POOL.with(|p| *p.borrow_mut() = pool);
                    (start..end).map(|i| this.eval(i)).collect::<Vec<_>>()
                }));
                start = end;
            }
            // First chunk on the calling thread, in parallel with the rest.
            out.extend((0..chunk.min(n)).map(|i| this.eval(i)));
            for h in handles {
                out.extend(h.join().expect("rayon shim worker panicked"));
            }
        });
        budget.active.fetch_sub(spawned, Ordering::Relaxed);
        out
    }

    /// Collects results, preserving input order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.to_vec().into_iter().collect()
    }

    /// Sums results.
    fn sum<S: std::iter::Sum<Self::Item>>(self) -> S {
        self.to_vec().into_iter().sum()
    }
}

/// Conversion into a parallel iterator by reference (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type.
    type Item: Sync + 'a;
    /// Parallel iterator over `&Self::Item`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// Borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.items.len()
    }
    fn eval(&self, index: usize) -> &'a T {
        &self.items[index]
    }
}

/// Mapped pipeline stage.
pub struct Map<I, F> {
    inner: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    type Item = R;
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn eval(&self, index: usize) -> R {
        (self.f)(self.inner.eval(index))
    }
}

/// Enumerated pipeline stage.
pub struct Enumerate<I> {
    inner: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn eval(&self, index: usize) -> (usize, I::Item) {
        (index, self.inner.eval(index))
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// New builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 = automatic, like upstream).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    ///
    /// Never fails in this shim; the `Result` mirrors upstream's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            budget: Arc::new(Budget {
                width: Some(self.num_threads.unwrap_or_else(default_num_threads)),
                active: AtomicUsize::new(0),
            }),
        })
    }
}

/// Error type mirroring upstream (never produced by this shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("rayon shim thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A scoped worker budget, mirroring `rayon::ThreadPool`.
pub struct ThreadPool {
    budget: Arc<Budget>,
}

impl ThreadPool {
    /// Runs `op` with this pool's worker budget governing every parallel
    /// call `op` makes, on the current thread and on the pool's workers.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = POOL.with(|p| p.replace(Some(Arc::clone(&self.budget))));
        let result = op();
        POOL.with(|p| *p.borrow_mut() = prev);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = items.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_indices_match() {
        let items = vec!["a", "b", "c", "d"];
        let got: Vec<(usize, String)> = items
            .par_iter()
            .enumerate()
            .map(|(i, s)| (i, format!("{i}{s}")))
            .collect();
        assert_eq!(got[2], (2, "2c".to_string()));
    }

    #[test]
    fn single_thread_install_matches_parallel() {
        let items: Vec<u64> = (0..257).collect();
        let par: Vec<u64> = items.par_iter().map(|x| x * x).collect();
        let serial: Vec<u64> = ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| items.par_iter().map(|x| x * x).collect());
        assert_eq!(par, serial);
    }

    #[test]
    fn sum_works() {
        let items: Vec<u64> = (1..=100).collect();
        let s: u64 = items.par_iter().map(|x| *x).sum();
        assert_eq!(s, 5050);
    }

    #[test]
    fn actually_spawns_threads_when_allowed() {
        // A 4-thread pool spawns workers whatever sibling tests hold of the
        // process-wide budget.
        let items: Vec<u64> = (0..64).collect();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let ids: Vec<std::thread::ThreadId> = pool.install(|| {
            items
                .par_iter()
                .map(|_| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    std::thread::current().id()
                })
                .collect()
        });
        let unique: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(unique.len() > 1, "expected multiple worker threads");
    }
}
