//! # rayon (vendored shim)
//!
//! The build environment has no network access to crates.io, so this crate
//! vendors the subset of the `rayon` API the workspace uses: `par_iter()`
//! over slices with `map` / `enumerate` / `collect::<Vec<_>>()`, plus
//! [`current_num_threads`]. Work is executed on `std::thread::scope`
//! threads pulling indices from an atomic cursor (dynamic balancing, like
//! rayon's work stealing at this granularity), and `collect` reassembles
//! results **in input order**, so pipelines that were deterministic
//! sequentially stay deterministic in parallel.
//!
//! Thread count: `RAYON_NUM_THREADS` if set, else the host-wide
//! `ACCELOS_THREADS` override (shared with the interpreter's worker
//! pool), else `std::thread::available_parallelism()`.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Everything call sites need: `use rayon::prelude::*;`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

/// Number of worker threads parallel iterators will use:
/// `RAYON_NUM_THREADS` if set, else `ACCELOS_THREADS` (the single knob
/// that also sizes the interpreter's worker pool), else the host's
/// available parallelism.
pub fn current_num_threads() -> usize {
    ["RAYON_NUM_THREADS", "ACCELOS_THREADS"]
        .iter()
        .find_map(|var| {
            std::env::var(var)
                .ok()
                .map(|v| v.parse::<usize>().ok().filter(|&n| n > 0).unwrap_or(1))
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// An indexed source of items that can be produced concurrently.
///
/// This is the shim's stand-in for rayon's `ParallelIterator` +
/// `IndexedParallelIterator` pair: every adapter knows its length and can
/// produce the item at any index on any thread.
pub trait ParallelIterator: Sync + Sized {
    /// The item type produced.
    type Item: Send;

    /// Number of items.
    fn len(&self) -> usize;

    /// Whether the iterator is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce the item at `index` (called concurrently from workers).
    fn item(&self, index: usize) -> Self::Item;

    /// Map each item through `f` in parallel.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Pair each item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Execute the pipeline and gather results in input order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Execute the pipeline for its side effects.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        run_indexed(self.len(), |i| f(self.item(i)));
    }
}

/// Collection types a parallel pipeline can gather into.
pub trait FromParallelIterator<T: Send>: Sized {
    /// Run `iter` to completion and build the collection.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        let n = iter.len();
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        {
            let slot_ptr = SyncPtr(slots.as_mut_ptr());
            run_indexed(n, |i| {
                let v = iter.item(i);
                // SAFETY: each index is claimed by exactly one worker (the
                // atomic cursor hands indices out once), so each slot is
                // written by exactly one thread and read only after the
                // scope joins every worker.
                unsafe { *slot_ptr.get().add(i) = Some(v) };
            });
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index was produced"))
            .collect()
    }
}

struct SyncPtr<T>(*mut T);
unsafe impl<T: Send> Sync for SyncPtr<T> {}
impl<T> SyncPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `Sync` wrapper under edition-2021 disjoint capture, not the
    /// raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Run `f(0..n)` across the worker pool, each index exactly once.
fn run_indexed<F: Fn(usize) + Sync>(n: usize, f: F) {
    let threads = current_num_threads().min(n);
    if threads <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        f(i);
    };
    // The calling thread is one of the workers: it takes its share rather
    // than idle in the scope's join.
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
}

/// Borrowing conversion into a parallel iterator (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type of the resulting iterator.
    type Item: Send;
    /// The iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Create a parallel iterator over `&self`.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParSlice<'a, T>;
    fn par_iter(&'a self) -> ParSlice<'a, T> {
        ParSlice { slice: self }
    }
}

/// Parallel iterator over a slice.
pub struct ParSlice<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParSlice<'a, T> {
    type Item = &'a T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn item(&self, index: usize) -> &'a T {
        &self.slice[index]
    }
}

/// `map` adapter.
pub struct Map<I, F> {
    base: I,
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
        self.base.len()
    }
    fn item(&self, index: usize) -> R {
        (self.f)(self.base.item(index))
    }
}

/// `enumerate` adapter.
pub struct Enumerate<I> {
    base: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    fn len(&self) -> usize {
        self.base.len()
    }
    fn item(&self, index: usize) -> (usize, I::Item) {
        (index, self.base.item(index))
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..997).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..997).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_indices_match() {
        let xs = vec!["a", "b", "c", "d"];
        let out: Vec<(usize, &str)> = xs.par_iter().enumerate().map(|(i, s)| (i, *s)).collect();
        assert_eq!(out, vec![(0, "a"), (1, "b"), (2, "c"), (3, "d")]);
    }

    #[test]
    fn for_each_visits_everything() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let xs: Vec<u64> = (1..=100).collect();
        let sum = AtomicU64::new(0);
        xs.par_iter().for_each(|&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn empty_input_is_fine() {
        let xs: Vec<u32> = Vec::new();
        let out: Vec<u32> = xs.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        assert!(xs.par_iter().is_empty());
    }
}
