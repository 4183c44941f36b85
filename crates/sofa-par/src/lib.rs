//! Deterministic scoped data-parallelism for the SOFA workspace.
//!
//! The parallel paths of this repository — batched pipeline runs, per-row
//! prediction/top-k loops, DSE candidate evaluation, request lowering and
//! the experiment registry's `all` run — are embarrassingly parallel over
//! *independent* work items. This crate maps them over plain
//! `std::thread::scope` workers ([`par_map`], [`par_map_index`]) with two
//! guarantees:
//!
//! 1. **Bit-identical results at any thread count.** Work is split into one
//!    contiguous chunk per worker (no work stealing), every item is computed
//!    independently, and results are stitched back together in input order.
//!    As long as the per-item closure is a pure function of its item,
//!    `par_map(items, f) == items.iter().map(f).collect()` holds exactly —
//!    the property the differential tests in `tests/property_tests.rs`
//!    enforce. Reductions over per-item tallies (e.g. `OpCounts`) are
//!    performed by the *caller* in input order, so no floating-point or
//!    counter reassociation can leak in.
//! 2. **No nested oversubscription.** A parallel region entered from inside
//!    a worker thread runs sequentially (checked via a thread-local flag),
//!    so `run_batch` over workloads can call the row-parallel SADS stage
//!    without spawning `threads²` threads — and without changing results.
//!
//! The worker count comes from, in order of precedence: a scoped
//! [`with_threads`] override (used by benchmarks to sweep a threads
//! dimension in-process), the `SOFA_THREADS` environment variable, and
//! finally `std::thread::available_parallelism()`. `SOFA_THREADS=1` (or a
//! single-item input) short-circuits to the plain sequential loop — no
//! threads are spawned at all.
//!
//! Randomised parallel work seeds each item from `(base_seed, item index)`
//! with [`item_seed`], so the stream an item sees is independent of which
//! worker runs it and of the thread count.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set inside worker threads: nested parallel regions run sequentially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Parses `SOFA_THREADS` once per process. `0`, empty or unparsable values
/// fall back to the machine's available parallelism.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        match std::env::var("SOFA_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    })
}

/// The worker count parallel regions started from this thread will use:
/// the innermost [`with_threads`] override if one is active, else
/// `SOFA_THREADS`, else the machine's available parallelism. Always ≥ 1.
pub fn configured_threads() -> usize {
    THREAD_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(env_threads)
        .max(1)
}

/// Runs `f` with the worker count of parallel regions (on this thread)
/// overridden to `threads`, restoring the previous setting afterwards —
/// the in-process analogue of setting `SOFA_THREADS`, used by benchmarks
/// and the differential tests to sweep thread counts.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(threads.max(1))));
    // Restore on unwind too, so a panicking closure cannot leak the override
    // into later tests on the same thread.
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Whether the current thread is already inside a `sofa-par` worker (nested
/// parallel regions degrade to sequential execution).
fn in_parallel_region() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Marks the current thread as inside a parallel region for the guard's
/// lifetime (restoring the previous state on drop, including on unwind) —
/// applied to workers *and* to the calling thread while it executes its own
/// chunk, so nested regions cannot over-spawn while workers are running.
struct RegionGuard(bool);

impl RegionGuard {
    fn enter() -> Self {
        RegionGuard(IN_WORKER.with(|c| c.replace(true)))
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|c| c.set(self.0));
    }
}

/// Chunk boundaries splitting `n` items into at most `workers` contiguous
/// chunks whose sizes differ by at most one.
fn chunk_bounds(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.min(n).max(1);
    let base = n / workers;
    let extra = n % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut lo = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        bounds.push((lo, lo + len));
        lo += len;
    }
    bounds
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// Deterministic: equal to `(0..n).map(f).collect()` whenever `f(i)` depends
/// only on `i`. Runs sequentially when the effective thread count is 1, `n`
/// is at most 1, or the caller is already inside a parallel region.
pub fn par_map_index<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = configured_threads();
    if threads <= 1 || n <= 1 || in_parallel_region() {
        return (0..n).map(f).collect();
    }
    let bounds = chunk_bounds(n, threads);
    std::thread::scope(|scope| {
        let f = &f;
        // Tail chunks go to spawned workers; the head chunk runs on the
        // calling thread concurrently with them, so a region of `w` chunks
        // costs `w - 1` thread spawns and the caller is never idle.
        let handles: Vec<_> = bounds[1..]
            .iter()
            .map(|&(lo, hi)| {
                scope.spawn(move || {
                    let _guard = RegionGuard::enter();
                    (lo..hi).map(f).collect::<Vec<U>>()
                })
            })
            .collect();
        let head: Vec<U> = {
            let _guard = RegionGuard::enter();
            (bounds[0].0..bounds[0].1).map(f).collect()
        };
        let mut out = Vec::with_capacity(n);
        out.extend(head);
        for h in handles {
            match h.join() {
                Ok(chunk) => out.extend(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// Maps `f` over `items`, returning one result per item in input order.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_index(items.len(), |i| f(&items[i]))
}

/// Domain-separation constant folded into [`item_seed`]'s base seed, so a
/// per-item seed never equals the plain SplitMix64 derivation of the same
/// `(base, index)` pair.
const ITEM_SEED_DOMAIN: u64 = 0x5047_5F50_4152_5F31; // "PG_PAR_1"

/// Derives the RNG seed of item `index` under `base_seed` (SplitMix64-style
/// mixing over a domain-separated base).
pub fn item_seed(base_seed: u64, index: u64) -> u64 {
    let mut z = (base_seed ^ ITEM_SEED_DOMAIN)
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_everything_contiguously() {
        for n in [0usize, 1, 2, 7, 8, 9, 64] {
            for workers in [1usize, 2, 3, 8, 100] {
                let b = chunk_bounds(n, workers);
                assert!(b.len() <= workers.max(1));
                let mut expect = 0;
                for &(lo, hi) in &b {
                    assert_eq!(lo, expect);
                    assert!(hi >= lo);
                    expect = hi;
                }
                if n > 0 {
                    assert_eq!(expect, n);
                    let sizes: Vec<usize> = b.iter().map(|&(lo, hi)| hi - lo).collect();
                    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(max - min <= 1, "chunks must be balanced: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_at_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1usize, 2, 3, 8, 200] {
            let got = with_threads(threads, || par_map(&items, |x| x * x + 1));
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn par_map_index_handles_empty_and_single() {
        assert_eq!(par_map_index(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_index(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn nested_regions_run_sequentially_but_correctly() {
        let outer: Vec<usize> = (0..8).collect();
        let got = with_threads(4, || {
            par_map(&outer, |&i| {
                assert!(in_parallel_region() || configured_threads() == 1);
                // Nested call: must degrade to sequential and still be right.
                par_map_index(5, |j| i * 10 + j)
            })
        });
        for (i, inner) in got.iter().enumerate() {
            assert_eq!(
                inner,
                &vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3, i * 10 + 4]
            );
        }
    }

    #[test]
    fn with_threads_restores_on_exit_and_unwind() {
        let before = configured_threads();
        with_threads(3, || assert_eq!(configured_threads(), 3));
        assert_eq!(configured_threads(), before);
        let caught = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(configured_threads(), before);
    }

    #[test]
    fn worker_panics_propagate() {
        let items = vec![0u32; 16];
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |_| {
                    panic!("worker failure");
                    #[allow(unreachable_code)]
                    0u32
                })
            })
        });
        assert!(caught.is_err(), "a panicking worker must fail the region");
    }

    #[test]
    fn item_seed_is_domain_separated_from_tensor_derive_seed() {
        // The plain SplitMix64 derivation (the same mixing without the
        // domain constant) and item_seed must never hand the same seed to
        // the same (base, index) pair.
        let tensor_derive = |base: u64, stream: u64| {
            let mut z =
                base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for base in [0u64, 1, 42, u64::MAX] {
            for index in [0u64, 1, 7, 1000] {
                assert_ne!(item_seed(base, index), tensor_derive(base, index));
            }
        }
        // Equal inputs agree; distinct bases give distinct seeds.
        assert_eq!(item_seed(1, 2), item_seed(1, 2));
        assert_ne!(item_seed(1, 2), item_seed(2, 2));
    }
}
