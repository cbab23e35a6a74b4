#![warn(missing_docs)]

//! # lowvolt-exec
//!
//! A deterministic parallel execution engine for the toolkit's
//! embarrassingly parallel hot paths: fault-injection campaigns, the
//! experiment harness, and the `(V_DD, V_T)` design-space sweeps.
//!
//! The engine is a chunked work pool over [`std::thread::scope`] — no
//! external dependencies, no global state, no detached threads. Work
//! items are claimed in chunks from an atomic cursor and every result is
//! returned **at its input index**, so the output of [`parallel_map`] is
//! byte-for-byte identical for 1, 2, or N worker threads. Parallelism
//! changes wall-clock time, never results. [`parallel_map`] is the one
//! region function; [`parallel_map_isolated`] and [`run_checkpointed`]
//! build on it.
//!
//! ```
//! use lowvolt_exec::{parallel_map, ExecPolicy};
//! use lowvolt_obs::noop;
//!
//! let items: Vec<u64> = (0..100).collect();
//! let serial = parallel_map(&ExecPolicy::serial(), noop(), &items, |_, &x| x * x);
//! let parallel = parallel_map(&ExecPolicy::with_threads(4), noop(), &items, |_, &x| x * x);
//! assert_eq!(serial, parallel);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lowvolt_obs::{names, span, Recorder};

pub mod cache;
pub mod fault;
pub mod journal;

pub use cache::{ByteCache, CacheError, CacheKey};
pub use fault::{parallel_map_isolated, CancelToken, ExecError, FaultPolicy, ItemStatus};
pub use journal::{
    run_checkpointed, CheckpointJournal, CheckpointOutcome, CheckpointSpec, JournalError,
    JournalReplay,
};

/// FNV-1a 64-bit hash of `bytes` — the checksum primitive shared by the
/// checkpoint journal, the byte cache, and callers deriving cache keys.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Environment variable consulted by [`ExecPolicy::from_env`] for the
/// worker-thread count. Unset, empty, `0`, or unparsable values fall
/// back to the machine's available parallelism.
pub const THREADS_ENV_VAR: &str = "LOWVOLT_THREADS";

/// How many worker threads a parallel region may use.
///
/// A policy is just a validated thread count; it is `Copy`, cheap to
/// pass down call stacks, and carries no pool state (threads are scoped
/// to each [`parallel_map`] call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    threads: NonZeroUsize,
}

impl ExecPolicy {
    /// A single-threaded policy: work runs inline on the calling thread,
    /// spawning nothing. This is the reference behaviour every parallel
    /// run must reproduce bit-identically.
    #[must_use]
    pub fn serial() -> ExecPolicy {
        ExecPolicy {
            threads: NonZeroUsize::MIN,
        }
    }

    /// A policy with an explicit thread count; `0` means "use all
    /// available parallelism".
    #[must_use]
    pub fn with_threads(threads: usize) -> ExecPolicy {
        match NonZeroUsize::new(threads) {
            Some(n) => ExecPolicy { threads: n },
            None => ExecPolicy::max_parallel(),
        }
    }

    /// A policy using the machine's full available parallelism (1 if it
    /// cannot be determined).
    #[must_use]
    pub fn max_parallel() -> ExecPolicy {
        ExecPolicy {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// Resolves the policy from the environment: `LOWVOLT_THREADS=N`
    /// selects N workers, anything else (unset, empty, `0`, garbage)
    /// selects the available parallelism.
    #[must_use]
    pub fn from_env() -> ExecPolicy {
        match std::env::var(THREADS_ENV_VAR) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => ExecPolicy::with_threads(n),
                _ => ExecPolicy::max_parallel(),
            },
            Err(_) => ExecPolicy::max_parallel(),
        }
    }

    /// The worker-thread count this policy permits.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Whether this policy runs inline without spawning.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.threads.get() == 1
    }
}

impl Default for ExecPolicy {
    /// Defaults to [`ExecPolicy::from_env`].
    fn default() -> ExecPolicy {
        ExecPolicy::from_env()
    }
}

/// Number of chunks each worker should expect to claim on average; more
/// chunks per worker smooths imbalance (fault campaigns mix cheap masked
/// runs with expensive oscillation diagnoses) at the cost of more cursor
/// traffic.
const CHUNKS_PER_WORKER: usize = 8;

fn chunk_size(items: usize, workers: usize) -> usize {
    (items / (workers * CHUNKS_PER_WORKER)).max(1)
}

/// Applies `f` to every item of `items`, in parallel under `policy`,
/// returning the results **in input order**.
///
/// `f` receives `(index, &item)` so callers can seed per-item state from
/// the index. Results are written to each item's slot, so the returned
/// vector is identical whatever the thread count — parallelism is an
/// implementation detail, not an observable.
///
/// A panic inside `f` on a worker thread is re-raised on the calling
/// thread (the standard [`std::thread::scope`] contract); the library's
/// own closures are panic-free and surface failures as values.
///
/// Execution-engine metrics are flushed to `rec`: `exec.regions` /
/// `exec.items` / `exec.chunks` counters plus `exec.region`,
/// `exec.worker` (per-worker busy time) and `exec.chunk` (per-chunk
/// wall time) spans. With a disabled recorder (`lowvolt_obs::noop()`)
/// the clock is never read, and no per-item work is added either way
/// (counters flush once per chunk, not per item).
///
/// `exec.items` and `exec.regions` are thread-count invariant;
/// `exec.chunks` deliberately is not (it reports how the pool actually
/// carved the work).
pub fn parallel_map<T, R, F>(policy: &ExecPolicy, rec: &dyn Recorder, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let enabled = rec.is_enabled();
    if enabled {
        rec.add(names::EXEC_REGIONS, 1);
        rec.add(names::EXEC_ITEMS, items.len() as u64);
    }
    if items.is_empty() {
        // An empty region counts as a region but spawns nothing, claims
        // no chunks, and opens no worker/chunk spans.
        return Vec::new();
    }
    let region = span(rec, names::SPAN_EXEC_REGION);
    let workers = policy.threads().min(items.len());
    if workers <= 1 {
        if enabled && !items.is_empty() {
            rec.add(names::EXEC_CHUNKS, 1);
        }
        let worker = span(rec, names::SPAN_EXEC_WORKER);
        let chunk = span(rec, names::SPAN_EXEC_CHUNK);
        let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        drop(chunk);
        drop(worker);
        drop(region);
        return out;
    }
    let chunk = chunk_size(items.len(), workers);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let slots = Mutex::new(&mut slots);
    // The calling thread is one of the workers, so a region spawns
    // `workers - 1` threads (each with its own stack and allocator
    // arena) rather than `workers`.
    let work = || {
        // Claim a chunk, compute it into a local buffer, then take
        // the slot lock once per chunk to deposit results at their
        // input indices. The lock is held only for the copy-out, so
        // contention stays negligible next to simulation work.
        let worker_start = enabled.then(Instant::now);
        let mut claimed: u64 = 0;
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            claimed += 1;
            let chunk_start = enabled.then(Instant::now);
            let end = (start + chunk).min(items.len());
            let local: Vec<R> = items[start..end]
                .iter()
                .enumerate()
                .map(|(off, t)| f(start + off, t))
                .collect();
            if let Ok(mut guard) = slots.lock() {
                for (off, r) in local.into_iter().enumerate() {
                    guard[start + off] = Some(r);
                }
            }
            if let Some(t0) = chunk_start {
                rec.record_nanos(names::SPAN_EXEC_CHUNK, elapsed_nanos(t0));
            }
        }
        if enabled {
            if claimed > 0 {
                rec.add(names::EXEC_CHUNKS, claimed);
            }
            if let Some(t0) = worker_start {
                rec.record_nanos(names::SPAN_EXEC_WORKER, elapsed_nanos(t0));
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    drop(region);
    // Every index in 0..len was claimed by exactly one worker and scope
    // exit joined them all, so every slot is filled; `flatten` cannot
    // drop anything here.
    let filled: &mut Vec<Option<R>> = match slots.into_inner() {
        Ok(s) => s,
        Err(poisoned) => poisoned.into_inner(),
    };
    std::mem::take(filled).into_iter().flatten().collect()
}

fn elapsed_nanos(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvolt_obs::noop;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let items: Vec<usize> = (0..1000).collect();
        let serial = parallel_map(&ExecPolicy::serial(), noop(), &items, |i, &x| (i, x * 3));
        for threads in [2, 3, 4, 16] {
            let par = parallel_map(
                &ExecPolicy::with_threads(threads),
                noop(),
                &items,
                |i, &x| (i, x * 3),
            );
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u8> = Vec::new();
        assert!(parallel_map(&ExecPolicy::with_threads(4), noop(), &none, |_, &x| x).is_empty());
        let one = [7u8];
        assert_eq!(
            parallel_map(&ExecPolicy::with_threads(4), noop(), &one, |_, &x| x + 1),
            vec![8]
        );
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let items: Vec<usize> = (0..313).collect(); // not a multiple of any chunk
        let calls = AtomicUsize::new(0);
        let out = parallel_map(&ExecPolicy::with_threads(5), noop(), &items, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out, items);
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u32, 2, 3];
        let out = parallel_map(&ExecPolicy::with_threads(64), noop(), &items, |_, &x| {
            x * 10
        });
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn policy_constructors() {
        assert!(ExecPolicy::serial().is_serial());
        assert_eq!(ExecPolicy::serial().threads(), 1);
        assert_eq!(ExecPolicy::with_threads(3).threads(), 3);
        assert!(ExecPolicy::with_threads(0).threads() >= 1);
        assert!(ExecPolicy::max_parallel().threads() >= 1);
        assert!(ExecPolicy::default().threads() >= 1);
    }

    #[test]
    fn recorded_map_counts_items_and_chunks() {
        use lowvolt_obs::MetricsRegistry;
        let items: Vec<usize> = (0..500).collect();
        let reg = MetricsRegistry::new();
        let out = parallel_map(&ExecPolicy::with_threads(4), &reg, &items, |_, &x| x + 1);
        assert_eq!(out.len(), 500);
        assert_eq!(reg.counter(names::EXEC_ITEMS), 500);
        assert_eq!(reg.counter(names::EXEC_REGIONS), 1);
        assert!(
            reg.counter(names::EXEC_CHUNKS) >= 4,
            "multiple chunks claimed"
        );
        let snap = reg.snapshot();
        assert!(snap.span(names::SPAN_EXEC_REGION).is_some());
        assert!(snap.span(names::SPAN_EXEC_WORKER).is_some());
        assert_eq!(
            snap.span(names::SPAN_EXEC_CHUNK).map(|s| s.count),
            Some(reg.counter(names::EXEC_CHUNKS))
        );
    }

    #[test]
    fn recorded_map_serial_and_empty_inputs() {
        use lowvolt_obs::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let items = [10u32, 20];
        let out = parallel_map(&ExecPolicy::serial(), &reg, &items, |_, &x| x);
        assert_eq!(out, vec![10, 20]);
        assert_eq!(reg.counter(names::EXEC_ITEMS), 2);
        assert_eq!(reg.counter(names::EXEC_CHUNKS), 1);
        let none: Vec<u8> = Vec::new();
        let out = parallel_map(&ExecPolicy::serial(), &reg, &none, |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(reg.counter(names::EXEC_REGIONS), 2);
        assert_eq!(
            reg.counter(names::EXEC_CHUNKS),
            1,
            "empty region claims no chunk"
        );
    }

    #[test]
    fn empty_input_returns_without_spawning() {
        use lowvolt_obs::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let none: Vec<u64> = Vec::new();
        let out = parallel_map(&ExecPolicy::with_threads(8), &reg, &none, |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(reg.counter(names::EXEC_REGIONS), 1);
        assert_eq!(reg.counter(names::EXEC_ITEMS), 0);
        assert_eq!(reg.counter(names::EXEC_CHUNKS), 0);
        // The early return precedes every span: no worker (or even
        // region) timer means no thread was spawned or clock read.
        let snap = reg.snapshot();
        assert!(snap.span(names::SPAN_EXEC_REGION).is_none());
        assert!(snap.span(names::SPAN_EXEC_WORKER).is_none());
        assert!(snap.span(names::SPAN_EXEC_CHUNK).is_none());
    }

    #[test]
    fn fewer_items_than_threads_runs_inline() {
        use lowvolt_obs::MetricsRegistry;
        // workers = threads.min(items): a single item runs inline as one
        // chunk, and tiny inputs never spawn more workers than items.
        let reg = MetricsRegistry::new();
        let one = [99u32];
        let out = parallel_map(&ExecPolicy::with_threads(64), &reg, &one, |_, &x| x + 1);
        assert_eq!(out, vec![100]);
        assert_eq!(reg.counter(names::EXEC_CHUNKS), 1, "single inline chunk");
        for n in 1..6usize {
            let items: Vec<usize> = (0..n).collect();
            let out = parallel_map(&ExecPolicy::with_threads(64), noop(), &items, |i, &x| {
                assert_eq!(i, x);
                x * 7
            });
            assert_eq!(out, items.iter().map(|&x| x * 7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunking_covers_all_sizes() {
        for n in [1usize, 2, 7, 8, 9, 63, 64, 65, 1000] {
            let items: Vec<usize> = (0..n).collect();
            let out = parallel_map(&ExecPolicy::with_threads(4), noop(), &items, |_, &x| x);
            assert_eq!(out, items, "n = {n}");
        }
        assert_eq!(chunk_size(1, 4), 1);
        assert!(chunk_size(10_000, 4) > 1);
    }
}
