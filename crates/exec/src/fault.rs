//! Per-item fault isolation: panic capture, deterministic retries, and
//! cooperative deadlines for runaway work items.
//!
//! [`parallel_map_isolated`] wraps every work item in
//! [`std::panic::catch_unwind`], so one panicking injection cannot
//! poison the pool or abort a million-item campaign: the item degrades
//! to a typed [`ExecError`] at its slot and every other result is
//! unaffected. A [`FaultPolicy`] adds a bounded retry loop with
//! deterministic exponential backoff, and hands each attempt a fresh
//! [`CancelToken`] that long-running item code (the simulators'
//! watchdog loops) polls so runaway items time out cleanly instead of
//! spinning forever.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use lowvolt_obs::{names, Recorder};

use crate::{parallel_map, ExecPolicy};

/// Cooperative cancellation handle checked by long-running work items.
///
/// A token is either cancelled explicitly ([`CancelToken::cancel`]) or
/// implicitly once its deadline passes. Polling is cheap enough for
/// watchdog cadence: one relaxed atomic load, plus a clock read only
/// when a deadline is armed.
#[derive(Debug)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; it only fires via [`CancelToken::cancel`].
    #[must_use]
    pub fn unbounded() -> CancelToken {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: None,
        }
    }

    /// A token that reports cancelled once `timeout` has elapsed from now.
    #[must_use]
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: Instant::now().checked_add(timeout),
        }
    }

    /// The shared never-fired token instrumented code defaults to, so
    /// cancellation support costs nothing when unused.
    #[must_use]
    pub fn never() -> &'static CancelToken {
        static NEVER: CancelToken = CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: None,
        };
        &NEVER
    }

    /// Requests cancellation; all subsequent [`CancelToken::is_cancelled`]
    /// calls return `true`.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token was cancelled or its deadline has passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// A work item that failed permanently after exhausting its retry
/// budget. `Clone + PartialEq` so domain layers can embed it in their
/// own result enums and compare reports byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Every attempt at the item panicked.
    ItemPanicked {
        /// Input index of the failing item.
        index: usize,
        /// Attempts made (1 + retries).
        attempts: u32,
        /// Panic payload rendered as text (`<non-string panic>` when
        /// the payload was neither `&str` nor `String`).
        message: String,
    },
    /// Every attempt at the item hit its cooperative deadline.
    ItemTimedOut {
        /// Input index of the failing item.
        index: usize,
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The per-attempt budget that was exceeded, in milliseconds.
        timeout_ms: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ItemPanicked {
                index,
                attempts,
                message,
            } => write!(
                f,
                "work item {index} panicked on all {attempts} attempt(s): {message}"
            ),
            ExecError::ItemTimedOut {
                index,
                attempts,
                timeout_ms,
            } => write!(
                f,
                "work item {index} exceeded its {timeout_ms} ms deadline on all {attempts} attempt(s)"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Backoff before the first retry, in milliseconds; each further retry
/// doubles it.
const BACKOFF_BASE_MS: u64 = 1;
/// Upper bound on any single backoff sleep, in milliseconds.
const BACKOFF_CAP_MS: u64 = 100;

/// Retry and deadline policy for [`parallel_map_isolated`]. The default
/// (no retries, no deadline) behaves like [`crate::parallel_map`] except
/// that panics become [`ExecError::ItemPanicked`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Retries allowed after the first attempt (`0` = fail fast).
    pub max_retries: u32,
    /// Per-attempt cooperative deadline (`None` = unbounded).
    pub item_timeout_ms: Option<u64>,
}

impl FaultPolicy {
    /// Deterministic backoff before (1-based) retry number `retry`:
    /// `1 << (retry - 1)` milliseconds, capped at 100 ms. No jitter —
    /// retry schedules are reproducible like everything else in the
    /// engine.
    #[must_use]
    pub fn backoff(&self, retry: u32) -> Duration {
        let shift = retry.saturating_sub(1).min(16);
        Duration::from_millis((BACKOFF_BASE_MS << shift).min(BACKOFF_CAP_MS))
    }

    /// A fresh per-attempt token: deadline-armed when
    /// [`FaultPolicy::item_timeout_ms`] is set, unbounded otherwise.
    #[must_use]
    pub fn token(&self) -> CancelToken {
        match self.item_timeout_ms {
            Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
            None => CancelToken::unbounded(),
        }
    }
}

/// What an isolated work-item closure reports back for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemStatus<R> {
    /// The attempt completed with a result.
    Done(R),
    /// The attempt observed its [`CancelToken`] fire and unwound early;
    /// the fault layer retries or reports [`ExecError::ItemTimedOut`].
    TimedOut,
}

/// [`crate::parallel_map`] with per-item fault isolation: each item runs
/// under [`catch_unwind`] with a bounded retry loop, so the returned
/// vector always has one slot per input item — `Ok` results at their
/// input indices and typed [`ExecError`]s where an item failed every
/// attempt. The pool itself never aborts.
///
/// `f` receives `(index, &item, &CancelToken)`; long-running item code
/// should poll the token and return [`ItemStatus::TimedOut`] (or surface
/// a domain error) when it fires. Counters: `exec.panics` and
/// `exec.timeouts` count failed attempts, `exec.retries` counts
/// re-attempts; all three are thread-count invariant because attempts
/// per item are deterministic.
pub fn parallel_map_isolated<T, R, F>(
    policy: &ExecPolicy,
    fault: &FaultPolicy,
    rec: &dyn Recorder,
    items: &[T],
    f: F,
) -> Vec<Result<R, ExecError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &CancelToken) -> ItemStatus<R> + Sync,
{
    parallel_map(policy, rec, items, |i, item| {
        run_isolated(fault, rec, i, item, &f)
    })
}

fn run_isolated<T, R, F>(
    fault: &FaultPolicy,
    rec: &dyn Recorder,
    index: usize,
    item: &T,
    f: &F,
) -> Result<R, ExecError>
where
    F: Fn(usize, &T, &CancelToken) -> ItemStatus<R> + Sync,
{
    let enabled = rec.is_enabled();
    let attempts_allowed = fault.max_retries.saturating_add(1);
    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        let token = fault.token();
        match catch_unwind(AssertUnwindSafe(|| f(index, item, &token))) {
            Ok(ItemStatus::Done(r)) => return Ok(r),
            Ok(ItemStatus::TimedOut) => {
                if enabled {
                    rec.add(names::EXEC_TIMEOUTS, 1);
                }
                if attempt >= attempts_allowed {
                    return Err(ExecError::ItemTimedOut {
                        index,
                        attempts: attempt,
                        timeout_ms: fault.item_timeout_ms.unwrap_or(0),
                    });
                }
            }
            Err(payload) => {
                if enabled {
                    rec.add(names::EXEC_PANICS, 1);
                }
                if attempt >= attempts_allowed {
                    return Err(ExecError::ItemPanicked {
                        index,
                        attempts: attempt,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
        if enabled {
            rec.add(names::EXEC_RETRIES, 1);
        }
        std::thread::sleep(fault.backoff(attempt));
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowvolt_obs::MetricsRegistry;

    fn quiet_panics() {
        // Intentional panics in these tests would otherwise spray the
        // default hook's backtrace over the test output; silence only
        // the injected ones, leaving real failures loud.
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| info.payload().downcast_ref::<&str>().copied())
                    .unwrap_or("");
                let injected = ["injected failure", "odd items fail", "always", "boom"]
                    .iter()
                    .any(|m| msg.contains(m));
                if !injected {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn panicking_items_are_isolated_at_their_slots() {
        quiet_panics();
        let items: Vec<usize> = (0..50).collect();
        let reg = MetricsRegistry::new();
        let out = parallel_map_isolated(
            &ExecPolicy::with_threads(4),
            &FaultPolicy::default(),
            &reg,
            &items,
            |_, &x, _| {
                assert!(x % 13 != 7, "injected failure at {x}");
                ItemStatus::Done(x * 2)
            },
        );
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            if i % 13 == 7 {
                match r {
                    Err(ExecError::ItemPanicked {
                        index,
                        attempts,
                        message,
                    }) => {
                        assert_eq!(*index, i);
                        assert_eq!(*attempts, 1);
                        assert!(message.contains("injected failure"), "{message}");
                    }
                    other => panic!("expected panic error at {i}, got {other:?}"),
                }
            } else {
                assert_eq!(r.as_ref().ok(), Some(&(i * 2)));
            }
        }
        assert_eq!(reg.counter(names::EXEC_PANICS), 4, "items 7, 20, 33, 46");
        assert_eq!(reg.counter(names::EXEC_RETRIES), 0);
    }

    #[test]
    fn retries_recover_transient_failures_deterministically() {
        quiet_panics();
        use std::sync::atomic::{AtomicU32, Ordering};
        let attempts_seen: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..6).collect();
        let fault = FaultPolicy {
            max_retries: 2,
            ..FaultPolicy::default()
        };
        let reg = MetricsRegistry::new();
        let out = parallel_map_isolated(&ExecPolicy::serial(), &fault, &reg, &items, |i, &x, _| {
            let n = attempts_seen[i].fetch_add(1, Ordering::Relaxed);
            assert!(n >= 1 || x % 2 == 0, "odd items fail their first attempt");
            ItemStatus::Done(x)
        });
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.as_ref().ok(), Some(&i), "item {i} recovered");
        }
        assert_eq!(reg.counter(names::EXEC_PANICS), 3);
        assert_eq!(reg.counter(names::EXEC_RETRIES), 3);
    }

    #[test]
    fn exhausted_retries_report_attempt_count() {
        quiet_panics();
        let items = [1u8];
        let fault = FaultPolicy {
            max_retries: 3,
            ..FaultPolicy::default()
        };
        let reg = MetricsRegistry::new();
        let out = parallel_map_isolated(
            &ExecPolicy::serial(),
            &fault,
            &reg,
            &items,
            |_, _, _| -> ItemStatus<u8> { panic!("always") },
        );
        assert_eq!(
            out[0],
            Err(ExecError::ItemPanicked {
                index: 0,
                attempts: 4,
                message: "always".to_string(),
            })
        );
        assert_eq!(reg.counter(names::EXEC_PANICS), 4);
        assert_eq!(reg.counter(names::EXEC_RETRIES), 3);
    }

    #[test]
    fn timeouts_surface_as_typed_errors() {
        let items: Vec<u32> = (0..4).collect();
        let fault = FaultPolicy {
            item_timeout_ms: Some(0),
            ..FaultPolicy::default()
        };
        let reg = MetricsRegistry::new();
        let out = parallel_map_isolated(
            &ExecPolicy::with_threads(2),
            &fault,
            &reg,
            &items,
            |_, &x, token| {
                if token.is_cancelled() {
                    ItemStatus::TimedOut
                } else {
                    ItemStatus::Done(x)
                }
            },
        );
        for (i, r) in out.iter().enumerate() {
            assert_eq!(
                *r,
                Err(ExecError::ItemTimedOut {
                    index: i,
                    attempts: 1,
                    timeout_ms: 0,
                })
            );
        }
        assert_eq!(reg.counter(names::EXEC_TIMEOUTS), 4);
    }

    #[test]
    fn cancel_token_semantics() {
        let t = CancelToken::unbounded();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(CancelToken::with_timeout(Duration::ZERO).is_cancelled());
        assert!(!CancelToken::with_timeout(Duration::from_secs(3600)).is_cancelled());
        assert!(!CancelToken::never().is_cancelled());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let fault = FaultPolicy {
            max_retries: 10,
            item_timeout_ms: None,
        };
        assert_eq!(fault.backoff(1), Duration::from_millis(1));
        assert_eq!(fault.backoff(2), Duration::from_millis(2));
        assert_eq!(fault.backoff(3), Duration::from_millis(4));
        assert_eq!(fault.backoff(7), Duration::from_millis(64));
        assert_eq!(fault.backoff(8), Duration::from_millis(100), "capped");
        assert_eq!(
            fault.backoff(60),
            Duration::from_millis(100),
            "shift clamped"
        );
    }

    #[test]
    fn isolated_map_is_thread_count_invariant() {
        quiet_panics();
        let items: Vec<usize> = (0..97).collect();
        let run = |threads: usize| {
            parallel_map_isolated(
                &ExecPolicy::with_threads(threads),
                &FaultPolicy::default(),
                lowvolt_obs::noop(),
                &items,
                |_, &x, _| {
                    assert!(x != 41, "boom");
                    ItemStatus::Done(x + 1)
                },
            )
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }

    #[test]
    fn isolated_map_on_empty_input() {
        let none: Vec<u8> = Vec::new();
        let out = parallel_map_isolated(
            &ExecPolicy::with_threads(8),
            &FaultPolicy::default(),
            lowvolt_obs::noop(),
            &none,
            |_, &x, _| ItemStatus::Done(x),
        );
        assert!(out.is_empty());
    }
}
