//! A persistent worker pool for deterministic inter-peer parallelism.
//!
//! The pool is deliberately tiny and dependency-free: one process-wide
//! set of helper threads, started lazily the first time a fan-out needs
//! them and parked on a condvar between calls (they never spin). A
//! [`run_tasks`] call publishes its work loop to the helpers and then
//! runs the same loop itself, so the calling thread takes tasks too:
//! with `N` threads configured, the caller plus `N − 1` helpers pull
//! task indices from one atomic cursor. Results are collected as
//! `(index, value)` pairs and sorted back into input order before
//! returning, so **the output of [`run_tasks`] is a pure function of
//! its input** — thread count, scheduling order, and preemption never
//! change what the caller sees. That property is what lets the query
//! engines fan per-peer work (subqueries, partition joins and
//! aggregations) out over the pool while keeping results, traces, and
//! telemetry byte-identical at any thread count.
//!
//! The engines in `bestpeer_core::engine` are the only callers, and the
//! SQL operators each task runs are sequential.
//!
//! Hand-off protocol (the `SAFETY` argument in `fan_out` rests on it):
//!
//! - A call borrows its closure, items and result buffer from its own
//!   stack frame; helpers reach them through a lifetime-erased
//!   reference. The call neither returns nor unwinds until every helper
//!   that joined its job has left it, and after that no helper can find
//!   the job any more.
//! - A task that panics is caught where it ran; a helper survives it.
//!   The call re-raises the panic on the caller with the original
//!   payload once the helpers have left.
//! - One call owns the helpers at a time. A call made while they are
//!   busy — another thread's concurrent call, or a task calling back
//!   into the pool — runs its whole work loop inline on its own thread.
//!   Its results are identical, and no thread ever waits for a helper
//!   that another call holds, so nothing can deadlock.
//!
//! Thread-count resolution (first match wins):
//!
//! 1. a process-wide override set by [`set_threads`] (tests/benches);
//! 2. the `BESTPEER_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! A count of 1 (or at most one item) runs every task inline on the
//! caller's thread — the exact sequential path, not a one-worker
//! simulation of it.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Total tasks executed by fan-outs (drained by telemetry).
static TASKS: AtomicU64 = AtomicU64::new(0);

/// Total wall-clock nanoseconds spent inside pool tasks (drained by
/// telemetry; wall-clock, so registry-only — never in a query report).
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// Force the pool to `n` threads for this process (0 clears). Tests and
/// benches use this instead of mutating the environment; safe to flip
/// while other work runs because results are thread-count invariant.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Clear a [`set_threads`] override.
pub fn clear_threads() {
    THREAD_OVERRIDE.store(0, Ordering::SeqCst);
}

/// The number of threads a fan-out uses (the caller included): the
/// [`set_threads`] override, else `BESTPEER_THREADS`, else the
/// machine's available parallelism.
pub fn thread_count() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(s) = std::env::var("BESTPEER_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Drain the pool's `(tasks, busy_ns)` counters, resetting both to
/// zero. The telemetry layer calls this once per query to fold pool
/// activity into the metrics registry.
pub fn drain_counters() -> (u64, u64) {
    (
        TASKS.swap(0, Ordering::SeqCst),
        BUSY_NS.swap(0, Ordering::SeqCst),
    )
}

/// Run `f(i, &items[i])` for every item and return the results in input
/// order. With one thread (or at most one item) the tasks run inline on
/// the caller's thread; otherwise the caller and the pool's helpers pull
/// indices from an atomic cursor and the collected results are sorted
/// back into input order, so the returned vector is identical either
/// way. A panicking task's payload is re-raised on the caller.
pub fn run_tasks<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = thread_count().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let work = || {
        let mut local: Vec<(usize, R)> = Vec::new();
        let started = Instant::now();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            local.push((i, f(i, &items[i])));
        }
        TASKS.fetch_add(local.len() as u64, Ordering::Relaxed);
        BUSY_NS.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        done.lock().expect("pool results poisoned").extend(local);
    };
    fan_out(workers - 1, &work);
    let mut out = done.into_inner().expect("pool results poisoned");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// One fan-out's work loop as the helpers see it. The `'static` is a
/// lie told by [`fan_out`], which keeps it true for as long as any
/// helper can reach the reference.
type Job = &'static (dyn Fn() + Sync);

/// The process-wide helpers and the one job they may be working on.
struct Pool {
    state: Mutex<State>,
    /// Helpers park here until a job has a slot for them.
    work: Condvar,
    /// The owning call parks here until the last helper leaves its job.
    left: Condvar,
}

struct State {
    /// Set while one call owns the helpers.
    busy: bool,
    /// The published job; `None` once its owner stops admitting helpers.
    job: Option<Job>,
    /// Helpers the current job still admits (the thread count's share).
    slots: usize,
    /// Helpers inside the current job.
    inside: usize,
    /// The first panic a helper caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
    /// Helper threads started so far; they are never stopped.
    helpers: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        busy: false,
        job: None,
        slots: 0,
        inside: 0,
        panic: None,
        helpers: 0,
    }),
    work: Condvar::new(),
    left: Condvar::new(),
};

impl Pool {
    /// Lock the shared state. No code panics while holding this lock
    /// and every update is a single field write, so a poisoned lock
    /// still holds valid state; recovering it keeps the wait for
    /// helpers in [`fan_out`] from ever unwinding.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Run `work` on the calling thread and on up to `helpers` pool helpers
/// at once, and return once every one of them has finished it. `work`
/// must be safe to run on any number of threads at once, and must
/// return (or panic) on each only after the shared work is done.
fn fan_out(helpers: usize, work: &(dyn Fn() + Sync)) {
    let pool = &POOL;
    let mut st = pool.state();
    if st.busy {
        // Another thread's fan-out, or a task of this one calling back
        // in. The whole loop runs here, with the same results.
        drop(st);
        work();
        return;
    }
    // SAFETY: only the lifetime is erased; the reference stays valid
    // for as long as any helper can use it, because
    // - helpers copy `job` only from `State::job`, under the lock, and
    //   count themselves in `inside` in the same critical section;
    // - a helper uses its copy only until its call of it ends, and
    //   leaves `inside` after that;
    // - below, this call clears `State::job` and waits for `inside` to
    //   reach 0 before it returns, and nothing in between can unwind:
    //   the caller's own run of `work` is under `catch_unwind`, and
    //   `Pool::state` recovers a poisoned lock instead of panicking;
    // - `busy` admits one owner at a time, so no other call can
    //   publish over or clear this job.
    let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(work) };
    st.busy = true;
    while st.helpers < helpers && spawn_helper(st.helpers) {
        st.helpers += 1;
    }
    st.job = Some(job);
    st.slots = helpers.min(st.helpers);
    let slots = st.slots;
    drop(st);
    for _ in 0..slots {
        pool.work.notify_one();
    }
    let own = panic::catch_unwind(AssertUnwindSafe(work));
    let mut st = pool.state();
    st.job = None;
    st.slots = 0;
    while st.inside > 0 {
        st = pool.left.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    st.busy = false;
    let helper_panic = st.panic.take();
    drop(st);
    if let Err(payload) = own {
        panic::resume_unwind(payload);
    }
    if let Some(payload) = helper_panic {
        panic::resume_unwind(payload);
    }
}

/// Start helper number `n`. A failed start leaves the pool smaller; the
/// caller then takes the missing helper's share of every job.
fn spawn_helper(n: usize) -> bool {
    // The handle is dropped: helpers live as long as the process, and a
    // task's panic is caught inside `helper_loop`, never ending one.
    std::thread::Builder::new()
        .name(format!("bestpeer-pool-{n}"))
        .spawn(helper_loop)
        .is_ok()
}

/// A helper's life: park until a job has a free slot, run it, leave.
fn helper_loop() {
    let pool = &POOL;
    loop {
        let outcome = panic::catch_unwind(AssertUnwindSafe(join_next(pool)));
        let mut st = pool.state();
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.inside -= 1;
        if st.inside == 0 {
            pool.left.notify_one();
        }
    }
}

/// Park until a job has a free slot, then take the slot and count this
/// helper inside the job.
fn join_next(pool: &Pool) -> Job {
    let mut st = pool.state();
    loop {
        match st.job {
            Some(job) if st.slots > 0 => {
                st.slots -= 1;
                st.inside += 1;
                return job;
            }
            _ => st = pool.work.wait(st).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// The tests share the thread-count override, the task counters and
    /// the helpers themselves, so they run one at a time under this lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Holds [`SERIAL`] with the thread count pinned; clears the pin on
    /// drop, before the lock is released.
    struct Pinned {
        _serial: MutexGuard<'static, ()>,
    }

    fn pin(threads: usize) -> Pinned {
        // A test that failed while holding the lock poisons it; `()`
        // has no state to be left invalid.
        let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        set_threads(threads);
        Pinned { _serial: serial }
    }

    impl Drop for Pinned {
        fn drop(&mut self) {
            clear_threads();
        }
    }

    /// Block until `n` tasks have arrived, so that `n` threads must each
    /// be holding one task. Fails instead of hanging if they never do.
    fn rendezvous(arrived: &AtomicUsize, n: usize) {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(20);
        while arrived.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "no helper joined the job");
            std::thread::yield_now();
        }
    }

    #[test]
    fn results_come_back_in_input_order() {
        let _pin = pin(8);
        let items: Vec<u64> = (0..10_000).collect();
        let got = run_tasks(&items, |i, x| (i as u64) * 3 + x);
        let want: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| i as u64 * 3 + x)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn one_thread_runs_inline() {
        let _pin = pin(1);
        let tid = std::thread::current().id();
        let got = run_tasks(&[1, 2, 3], |_, x| (std::thread::current().id(), *x));
        assert!(got.iter().all(|(t, _)| *t == tid));
        assert_eq!(got.iter().map(|(_, x)| *x).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let _pin = pin(1);
        let items: Vec<i64> = (0..5000).map(|i| i * 7 % 113).collect();
        let seq = run_tasks(&items, |i, x| x.wrapping_mul(i as i64 + 1));
        set_threads(8);
        let par = run_tasks(&items, |i, x| x.wrapping_mul(i as i64 + 1));
        assert_eq!(seq, par);
    }

    #[test]
    fn counters_drain_to_zero() {
        let _pin = pin(4);
        drain_counters();
        let _ = run_tasks(&[1u8; 64], |_, x| *x);
        let (tasks, _) = drain_counters();
        assert_eq!(tasks, 64);
        assert_eq!(drain_counters(), (0, 0));
    }

    #[test]
    fn concurrent_calls_at_mixed_thread_counts_return_input_order() {
        let _pin = pin(2);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for call in 0..1_000usize {
                        set_threads(1 + (t + call) % 4);
                        let items: Vec<usize> = (0..call % 23).collect();
                        let got = run_tasks(&items, |i, x| i * 1_000 + x + t);
                        let want: Vec<usize> = (0..items.len()).map(|i| i * 1_001 + t).collect();
                        assert_eq!(got, want, "thread {t}, call {call}");
                    }
                });
            }
        });
    }

    #[derive(Debug, PartialEq)]
    struct Payload(u32);

    /// Two tasks, one forced onto the caller and one onto a helper; the
    /// one on the thread `on_caller` selects panics with `Payload(7)`.
    fn panic_on(on_caller: bool) -> Box<dyn Any + Send> {
        let caller = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        panic::catch_unwind(AssertUnwindSafe(|| {
            run_tasks(&[0u8, 1], |_, _| {
                rendezvous(&arrived, 2);
                if (std::thread::current().id() == caller) == on_caller {
                    panic::panic_any(Payload(7));
                }
            })
        }))
        .expect_err("a task panicked")
    }

    /// The thread ids that ran two rendezvousing tasks: the caller's
    /// and one helper's.
    fn two_thread_ids() -> Vec<ThreadId> {
        let arrived = AtomicUsize::new(0);
        run_tasks(&[0u8, 1], |_, _| {
            rendezvous(&arrived, 2);
            std::thread::current().id()
        })
    }

    #[test]
    fn a_task_panic_reaches_the_caller_and_the_pool_survives() {
        let _pin = pin(2);
        for on_caller in [false, true] {
            let payload = panic_on(on_caller);
            assert_eq!(
                payload.downcast_ref::<Payload>(),
                Some(&Payload(7)),
                "panic on the {} keeps its payload",
                if on_caller { "caller" } else { "helper" }
            );
            let ids = two_thread_ids();
            assert_ne!(ids[0], ids[1], "a helper still joins the next job");
            let items: Vec<u32> = (0..100).collect();
            assert_eq!(
                run_tasks(&items, |_, x| x * 2),
                (0..100).map(|x| x * 2).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn a_task_calling_run_tasks_runs_the_inner_call_inline() {
        let _pin = pin(2);
        let items: Vec<u32> = (0..8).collect();
        let got = run_tasks(&items, |_, x| {
            let outer = std::thread::current().id();
            let inner = run_tasks(&[1u32, 2, 3], |_, y| {
                (std::thread::current().id(), x * 10 + y)
            });
            assert!(
                inner.iter().all(|(t, _)| *t == outer),
                "inner call ran inline"
            );
            inner.into_iter().map(|(_, v)| v).sum::<u32>()
        });
        assert_eq!(got, items.iter().map(|x| x * 30 + 6).collect::<Vec<_>>());
    }

    #[test]
    fn no_task_runs_after_its_call_returns() {
        let _pin = pin(4);
        for round in 0..200usize {
            let written: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            let items: Vec<usize> = (0..16).collect();
            run_tasks(&items, |i, _| {
                if (i + round) % 5 == 0 {
                    std::thread::sleep(Duration::from_micros(100));
                }
                written[i].fetch_add(1, Ordering::SeqCst);
            });
            // Every task has run exactly once by the time the call
            // returns; the buffer is freed at the end of the round.
            let counts: Vec<usize> = written.iter().map(|w| w.load(Ordering::SeqCst)).collect();
            assert_eq!(counts, vec![1; 16], "round {round}");
        }
    }

    /// `utime + stime` clock ticks of this process's pool helpers.
    #[cfg(target_os = "linux")]
    fn helper_cpu_ticks() -> (usize, u64) {
        let mut found = 0;
        let mut ticks = 0;
        for task in std::fs::read_dir("/proc/self/task").expect("list threads") {
            let dir = task.expect("thread entry").path();
            let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
                continue;
            };
            if !comm.starts_with("bestpeer-pool") {
                continue;
            }
            let Ok(stat) = std::fs::read_to_string(dir.join("stat")) else {
                continue;
            };
            // Fields after the parenthesised name start at field 3
            // (state); utime and stime are fields 14 and 15.
            let rest = &stat[stat.rfind(')').expect("stat has a name") + 1..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            ticks += fields[11].parse::<u64>().expect("utime")
                + fields[12].parse::<u64>().expect("stime");
            found += 1;
        }
        (found, ticks)
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn idle_helpers_do_not_spin() {
        let _pin = pin(2);
        let ids = two_thread_ids();
        assert_ne!(ids[0], ids[1], "a helper ran a task");
        let (helpers, before) = helper_cpu_ticks();
        assert!(helpers >= 1, "the fan-out started a helper");
        std::thread::sleep(Duration::from_millis(300));
        let (_, after) = helper_cpu_ticks();
        // A spinning helper would burn ~30 ticks (at 100 Hz) here.
        assert!(
            after - before <= 2,
            "idle helpers used {} ticks",
            after - before
        );
    }
}
