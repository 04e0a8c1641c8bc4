//! A small persistent worker pool for intra-transaction parallelism.
//!
//! The IVM scheduler fans one level of a delta-propagation pass at a
//! time (the dirty nodes at one depth) across the pool: a short burst of
//! CPU-bound work spread over a fixed set of threads, many thousands of
//! times per second. Spawning threads per level (or per transaction)
//! would dwarf the work being parallelised, so a [`WorkerPool`] keeps its
//! threads alive and parked on a condvar between
//! [`broadcast`](WorkerPool::broadcast) calls; dispatching a level is one
//! mutex round-trip plus wakeups. Workers park rather than spin, so a
//! pool wider than the machine does not burn the cores its peers need.
//!
//! The pool is deliberately minimal — it only knows how to run one
//! closure on every worker simultaneously and re-raise the first panic.
//! Work distribution (the network's atomic cursors over a level's nodes)
//! lives with the caller.
//!
//! The pool takes its width as a count; the engine parses it (from
//! `PGQ_THREADS` or its setter), and at width `1` (the default) builds
//! no pool — the caller runs every level inline, on the same loop and
//! the same per-node step as at any other width.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

/// The job slot: a lifetime-erased pointer to the broadcast closure.
///
/// Safety: [`WorkerPool::broadcast`] does not return until every worker
/// has finished running the closure, so the pointee outlives every
/// dereference (the same discipline as `std::thread::scope`).
struct JobPtr(*const (dyn Fn(usize) + Sync + 'static));

// Safety: the pointee is `Sync` (bound enforced by `broadcast`), so
// sharing the pointer with worker threads is sound.
unsafe impl Send for JobPtr {}

#[derive(Default)]
struct JobState {
    /// Bumped once per broadcast; workers run each epoch exactly once.
    epoch: u64,
    job: Option<JobPtr>,
    /// Spawned workers still running the current epoch's job.
    running: usize,
    /// First panic payload raised by a worker's job this epoch,
    /// re-raised by `broadcast` once every worker has drained.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<JobState>,
    /// Workers park here between epochs.
    work_cv: Condvar,
    /// The broadcaster parks here until `running` drains to zero.
    done_cv: Condvar,
}

/// A fixed-size pool of persistent worker threads driven by
/// [`broadcast`](WorkerPool::broadcast). See the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Serialises broadcasts (clones of an engine may share one pool
    /// through an `Arc` and maintain views from different threads).
    broadcast_lock: Mutex<()>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// Pool with `threads` total workers. The calling thread is worker
    /// `0` of every broadcast, so `threads - 1` OS threads are spawned;
    /// `threads <= 1` spawns none and broadcasts run inline.
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(JobState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads.max(1))
            .map(|ix| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pgq-worker-{ix}"))
                    .spawn(move || worker_main(&shared, ix))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            broadcast_lock: Mutex::new(()),
        }
    }

    /// Total workers participating in a broadcast (spawned threads plus
    /// the caller).
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Run `job(worker_index)` once on every worker concurrently
    /// (indices `0..threads()`, the caller being `0`) and return when
    /// all of them have finished. Panics propagate to the caller after
    /// every worker has completed, so the pool stays usable; the
    /// original payload is re-raised (the caller's own panic takes
    /// precedence, then the first panicking worker's).
    ///
    /// Concurrent broadcasts from different threads are serialised.
    pub fn broadcast<F: Fn(usize) + Sync>(&self, job: F) {
        if self.handles.is_empty() {
            job(0);
            return;
        }
        let _serial = self.broadcast_lock.lock();
        // Erase the closure's lifetime for the job slot; see `JobPtr`.
        let ptr: *const (dyn Fn(usize) + Sync + '_) = &job;
        // Safety: pointer-only transmute widening the trait-object
        // lifetime; `broadcast` outlives every dereference.
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(ptr)
        });
        {
            let mut s = self.shared.state.lock();
            debug_assert_eq!(s.running, 0, "previous broadcast fully drained");
            s.epoch += 1;
            s.job = Some(ptr);
            s.running = self.handles.len();
            s.panic = None;
        }
        self.shared.work_cv.notify_all();
        let caller_result = catch_unwind(AssertUnwindSafe(|| job(0)));
        let worker_panic = {
            let mut s = self.shared.state.lock();
            self.shared.done_cv.wait_while(&mut s, |s| s.running > 0);
            s.job = None;
            s.panic.take()
        };
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut s = self.shared.state.lock();
            s.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_main(shared: &PoolShared, ix: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut s = shared.state.lock();
            shared
                .work_cv
                .wait_while(&mut s, |s| !s.shutdown && s.epoch == seen_epoch);
            if s.shutdown {
                return;
            }
            seen_epoch = s.epoch;
            JobPtr(s.job.as_ref().expect("epoch implies job").0)
        };
        // Safety: `broadcast` keeps the closure alive until `running`
        // drains to zero, which happens strictly after this call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(ix) }));
        let mut s = shared.state.lock();
        if let Err(payload) = result {
            if s.panic.is_none() {
                s.panic = Some(payload);
            }
        }
        s.running -= 1;
        if s.running == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_worker_exactly_once() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        for round in 1..=10 {
            pool.broadcast(|ix| {
                hits[ix].fetch_add(1, Ordering::Relaxed);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), round);
            }
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        pool.broadcast(|ix| {
            assert_eq!(ix, 0);
            assert_eq!(std::thread::current().id(), caller);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|ix| {
                if ix == 1 {
                    panic!("worker 1 fails");
                }
            });
        }));
        // The original payload must survive, not a generic pool error.
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 1 fails"));
        // The pool must still work after the panic.
        let total = AtomicUsize::new(0);
        pool.broadcast(|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn shared_pool_serialises_concurrent_broadcasts() {
        let pool = Arc::new(WorkerPool::new(2));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let in_flight = Arc::clone(&in_flight);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.broadcast(|ix| {
                            if ix == 0 {
                                // Only one broadcast may be active.
                                assert_eq!(in_flight.fetch_add(1, Ordering::SeqCst), 0);
                                assert_eq!(in_flight.fetch_sub(1, Ordering::SeqCst), 1);
                            }
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
