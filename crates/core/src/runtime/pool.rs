//! The persistent worker pool behind every parallel execution path.
//!
//! Before this module existed, each [`Runner`](crate::runtime::Runner)
//! batch spawned fresh OS threads through `std::thread::scope` — fine for
//! one Table-7 grid, wasteful for the fleet simulation engine, which
//! synchronizes its shards at a barrier several times per simulated step.
//! The pool amortizes thread creation across the whole process: workers are
//! spawned once (sized to the available parallelism) and batches of jobs
//! are pushed to them for the duration of one call.
//!
//! Scheduling model — **caller helps**:
//!
//! * [`WorkerPool::run_batch`] claims job indices from one shared atomic
//!   counter. The *calling* thread drains the batch alongside up to
//!   `workers - 1` pool helpers, so a batch always completes even when
//!   every pool worker is busy (nested batches — the fleet engine running
//!   inside a `Runner`-parallel sweep — can therefore never deadlock).
//! * The call returns only after every job has finished (a latch counts
//!   completions), which is what makes the lifetime-erasure below sound:
//!   borrowed data outlives every job that touches it.
//! * A panicking job is caught on the worker, recorded, and re-raised on
//!   the calling thread after the batch drains — a panic never kills a
//!   pool worker.
//!
//! Determinism: the pool never reorders *results*. [`run_indexed`] writes
//! each job's output into its own slot and [`for_each_mut`] hands each job
//! exclusive access to its own element, so which thread ran which job is
//! invisible — the property the simnet determinism suite pins across
//! 1/2/4/8 workers.
//!
//! Placement (Linux): a woken helper tends to be queued on the CPU of the
//! thread that woke it, and a batch of a few hundred milliseconds can end
//! before the kernel migrates it — per-CPU jiffies in `/proc/stat` during a
//! Table-7 grid read 26 on one CPU and 0 on the other, so the batch ran
//! serially. A batch therefore records its submitter's CPU, and a helper
//! that joins it restricts itself to the process's allowed CPUs minus that
//! one. It makes the call only when that CPU changed since its last batch,
//! so a caller that stays put costs no system call per batch.
//!
//! [`run_indexed`]: WorkerPool::run_indexed
//! [`for_each_mut`]: WorkerPool::for_each_mut

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One batch of indexed jobs, shared between the caller and its helpers.
struct Batch {
    /// Next unclaimed job index.
    next: AtomicUsize,
    /// Total jobs in the batch.
    jobs: usize,
    /// The job body. The `'static` is a lie told by `run_batch`, which
    /// guarantees the reference outlives every dereference: jobs only call
    /// it for indices `< jobs`, and `run_batch` blocks until all such jobs
    /// completed.
    run: &'static (dyn Fn(usize) + Sync),
    /// The CPU the submitting thread ran on, which helpers keep off.
    caller_cpu: Option<usize>,
    progress: Mutex<BatchProgress>,
    finished: Condvar,
}

struct BatchProgress {
    completed: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Batch {
    /// Whether a job is still unclaimed.
    fn is_live(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.jobs
    }

    /// Claims and runs jobs until the batch is exhausted. Safe to call on a
    /// ticket that outlived its `run_batch`: an exhausted counter means the
    /// (possibly dangling) job body is never touched.
    fn work(&self) {
        loop {
            let job = self.next.fetch_add(1, Ordering::Relaxed);
            if job >= self.jobs {
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.run)(job)));
            let mut progress = self.progress.lock().expect("batch lock");
            if let Err(payload) = outcome {
                progress.panic.get_or_insert(payload);
            }
            progress.completed += 1;
            if progress.completed == self.jobs {
                self.finished.notify_all();
            }
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    available: Condvar,
}

/// A persistent pool of worker threads executing indexed job batches.
///
/// Use [`WorkerPool::global`] — one pool per process, sized to the host's
/// available parallelism, reused by the [`Runner`](crate::runtime::Runner)
/// and the fleet simulation engine across every scenario repetition.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
}

impl WorkerPool {
    /// Builds a pool with `workers` persistent threads (`0` means every
    /// batch runs entirely on its calling thread).
    fn with_workers(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        // The CPUs the process may run on; `None` where placement is
        // unavailable, and then no helper ever restricts itself.
        let allowed = placement::allowed_cpus();
        let mut spawned = 0;
        for index in 0..workers {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("tolerance-pool-{index}"));
            if builder
                .spawn(move || {
                    // The caller CPU this helper last placed itself away from.
                    let mut placed_for = None;
                    loop {
                        let ticket = {
                            let mut queue = shared.queue.lock().expect("pool queue lock");
                            loop {
                                if let Some(ticket) = queue.pop_front() {
                                    break ticket;
                                }
                                queue = shared.available.wait(queue).expect("pool queue wait");
                            }
                        };
                        if let (Some(allowed), Some(cpu)) = (&allowed, ticket.caller_cpu) {
                            if placed_for != Some(cpu) && ticket.is_live() {
                                if let Some(mask) = helper_mask(allowed, cpu) {
                                    placement::restrict_current_thread(&mask);
                                }
                                placed_for = Some(cpu);
                            }
                        }
                        ticket.work();
                    }
                })
                .is_ok()
            {
                spawned += 1;
            }
        }
        WorkerPool {
            shared,
            workers: spawned,
        }
    }

    /// The number of persistent worker threads: as many as the host has
    /// hardware threads, so a batch on `workers()` workers is the caller
    /// plus one helper per remaining hardware thread.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// The process-wide pool, created on first use with one worker per
    /// available hardware thread.
    pub(crate) fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let workers = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            WorkerPool::with_workers(workers)
        })
    }

    /// Runs `jobs` indexed jobs across the calling thread plus up to
    /// `workers - 1` pool helpers, returning once every job completed.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any job produced (after the whole batch
    /// drained).
    fn run_batch(&self, jobs: usize, workers: usize, run: &(dyn Fn(usize) + Sync)) {
        if jobs == 0 {
            return;
        }
        // SAFETY: the erased reference is only dereferenced by jobs with an
        // index `< jobs`, and this function does not return before all of
        // them completed (the latch below). Late helpers that pop the
        // ticket afterwards observe an exhausted counter and never touch
        // `run`.
        let run: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
        let helpers = workers.min(jobs).saturating_sub(1).min(self.workers);
        let caller_cpu = if helpers > 0 {
            placement::current_cpu()
        } else {
            None
        };
        let batch = Arc::new(Batch {
            next: AtomicUsize::new(0),
            jobs,
            run,
            caller_cpu,
            progress: Mutex::new(BatchProgress {
                completed: 0,
                panic: None,
            }),
            finished: Condvar::new(),
        });
        if helpers > 0 {
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            for _ in 0..helpers {
                queue.push_back(Arc::clone(&batch));
            }
            drop(queue);
            if helpers == 1 {
                self.shared.available.notify_one();
            } else {
                self.shared.available.notify_all();
            }
        }
        batch.work();
        let mut progress = batch.progress.lock().expect("batch lock");
        while progress.completed < jobs {
            progress = batch.finished.wait(progress).expect("batch wait");
        }
        if let Some(payload) = progress.panic.take() {
            drop(progress);
            resume_unwind(payload);
        }
    }

    /// Runs `jobs` jobs and returns their outputs **in job order**,
    /// regardless of which thread ran which job.
    pub(crate) fn run_indexed<T, F>(&self, jobs: usize, workers: usize, job_fn: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
        slots.resize_with(jobs, || None);
        let base = SyncPtr(slots.as_mut_ptr());
        self.run_batch(jobs, workers, &|job| {
            let output = job_fn(job);
            // SAFETY: each job index writes exactly its own slot, and the
            // completion latch orders every write before the caller reads.
            unsafe { *base.slot(job) = Some(output) };
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every job index is executed exactly once"))
            .collect()
    }

    /// Runs `f(index, &mut items[index])` for every element, each job
    /// holding exclusive access to its own element.
    pub(crate) fn for_each_mut<T, F>(&self, items: &mut [T], workers: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let base = SyncPtr(items.as_mut_ptr());
        self.run_batch(items.len(), workers, &|job| {
            // SAFETY: distinct job indices address distinct elements, so no
            // two threads alias; the latch orders all accesses before the
            // borrow of `items` ends.
            f(job, unsafe { &mut *base.slot(job) });
        });
    }
}

/// A raw pointer whose disjoint-index access discipline is enforced by the
/// batch contract above.
struct SyncPtr<T>(*mut T);

impl<T> SyncPtr<T> {
    /// The element pointer at `index`; going through a method (rather than
    /// the field) makes closures capture the `Sync` wrapper, not the raw
    /// pointer.
    fn slot(&self, index: usize) -> *mut T {
        unsafe { self.0.add(index) }
    }
}

// SAFETY: every job touches only the element at its own index and the batch
// latch provides the happens-before edge to the caller.
unsafe impl<T: Send> Sync for SyncPtr<T> {}

/// Words of a glibc `cpu_set_t`: 1,024 CPUs, bit `n % W` of word `n / W`.
const CPU_SET_WORDS: usize = 1024 / std::ffi::c_ulong::BITS as usize;

/// A set of CPUs with the memory layout of glibc's `cpu_set_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
struct CpuSet([std::ffi::c_ulong; CPU_SET_WORDS]);

impl CpuSet {
    const WORD_BITS: usize = std::ffi::c_ulong::BITS as usize;

    fn contains(&self, cpu: usize) -> bool {
        cpu < CPU_SET_WORDS * Self::WORD_BITS
            && self.0[cpu / Self::WORD_BITS] & (1 << (cpu % Self::WORD_BITS)) != 0
    }

    fn count(&self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }
}

/// The CPUs a helper may use while `caller_cpu` runs the batch it joins:
/// every allowed CPU but the caller's. `None`, no restriction, when fewer
/// than two CPUs are allowed — a helper then has nowhere else to go.
fn helper_mask(allowed: &CpuSet, caller_cpu: usize) -> Option<CpuSet> {
    if allowed.count() < 2 {
        return None;
    }
    let mut mask = *allowed;
    if allowed.contains(caller_cpu) {
        mask.0[caller_cpu / CpuSet::WORD_BITS] &= !(1 << (caller_cpu % CpuSet::WORD_BITS));
    }
    Some(mask)
}

/// The three scheduler calls placement needs, from glibc.
#[cfg(target_os = "linux")]
mod placement {
    use super::CpuSet;
    use std::ffi::c_int;

    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    /// The calling thread's allowed CPUs.
    pub(super) fn allowed_cpus() -> Option<CpuSet> {
        let mut set = CpuSet([0; super::CPU_SET_WORDS]);
        // SAFETY: `set` is a writable `cpu_set_t` of the size passed.
        let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (status == 0).then_some(set)
    }

    /// The CPU the calling thread runs on.
    pub(super) fn current_cpu() -> Option<usize> {
        // SAFETY: no arguments; returns -1 on failure.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// Restricts the calling thread to `mask`. A refusal leaves the thread
    /// where it was, which costs speed and nothing else.
    pub(super) fn restrict_current_thread(mask: &CpuSet) {
        // SAFETY: `mask` is a readable `cpu_set_t` of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
    }
}

/// Elsewhere placement is off: no allowed set, so no helper restricts itself.
#[cfg(not(target_os = "linux"))]
mod placement {
    use super::CpuSet;

    pub(super) fn allowed_cpus() -> Option<CpuSet> {
        None
    }

    pub(super) fn current_cpu() -> Option<usize> {
        None
    }

    pub(super) fn restrict_current_thread(_: &CpuSet) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn outputs_are_in_job_order() {
        let outputs = WorkerPool::global().run_indexed(100, 8, |job| job * 3);
        assert_eq!(outputs, (0..100).map(|j| j * 3).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_mut_touches_every_element_exactly_once() {
        let mut items: Vec<u64> = vec![0; 64];
        WorkerPool::global().for_each_mut(&mut items, 4, |index, item| {
            *item += index as u64 + 1;
        });
        assert_eq!(items, (0..64).map(|i| i as u64 + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn single_worker_batches_run_on_the_caller() {
        let caller = std::thread::current().id();
        let ran_elsewhere = AtomicU64::new(0);
        WorkerPool::global().run_batch(16, 1, &|_| {
            if std::thread::current().id() != caller {
                ran_elsewhere.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(ran_elsewhere.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn nested_batches_complete() {
        // The fleet engine submits batches from inside Runner jobs that are
        // themselves pool jobs; caller-helps must drain both levels.
        let total = AtomicU64::new(0);
        WorkerPool::global().run_batch(4, 4, &|_| {
            let inner = WorkerPool::global().run_indexed(8, 4, |job| job as u64);
            total.fetch_add(inner.iter().sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 28);
    }

    #[test]
    fn panics_propagate_after_the_batch_drains() {
        let outcome = std::panic::catch_unwind(|| {
            WorkerPool::global().run_batch(8, 4, &|job| {
                assert!(job != 5, "scripted failure");
            });
        });
        assert!(outcome.is_err());
        // The pool survives the panic and keeps serving batches.
        let outputs = WorkerPool::global().run_indexed(4, 4, |job| job + 1);
        assert_eq!(outputs, vec![1, 2, 3, 4]);
    }

    fn cpus(list: &[usize]) -> CpuSet {
        let mut set = CpuSet([0; CPU_SET_WORDS]);
        for &cpu in list {
            set.0[cpu / CpuSet::WORD_BITS] |= 1 << (cpu % CpuSet::WORD_BITS);
        }
        set
    }

    fn members(set: &CpuSet) -> Vec<usize> {
        (0..1024).filter(|&cpu| set.contains(cpu)).collect()
    }

    #[test]
    fn helper_mask_excludes_the_caller_and_stays_inside_the_allowed_set() {
        for allowed in [vec![0, 1], vec![0, 1, 2, 3], vec![1, 5, 63, 64, 200, 1023]] {
            let set = cpus(&allowed);
            for caller in [0, 1, 5, 64, 1023, 2000] {
                let mask = helper_mask(&set, caller).expect("two or more CPUs allowed");
                let expected: Vec<usize> = allowed
                    .iter()
                    .copied()
                    .filter(|&cpu| cpu != caller)
                    .collect();
                assert_eq!(
                    members(&mask),
                    expected,
                    "allowed {allowed:?}, caller {caller}"
                );
                assert!(mask.count() >= 1);
            }
        }
    }

    #[test]
    fn helper_mask_is_no_restriction_with_one_allowed_cpu() {
        for caller in [0, 3, 7] {
            assert_eq!(helper_mask(&cpus(&[3]), caller), None);
            assert_eq!(helper_mask(&cpus(&[]), caller), None);
        }
    }

    #[test]
    fn empty_batches_return_immediately() {
        WorkerPool::global().run_batch(0, 8, &|_| unreachable!("no jobs"));
        let outputs: Vec<u64> = WorkerPool::global().run_indexed(0, 8, |_| 0);
        assert!(outputs.is_empty());
    }
}
