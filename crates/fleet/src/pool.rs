//! A persistent worker pool for quote fan-out.
//!
//! The previous parallel quote path spawned scoped threads on **every**
//! round; at fleet scale that spawn/join cost swamped the per-node
//! completion work it was parallelising (a 45.5k → 5.9k q/s collapse
//! at 8 quote threads on the 100-tenant, 8-node grid). A
//! [`QuotePool`] spawns its workers once, parks them on a condvar
//! between rounds, and hands each round's borrowed closure to them
//! through a type-erased pointer — the per-round cost drops from thread
//! creation to a wake/park pair.
//!
//! ## Safety model
//!
//! [`QuotePool::run`] publishes a pointer to a caller-borrowed
//! `dyn Fn(usize) + Sync` closure and **blocks until every worker has
//! finished calling it** (the `active` count reaching zero gates the
//! return), so the closure and everything it borrows strictly outlive
//! every use — the same guarantee `std::thread::scope` provides, paid
//! once instead of per round. The guarantee holds under panics too: a
//! leader panic drains the round from a drop guard before unwinding,
//! and a worker panic is caught (so `active` still reaches zero) and
//! re-raised by the leader after the round. Workers only read the
//! pointer inside a round (the `round` counter gates them), and the
//! pointer is cleared before `run` returns. This is the one place in
//! the workspace that needs `unsafe`; everything else stays
//! `deny(unsafe_code)`.
//!
//! ## Core pinning
//!
//! Pool workers are *sticky*: worker `w` runs chunk `w + 1` in every
//! round, so each worker touches the same node states round after round.
//! Pinning worker `w` to core `(w + 1) mod cores` (the leader keeps
//! core 0's share by exclusion) keeps those states in one core's private
//! cache instead of migrating with the scheduler. The pin is a raw
//! `sched_setaffinity` syscall — the vendored tree carries no `libc`, so
//! the two supported Linux ISAs issue it through inline asm and every
//! other target compiles a no-op returning `false`. Pinning is purely a
//! placement hint: round results are bit-identical with it on, off, or
//! partially applied (the affinity mask never changes *what* runs, only
//! *where*), and a failed pin (restrictive cpuset, exotic kernel) is
//! silently tolerated — [`QuotePool::pinned_workers`] reports how many
//! pins actually took, for telemetry.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Pins the calling thread to `cpu` via a raw `sched_setaffinity(2)`
/// syscall (pid 0 = calling thread). Returns whether the kernel accepted
/// the mask. No `libc` in the vendored tree, hence inline asm on the
/// supported Linux ISAs and a `false`-returning no-op elsewhere.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u64; 16]; // 1024 CPUs, same cap as glibc's cpu_set_t
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1u64 << (cpu % 64);
    let size = std::mem::size_of_val(&mask);
    let ret: isize;
    #[cfg(target_arch = "x86_64")]
    // SAFETY: sched_setaffinity only reads `size` bytes of the live
    // `mask` buffer; rcx/r11 are the registers the syscall instruction
    // itself clobbers.
    #[allow(unsafe_code)]
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") 0usize,
            in("rsi") size,
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: as above; aarch64 returns the result in x0.
    #[allow(unsafe_code)]
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") 122isize, // __NR_sched_setaffinity
            inlateout("x0") 0isize => ret,
            in("x1") size,
            in("x2") mask.as_ptr(),
            options(nostack, readonly),
        );
    }
    ret == 0
}

/// Non-Linux (or unsupported-ISA) fallback: pinning quietly does nothing.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// Hands out the disjoint fixed-size chunks of a mutable slice across
/// threads, each at most once — the shape a quote round needs to give
/// every pool participant exclusive access to its node chunk without
/// `unsafe` leaking outside this module. Exclusivity is enforced at
/// runtime by per-chunk claim flags, so the API cannot alias even if
/// misused (a double claim just returns `None`).
pub(crate) struct ChunkSlices<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk_len: usize,
    claimed: Vec<AtomicBool>,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: a `ChunkSlices` only ever releases disjoint `&mut` subslices
// (each chunk index at most once, gated by an atomic claim), so sharing
// the dispenser across threads is sound whenever moving the elements'
// mutable borrows across threads is — i.e. `T: Send`.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for ChunkSlices<'_, T> {}

impl<'a, T> ChunkSlices<'a, T> {
    /// Wraps `slice` for dispensing in chunks of `chunk_len`.
    ///
    /// # Panics
    /// Panics if `chunk_len` is zero.
    pub(crate) fn new(slice: &'a mut [T], chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk_len must be positive");
        let len = slice.len();
        let chunks = len.div_ceil(chunk_len);
        ChunkSlices {
            ptr: slice.as_mut_ptr(),
            len,
            chunk_len,
            claimed: (0..chunks).map(|_| AtomicBool::new(false)).collect(),
            _marker: PhantomData,
        }
    }

    /// Number of chunks available.
    pub(crate) fn chunks(&self) -> usize {
        self.claimed.len()
    }

    /// Claims chunk `chunk`, returning its mutable subslice — or `None`
    /// when the index is out of range or the chunk was already claimed.
    #[allow(clippy::mut_from_ref)] // disjointness enforced by the claim flags
    pub(crate) fn take(&self, chunk: usize) -> Option<&mut [T]> {
        let flag = self.claimed.get(chunk)?;
        if flag.swap(true, Ordering::AcqRel) {
            return None;
        }
        let start = chunk * self.chunk_len;
        let end = (start + self.chunk_len).min(self.len);
        // SAFETY: the claim flag guarantees this range is handed out at
        // most once, ranges of distinct chunks are disjoint, and the
        // phantom borrow keeps the backing slice alive and exclusively
        // borrowed for 'a.
        #[allow(unsafe_code)]
        Some(unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), end - start) })
    }
}

/// Type-erased pointer to the current round's closure. Only dereferenced
/// while the publishing [`QuotePool::run`] call is blocked waiting for
/// the round to finish.
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (concurrent calls are allowed) and its
// lifetime is enforced dynamically by the round protocol described in the
// module docs.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

struct State {
    /// Round counter; a bump tells parked workers a new job is published.
    round: u64,
    /// The published round closure, present exactly while a round runs.
    job: Option<Job>,
    /// Workers that have not yet finished the current round.
    active: usize,
    /// Set when a worker's job call panicked this round (the panic is
    /// caught so the count still reaches zero; the leader re-raises).
    worker_panicked: bool,
    /// Set once, on drop: workers exit instead of waiting for a round.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between rounds.
    work: Condvar,
    /// The round leader parks here while workers finish.
    done: Condvar,
}

/// A pool of parked worker threads executing one borrowed closure per
/// round, created once per router and reused for every quote round.
pub(crate) struct QuotePool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// How many workers successfully pinned themselves to a core.
    pinned: Arc<AtomicU64>,
}

impl QuotePool {
    /// Spawns `workers` parked worker threads. Worker `w` calls each
    /// round's closure with chunk index `w + 1` (the round leader runs
    /// chunk 0 itself); with `pin` set it first pins itself to core
    /// `(w + 1) mod cores` (see the module docs). A pin the platform or
    /// kernel refuses is tolerated; the worker just runs unpinned.
    pub(crate) fn with_pinning(workers: usize, pin: bool) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                round: 0,
                job: None,
                active: 0,
                worker_panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let pinned = Arc::new(AtomicU64::new(0));
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let pinned = Arc::clone(&pinned);
                std::thread::spawn(move || {
                    if pin && pin_current_thread((w + 1) % cores) {
                        pinned.fetch_add(1, Ordering::Relaxed);
                    }
                    worker_loop(&shared, w + 1);
                })
            })
            .collect();
        QuotePool {
            shared,
            workers: handles,
            pinned,
        }
    }

    /// Worker threads in the pool (chunk indexes 1..=workers).
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Workers whose core pin took effect (0 when pinning was off, on a
    /// non-Linux target, or wherever the kernel refused the mask).
    /// Telemetry only — results never depend on placement.
    pub(crate) fn pinned_workers(&self) -> u64 {
        self.pinned.load(Ordering::Relaxed)
    }

    /// Runs one round: every worker calls `job(its chunk index)`, the
    /// caller runs `job(0)` concurrently, and `run` returns only after
    /// all calls completed — **including when `job` panics**, on either
    /// side. A leader panic still waits for every worker before
    /// unwinding (the pointer must never outlive the round); a worker
    /// panic is caught so the round completes, then re-raised here —
    /// the same observable behavior `std::thread::scope` gave the old
    /// per-round spawns. `job` must tolerate chunk indexes beyond the
    /// round's real chunk count (return immediately).
    ///
    /// # Panics
    /// Re-raises a panic from any worker's `job` call.
    pub(crate) fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        // SAFETY: erasing the borrow's lifetime is sound because this
        // function does not return — by return or by unwind (the
        // `RoundGuard` below) — until `active` is zero, i.e. until no
        // worker can touch the pointer again (see module docs).
        #[allow(unsafe_code)]
        let erased = Job(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                job as *const (dyn Fn(usize) + Sync),
            )
        });
        {
            let mut st = lock_ignoring_poison(&self.shared.state);
            debug_assert_eq!(st.active, 0, "previous round still running");
            st.job = Some(erased);
            st.round = st.round.wrapping_add(1);
            st.active = self.workers.len();
            st.worker_panicked = false;
            drop(st);
            self.shared.work.notify_all();
        }

        /// Blocks until the round drains, whether the leader's `job(0)`
        /// returned or unwound — the soundness linchpin of the erased
        /// lifetime above.
        struct RoundGuard<'a>(&'a Shared);
        impl Drop for RoundGuard<'_> {
            fn drop(&mut self) {
                let mut st = lock_ignoring_poison(&self.0.state);
                while st.active > 0 {
                    st = wait_ignoring_poison(&self.0.done, st);
                }
                st.job = None;
            }
        }
        let guard = RoundGuard(&self.shared);
        // The leader contributes chunk 0 while workers run theirs.
        job(0);
        drop(guard);
        if lock_ignoring_poison(&self.shared.state).worker_panicked {
            panic!("quote worker panicked");
        }
    }
}

/// Locks a pool mutex, continuing through poison: the pool's own
/// invariants (counters, flags) are maintained under the lock without
/// running user code, so a poisoned state is still consistent — and the
/// unwind paths that get here must not double-panic.
fn lock_ignoring_poison<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`lock_ignoring_poison`], for condvar waits.
fn wait_ignoring_poison<'a, T>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Drop for QuotePool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("quote pool poisoned");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, chunk: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock_ignoring_poison(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.round != seen {
                    seen = st.round;
                    break st.job.as_ref().expect("round published without job").0;
                }
                st = wait_ignoring_poison(&shared.work, st);
            }
        };
        // A panicking job must still decrement `active` — otherwise the
        // leader waits forever — so catch, record, and let the leader
        // re-raise after the round. (`AssertUnwindSafe`: nothing of the
        // worker's survives the catch except the flag.)
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: `run` keeps the closure (and its borrows) alive
            // until this worker decrements `active` below.
            #[allow(unsafe_code)]
            unsafe {
                (*job)(chunk);
            }
        }));
        let mut st = lock_ignoring_poison(&shared.state);
        if outcome.is_err() {
            st.worker_panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_chunk_runs_exactly_once_per_round() {
        let pool = QuotePool::with_pinning(3, false);
        assert_eq!(pool.workers(), 3);
        for _ in 0..50 {
            let counts: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.run(&|chunk| {
                counts[chunk].fetch_add(1, Ordering::SeqCst);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "chunk {i}");
            }
        }
    }

    #[test]
    fn rounds_see_fresh_borrows() {
        // Each round borrows a different stack-local — the lifetime-erase
        // protocol must confine every use to its own round.
        let pool = QuotePool::with_pinning(2, false);
        for round in 0..20usize {
            let sum = AtomicUsize::new(0);
            let local = [round; 3];
            pool.run(&|chunk| {
                if chunk < local.len() {
                    sum.fetch_add(local[chunk], Ordering::SeqCst);
                }
            });
            assert_eq!(sum.load(Ordering::SeqCst), round * 3);
        }
    }

    #[test]
    fn chunk_slices_dispense_disjoint_exclusive_chunks() {
        let mut data = [0u32; 10];
        let slices = ChunkSlices::new(&mut data, 4);
        assert_eq!(slices.chunks(), 3);
        let a = slices.take(0).expect("first claim");
        assert!(slices.take(0).is_none(), "double claim refused");
        let b = slices.take(2).expect("tail chunk");
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 2, "last chunk is the remainder");
        assert!(slices.take(3).is_none(), "out of range");
        a[0] = 7;
        b[1] = 9;
        drop(slices);
        assert_eq!(data[0], 7);
        assert_eq!(data[9], 9);
    }

    #[test]
    fn worker_panics_are_caught_drained_and_reraised() {
        let pool = QuotePool::with_pinning(2, false);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|chunk| {
                assert!(chunk != 1, "boom in worker");
            });
        }))
        .expect_err("the worker panic must re-raise in the leader");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "quote worker panicked");
        // The pool survives and runs clean rounds afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn leader_panic_drains_the_round_before_unwinding() {
        let pool = QuotePool::with_pinning(3, false);
        let worker_calls = AtomicUsize::new(0);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|chunk| {
                if chunk == 0 {
                    panic!("boom in leader");
                }
                worker_calls.fetch_add(1, Ordering::SeqCst);
            });
        }))
        .expect_err("leader panic propagates");
        // The guard waited for every worker, so all three ran to
        // completion before the unwind released the round's borrows.
        assert_eq!(worker_calls.load(Ordering::SeqCst), 3);
        // And the pool is still usable.
        let hits = AtomicUsize::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pinned_pools_run_rounds_identically() {
        // Whether the pins take is a platform/kernel question; what the
        // pool *computes* must not depend on it.
        let pinned = QuotePool::with_pinning(3, true);
        let unpinned = QuotePool::with_pinning(3, false);
        assert_eq!(unpinned.pinned_workers(), 0, "pinning off means zero pins");
        for round in 0..20usize {
            let sums = [AtomicUsize::new(0), AtomicUsize::new(0)];
            for (which, pool) in [&pinned, &unpinned].into_iter().enumerate() {
                pool.run(&|chunk| {
                    sums[which].fetch_add(round * 10 + chunk, Ordering::SeqCst);
                });
            }
            assert_eq!(
                sums[0].load(Ordering::SeqCst),
                sums[1].load(Ordering::SeqCst)
            );
        }
        assert!(pinned.pinned_workers() <= 3, "at most one pin per worker");
    }

    #[test]
    fn pin_current_thread_does_not_disturb_the_caller() {
        // The syscall either takes or is refused; either way the thread
        // keeps running and the answer is a plain bool.
        let _took = pin_current_thread(0);
        let absurd = pin_current_thread(1 << 20);
        assert!(!absurd, "beyond-mask CPUs are rejected without a syscall");
    }

    #[test]
    fn oversized_chunk_indexes_are_callable() {
        // A pool larger than a round's chunk count simply calls the job
        // with indexes the job ignores.
        let pool = QuotePool::with_pinning(4, false);
        let hits = AtomicUsize::new(0);
        pool.run(&|chunk| {
            if chunk < 2 {
                hits.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }
}
