//! Lazily-started persistent worker pool: the one driver behind every
//! threaded kernel ([`run_row_sharded`](super::run_row_sharded), the
//! segment sharder and fast-mode `k`-splitting).
//!
//! Workers live for the rest of the process and take shards through a
//! condvar handoff, so a threaded product costs a wake-up, not a thread
//! spawn:
//!
//! * **Same shards, same bits.** The pool executes exactly the shard
//!   list it is handed — contiguous whole-row shards, each reduced in
//!   ascending `k` by the kernel itself — so its output is bitwise equal
//!   to running that list serially on the caller. Which thread runs
//!   which shard is a scheduling detail; shard *contents* never depend
//!   on it.
//! * **Caller participates.** The submitting thread claims shards from
//!   the same atomic cursor as the workers, so a product makes progress
//!   even before the first worker has woken (and the pool can never
//!   deadlock a caller: with zero workers the caller simply runs every
//!   shard itself).
//! * **Panics resurface after the join.** A panicking shard is caught in
//!   place, its payload parked on the job, and the remaining shards
//!   still run to completion — then the *caller* re-panics with the
//!   original payload. A poisoned product therefore never returns
//!   normally and never reaches the autodiff tape.
//! * **Lazy, grown before enqueueing.** No thread exists until the first
//!   threaded product; the pool then grows to the largest shard count it
//!   has seen (capped). Growth happens before the job is queued, and a
//!   refused spawn only stops the growth: the caller still runs every
//!   unclaimed shard, and no queued job can outlive its caller's frame.
//!
//! Concurrent submitters (serve workers, rollout shards) enqueue
//! independent jobs; workers drain the queue FIFO, stealing shards
//! within a job through its claim cursor.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(test)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use super::{check_injected_panic, Span};

/// Hard cap on pool size; `effective_threads` caps shard counts far
/// below this in practice, the constant only bounds a hostile
/// `NVC_MATMUL_THREADS`.
const MAX_WORKERS: usize = 256;

/// One row shard of a queued product: rows `r0..r1` writing the
/// disjoint `rows × cols` window starting at `ptr`.
struct Shard {
    r0: usize,
    r1: usize,
    ptr: *mut f32,
    len: usize,
}

/// The stack-held context a job's shards execute against. It outlives
/// the job because the submitting caller blocks until every shard is
/// done before returning.
struct Ctx<'k> {
    kernel: &'k (dyn Fn(usize, usize, &mut [f32]) + Sync),
    shards: Vec<Shard>,
    rows_total: usize,
}

/// A queued sharded product. Workers and the submitting caller claim
/// shard indices from `next`; the last finisher flips `finished` under
/// `sync` and wakes the caller.
struct Job {
    ctx: *const (),
    shards: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    sync: Mutex<bool>,
    cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// The raw ctx pointer is only dereferenced by a thread that claimed a
// shard, and the submitter keeps the pointee alive until all claims
// complete — the Job is then inert even if it briefly lingers in the
// queue.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs shards until the cursor is exhausted. Returns
    /// `true` if the cursor is exhausted (the job can leave the queue).
    fn work(&self) -> bool {
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.shards {
                return true;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                // Safety: idx was claimed exactly once, so this thread
                // has exclusive access to that shard's output window;
                // the submitter keeps `ctx` alive until `done` says
                // every claim completed.
                let ctx = unsafe { &*(self.ctx as *const Ctx) };
                let s = &ctx.shards[idx];
                let out = unsafe { std::slice::from_raw_parts_mut(s.ptr, s.len) };
                check_injected_panic(s.r0, s.r1, ctx.rows_total);
                (ctx.kernel)(s.r0, s.r1, out);
            }));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.shards {
                *self.sync.lock().unwrap_or_else(|e| e.into_inner()) = true;
                self.cv.notify_all();
            }
        }
    }
}

struct PoolState {
    queue: VecDeque<Arc<Job>>,
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            workers: 0,
        }),
        work_cv: Condvar::new(),
    })
}

/// Number of pool workers spawned so far (0 until the first threaded
/// product — the pool is lazy).
#[cfg(test)]
fn worker_count() -> usize {
    pool()
        .state
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .workers
}

/// Test hook: while set, every worker spawn fails as if the OS had
/// refused the thread.
#[cfg(test)]
static FAIL_SPAWNS: AtomicBool = AtomicBool::new(false);

fn spawn_worker(index: usize) -> std::io::Result<()> {
    #[cfg(test)]
    if FAIL_SPAWNS.load(Ordering::Relaxed) {
        return Err(std::io::Error::other("injected spawn failure"));
    }
    std::thread::Builder::new()
        .name(format!("nvc-kpool-{index}"))
        .spawn(worker_loop)
        .map(drop)
}

fn worker_loop() {
    let p = pool();
    let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if let Some(job) = st.queue.front().map(Arc::clone) {
            drop(st);
            let exhausted = job.work();
            st = p.state.lock().unwrap_or_else(|e| e.into_inner());
            if exhausted {
                if let Some(front) = st.queue.front() {
                    if Arc::ptr_eq(front, &job) {
                        st.queue.pop_front();
                    }
                }
            }
        } else {
            st = p.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Runs an explicit shard list (disjoint windows of one output buffer)
/// on the pool and the caller, returning once every shard is done.
/// `marker` is the failure-injection marker the shards check against
/// (the product's total output row count).
pub(crate) fn run_spans(
    spans: Vec<Span<'_>>,
    marker: usize,
    kernel: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    debug_assert!(!spans.is_empty());
    let shards: Vec<Shard> = spans
        .into_iter()
        .map(|(r0, r1, slice)| Shard {
            r0,
            r1,
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        })
        .collect();
    let ctx = Ctx {
        kernel,
        shards,
        rows_total: marker,
    };
    let job = Arc::new(Job {
        ctx: &ctx as *const Ctx as *const (),
        shards: ctx.shards.len(),
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        sync: Mutex::new(false),
        cv: Condvar::new(),
        panic: Mutex::new(None),
    });

    let p = pool();
    {
        let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
        // Helpers beyond the caller itself; grow lazily, never shrink.
        // A refused spawn stops the growth but not the product: the
        // caller claims shards too, so the job completes on the workers
        // already running. Growing before the push means nothing can
        // unwind out of here with the job (and its `ctx` pointer into
        // this frame) left on the queue.
        let wanted = (job.shards - 1).min(MAX_WORKERS);
        while st.workers < wanted && spawn_worker(st.workers).is_ok() {
            st.workers += 1;
        }
        st.queue.push_back(Arc::clone(&job));
        p.work_cv.notify_all();
    }

    // Claim shards alongside the workers, then wait out the stragglers.
    let exhausted = job.work();
    debug_assert!(exhausted);
    {
        let mut st = p.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(front) = st.queue.front() {
            if Arc::ptr_eq(front, &job) {
                st.queue.pop_front();
            }
        }
    }
    let mut finished = job.sync.lock().unwrap_or_else(|e| e.into_inner());
    while !*finished {
        finished = job.cv.wait(finished).unwrap_or_else(|e| e.into_inner());
    }
    drop(finished);
    let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    drop(job);
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        clear_worker_panic, inject_worker_panic, k_spans, row_spans, segment_spans,
    };
    use super::*;

    /// The oracle every pool run is held to: the same shard list, run
    /// serially on the caller in list order.
    fn run_serially(spans: Vec<Span<'_>>, kernel: &(dyn Fn(usize, usize, &mut [f32]) + Sync)) {
        for (lo, hi, window) in spans {
            kernel(lo, hi, window);
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn caller_alone_finishes_a_job_and_pool_stays_bounded() {
        let rows = 6;
        let cols = 4;
        let mut out = vec![0.0f32; rows * cols];
        let spans = row_spans(3, rows, cols, &mut out);
        run_spans(spans, rows, &|r0, r1, slice| {
            for i in r0..r1 {
                for c in 0..cols {
                    slice[(i - r0) * cols + c] = (i * cols + c) as f32;
                }
            }
        });
        let want: Vec<f32> = (0..rows * cols).map(|x| x as f32).collect();
        assert_eq!(out, want);
        assert!(worker_count() <= MAX_WORKERS);
    }

    /// Row shards, segment shards and `k`-split windows: the pool's
    /// output is bitwise equal to the serial run of the same list, with
    /// kernels whose float results would expose any shard running twice,
    /// out of place or against the wrong window.
    #[test]
    fn pool_output_matches_the_serial_shard_oracle() {
        let cols = 5;
        let fill = |lo: usize, hi: usize, slice: &mut [f32]| {
            for i in lo..hi {
                for c in 0..cols {
                    slice[(i - lo) * cols + c] += ((i * 31 + c) as f32).sin();
                }
            }
        };
        let rows = 17;
        let mut pooled = vec![0.5f32; rows * cols];
        run_spans(row_spans(4, rows, cols, &mut pooled), rows, &fill);
        let mut serial = vec![0.5f32; rows * cols];
        run_serially(row_spans(4, rows, cols, &mut serial), &fill);
        assert_eq!(bits(&pooled), bits(&serial), "row shards");

        // Ragged segments (including an empty one); each segment's rows
        // are scaled by a per-segment factor, so a window landing on the
        // wrong segment changes bits.
        let lens = [3usize, 0, 7, 1, 9, 4, 2];
        let mut bounds = Vec::new();
        let mut r = 0;
        for len in lens {
            bounds.push((r, r + len));
            r += len;
        }
        let seg = |s0: usize, s1: usize, slice: &mut [f32]| {
            let base = bounds[s0].0;
            for (s, &(r0, r1)) in bounds.iter().enumerate().take(s1).skip(s0) {
                for i in r0..r1 {
                    for c in 0..cols {
                        slice[(i - base) * cols + c] += ((i + c) as f32).cos() * (s + 1) as f32;
                    }
                }
            }
        };
        let mut pooled = vec![0.0f32; r * cols];
        run_spans(segment_spans(3, &bounds, cols, &mut pooled), r, &seg);
        let mut serial = vec![0.0f32; r * cols];
        run_serially(segment_spans(3, &bounds, cols, &mut serial), &seg);
        assert_eq!(bits(&pooled), bits(&serial), "segment shards");

        // k-split windows: each window accumulates its k range into its
        // own partial, in ascending k.
        let (len, kd) = (6usize, 23usize);
        let window = |k0: usize, k1: usize, partial: &mut [f32]| {
            for k in k0..k1 {
                for (j, p) in partial.iter_mut().enumerate() {
                    *p += ((k * 7 + j) as f32 * 0.37).sin();
                }
            }
        };
        let mut pooled = vec![0.0f32; 4 * len];
        run_spans(k_spans(4, kd, len, &mut pooled), len, &window);
        let mut serial = vec![0.0f32; 4 * len];
        run_serially(k_spans(4, kd, len, &mut serial), &window);
        assert_eq!(bits(&pooled), bits(&serial), "k-split windows");
    }

    #[test]
    fn injected_panic_resurfaces_on_the_caller_with_its_payload() {
        // 263 rows: a marker no other concurrently running test uses.
        inject_worker_panic(1, 263);
        let hit = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 263 * 2];
            run_spans(row_spans(3, 263, 2, &mut out), 263, &|_, _, _| {});
        });
        clear_worker_panic();
        let payload = hit.expect_err("armed shard must re-panic on the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("injected panic in matmul worker"),
            "original payload must survive the handoff: {msg:?}"
        );
        // The pool survives a poisoned job: the next product is clean.
        let mut out = vec![0.0f32; 263 * 2];
        run_spans(row_spans(3, 263, 2, &mut out), 263, &|r0, r1, s| {
            for v in s.iter_mut() {
                *v = (r0 + r1) as f32;
            }
        });
        assert!(out.iter().all(|&v| v != 0.0));
    }

    /// A refused worker spawn neither panics the caller nor loses a
    /// shard: the pool keeps the workers it has and the caller runs what
    /// they do not claim. Concurrent tests in this binary only see their
    /// own products skip growing while the switch is set.
    #[test]
    fn refused_spawns_leave_the_job_to_the_running_workers() {
        FAIL_SPAWNS.store(true, Ordering::Relaxed);
        let before = worker_count();
        // More shards than the running workers plus the caller, so the
        // job asks for growth that is refused.
        let rows = before + 3;
        let cols = 2;
        let mut out = vec![0.0f32; rows * cols];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_spans(
                row_spans(rows, rows, cols, &mut out),
                rows,
                &|r0, r1, slice| {
                    for i in r0..r1 {
                        slice[(i - r0) * cols] += i as f32 + 1.0;
                        slice[(i - r0) * cols + 1] += 1.0;
                    }
                },
            );
        }));
        let after = worker_count();
        FAIL_SPAWNS.store(false, Ordering::Relaxed);
        assert!(
            outcome.is_ok(),
            "a refused spawn must not unwind the caller"
        );
        assert_eq!(
            after, before,
            "no worker may be counted for a refused spawn"
        );
        for i in 0..rows {
            assert_eq!(out[i * cols], i as f32 + 1.0, "row {i} lost or run twice");
            assert_eq!(out[i * cols + 1], 1.0, "row {i} lost or run twice");
        }
    }
}
