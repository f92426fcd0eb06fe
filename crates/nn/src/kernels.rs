//! Threaded, SIMD-explicit matmul kernels behind a two-mode numeric
//! contract.
//!
//! The process-wide [`KernelMode`] selects which contract the deployed
//! kernels honour:
//!
//! * [`KernelMode::Strict`] (the default) is the bitwise-parity contract
//!   proven by the kernel test tier, described below. Training and
//!   reproduction runs use it.
//! * [`KernelMode::Fast`] (the serving default — `nvc serve` / `nvc hub`)
//!   relaxes exactly three things, each gated by the ε-parity and
//!   decision-equivalence suites in `tests/fast_parity.rs`: fused
//!   `mul_add` accumulators (hardware FMA when the CPU has AVX2+FMA, see
//!   [`fast`]), reduction-dimension (`k`-split) sharding for tall-thin
//!   products ([`k_split_shards`]), and a single-pass online-max softmax.
//!   Fast mode never changes which special values (`NaN`/`±∞`) appear —
//!   only the rounding of finite sums.
//!
//! Everything below this paragraph describes the **strict** contract.
//! Every kernel computes each output element's partial products in
//! exactly the ascending-`k` order of the textbook i-k-j loop (and of the
//! tiled reference kernel, [`Tensor::matmul_accum_into_tiled`]). Two
//! mechanical transformations are layered on top, and both are chosen
//! because they *cannot* change that order:
//!
//! * **Row sharding** ([`run_row_sharded`]): the output rows are split
//!   into contiguous shards, executed by the persistent worker pool
//!   ([`pool`]). Every output row of `A·B`, `Aᵀ·B` and `A·Bᵀ` depends
//!   only on whole input rows and is reduced independently, so any shard
//!   assignment — any thread count, any worker claiming any shard —
//!   produces the single-threaded bits. (Splitting the reduction
//!   dimension `k` instead would need per-thread partials whose
//!   combination reassociates the sum; that is why only rows are split.)
//! * **8-wide unrolling** ([`mm_rows`], [`tn_rows`], [`nt_rows`]): the
//!   inner loops run over blocks of 8 *independent* output accumulators
//!   (manual `f32x8`-style register blocks — no unstable `std::simd`, no
//!   `mul_add` fusion). Lanes never share an accumulator, so each
//!   element's chain is untouched.
//!
//! The thread count is a process-wide knob ([`set_matmul_threads`],
//! `NVC_MATMUL_THREADS` in the environment, surfaced as
//! `NvConfig::matmul_threads` and `--matmul-threads` on the CLI). Because
//! of the parity contract the knob is *purely* a throughput dial: races
//! on it (e.g. two models configured differently) can change how fast an
//! answer arrives, never which answer arrives. Small products stay
//! single-threaded via a work floor ([`set_matmul_grain`]) so the
//! pool's condvar handoff never costs more than it saves.

pub mod fast;
pub mod pool;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Sentinel for "not yet initialized from the environment".
const UNSET: usize = usize::MAX;

/// Numeric contract of the deployed kernels — see the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelMode {
    /// Bitwise-parity kernels: ascending-`k` accumulation, rows-only
    /// sharding, no `mul_add`. Identical bits at any thread count.
    #[default]
    Strict,
    /// Reassociated kernels: FMA accumulators, `k`-split sharding,
    /// online-max softmax. ε-close to strict; identical decisions and
    /// identical special-value (`NaN`/`±∞`) propagation.
    Fast,
}

impl KernelMode {
    /// Stable lowercase name — the spelling used by `NVC_KERNEL_MODE`,
    /// `--kernel-mode` and the observability surfaces.
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Strict => "strict",
            KernelMode::Fast => "fast",
        }
    }
}

impl std::str::FromStr for KernelMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "strict" => Ok(KernelMode::Strict),
            "fast" => Ok(KernelMode::Fast),
            other => Err(format!("unknown kernel mode {other:?} (strict|fast)")),
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Kernel-mode sentinel/values (`UNSET` → read `NVC_KERNEL_MODE`).
static MODE: AtomicUsize = AtomicUsize::new(UNSET);

/// Requested worker count (`0`/`1` = single-threaded).
static THREADS: AtomicUsize = AtomicUsize::new(UNSET);

/// Minimum multiply-adds per *additional* worker.
static GRAIN: AtomicUsize = AtomicUsize::new(DEFAULT_MATMUL_GRAIN);

/// Failure-injection hook: worker row / total-row marker (tests only).
static PANIC_ROW: AtomicUsize = AtomicUsize::new(usize::MAX);
static PANIC_ROWS_TOTAL: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Default work floor: a worker is only added once it has at least this
/// many multiply-adds to itself (~a microsecond of FLOPs — the same
/// order as the pool's condvar handoff), so mid-sized products (the
/// 64×340·340×64 policy layers) shard while tiny ones stay serial.
pub const DEFAULT_MATMUL_GRAIN: usize = 16 * 1024;

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The thread count `NVC_MATMUL_THREADS` asks for (`1` when unset or
/// unparsable) — the default [`NvConfig`-level](matmul_threads) value, so
/// a CI leg can drive the threaded path through every existing test
/// without touching configs.
pub fn default_matmul_threads() -> usize {
    env_usize("NVC_MATMUL_THREADS").unwrap_or(1).max(1)
}

/// Current requested matmul worker count.
pub fn matmul_threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        UNSET => {
            let v = default_matmul_threads();
            THREADS.store(v, Ordering::Relaxed);
            v
        }
        v => v,
    }
}

/// Sets the process-wide matmul worker count (`0` and `1` both mean
/// single-threaded). Bitwise parity makes this safe to flip at any time.
pub fn set_matmul_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Current work floor in multiply-adds per additional worker.
pub fn matmul_grain() -> usize {
    GRAIN.load(Ordering::Relaxed)
}

/// Sets the work floor (multiply-adds per additional worker). Benches and
/// parity tests set `1` to force sharding on deliberately tiny shapes.
pub fn set_matmul_grain(madds: usize) {
    GRAIN.store(madds.max(1), Ordering::Relaxed);
}

/// The mode `NVC_KERNEL_MODE` asks for ([`KernelMode::Strict`] when unset
/// or unparsable) — the default `NvConfig`-level value, so a CI leg can
/// drive the fast path through every existing test without touching
/// configs.
pub fn default_kernel_mode() -> KernelMode {
    match std::env::var("NVC_KERNEL_MODE") {
        Ok(v) => v.parse().unwrap_or(KernelMode::Strict),
        Err(_) => KernelMode::Strict,
    }
}

/// Current process-wide kernel mode.
pub fn kernel_mode() -> KernelMode {
    match MODE.load(Ordering::Relaxed) {
        UNSET => {
            let v = default_kernel_mode();
            MODE.store(v as usize, Ordering::Relaxed);
            v
        }
        v if v == KernelMode::Fast as usize => KernelMode::Fast,
        _ => KernelMode::Strict,
    }
}

/// Sets the process-wide kernel mode. Unlike the thread-count knob this
/// is *not* result-neutral: strict and fast differ in low-order bits (not
/// in decisions), so flip it at process scope — config application,
/// test pins — not mid-computation.
pub fn set_kernel_mode(mode: KernelMode) {
    MODE.store(mode as usize, Ordering::Relaxed);
}

/// Workers actually engaged for a product with `rows` output rows and
/// `madds` total multiply-adds: the requested count, capped by the row
/// count (shards are whole rows) and by the work floor.
pub(crate) fn effective_threads(rows: usize, madds: usize) -> usize {
    let requested = matmul_threads();
    if requested <= 1 || rows <= 1 {
        return 1;
    }
    requested.min(rows).min(1 + madds / matmul_grain())
}

/// Fast-mode-only scheduler: how many reduction-dimension (`k`) shards a
/// `rows × kd` product should split into, or `None` when row sharding
/// (or staying serial) already uses every funded worker. `k`-splitting
/// only wins on tall-thin products — the 340-wide policy shapes — where
/// the output row count is what caps [`effective_threads`]; per-shard
/// partial sums reassociate the reduction, which is why strict mode
/// never takes this path.
pub(crate) fn k_split_shards(rows: usize, kd: usize, madds: usize) -> Option<usize> {
    let requested = matmul_threads();
    if requested <= 1 || kd < 2 || rows == 0 {
        return None;
    }
    let funded = requested.min(1 + madds / matmul_grain());
    if funded <= rows.max(1) {
        return None;
    }
    Some(funded.min(kd))
}

/// Fast-mode `k`-split driver: runs `kernel(k0, k1, partial)` once per
/// `k` window, each window accumulating the full `m × n` output into its
/// own zeroed partial buffer, then combines the partials into `out` in
/// ascending window order on the caller. The shard list goes through the
/// same pool driver as row sharding, with the same panic semantics (the
/// injection marker stays the *output* row count `m`; an armed "row"
/// index is interpreted as a `k` index here).
pub(crate) fn run_mm_k_split(
    shards: usize,
    m: usize,
    n: usize,
    kd: usize,
    out: &mut [f32],
    kernel: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert!(shards >= 2 && shards <= kd);
    let windows = kd.div_ceil(kd.div_ceil(shards));
    let mut partials = vec![0.0f32; windows * m * n];
    pool::run_spans(k_spans(shards, kd, m * n, &mut partials), m, kernel);
    for window in partials.chunks_exact(m * n) {
        for (o, &p) in out.iter_mut().zip(window.iter()) {
            *o += p;
        }
    }
}

/// One shard of a sharded product: `(lo, hi, window)` — the half-open
/// row, segment or `k` range a kernel call covers and the disjoint output
/// window it writes.
pub(crate) type Span<'a> = (usize, usize, &'a mut [f32]);

/// The `k` windows of a `shards`-way split of a `kd`-deep reduction, each
/// owning one `len`-element partial of `partials` (one window per
/// partial, in ascending `k`).
pub(crate) fn k_spans(shards: usize, kd: usize, len: usize, partials: &mut [f32]) -> Vec<Span<'_>> {
    let per = kd.div_ceil(shards);
    let mut spans = Vec::with_capacity(kd.div_ceil(per));
    let mut rest = partials;
    let mut k0 = 0;
    while k0 < kd {
        let k1 = (k0 + per).min(kd);
        let (window, tail) = rest.split_at_mut(len);
        rest = tail;
        spans.push((k0, k1, window));
        k0 = k1;
    }
    spans
}

/// Arms the failure-injection hook: the shard owning `row` panics, but
/// only in products whose total output row count is `rows_total` (the
/// marker keeps concurrently running tests out of the blast radius).
#[doc(hidden)]
pub fn inject_worker_panic(row: usize, rows_total: usize) {
    PANIC_ROW.store(row, Ordering::Relaxed);
    PANIC_ROWS_TOTAL.store(rows_total, Ordering::Relaxed);
}

/// Disarms [`inject_worker_panic`].
#[doc(hidden)]
pub fn clear_worker_panic() {
    PANIC_ROW.store(usize::MAX, Ordering::Relaxed);
    PANIC_ROWS_TOTAL.store(usize::MAX, Ordering::Relaxed);
}

fn check_injected_panic(r0: usize, r1: usize, rows_total: usize) {
    if PANIC_ROWS_TOTAL.load(Ordering::Relaxed) == rows_total {
        let row = PANIC_ROW.load(Ordering::Relaxed);
        if (r0..r1).contains(&row) {
            panic!("injected panic in matmul worker for rows {r0}..{r1}");
        }
    }
}

/// Runs `kernel(r0, r1, rows_slice)` over contiguous shards of `out`'s
/// `rows × cols` row-major buffer.
///
/// With `threads <= 1` the kernel runs on the calling thread. Otherwise
/// the shard list goes to the persistent worker pool
/// ([`pool::run_spans`]), which makes a panicking shard re-panic on the
/// caller only after every shard has been accounted for — a dead shard
/// can neither hang the product nor let a half-written output escape as
/// if it were complete.
pub(crate) fn run_row_sharded(
    threads: usize,
    rows: usize,
    cols: usize,
    out: &mut [f32],
    kernel: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    debug_assert_eq!(out.len(), rows * cols);
    if threads <= 1 || rows <= 1 {
        check_injected_panic(0, rows, rows);
        kernel(0, rows, out);
        return;
    }
    pool::run_spans(row_spans(threads, rows, cols, out), rows, kernel);
}

/// Contiguous whole-row shards of a `rows × cols` row-major buffer, at
/// most `threads` of them.
pub(crate) fn row_spans(
    threads: usize,
    rows: usize,
    cols: usize,
    out: &mut [f32],
) -> Vec<Span<'_>> {
    let per_shard = rows.div_ceil(threads);
    let mut spans = Vec::with_capacity(threads);
    let mut rest = out;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + per_shard).min(rows);
        let (shard, tail) = rest.split_at_mut((r1 - r0) * cols);
        rest = tail;
        spans.push((r0, r1, shard));
        r0 = r1;
    }
    spans
}

/// Runs `kernel(s0, s1, segments_slice)` over shards of whole *segments*
/// (`bounds[s]` = the row range of segment `s`, contiguous and
/// ascending). Shards are cut only between segments, balanced by row
/// count, so per-segment computation order — and therefore every output
/// bit — is identical at any thread count. The injection marker is the
/// covered row total, like the row driver's.
pub(crate) fn run_segment_sharded(
    threads: usize,
    bounds: &[(usize, usize)],
    cols: usize,
    out: &mut [f32],
    kernel: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    let nsegs = bounds.len();
    let rows_total = bounds.last().map_or(0, |&(_, r1)| r1);
    debug_assert_eq!(out.len(), rows_total * cols);
    if threads <= 1 || nsegs <= 1 {
        check_injected_panic(0, nsegs, rows_total);
        kernel(0, nsegs, out);
        return;
    }
    pool::run_spans(
        segment_spans(threads, bounds, cols, out),
        rows_total,
        kernel,
    );
}

/// Shards of whole segments balanced by row count, at most about
/// `threads` of them (see [`run_segment_sharded`]).
pub(crate) fn segment_spans<'a>(
    threads: usize,
    bounds: &[(usize, usize)],
    cols: usize,
    out: &'a mut [f32],
) -> Vec<Span<'a>> {
    let nsegs = bounds.len();
    let rows_total = bounds.last().map_or(0, |&(_, r1)| r1);
    let target = rows_total.div_ceil(threads).max(1);
    let mut spans = Vec::with_capacity(threads);
    let mut rest = out;
    let mut s0 = 0;
    while s0 < nsegs {
        let row_base = bounds[s0].0;
        let mut s1 = s0 + 1;
        while s1 < nsegs && bounds[s1 - 1].1 - row_base < target {
            s1 += 1;
        }
        let (shard, tail) = rest.split_at_mut((bounds[s1 - 1].1 - row_base) * cols);
        rest = tail;
        spans.push((s0, s1, shard));
        s0 = s1;
    }
    spans
}

/// `out_rows (+)= a[r0..r1] × b` for an `m×kd · kd×n` product:
/// the tiled i-k-j kernel with the inner columns run as 8-wide register
/// accumulator blocks. `out_rows` is the row-major slice for rows
/// `r0..r1` only.
pub(crate) fn mm_rows(
    a: &[f32],
    b: &[f32],
    kd: usize,
    n: usize,
    r0: usize,
    r1: usize,
    out_rows: &mut [f32],
) {
    const KB: usize = 64;
    const JB: usize = 64;
    let mut kb = 0;
    loop {
        let k_end = (kb + KB).min(kd);
        let mut jb = 0;
        while jb < n {
            let j_end = (jb + JB).min(n);
            for i in r0..r1 {
                let a_row = &a[i * kd..(i + 1) * kd];
                let base = (i - r0) * n;
                mm_tile_row(
                    a_row,
                    b,
                    n,
                    kb,
                    k_end,
                    jb,
                    &mut out_rows[base + jb..base + j_end],
                );
            }
            jb = j_end;
        }
        kb = k_end;
        if kb >= kd {
            break;
        }
    }
}

/// One row × one `(kb..k_end, jb..)` tile of the right operand. Each
/// 8-column block holds its partial sums in an explicit `[f32; 8]`
/// register block across the whole `k` tile; lanes are independent
/// output elements, and within a lane the products accumulate in
/// ascending `k` — the parity order.
fn mm_tile_row(
    a_row: &[f32],
    b: &[f32],
    n: usize,
    kb: usize,
    k_end: usize,
    jb: usize,
    out_tile: &mut [f32],
) {
    let width = out_tile.len();
    let mut j = 0;
    while j + 8 <= width {
        let mut acc = [0.0f32; 8];
        acc.copy_from_slice(&out_tile[j..j + 8]);
        for k in kb..k_end {
            let av = a_row[k];
            let b_blk = &b[k * n + jb + j..k * n + jb + j + 8];
            acc[0] += av * b_blk[0];
            acc[1] += av * b_blk[1];
            acc[2] += av * b_blk[2];
            acc[3] += av * b_blk[3];
            acc[4] += av * b_blk[4];
            acc[5] += av * b_blk[5];
            acc[6] += av * b_blk[6];
            acc[7] += av * b_blk[7];
        }
        out_tile[j..j + 8].copy_from_slice(&acc);
        j += 8;
    }
    while j < width {
        let mut acc = out_tile[j];
        for k in kb..k_end {
            acc += a_row[k] * b[k * n + jb + j];
        }
        out_tile[j] = acc;
        j += 1;
    }
}

/// `y += a · x` over equal-length slices, 8 lanes at a time — the inner
/// step of [`tn_rows`]. Each lane is its own output element, so
/// unrolling is order-neutral.
pub(crate) fn axpy8(a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact_mut(8);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        ys[0] += a * xs[0];
        ys[1] += a * xs[1];
        ys[2] += a * xs[2];
        ys[3] += a * xs[3];
        ys[4] += a * xs[4];
        ys[5] += a * xs[5];
        ys[6] += a * xs[6];
        ys[7] += a * xs[7];
    }
    for (xv, yv) in xc.remainder().iter().zip(yc.into_remainder()) {
        *yv += a * xv;
    }
}

/// `out_rows (+)= (aᵀ × b)[i0..i1]` for `a: kr×m`, `b: kr×n` — the
/// row-windowed `xᵀ·g` backward kernel. `k` stays the outer loop (both
/// inputs stream row-by-row) and each output element still accumulates in
/// ascending `k`; the shard only restricts which columns of `a` (output
/// rows) this worker owns.
pub(crate) fn tn_rows(
    a: &[f32],
    b: &[f32],
    kr: usize,
    m: usize,
    n: usize,
    i0: usize,
    i1: usize,
    out_rows: &mut [f32],
) {
    for k in 0..kr {
        let a_row = &a[k * m..(k + 1) * m];
        let b_row = &b[k * n..(k + 1) * n];
        for i in i0..i1 {
            axpy8(
                a_row[i],
                b_row,
                &mut out_rows[(i - i0) * n..(i - i0 + 1) * n],
            );
        }
    }
}

/// `out_rows (+)= (a × bᵀ)[i0..i1]` for `a: m×kd`, `b: n×kd` — the
/// `g·wᵀ` backward kernel. Each output element is a dot product reduced
/// in ascending `k`; four output columns run together as independent
/// accumulators so the loads of `a`'s row amortize.
pub(crate) fn nt_rows(
    a: &[f32],
    b: &[f32],
    kd: usize,
    n: usize,
    i0: usize,
    i1: usize,
    out_rows: &mut [f32],
) {
    for i in i0..i1 {
        let a_row = &a[i * kd..(i + 1) * kd];
        let out_row = &mut out_rows[(i - i0) * n..(i - i0 + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * kd..(j + 1) * kd];
            let b1 = &b[(j + 1) * kd..(j + 2) * kd];
            let b2 = &b[(j + 2) * kd..(j + 3) * kd];
            let b3 = &b[(j + 3) * kd..(j + 4) * kd];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for k in 0..kd {
                let av = a_row[k];
                s0 += av * b0[k];
                s1 += av * b1[k];
                s2 += av * b2[k];
                s3 += av * b3[k];
            }
            out_row[j] += s0;
            out_row[j + 1] += s1;
            out_row[j + 2] += s2;
            out_row[j + 3] += s3;
            j += 4;
        }
        while j < n {
            let b_row = &b[j * kd..(j + 1) * kd];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            out_row[j] += acc;
            j += 1;
        }
    }
}

/// Serializes tests that assert on (rather than merely set) the global
/// knobs — without it, concurrently running unit tests would race on the
/// process-wide atomics and flake.
#[cfg(test)]
pub(crate) static KNOB_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_clamp_and_stick() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_matmul_threads(0);
        assert_eq!(matmul_threads(), 1);
        set_matmul_threads(6);
        assert_eq!(matmul_threads(), 6);
        set_matmul_grain(0);
        assert_eq!(matmul_grain(), 1);
        set_matmul_grain(DEFAULT_MATMUL_GRAIN);
        set_matmul_threads(default_matmul_threads());
    }

    #[test]
    fn effective_threads_respects_rows_and_grain() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_matmul_threads(8);
        set_matmul_grain(1000);
        // 3 rows cap the shard count regardless of the request.
        assert_eq!(effective_threads(3, usize::MAX / 2), 3);
        // 2500 madds at grain 1000 fund 1 + 2 workers.
        assert_eq!(effective_threads(100, 2500), 3);
        // Tiny products stay serial.
        assert_eq!(effective_threads(100, 10), 1);
        assert_eq!(effective_threads(1, usize::MAX / 2), 1);
        set_matmul_threads(1);
        set_matmul_grain(DEFAULT_MATMUL_GRAIN);
        assert_eq!(effective_threads(100, usize::MAX / 2), 1);
        set_matmul_threads(default_matmul_threads());
    }

    #[test]
    fn sharded_driver_covers_every_row_exactly_once() {
        for (threads, rows) in [(1usize, 5usize), (2, 5), (3, 7), (8, 3), (4, 0), (5, 100)] {
            let cols = 3;
            let mut out = vec![0.0f32; rows * cols];
            run_row_sharded(threads, rows, cols, &mut out, &|r0, r1, slice| {
                for i in r0..r1 {
                    for c in 0..cols {
                        slice[(i - r0) * cols + c] += (i * cols + c) as f32;
                    }
                }
            });
            let want: Vec<f32> = (0..rows * cols).map(|x| x as f32).collect();
            assert_eq!(out, want, "threads={threads} rows={rows}");
        }
    }

    #[test]
    fn kernel_mode_knob_parses_and_sticks() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_kernel_mode(KernelMode::Fast);
        assert_eq!(kernel_mode(), KernelMode::Fast);
        set_kernel_mode(KernelMode::Strict);
        assert_eq!(kernel_mode(), KernelMode::Strict);
        assert_eq!("fast".parse(), Ok(KernelMode::Fast));
        assert_eq!(" Strict ".parse(), Ok(KernelMode::Strict));
        assert!("blazing".parse::<KernelMode>().is_err());
        assert_eq!(KernelMode::Fast.name(), "fast");
        set_kernel_mode(default_kernel_mode());
    }

    #[test]
    fn k_split_engages_only_on_tall_thin_funded_products() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_matmul_threads(8);
        set_matmul_grain(1);
        // The 2×340·340×64 policy shape: rows cap row sharding at 2, so
        // the 8 funded workers split the 340-deep reduction instead.
        assert_eq!(k_split_shards(2, 340, 2 * 340 * 64), Some(8));
        // Short reductions can't hand every worker a window.
        assert_eq!(k_split_shards(2, 3, usize::MAX / 2), Some(3));
        // Wide-enough outputs keep row sharding (it funds all workers).
        assert_eq!(k_split_shards(512, 340, usize::MAX / 2), None);
        // Degenerate shapes never split.
        assert_eq!(k_split_shards(2, 1, usize::MAX / 2), None);
        assert_eq!(k_split_shards(0, 340, usize::MAX / 2), None);
        // The work floor still gates the split.
        set_matmul_grain(DEFAULT_MATMUL_GRAIN);
        assert_eq!(k_split_shards(2, 340, 10), None);
        set_matmul_threads(1);
        assert_eq!(k_split_shards(2, 340, usize::MAX / 2), None);
        set_matmul_threads(default_matmul_threads());
        set_matmul_grain(DEFAULT_MATMUL_GRAIN);
    }

    #[test]
    fn k_split_driver_accumulates_every_window_into_out() {
        let _guard = KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (m, n, kd, shards) = (3usize, 2usize, 10usize, 4usize);
        // Integer-valued work keeps float addition exact, so the partial
        // combine must reproduce the serial sum bit-for-bit.
        let mut out = vec![1.0f32; m * n];
        run_mm_k_split(shards, m, n, kd, &mut out, &|k0, k1, partial| {
            for i in 0..m {
                for j in 0..n {
                    for k in k0..k1 {
                        partial[i * n + j] += (i * 100 + j * 10 + k) as f32;
                    }
                }
            }
        });
        for i in 0..m {
            for j in 0..n {
                let want: f32 = 1.0 + (0..kd).map(|k| (i * 100 + j * 10 + k) as f32).sum::<f32>();
                assert_eq!(out[i * n + j], want, "element ({i},{j})");
            }
        }
    }

    #[test]
    fn injected_panic_only_fires_on_the_marked_product() {
        // 251 rows: outside the shape range of every concurrently
        // running kernel/graph test, so arming the hook cannot hit them.
        inject_worker_panic(1, 251);
        // A different total row count is untouched.
        let mut out = vec![0.0f32; 4 * 2];
        run_row_sharded(2, 4, 2, &mut out, &|_, _, _| {});
        // The marked one panics (and the pool joins, so no hang).
        let hit = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 251 * 2];
            run_row_sharded(3, 251, 2, &mut out, &|_, _, _| {});
        });
        clear_worker_panic();
        assert!(hit.is_err(), "armed shard must panic");
        let again = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 251 * 2];
            run_row_sharded(3, 251, 2, &mut out, &|_, _, _| {});
        });
        assert!(again.is_ok(), "disarmed hook must not fire");
    }
}
