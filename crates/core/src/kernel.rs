//! Host compute kernels of the `Functional` backend: the row-level
//! inner loops `engine::Accelerator::matmul_batch_functional` dispatches
//! to, in scalar and explicit-SIMD (AVX2) form, and the staged operand
//! forms they read.
//!
//! Staging reads the matmul's borrowed operand views (`operand::View`)
//! once into exactly one form per operand: the data panel as
//! [`Panel::Wide`] `i16` rows when the SIMD kernels will read some
//! N-tile ([`wide_panel`]) and as [`Panel::Narrow`] `i8` rows
//! otherwise, copied in source-contiguous order with its zero count
//! taken in the same pass; and each N-tile's weights as one
//! [`TileWeights`] buffer holding every K-tile, packed straight into
//! pair-interleaved `i16` for the SIMD kernels or copied as the
//! row-major `i8` slab for the scalar ones. A ragged last N-tile beside
//! SIMD ones reads the wide panel through the scalar general path
//! (widening is exact).
//!
//! This module is pure host-speed machinery. Every kernel evaluates the
//! **same** function — the ticked array's saturating fold per output
//! element — so kernel choice, SIMD width, and row partitioning can
//! never change simulated results (outputs, saturation events, cycles,
//! traffic). The exactness argument lives on
//! `matmul_batch_functional`; the pieces the kernels rely on:
//!
//! - For tiles of `kt ≤ EXACT_FOLD_MAX_KT` rows the in-tile fold
//!   provably never clips, so it equals the exact `i32` dot product and
//!   is order-free — dense, zero-skipping, scalar, and vector
//!   evaluations are all bit-identical.
//! - K-tile folding saturates per tile boundary. Starting from `acc =
//!   0`, the first fold's raw value is `0 + psum = psum`, which is what
//!   `AccumulatorUnit::push_new` stores (its clamp provably never
//!   engages on an in-range psum) — so one uniform fold step per tile
//!   suffices, with no first-tile special case.
//! - The fold fits `i32`: `|acc| ≤ 2^24` after the clamp and
//!   `|psum| < 2^24` by the tile-height bound, so `acc + psum` is
//!   within `±2^25 < i32::MAX` and the SIMD path can clamp in 32-bit
//!   lanes. A unit test below pins this against
//!   [`AccumulatorUnit::fold_step`].
//! - Tiles taller than the bound take [`RowKernel::MacSerial`]: the
//!   literal per-step [`Pe::mac_step`] chain, `Pe` staying the single
//!   shared MAC definition.
//!
//! Threading (driven by the engine) partitions *rows*; each row's
//! entire fold chain runs on one thread in tile order, so the per-element
//! saturating-fold order is byte-identical to the serial path.

use crate::accumulator::AccumulatorUnit;
use crate::config::{FunctionalOptions, KernelSelect, SimdMode};
use crate::operand::View;
use crate::pe::Pe;

/// Tallest tile whose in-tile fold provably cannot clip:
/// `kt · 128² ≤ 2^24 − 1`.
pub(crate) const EXACT_FOLD_MAX_KT: usize = ((1 << 24) - 1) / (128 * 128);

/// Lane count of the fixed-width kernels — the paper's column count, so
/// the 16×16 design point takes the register path.
pub(crate) const LANES: usize = 16;

/// Data rows folded together by the dense scalar kernel (reuses each
/// staged weight row across the block).
const ROW_BLOCK: usize = 4;

/// Below this many multiply-accumulates per N-tile, `threads: 0` (auto)
/// stays serial: spawn cost would dominate (the FC and routing layers
/// issue thousands of sub-millisecond matmuls).
const AUTO_MIN_MACS: u128 = 1 << 23;

/// Fewest panel rows each thread gets under `threads: 0` (auto). Every
/// thread streams the N-tile's whole staged weight slab, so a split
/// pays only once each thread sweeps enough rows against it: batch-1
/// PrimaryCaps (36 rows of `k = 20736`) ran slower on two threads than
/// on one on a 2-vCPU AVX-512 host.
const AUTO_MIN_ROWS_PER_THREAD: usize = 64;

/// The row-level kernel chosen for one staged K-tile.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum RowKernel {
    /// AVX2 `pmaddwd` over pair-interleaved weights, every element.
    DenseSimd,
    /// AVX2 `pmaddwd`, skipping data pairs that are both zero.
    SkipSimd,
    /// Fixed 16-lane scalar, register-blocked over [`ROW_BLOCK`] rows.
    DenseScalar,
    /// Fixed 16-lane scalar, skipping zero data elements.
    SkipScalar,
    /// Dynamic-width scalar (N-tiles narrower than 16 columns);
    /// zero-skips, except a single column's contiguous dot product.
    DynScalar,
    /// Literal per-step [`Pe::mac_step`] saturating chain — the only
    /// correct evaluation once a tile is tall enough to clip in-tile.
    MacSerial,
}

impl RowKernel {
    /// Fixed 16-lane kernels that keep the row's accumulators in
    /// registers across every K-tile.
    fn is_fixed(self) -> bool {
        !matches!(self, RowKernel::DynScalar | RowKernel::MacSerial)
    }

    /// Kernels evaluated with AVX2 intrinsics.
    fn is_simd(self) -> bool {
        matches!(self, RowKernel::DenseSimd | RowKernel::SkipSimd)
    }

    /// Kernels that skip zero data elements (a speed choice only:
    /// `saturate(x + 0) = x`, so skipping is exact).
    fn skips_zeros(self) -> bool {
        matches!(
            self,
            RowKernel::SkipSimd | RowKernel::SkipScalar | RowKernel::DynScalar
        )
    }
}

/// One 32-byte-aligned vector register's worth of interleaved weights
/// (eight `[w_even, w_odd]` column pairs). The alignment lets the SIMD
/// kernel use aligned loads that never split cache lines.
#[repr(align(32))]
#[derive(Copy, Clone, Default)]
pub(crate) struct WVec(pub [i16; 16]);

/// The staged data panel of one matmul: `batch · m` rows of `k`
/// elements, row-major, in the single form its kernels read.
pub(crate) enum Panel {
    /// Plain `i8` elements, for the scalar kernels.
    Narrow(Vec<i8>),
    /// Sign-extended `i16` elements, for the SIMD kernels: adjacent
    /// element pairs become single `i32` broadcast operands. Widening
    /// is exact, so the form can never change results.
    Wide(Vec<i16>),
}

impl Panel {
    /// Stages every image's `m × k` data view into one panel (`wide`
    /// picks the form, see [`wide_panel`]) and returns it with its
    /// count of zero elements, counted in the same pass.
    pub(crate) fn stage(data: &[View<'_>], m: usize, k: usize, wide: bool) -> (Self, usize) {
        if wide {
            let (panel, zeros) = stage_rows(data, m, k);
            (Panel::Wide(panel), zeros)
        } else {
            let (panel, zeros) = stage_rows(data, m, k);
            (Panel::Narrow(panel), zeros)
        }
    }

    /// Element count (`batch · m · k`).
    pub(crate) fn len(&self) -> usize {
        match self {
            Panel::Narrow(p) => p.len(),
            Panel::Wide(p) => p.len(),
        }
    }
}

fn stage_rows<T: From<i8> + Copy + Default>(
    data: &[View<'_>],
    m: usize,
    k: usize,
) -> (Vec<T>, usize) {
    let mut panel = vec![T::default(); data.len() * m * k];
    let zeros = data
        .iter()
        .zip(panel.chunks_exact_mut((m * k).max(1)))
        .map(|(view, block)| view.copy_block(0, m, 0, k, block))
        .sum();
    (panel, zeros)
}

/// Whether a matmul's `m × k` · `k × n` panel is staged
/// [`Panel::Wide`]: whenever the SIMD kernels will read some N-tile,
/// which needs SIMD enabled, an array of [`LANES`] columns, at least
/// one full-width N-tile, and K-tiles short enough for the exact fold
/// (`min(rows, k)` bounds every tile's height). A ragged last N-tile
/// then reads the same wide panel through the scalar general path.
pub(crate) fn wide_panel(
    opts: FunctionalOptions,
    rows: usize,
    cols: usize,
    k: usize,
    n: usize,
) -> bool {
    simd_enabled(opts) && cols == LANES && n >= LANES && rows.min(k) <= EXACT_FOLD_MAX_KT
}

/// One K-tile of the current N-tile, with its chosen kernel. Its
/// weights live in the N-tile's [`TileWeights`] buffer.
pub(crate) struct KTile {
    /// First K index covered by the tile.
    pub k0: usize,
    /// Tile height (`≤ cfg.rows`).
    pub kt: usize,
    /// Row kernel evaluating this tile.
    pub kernel: RowKernel,
    /// First [`WVec`] of the tile in [`TileWeights::inter`].
    inter0: usize,
}

/// The staged weights of one N-tile: every K-tile in one buffer, in
/// the single form its kernels read. The buffers are reused across
/// N-tiles, so a matmul allocates them once.
#[derive(Default)]
pub(crate) struct TileWeights {
    /// Tile width.
    pub nt: usize,
    /// Whether every K-tile runs a SIMD kernel (and so only the
    /// interleaved form is staged).
    simd: bool,
    /// The K-tiles in tile order.
    pub tiles: Vec<KTile>,
    /// Scalar kernels: the `k × nt` row-major weight slab, so tile
    /// `t` is rows `t.k0 .. t.k0 + t.kt`, exactly as the ticked array
    /// loads it. Empty when the N-tile runs SIMD.
    narrow: Vec<i8>,
    /// SIMD kernels: pair-interleaved widened weights for `pmaddwd`,
    /// two aligned vectors per row pair `p` of each tile: vector
    /// `2p + h` holds columns `8h .. 8h + 8` as lanes
    /// `[w[2p][c], w[2p+1][c]]` (zero-padded when `kt` is odd). Empty
    /// when the N-tile runs the scalar kernels.
    inter: Vec<WVec>,
}

impl TileWeights {
    /// Stages the `k × nt` weights of the N-tile at column `n0`, split
    /// into K-tiles of `rows`, and picks each tile's kernel.
    /// `sparse_data` is the matmul-wide panel heuristic
    /// (`KernelSelect::Auto` honors it; forcing overrides it —
    /// bit-identical either way, a speed choice only). `wide` says the
    /// panel is [`Panel::Wide`]: a full-width N-tile then takes the
    /// SIMD kernels and packs each K-tile straight from the view into
    /// the interleaved form ([`View::pack_pairs`]: no intermediate
    /// tile, no zero count); a ragged one copies the `i8` slab for the
    /// general path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stage(
        &mut self,
        weight: &View<'_>,
        k: usize,
        rows: usize,
        n0: usize,
        nt: usize,
        sparse_data: bool,
        opts: FunctionalOptions,
        wide: bool,
    ) {
        self.nt = nt;
        self.simd = wide && nt == LANES;
        self.tiles.clear();
        let mut inter0 = 0;
        for k0 in (0..k).step_by(rows) {
            let kt = rows.min(k - k0);
            let kernel = if kt > EXACT_FOLD_MAX_KT {
                RowKernel::MacSerial
            } else if nt != LANES {
                RowKernel::DynScalar
            } else {
                let skip = match opts.kernel {
                    KernelSelect::Auto => sparse_data,
                    KernelSelect::ForceDense => false,
                    KernelSelect::ForceZeroSkip => true,
                };
                match (skip, self.simd) {
                    (false, false) => RowKernel::DenseScalar,
                    (false, true) => RowKernel::DenseSimd,
                    (true, false) => RowKernel::SkipScalar,
                    (true, true) => RowKernel::SkipSimd,
                }
            };
            debug_assert_eq!(kernel.is_simd(), self.simd, "one weight form per N-tile");
            self.tiles.push(KTile {
                k0,
                kt,
                kernel,
                inter0,
            });
            inter0 += kt.div_ceil(2) * 2;
        }
        self.narrow.clear();
        self.inter.clear();
        if self.simd {
            self.inter.resize(inter0, WVec::default());
            for t in &self.tiles {
                let inter = &mut self.inter[t.inter0..t.inter0 + t.kt.div_ceil(2) * 2];
                weight.pack_pairs(t.k0, t.kt, n0, inter);
            }
        } else {
            self.narrow.resize(k * nt, 0);
            weight.copy_block(0, k, n0, nt, &mut self.narrow);
        }
    }

    /// Tile `t`'s row-major `kt × nt` weights (scalar kernels).
    fn narrow(&self, t: &KTile) -> &[i8] {
        &self.narrow[t.k0 * self.nt..(t.k0 + t.kt) * self.nt]
    }

    /// Tile `t`'s interleaved weights (SIMD kernels).
    #[cfg(target_arch = "x86_64")]
    fn inter(&self, t: &KTile) -> &[WVec] {
        &self.inter[t.inter0..t.inter0 + t.kt.div_ceil(2) * 2]
    }
}

/// Whether the AVX2 kernels may be selected under `opts`: `SimdMode::
/// Auto` plus a runtime `avx2` detection (scalar fallback everywhere
/// else — non-x86_64 targets, feature-less hosts, `SimdMode::Scalar`).
pub(crate) fn simd_enabled(opts: FunctionalOptions) -> bool {
    opts.simd == SimdMode::Auto && simd_available()
}

/// Runtime check for the vector ISA the SIMD kernels target.
#[cfg(target_arch = "x86_64")]
pub(crate) fn simd_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Non-x86_64 builds always take the scalar kernels.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn simd_available() -> bool {
    false
}

/// Worker-thread count for one N-tile's row sweep. `requested` follows
/// [`FunctionalOptions::threads`]: `0` goes parallel only when the
/// tile grid is big enough to amortize spawn cost (so the thousands of
/// tiny FC/routing matmuls stay serial) *and* every thread gets at
/// least [`AUTO_MIN_ROWS_PER_THREAD`] panel rows (so a short, deep
/// panel such as batch-1 PrimaryCaps' 36 rows is not swept by threads
/// that each stream the whole weight slab for a handful of rows); an
/// explicit `n ≥ 2` *always* splits — capped by the row count — so
/// tests can exercise the parallel path on arbitrarily small shapes.
pub(crate) fn effective_threads(requested: usize, total_rows: usize, k: usize, nt: usize) -> usize {
    if total_rows <= 1 {
        return 1;
    }
    match requested {
        0 => {
            let macs = total_rows as u128 * k as u128 * nt as u128;
            if macs < AUTO_MIN_MACS {
                1
            } else {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
                    .min(total_rows / AUTO_MIN_ROWS_PER_THREAD)
                    .max(1)
            }
        }
        1 => 1,
        t => t.min(total_rows),
    }
}

/// The saturating K-tile fold step shared by every scalar kernel:
/// `raw = acc + psum`, clamp to 25 bits, count a clip event. With
/// `acc` starting at 0 the first tile's raw value is the tile psum
/// itself — `push_new` semantics.
#[inline]
fn fold_scalar(acc: &mut i64, psum: i64, events: &mut u64) {
    let (sat, clipped) = AccumulatorUnit::fold_step(*acc + psum);
    *events += u64::from(clipped);
    *acc = sat;
}

/// Processes rows `ri0 .. ri0 + nrows` (global panel indices) of one
/// N-tile through every staged K-tile in tile order, writing final
/// 25-bit accumulator values to `acc` (`nrows × nt`, pre-zeroed) and
/// per-row clip-event counts to `row_events` (`nrows`).
///
/// This is the unit the engine partitions across threads: rows are
/// independent, each row's fold chain runs here in full, so the
/// per-element fold order — and therefore every simulated result — is
/// identical for any partition.
///
/// # Panics
///
/// Panics if a SIMD N-tile reaches a host without AVX2 —
/// [`wide_panel`] only selects the wide form when the SIMD kernels can
/// run.
pub(crate) fn process_rows(
    k: usize,
    w: &TileWeights,
    panel: &Panel,
    ri0: usize,
    nrows: usize,
    acc: &mut [i64],
    row_events: &mut [u64],
) {
    let nt = w.nt;
    debug_assert_eq!(acc.len(), nrows * nt);
    debug_assert_eq!(row_events.len(), nrows);
    match panel {
        Panel::Wide(wide) if w.simd => {
            #[cfg(target_arch = "x86_64")]
            if avx2::sweep_rows(k, w, wide, ri0, nrows, acc, row_events) {
                return;
            }
            panic!(
                "a wide panel ({} elements) is staged only for hosts that run the SIMD kernels",
                wide.len()
            );
        }
        Panel::Wide(wide) => rows_general(k, w, wide, ri0, nrows, acc, row_events),
        Panel::Narrow(panel) if nt == LANES && w.tiles.iter().all(|t| t.kernel.is_fixed()) => {
            rows_fixed_scalar(k, w, panel, ri0, nrows, acc, row_events);
        }
        Panel::Narrow(panel) => rows_general(k, w, panel, ri0, nrows, acc, row_events),
    }
}

/// A staged data-panel element: an `i8` operand, or its exact `i16`
/// widening.
trait PanelElem: Copy + Into<i32> {
    /// The element as the `i8` operand the array holds.
    fn operand(self) -> i8;
}

impl PanelElem for i8 {
    fn operand(self) -> i8 {
        self
    }
}

impl PanelElem for i16 {
    fn operand(self) -> i8 {
        i8::try_from(self).expect("a wide panel holds widened i8 operands")
    }
}

/// Sweeps rows one at a time through [`row_general`].
fn rows_general<T: PanelElem>(
    k: usize,
    w: &TileWeights,
    panel: &[T],
    ri0: usize,
    nrows: usize,
    acc: &mut [i64],
    row_events: &mut [u64],
) {
    let nt = w.nt;
    let mut scratch = vec![0i32; nt];
    for r in 0..nrows {
        let row = &panel[(ri0 + r) * k..(ri0 + r) * k + k];
        row_events[r] = row_general(w, row, &mut acc[r * nt..(r + 1) * nt], &mut scratch);
    }
}

/// Fixed 16-lane scalar sweep. When every tile is dense, rows go
/// through in blocks of [`ROW_BLOCK`] so each staged weight row is
/// reused across the block; remainder rows (and all rows of skipping
/// tiles) take the single-row kernel — bit-identical either way, since
/// the in-tile dot product is exact.
fn rows_fixed_scalar(
    k: usize,
    w: &TileWeights,
    panel: &[i8],
    ri0: usize,
    nrows: usize,
    acc: &mut [i64],
    row_events: &mut [u64],
) {
    let all_dense = w.tiles.iter().all(|t| !t.kernel.skips_zeros());
    let mut r = 0;
    while all_dense && r + ROW_BLOCK <= nrows {
        let mut accs = [[0i64; LANES]; ROW_BLOCK];
        let mut evs = [0u64; ROW_BLOCK];
        for t in &w.tiles {
            let mut lanes = [[0i32; LANES]; ROW_BLOCK];
            for (row_idx, wrow) in w.narrow(t).chunks_exact(LANES).enumerate() {
                for (j, lane) in lanes.iter_mut().enumerate() {
                    let d = i32::from(panel[(ri0 + r + j) * k + t.k0 + row_idx]);
                    for (p, &wv) in lane.iter_mut().zip(wrow) {
                        *p += d * i32::from(wv);
                    }
                }
            }
            for (j, lane) in lanes.iter().enumerate() {
                for (c, &p) in lane.iter().enumerate() {
                    fold_scalar(&mut accs[j][c], i64::from(p), &mut evs[j]);
                }
            }
        }
        for j in 0..ROW_BLOCK {
            acc[(r + j) * LANES..(r + j + 1) * LANES].copy_from_slice(&accs[j]);
            row_events[r + j] = evs[j];
        }
        r += ROW_BLOCK;
    }
    while r < nrows {
        let row = &panel[(ri0 + r) * k..(ri0 + r) * k + k];
        let mut accs = [0i64; LANES];
        let mut ev = 0u64;
        for t in &w.tiles {
            let drow = &row[t.k0..t.k0 + t.kt];
            let mut lane = [0i32; LANES];
            for (&d, wrow) in drow.iter().zip(w.narrow(t).chunks_exact(LANES)) {
                if d != 0 {
                    for (p, &wv) in lane.iter_mut().zip(wrow) {
                        *p += i32::from(d) * i32::from(wv);
                    }
                }
            }
            for (c, &p) in lane.iter().enumerate() {
                fold_scalar(&mut accs[c], i64::from(p), &mut ev);
            }
        }
        acc[r * LANES..(r + 1) * LANES].copy_from_slice(&accs);
        row_events[r] = ev;
        r += 1;
    }
}

/// General one-row path: dynamic widths ([`RowKernel::DynScalar`]) and
/// tall tiles ([`RowKernel::MacSerial`]), plus any fixed-width tile
/// that shares an N-tile with them (evaluated by the exact skip loop —
/// bit-identical to its fixed kernel). Accumulators live in the `acc`
/// slice; `scratch` holds one tile's psums.
fn row_general<T: PanelElem>(
    w: &TileWeights,
    row: &[T],
    acc: &mut [i64],
    scratch: &mut [i32],
) -> u64 {
    let nt = w.nt;
    let mut ev = 0u64;
    for t in &w.tiles {
        let drow = &row[t.k0..t.k0 + t.kt];
        let tw = w.narrow(t);
        if t.kernel == RowKernel::MacSerial {
            // Tall tile: the in-tile fold may clip, so run the literal
            // ticked chain — `Pe::mac_step` per element, north→south.
            for (c, a) in acc.iter_mut().enumerate() {
                let mut psum = 0i64;
                for (r, &d) in drow.iter().enumerate() {
                    let wv = tw[r * nt + c];
                    let d = d.operand();
                    if d != 0 && wv != 0 {
                        psum = Pe::mac_step(psum, d, wv);
                    }
                }
                fold_scalar(a, psum, &mut ev);
            }
        } else if nt == 1 {
            // One output column (routing's Update matmul): a contiguous
            // dot product, which vectorizes where the skip loop below
            // does not. Exact, so bit-identical to that loop.
            let psum: i32 = drow
                .iter()
                .zip(tw)
                .map(|(&d, &wv)| Into::<i32>::into(d) * i32::from(wv))
                .sum();
            fold_scalar(&mut acc[0], i64::from(psum), &mut ev);
        } else {
            let psums = &mut scratch[..nt];
            psums.fill(0);
            for (&d, wrow) in drow.iter().zip(tw.chunks_exact(nt)) {
                let d: i32 = d.into();
                if d != 0 {
                    for (p, &wv) in psums.iter_mut().zip(wrow) {
                        *p += d * i32::from(wv);
                    }
                }
            }
            for (a, &p) in acc.iter_mut().zip(psums.iter()) {
                fold_scalar(a, i64::from(p), &mut ev);
            }
        }
    }
    ev
}

/// The AVX2 kernels: `pmaddwd` over pair-interleaved `i16` weights
/// against a broadcast data pair, 16 output columns in two `__m256i`
/// registers, with the K-tile saturating fold done in 32-bit lanes
/// (clamp to ±2^24 via min/max — exact by the `i32` bound above).
/// The only module in the crate allowed to use `unsafe`, and only for
/// the feature-gated intrinsics.
#[cfg(target_arch = "x86_64")]
// lint:allow(unsafe-containment, the crate-level deny is re-allowed only here: runtime-feature-gated SIMD intrinsics with SAFETY-commented call sites)
#[allow(unsafe_code)]
mod avx2 {
    use super::{KTile, TileWeights, WVec, LANES};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_cmpeq_epi32, _mm256_load_si256, _mm256_loadu_si256,
        _mm256_madd_epi16, _mm256_max_epi32, _mm256_min_epi32, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm512_add_epi32, _mm512_cmpneq_epi32_mask,
        _mm512_dpwssd_epi32, _mm512_loadu_si512, _mm512_mask_add_epi32, _mm512_max_epi32,
        _mm512_min_epi32, _mm512_set1_epi32, _mm512_setzero_si512, _mm512_storeu_si512,
    };

    /// 25-bit clamp bounds in every 32-bit lane.
    const SAT_MAX: i32 = (1 << 24) - 1;
    const SAT_MIN: i32 = -(1 << 24);

    /// Data rows the dense kernel folds per weight-vector load. Four
    /// rows use 8 accumulator registers + 2 weight registers and cut
    /// weight-load traffic 4×, turning the sweep from load-port-bound
    /// into `pmaddwd`-throughput-bound.
    const SIMD_ROW_BLOCK: usize = 4;

    /// Safe entry point: sweeps rows `ri0 .. ri0 + nrows` through the
    /// AVX2 kernels, returning `false` without touching anything if
    /// the host lacks `avx2`.
    ///
    /// `panel_wide` is the sign-extended `i16` data panel:
    /// each adjacent element pair is then one little-endian `i32`, so
    /// the kernel broadcasts a data pair with a single memory-operand
    /// `vpbroadcastd` instead of a scalar widen/shift/or chain.
    ///
    /// The sweep is K-tile–outer so one staged tile (≤ 8 KiB
    /// interleaved) stays cache-resident while every row streams
    /// against it; per-(row, column) accumulators and clip-event
    /// counts live in `i32` lane buffers and are folded in place at
    /// each tile — the fold order per element is still tile-ascending,
    /// identical to the serial chain.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn sweep_rows(
        k: usize,
        w: &TileWeights,
        panel_wide: &[i16],
        ri0: usize,
        nrows: usize,
        acc: &mut [i64],
        row_events: &mut [u64],
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        let mut acc32 = vec![0i32; nrows * LANES];
        let mut ev32 = vec![0i32; nrows * LANES];
        // All-dense matmuls on an AVX-512 + VNNI host take the zmm
        // sweep: one register holds a full 16-column row, `vpdpwssd`
        // fuses multiply and accumulate, and the 32-register file keeps
        // a 4-row block's accumulators, psums and event counts resident
        // across every K-tile — the per-tile fold never touches memory.
        // Same fold per element in the same tile order: bit-identical.
        if w.tiles.iter().all(|t| !t.kernel.skips_zeros()) && avx512_available() {
            // SAFETY: the `avx512*`/`avx512vnni` features were
            // runtime-detected just above.
            unsafe { sweep_dense_512(k, w, panel_wide, ri0, nrows, &mut acc32, &mut ev32) };
        } else {
            for t in &w.tiles {
                // SAFETY: `avx2` was runtime-detected just above.
                unsafe {
                    tile_sweep(
                        t,
                        w.inter(t),
                        panel_wide,
                        k,
                        ri0,
                        nrows,
                        &mut acc32,
                        &mut ev32,
                    )
                };
            }
        }
        for r in 0..nrows {
            let lanes = &acc32[r * LANES..(r + 1) * LANES];
            for (a, &v) in acc[r * LANES..(r + 1) * LANES].iter_mut().zip(lanes) {
                *a = i64::from(v);
            }
            row_events[r] = ev32[r * LANES..(r + 1) * LANES]
                .iter()
                .map(|&e| u64::try_from(e).expect("clip-event lane count is non-negative"))
                .sum();
        }
        true
    }

    /// Streams every row's slice of one K-tile against the resident
    /// interleaved weights and folds the finished psums into the
    /// `i32` accumulator/event lane buffers (saturating fold in 32-bit
    /// lanes: raw = acc + psum is in range by the ±2^25 bound; clamp;
    /// `cmpeq + 1` is the per-lane clip indicator).
    ///
    /// Runtime check for the zmm dense-sweep profile: foundation ops
    /// (`avx512f`), zmm `i16` lanes (`avx512bw`), and the fused
    /// multiply-accumulate `vpdpwssd` (`avx512vnni`).
    fn avx512_available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    }

    /// Dense zmm sweep over all rows and every K-tile: rows go in
    /// blocks of [`SIMD_ROW_BLOCK`] (remainder rows one at a time),
    /// tile-inner, with each row's 16 `i32` accumulator lanes, tile
    /// psums and clip-event counts held in zmm registers across the
    /// whole fold chain. Each pair of interleaved weight rows (two
    /// adjacent [`WVec`]s) is one 64-byte `vpdpwssd` operand whose
    /// `i32` lanes are exactly the 16 output columns.
    ///
    /// Writes (not accumulates) each row's final lanes into
    /// `acc32`/`ev32` — this path owns the complete fold.
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified [`avx512_available`].
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn sweep_dense_512(
        k: usize,
        w: &TileWeights,
        panel_wide: &[i16],
        ri0: usize,
        nrows: usize,
        acc32: &mut [i32],
        ev32: &mut [i32],
    ) {
        let vmax = _mm512_set1_epi32(SAT_MAX);
        let vmin = _mm512_set1_epi32(SAT_MIN);
        let ones = _mm512_set1_epi32(1);
        let zero = _mm512_setzero_si512();
        let mut r = 0;
        while r + SIMD_ROW_BLOCK <= nrows {
            let mut acc = [zero; SIMD_ROW_BLOCK];
            let mut ev = [zero; SIMD_ROW_BLOCK];
            for t in &w.tiles {
                let base = (ri0 + r) * k + t.k0;
                let blk = &panel_wide[base..base + (SIMD_ROW_BLOCK - 1) * k + t.kt];
                let wide = blk.as_ptr();
                let inter: *const i16 = w.inter(t).as_ptr().cast();
                let mut psum = [zero; SIMD_ROW_BLOCK];
                let full = t.kt / 2;
                for p in 0..full {
                    let w = _mm512_loadu_si512(inter.add(p * 32).cast());
                    for (j, ps) in psum.iter_mut().enumerate() {
                        let dd = _mm512_set1_epi32(data_pair(wide.add(j * k), p));
                        *ps = _mm512_dpwssd_epi32(*ps, dd, w);
                    }
                }
                if t.kt % 2 == 1 {
                    // Odd tail row: zero-padded partner weights, and
                    // only `d0` is read (the partner slot may be past
                    // the row).
                    let w = _mm512_loadu_si512(inter.add(full * 32).cast());
                    for (j, ps) in psum.iter_mut().enumerate() {
                        let d0 = *wide.add(j * k + t.kt - 1);
                        let dd = _mm512_set1_epi32(d0 as u16 as i32);
                        *ps = _mm512_dpwssd_epi32(*ps, dd, w);
                    }
                }
                for j in 0..SIMD_ROW_BLOCK {
                    let raw = _mm512_add_epi32(acc[j], psum[j]);
                    let sat = _mm512_max_epi32(_mm512_min_epi32(raw, vmax), vmin);
                    let clipped = _mm512_cmpneq_epi32_mask(raw, sat);
                    ev[j] = _mm512_mask_add_epi32(ev[j], clipped, ev[j], ones);
                    acc[j] = sat;
                }
            }
            for j in 0..SIMD_ROW_BLOCK {
                _mm512_storeu_si512(acc32.as_mut_ptr().add((r + j) * LANES).cast(), acc[j]);
                _mm512_storeu_si512(ev32.as_mut_ptr().add((r + j) * LANES).cast(), ev[j]);
            }
            r += SIMD_ROW_BLOCK;
        }
        while r < nrows {
            let mut acc = zero;
            let mut ev = zero;
            for t in &w.tiles {
                let base = (ri0 + r) * k + t.k0;
                let drow = &panel_wide[base..base + t.kt];
                let wide = drow.as_ptr();
                let inter: *const i16 = w.inter(t).as_ptr().cast();
                let mut psum = zero;
                let full = t.kt / 2;
                for p in 0..full {
                    let w = _mm512_loadu_si512(inter.add(p * 32).cast());
                    let dd = _mm512_set1_epi32(data_pair(wide, p));
                    psum = _mm512_dpwssd_epi32(psum, dd, w);
                }
                if t.kt % 2 == 1 {
                    let w = _mm512_loadu_si512(inter.add(full * 32).cast());
                    let dd = _mm512_set1_epi32(drow[t.kt - 1] as u16 as i32);
                    psum = _mm512_dpwssd_epi32(psum, dd, w);
                }
                let raw = _mm512_add_epi32(acc, psum);
                let sat = _mm512_max_epi32(_mm512_min_epi32(raw, vmax), vmin);
                let clipped = _mm512_cmpneq_epi32_mask(raw, sat);
                ev = _mm512_mask_add_epi32(ev, clipped, ev, ones);
                acc = sat;
            }
            _mm512_storeu_si512(acc32.as_mut_ptr().add(r * LANES).cast(), acc);
            _mm512_storeu_si512(ev32.as_mut_ptr().add(r * LANES).cast(), ev);
            r += 1;
        }
    }

    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; `inter` must be tile
    /// `t`'s interleaved weights ([`TileWeights::inter`]).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile_sweep(
        t: &KTile,
        inter: &[WVec],
        panel_wide: &[i16],
        k: usize,
        ri0: usize,
        nrows: usize,
        acc32: &mut [i32],
        ev32: &mut [i32],
    ) {
        let vmax = _mm256_set1_epi32(SAT_MAX);
        let vmin = _mm256_set1_epi32(SAT_MIN);
        let ones = _mm256_set1_epi32(1);
        let skip = t.kernel.skips_zeros();
        let mut r = 0;
        // Dense rows go through in blocks of [`SIMD_ROW_BLOCK`]: each
        // 32-byte weight vector is loaded once per block instead of
        // once per row, which is what the single-row loop is
        // throughput-bound on (3 loads per pair-step against a
        // 2-load/cycle port limit). Chain assignment differs from the
        // single-row kernel but the in-tile `i32` dot product is
        // order-free, so the psums are bit-identical.
        if !skip {
            while r + SIMD_ROW_BLOCK <= nrows {
                let base = (ri0 + r) * k + t.k0;
                let blk = &panel_wide[base..base + (SIMD_ROW_BLOCK - 1) * k + t.kt];
                let psums = tile_psums_block(t, inter, blk.as_ptr(), k);
                for (j, &(psum0, psum1)) in psums.iter().enumerate() {
                    fold_row(acc32, ev32, r + j, psum0, psum1, vmax, vmin, ones);
                }
                r += SIMD_ROW_BLOCK;
            }
        }
        while r < nrows {
            let base = (ri0 + r) * k + t.k0;
            let drow = &panel_wide[base..base + t.kt];
            let (psum0, psum1) = if skip {
                tile_psums::<true>(t, inter, drow)
            } else {
                tile_psums::<false>(t, inter, drow)
            };
            fold_row(acc32, ev32, r, psum0, psum1, vmax, vmin, ones);
            r += 1;
        }
    }

    /// Folds one row's finished tile psums into its `i32`
    /// accumulator/event lanes (saturating fold in 32-bit lanes:
    /// raw = acc + psum is in range by the ±2^25 bound; clamp;
    /// `cmpeq + 1` is the per-lane clip indicator).
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; row `r` must be in
    /// bounds of both lane buffers.
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn fold_row(
        acc32: &mut [i32],
        ev32: &mut [i32],
        r: usize,
        psum0: __m256i,
        psum1: __m256i,
        vmax: __m256i,
        vmin: __m256i,
        ones: __m256i,
    ) {
        let accp: *mut i32 = acc32.as_mut_ptr().add(r * LANES);
        let evp: *mut i32 = ev32.as_mut_ptr().add(r * LANES);
        let raw0 = _mm256_add_epi32(_mm256_loadu_si256(accp.cast()), psum0);
        let raw1 = _mm256_add_epi32(_mm256_loadu_si256(accp.add(8).cast()), psum1);
        let sat0 = _mm256_max_epi32(_mm256_min_epi32(raw0, vmax), vmin);
        let sat1 = _mm256_max_epi32(_mm256_min_epi32(raw1, vmax), vmin);
        _mm256_storeu_si256(accp.cast(), sat0);
        _mm256_storeu_si256(accp.add(8).cast(), sat1);
        let e0 = _mm256_add_epi32(
            _mm256_loadu_si256(evp.cast()),
            _mm256_add_epi32(_mm256_cmpeq_epi32(raw0, sat0), ones),
        );
        let e1 = _mm256_add_epi32(
            _mm256_loadu_si256(evp.add(8).cast()),
            _mm256_add_epi32(_mm256_cmpeq_epi32(raw1, sat1), ones),
        );
        _mm256_storeu_si256(evp.cast(), e0);
        _mm256_storeu_si256(evp.add(8).cast(), e1);
    }

    /// One accumulation step of [`tile_psums`]: `pmaddwd` of the
    /// broadcast widened data pair (`[d0, d1]` as one `i32`, a single
    /// memory-operand `vpbroadcastd`) against interleaved weight
    /// pair-row `p`, added into one of the chains.
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; `inter` must be valid
    /// for aligned reads through interleaved vectors `2p` and `2p + 1`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn pair_step(inter: *const WVec, p: usize, dd: i32, acc: &mut (__m256i, __m256i)) {
        let dd = _mm256_set1_epi32(dd);
        let w0 = _mm256_load_si256(inter.add(2 * p).cast());
        let w1 = _mm256_load_si256(inter.add(2 * p + 1).cast());
        acc.0 = _mm256_add_epi32(acc.0, _mm256_madd_epi16(dd, w0));
        acc.1 = _mm256_add_epi32(acc.1, _mm256_madd_epi16(dd, w1));
    }

    /// Reads widened data pair `p` of the tile as one little-endian
    /// `i32` (lanes `[d0, d1]` — exactly the `vpbroadcastd` operand).
    ///
    /// # Safety
    ///
    /// `2p + 1` must be in bounds of `wide`.
    #[inline]
    unsafe fn data_pair(wide: *const i16, p: usize) -> i32 {
        wide.add(2 * p).cast::<i32>().read_unaligned()
    }

    /// One tile's exact dot products for [`SIMD_ROW_BLOCK`] dense rows
    /// at once: the pair loop loads each interleaved weight vector
    /// once and `pmaddwd`s it against every row's broadcast data pair.
    /// `wide` points at the first row's tile slice; consecutive rows
    /// are `stride` elements apart (the panel's K dimension).
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; `wide` must be valid
    /// for reads through `(SIMD_ROW_BLOCK - 1) * stride + t.kt`
    /// elements, and `inter` must be tile `t`'s interleaved weights.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile_psums_block(
        t: &KTile,
        inter: &[WVec],
        wide: *const i16,
        stride: usize,
    ) -> [(__m256i, __m256i); SIMD_ROW_BLOCK] {
        let zero = _mm256_setzero_si256();
        let mut accs = [(zero, zero); SIMD_ROW_BLOCK];
        let full = t.kt / 2;
        let inter = inter.as_ptr();
        for p in 0..full {
            let w0 = _mm256_load_si256(inter.add(2 * p).cast());
            let w1 = _mm256_load_si256(inter.add(2 * p + 1).cast());
            for (j, a) in accs.iter_mut().enumerate() {
                let dd = _mm256_set1_epi32(data_pair(wide.add(j * stride), p));
                a.0 = _mm256_add_epi32(a.0, _mm256_madd_epi16(dd, w0));
                a.1 = _mm256_add_epi32(a.1, _mm256_madd_epi16(dd, w1));
            }
        }
        if t.kt % 2 == 1 {
            // Odd tail row: zero-padded partner weights, and only `d0`
            // is read (the partner slot may be past the row).
            let w0 = _mm256_load_si256(inter.add(2 * full).cast());
            let w1 = _mm256_load_si256(inter.add(2 * full + 1).cast());
            for (j, a) in accs.iter_mut().enumerate() {
                let d0 = *wide.add(j * stride + t.kt - 1);
                let dd = _mm256_set1_epi32(d0 as u16 as i32);
                a.0 = _mm256_add_epi32(a.0, _mm256_madd_epi16(dd, w0));
                a.1 = _mm256_add_epi32(a.1, _mm256_madd_epi16(dd, w1));
            }
        }
        accs
    }

    /// One tile's exact dot products for all 16 columns: `pmaddwd`
    /// accumulates broadcast data pairs against the interleaved weight
    /// rows, unrolled over four independent accumulator chains so the
    /// loop is throughput-bound instead of serialized on the
    /// `pmaddwd → paddd` latency (the `i32` dot product is order-free,
    /// so chain assignment is exact). The `i32` accumulation cannot
    /// overflow: ≤ 512 pairs × 2·2^14 < 2^31. `SKIP` elides pairs
    /// whose two data elements are both zero — one `i32` compare on
    /// the widened pair (exact: such pairs contribute +0).
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; `drow` must hold the
    /// row's full widened tile slice (`t.kt` elements), and `inter`
    /// must be tile `t`'s interleaved weights.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile_psums<const SKIP: bool>(
        t: &KTile,
        inter: &[WVec],
        drow: &[i16],
    ) -> (__m256i, __m256i) {
        let zero = _mm256_setzero_si256();
        let mut chains = [(zero, zero); 4];
        let full = t.kt / 2;
        let inter = inter.as_ptr();
        let wide = drow.as_ptr();
        let mut p = 0;
        while p + 4 <= full {
            for (j, chain) in chains.iter_mut().enumerate() {
                let dd = data_pair(wide, p + j);
                if !(SKIP && dd == 0) {
                    pair_step(inter, p + j, dd, chain);
                }
            }
            p += 4;
        }
        while p < full {
            let dd = data_pair(wide, p);
            if !(SKIP && dd == 0) {
                pair_step(inter, p, dd, &mut chains[0]);
            }
            p += 1;
        }
        if t.kt % 2 == 1 {
            // Odd tail row: its pair partner's weights are staged as
            // zero, so only `d0` matters — and only `d0` is read (the
            // partner slot may be past the row).
            let d0 = drow[t.kt - 1];
            if !(SKIP && d0 == 0) {
                pair_step(inter, full, d0 as u16 as i32, &mut chains[1]);
            }
        }
        let p0 = _mm256_add_epi32(
            _mm256_add_epi32(chains[0].0, chains[1].0),
            _mm256_add_epi32(chains[2].0, chains[3].0),
        );
        let p1 = _mm256_add_epi32(
            _mm256_add_epi32(chains[0].1, chains[1].1),
            _mm256_add_epi32(chains[2].1, chains[3].1),
        );
        (p0, p1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Axis;

    /// The 32-bit clamp the SIMD fold uses must agree with the
    /// accumulator's shared `fold_step` on and around the clip
    /// boundary.
    #[test]
    fn i32_clamp_fold_matches_fold_step() {
        let clamp32 = |raw: i32| raw.clamp(-(1 << 24), (1 << 24) - 1);
        for acc in [
            -(1i64 << 24),
            -(1 << 24) + 1,
            -1,
            0,
            1,
            (1 << 24) - 2,
            (1 << 24) - 1,
        ] {
            for psum in [-1023i64 * 16384, -16384, -1, 0, 1, 16384, 1023 * 16384] {
                let raw = acc + psum;
                let (sat, clipped) = AccumulatorUnit::fold_step(raw);
                assert_eq!(clamp32(raw as i32) as i64, sat, "acc={acc} psum={psum}");
                assert_eq!(clamp32(raw as i32) as i64 != raw, clipped);
            }
        }
    }

    /// Stages the `k × nt` block of `w` at column `n0` as one N-tile of
    /// `rows`-high K-tiles.
    fn staged(
        w: &View<'_>,
        k: usize,
        n0: usize,
        rows: usize,
        sparse: bool,
        wide: bool,
    ) -> TileWeights {
        let mut tw = TileWeights::default();
        let opts = FunctionalOptions::default();
        tw.stage(w, k, rows, n0, LANES, sparse, opts, wide);
        tw
    }

    /// Pair-interleaved staging reads back as `[w[2p][c], w[2p+1][c]]`
    /// with a zeroed partner on each odd tile's tail, every K-tile of
    /// the N-tile in one buffer — through each walk of
    /// `View::pack_pairs`: unit-stride columns (routing's `û_j`),
    /// unit-stride rows (the `[out][patch]` conv and FC weights), and
    /// element reads for any other layout; even and odd tile heights,
    /// first and second N-tile.
    #[test]
    fn interleaved_weights_pair_rows_per_column() {
        let (k, n) = (11, 2 * LANES);
        let src: Vec<i8> = (0..2 * k * n + 8)
            .map(|i| (i as i8).wrapping_mul(3))
            .collect();
        let views = [
            View::row_major(&src, n),
            View {
                src: &src,
                origin: 3,
                rows: Axis::Strided(1),
                cols: Axis::Strided(k),
            },
            View {
                src: &src,
                origin: 5,
                rows: Axis::Strided(2),
                cols: Axis::Strided(2 * k),
            },
        ];
        assert_eq!(std::mem::align_of::<WVec>(), 32);
        for view in views {
            for rows in [4, 5] {
                for n0 in [0, LANES] {
                    let tw = staged(&view, k, n0, rows, false, true);
                    let case = format!("{view:?} rows={rows} n0={n0}");
                    assert!(tw.tiles.iter().all(|t| t.kernel.is_simd()), "{case}");
                    assert!(tw.narrow.is_empty(), "a wide N-tile stages one form only");
                    let pairs: usize = tw.tiles.iter().map(|t| t.kt.div_ceil(2)).sum();
                    assert_eq!(tw.inter.len(), 2 * pairs, "{case}");
                    for t in &tw.tiles {
                        for p in 0..t.kt.div_ceil(2) {
                            for c in 0..LANES {
                                let lane = &tw.inter[t.inter0 + p * 2 + c / 8].0;
                                let row = t.k0 + 2 * p;
                                let partner = if 2 * p + 1 < t.kt {
                                    i16::from(view.at(row + 1, n0 + c))
                                } else {
                                    0
                                };
                                let got = (lane[2 * (c % 8)], lane[2 * (c % 8) + 1]);
                                let want = (i16::from(view.at(row, n0 + c)), partner);
                                assert_eq!(got, want, "{case} row={row} c={c}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The AVX2 kernels agree element-for-element (values *and* clip
    /// events) with the general scalar path, including folds that clip
    /// at tile boundaries: all-dense (the zmm sweep on AVX-512 hosts),
    /// all-skip, and dense and skipping tiles mixed in one sweep, which
    /// takes the per-tile AVX2 branch on every host. Five rows cover
    /// the 4-row dense block and a remainder row.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_row_matches_scalar_row() {
        if !simd_available() {
            return; // scalar-only host: the fallback is the only path
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as i8
        };
        // Adversarial shape: two tall-ish tiles of ±127 blocks so
        // K-tile folds clip, then a random tile and an odd-height tail
        // tile.
        let (rows, nrows) = (1023, 5);
        let k = 3 * rows + 5;
        let panel: Vec<i8> = (0..nrows * k)
            .map(|i| if i % k < 2 * rows { 127 } else { next() })
            .collect();
        let w: Vec<i8> = (0..k * LANES)
            .map(|i| {
                if i < 2 * rows * LANES {
                    127
                } else {
                    next().wrapping_sub(i as i8)
                }
            })
            .collect();
        let wide: Vec<i16> = panel.iter().map(|&d| i16::from(d)).collect();

        let w = View::row_major(&w, LANES);
        let scalar = staged(&w, k, 0, rows, false, false);
        let mut acc_ref = vec![0i64; nrows * LANES];
        let mut ev_ref = vec![0u64; nrows];
        let mut scratch = vec![0i32; LANES];
        for r in 0..nrows {
            ev_ref[r] = row_general(
                &scalar,
                &panel[r * k..(r + 1) * k],
                &mut acc_ref[r * LANES..(r + 1) * LANES],
                &mut scratch,
            );
        }
        assert!(ev_ref.iter().all(|&e| e > 0), "adversarial rows must clip");

        for mix in ["dense", "skip", "mixed"] {
            let mut simd = staged(&w, k, 0, rows, mix == "skip", true);
            if mix == "mixed" {
                for (i, t) in simd.tiles.iter_mut().enumerate() {
                    t.kernel = if i % 2 == 0 {
                        RowKernel::SkipSimd
                    } else {
                        RowKernel::DenseSimd
                    };
                }
            }
            assert_eq!(simd.tiles.len(), 4);
            assert!(simd.tiles.iter().all(|t| t.kernel.is_simd()));
            let mut acc_simd = vec![0i64; nrows * LANES];
            let mut ev_simd = vec![0u64; nrows];
            assert!(avx2::sweep_rows(
                k,
                &simd,
                &wide,
                0,
                nrows,
                &mut acc_simd,
                &mut ev_simd
            ));
            assert_eq!(acc_simd, acc_ref, "{mix}");
            assert_eq!(ev_simd, ev_ref, "{mix}");
        }
    }

    /// The panel is wide whenever some N-tile runs SIMD: a ragged tail
    /// or an array taller than the exact-fold bound over a short `k`
    /// does not demote the full-width N-tiles to the scalar kernels.
    #[test]
    fn wide_panel_keys_on_any_simd_n_tile() {
        let opts = FunctionalOptions::default();
        if !simd_enabled(opts) {
            assert!(!wide_panel(opts, 16, LANES, 40, 32));
            return;
        }
        assert!(wide_panel(opts, 16, LANES, 40, 32));
        assert!(wide_panel(opts, 16, LANES, 40, 20), "ragged tail");
        assert!(
            wide_panel(opts, 1100, LANES, 500, 16),
            "tall array, short k"
        );
        assert!(wide_panel(opts, 16, LANES, 0, 16), "k = 0");
        assert!(!wide_panel(opts, 16, LANES, 40, 15), "no full N-tile");
        assert!(!wide_panel(opts, 1100, LANES, 1100, 16), "MacSerial tile");
        assert!(!wide_panel(opts, 16, 8, 40, 32), "narrow array");
    }

    /// Explicit thread requests always split (min'd with the row
    /// count); auto stays serial under the work threshold.
    #[test]
    fn thread_policy_splits_explicit_requests() {
        assert_eq!(effective_threads(7, 3, 64, 16), 3);
        assert_eq!(effective_threads(2, 100, 4, 4), 2);
        assert_eq!(effective_threads(1, 1_000_000, 1_000, 16), 1);
        assert_eq!(effective_threads(4, 1, 1_000_000, 16), 1);
        assert_eq!(effective_threads(0, 16, 8, 16), 1, "tiny auto stays serial");
        // MNIST PrimaryCaps (k = 20736, nt = 16): 36 panel rows per
        // image. Auto keeps batch 1 serial and splits batch 16 (576
        // rows) on any multi-core host; explicit requests still split.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let (b1, b16) = (
            effective_threads(0, 36, 20736, 16),
            effective_threads(0, 576, 20736, 16),
        );
        assert_eq!(b1, 1, "batch-1 PrimaryCaps");
        assert_eq!(b16 >= 2, cores >= 2, "batch 16 on {cores} cores");
        assert!(b16 <= cores && 576 / b16 >= AUTO_MIN_ROWS_PER_THREAD);
        assert_eq!(effective_threads(2, 36, 20736, 16), 2);
        assert_eq!(effective_threads(1, 576, 20736, 16), 1);
    }
}
