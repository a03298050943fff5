//! Borrowed matmul operands.
//!
//! Every matmul the engine issues reads its two operands in place from
//! the tensors that already hold them: the image or feature map (an
//! im2col panel), the parameter tensor (`[out_ch][patch]` or the
//! ClassCaps `W_ij` block), or routing's `û`/`v_j`/coupling tensors. A
//! [`View`] is that address generator — the Data and Weight Buffers'
//! addressing of Sec. V — as plain data: element `(row, col)` is
//! `src[origin + rows.offset(row) + cols.offset(col)]`, with each axis
//! either affine ([`Axis::Strided`]) or tabulated ([`Axis::Table`],
//! im2col's `patch_origins()`/`tap_offsets()`).
//!
//! Because a view knows its layout, staging can copy it in the order
//! the source is contiguous ([`View::copy_block`]): unit-stride columns
//! row by row, unit-stride rows column by column, and tabulated
//! columns as runs of consecutive taps. The SIMD kernels' weights skip
//! that copy: [`View::pack_pairs`] writes them straight into their
//! pair-interleaved form. The copied values are the same in any order,
//! so this is a host-speed choice only.

use crate::kernel::{WVec, LANES};

/// How one axis of a [`View`] maps an index to a source offset.
#[derive(Copy, Clone, Debug)]
pub(crate) enum Axis<'a> {
    /// `offset(i) = i · stride` (a stride of 0 repeats one element).
    Strided(usize),
    /// `offset(i) = table[i]`.
    Table(&'a [usize]),
}

impl Axis<'_> {
    /// Source offset of index `i` along this axis.
    #[inline]
    pub(crate) fn offset(&self, i: usize) -> usize {
        match *self {
            Axis::Strided(stride) => i * stride,
            Axis::Table(table) => table[i],
        }
    }

    fn is_unit(&self) -> bool {
        matches!(self, Axis::Strided(1))
    }
}

/// A read-only 2-D operand over a borrowed `i8` slice: element
/// `(row, col)` is `src[origin + rows.offset(row) + cols.offset(col)]`.
/// Out-of-range addressing panics through the slice bounds checks.
#[derive(Copy, Clone, Debug)]
pub(crate) struct View<'a> {
    pub(crate) src: &'a [i8],
    pub(crate) origin: usize,
    pub(crate) rows: Axis<'a>,
    pub(crate) cols: Axis<'a>,
}

impl<'a> View<'a> {
    /// A dense row-major matrix of `width` columns starting at
    /// `src[0]`.
    pub(crate) fn row_major(src: &'a [i8], width: usize) -> Self {
        View {
            src,
            origin: 0,
            rows: Axis::Strided(width),
            cols: Axis::Strided(1),
        }
    }

    /// Element `(row, col)`.
    #[inline]
    pub(crate) fn at(&self, row: usize, col: usize) -> i8 {
        self.src[self.origin + self.rows.offset(row) + self.cols.offset(col)]
    }

    /// Copies the block of rows `r0 .. r0 + nr` × columns `c0 .. c0 +
    /// nc` into `dst` (row-major `nr × nc`), widening each element, and
    /// returns how many elements were zero. The source is walked
    /// contiguously where the layout allows: a view whose rows alone
    /// are unit-stride is copied column by column, and tabulated
    /// columns are copied as runs of consecutive offsets.
    pub(crate) fn copy_block<T: From<i8>>(
        &self,
        r0: usize,
        nr: usize,
        c0: usize,
        nc: usize,
        dst: &mut [T],
    ) -> usize {
        assert_eq!(dst.len(), nr * nc, "destination is not {nr} x {nc}");
        let mut zeros = 0usize;
        let mut put = |d: &mut T, v: i8| {
            *d = T::from(v);
            zeros += usize::from(v == 0);
        };
        if self.rows.is_unit() && !self.cols.is_unit() {
            for j in 0..nc {
                let base = self.origin + self.cols.offset(c0 + j) + r0;
                let column = dst.iter_mut().skip(j).step_by(nc);
                for (d, &v) in column.zip(&self.src[base..base + nr]) {
                    put(d, v);
                }
            }
            return zeros;
        }
        let rows = dst.chunks_exact_mut(nc.max(1)).enumerate();
        match self.cols {
            Axis::Strided(1) => {
                for (i, row) in rows {
                    let base = self.origin + self.rows.offset(r0 + i) + c0;
                    for (d, &v) in row.iter_mut().zip(&self.src[base..base + nc]) {
                        put(d, v);
                    }
                }
            }
            Axis::Strided(stride) => {
                for (i, row) in rows {
                    let base = self.origin + self.rows.offset(r0 + i);
                    for (j, d) in row.iter_mut().enumerate() {
                        put(d, self.src[base + (c0 + j) * stride]);
                    }
                }
            }
            Axis::Table(table) => {
                // Runs of consecutive offsets: `(first j, offset from
                // the row origin, length)`.
                let mut runs: Vec<(usize, usize, usize)> = Vec::new();
                for (j, &off) in table[c0..c0 + nc].iter().enumerate() {
                    match runs.last_mut() {
                        Some((_, start, len)) if *start + *len == off => *len += 1,
                        _ => runs.push((j, off, 1)),
                    }
                }
                for (i, row) in rows {
                    let base = self.origin + self.rows.offset(r0 + i);
                    for &(j0, off, len) in &runs {
                        let src = &self.src[base + off..base + off + len];
                        for (d, &v) in row[j0..j0 + len].iter_mut().zip(src) {
                            put(d, v);
                        }
                    }
                }
            }
        }
        zeros
    }

    /// Packs rows `k0 .. k0 + kt` × the [`LANES`] columns from `n0`
    /// straight into the SIMD kernels' pair-interleaved form: vector
    /// `2q + h` of `dst` holds columns `8h .. 8h + 8` as `i16` lanes
    /// `[(k0 + 2q, c), (k0 + 2q + 1, c)]`, the partner zero on an odd
    /// `kt`'s last pair. The walk is pair-outer and column-inner, so
    /// `dst` is written sequentially: a view with unit-stride rows (the
    /// `[out][patch]` conv weights, the ClassCaps `W_ij` block) reads
    /// each column's pair as two adjacent bytes of its `kt`-byte run,
    /// one with unit-stride columns (routing's `û_j`) reads two
    /// 16-byte source rows per pair, and any other layout reads each
    /// element through [`View::at`].
    pub(crate) fn pack_pairs(&self, k0: usize, kt: usize, n0: usize, dst: &mut [WVec]) {
        assert_eq!(
            dst.len(),
            kt.div_ceil(2) * 2,
            "destination is not {kt} rows"
        );
        match (self.rows, self.cols) {
            (Axis::Strided(1), Axis::Strided(stride)) => {
                let columns: [&[i8]; LANES] = std::array::from_fn(|c| {
                    let base = self.origin + k0 + (n0 + c) * stride;
                    &self.src[base..base + kt]
                });
                pack_pairs_with(dst, kt, |r, c| columns[c][r]);
            }
            (Axis::Strided(stride), Axis::Strided(1)) => {
                let base = self.origin + k0 * stride + n0;
                pack_pairs_with(dst, kt, |r, c| self.src[base + r * stride + c]);
            }
            _ => pack_pairs_with(dst, kt, |r, c| self.at(k0 + r, n0 + c)),
        }
    }
}

/// The walk of [`View::pack_pairs`] over tile element `(r, c)`: pair
/// `q` outer, column inner, so `dst` is written sequentially.
#[inline(always)]
fn pack_pairs_with(dst: &mut [WVec], kt: usize, elem: impl Fn(usize, usize) -> i8) {
    for (q, halves) in dst.chunks_exact_mut(2).enumerate() {
        let paired = 2 * q + 1 < kt;
        for (h, vec) in halves.iter_mut().enumerate() {
            for (j, lane) in vec.0.chunks_exact_mut(2).enumerate() {
                let c = 8 * h + j;
                lane[0] = i16::from(elem(2 * q, c));
                lane[1] = if paired {
                    i16::from(elem(2 * q + 1, c))
                } else {
                    0
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `copy_block` copies exactly the elements `at` addresses, and
    /// counts their zeros, for every axis combination the engine
    /// builds.
    #[test]
    fn copy_block_matches_element_reads() {
        let src: Vec<i8> = (0..200).map(|i| (i as i8).wrapping_mul(37)).collect();
        let taps = [0usize, 1, 2, 10, 11, 12, 40, 41, 3];
        let origins = [0usize, 5, 17, 60];
        let views = [
            View::row_major(&src, 9),
            View {
                src: &src,
                origin: 7,
                rows: Axis::Strided(1),
                cols: Axis::Strided(11),
            },
            View {
                src: &src,
                origin: 2,
                rows: Axis::Strided(13),
                cols: Axis::Strided(3),
            },
            View {
                src: &src,
                origin: 4,
                rows: Axis::Strided(0),
                cols: Axis::Strided(1),
            },
            View {
                src: &src,
                origin: 1,
                rows: Axis::Table(&origins),
                cols: Axis::Table(&taps),
            },
        ];
        for view in views {
            let (r0, nr, c0, nc) = (1, 3, 2, 6);
            let mut block = vec![0i16; nr * nc];
            let zeros = view.copy_block(r0, nr, c0, nc, &mut block);
            let want: Vec<i16> = (0..nr * nc)
                .map(|e| i16::from(view.at(r0 + e / nc, c0 + e % nc)))
                .collect();
            assert_eq!(block, want, "{view:?}");
            assert_eq!(zeros, want.iter().filter(|&&v| v == 0).count());
        }
    }
}
