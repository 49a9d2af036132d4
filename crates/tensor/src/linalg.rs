//! Matrix multiplication and convolution kernels operating on raw [`Tensor`]s.
//!
//! These are the hot loops of the crate. All three GEMM entry points
//! ([`matmul`], [`matmul_at_b`], [`matmul_a_bt`]) run one register-tiled
//! kernel ([`MR`]×[`NR`] accumulators) over packed panels; the transposed
//! operands are packed first, a row-major `B` is read in place. Convolution
//! is lowered to that GEMM through im2col over groups of images (as many as
//! fit [`COL_BUDGET`]), and depthwise convolution loops over precomputed
//! valid-tap ranges, channels innermost. Safe Rust only: no intrinsics, no
//! `unsafe`, no target flags.
//!
//! # Accumulation-order invariant
//!
//! Every output element is the chain `0.0 + x₀·y₀ + x₁·y₁ + … + x₍ₖ₋₁₎·y₍ₖ₋₁₎`
//! over `p` ascending, with a separate multiply and add (no FMA), no
//! zero-skips and no reassociation. Tiling, packing, batching images into
//! one GEMM and splitting rows across lanes only change *which* chain a
//! register holds, never the chain itself, so every kernel here is
//! bit-identical to the naive ikj loop. No kernel skips `a == 0.0` entries:
//! `0 × NaN = NaN` and `0 × ∞ = NaN` must propagate like IEEE-754 says.
//! Weight gradients keep one chain per image and add the per-image results
//! in image order, across groups too (see [`gemm_into`]'s `segments` and
//! `base`).
//!
//! # Determinism under parallelism
//!
//! Above [`PAR_MIN_MACS`] multiply–accumulates a GEMM fans its [`MR`]-row
//! blocks across the [`threadpool::current`] pool through the restartable
//! `parallel_fill_rows` (so isolation mode can re-run a panicked block).
//! Each block is computed entirely by one lane with the exact chains above,
//! and blocks are disjoint slices of the output, so the result is
//! bit-identical for every thread count (`A3CS_THREADS=1` included). The
//! other fan-out sites — conv2d's per-image col2im in the backward, and
//! depthwise forward and backward per image — use the same threshold and
//! the same restartable helper, [`fill_rows`].

use crate::tensor::Tensor;
use std::ops::Range;

/// Minimum multiply–accumulate count before a kernel fans out across the
/// thread pool. Measured with `cosearch_bench` on a 2-core host against
/// these kernels: 256 Ki and 512 Ki cost env-steps per CPU second on
/// `tiny-train`, while 1 Mi and no fan-out at all agreed within run-to-run
/// noise on all three workloads. 1 Mi is the smaller of those two, so the
/// widest kernels of a 20-image update (conv GEMMs with 16 or more output
/// channels, per-image depthwise) still fan out on a 2-lane pool.
pub const PAR_MIN_MACS: usize = 1 << 20;

/// Rows of the register tile (rows of `A` per packed panel).
pub(crate) const MR: usize = 4;
/// Columns of the register tile (columns of `B` per packed panel).
pub(crate) const NR: usize = 8;

/// Wrap a buffer that the caller sized as exactly `m * n` elements.
fn tensor2(data: Vec<f32>, m: usize, n: usize) -> Tensor {
    match Tensor::from_vec(data, &[m, n]) {
        Ok(t) => t,
        // Callers allocate `vec![0.0; m * n]`, so the length always matches
        // and the element count already fit in memory.
        Err(e) => unreachable!("buffer sized by construction for [{m}, {n}]: {e:?}"),
    }
}

/// Run `fill(row, row_slice)` for every row of `out`, fanning rows across
/// the pool (restartably) when the work is worth `macs` multiply–accumulates.
pub(crate) fn fill_rows(
    out: &mut [f32],
    rows: usize,
    row_len: usize,
    macs: u64,
    fill: impl Fn(usize, &mut [f32]) + Sync,
) {
    if rows == 0 || row_len == 0 {
        return;
    }
    if rows >= 2 && macs >= PAR_MIN_MACS as u64 {
        threadpool::current().parallel_fill_rows(out, rows, row_len, fill);
    } else {
        for (i, orow) in out.chunks_mut(row_len).enumerate() {
            fill(i, orow);
        }
    }
}

/// A read-only strided matrix view: element `(i, j)` is
/// `data[i * row_stride + j * col_stride]`. Transposes and sub-blocks are
/// views, so every GEMM variant packs from the caller's buffer directly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatRef<'a> {
    pub data: &'a [f32],
    pub rows: usize,
    pub cols: usize,
    pub row_stride: usize,
    pub col_stride: usize,
}

impl<'a> MatRef<'a> {
    /// A dense row-major `[rows, cols]` matrix.
    pub fn row_major(data: &'a [f32], rows: usize, cols: usize) -> Self {
        Self {
            data,
            rows,
            cols,
            row_stride: cols,
            col_stride: 1,
        }
    }

    /// The columns `j..` of this view (no copy).
    fn cols_from(self, j: usize) -> Self {
        Self {
            data: &self.data[j * self.col_stride..],
            cols: self.cols - j,
            ..self
        }
    }

    /// The transpose of this view (no copy).
    pub fn t(self) -> Self {
        Self {
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
            ..self
        }
    }
}

/// Pack `len` lines of `mat` into `width`-wide panels of `depth` steps each:
/// `panel[b][p][l] = line(b * width + l)[p]`, where `line(i)[p]` is element
/// `(i, p)` when `lines_are_rows`, else element `(p, i)`. Lanes past `len`
/// are zero; the kernel computes them but they are never stored.
fn pack(mat: MatRef<'_>, lines_are_rows: bool, width: usize) -> Vec<f32> {
    let (len, depth, line_stride, step_stride) = if lines_are_rows {
        (mat.rows, mat.cols, mat.row_stride, mat.col_stride)
    } else {
        (mat.cols, mat.rows, mat.col_stride, mat.row_stride)
    };
    let blocks = len.div_ceil(width);
    let mut out = vec![0.0f32; blocks * depth * width];
    for (b, panel) in out.chunks_exact_mut((depth * width).max(1)).enumerate() {
        let lanes = width.min(len - b * width);
        for (p, step) in panel.chunks_exact_mut(width).enumerate() {
            for (l, slot) in step[..lanes].iter_mut().enumerate() {
                *slot = mat.data[(b * width + l) * line_stride + p * step_stride];
            }
        }
    }
    out
}

/// The register tile: `acc[r][c] = 0.0 + Σ_p a[p][r] · b[p][c]`, `p`
/// ascending, over one packed `A` panel and the `k` rows of one `B` column
/// panel (each row starting at the panel's first column).
#[inline]
fn tile<'b>(a_panel: &[f32], b_rows: impl Iterator<Item = &'b [f32]>) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (a, b) in a_panel.as_chunks::<MR>().0.iter().zip(b_rows) {
        let Some(b) = b.first_chunk::<NR>() else {
            unreachable!("every B panel row holds at least NR columns")
        };
        for (row, &av) in acc.iter_mut().zip(a) {
            for (o, &bv) in row.iter_mut().zip(b) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// `C[m,n] = A[m,k] · B[k,n]` over strided views, as a dense row-major
/// buffer, honouring the accumulation-order invariant of this module.
///
/// `A` is packed into [`MR`]-row panels. A row-major `B` (unit column
/// stride, rows at least `n` apart) is read in place, and only its last,
/// partial column panel is packed; any other `B` (a transposed operand) is
/// packed into [`NR`]-column panels first.
pub(crate) fn gemm(a: MatRef<'_>, b: MatRef<'_>) -> Vec<f32> {
    let mut out = Vec::new();
    gemm_into(a, b, 1, None, &mut out);
    out
}

/// [`gemm`] with `k` split into `segments` equal runs of `p`, added onto
/// `base`: `out[i][j] = base[i][j] + s₀ + s₁ + …` in that order, where each
/// segment's chain `s` starts at `0.0`. That is a batch of per-image
/// products reduced in image order — continuing the reduction of an earlier
/// batch when `base` holds its result — without staging each image's
/// product. No `base` means `0.0`, and `0.0 + s₀ = s₀` bit for bit, since a
/// chain that starts at `+0.0` never ends at `−0.0`. `out` is cleared and
/// resized to `m * n`, so a caller can reuse one buffer across calls.
///
/// # Panics
///
/// Panics unless `segments` is positive and divides `k`, and `base` (if
/// any) holds `m * n` elements.
pub(crate) fn gemm_into(
    a: MatRef<'_>,
    b: MatRef<'_>,
    segments: usize,
    base: Option<&[f32]>,
    out: &mut Vec<f32>,
) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    assert_eq!(k, b.rows, "gemm inner dims differ: {k} vs {}", b.rows);
    assert!(
        segments > 0 && k % segments == 0,
        "gemm: {segments} segments do not split k = {k}"
    );
    assert!(
        base.is_none_or(|base| base.len() == m * n),
        "gemm: base must hold m * n = {} elements",
        m * n
    );
    out.clear();
    if m == 0 || n == 0 {
        return;
    }
    let macs = (m * k * n) as u64;
    // Observe-only cost attribution; one relaxed load when telemetry is off.
    if telemetry::enabled() {
        telemetry::GEMM_CALLS.add(1);
        telemetry::GEMM_MACS.add(macs);
        telemetry::GEMM_MACS_HIST.record(macs);
    }
    if k == 0 {
        match base {
            Some(base) => out.extend_from_slice(base),
            None => out.resize(m * n, 0.0),
        }
        return;
    }
    let seg = k / segments;
    let a_packed = pack(a, true, MR);
    let in_place = b.col_stride == 1 && b.row_stride >= n;
    let b_packed = (!in_place).then(|| pack(b, false, NR));
    let full_panels = n / NR;
    let edge = match b_packed {
        Some(_) => Vec::new(),
        None => pack(b.cols_from(full_panels * NR), false, NR),
    };
    let row_blocks = m.div_ceil(MR);
    // Whole MR-row blocks keep every lane's slice disjoint; the padded rows
    // past `m` are dropped by the truncate below.
    out.resize(row_blocks * MR * n, 0.0);
    fill_rows(out, row_blocks, MR * n, macs, |ib, block| {
        let a_panel = &a_packed[ib * k * MR..(ib + 1) * k * MR];
        let rows = MR.min(m - ib * MR);
        for jb in 0..n.div_ceil(NR) {
            let chain = |s: usize| {
                let (p0, a_seg) = (s * seg, &a_panel[s * seg * MR..(s + 1) * seg * MR]);
                match &b_packed {
                    Some(panels) => tile(a_seg, panels[(jb * k + p0) * NR..].chunks_exact(NR)),
                    None if jb < full_panels => tile(
                        a_seg,
                        b.data[p0 * b.row_stride + jb * NR..].chunks(b.row_stride),
                    ),
                    None => tile(a_seg, edge[p0 * NR..].chunks_exact(NR)),
                }
            };
            let (j0, cols) = (jb * NR, NR.min(n - jb * NR));
            let mut acc = [[0.0f32; NR]; MR];
            if let Some(base) = base {
                for (r, row) in acc.iter_mut().enumerate().take(rows) {
                    let i = ib * MR + r;
                    row[..cols].copy_from_slice(&base[i * n + j0..i * n + j0 + cols]);
                }
            }
            for s in 0..segments {
                for (row, part) in acc.iter_mut().zip(chain(s)) {
                    for (o, p) in row.iter_mut().zip(part) {
                        *o += p;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                block[r * n + j0..r * n + j0 + cols].copy_from_slice(&acc_row[..cols]);
            }
        }
    });
    out.truncate(m * n);
}

/// `A[m,k] @ B[k,n] -> [m,n]`.
///
/// # Panics
///
/// Panics unless both inputs are rank 2 with matching inner dimension.
#[must_use]
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
    let out = gemm(
        MatRef::row_major(a.data(), m, k),
        MatRef::row_major(b.data(), k, n),
    );
    tensor2(out, m, n)
}

/// `A^T[k,m] @ B[k,n] -> [m,n]` without materialising the transpose.
///
/// # Panics
///
/// Panics unless both inputs are rank 2 with matching leading dimension.
#[must_use]
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_at_b lhs");
    let (k2, n) = dims2(b, "matmul_at_b rhs");
    assert_eq!(k, k2, "matmul_at_b leading dims differ: {k} vs {k2}");
    let out = gemm(
        MatRef::row_major(a.data(), k, m).t(),
        MatRef::row_major(b.data(), k, n),
    );
    tensor2(out, m, n)
}

/// `A[m,k] @ B^T[n,k] -> [m,n]` without materialising the transpose.
///
/// # Panics
///
/// Panics unless both inputs are rank 2 with matching trailing dimension.
#[must_use]
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_a_bt lhs");
    let (n, k2) = dims2(b, "matmul_a_bt rhs");
    assert_eq!(k, k2, "matmul_a_bt trailing dims differ: {k} vs {k2}");
    let out = gemm(
        MatRef::row_major(a.data(), m, k),
        MatRef::row_major(b.data(), n, k).t(),
    );
    tensor2(out, m, n)
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 2, "{what} must be rank 2, got {s:?}");
    (s[0], s[1])
}

/// Static geometry of a 2-D convolution (shared by forward and backward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
    /// Input spatial height.
    pub in_h: usize,
    /// Input spatial width.
    pub in_w: usize,
}

impl Conv2dGeometry {
    /// Output spatial height.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    #[must_use]
    pub fn out_h(&self) -> usize {
        out_dim(self.in_h, self.kernel, self.stride, self.padding)
    }

    /// Output spatial width.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    #[must_use]
    pub fn out_w(&self) -> usize {
        out_dim(self.in_w, self.kernel, self.stride, self.padding)
    }

    /// Number of rows of the lowered (im2col) matrix: `Ci * k * k`.
    #[must_use]
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of columns of the lowered (im2col) matrix: `Ho * Wo`.
    #[must_use]
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Multiply–accumulate operations for one input image.
    #[must_use]
    pub fn macs_per_image(&self) -> u64 {
        self.out_channels as u64 * self.col_rows() as u64 * self.col_cols() as u64
    }

    /// Images conv2d lowers and multiplies together: as many as fit one
    /// [`COL_BUDGET`]-element im2col matrix, at least one.
    pub(crate) fn images_per_group(&self) -> usize {
        (COL_BUDGET / (self.col_rows() * self.col_cols()).max(1)).max(1)
    }
}

/// Most `f32` elements of one conv2d im2col matrix. Lowering images in
/// groups of this size keeps peak memory near a per-image lowering's and
/// the matrix in cache, while the GEMMs get many more columns than one
/// image gives (in the tiny supernet's 3×3-output cells, 81 or more
/// instead of 9).
const COL_BUDGET: usize = 64 * 1024;

fn out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let padded = input + 2 * padding;
    assert!(
        padded >= kernel && stride > 0,
        "kernel {kernel} with stride {stride} does not fit input {input} (+2*{padding} pad)"
    );
    (padded - kernel) / stride + 1
}

/// Output positions `o` in `0..out` whose input index
/// `o * stride + tap - padding` lies inside `0..input`. The valid positions
/// of one kernel tap are always one contiguous range, so the kernels below
/// loop over it instead of bounds-checking every tap.
fn tap_range(tap: usize, input: usize, out: usize, stride: usize, padding: usize) -> Range<usize> {
    let hi = (padding + input)
        .saturating_sub(tap)
        .div_ceil(stride)
        .min(out);
    let lo = padding.saturating_sub(tap).div_ceil(stride).min(hi);
    lo..hi
}

/// Kernel taps `t` in `0..kernel` whose input index `o * stride + t - padding`
/// lies inside `0..input`, for one output position `o`.
fn taps_for(o: usize, kernel: usize, input: usize, stride: usize, padding: usize) -> Range<usize> {
    let hi = (input + padding).saturating_sub(o * stride).min(kernel);
    padding.saturating_sub(o * stride).min(hi)..hi
}

/// [`tap_range`] of every kernel row and column tap: `(ys[ky], xs[kx])`.
fn tap_ranges(geom: &Conv2dGeometry) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
    let (k, s, pad) = (geom.kernel, geom.stride, geom.padding);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    (
        (0..k)
            .map(|t| tap_range(t, geom.in_h, oh, s, pad))
            .collect(),
        (0..k)
            .map(|t| tap_range(t, geom.in_w, ow, s, pad))
            .collect(),
    )
}

/// `f(&mut dst[j], src[j * stride])` for every `j` in `0..dst.len()`. The
/// unit stride is split out of the loop so that it vectorizes.
#[inline]
fn zip_gather(dst: &mut [f32], src: &[f32], stride: usize, f: impl Fn(&mut f32, f32)) {
    if stride == 1 {
        let src = &src[..dst.len()];
        for (d, &v) in dst.iter_mut().zip(src) {
            f(d, v);
        }
    } else {
        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            f(d, v);
        }
    }
}

/// `f(&mut dst[j * stride], src[j])` for every `j` in `0..src.len()`.
#[inline]
fn zip_scatter(dst: &mut [f32], src: &[f32], stride: usize, f: impl Fn(&mut f32, f32)) {
    if stride == 1 {
        for (d, &v) in dst[..src.len()].iter_mut().zip(src) {
            f(d, v);
        }
    } else {
        for (d, &v) in dst.iter_mut().step_by(stride).zip(src) {
            f(d, v);
        }
    }
}

/// Lower `n` images `[n, Ci, H, W]` (as a flat slice) to one im2col matrix
/// `[Ci*k*k, n*Ho*Wo]`: column `ni * Ho*Wo + oy * Wo + ox` holds image
/// `ni`'s receptive field at `(oy, ox)`, zero where it overlaps the padding.
/// `out` is cleared, filled and returned, so a caller can reuse one buffer.
///
/// # Panics
///
/// Panics if `images` does not hold exactly `n*Ci*H*W` elements.
#[must_use]
pub(crate) fn im2col_batch(
    images: &[f32],
    n: usize,
    geom: &Conv2dGeometry,
    mut out: Vec<f32>,
) -> Vec<f32> {
    let (h, w) = (geom.in_h, geom.in_w);
    let image_len = geom.in_channels * h * w;
    assert_eq!(images.len(), n * image_len, "im2col image size mismatch");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (k, s, pad) = (geom.kernel, geom.stride, geom.padding);
    let cols = n * oh * ow;
    out.clear();
    out.resize(geom.col_rows() * cols, 0.0);
    if cols == 0 || image_len == 0 {
        return out;
    }
    let (ys, xs) = tap_ranges(geom);
    for (row, dst_row) in out.chunks_exact_mut(cols).enumerate() {
        let (c, ky, kx) = (row / (k * k), row / k % k, row % k);
        let xs = &xs[kx];
        if xs.is_empty() {
            continue;
        }
        let ix0 = xs.start * s + kx - pad;
        for (img, dst) in images
            .chunks_exact(image_len)
            .zip(dst_row.chunks_exact_mut(oh * ow))
        {
            let plane = &img[c * h * w..(c + 1) * h * w];
            for oy in ys[ky].clone() {
                let src = &plane[(oy * s + ky - pad) * w + ix0..];
                zip_gather(
                    &mut dst[oy * ow + xs.start..oy * ow + xs.end],
                    src,
                    s,
                    |d, v| *d = v,
                );
            }
        }
    }
    out
}

/// Lower one image `[Ci, H, W]` (as a flat slice) to the im2col matrix
/// `[Ci*k*k, Ho*Wo]` for `geom`.
///
/// # Panics
///
/// Panics if `image` does not hold exactly `Ci*H*W` elements.
#[must_use]
pub fn im2col(image: &[f32], geom: &Conv2dGeometry) -> Tensor {
    tensor2(
        im2col_batch(image, 1, geom, Vec::new()),
        geom.col_rows(),
        geom.col_cols(),
    )
}

/// Scatter-add one image's `Ho*Wo` columns of an im2col-layout matrix back
/// into `image` `[Ci, H, W]`. Row `r` of the matrix starts at
/// `col[r * row_stride]`, so one image's block of a batched matrix is read in
/// place. Each pixel accumulates in `(c, ky, kx, oy, ox)` order.
pub(crate) fn col2im_add(col: &[f32], row_stride: usize, geom: &Conv2dGeometry, image: &mut [f32]) {
    let (h, w) = (geom.in_h, geom.in_w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (k, s, pad) = (geom.kernel, geom.stride, geom.padding);
    if h * w == 0 {
        return;
    }
    let (ys, xs) = tap_ranges(geom);
    for row in 0..geom.col_rows() {
        let (c, ky, kx) = (row / (k * k), row / k % k, row % k);
        let xs = &xs[kx];
        if xs.is_empty() {
            continue;
        }
        let ix0 = xs.start * s + kx - pad;
        let src = &col[row * row_stride..row * row_stride + oh * ow];
        let plane = &mut image[c * h * w..(c + 1) * h * w];
        for oy in ys[ky].clone() {
            let dst = &mut plane[(oy * s + ky - pad) * w + ix0..];
            zip_scatter(
                dst,
                &src[oy * ow + xs.start..oy * ow + xs.end],
                s,
                |d, v| *d += v,
            );
        }
    }
}

/// Inverse of [`im2col`]: scatter-add a `[Ci*k*k, Ho*Wo]` matrix back into
/// an image buffer `[Ci, H, W]` (used by the convolution backward pass).
///
/// # Panics
///
/// Panics if `col` or `image` have sizes inconsistent with `geom`.
pub fn col2im(col: &Tensor, geom: &Conv2dGeometry, image: &mut [f32]) {
    let (ci, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    assert_eq!(image.len(), ci * h * w, "col2im image size mismatch");
    assert_eq!(
        col.shape(),
        &[geom.col_rows(), geom.col_cols()],
        "col2im column matrix shape mismatch"
    );
    col2im_add(col.data(), geom.col_cols(), geom, image);
}

/// Transpose a `[C, P]` block to `[P, C]` (channel-last), so depthwise
/// loops run over channels in their innermost, vectorizable loop.
fn channel_last(src: &[f32], channels: usize, positions: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; channels * positions];
    for (c, plane) in src
        .chunks_exact(positions.max(1))
        .enumerate()
        .take(channels)
    {
        for (p, &v) in plane.iter().enumerate() {
            out[p * channels + c] = v;
        }
    }
    out
}

/// Inverse of [`channel_last`]: transpose `[P, C]` into `dst` `[C, P]`.
fn channel_first(src: &[f32], channels: usize, dst: &mut [f32]) {
    let positions = dst.len() / channels.max(1);
    for (c, plane) in dst
        .chunks_exact_mut(positions.max(1))
        .enumerate()
        .take(channels)
    {
        for (p, d) in plane.iter_mut().enumerate() {
            *d = src[p * channels + c];
        }
    }
}

/// Depthwise forward for one image: `out[c, oy, ox] = 0.0 + Σ x·w` over the
/// valid taps in `(ky, kx)` order. `x` is `[C, H, W]`, `weight` `[C, k, k]`,
/// `out` `[C, Ho, Wo]`.
pub(crate) fn depthwise_forward_image(
    x: &[f32],
    weight: &[f32],
    geom: &Conv2dGeometry,
    out: &mut [f32],
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (k, s, pad) = (geom.kernel, geom.stride, geom.padding);
    let (xt, wt) = (channel_last(x, c, h * w), channel_last(weight, c, k * k));
    let mut acc = vec![0.0f32; oh * ow * c];
    for (pos, dst) in acc.chunks_exact_mut(c.max(1)).enumerate() {
        let (oy, ox) = (pos / ow, pos % ow);
        let kxs = taps_for(ox, k, w, s, pad);
        for ky in taps_for(oy, k, h, s, pad) {
            let row = (oy * s + ky - pad) * w + ox * s;
            for kx in kxs.clone() {
                let xv = &xt[(row + kx - pad) * c..(row + kx - pad + 1) * c];
                let wv = &wt[(ky * k + kx) * c..(ky * k + kx + 1) * c];
                for ((d, &xv), &wv) in dst.iter_mut().zip(xv).zip(wv) {
                    *d += xv * wv;
                }
            }
        }
    }
    channel_first(&acc, c, out);
}

/// Depthwise backward for one image, `x` `[C, H, W]`, `grad` `[C, Ho, Wo]`.
/// `dx` (`[C, H, W]`) gets each pixel's contributions and `dw` (`[C, k, k]`)
/// each tap's, both in ascending `(oy, ox)` order. Zero gradients are
/// multiplied through, so `0 × NaN` and `0 × ∞` propagate.
pub(crate) fn depthwise_backward_image(
    x: &[f32],
    weight: &[f32],
    grad: &[f32],
    geom: &Conv2dGeometry,
    dx: &mut [f32],
    dw: &mut [f32],
) {
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (k, s, pad) = (geom.kernel, geom.stride, geom.padding);
    let (xt, wt) = (channel_last(x, c, h * w), channel_last(weight, c, k * k));
    let gt = channel_last(grad, c, oh * ow);
    let (mut dxt, mut dwt) = (vec![0.0f32; h * w * c], vec![0.0f32; k * k * c]);
    for (pos, gv) in gt.chunks_exact(c.max(1)).enumerate() {
        let (oy, ox) = (pos / ow, pos % ow);
        let kxs = taps_for(ox, k, w, s, pad);
        for ky in taps_for(oy, k, h, s, pad) {
            let row = (oy * s + ky - pad) * w + ox * s;
            for kx in kxs.clone() {
                let (i, t) = ((row + kx - pad) * c, (ky * k + kx) * c);
                let wv = &wt[t..t + c];
                for ((d, &g), &wv) in dxt[i..i + c].iter_mut().zip(gv).zip(wv) {
                    *d += g * wv;
                }
                let xv = &xt[i..i + c];
                for ((d, &g), &xv) in dwt[t..t + c].iter_mut().zip(gv).zip(xv) {
                    *d += g * xv;
                }
            }
        }
    }
    channel_first(&dxt, c, dx);
    channel_first(&dwt, c, dw);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn matmul_small_known() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::randn(&[5, 5], 1.0, 1);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            eye.set(&[i, i], 1.0);
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn matmul_propagates_nan_through_zero_entries() {
        // 0 × NaN must yield NaN per IEEE-754; a zero-skip fast path used to
        // silently drop it.
        let a = t(vec![0.0, 0.0], &[1, 2]);
        let b = t(vec![f32::NAN, f32::INFINITY, 1.0, 2.0], &[2, 2]);
        let c = matmul(&a, &b);
        assert!(c.data()[0].is_nan(), "0*NaN row must stay NaN");
        assert!(c.data()[1].is_nan(), "0*inf must stay NaN");

        let at = t(vec![0.0, 0.0], &[2, 1]);
        let cat = matmul_at_b(&at, &b);
        assert!(cat.data()[0].is_nan() && cat.data()[1].is_nan());

        let bt = t(vec![f32::NAN, f32::INFINITY], &[1, 2]);
        let cbt = matmul_a_bt(&a, &bt);
        assert!(cbt.data()[0].is_nan());
    }

    #[test]
    fn gemm_kernels_bit_identical_across_thread_counts() {
        // Big enough to clear PAR_MIN_MACS so the 4-thread run really forks,
        // with m and n off the tile grid so edge tiles are split too.
        let a = Tensor::randn(&[130, 97], 1.0, 21);
        let b = Tensor::randn(&[97, 90], 1.0, 22);
        let at = Tensor::randn(&[97, 130], 1.0, 23);
        let bt = Tensor::randn(&[90, 97], 1.0, 24);
        assert!(130 * 97 * 90 >= PAR_MIN_MACS);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let seq = threadpool::with_threads(1, || {
            (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt))
        });
        for threads in [2usize, 4] {
            let par = threadpool::with_threads(threads, || {
                (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt))
            });
            assert_eq!(bits(&seq.0), bits(&par.0), "matmul threads={threads}");
            assert_eq!(bits(&seq.1), bits(&par.1), "matmul_at_b threads={threads}");
            assert_eq!(bits(&seq.2), bits(&par.2), "matmul_a_bt threads={threads}");
        }
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Tensor::randn(&[4, 6], 1.0, 2);
        let b = Tensor::randn(&[4, 3], 1.0, 3);
        let c = Tensor::randn(&[5, 6], 1.0, 4);
        assert!(matmul_at_b(&a, &b).max_abs_diff(&matmul(&a.transpose(), &b)) < 1e-5);
        assert!(matmul_a_bt(&a, &c).max_abs_diff(&matmul(&a, &c.transpose())) < 1e-5);
    }

    #[test]
    fn geometry_output_dims() {
        let g = Conv2dGeometry {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 2,
            padding: 1,
            in_h: 8,
            in_w: 8,
        };
        assert_eq!((g.out_h(), g.out_w()), (4, 4));
        assert_eq!(g.col_rows(), 27);
        assert_eq!(g.col_cols(), 16);
        assert_eq!(g.macs_per_image(), 8 * 27 * 16);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: im2col is just a reshape.
        let g = Conv2dGeometry {
            in_channels: 2,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
            in_h: 2,
            in_w: 2,
        };
        let img: Vec<f32> = (0..8).map(|x| x as f32).collect();
        let col = im2col(&img, &g);
        assert_eq!(col.shape(), &[2, 4]);
        assert_eq!(col.data(), img.as_slice());
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let g = Conv2dGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_h: 2,
            in_w: 2,
        };
        let img = vec![1.0, 2.0, 3.0, 4.0];
        let col = im2col(&img, &g);
        assert_eq!(col.shape(), &[9, 4]);
        // Top-left kernel tap at output (0,0) reads the padded corner => 0.
        assert_eq!(col.at(&[0, 0]), 0.0);
        // Centre tap reproduces the image.
        assert_eq!(col.at(&[4, 0]), 1.0);
        assert_eq!(col.at(&[4, 3]), 4.0);
    }

    #[test]
    fn conv_via_im2col_matches_naive() {
        let g = Conv2dGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 2,
            padding: 1,
            in_h: 5,
            in_w: 5,
        };
        let img = Tensor::randn(&[2 * 5 * 5], 1.0, 9);
        let w = Tensor::randn(&[3, g.col_rows()], 1.0, 10);
        let col = im2col(img.data(), &g);
        let out = matmul(&w, &col); // [Co, Ho*Wo]

        // naive direct convolution
        let (oh, ow) = (g.out_h(), g.out_w());
        for co in 0..3 {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..2 {
                        for ky in 0..3 {
                            for kx in 0..3 {
                                let iy = (oy * 2 + ky) as isize - 1;
                                let ix = (ox * 2 + kx) as isize - 1;
                                if iy < 0 || ix < 0 || iy >= 5 || ix >= 5 {
                                    continue;
                                }
                                let iv = img.data()[(ci * 5 + iy as usize) * 5 + ix as usize];
                                let wv = w.at(&[co, (ci * 3 + ky) * 3 + kx]);
                                acc += iv * wv;
                            }
                        }
                    }
                    let got = out.at(&[co, oy * ow + ox]);
                    assert!((got - acc).abs() < 1e-4, "mismatch at {co},{oy},{ox}");
                }
            }
        }
    }

    #[test]
    fn col2im_roundtrip_counts_overlaps() {
        // With kernel 1 / stride 1 / no padding col2im must be the exact
        // inverse scatter of im2col.
        let g = Conv2dGeometry {
            in_channels: 2,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
            in_h: 3,
            in_w: 3,
        };
        let img: Vec<f32> = (0..18).map(|x| x as f32).collect();
        let col = im2col(&img, &g);
        let mut back = vec![0.0f32; 18];
        col2im(&col, &g, &mut back);
        assert_eq!(back, img);
    }

    #[test]
    fn col2im_accumulates_overlapping_windows() {
        // kernel 2, stride 1 on a 3-wide row: centre pixel is visited twice.
        let g = Conv2dGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 2,
            stride: 1,
            padding: 0,
            in_h: 2,
            in_w: 3,
        };
        let ones = Tensor::ones(&[g.col_rows(), g.col_cols()]);
        let mut img = vec![0.0f32; 6];
        col2im(&ones, &g, &mut img);
        // Visit counts: corners 1, edge-centres 2 (2x3 input, 2x2 kernel -> 1x2 outputs).
        assert_eq!(img, vec![1.0, 2.0, 1.0, 1.0, 2.0, 1.0]);
    }
}
