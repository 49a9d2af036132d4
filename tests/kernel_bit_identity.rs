//! Kernel bit-identity: the register-tiled GEMM, the batch-lowered conv2d
//! and the branch-free depthwise kernels must reproduce, bit for bit, the
//! naive loops written out below — each output element one chain
//! `0.0 + x₀·y₀ + x₁·y₁ + …` in ascending order, per-image weight
//! gradients reduced in image order — including on edge tiles, `k = 0`,
//! NaN, ±∞, −0.0 and subnormal inputs, at one and two pool lanes.
//!
//! NaN payloads are compared only as "is NaN": Rust leaves the payload of
//! a NaN produced by arithmetic unspecified, so the optimizer may commute
//! the operands of a multiply or add. Every other value compares by bits.

use a3cs::tensor::{matmul, matmul_a_bt, matmul_at_b, Conv2dGeometry, Tape, Tensor};
use proptest::prelude::*;

/// Deterministic value stream: mostly ordinary normals, with NaN, ±∞,
/// ±0.0 and subnormals mixed in at `special_per_mille / 1000`.
struct Values {
    state: u64,
    special_per_mille: u64,
}

impl Values {
    fn new(seed: u64, special_per_mille: u64) -> Self {
        Self {
            state: seed | 1,
            special_per_mille,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next(&mut self) -> f32 {
        const SPECIALS: [f32; 8] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1.0e-40,
            -3.0e-39,
            f32::MIN_POSITIVE,
        ];
        let r = self.next_u64();
        if r % 1000 < self.special_per_mille {
            SPECIALS[(r >> 32) as usize % SPECIALS.len()]
        } else {
            // Uniform in [-2, 2) with a full 24-bit mantissa spread.
            ((r >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        }
    }

    fn tensor(&mut self, shape: &[usize]) -> Tensor {
        let len = shape.iter().product();
        let data = (0..len).map(|_| self.next()).collect();
        Tensor::from_vec(data, shape).expect("length matches shape")
    }
}

/// Bits of every element, with any NaN mapped to one canonical key.
fn key(data: &[f32]) -> Vec<u32> {
    data.iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

/// `C[i][j] = 0.0 + Σ_p a(i, p) · b(p, j)`, `p` ascending, ikj order.
fn naive_gemm(
    m: usize,
    k: usize,
    n: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a(i, p);
            for j in 0..n {
                c[i * n + j] += av * b(p, j);
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tiled_gemm_matches_naive_ikj_bit_for_bit(
        m in 0usize..14,
        k in 0usize..21,
        n in 0usize..22,
        seed in any::<u64>(),
        special in prop::sample::select(vec![0u64, 30, 150]),
    ) {
        let mut vals = Values::new(seed, special);
        let a = vals.tensor(&[m, k]);
        let b = vals.tensor(&[k, n]);
        let at = vals.tensor(&[k, m]);
        let bt = vals.tensor(&[n, k]);
        let (ad, bd, atd, btd) = (a.data(), b.data(), at.data(), bt.data());
        for threads in [1usize, 2] {
            let (ab, atb, abt) = threadpool::with_threads(threads, || {
                (matmul(&a, &b), matmul_at_b(&at, &b), matmul_a_bt(&a, &bt))
            });
            let want = naive_gemm(m, k, n, |i, p| ad[i * k + p], |p, j| bd[p * n + j]);
            prop_assert_eq!(key(ab.data()), key(&want), "matmul m{} k{} n{}", m, k, n);
            let want = naive_gemm(m, k, n, |i, p| atd[p * m + i], |p, j| bd[p * n + j]);
            prop_assert_eq!(key(atb.data()), key(&want), "matmul_at_b m{} k{} n{}", m, k, n);
            let want = naive_gemm(m, k, n, |i, p| ad[i * k + p], |p, j| btd[j * k + p]);
            prop_assert_eq!(key(abt.data()), key(&want), "matmul_a_bt m{} k{} n{}", m, k, n);
        }
    }
}

/// Input index of output position `o` under kernel tap `t`, if inside.
fn tap(o: usize, t: usize, g: &Conv2dGeometry, input: usize) -> Option<usize> {
    (o * g.stride + t)
        .checked_sub(g.padding)
        .filter(|&i| i < input)
}

/// Per-image conv2d as the im2col + GEMM loops it lowers to: forward, and
/// `(dx, dw)` for upstream gradient `gy`.
fn naive_conv2d(
    x: &[f32],
    w: &[f32],
    gy: &[f32],
    n: usize,
    g: &Conv2dGeometry,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (ci, co, k) = (g.in_channels, g.out_channels, g.kernel);
    let (h, wd, oh, ow) = (g.in_h, g.in_w, g.out_h(), g.out_w());
    let (ckk, pix, image_len) = (ci * k * k, oh * ow, ci * h * wd);
    let mut y = vec![0.0f32; n * co * pix];
    let mut dx = vec![0.0f32; n * image_len];
    let mut dw = vec![0.0f32; co * ckk];
    for ni in 0..n {
        let img = &x[ni * image_len..(ni + 1) * image_len];
        let mut col = vec![0.0f32; ckk * pix];
        for c in 0..ci {
            for ky in 0..k {
                for kx in 0..k {
                    let r = (c * k + ky) * k + kx;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            if let (Some(iy), Some(ix)) = (tap(oy, ky, g, h), tap(ox, kx, g, wd)) {
                                col[r * pix + oy * ow + ox] = img[(c * h + iy) * wd + ix];
                            }
                        }
                    }
                }
            }
        }
        let gi = &gy[ni * co * pix..(ni + 1) * co * pix];
        let yi = naive_gemm(co, ckk, pix, |i, p| w[i * ckk + p], |p, j| col[p * pix + j]);
        y[ni * co * pix..(ni + 1) * co * pix].copy_from_slice(&yi);
        let dw_img = naive_gemm(
            co,
            pix,
            ckk,
            |i, p| gi[i * pix + p],
            |p, j| col[j * pix + p],
        );
        for (d, s) in dw.iter_mut().zip(&dw_img) {
            *d += s;
        }
        let dcol = naive_gemm(ckk, co, pix, |i, p| w[p * ckk + i], |p, j| gi[p * pix + j]);
        let dxi = &mut dx[ni * image_len..(ni + 1) * image_len];
        for c in 0..ci {
            for ky in 0..k {
                for kx in 0..k {
                    let r = (c * k + ky) * k + kx;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            if let (Some(iy), Some(ix)) = (tap(oy, ky, g, h), tap(ox, kx, g, wd)) {
                                dxi[(c * h + iy) * wd + ix] += dcol[r * pix + oy * ow + ox];
                            }
                        }
                    }
                }
            }
        }
    }
    (y, dx, dw)
}

/// Per-image depthwise conv: taps outside the image are skipped, every
/// other product (zero gradients included) is accumulated.
fn naive_depthwise(
    x: &[f32],
    w: &[f32],
    gy: &[f32],
    n: usize,
    g: &Conv2dGeometry,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (c, k) = (g.in_channels, g.kernel);
    let (h, wd, oh, ow) = (g.in_h, g.in_w, g.out_h(), g.out_w());
    let mut y = vec![0.0f32; n * c * oh * ow];
    let mut dx = vec![0.0f32; n * c * h * wd];
    let mut dw = vec![0.0f32; c * k * k];
    for ni in 0..n {
        let mut dw_img = vec![0.0f32; c * k * k];
        for ch in 0..c {
            let (ib, ob, wb) = ((ni * c + ch) * h * wd, (ni * c + ch) * oh * ow, ch * k * k);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    let gv = gy[ob + oy * ow + ox];
                    for ky in 0..k {
                        for kx in 0..k {
                            if let (Some(iy), Some(ix)) = (tap(oy, ky, g, h), tap(ox, kx, g, wd)) {
                                let ii = ib + iy * wd + ix;
                                acc += x[ii] * w[wb + ky * k + kx];
                                dx[ii] += gv * w[wb + ky * k + kx];
                                dw_img[wb + ky * k + kx] += gv * x[ii];
                            }
                        }
                    }
                    y[ob + oy * ow + ox] = acc;
                }
            }
        }
        for (d, s) in dw.iter_mut().zip(&dw_img) {
            *d += s;
        }
    }
    (y, dx, dw)
}

/// Run `op` forward and backward (seeded with `gy`) on fresh leaves.
fn run_op(
    x: &Tensor,
    w: &Tensor,
    gy: &Tensor,
    op: impl Fn(&a3cs::tensor::Var, &a3cs::tensor::Var) -> a3cs::tensor::Var,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let tape = Tape::new();
    let (xv, wv) = (tape.leaf(x.clone()), tape.leaf(w.clone()));
    let y = op(&xv, &wv);
    y.backward_with(gy.clone());
    let grad = |v: &a3cs::tensor::Var| v.grad().expect("leaf gets a gradient").data().to_vec();
    (y.value().data().to_vec(), grad(&xv), grad(&wv))
}

fn assert_same(
    got: &(Vec<f32>, Vec<f32>, Vec<f32>),
    want: &(Vec<f32>, Vec<f32>, Vec<f32>),
    what: &str,
) {
    assert_eq!(key(&got.0), key(&want.0), "{what}: forward");
    assert_eq!(key(&got.1), key(&want.1), "{what}: input gradient");
    assert_eq!(key(&got.2), key(&want.2), "{what}: weight gradient");
}

/// `(n, ci, co, k, stride, padding, h, w)` of one conv2d case.
type ConvCase = (usize, usize, usize, usize, usize, usize, usize, usize);

/// Geometries: odd sizes, kernels larger than the padded border, 1×1 taps,
/// and one of each big enough to clear `PAR_MIN_MACS` so the two-lane run
/// really fans out. Depthwise cases drop `co`.
const CONV_CASES: [ConvCase; 7] = [
    (1, 1, 1, 1, 1, 0, 1, 1),
    (2, 3, 5, 3, 1, 1, 5, 7),
    (3, 2, 4, 5, 2, 2, 6, 5),
    (2, 4, 3, 3, 2, 0, 7, 7),
    (3, 5, 9, 5, 1, 2, 3, 3),
    (1, 2, 2, 3, 3, 1, 4, 2),
    (8, 8, 32, 3, 1, 1, 12, 12),
];

const DEPTHWISE_CASES: [(usize, usize, usize, usize, usize, usize, usize); 6] = [
    (1, 1, 1, 1, 0, 1, 1),
    (2, 3, 3, 1, 1, 5, 7),
    (3, 4, 5, 2, 2, 6, 5),
    (2, 5, 3, 2, 0, 7, 7),
    (3, 6, 5, 1, 2, 3, 3),
    (8, 40, 5, 1, 2, 12, 12),
];

#[test]
fn conv2d_matches_naive_per_image_reference_at_one_and_two_lanes() {
    for (case, &(n, ci, co, k, stride, padding, h, w)) in CONV_CASES.iter().enumerate() {
        let geom = Conv2dGeometry {
            in_channels: ci,
            out_channels: co,
            kernel: k,
            stride,
            padding,
            in_h: h,
            in_w: w,
        };
        for special in [0u64, 20] {
            let mut vals = Values::new(0x5eed + case as u64, special);
            let x = vals.tensor(&[n, ci, h, w]);
            let wt = vals.tensor(&[co, ci, k, k]);
            let gy = vals.tensor(&[n, co, geom.out_h(), geom.out_w()]);
            let want = naive_conv2d(x.data(), wt.data(), gy.data(), n, &geom);
            for threads in [1usize, 2] {
                let got = threadpool::with_threads(threads, || {
                    run_op(&x, &wt, &gy, |xv, wv| xv.conv2d(wv, geom))
                });
                assert_same(
                    &got,
                    &want,
                    &format!("conv2d {geom:?} n{n} special{special} threads{threads}"),
                );
            }
        }
    }
}

#[test]
fn depthwise_matches_naive_per_image_reference_at_one_and_two_lanes() {
    for (case, &(n, c, k, stride, padding, h, w)) in DEPTHWISE_CASES.iter().enumerate() {
        let geom = Conv2dGeometry {
            in_channels: c,
            out_channels: c,
            kernel: k,
            stride,
            padding,
            in_h: h,
            in_w: w,
        };
        for special in [0u64, 20] {
            let mut vals = Values::new(0xd00d + case as u64, special);
            let x = vals.tensor(&[n, c, h, w]);
            let wt = vals.tensor(&[c, k, k]);
            let gy = vals.tensor(&[n, c, geom.out_h(), geom.out_w()]);
            let want = naive_depthwise(x.data(), wt.data(), gy.data(), n, &geom);
            for threads in [1usize, 2] {
                let got = threadpool::with_threads(threads, || {
                    run_op(&x, &wt, &gy, |xv, wv| xv.depthwise_conv2d(wv, geom))
                });
                assert_same(
                    &got,
                    &want,
                    &format!("depthwise {geom:?} n{n} special{special} threads{threads}"),
                );
            }
        }
    }
}
