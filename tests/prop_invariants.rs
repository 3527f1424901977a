//! Property-based invariants across crates (proptest).

use coastal::grid::SigmaCoords;
use coastal::tensor::autograd::Graph;
use coastal::tensor::backend::{self, Backend, Blocked, ScalarRef};
use coastal::tensor::f16::F16;
use coastal::tensor::init::randn;
use coastal::tensor::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Run `f` once under the `ScalarRef` oracle and once under `Blocked` with
/// `par_threshold = 1` (forcing the rayon/blocked code paths even on
/// test-sized tensors), returning `(reference, fast)`.
fn under_both<T>(f: impl Fn() -> T) -> (T, T) {
    let reference = {
        let _g = backend::scoped(Arc::new(ScalarRef) as Arc<dyn Backend>);
        f()
    };
    let fast = {
        let _g = backend::scoped(Arc::new(Blocked::new(1)) as Arc<dyn Backend>);
        f()
    };
    (reference, fast)
}

proptest! {
    /// f16 roundtrip error is within half-ULP of the 11-bit significand.
    #[test]
    fn f16_roundtrip_error_bounded(v in -60000.0f32..60000.0) {
        let r = F16::from_f32(v).to_f32();
        let tol = (v.abs() / 1024.0).max(6e-8);
        prop_assert!((r - v).abs() <= tol, "{v} -> {r}");
    }

    /// Sigma layer thicknesses always sum to the total water depth.
    #[test]
    fn sigma_thickness_partition(
        nz in 1usize..20,
        theta_s in 0.0f64..6.0,
        theta_b in 0.0f64..0.95,
        h in 0.5f64..40.0,
        zeta in -0.4f64..0.9,
    ) {
        let s = SigmaCoords::new(nz, theta_s, theta_b);
        let total: f64 = s.thicknesses(h, zeta).iter().sum();
        prop_assert!((total - (h + zeta)).abs() < 1e-9 * (1.0 + h));
        for k in 0..nz {
            prop_assert!(s.dz(k, h, zeta) > 0.0, "layer {k} must have positive thickness");
        }
    }

    /// The tabulated stretching is bitwise the untabulated formula:
    /// `z_w` equals `zeta + (zeta + h)·C(s_w(k))` and `dz` its difference
    /// across the layer, for every interface and layer.
    #[test]
    fn sigma_table_matches_formula_bitwise(
        nz in 1usize..20,
        theta_s in 0.0f64..6.0,
        theta_b in 0.0f64..0.95,
        k in 0usize..20,
        h in 0.5f64..40.0,
        zeta in -0.4f64..0.9,
    ) {
        let s = SigmaCoords::new(nz, theta_s, theta_b);
        let k = k % (nz + 1);
        let z = |k: usize| zeta + (zeta + h) * s.c_of_s(s.s_w(k));
        prop_assert_eq!(s.z_w(k, h, zeta).to_bits(), z(k).to_bits());
        if k < nz {
            prop_assert_eq!(s.dz(k, h, zeta).to_bits(), (z(k + 1) - z(k)).to_bits());
        }
    }

    /// roll is inverted by the opposite shift for any shape/shift.
    #[test]
    fn tensor_roll_inverse(
        ny in 1usize..6,
        nx in 1usize..6,
        sj in -7isize..7,
        si in -7isize..7,
    ) {
        let n = ny * nx;
        let t = Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[ny, nx]);
        let back = t.roll(&[sj, si]).roll(&[-sj, -si]);
        prop_assert_eq!(back.as_slice(), t.as_slice());
    }

    /// pad then narrow recovers the original tensor.
    #[test]
    fn tensor_pad_narrow_roundtrip(
        ny in 1usize..5,
        nx in 1usize..5,
        before in 0usize..3,
        after in 0usize..3,
    ) {
        let n = ny * nx;
        let t = Tensor::from_vec((0..n).map(|i| i as f32 * 0.5).collect(), &[ny, nx]);
        let p = t.pad(&[(before, after), (after, before)]);
        let back = p.narrow(0, before, ny).narrow(1, after, nx);
        prop_assert_eq!(back.as_slice(), t.as_slice());
    }

    /// Broadcast sum_to is the exact adjoint of broadcast_to.
    #[test]
    fn broadcast_adjoint(b in 1usize..4, n in 1usize..5) {
        let t = Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n]);
        let big = t.broadcast_to(&[b, n]);
        let back = big.sum_to(&[n]);
        for (x, y) in back.as_slice().iter().zip(t.as_slice()) {
            prop_assert!((x - y * b as f32).abs() < 1e-5);
        }
    }

    /// Blocked matmul ≡ ScalarRef over randomized broadcast batch shapes.
    #[test]
    fn backend_parity_matmul(
        b in 1usize..4,
        m in 1usize..10,
        k in 1usize..13,
        n in 1usize..10,
        mode in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // mode selects which operand carries the batch dim (the other
        // broadcasts over it).
        let (sa, sb) = match mode {
            0 => (vec![b, m, k], vec![b, k, n]),
            1 => (vec![b, m, k], vec![k, n]),
            _ => (vec![m, k], vec![b, k, n]),
        };
        let a = randn(&sa, 1.0, &mut rng);
        let c = randn(&sb, 1.0, &mut rng);
        let (reference, fast) = under_both(|| a.matmul(&c));
        prop_assert_eq!(reference.shape(), fast.shape());
        let d = reference.max_abs_diff(&fast);
        prop_assert!(d < 1e-4, "matmul {sa:?} @ {sb:?}: max diff {d}");
    }

    /// Blocked fused-bias matmul ≡ ScalarRef.
    #[test]
    fn backend_parity_matmul_bias(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn(&[m, k], 1.0, &mut rng);
        let w = randn(&[k, n], 1.0, &mut rng);
        let bias = randn(&[n], 1.0, &mut rng);
        let (reference, fast) = under_both(|| a.matmul_bias(&w, &bias));
        let d = reference.max_abs_diff(&fast);
        prop_assert!(d < 1e-4, "matmul_bias {m}x{k}x{n}: max diff {d}");
    }

    /// Blocked row softmax ≡ ScalarRef, and rows stay normalized.
    #[test]
    fn backend_parity_softmax(
        rows in 1usize..8,
        cols in 1usize..33,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn(&[rows, cols], 3.0, &mut rng);
        let (reference, fast) = under_both(|| x.softmax_last());
        let d = reference.max_abs_diff(&fast);
        prop_assert!(d < 1e-4, "softmax {rows}x{cols}: max diff {d}");
        for row in fast.as_slice().chunks(cols) {
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row sums to {s}");
        }
    }

    /// Blocked reductions (full and per-axis) ≡ ScalarRef.
    #[test]
    fn backend_parity_reductions(
        d0 in 1usize..6,
        d1 in 1usize..6,
        d2 in 1usize..6,
        axis in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn(&[d0, d1, d2], 1.0, &mut rng);
        let (s_ref, s_fast) = under_both(|| x.sum_all());
        prop_assert!((s_ref - s_fast).abs() < 1e-4 * (1.0 + s_ref.abs()));
        let (a_ref, a_fast) = under_both(|| x.sum_axes_keepdims(&[axis]));
        let d = a_ref.max_abs_diff(&a_fast);
        prop_assert!(d < 1e-4, "sum over axis {axis}: max diff {d}");
        let (m_ref, m_fast) = under_both(|| x.mean_all());
        prop_assert!((m_ref - m_fast).abs() < 1e-4);
    }

    /// Blocked fused attention (inference path) ≡ ScalarRef, with and
    /// without a shifted-window additive mask.
    #[test]
    fn backend_parity_attention(
        b in 1usize..3,
        h in 1usize..3,
        n in 1usize..10,
        d in 1usize..8,
        masked in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = randn(&[b, h, n, d], 1.0, &mut rng);
        let k = randn(&[b, h, n, d], 1.0, &mut rng);
        let v = randn(&[b, h, n, d], 1.0, &mut rng);
        // One window whose mask forbids a pseudo-random ~15% of pairs.
        let mask = (masked == 1).then(|| {
            let raw = randn(&[1, n, n], 1.0, &mut rng);
            Tensor::from_vec(
                raw.as_slice().iter().map(|&x| if x > 1.0 { -1e9 } else { 0.0 }).collect(),
                &[1, n, n],
            )
        });
        let run = || {
            let mut g = Graph::inference();
            let qv = g.constant(q.clone());
            let kv = g.constant(k.clone());
            let vv = g.constant(v.clone());
            let o = g.attention(qv, kv, vv, mask.as_ref(), 1.0 / (d as f32).sqrt());
            g.value(o).clone()
        };
        let (reference, fast) = under_both(run);
        let diff = reference.max_abs_diff(&fast);
        prop_assert!(diff < 1e-4, "attention b={b} h={h} n={n} d={d}: max diff {diff}");
    }

    /// Elementwise chains (unary + broadcast binary) agree across backends.
    #[test]
    fn backend_parity_elementwise(
        r in 1usize..6,
        c in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn(&[r, c], 1.0, &mut rng);
        let row = randn(&[c], 1.0, &mut rng);
        // `mul` with a [c] row against [r, c] exercises the strided
        // broadcast kernel, not just the equal-shape fast path.
        let (reference, fast) = under_both(|| x.gelu().mul(&row).add(&x).tanh());
        let d = reference.max_abs_diff(&fast);
        prop_assert!(d < 1e-4, "elementwise chain: max diff {d}");
    }

    /// SIMD elementwise kernels agree across backends on ragged,
    /// non-lane-multiple lengths (the vector tail is where lane kernels
    /// go wrong first), including lengths straddling the fixed parallel
    /// chunk size.
    #[test]
    fn backend_parity_ragged_tails(
        chunks in 0usize..3,
        tail in 0usize..9,
        seed in 0u64..1_000_000,
    ) {
        // 4096 is Blocked's fixed SIMD chunk; ±tail lands on every
        // remainder class mod the 8-wide lanes.
        let len = (chunks * 4096 + tail).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn(&[len], 2.0, &mut rng);
        let (reference, fast) = under_both(|| (x.gelu().tanh(), x.exp().sum_all()));
        let d = reference.0.max_abs_diff(&fast.0);
        prop_assert!(d < 1e-4, "len {len}: max diff {d}");
        let (sr, sf) = (reference.1, fast.1);
        prop_assert!((sr - sf).abs() < 1e-3 * (1.0 + sr.abs()), "sum {sr} vs {sf}");
    }

    /// NaN and infinity placed at an arbitrary offset propagate
    /// identically through the SIMD and scalar elementwise paths: NaN
    /// stays NaN, infinities keep their saturation semantics, and no
    /// neighboring lane element is contaminated.
    #[test]
    fn backend_parity_nonfinite_propagation(
        len in 1usize..200,
        at in 0usize..200,
        kind in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = randn(&[len], 1.5, &mut rng).as_slice().to_vec();
        let at = at % len;
        data[at] = match kind {
            0 => f32::NAN,
            1 => f32::INFINITY,
            _ => f32::NEG_INFINITY,
        };
        let x = Tensor::from_vec(data, &[len]);
        for (name, out) in [
            ("exp", under_both(|| x.exp())),
            ("tanh", under_both(|| x.tanh())),
            ("gelu", under_both(|| x.gelu())),
        ] {
            let (reference, fast) = out;
            for (i, (&r, &f)) in reference
                .as_slice()
                .iter()
                .zip(fast.as_slice())
                .enumerate()
            {
                if r.is_nan() {
                    prop_assert!(f.is_nan(), "{name}[{i}]: scalar NaN, simd {f}");
                } else {
                    prop_assert!(
                        (f - r).abs() <= 1e-5 * (1.0 + r.abs()) || f == r,
                        "{name}[{i}]: scalar {r}, simd {f}"
                    );
                }
            }
        }
    }
}

/// Empty and length-1 tensors survive every SIMD-dispatched op without
/// panicking, under both backends (degenerate shapes are where tail
/// handling divides by zero or slices out of bounds).
#[test]
fn backend_degenerate_shapes() {
    for len in [0usize, 1] {
        let x = Tensor::from_vec(vec![0.75; len], &[len]);
        let (r, f) = under_both(|| (x.gelu(), x.exp(), x.tanh(), x.sum_all()));
        assert_eq!(r.0.as_slice(), f.0.as_slice());
        assert_eq!(r.1.as_slice(), f.1.as_slice());
        assert_eq!(r.2.as_slice(), f.2.as_slice());
        assert!((r.3 - f.3).abs() < 1e-6);
    }
    // 1x1 matmul / softmax / attention-adjacent shapes.
    let a = Tensor::from_vec(vec![3.0], &[1, 1]);
    let b = Tensor::from_vec(vec![-2.0], &[1, 1]);
    let (r, f) = under_both(|| (a.matmul(&b), a.softmax_last()));
    assert_eq!(r.0.as_slice(), f.0.as_slice());
    assert_eq!(r.1.as_slice(), &[1.0]);
    assert_eq!(f.1.as_slice(), &[1.0]);
}

/// Parallel matmul under `Blocked` is bitwise identical at 1, 2, 4 and 8
/// rayon threads: the row partition never changes per-element
/// accumulation order (Blocked v2's determinism contract).
#[test]
fn matmul_thread_count_bitwise_invariance() {
    let mut rng = StdRng::seed_from_u64(417);
    let a = randn(&[3, 57, 43], 1.0, &mut rng);
    let b = randn(&[3, 43, 39], 1.0, &mut rng);
    let run = || {
        let _g = backend::scoped(Arc::new(Blocked::new(1)) as Arc<dyn Backend>);
        a.matmul(&b)
    };
    let mut reference: Option<Vec<u32>> = None;
    for threads in [1usize, 2, 4, 8] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("thread pool override");
        let bits: Vec<u32> = run().as_slice().iter().map(|v| v.to_bits()).collect();
        match &reference {
            None => reference = Some(bits),
            Some(want) => assert_eq!(
                &bits, want,
                "matmul output bits changed at {threads} threads"
            ),
        }
    }
    rayon::ThreadPoolBuilder::new()
        .build_global()
        .expect("restore thread pool default");
}
