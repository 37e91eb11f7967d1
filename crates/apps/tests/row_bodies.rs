//! Bit-identity of the benchmark rules' row bodies against their per-cell
//! `elem` oracles.
//!
//! Every rule that carries a row body is run twice per case — once as is,
//! once with `row: None` so the executors fall back to `elem` — under
//! `run_global`, `run_tiled` and the device kernel body (through a
//! `BufferTable`), and the outputs must agree bit for bit. Sizes, kernel
//! widths, launch row ranges and local sizes (including non-multiples of 16
//! and partial edge tiles) are randomized.

use petal_apps::blackscholes::{BlackScholes, RATE, VOLATILITY};
use petal_apps::convolution::SeparableConvolution;
use petal_apps::poisson::{Poisson2D, OMEGA};
use petal_core::codegen::{
    encode_scalars, kernel_work, make_kernel_body, run_global, run_tiled, Geometry,
};
use petal_core::stencil::StencilRule;
use petal_gpu::buffer::BufferTable;
use petal_gpu::compile::KernelHandle;
use petal_gpu::device::KernelLaunch;
use proptest::prelude::*;
use std::sync::Arc;

/// One rule invocation: inputs as `(data, cols, rows)`, user scalars and
/// the output shape.
struct Case {
    rule: Arc<StencilRule>,
    inputs: Vec<(Vec<f64>, usize, usize)>,
    scalars: Vec<f64>,
    out_w: usize,
    out_h: usize,
}

/// Deterministic pseudo-random values in `(lo, hi)`, with one in
/// `zero_every` (none when 0) replaced by `-0.0`, so a fold that starts from
/// the wrong signed zero would show.
///
/// Magnitudes spread over eight binades with full 52-bit mantissas, so a
/// reassociated sum or product rounds differently; a signed range takes
/// each sign's magnitude from its own end.
fn values(n: usize, seed: u64, lo: f64, hi: f64, zero_every: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let x = f64::from_bits(((1022 - (s >> 1) % 8) << 52) | (s >> 12));
            if zero_every > 0 && s % zero_every == 0 {
                -0.0
            } else if lo >= 0.0 {
                lo + (hi - lo) * x
            } else if s & 1 == 0 {
                lo * x
            } else {
                hi * x
            }
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Output of every execution path for `rule` over `case`'s inputs, rows
/// `[row0, row1)` at `local_size`: `run_global`, `run_tiled`, and the
/// kernel body's plain and local-memory variants (range-sized output).
fn outputs(
    rule: &Arc<StencilRule>,
    case: &Case,
    row0: usize,
    row1: usize,
    local_size: usize,
) -> Vec<Vec<u64>> {
    let geom = Geometry {
        out_w: case.out_w,
        out_h: case.out_h,
        row0,
        row1,
        in_dims: case.inputs.iter().map(|&(_, w, h)| (w, h)).collect(),
        local_size,
    };
    let raw: Vec<(&[f64], usize, usize)> =
        case.inputs.iter().map(|(d, w, h)| (d.as_slice(), *w, *h)).collect();
    let mut results = Vec::new();
    for run in [run_global, run_tiled] {
        let mut out = vec![f64::NAN; case.out_w * case.out_h];
        run(rule, &raw, &case.scalars, &mut out, &geom);
        results.push(bits(&out[row0 * case.out_w..row1 * case.out_w]));
    }
    for local_memory in [false, true] {
        let mut bufs = BufferTable::new();
        let mut ids: Vec<_> = case
            .inputs
            .iter()
            .map(|(d, _, _)| {
                let id = bufs.alloc(d.len());
                bufs.write(id, d).unwrap();
                id
            })
            .collect();
        let out_id = bufs.alloc(case.out_w * (row1 - row0));
        ids.push(out_id);
        let launch = KernelLaunch {
            kernel: KernelHandle::from_raw(0),
            buffers: ids,
            scalars: encode_scalars(&geom, &case.scalars),
            work: kernel_work(rule, &geom, local_memory),
        };
        make_kernel_body(Arc::clone(rule), local_memory).execute(&mut bufs, &launch).unwrap();
        results.push(bits(bufs.get(out_id).unwrap().data()));
    }
    results
}

/// Every path with the row body must match the same path with `elem`.
fn assert_row_matches_elem(case: &Case, row0: usize, row1: usize, local_size: usize) {
    assert!(case.rule.row.is_some(), "{} has a row body", case.rule.name);
    let oracle = Arc::new(StencilRule { row: None, ..(*case.rule).clone() });
    let want = outputs(&oracle, case, row0, row1, local_size);
    let got = outputs(&case.rule, case, row0, row1, local_size);
    for (path, (w, g)) in
        ["run_global", "run_tiled", "kernel", "kernel_localmem"].iter().zip(want.iter().zip(&got))
    {
        assert_eq!(w, g, "{} row body differs from elem under {path}", case.rule.name);
    }
}

/// Pick `[row0, row1)` inside `[0, out_h)`, never empty.
fn row_range(out_h: usize, a: f64, b: f64) -> (usize, usize) {
    let row0 = ((out_h as f64 * a) as usize).min(out_h - 1);
    let row1 = row0 + 1 + ((out_h - row0 - 1) as f64 * b) as usize;
    (row0, row1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn convolution_row_bodies_match_elem(
        half_k in 1usize..9,
        extra_w in 0usize..40,
        extra_h in 0usize..30,
        seed in 0u64..1_000_000,
        zero_every in 1u64..4,
        local_size in 1usize..300,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let k = 2 * half_k + 1;
        let (in_w, in_h) = (k + extra_w, k + extra_h);
        // Positive coefficients (as in the benchmark's triangle kernel) keep
        // the sign of a -0.0 input through every product.
        let input = (values(in_w * in_h, seed, -50.0, 50.0, zero_every), in_w, in_h);
        let coef = (values(k, seed + 1, 0.01, 1.0, 0), k, 1);
        let cases = [
            (SeparableConvolution::rule_2d(k), in_w - k + 1, in_h - k + 1),
            (SeparableConvolution::rule_rows(k), in_w - k + 1, in_h),
            (SeparableConvolution::rule_cols(k), in_w, in_h - k + 1),
        ];
        for (rule, out_w, out_h) in cases {
            let case = Case {
                rule,
                inputs: vec![input.clone(), coef.clone()],
                scalars: vec![k as f64],
                out_w,
                out_h,
            };
            let (row0, row1) = row_range(out_h, a, b);
            assert_row_matches_elem(&case, row0, row1, local_size);
        }
    }

    #[test]
    fn poisson_row_bodies_match_elem(
        n in 4usize..40,
        color in 0usize..2,
        seed in 0u64..1_000_000,
        local_size in 1usize..300,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let grid = |s| (values(n * n, s, -1.0, 1.0, 4), n, n);
        let h2 = 1.0 / ((n - 1) as f64 * (n - 1) as f64);
        let cases = [
            (Poisson2D::rule_split(), vec![grid(seed)], vec![color as f64]),
            (
                Poisson2D::rule_sweep(),
                vec![grid(seed), grid(seed + 1), grid(seed + 2)],
                vec![color as f64, OMEGA, h2],
            ),
            (Poisson2D::rule_combine(), vec![grid(seed), grid(seed + 1)], vec![]),
        ];
        let (row0, row1) = row_range(n, a, b);
        for (rule, inputs, scalars) in cases {
            let case = Case { rule, inputs, scalars, out_w: n, out_h: n };
            assert_row_matches_elem(&case, row0, row1, local_size);
        }
    }

    #[test]
    fn black_scholes_row_body_matches_elem(
        rows in 1usize..20,
        cols in 1usize..80,
        seed in 0u64..1_000_000,
        local_size in 1usize..300,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let n = rows * cols;
        let case = Case {
            rule: BlackScholes::rule(),
            inputs: vec![
                (values(n, seed, 5.0, 30.0, 0), cols, rows),
                (values(n, seed + 1, 1.0, 100.0, 0), cols, rows),
                (values(n, seed + 2, 0.25, 10.0, 0), cols, rows),
            ],
            scalars: vec![RATE, VOLATILITY],
            out_w: cols,
            out_h: rows,
        };
        let (row0, row1) = row_range(rows, a, b);
        assert_row_matches_elem(&case, row0, row1, local_size);
    }
}
