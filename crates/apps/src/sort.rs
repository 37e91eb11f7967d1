//! The Sort benchmark (§6.2, Fig. 7d).
//!
//! "The benchmark includes 7 sorting algorithms: merge sort, parallel merge
//! sort, quick sort, insertion sort, selection sort, radix sort, and
//! bitonic sort ... The configuration defines a poly-algorithm that
//! combines these sort building blocks together into a hybrid sorting
//! algorithm." The `sort` selector is consulted at every recursive call
//! site with the *current region size*, so tuned configurations look like
//! Fig. 6's "2MS (PM) above 174762, then QS until 64294, then 4MS until
//! 341, then IS".
//!
//! Selector values: 0 = insertion, 1 = selection, 2 = quicksort,
//! 3 = radix, 4 = 2-way merge sort, 5 = 4-way merge sort, 6 = bitonic
//! (CPU); with OpenCL available, 7 = bitonic sort as a chain of OpenCL
//! kernels (the paper's hand-written *GPU-only Config* baseline). Merge
//! sorts switch to a two-task *parallel merge* (PM) above the
//! `merge_parallel_cutoff` tunable.

use crate::workload::random_vec;
use crate::{cached, Instance};
use petal_blas::Matrix;
use petal_core::plan::{NativeStep, Placement, PlanBuilder, StencilStep};
use petal_core::program::ChoiceSite;
use petal_core::stencil::{AccessPattern, StencilInput, StencilRule};
use petal_core::{Config, MatrixId, Program, World};
use petal_gpu::cost::CpuWork;
use petal_gpu::profile::MachineProfile;
use petal_rt::{Charge, CpuCtx};
use std::sync::Arc;

/// Everything a recursive sort task needs.
#[derive(Clone)]
struct SortParams {
    cfg: Arc<Config>,
    data: MatrixId,
    scratch: MatrixId,
    lo: usize,
    hi: usize,
}

/// The Sort benchmark over `n` doubles.
#[derive(Debug, Clone)]
pub struct Sort {
    n: usize,
}

impl Sort {
    /// New instance (the paper uses n = 2²⁰).
    ///
    /// # Panics
    /// Panics when `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "empty input");
        Sort { n }
    }

    /// One bitonic compare-exchange pass (`scalars = [j, k]`).
    fn rule_bitonic() -> Arc<StencilRule> {
        Arc::new(StencilRule {
            name: "bitonic_pass".into(),
            inputs: vec![StencilInput { index: 0, access: AccessPattern::Gather }],
            flops_per_output: 4.0,
            body_c: "int j = (int)user_scalars[0];\n\
                     int k = (int)user_scalars[1];\n\
                     int partner = x ^ j;\n\
                     double a = IN0(x, 0), b = IN0(partner, 0);\n\
                     int asc = ((x & k) == 0);\n\
                     int keep_small = (x < partner) == (asc != 0);\n\
                     result = keep_small ? fmin(a, b) : fmax(a, b);"
                .into(),
            elem: Arc::new(|env, x, _y| {
                let j = env.scalars[0] as usize;
                let k = env.scalars[1] as usize;
                let partner = x ^ j;
                let a = env.inputs[0].at(x, 0);
                let b = env.inputs[0].at(partner, 0);
                let asc = (x & k) == 0;
                let keep_small = (x < partner) == asc;
                if keep_small {
                    a.min(b)
                } else {
                    a.max(b)
                }
            }),
            native_only_body: false,
        })
    }
}

impl crate::Benchmark for Sort {
    fn name(&self) -> &str {
        "Sort"
    }

    fn spec(&self) -> String {
        format!("sort n={}", self.n)
    }

    fn input_size(&self) -> u64 {
        self.n as u64
    }

    fn resized(&self, size: u64) -> Option<Box<dyn crate::Benchmark>> {
        (size >= 16).then(|| Box::new(Sort::new(size as usize)) as Box<dyn crate::Benchmark>)
    }

    fn program(&self, _machine: &MachineProfile) -> Program {
        let mut p = Program::new("sort");
        p.add_site(ChoiceSite {
            name: "sort".into(),
            num_algs: 7,
            opencl: true,
            local_memory_variant: false,
            // The bitonic chain always runs whole stages on the device; no
            // fractional CPU/GPU split exists, so emitting `sort.gpu_ratio`
            // would be a dead tunable (petal-verify finding, fixed).
            fractional: false,
        });
        p.add_tunable("merge_parallel_cutoff", 1 << 15, 16, 1 << 24);
        p
    }

    fn dynamic_config_keys(&self) -> Vec<String> {
        // The CPU path is one opaque native step whose closure re-reads the
        // `sort` selector and the merge cutoff at every recursion level;
        // varying them changes behaviour without changing plan structure.
        vec!["sort".into(), "merge_parallel_cutoff".into()]
    }

    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let n = self.n;
        let inputs = cached(&self.spec(), || {
            let values = random_vec(n, -1e6, 1e6, 71);
            let mut expected = values.clone();
            expected.sort_by(f64::total_cmp);
            (Arc::new(Matrix::from_vec(1, n, values)), expected)
        });
        let mut world = World::new();
        let data = world.alloc_shared(Arc::clone(&inputs.0));
        let mut p = PlanBuilder::new();

        let top_choice = cfg.select("sort", n as u64);
        if top_choice == 7 && machine.has_opencl() {
            build_gpu_bitonic(&mut p, &mut world, machine, cfg, data, n);
        } else {
            let scratch = world.alloc(Matrix::zeros(1, n));
            let params = SortParams { cfg: Arc::new(cfg.clone()), data, scratch, lo: 0, hi: n };
            p.native(
                NativeStep {
                    label: "sort_root".into(),
                    reads: vec![data],
                    writes: vec![data],
                    run: Box::new(move |w: &mut World, ctx| sort_step(w, ctx, &params)),
                },
                &[],
            );
        }
        p.mark_output(data);

        let check = Box::new(move |w: &World| -> Result<(), String> {
            let (got, expected) = (w.get(data).as_slice(), &inputs.1);
            if got.len() != expected.len() {
                return Err("length changed".into());
            }
            for (i, (g, e)) in got.iter().zip(expected).enumerate() {
                if g != e {
                    return Err(format!("index {i}: got {g}, want {e}"));
                }
            }
            Ok(())
        });
        Instance { world, plan: p.build(), check }
    }
}

// ---------------------------------------------------------------------------
// Recursive CPU poly-algorithm
// ---------------------------------------------------------------------------

/// One sort task: consult the selector for this region size, run a leaf in
/// place or spawn children plus a continuation (the Cilk-style pattern the
/// runtime's task model exists for).
fn sort_step(w: &mut World, ctx: &mut CpuCtx<World>, params: &SortParams) -> Charge {
    let SortParams { cfg, data, scratch: _, lo, hi } = params.clone();
    let m = hi - lo;
    if m <= 1 {
        return Charge::Work(CpuWork::new(1.0, 16.0));
    }
    // GPU bitonic (7) is only available at the top level; recursive call
    // sites degrade it to the CPU bitonic.
    let choice = cfg.select("sort", m as u64).min(6);
    match choice {
        1 => {
            let slice = region_mut(w, data, lo, hi);
            selection_sort(slice);
            Charge::Work(CpuWork::new(0.6 * (m * m) as f64, (m * 8) as f64))
        }
        2 if m >= 8 => {
            let slice = region_mut(w, data, lo, hi);
            let split = lo + partition(slice);
            let left = SortParams { lo, hi: split, ..params.clone() };
            let right = SortParams { lo: split + 1, hi, ..params.clone() };
            let c1 = ctx.spawn_cpu(move |w, ctx| sort_step(w, ctx, &left));
            let c2 = ctx.spawn_cpu(move |w, ctx| sort_step(w, ctx, &right));
            let join = ctx.spawn_cpu(|_, _| Charge::Work(CpuWork::new(1.0, 0.0)));
            ctx.depend(join, c1);
            ctx.depend(join, c2);
            ctx.set_continuation(join);
            Charge::Work(CpuWork::new(3.0 * m as f64, (m * 8) as f64))
        }
        3 => {
            let slice = region_mut(w, data, lo, hi);
            radix_sort(slice);
            Charge::Work(CpuWork::new(18.0 * m as f64, (m * 8 * 10) as f64))
        }
        4 | 5 if m >= 8 => {
            let ways = if choice == 4 { 2 } else { 4 };
            let mut children = Vec::with_capacity(ways);
            let mut bounds = Vec::with_capacity(ways + 1);
            for i in 0..=ways {
                bounds.push(lo + m * i / ways);
            }
            for i in 0..ways {
                let child = SortParams { lo: bounds[i], hi: bounds[i + 1], ..params.clone() };
                children.push(ctx.spawn_cpu(move |w, ctx| sort_step(w, ctx, &child)));
            }
            let merge_params = params.clone();
            let merge = ctx.spawn_cpu(move |w, ctx| merge_step(w, ctx, &merge_params, ways));
            for c in children {
                ctx.depend(merge, c);
            }
            ctx.set_continuation(merge);
            Charge::Work(CpuWork::new(2.0 * m as f64, 64.0))
        }
        6 => {
            let slice = region_mut(w, data, lo, hi);
            bitonic_sort_cpu(slice);
            let logn = (m as f64).log2().ceil().max(1.0);
            Charge::Work(CpuWork::new(2.0 * m as f64 * logn * logn, (m * 16) as f64))
        }
        _ => {
            // Insertion sort (and the base case for tiny quick/merge regions).
            let slice = region_mut(w, data, lo, hi);
            insertion_sort(slice);
            Charge::Work(CpuWork::new(0.3 * (m * m) as f64, (m * 8) as f64))
        }
    }
}

/// Merge `ways` sorted runs of `[lo, hi)`. Above the parallel-merge cutoff
/// a 2-way merge splits into two co-ranked half-merges (the paper's "PM").
fn merge_step(w: &mut World, ctx: &mut CpuCtx<World>, params: &SortParams, ways: usize) -> Charge {
    let SortParams { cfg, data, scratch, lo, hi } = params.clone();
    let m = hi - lo;
    let pm_cutoff = cfg.tunable_or("merge_parallel_cutoff", 1 << 15).max(16) as usize;
    if ways == 2 && m >= pm_cutoff {
        // Parallel merge: split the output range at its midpoint via
        // co-ranking, merge the two output halves as independent tasks.
        let mid = lo + m / 2;
        let p1 = params.clone();
        let t1 = ctx.spawn_cpu(move |w, _| half_merge(w, &p1, mid, true));
        let p2 = params.clone();
        let t2 = ctx.spawn_cpu(move |w, _| half_merge(w, &p2, mid, false));
        let copyback = ctx.spawn_cpu(move |w, _| {
            let merged = w.get(scratch).as_slice()[lo..hi].to_vec();
            region_mut(w, data, lo, hi).copy_from_slice(&merged);
            Charge::Work(CpuWork::new(m as f64, (m * 16) as f64))
        });
        ctx.depend(copyback, t1);
        ctx.depend(copyback, t2);
        ctx.set_continuation(copyback);
        return Charge::Work(CpuWork::new(64.0, 64.0));
    }
    // Sequential k-way merge through the scratch buffer.
    let mut bounds = Vec::with_capacity(ways + 1);
    for i in 0..=ways {
        bounds.push(lo + m * i / ways);
    }
    let runs: Vec<Vec<f64>> =
        bounds.windows(2).map(|wd| w.get(data).as_slice()[wd[0]..wd[1]].to_vec()).collect();
    let mut cursors = vec![0usize; ways];
    let out = region_mut(w, data, lo, hi);
    for slot in out.iter_mut() {
        let mut best: Option<(usize, f64)> = None;
        for (r, run) in runs.iter().enumerate() {
            if cursors[r] < run.len() {
                let v = run[cursors[r]];
                if best.map_or(true, |(_, bv)| v < bv) {
                    best = Some((r, v));
                }
            }
        }
        let (r, v) = best.expect("total length preserved");
        cursors[r] += 1;
        *slot = v;
    }
    Charge::Work(CpuWork::new((ways * m) as f64, (m * 8 * 3) as f64))
}

/// Merge one half of the output range `[lo, hi)` into the scratch buffer.
fn half_merge(w: &mut World, params: &SortParams, mid_src: usize, lower: bool) -> Charge {
    let SortParams { data, scratch, lo, hi, .. } = params.clone();
    let m = hi - lo;
    let a: Vec<f64> = w.get(data).as_slice()[lo..mid_src].to_vec();
    let b: Vec<f64> = w.get(data).as_slice()[mid_src..hi].to_vec();
    let out_mid = m / 2;
    let (i0, j0, take) = if lower {
        let (i, j) = co_rank(out_mid, &a, &b);
        // Lower half merges the first `out_mid` outputs starting from (0,0)
        // — but computing the co-rank here validates the split.
        debug_assert_eq!(i + j, out_mid);
        (0, 0, out_mid)
    } else {
        let (i, j) = co_rank(out_mid, &a, &b);
        (i, j, m - out_mid)
    };
    let mut i = i0;
    let mut j = j0;
    let offset = if lower { 0 } else { out_mid };
    let out = region_mut(w, scratch, lo, hi);
    for t in 0..take {
        let v = if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        out[offset + t] = v;
    }
    Charge::Work(CpuWork::new(take as f64 * 2.0, (take * 24) as f64))
}

/// Co-ranking: find `(i, j)` with `i + j = k` splitting the merge of `a`
/// and `b` at output position `k`.
fn co_rank(k: usize, a: &[f64], b: &[f64]) -> (usize, usize) {
    let mut i = k.min(a.len());
    let mut j = k - i;
    let mut i_low = k.saturating_sub(b.len());
    loop {
        if i > 0 && j < b.len() && a[i - 1] > b[j] {
            let delta = (i - i_low).div_ceil(2);
            i -= delta;
            j += delta;
        } else if j > 0 && i < a.len() && b[j - 1] > a[i] {
            let delta = (k.min(a.len()) - i).div_ceil(2).max(1);
            i_low = i;
            i += delta.min(k.min(a.len()) - i);
            j = k - i;
        } else {
            return (i, j);
        }
    }
}

/// Mutable view of `data[lo..hi]`.
fn region_mut(w: &mut World, id: MatrixId, lo: usize, hi: usize) -> &mut [f64] {
    &mut w.get_mut(id).as_mut_slice()[lo..hi]
}

fn insertion_sort(a: &mut [f64]) {
    for i in 1..a.len() {
        let v = a[i];
        let mut j = i;
        while j > 0 && a[j - 1] > v {
            a[j] = a[j - 1];
            j -= 1;
        }
        a[j] = v;
    }
}

fn selection_sort(a: &mut [f64]) {
    for i in 0..a.len() {
        let mut min = i;
        for j in i + 1..a.len() {
            if a[j] < a[min] {
                min = j;
            }
        }
        a.swap(i, min);
    }
}

/// Lomuto partition with median-of-three pivot; returns the pivot index.
fn partition(a: &mut [f64]) -> usize {
    let n = a.len();
    let mid = n / 2;
    // Median-of-three to the end.
    if a[0] > a[mid] {
        a.swap(0, mid);
    }
    if a[0] > a[n - 1] {
        a.swap(0, n - 1);
    }
    if a[mid] > a[n - 1] {
        a.swap(mid, n - 1);
    }
    a.swap(mid, n - 1);
    let pivot = a[n - 1];
    let mut store = 0;
    for i in 0..n - 1 {
        if a[i] < pivot {
            a.swap(i, store);
            store += 1;
        }
    }
    a.swap(store, n - 1);
    store
}

/// LSD radix sort on the order-preserving `u64` image of `f64`.
fn radix_sort(a: &mut [f64]) {
    fn key(x: f64) -> u64 {
        let bits = x.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits ^ (1 << 63)
        }
    }
    let mut keys: Vec<(u64, f64)> = a.iter().map(|&x| (key(x), x)).collect();
    let mut buf = vec![(0u64, 0.0f64); keys.len()];
    for pass in 0..8 {
        let shift = pass * 8;
        let mut counts = [0usize; 256];
        for &(k, _) in &keys {
            counts[((k >> shift) & 0xff) as usize] += 1;
        }
        let mut pos = [0usize; 256];
        let mut acc = 0;
        for (b, c) in counts.iter().enumerate() {
            pos[b] = acc;
            acc += c;
        }
        for &(k, v) in &keys {
            let b = ((k >> shift) & 0xff) as usize;
            buf[pos[b]] = (k, v);
            pos[b] += 1;
        }
        std::mem::swap(&mut keys, &mut buf);
    }
    for (slot, (_, v)) in a.iter_mut().zip(keys) {
        *slot = v;
    }
}

/// In-place sequential bitonic sort (pads internally to a power of two).
fn bitonic_sort_cpu(a: &mut [f64]) {
    let n = a.len().next_power_of_two();
    let mut v = Vec::with_capacity(n);
    v.extend_from_slice(a);
    v.resize(n, f64::INFINITY);
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j >= 1 {
            for x in 0..n {
                let partner = x ^ j;
                if partner > x {
                    let asc = (x & k) == 0;
                    if (v[x] > v[partner]) == asc {
                        v.swap(x, partner);
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    a.copy_from_slice(&v[..a.len()]);
}

// ---------------------------------------------------------------------------
// GPU bitonic chain
// ---------------------------------------------------------------------------

/// Build the OpenCL bitonic plan: pad to a power of two, one kernel per
/// `(k, j)` pass ping-ponging two buffers, unpad at the end.
fn build_gpu_bitonic(
    p: &mut PlanBuilder,
    world: &mut World,
    machine: &MachineProfile,
    cfg: &Config,
    data: MatrixId,
    n: usize,
) {
    let n_pad = n.next_power_of_two().max(2);
    let mut bufs = [world.alloc(Matrix::zeros(1, n_pad)), world.alloc(Matrix::zeros(1, n_pad))];
    let pad_step = p.native(
        NativeStep {
            label: "bitonic_pad".into(),
            reads: vec![data],
            writes: vec![bufs[0]],
            run: Box::new(move |w: &mut World, _| {
                let mut v = w.get(data).as_slice().to_vec();
                v.resize(n_pad, f64::INFINITY);
                w.set(bufs[0], Matrix::from_vec(1, n_pad, v));
                Charge::Work(CpuWork::new(0.0, (n_pad * 16) as f64))
            }),
        },
        &[],
    );
    let rule = Sort::rule_bitonic();
    let max_wg = machine.gpu.as_ref().map_or(1, |g| g.max_work_group) as i64;
    let local_size = cfg.tunable_or("sort.local_size", 256).clamp(1, max_wg) as usize;
    let mut deps = vec![pad_step];
    let mut k = 2;
    while k <= n_pad {
        let mut j = k / 2;
        while j >= 1 {
            let s = p.stencil(
                StencilStep {
                    rule: Arc::clone(&rule),
                    inputs: vec![bufs[0]],
                    output: bufs[1],
                    out_dims: (n_pad, 1),
                    user_scalars: vec![j as f64, k as f64],
                    placement: Placement::OpenCl { local_memory: false, local_size },
                },
                &deps,
            );
            bufs.swap(0, 1);
            deps = vec![s];
            j /= 2;
        }
        k *= 2;
    }
    p.native(
        NativeStep {
            label: "bitonic_unpad".into(),
            reads: vec![bufs[0]],
            writes: vec![data],
            run: Box::new(move |w: &mut World, ctx| {
                let extra = w.ensure_host(bufs[0], ctx.now());
                let v = w.get(bufs[0]).as_slice()[..n].to_vec();
                w.set(data, Matrix::from_vec(1, n, v));
                Charge::WorkPlusSecs(CpuWork::new(0.0, (n * 16) as f64), extra)
            }),
        },
        &deps,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;
    use petal_core::{Selector, Tunable};

    #[test]
    fn primitive_sorts_agree_with_std() {
        let mut reference = random_vec(500, -100.0, 100.0, 3);
        let original = reference.clone();
        reference.sort_by(f64::total_cmp);
        for f in [insertion_sort, selection_sort, radix_sort, bitonic_sort_cpu] {
            let mut v = original.clone();
            f(&mut v);
            assert_eq!(v, reference);
        }
    }

    #[test]
    fn partition_separates_around_pivot() {
        let mut v = random_vec(101, -10.0, 10.0, 9);
        let p = partition(&mut v);
        for (i, x) in v.iter().enumerate() {
            if i < p {
                assert!(*x <= v[p]);
            } else {
                assert!(*x >= v[p]);
            }
        }
    }

    #[test]
    fn co_rank_splits_are_consistent() {
        let mut a = random_vec(40, 0.0, 1.0, 1);
        let mut b = random_vec(25, 0.0, 1.0, 2);
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        for k in [0, 1, 10, 32, 65] {
            let (i, j) = co_rank(k, &a, &b);
            assert_eq!(i + j, k);
            // Every element in the prefix is ≤ every element in the suffix.
            let prefix_max =
                a[..i].iter().chain(b[..j].iter()).copied().fold(f64::NEG_INFINITY, f64::max);
            let suffix_min =
                a[i..].iter().chain(b[j..].iter()).copied().fold(f64::INFINITY, f64::min);
            assert!(prefix_max <= suffix_min, "k={k}: {prefix_max} > {suffix_min}");
        }
    }

    #[test]
    fn every_algorithm_choice_sorts() {
        let b = Sort::new(5000);
        let m = MachineProfile::desktop();
        for alg in 0..8 {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("sort", Selector::constant(alg, 8));
            let r = b.run_with_config(&m, &cfg);
            assert!(r.is_ok(), "alg {alg}: {:?}", r.err());
        }
    }

    #[test]
    fn paper_style_polyalgorithm_sorts_and_uses_cutoffs() {
        // 4MS above 7622, 2MS until 2730, insertion below (the Server
        // configuration in Fig. 6).
        let b = Sort::new(60_000);
        let m = MachineProfile::server();
        let mut cfg = b.program(&m).default_config(&m);
        cfg.set_selector("sort", Selector::new(vec![2730, 7622], vec![0, 4, 5], 8));
        b.run_with_config(&m, &cfg).unwrap();
    }

    #[test]
    fn parallel_merge_cutoff_changes_nothing_functionally() {
        let b = Sort::new(40_000);
        let m = MachineProfile::desktop();
        for cutoff in [16, 1 << 20] {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("sort", Selector::new(vec![256], vec![0, 4], 8));
            cfg.set_tunable("merge_parallel_cutoff", Tunable::new(cutoff, 16, 1 << 24));
            b.run_with_config(&m, &cfg).unwrap();
        }
    }

    /// Fig. 7(d) shape: a poly-algorithm on the CPU beats the GPU bitonic
    /// configuration on every machine.
    #[test]
    fn cpu_polyalgorithm_beats_gpu_bitonic() {
        let b = Sort::new(1 << 16);
        for m in MachineProfile::all() {
            let mut cfg = b.program(&m).default_config(&m);
            cfg.set_selector("sort", Selector::new(vec![512], vec![0, 4], 8));
            let cpu = b.run_with_config(&m, &cfg).unwrap().virtual_time_secs();
            if !m.has_physical_gpu() {
                continue;
            }
            cfg.set_selector("sort", Selector::constant(7, 8));
            let gpu = b.run_with_config(&m, &cfg).unwrap().virtual_time_secs();
            assert!(cpu < gpu, "{}: CPU poly {cpu} vs GPU bitonic {gpu}", m.codename);
        }
    }
}
