//! # petal-apps — the seven paper benchmarks
//!
//! Each module reproduces one benchmark from §6 of *Portable Performance on
//! Heterogeneous Architectures*, expressed against the `petal-core` choice
//! API so the autotuner can search its algorithm/placement/mapping space:
//!
//! | Module | Benchmark | Choice space highlights |
//! |---|---|---|
//! | [`blackscholes`] | Black-Scholes | CPU/GPU placement, fractional 1/8 splits |
//! | [`poisson`] | Poisson2D SOR | per-phase backend choice (split vs. iterate) |
//! | [`convolution`] | SeparableConvolution | 2D vs. separable × local-memory mapping |
//! | [`sort`] | Sort | 7-algorithm recursive poly-algorithm + GPU bitonic |
//! | [`strassen`] | Strassen | recursive decompositions, LAPACK leaf, GPU matmul |
//! | [`svd`] | SVD (variable accuracy) | task-parallel CPU+GPU, nested matmul selectors |
//! | [`tridiagonal`] | Tridiagonal Solver | direct solve vs. GPU cyclic reduction |
//!
//! All inputs are deterministic (seeded), and every benchmark carries a
//! host-side reference implementation used by `Instance::check`. Inputs
//! and reference answers are built through [`cached`], so an evaluation
//! session (see [`cache`]) builds them once for all its trials.

pub mod blackscholes;
pub mod cache;
pub mod convolution;
pub mod poisson;
pub mod sort;
pub mod strassen;
pub mod svd;
pub mod tridiagonal;
pub mod workload;

pub use cache::{cached, InputCache};

use petal_core::executor::{ExecReport, Executor};
use petal_core::{Config, Error, Plan, Program, World};
use petal_gpu::profile::MachineProfile;

/// Post-run verification closure against the reference implementation.
/// `Send` so a whole instance can be built and verified on an
/// evaluation-farm worker thread.
pub type CheckFn = Box<dyn Fn(&World) -> Result<(), String> + Send>;

/// One runnable problem instance: the world holding inputs/outputs, the
/// schedule for the chosen configuration, and a correctness check to run
/// after execution.
pub struct Instance {
    /// Matrices (inputs allocated, outputs zeroed).
    pub world: World,
    /// The schedule for this configuration.
    pub plan: Plan,
    /// Post-run verification against the reference implementation.
    pub check: CheckFn,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance").field("plan", &self.plan).finish_non_exhaustive()
    }
}

/// A tunable benchmark: everything the autotuner and the figure harnesses
/// need.
///
/// `Send + Sync` is part of the contract: benchmarks are plain problem
/// descriptions (sizes, seeds, accuracy targets) that the evaluation farm
/// shares by reference across its worker threads, each of which calls
/// [`Benchmark::instantiate`] to build an independent trial.
pub trait Benchmark: Send + Sync {
    /// Display name (matches the paper's benchmark tables).
    fn name(&self) -> &str;

    /// A machine-readable constructor spec: one line of `kind key=value …`
    /// that [`benchmark_from_spec`] parses back into an equivalent
    /// benchmark. This is how the process-sharded evaluation farm ships a
    /// benchmark identity to its `petal-shard` worker processes, so the
    /// round-trip contract is strict: `benchmark_from_spec(&b.spec())`
    /// must rebuild a benchmark with the same name, the same input size
    /// and bit-identical evaluation behaviour. Floating-point parameters
    /// are therefore encoded as exact IEEE-754 bit patterns (`0x…`).
    fn spec(&self) -> String;

    /// The input size fed to selectors.
    fn input_size(&self) -> u64;

    /// Choice-space metadata (selectors, tunables, kernel counts).
    fn program(&self, machine: &MachineProfile) -> Program;

    /// Build a world + plan for one configuration.
    ///
    /// Data that does not depend on `cfg` — the inputs and the reference
    /// answer the check compares against — must be a pure function of
    /// [`Benchmark::spec`] and should be built through
    /// [`cached`]`(&self.spec(), …)`, so a tuning session builds it once
    /// and shares it across trials. Install shared input matrices with
    /// `World::alloc_shared`; a plan step that writes one gets a private
    /// copy.
    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance;

    /// Convenience: build, execute on a fresh executor, verify, report.
    ///
    /// # Errors
    /// Execution failures, or a [`Error::Validation`] when the result does
    /// not match the reference implementation.
    fn run_with_config(&self, machine: &MachineProfile, cfg: &Config) -> Result<ExecReport, Error> {
        let Instance { mut world, plan, check } = self.instantiate(machine, cfg);
        let mut ex = Executor::new(machine);
        let report = ex.run(plan, &mut world)?;
        check(&world).map_err(Error::Validation)?;
        Ok(report)
    }

    /// A smaller (or larger) copy of this benchmark for the autotuner's
    /// exponentially growing input-size schedule (§5.2). `None` when the
    /// size is too small to be a valid instance.
    fn resized(&self, size: u64) -> Option<Box<dyn Benchmark>> {
        let _ = size;
        None
    }

    /// Config keys (selector or tunable names) consulted by *dynamic*
    /// control flow — closures inside `NativeStep`s that re-read the
    /// configuration at runtime, invisible to any static analysis of the
    /// lowered plan. The choice-space linter (`petal-verify`) must not
    /// flag these as dead just because varying them leaves the plan's
    /// structure unchanged. Default: none (every key's effect is visible
    /// in the plan).
    fn dynamic_config_keys(&self) -> Vec<String> {
        Vec::new()
    }

    /// Convenience: run with the untuned default configuration.
    ///
    /// # Errors
    /// Same as [`Benchmark::run_with_config`].
    fn run_default(&self, machine: &MachineProfile) -> Result<ExecReport, Error> {
        let cfg = self.program(machine).default_config(machine);
        self.run_with_config(machine, &cfg)
    }
}

/// Parse one `key=value` token of a [`Benchmark::spec`] line.
fn spec_field<'a>(tokens: &'a [&str], key: &str) -> Result<&'a str, String> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| format!("spec is missing `{key}=`"))
}

fn spec_usize(tokens: &[&str], key: &str) -> Result<usize, String> {
    spec_field(tokens, key)?.parse().map_err(|_| format!("spec field `{key}` is not an integer"))
}

/// Decode an `0x…` IEEE-754 bit pattern written by a spec (exactness is
/// part of the round-trip contract; decimal text could drift).
fn spec_f64_bits(tokens: &[&str], key: &str) -> Result<f64, String> {
    spec_f64_parse(spec_field(tokens, key)?).map_err(|e| format!("spec field `{key}`: {e}"))
}

/// Encode an `f64` as its exact IEEE-754 bit pattern (`0x` + 16 hex
/// digits). The inverse of [`spec_f64_parse`]; shared by benchmark specs
/// and the shard wire format so the two "exact float" encodings can
/// never drift apart.
#[must_use]
pub fn spec_f64(value: f64) -> String {
    let mut out = String::with_capacity(18);
    spec_f64_into(value, &mut out);
    out
}

/// [`spec_f64`] appended to an existing buffer — the allocation-free form
/// the shard wire encoder uses on its per-job hot path.
pub fn spec_f64_into(value: f64, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "0x{:016x}", value.to_bits());
}

/// Decode an `f64` encoded by [`spec_f64`], bit-exactly (NaN payloads
/// included).
///
/// # Errors
/// When the text is not `0x` followed by a valid hex bit pattern.
pub fn spec_f64_parse(raw: &str) -> Result<f64, String> {
    let hex = raw.strip_prefix("0x").ok_or_else(|| format!("`{raw}` must be 0x…"))?;
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("`{raw}` is not a hex bit pattern"))
}

/// Rebuild a benchmark from a [`Benchmark::spec`] line.
///
/// This is the inverse of [`Benchmark::spec`] and the entry point the
/// `petal-shard` worker binary uses to reconstruct its benchmark from the
/// shard-protocol `INIT` message.
///
/// # Errors
/// Returns a human-readable message when the kind is unknown, a field is
/// missing or malformed, or the parameters would violate the benchmark's
/// constructor invariants (so a corrupt spec never panics a worker).
pub fn benchmark_from_spec(spec: &str) -> Result<Box<dyn Benchmark>, String> {
    let tokens: Vec<&str> = spec.split_whitespace().collect();
    let (&kind, params) = tokens.split_first().ok_or_else(|| "empty spec".to_owned())?;
    match kind {
        "blackscholes" => {
            let n = spec_usize(params, "n")?;
            (n >= 1).then(|| Box::new(blackscholes::BlackScholes::new(n)) as Box<dyn Benchmark>)
        }
        .ok_or_else(|| "blackscholes: n must be >= 1".to_owned()),
        "poisson2d" => {
            let (n, iters) = (spec_usize(params, "n")?, spec_usize(params, "iters")?);
            (n >= 4 && iters >= 1)
                .then(|| Box::new(poisson::Poisson2D::new(n, iters)) as Box<dyn Benchmark>)
                .ok_or_else(|| "poisson2d: need n >= 4 and iters >= 1".to_owned())
        }
        "convolution" => {
            let (n, k) = (spec_usize(params, "n")?, spec_usize(params, "k")?);
            (k % 2 == 1 && k >= 3 && n > 3 * k)
                .then(|| {
                    Box::new(convolution::SeparableConvolution::new(n, k)) as Box<dyn Benchmark>
                })
                .ok_or_else(|| "convolution: need odd k >= 3 and n > 3k".to_owned())
        }
        "sort" => {
            let n = spec_usize(params, "n")?;
            (n > 0)
                .then(|| Box::new(sort::Sort::new(n)) as Box<dyn Benchmark>)
                .ok_or_else(|| "sort: n must be > 0".to_owned())
        }
        "strassen" => {
            let n = spec_usize(params, "n")?;
            (n > 0)
                .then(|| Box::new(strassen::Strassen::new(n)) as Box<dyn Benchmark>)
                .ok_or_else(|| "strassen: n must be > 0".to_owned())
        }
        "svd" => {
            let (n, target) = (spec_usize(params, "n")?, spec_f64_bits(params, "target")?);
            (n >= 4 && target > 0.0 && target <= 1.0)
                .then(|| Box::new(svd::Svd::new(n, target)) as Box<dyn Benchmark>)
                .ok_or_else(|| "svd: need n >= 4 and target in (0, 1]".to_owned())
        }
        "tridiagonal" => {
            let n = spec_usize(params, "n")?;
            (n >= 2)
                .then(|| Box::new(tridiagonal::Tridiagonal::new(n)) as Box<dyn Benchmark>)
                .ok_or_else(|| "tridiagonal: n must be >= 2".to_owned())
        }
        other => Err(format!("unknown benchmark kind `{other}`")),
    }
}

/// All seven benchmarks at the sizes used by the harness binaries
/// (reduced from the paper's sizes so functional execution stays fast; the
/// harness `--full` flag restores the paper's sizes).
#[must_use]
pub fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(blackscholes::BlackScholes::new(100_000)),
        Box::new(poisson::Poisson2D::new(128, 8)),
        Box::new(convolution::SeparableConvolution::new(256, 7)),
        Box::new(sort::Sort::new(1 << 16)),
        Box::new(strassen::Strassen::new(256)),
        Box::new(svd::Svd::new(64, 0.15)),
        Box::new(tridiagonal::Tridiagonal::new(1 << 12)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_the_factory() {
        for b in all_benchmarks() {
            let spec = b.spec();
            let rebuilt = benchmark_from_spec(&spec)
                .unwrap_or_else(|e| panic!("{}: spec `{spec}` did not parse: {e}", b.name()));
            assert_eq!(rebuilt.name(), b.name());
            assert_eq!(rebuilt.input_size(), b.input_size());
            assert_eq!(rebuilt.spec(), spec, "spec must be canonical");
        }
    }

    #[test]
    fn bad_specs_error_instead_of_panicking() {
        for bad in [
            "",
            "warp10 n=4",
            "sort",
            "sort n=zero",
            "sort n=0",
            "convolution n=16 k=4",
            "poisson2d n=128",
            "svd n=64 target=0.15",
            "svd n=64 target=0x0000000000000000",
        ] {
            assert!(benchmark_from_spec(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn svd_spec_preserves_the_exact_accuracy_target() {
        let b = svd::Svd::new(32, 0.1 + 0.2 - 0.25); // deliberately non-representable-looking
        let rebuilt = benchmark_from_spec(&b.spec()).expect("parses");
        assert_eq!(rebuilt.spec(), b.spec());
    }

    #[test]
    fn every_benchmark_runs_with_defaults_on_every_machine() {
        // Including the iGPU/ManyCore extension profiles: default configs
        // must be valid on machines with a shared-memory device and on
        // machines with no OpenCL runtime at all.
        for b in all_benchmarks() {
            for m in MachineProfile::extended() {
                let r = b.run_default(&m);
                assert!(r.is_ok(), "{} on {}: {:?}", b.name(), m.codename, r.err());
            }
        }
    }
}
