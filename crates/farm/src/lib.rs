//! # petal-farm — the multi-threaded candidate-evaluation farm
//!
//! The autotuner spends essentially all of its wall time evaluating
//! candidate configurations, and every evaluation is independent: it builds
//! its own [`petal_core::World`], lowers its own plan through its own
//! [`Executor`] (with a private simulated device), and reports a virtual
//! makespan. This crate turns that independence into wall-clock speed by
//! running batches of trials on a pool of real OS threads — made possible
//! by the `Send` evaluation state across `petal-rt`/`petal-core`/
//! `petal-apps` (task closures, native steps and instance checks all carry
//! `Send` bounds).
//!
//! ## Determinism contract
//!
//! The farm guarantees **bit-identical results at any thread count**:
//!
//! * Each [`EvalJob`] owns an independent `Executor`/`Engine`/`World`
//!   seeded from the job's `engine_seed` (derived by the tuner from
//!   `(tuner_seed, round, trial_index)` via [`job_seed`]); nothing about a
//!   trial depends on which worker runs it or when.
//! * Jobs are assigned to workers by a deterministic round-robin —
//!   `job i → worker i mod min(threads, batch len)` — and results are
//!   merged back in **submission order**.
//! * Virtual compile time is *not* taken from each trial's private device
//!   (that would make totals depend on sharing). Instead every trial logs
//!   its charged compiles ([`petal_gpu::compile::CompileEvent`]) and the
//!   farm re-prices them in submission order against a shared model of the
//!   tuning process: a *warm-kernel* set when one long-lived process is
//!   modeled, or a persistent *IR-cache* set when each trial restarts the
//!   process (§5.4). The pricing is a pure fold over the merged order, so
//!   it is identical at 1 and N threads.
//!
//! At `threads = 1` the farm runs jobs inline on the calling thread through
//! exactly the same code path, so the sequential result is the parallel
//! result by construction.
//!
//! ## Trial inputs
//!
//! A benchmark's inputs and reference answer do not depend on the
//! configuration, so the farm owns a [`petal_apps::InputCache`] for the
//! tuning session: it is active around every [`evaluate_job`] the farm
//! runs, all its threads share it, and the trials' worlds share its
//! matrices copy-on-write. [`EvalFarm::reset`] ends the session and
//! releases it. Cached data is a pure function of the benchmark spec, so
//! results are bit-identical with or without it.
//!
//! ## Process sharding
//!
//! The same contract extends across *process* boundaries:
//! [`FarmSettings::shards`]` > 0` spawns that many `petal-shard` worker
//! processes (see [`shard`]) and ships jobs to them over stdin/stdout
//! pipes using the hand-rolled [`wire`] format. Workers return raw,
//! un-priced outcomes; compile re-pricing still happens in the parent's
//! submission-order merge, so `shards ∈ {0, 1, 2, 4, …}` all produce the
//! byte-for-byte identical results the in-process farm produces.
//!
//! ## Remote pools
//!
//! The same wire format travels over sockets: point
//! [`FarmSettings::endpoint`] (or `PETAL_FARMD`) at a `petal-farmd`
//! dispatcher and the farm dispatches batches through a [`remote`] client
//! session instead of local pipes. The dispatcher fans jobs out to an
//! elastic fleet of registered workers, health-checks them by heartbeat,
//! and re-queues a lost worker's jobs to survivors — none of which the
//! farm can observe, because raw outcomes still come back keyed by
//! submission index and all pricing happens in the parent's merge. Every
//! backend hangs off the [`dispatch::Dispatch`] seam, so in-process,
//! sharded and remote runs produce byte-for-byte identical results.

#![warn(missing_docs)]

pub mod dispatch;
pub mod net;
pub mod remote;
pub mod shard;
pub mod wire;

use dispatch::Dispatch;
use petal_apps::{Benchmark, InputCache, Instance};
use petal_core::executor::Executor;
use petal_core::Config;
use petal_gpu::profile::MachineProfile;
use shard::ShardPool;
use std::collections::HashSet;
use std::path::PathBuf;

/// Knobs controlling the evaluation farm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmSettings {
    /// Worker threads evaluating candidates. `1` runs every job inline on
    /// the calling thread; `0` means "one per available hardware thread"
    /// (resolved at farm construction). Results are identical at any value.
    pub threads: usize,
    /// Worker *processes* evaluating candidates. `0` (the default) keeps
    /// evaluation in-process and `threads` governs parallelism; `N > 0`
    /// spawns `N` `petal-shard` workers instead and `threads` is unused.
    /// Results are identical at any value, including `0` (the farm's
    /// determinism contract).
    pub shards: usize,
    /// Explicit path to the `petal-shard` worker binary. `None` resolves
    /// via the `PETAL_SHARD_BIN` environment variable, then a `petal-shard`
    /// next to the current executable (see [`shard::resolve_shard_bin`]).
    pub shard_bin: Option<PathBuf>,
    /// Endpoint of a `petal-farmd` dispatcher (`host:port` or
    /// `unix:<path>`). When set it wins over `shards`/`threads`:
    /// evaluation batches are shipped to the dispatcher's worker fleet
    /// over a [`remote::RemotePool`] session. Results are still identical
    /// to every local mode (the farm's determinism contract).
    pub endpoint: Option<String>,
}

impl FarmSettings {
    /// Evaluate candidates on the calling thread (the default).
    #[must_use]
    pub fn sequential() -> Self {
        FarmSettings { threads: 1, shards: 0, shard_bin: None, endpoint: None }
    }

    /// One worker per available hardware thread.
    #[must_use]
    pub fn host_parallel() -> Self {
        FarmSettings { threads: 0, ..Self::sequential() }
    }

    /// Evaluate candidates on `n` `petal-shard` worker processes.
    /// `n = 0` follows the repo-wide convention — stay in-process
    /// (identical to [`Self::sequential`]), never a one-worker shard
    /// pool — so `sharded(shards_flag())` composes safely.
    #[must_use]
    pub fn sharded(n: usize) -> Self {
        FarmSettings { shards: n, ..Self::sequential() }
    }

    /// Evaluate candidates against the `petal-farmd` dispatcher at
    /// `endpoint` (`host:port` or `unix:<path>`).
    #[must_use]
    pub fn remote(endpoint: impl Into<String>) -> Self {
        FarmSettings { endpoint: Some(endpoint.into()), ..Self::sequential() }
    }

    /// The worker count this setting resolves to on the current host.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        }
    }
}

impl Default for FarmSettings {
    fn default() -> Self {
        Self::sequential()
    }
}

/// One candidate evaluation request.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalJob {
    /// The configuration to evaluate.
    pub config: Config,
    /// Input size (elements) to evaluate at; the benchmark is resized when
    /// this differs from its full size.
    pub size: u64,
    /// Seed for the trial's private scheduler (see [`job_seed`]).
    pub engine_seed: u64,
}

/// Outcome of one candidate evaluation, merged in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Virtual makespan at the job's size, when the trial executed and
    /// passed the benchmark's correctness/accuracy check.
    pub fitness: Option<f64>,
    /// The executor ran to completion (a *trial* in Fig. 8 terms, even if
    /// the check then rejected the output).
    pub ran: bool,
    /// Virtual seconds of runtime kernel compilation charged to this trial
    /// after re-pricing against the shared process/IR-cache model.
    pub compile_secs: f64,
    /// Total virtual cost of the trial: makespan plus `compile_secs`.
    pub trial_secs: f64,
    /// Worker that evaluated the job (`index mod effective threads`).
    pub thread: usize,
}

/// Raw per-job outcome produced on a worker (thread *or* shard process),
/// before the submission-order merge prices its compiles. This is what
/// travels back over the shard wire: pricing state never leaves the
/// parent.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Virtual makespan when the trial executed and passed its check.
    pub fitness: Option<f64>,
    /// The executor ran to completion (even if the check then failed).
    pub ran: bool,
    /// Virtual makespan of the run (0 when it never ran).
    pub makespan: f64,
    /// `(source_hash, frontend_secs, jit_secs)` per charged compile, in
    /// charge order, at the trial's private full price — the merge decides
    /// what each one actually costs under the shared process/IR-cache
    /// model.
    pub compiles: Vec<(u64, f64, f64)>,
}

impl JobOutcome {
    fn invalid() -> Self {
        JobOutcome { fitness: None, ran: false, makespan: 0.0, compiles: Vec::new() }
    }
}

/// Derive the deterministic scheduler seed for one trial from the tuner
/// seed and the trial's coordinates (SplitMix64 finalization).
///
/// ```
/// use petal_farm::job_seed;
/// // Deterministic for fixed coordinates…
/// assert_eq!(job_seed(1, 2, 3), job_seed(1, 2, 3));
/// // …and distinct across neighbouring trial coordinates.
/// assert_ne!(job_seed(1, 2, 3), job_seed(1, 2, 4));
/// assert_ne!(job_seed(1, 2, 3), job_seed(1, 3, 3));
/// ```
#[must_use]
pub fn job_seed(tuner_seed: u64, round: u64, trial_index: u64) -> u64 {
    let mut z = tuner_seed
        .wrapping_add(round.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(trial_index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The evaluation farm: a worker pool plus the shared compile-cost model
/// that persists across batches of one tuning run.
#[derive(Debug)]
pub struct EvalFarm {
    threads: usize,
    shards: usize,
    shard_bin: Option<PathBuf>,
    endpoint: Option<String>,
    /// Lazily built dispatch backend (shard or remote mode), kept alive
    /// across batches of one tuning run.
    pool: Option<Box<dyn Dispatch>>,
    model_process_restarts: bool,
    ir_cache_enabled: bool,
    /// Kernels compiled by the modeled long-lived tuning process
    /// (`model_process_restarts == false`): later compiles are free.
    warm: HashSet<u64>,
    /// The modeled on-disk IR cache (`model_process_restarts == true`):
    /// later compiles of a cached source skip the frontend (§5.4).
    ir: HashSet<u64>,
    /// The session's configuration-independent trial data (in-process
    /// evaluation; shard workers keep their own).
    inputs: InputCache,
    per_thread_trials: Vec<usize>,
}

impl EvalFarm {
    /// New farm. `model_process_restarts` mirrors
    /// `TunerSettings::model_process_restarts`: whether every trial pays a
    /// fresh process launch (re-JIT via the IR cache) or shares one warm
    /// process.
    #[must_use]
    pub fn new(settings: &FarmSettings, model_process_restarts: bool) -> Self {
        let threads = settings.resolved_threads().max(1);
        let shards = settings.shards;
        let workers = if settings.endpoint.is_some() {
            1
        } else if shards > 0 {
            shards
        } else {
            threads
        };
        EvalFarm {
            threads,
            shards,
            shard_bin: settings.shard_bin.clone(),
            endpoint: settings.endpoint.clone(),
            pool: None,
            model_process_restarts,
            ir_cache_enabled: true,
            warm: HashSet::new(),
            ir: HashSet::new(),
            inputs: InputCache::new(),
            per_thread_trials: vec![0; workers],
        }
    }

    /// Enable or disable the modeled persistent IR cache (§5.4 ablation).
    pub fn set_ir_cache(&mut self, enabled: bool) -> &mut Self {
        self.ir_cache_enabled = enabled;
        self
    }

    /// Worker threads in the in-process pool (meaningful when
    /// [`Self::shards`] is 0).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker *processes* in the shard pool; 0 means in-process evaluation.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Workers of whichever kind this farm uses (shard processes when
    /// sharded, threads otherwise). A remote pool counts as **one**
    /// worker: the dispatcher's fleet size is elastic and invisible, so
    /// the deterministic accounting treats the whole farm as a single
    /// submission-ordered backend.
    fn workers(&self) -> usize {
        if self.endpoint.is_some() {
            1
        } else if self.shards > 0 {
            self.shards
        } else {
            self.threads
        }
    }

    /// Trials evaluated by each worker so far (deterministic: jobs are
    /// round-robin assigned in submission order). One slot per shard
    /// process when sharded, per thread otherwise.
    #[must_use]
    pub fn per_thread_trials(&self) -> &[usize] {
        &self.per_thread_trials
    }

    /// Forget all cached compile state, cached trial inputs and per-thread
    /// accounting (the start or end of a tuning run).
    pub fn reset(&mut self) {
        self.warm.clear();
        self.ir.clear();
        self.inputs.clear();
        self.per_thread_trials = vec![0; self.workers()];
    }

    /// Evaluate a batch of jobs against `bench` on `machine`, returning
    /// results in submission order.
    ///
    /// Each job runs on its own `Executor` with a fresh simulated device;
    /// `jobs[i]` runs on worker `i mod workers` (threads in-process, or
    /// `petal-shard` processes when [`FarmSettings::shards`] is set). The
    /// batch is a barrier: all jobs complete before any result is
    /// returned.
    ///
    /// ```
    /// use petal_apps::blackscholes::BlackScholes;
    /// use petal_apps::Benchmark;
    /// use petal_farm::{job_seed, EvalFarm, EvalJob, FarmSettings};
    /// use petal_gpu::profile::MachineProfile;
    ///
    /// let bench = BlackScholes::new(1_000);
    /// let machine = MachineProfile::laptop();
    /// let config = bench.program(&machine).default_config(&machine);
    /// let jobs: Vec<EvalJob> = (0..3)
    ///     .map(|trial| EvalJob {
    ///         config: config.clone(),
    ///         size: bench.input_size(),
    ///         engine_seed: job_seed(42, 0, trial),
    ///     })
    ///     .collect();
    /// let mut farm = EvalFarm::new(&FarmSettings::sequential(), false);
    /// let results = farm.evaluate(&bench, &machine, &jobs);
    /// assert_eq!(results.len(), 3);
    /// assert!(results.iter().all(|r| r.ran && r.fitness.is_some()));
    /// // Identical jobs are deterministic: same fitness every time.
    /// assert_eq!(results[0].fitness, results[1].fitness);
    /// ```
    ///
    /// # Panics
    /// In shard mode, when the worker binary cannot be found or a worker
    /// violates the wire protocol (the error names the worker and cause);
    /// in thread mode, when a worker thread panics.
    pub fn evaluate(
        &mut self,
        bench: &dyn Benchmark,
        machine: &MachineProfile,
        jobs: &[EvalJob],
    ) -> Vec<EvalResult> {
        let effective = self.workers().min(jobs.len()).max(1);
        let raw: Vec<JobOutcome> = if self.endpoint.is_some() || self.shards > 0 {
            self.evaluate_dispatched(bench, machine, jobs, effective)
        } else if effective == 1 {
            jobs.iter().map(|j| self.inputs.enter(|| evaluate_job(bench, machine, j))).collect()
        } else {
            let inputs = &self.inputs;
            let mut slots: Vec<Option<JobOutcome>> = Vec::new();
            slots.resize_with(jobs.len(), || None);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..effective)
                    .map(|t| {
                        scope.spawn(move || {
                            jobs.iter()
                                .enumerate()
                                .skip(t)
                                .step_by(effective)
                                .map(|(i, j)| (i, inputs.enter(|| evaluate_job(bench, machine, j))))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    for (i, out) in h.join().expect("farm worker panicked") {
                        slots[i] = Some(out);
                    }
                }
            });
            slots.into_iter().map(|s| s.expect("every job evaluated")).collect()
        };

        // Submission-order merge: deterministic accounting and compile
        // pricing regardless of which worker finished first.
        raw.into_iter()
            .enumerate()
            .map(|(i, out)| {
                let thread = i % effective;
                if out.ran {
                    self.per_thread_trials[thread] += 1;
                }
                let compile_secs: f64 = out
                    .compiles
                    .iter()
                    .map(|&(hash, frontend, jit)| self.price_compile(hash, frontend, jit))
                    .sum();
                EvalResult {
                    fitness: out.fitness,
                    ran: out.ran,
                    compile_secs,
                    trial_secs: out.makespan + compile_secs,
                    thread,
                }
            })
            .collect()
    }

    /// Build the dispatch backend for the current settings and
    /// `(benchmark, machine)` session: a [`remote::RemotePool`] when an
    /// endpoint is configured, a [`ShardPool`] otherwise.
    fn build_pool(
        &self,
        spec: &str,
        machine: &MachineProfile,
    ) -> Result<Box<dyn Dispatch>, shard::ShardError> {
        if let Some(endpoint) = &self.endpoint {
            Ok(Box::new(remote::RemotePool::connect(endpoint, spec, machine)?))
        } else {
            let bin = shard::resolve_shard_bin(self.shard_bin.as_deref())?;
            Ok(Box::new(ShardPool::spawn(&bin, self.shards, spec, machine)?))
        }
    }

    /// Dispatch one batch to the out-of-process backend (shard pool or
    /// farmd session), (re)building it when the `(benchmark, machine)`
    /// session changed.
    ///
    /// Backends recover from partial worker loss internally; an `Err`
    /// here means the whole backend is gone (every shard dead, or the
    /// dispatcher connection lost). Because jobs are pure and all pricing
    /// happens in the caller's submission-order merge, the recovery is
    /// simply: build a fresh backend and re-run the *whole* batch once —
    /// bit-identical to a run that never failed. A second total loss is
    /// a real outage and panics with the structured error.
    fn evaluate_dispatched(
        &mut self,
        bench: &dyn Benchmark,
        machine: &MachineProfile,
        jobs: &[EvalJob],
        effective: usize,
    ) -> Vec<JobOutcome> {
        let spec = bench.spec();
        if !self.pool.as_ref().is_some_and(|p| p.matches(&spec, machine)) {
            self.pool = None; // drop (and reap/close) any stale backend first
            self.pool = Some(self.build_pool(&spec, machine).unwrap_or_else(|e| panic!("{e}")));
        }
        let first = self.pool.as_mut().expect("pool built above").evaluate(jobs, effective);
        match first {
            Ok(outcomes) => outcomes,
            Err(lost) => {
                eprintln!("petal-farm: evaluation backend lost ({lost}); respawning and retrying the batch");
                self.pool = None;
                self.pool = Some(self.build_pool(&spec, machine).unwrap_or_else(|e| panic!("{e}")));
                self.pool
                    .as_mut()
                    .expect("pool rebuilt above")
                    .evaluate(jobs, effective)
                    .unwrap_or_else(|e| panic!("evaluation backend lost twice (giving up): {e}"))
            }
        }
    }

    /// Price one charged compile against the shared model, updating it.
    fn price_compile(&mut self, hash: u64, frontend: f64, jit: f64) -> f64 {
        if self.model_process_restarts {
            // Every trial launches a fresh process: nothing stays warm, but
            // the on-disk IR cache (when enabled) skips the frontend after
            // the first compile of a source (§5.4).
            if self.ir_cache_enabled && !self.ir.insert(hash) {
                jit
            } else {
                frontend + jit
            }
        } else {
            // One long-lived tuning process: the first compile of a source
            // pays full price, every later trial finds it warm.
            if self.warm.insert(hash) {
                frontend + jit
            } else {
                0.0
            }
        }
    }
}

/// Run one trial: resize, instantiate, execute, check. Everything here is
/// private to the job, so this function is freely parallel — it is the
/// unit of work a farm thread runs in-process and a `petal-shard` worker
/// runs across a pipe. Both run it inside their session's
/// [`InputCache::enter`], so the benchmark's inputs and reference answer
/// are built once per session; called outside a session, it builds them.
#[must_use]
pub fn evaluate_job(bench: &dyn Benchmark, machine: &MachineProfile, job: &EvalJob) -> JobOutcome {
    let sized: Box<dyn Benchmark>;
    let b: &dyn Benchmark = if job.size == bench.input_size() {
        bench
    } else {
        match bench.resized(job.size) {
            Some(s) => {
                sized = s;
                &*sized
            }
            None => return JobOutcome::invalid(),
        }
    };
    let Instance { mut world, plan, check } = b.instantiate(machine, &job.config);
    let mut ex = Executor::new(machine);
    ex.set_seed(job.engine_seed);
    let Ok(report) = ex.run(plan, &mut world) else {
        return JobOutcome::invalid();
    };
    let fitness = check(&world).ok().map(|()| report.virtual_time_secs());
    JobOutcome {
        fitness,
        ran: true,
        makespan: report.virtual_time_secs(),
        compiles: report
            .compile_events
            .iter()
            .map(|e| (e.source_hash, e.frontend_secs, e.jit_secs))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_apps::blackscholes::BlackScholes;
    use petal_apps::convolution::{ConvMapping, SeparableConvolution};

    fn jobs_for(bench: &dyn Benchmark, machine: &MachineProfile, n: usize) -> Vec<EvalJob> {
        let cfg = bench.program(machine).default_config(machine);
        (0..n)
            .map(|i| EvalJob {
                config: cfg.clone(),
                size: bench.input_size(),
                engine_seed: job_seed(7, 0, i as u64),
            })
            .collect()
    }

    #[test]
    fn results_are_identical_at_any_thread_count() {
        let bench = BlackScholes::new(20_000);
        let machine = MachineProfile::desktop();
        let jobs = jobs_for(&bench, &machine, 7);
        let run = |threads: usize| {
            let mut farm =
                EvalFarm::new(&FarmSettings { threads, ..FarmSettings::sequential() }, true);
            farm.evaluate(&bench, &machine, &jobs)
        };
        let one = run(1);
        for threads in [2, 3, 8] {
            let many = run(threads);
            for (a, b) in one.iter().zip(&many) {
                assert_eq!(a.fitness, b.fitness, "threads={threads}");
                assert_eq!(a.compile_secs, b.compile_secs, "threads={threads}");
                assert_eq!(a.trial_secs, b.trial_secs, "threads={threads}");
            }
        }
    }

    #[test]
    fn per_thread_accounting_is_round_robin_and_sums_to_trials() {
        let bench = BlackScholes::new(10_000);
        let machine = MachineProfile::laptop();
        let jobs = jobs_for(&bench, &machine, 6);
        let mut farm =
            EvalFarm::new(&FarmSettings { threads: 4, ..FarmSettings::sequential() }, false);
        let results = farm.evaluate(&bench, &machine, &jobs);
        assert!(results.iter().all(|r| r.ran));
        assert_eq!(farm.per_thread_trials(), &[2, 2, 1, 1]);
        let by_thread: Vec<usize> = results.iter().map(|r| r.thread).collect();
        assert_eq!(by_thread, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn warm_process_model_charges_each_kernel_once() {
        // An all-OpenCL convolution config compiles kernels; without
        // process restarts only the first trial pays for them.
        let bench = SeparableConvolution::new(96, 5);
        let machine = MachineProfile::desktop();
        let cfg = bench.mapping_config(&machine, ConvMapping::SeparableNoLocal);
        let jobs: Vec<EvalJob> = (0..3)
            .map(|i| EvalJob {
                config: cfg.clone(),
                size: bench.input_size(),
                engine_seed: job_seed(1, 0, i),
            })
            .collect();
        let mut farm = EvalFarm::new(&FarmSettings::sequential(), false);
        let r = farm.evaluate(&bench, &machine, &jobs);
        assert!(r[0].compile_secs > 0.0, "first trial compiles");
        assert_eq!(r[1].compile_secs, 0.0, "kernels are warm");
        assert_eq!(r[2].compile_secs, 0.0);
    }

    #[test]
    fn restart_model_pays_jit_on_ir_hits_and_full_without_cache() {
        let bench = SeparableConvolution::new(96, 5);
        let machine = MachineProfile::desktop();
        let gpu = machine.gpu.clone().expect("desktop has a gpu");
        let cfg = bench.mapping_config(&machine, ConvMapping::SeparableNoLocal);
        let jobs: Vec<EvalJob> = (0..2)
            .map(|i| EvalJob {
                config: cfg.clone(),
                size: bench.input_size(),
                engine_seed: job_seed(1, 0, i),
            })
            .collect();

        let mut farm = EvalFarm::new(&FarmSettings::sequential(), true);
        let r = farm.evaluate(&bench, &machine, &jobs);
        // Two kernels (rows + columns): first trial pays full price.
        let full = 2.0 * (gpu.compile_frontend + gpu.compile_jit);
        let jit_only = 2.0 * gpu.compile_jit;
        assert!((r[0].compile_secs - full).abs() < 1e-9, "{}", r[0].compile_secs);
        assert!((r[1].compile_secs - jit_only).abs() < 1e-9, "{}", r[1].compile_secs);

        let mut no_ir = EvalFarm::new(&FarmSettings::sequential(), true);
        no_ir.set_ir_cache(false);
        let r = no_ir.evaluate(&bench, &machine, &jobs);
        assert!((r[1].compile_secs - full).abs() < 1e-9, "no IR cache: full price again");
    }

    #[test]
    fn failing_sizes_are_reported_not_run() {
        let bench = SeparableConvolution::new(96, 5);
        let machine = MachineProfile::desktop();
        let cfg = bench.program(&machine).default_config(&machine);
        // Too small to resize (n must exceed 3k).
        let jobs = vec![EvalJob { config: cfg, size: 4, engine_seed: 1 }];
        let mut farm = EvalFarm::new(&FarmSettings::sequential(), false);
        let r = farm.evaluate(&bench, &machine, &jobs);
        assert!(!r[0].ran);
        assert_eq!(r[0].fitness, None);
    }

    #[test]
    fn job_seed_is_deterministic_and_spreads() {
        assert_eq!(job_seed(1, 2, 3), job_seed(1, 2, 3));
        let mut seen = HashSet::new();
        for round in 0..8u64 {
            for trial in 0..64u64 {
                seen.insert(job_seed(0xa11ce, round, trial));
            }
        }
        assert_eq!(seen.len(), 8 * 64, "no collisions over a tuning run's grid");
    }
}
