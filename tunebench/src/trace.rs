//! The traced run's instrumentation: a [`Benchmark`] wrapper that records
//! a span around every call the tuner makes into `petal_apps`, and the
//! in-memory recorder those spans go to.
//!
//! A trial, as `petal_farm::evaluate_job` runs it in-process, is
//! `resized` (below full size only) → `instantiate` → `Executor::run` →
//! `check`. The wrapper times the first two directly; the executor span
//! runs from `instantiate` returning to the check closure being entered,
//! on the same thread, and the check span covers the closure itself.
//! Spans are only meaningful with one farm thread, where they never
//! overlap.

use petal_apps::{Benchmark, CheckFn, Instance};
use petal_core::{Config, Program};
use petal_gpu::profile::MachineProfile;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One span: a layer call, the tune (or trial) that caused it, and its
/// start and end in nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `tune`, `resize`, `instantiate`, `exec` or `check`.
    pub name: &'static str,
    /// The tune this span belongs to (index into the pass's tunes).
    pub tune: usize,
    /// The trial within the run (`None` for a `tune` span).
    pub trial: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One evaluated trial as the wrapper saw it: enough to replay it.
#[derive(Debug, Clone)]
pub struct TrialCall {
    /// The tune it belongs to.
    pub tune: usize,
    /// Input size it was instantiated at.
    pub size: u64,
    /// The configuration evaluated.
    pub config: Config,
}

#[derive(Debug, Default)]
struct State {
    tune: usize,
    spans: Vec<Span>,
    trials: Vec<TrialCall>,
}

/// In-memory span store shared by every wrapper of one traced pass.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), state: Mutex::default() }
    }
}

impl Recorder {
    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("a traced trial panicked while recording")
    }

    /// Attribute the following spans to tune `tune`.
    pub fn set_tune(&self, tune: usize) {
        self.state().tune = tune;
    }

    /// Record a span of the current tune.
    pub fn span(&self, name: &'static str, trial: Option<usize>, start_ns: u64, end_ns: u64) {
        let mut st = self.state();
        let tune = st.tune;
        st.spans.push(Span { name, tune, trial, start_ns, end_ns });
    }

    fn open_trial(&self, size: u64, config: &Config) -> usize {
        let mut st = self.state();
        let tune = st.tune;
        st.trials.push(TrialCall { tune, size, config: config.clone() });
        st.trials.len() - 1
    }

    /// Every span recorded so far, in recording order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Every trial instantiated so far, in order.
    #[must_use]
    pub fn trials(&self) -> Vec<TrialCall> {
        self.state().trials.clone()
    }

    /// The spans as tab-separated text, one per line, with a header.
    #[must_use]
    pub fn spans_tsv(&self) -> String {
        let mut out = String::from("name\ttune\ttrial\tstart_ns\tend_ns\n");
        for s in &self.state().spans {
            let trial = s.trial.map_or_else(|| "-".to_owned(), |t| t.to_string());
            let _ = writeln!(out, "{}\t{}\t{trial}\t{}\t{}", s.name, s.tune, s.start_ns, s.end_ns);
        }
        out
    }
}

/// A benchmark that forwards every [`Benchmark`] method to `inner` and
/// records spans around `resized`, `instantiate` and the returned check.
pub struct Traced {
    inner: Arc<dyn Benchmark>,
    rec: Arc<Recorder>,
    /// The `resized` span that produced this copy, recorded against the
    /// trial its `instantiate` opens.
    resize: Option<(u64, u64)>,
}

impl Traced {
    /// Wrap `inner`, recording into `rec`.
    #[must_use]
    pub fn new(inner: Arc<dyn Benchmark>, rec: Arc<Recorder>) -> Self {
        Traced { inner, rec, resize: None }
    }
}

impl Benchmark for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn spec(&self) -> String {
        self.inner.spec()
    }

    fn input_size(&self) -> u64 {
        self.inner.input_size()
    }

    fn program(&self, machine: &MachineProfile) -> Program {
        self.inner.program(machine)
    }

    fn instantiate(&self, machine: &MachineProfile, cfg: &Config) -> Instance {
        let trial = self.rec.open_trial(self.inner.input_size(), cfg);
        if let Some((start, end)) = self.resize {
            self.rec.span("resize", Some(trial), start, end);
        }
        let start = self.rec.now();
        let Instance { world, plan, check } = self.inner.instantiate(machine, cfg);
        let returned = self.rec.now();
        self.rec.span("instantiate", Some(trial), start, returned);
        let rec = Arc::clone(&self.rec);
        let check: CheckFn = Box::new(move |world| {
            let entered = rec.now();
            rec.span("exec", Some(trial), returned, entered);
            let verdict = check(world);
            rec.span("check", Some(trial), entered, rec.now());
            verdict
        });
        Instance { world, plan, check }
    }

    fn run_with_config(
        &self,
        machine: &MachineProfile,
        cfg: &Config,
    ) -> Result<petal_core::executor::ExecReport, petal_core::Error> {
        self.inner.run_with_config(machine, cfg)
    }

    fn resized(&self, size: u64) -> Option<Box<dyn Benchmark>> {
        let start = self.rec.now();
        let inner: Arc<dyn Benchmark> = Arc::from(self.inner.resized(size)?);
        let resize = Some((start, self.rec.now()));
        Some(Box::new(Traced { inner, rec: Arc::clone(&self.rec), resize }))
    }

    fn dynamic_config_keys(&self) -> Vec<String> {
        self.inner.dynamic_config_keys()
    }

    fn run_default(
        &self,
        machine: &MachineProfile,
    ) -> Result<petal_core::executor::ExecReport, petal_core::Error> {
        self.inner.run_default(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_apps::{all_benchmarks, benchmark_from_spec};
    use petal_core::executor::Executor;

    fn wrap(b: Box<dyn Benchmark>) -> (Traced, Arc<Recorder>) {
        let rec = Arc::new(Recorder::default());
        (Traced::new(Arc::from(b), Arc::clone(&rec)), rec)
    }

    #[test]
    fn wrapper_forwards_identity_methods() {
        let machine = MachineProfile::desktop();
        for b in all_benchmarks() {
            let (spec, size, name) = (b.spec(), b.input_size(), b.name().to_owned());
            let keys = b.dynamic_config_keys();
            let program = b.program(&machine);
            let (t, _) = wrap(b);
            assert_eq!(t.spec(), spec);
            assert_eq!(t.name(), name);
            assert_eq!(t.input_size(), size);
            assert_eq!(t.dynamic_config_keys(), keys);
            assert_eq!(
                t.program(&machine).default_config(&machine),
                program.default_config(&machine)
            );
            let rebuilt = benchmark_from_spec(&t.spec()).expect("wrapped spec parses");
            assert_eq!(rebuilt.spec(), spec);
            assert_eq!(rebuilt.name(), name);
            assert_eq!(rebuilt.input_size(), size);
        }
    }

    #[test]
    fn resized_wrapper_matches_resized_inner() {
        for b in all_benchmarks() {
            let small = b.input_size() / 8;
            let direct = b.resized(small).map(|r| (r.spec(), r.input_size()));
            let (t, _) = wrap(b);
            let traced = t.resized(small).map(|r| (r.spec(), r.input_size()));
            assert_eq!(traced, direct, "{}", t.name());
        }
    }

    #[test]
    fn one_trial_records_resize_instantiate_exec_check_in_order() {
        let machine = MachineProfile::desktop();
        let b = all_benchmarks().remove(0);
        let (t, rec) = wrap(b);
        rec.set_tune(3);
        let small = t.resized(t.input_size() / 8).expect("resizable");
        let cfg = small.program(&machine).default_config(&machine);
        let Instance { mut world, plan, check } = small.instantiate(&machine, &cfg);
        Executor::new(&machine).run(plan, &mut world).expect("runs");
        check(&world).expect("default config is correct");
        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["resize", "instantiate", "exec", "check"]);
        assert!(spans.iter().all(|s| s.tune == 3 && s.trial == Some(0)));
        assert!(spans.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
        let trials = rec.trials();
        assert_eq!(trials.len(), 1);
        assert_eq!((trials[0].size, &trials[0].config), (small.input_size(), &cfg));
        assert_eq!(rec.spans_tsv().lines().count(), 5);
    }
}
