//! Trial inputs are built once per tuning session and shared: tuning with
//! the session's input cache is bit-identical to tuning without one, at
//! every thread and shard count, and the cache dies with the session.
//!
//! The uncached reference wraps each benchmark so `instantiate` runs on a
//! fresh thread, where no session cache is active — the same builds every
//! trial made before inputs were cached.

use petal_apps::blackscholes::BlackScholes;
use petal_apps::convolution::SeparableConvolution;
use petal_apps::poisson::Poisson2D;
use petal_apps::sort::Sort;
use petal_apps::strassen::Strassen;
use petal_apps::svd::Svd;
use petal_apps::tridiagonal::Tridiagonal;
use petal_apps::{cached, Benchmark, Instance};
use petal_core::{Config, Program};
use petal_gpu::profile::MachineProfile;
use petal_tuner::{Autotuner, FarmSettings, Tuned, TunerSettings};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, Weak};

fn smoke_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(BlackScholes::new(4_096)),
        Box::new(Poisson2D::new(32, 3)),
        Box::new(SeparableConvolution::new(96, 5)),
        Box::new(Sort::new(2_048)),
        Box::new(Strassen::new(64)),
        Box::new(Svd::new(32, 0.15)),
        Box::new(Tridiagonal::new(1_024)),
    ]
}

/// One probe fetch: a weak handle to the entry and whether it was built.
type ProbeLog = Arc<Mutex<Vec<(Weak<String>, bool)>>>;

/// What a wrapper adds around the wrapped benchmark's `instantiate`.
#[derive(Clone)]
enum Wrap {
    /// Instantiate on a fresh thread: no session cache is active there.
    Uncached,
    /// Fetch a probe entry from the session cache first, logging a weak
    /// handle to it and whether it had to be built.
    Probe(ProbeLog),
}

struct Wrapped {
    inner: Box<dyn Benchmark>,
    wrap: Wrap,
}

impl Benchmark for Wrapped {
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
        match &self.wrap {
            Wrap::Uncached => std::thread::scope(|s| {
                s.spawn(|| self.inner.instantiate(machine, cfg)).join().expect("instantiate")
            }),
            Wrap::Probe(log) => {
                let mut built = false;
                let entry = cached(&self.spec(), || {
                    built = true;
                    self.spec()
                });
                log.lock().expect("probe log").push((Arc::downgrade(&entry), built));
                self.inner.instantiate(machine, cfg)
            }
        }
    }

    fn resized(&self, size: u64) -> Option<Box<dyn Benchmark>> {
        let inner = self.inner.resized(size)?;
        Some(Box::new(Wrapped { inner, wrap: self.wrap.clone() }))
    }

    fn dynamic_config_keys(&self) -> Vec<String> {
        self.inner.dynamic_config_keys()
    }
}

fn tuner<'a>(
    bench: &'a dyn Benchmark,
    machine: &MachineProfile,
    threads: usize,
    shards: usize,
) -> Autotuner<'a> {
    let farm = FarmSettings {
        threads,
        shards,
        shard_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_petal-shard"))),
        ..FarmSettings::sequential()
    };
    let settings = TunerSettings { seed: 0x1a9e7, farm, ..TunerSettings::smoke() };
    Autotuner::new(bench, machine, settings)
}

fn tune(bench: &dyn Benchmark, machine: &MachineProfile, threads: usize, shards: usize) -> Tuned {
    tuner(bench, machine, threads, shards).run()
}

#[test]
fn cached_inputs_tune_bit_identically_to_uncached_ones() {
    let machine = MachineProfile::desktop();
    for bench in smoke_benchmarks() {
        let name = bench.name().to_owned();
        let bench = Wrapped { inner: bench, wrap: Wrap::Uncached };
        let reference = tune(&bench, &machine, 1, 0);
        let bench = bench.inner;
        for (threads, shards) in [(1, 0), (4, 0), (1, 2), (4, 2)] {
            let got = tune(&*bench, &machine, threads, shards);
            let at = format!("{name} at threads={threads} shards={shards}");
            assert_eq!(got.config, reference.config, "{at}");
            assert_eq!(got.time_secs.to_bits(), reference.time_secs.to_bits(), "{at}");
            let (g, r) = (&got.stats, &reference.stats);
            assert_eq!(g.tuning_secs.to_bits(), r.tuning_secs.to_bits(), "{at}");
            assert_eq!((g.trials, g.rejected, g.kicks), (r.trials, r.rejected, r.kicks), "{at}");
        }
    }
}

#[test]
fn the_session_builds_each_size_once_and_releases_it_after_run() {
    let machine = MachineProfile::laptop();
    for threads in [1, 4] {
        let log = Arc::new(Mutex::new(Vec::new()));
        let bench = Wrapped {
            inner: Box::new(BlackScholes::new(4_096)),
            wrap: Wrap::Probe(Arc::clone(&log)),
        };
        // The tuner (and its farm) stays alive: `run` itself must end the
        // session.
        let mut tuner = tuner(&bench, &machine, threads, 0);
        let tuned = tuner.run();
        let log = log.lock().expect("probe log");
        let builds = log.iter().filter(|(_, built)| *built).count();
        let sizes = TunerSettings::smoke().size_schedule.len();
        assert_eq!(log.len(), tuned.stats.trials, "one probe per trial");
        assert_eq!(builds, sizes, "one build per input size, threads={threads}");
        assert!(
            log.iter().all(|(weak, _)| weak.upgrade().is_none()),
            "cached entries outlived Autotuner::run (threads={threads})"
        );
    }
}
