//! The benchmark's workloads and one pass over a workload: every tune of
//! its (benchmark, machine) pairs at one tuner seed.

use crate::trace::{Recorder, Traced};
use petal_apps::{all_benchmarks, Benchmark};
use petal_gpu::profile::MachineProfile;
use petal_registry::{DirStore, StoredEntry};
use petal_tuner::{Autotuner, FarmSettings, Tuned, TunerSettings, WarmStart};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold tunes of the data-parallel benchmarks on Desktop, one farm
    /// thread.
    DataparallelDesktop,
    /// Cold tunes of the recursive-DAG benchmarks on Server, two farm
    /// threads.
    RecursiveServer,
    /// The Fig. 7 migration loop (cold Laptop tune, registry hand-off,
    /// warm Server re-tune) over two `petal-shard` worker processes.
    MigrateSharded,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::DataparallelDesktop, Workload::RecursiveServer, Workload::MigrateSharded];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::DataparallelDesktop => "dataparallel-desktop",
            Workload::RecursiveServer => "recursive-server",
            Workload::MigrateSharded => "migrate-sharded",
        }
    }

    /// Parse a `--workload` value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmarks it tunes, by `Benchmark::name`, at
    /// `petal_apps::all_benchmarks()` sizes.
    #[must_use]
    pub fn benchmark_names(self) -> &'static [&'static str] {
        match self {
            Workload::DataparallelDesktop => {
                &["Black-Scholes", "Poisson2D SOR", "SeparableConvolution", "Tridiagonal Solver"]
            }
            Workload::RecursiveServer => &["Sort", "Strassen", "SVD"],
            Workload::MigrateSharded => {
                &["Black-Scholes", "Poisson2D SOR", "SVD", "Tridiagonal Solver"]
            }
        }
    }

    /// Tuner seeds one measured run covers. Each pass tunes every pair at
    /// one seed; averaging over several seeds keeps a run's figures from
    /// hanging on one search trajectory.
    #[must_use]
    pub fn seed_slots(self) -> usize {
        match self {
            Workload::DataparallelDesktop | Workload::MigrateSharded => 12,
            Workload::RecursiveServer => 3,
        }
    }

    /// Farm settings of the measured passes.
    #[must_use]
    pub fn farm(self, shard_bin: &Path) -> FarmSettings {
        match self {
            Workload::DataparallelDesktop => FarmSettings::sequential(),
            Workload::RecursiveServer => FarmSettings { threads: 2, ..FarmSettings::sequential() },
            Workload::MigrateSharded => FarmSettings {
                shard_bin: Some(shard_bin.to_path_buf()),
                ..FarmSettings::sharded(2)
            },
        }
    }
}

/// The tuner seed of seed slot `slot` in a run started with `seed`. Slot 0
/// is `seed` itself, so a run at the default seed starts with the
/// standard search.
#[must_use]
pub fn slot_seed(seed: u64, slot: usize) -> u64 {
    seed.wrapping_add((slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A registry directory under the benchmark's scratch directory, removed
/// (with everything in it) when dropped — also while a panic unwinds.
#[derive(Debug)]
pub struct TempRegistry {
    store: DirStore,
}

impl TempRegistry {
    /// Create a fresh, empty registry directory inside `parent`.
    ///
    /// # Errors
    /// When the directory cannot be created.
    pub fn create(parent: &Path) -> Result<Self, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("registry-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirStore::open(&dir).map_err(|e| e.to_string())?;
        Ok(TempRegistry { store })
    }

    /// The store.
    #[must_use]
    pub fn store(&self) -> &DirStore {
        &self.store
    }
}

impl Drop for TempRegistry {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.store.dir());
    }
}

/// The registry entry that stores `tuned`, the result of tuning `bench`
/// for `machine`.
#[must_use]
pub fn stored_entry(machine: &MachineProfile, bench: &dyn Benchmark, tuned: &Tuned) -> StoredEntry {
    StoredEntry {
        machine: machine.clone(),
        bench_spec: bench.spec(),
        size: bench.input_size(),
        config: tuned.config.clone(),
        time_secs: tuned.time_secs,
        source: "tunebench".to_owned(),
    }
}

/// Everything a workload's passes need, built before the first tune.
pub struct Workbench {
    /// The workload.
    pub workload: Workload,
    /// Its benchmarks, in [`Workload::benchmark_names`] order.
    pub benches: Vec<Arc<dyn Benchmark>>,
    /// The machine cold tunes run on.
    pub cold_machine: MachineProfile,
    /// The machine warm re-tunes run on ([`Workload::MigrateSharded`]).
    pub warm_machine: MachineProfile,
    /// Where temporary registries go.
    pub scratch: PathBuf,
}

impl Workbench {
    /// Build the benchmarks and machine profiles: the benchmark's set-up.
    /// Temporary registries are made per pass under `scratch`, so their
    /// cost counts in the pass, not here: a directory's creation time on
    /// a shared host swings by several times from minute to minute and
    /// would drown the set-up work this figure is meant to catch.
    ///
    /// # Errors
    /// When a benchmark is missing.
    pub fn build(workload: Workload, scratch: &Path) -> Result<Self, String> {
        let mut all: Vec<Option<Box<dyn Benchmark>>> =
            all_benchmarks().into_iter().map(Some).collect();
        let benches = workload
            .benchmark_names()
            .iter()
            .map(|name| {
                let slot = all.iter_mut().find(|b| b.as_ref().is_some_and(|b| b.name() == *name));
                let bench =
                    slot.and_then(Option::take).ok_or(format!("no benchmark named {name}"))?;
                Ok(Arc::from(bench))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let cold_machine = match workload {
            Workload::DataparallelDesktop => MachineProfile::desktop(),
            Workload::RecursiveServer => MachineProfile::server(),
            Workload::MigrateSharded => MachineProfile::laptop(),
        };
        Ok(Workbench {
            workload,
            benches,
            cold_machine,
            warm_machine: MachineProfile::server(),
            scratch: scratch.to_path_buf(),
        })
    }

    /// The machine `tune` ran on.
    #[must_use]
    pub fn machine(&self, tune: &Tune) -> &MachineProfile {
        if tune.warm {
            &self.warm_machine
        } else {
            &self.cold_machine
        }
    }
}

/// One `Autotuner::run` of a pass.
#[derive(Debug, Clone)]
pub struct Tune {
    /// Index into [`Workbench::benches`].
    pub bench: usize,
    /// Codename of the machine it tuned for.
    pub machine: String,
    /// Whether it was warm-started from the registry.
    pub warm: bool,
    /// Host seconds of `Autotuner::run`.
    pub wall_s: f64,
    /// The result, or why there is none (a panic, a registry error).
    pub result: Result<Tuned, String>,
}

/// Every tune of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Tuner seed.
    pub seed: u64,
    /// Host seconds of the whole pass (for the migration loop this
    /// includes the registry calls).
    pub wall_s: f64,
    /// The tunes, in run order.
    pub tunes: Vec<Tune>,
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panic".to_owned())
}

struct PassRunner<'a> {
    work: &'a Workbench,
    settings: TunerSettings,
    rec: Option<&'a Arc<Recorder>>,
    tunes: Vec<Tune>,
}

impl PassRunner<'_> {
    fn tune(&mut self, bench: usize, machine: &MachineProfile, warm: Option<WarmStart>) -> &Tune {
        let index = self.tunes.len();
        let inner = &self.work.benches[bench];
        let traced;
        let b: &dyn Benchmark = match self.rec {
            Some(rec) => {
                rec.set_tune(index);
                traced = Traced::new(Arc::clone(inner), Arc::clone(rec));
                &traced
            }
            None => &**inner,
        };
        let warm_started = warm.is_some();
        let settings = TunerSettings { warm_start: warm, ..self.settings.clone() };
        let span_start = self.rec.map(|r| r.now());
        let mut wall_s = 0.0;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut tuner = Autotuner::new(b, machine, settings);
            let start = Instant::now();
            let tuned = tuner.run();
            wall_s = start.elapsed().as_secs_f64();
            tuned
        }))
        .map_err(|p| format!("tuning panicked: {}", panic_text(&*p)));
        if let (Some(rec), Some(start)) = (self.rec, span_start) {
            rec.span("tune", None, start, rec.now());
        }
        let machine = machine.codename.clone();
        self.tunes.push(Tune { bench, machine, warm: warm_started, wall_s, result });
        &self.tunes[index]
    }

    fn failed(&mut self, bench: usize, warm: bool, why: String) {
        let m = if warm { &self.work.warm_machine } else { &self.work.cold_machine };
        let machine = m.codename.clone();
        self.tunes.push(Tune { bench, machine, warm, wall_s: 0.0, result: Err(why) });
    }

    /// Cold tune on the cold machine, store it, look it up for the warm
    /// machine and re-tune there from the donor, then store that too.
    fn migrate(&mut self, bench: usize, store: &DirStore) {
        let (cold_m, warm_m) = (&self.work.cold_machine, &self.work.warm_machine);
        let b = &self.work.benches[bench];
        let (spec, size) = (b.spec(), b.input_size());
        let Ok(cold) = self.tune(bench, cold_m, None).result.clone() else {
            return self.failed(bench, true, "no cold tune to migrate".to_owned());
        };
        if let Err(e) = store.put(&stored_entry(cold_m, &**b, &cold)) {
            return self.failed(bench, true, format!("registry put: {e}"));
        }
        let donor = match store.lookup(warm_m, &spec, size) {
            Ok(Some(m)) => WarmStart {
                config: m.entry.config,
                source: format!("registry:{}:{}", m.tier, m.entry.machine.codename),
            },
            Ok(None) => return self.failed(bench, true, "registry lookup missed".to_owned()),
            Err(e) => return self.failed(bench, true, format!("registry lookup: {e}")),
        };
        let put = match &self.tune(bench, warm_m, Some(donor)).result {
            Ok(warm) => store.put(&stored_entry(warm_m, &**b, warm)).err(),
            Err(_) => None,
        };
        if let Some(e) = put {
            self.tunes.last_mut().expect("warm tune pushed").result =
                Err(format!("registry put: {e}"));
        }
    }
}

/// Run one pass: every tune of the workload at tuner seed `seed` on
/// `farm`. With a recorder, each benchmark is wrapped in [`Traced`].
#[must_use]
pub fn run_pass(
    work: &Workbench,
    seed: u64,
    farm: &FarmSettings,
    rec: Option<&Arc<Recorder>>,
) -> Pass {
    let settings = TunerSettings { seed, farm: farm.clone(), ..TunerSettings::standard() };
    let mut runner = PassRunner { work, settings, rec, tunes: Vec::new() };
    let start = Instant::now();
    match work.workload {
        Workload::DataparallelDesktop | Workload::RecursiveServer => {
            for bench in 0..work.benches.len() {
                runner.tune(bench, &work.cold_machine, None);
            }
        }
        Workload::MigrateSharded => match TempRegistry::create(&work.scratch) {
            Ok(registry) => {
                for bench in 0..work.benches.len() {
                    runner.migrate(bench, registry.store());
                }
            }
            Err(e) => {
                for bench in 0..work.benches.len() {
                    runner.failed(bench, false, format!("temp registry: {e}"));
                }
            }
        },
    }
    Pass { seed, wall_s: start.elapsed().as_secs_f64(), tunes: runner.tunes }
}

/// Whether two tuning results are the same search outcome: config,
/// virtual times (bit for bit) and trial accounting.
#[must_use]
pub fn same_outcome(a: &Tuned, b: &Tuned) -> bool {
    a.config == b.config
        && a.time_secs.to_bits() == b.time_secs.to_bits()
        && a.stats.tuning_secs.to_bits() == b.stats.tuning_secs.to_bits()
        && a.stats.trials == b.stats.trials
        && a.stats.rejected == b.stats.rejected
        && a.stats.kicks == b.stats.kicks
        && a.stats.repair_generations == b.stats.repair_generations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        // Beside the test binary, inside the build directory.
        let exe = std::env::current_exe().unwrap();
        let dir = exe.parent().unwrap().join(format!("scratch-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn temp_registry_is_removed_after_use() {
        let parent = scratch("ok");
        let dir = {
            let reg = TempRegistry::create(&parent).unwrap();
            let b = petal_apps::tridiagonal::Tridiagonal::new(64);
            let machine = MachineProfile::laptop();
            let config = b.program(&machine).default_config(&machine);
            let entry = StoredEntry {
                machine,
                bench_spec: b.spec(),
                size: b.input_size(),
                config,
                time_secs: 1.0,
                source: "test".to_owned(),
            };
            reg.store().put(&entry).unwrap();
            assert_eq!(std::fs::read_dir(reg.store().dir()).unwrap().count(), 1);
            reg.store().dir().to_path_buf()
        };
        assert!(!dir.exists());
        std::fs::remove_dir_all(parent).unwrap();
    }

    #[test]
    fn temp_registry_is_removed_when_a_panic_unwinds() {
        let parent = scratch("panic");
        let mut seen = None;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let reg = TempRegistry::create(&parent).unwrap();
            seen = Some(reg.store().dir().to_path_buf());
            std::fs::write(reg.store().dir().join("partial.tmp"), "x").unwrap();
            panic!("tune failed");
        }));
        assert!(caught.is_err());
        assert!(!seen.unwrap().exists());
        std::fs::remove_dir_all(parent).unwrap();
    }

    #[test]
    fn temp_registries_do_not_collide() {
        let parent = scratch("many");
        let a = TempRegistry::create(&parent).unwrap();
        let b = TempRegistry::create(&parent).unwrap();
        assert_ne!(a.store().dir(), b.store().dir());
        drop((a, b));
        assert_eq!(std::fs::read_dir(&parent).unwrap().count(), 0);
        std::fs::remove_dir_all(parent).unwrap();
    }

    #[test]
    fn workbench_resolves_every_workload() {
        let parent = scratch("bench");
        for w in Workload::ALL {
            let work = Workbench::build(w, &parent).unwrap();
            let names: Vec<&str> = work.benches.iter().map(|b| b.name()).collect();
            assert_eq!(names, w.benchmark_names());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(std::fs::read_dir(&parent).unwrap().count(), 0);
        std::fs::remove_dir_all(parent).unwrap();
    }

    #[test]
    fn slot_zero_is_the_run_seed() {
        assert_eq!(slot_seed(0xa11ce, 0), 0xa11ce);
        assert_ne!(slot_seed(0xa11ce, 1), slot_seed(0xa11ce + 1, 1));
    }
}
