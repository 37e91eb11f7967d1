//! Per-layer measurements of the traced run that need more than spans:
//! replaying recorded trials through `Executor::run` for the engine's
//! counters, the shard wire codec, process dispatch, and the registry.

use crate::stats::median;
use crate::trace::TrialCall;
use crate::workload::{stored_entry, Pass, TempRegistry, Workbench};
use petal_apps::Instance;
use petal_core::executor::Executor;
use petal_farm::wire::{Message, WireEncoder};
use petal_farm::{evaluate_job, job_seed, EvalFarm, EvalJob, FarmSettings, JobOutcome};
use petal_gpu::profile::MachineProfile;
use petal_registry::StoredEntry;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Counters summed over every replayed trial.
#[derive(Debug, Default)]
pub struct Replay {
    /// `RunReport::sched_steps`.
    pub sched_steps: usize,
    /// `RunReport::steals`.
    pub steals: usize,
    /// `RunReport::eligibility_rescans`.
    pub eligibility_rescans: usize,
    /// `ExecReport::lazy_pulls`.
    pub lazy_pulls: usize,
    /// `ExecReport::compile_events` (the simulated device's kernel
    /// compiles, before the farm's re-pricing).
    pub compile_events: usize,
    /// Host seconds inside `Executor::run`.
    pub run_s: f64,
    /// The trials as farm jobs (engine seeds drawn from the pass seed).
    pub jobs: Vec<(usize, EvalJob)>,
    /// Each job's raw outcome, as a worker would send it back.
    pub outcomes: Vec<JobOutcome>,
}

/// Re-run every recorded trial of `pass` on a fresh executor (default
/// engine seed) and sum the engine counters.
///
/// # Errors
/// When a recorded size no longer resizes.
pub fn replay(work: &Workbench, pass: &Pass, trials: &[TrialCall]) -> Result<Replay, String> {
    let mut out = Replay::default();
    for (i, t) in trials.iter().enumerate() {
        let tune = &pass.tunes[t.tune];
        let bench = &work.benches[tune.bench];
        let machine = work.machine(tune);
        let resized;
        let b = if t.size == bench.input_size() {
            &**bench
        } else {
            resized = bench.resized(t.size).ok_or(format!(
                "{} does not resize to {}",
                bench.name(),
                t.size
            ))?;
            &*resized
        };
        let Instance { mut world, plan, check } = b.instantiate(machine, &t.config);
        let mut ex = Executor::new(machine);
        let start = Instant::now();
        let report = ex.run(plan, &mut world);
        out.run_s += start.elapsed().as_secs_f64();
        let engine_seed = job_seed(pass.seed, 0, i as u64);
        out.jobs.push((t.tune, EvalJob { config: t.config.clone(), size: t.size, engine_seed }));
        let outcome = match report {
            Ok(r) => {
                out.sched_steps += r.rt.sched_steps;
                out.steals += r.rt.steals;
                out.eligibility_rescans += r.rt.eligibility_rescans;
                out.lazy_pulls += r.lazy_pulls;
                out.compile_events += r.compile_events.len();
                JobOutcome {
                    fitness: check(&world).ok().map(|()| r.virtual_time_secs()),
                    ran: true,
                    makespan: r.virtual_time_secs(),
                    compiles: r
                        .compile_events
                        .iter()
                        .map(|e| (e.source_hash, e.frontend_secs, e.jit_secs))
                        .collect(),
                }
            }
            Err(_) => JobOutcome { fitness: None, ran: false, makespan: 0.0, compiles: Vec::new() },
        };
        out.outcomes.push(outcome);
    }
    Ok(out)
}

/// Shard wire codec figures, per message.
#[derive(Debug)]
pub struct Wire {
    /// Mean encoded `JOB` line length.
    pub job_bytes: f64,
    /// Mean `WireEncoder::encode_into` time of `JOB` and `RESULT` lines.
    pub encode_us: f64,
    /// Mean `Message::decode` time of the same lines.
    pub decode_us: f64,
}

/// Time the wire codec on the recorded jobs and their outcomes, after
/// checking that every message survives a round trip.
///
/// # Errors
/// When a message does not decode to itself.
pub fn wire(replay: &Replay) -> Result<Wire, String> {
    let msgs: Vec<Message> = (replay.jobs.iter().map(|(_, j)| j.clone()))
        .enumerate()
        .map(|(i, job)| Message::Job { index: i as u64, job })
        .chain(
            replay
                .outcomes
                .iter()
                .enumerate()
                .map(|(i, o)| Message::Result { index: i as u64, outcome: o.clone() }),
        )
        .collect();
    if msgs.is_empty() {
        return Err("no trials were recorded".to_owned());
    }
    let lines: Vec<String> = msgs.iter().map(Message::encode).collect();
    for (m, line) in msgs.iter().zip(&lines) {
        if Message::decode(line).as_ref() != Ok(m) {
            return Err(format!("wire round trip changed a message: {line}"));
        }
    }
    let job_bytes = lines[..replay.jobs.len()].iter().map(String::len).sum::<usize>() as f64;
    let per_msg = |f: &mut dyn FnMut()| {
        let (start, mut rounds) = (Instant::now(), 0u32);
        while rounds < 3 || start.elapsed() < Duration::from_millis(200) {
            f();
            rounds += 1;
        }
        start.elapsed().as_secs_f64() * 1e6 / (f64::from(rounds) * msgs.len() as f64)
    };
    let (mut enc, mut out) = (WireEncoder::default(), String::new());
    let encode_us = per_msg(&mut || {
        for m in &msgs {
            out.clear();
            enc.encode_into(black_box(m), &mut out);
            black_box(&out);
        }
    });
    let decode_us = per_msg(&mut || {
        for line in &lines {
            black_box(Message::decode(black_box(line)).is_ok());
        }
    });
    Ok(Wire { job_bytes: job_bytes / replay.jobs.len() as f64, encode_us, decode_us })
}

/// Process-dispatch figures.
#[derive(Debug)]
pub struct Dispatch {
    /// First one-job `EvalFarm::evaluate` on a fresh two-shard farm, minus
    /// the same job run inline; median of a few farms.
    pub spawn_ms: f64,
    /// Worker time per job added by shard dispatch on a warm two-shard
    /// farm: `(2 × sharded wall − sequential wall) / jobs`, over a batch
    /// of copies of the cheapest recorded job.
    pub job_overhead_us: f64,
}

const SPAWN_REPS: usize = 5;
const BATCH_REPS: usize = 3;
const BATCH_JOBS: usize = 64;

/// Measure shard dispatch with the cheapest recorded job (`trial_secs[i]`
/// is trial `i`'s traced time).
///
/// # Errors
/// When the shard binary is missing or a sharded result differs from the
/// in-process one.
pub fn dispatch(
    work: &Workbench,
    pass: &Pass,
    replay: &Replay,
    trial_secs: &[f64],
    shard_bin: &Path,
) -> Result<Dispatch, String> {
    if !shard_bin.is_file() {
        return Err(format!("petal-shard binary missing at {}", shard_bin.display()));
    }
    let sharded =
        FarmSettings { shard_bin: Some(shard_bin.to_path_buf()), ..FarmSettings::sharded(2) };
    let cheapest = (0..replay.jobs.len())
        .min_by(|&a, &b| trial_secs[a].total_cmp(&trial_secs[b]))
        .ok_or("no trials were recorded")?;
    let tune = &pass.tunes[replay.jobs[cheapest].0];
    let (bench, machine) = (&*work.benches[tune.bench], work.machine(tune));
    let job = &replay.jobs[cheapest].1;
    let mut extra = Vec::new();
    for _ in 0..SPAWN_REPS {
        let mut farm = EvalFarm::new(&sharded, true);
        let start = Instant::now();
        let remote = farm.evaluate(bench, machine, std::slice::from_ref(job));
        let sharded_s = start.elapsed().as_secs_f64();
        drop(farm);
        let start = Instant::now();
        let local = evaluate_job(bench, machine, job);
        extra.push(sharded_s - start.elapsed().as_secs_f64());
        if remote[0].fitness != local.fitness {
            return Err("a sharded job's fitness differs from the inline run".to_owned());
        }
    }

    // A batch of copies of the cheapest job balances the two workers
    // exactly, so what the shards add shows as the difference.
    let batch: Vec<EvalJob> = (0..BATCH_JOBS)
        .map(|k| EvalJob { engine_seed: job_seed(pass.seed, 1, k as u64), ..job.clone() })
        .collect();
    let fitness = |farm: &mut EvalFarm| -> (f64, Vec<Option<f64>>) {
        let start = Instant::now();
        let r = farm.evaluate(bench, machine, &batch);
        (start.elapsed().as_secs_f64(), r.iter().map(|r| r.fitness).collect())
    };
    let mut seq_farm = EvalFarm::new(&FarmSettings::sequential(), true);
    let mut shard_farm = EvalFarm::new(&sharded, true);
    let (_, expected) = fitness(&mut shard_farm); // spawns the workers
    let (mut seq, mut shard) = (Vec::new(), Vec::new());
    for _ in 0..BATCH_REPS {
        let (s, a) = fitness(&mut seq_farm);
        let (p, b) = fitness(&mut shard_farm);
        if a != expected || b != expected {
            return Err("sharded and sequential batches disagree".to_owned());
        }
        seq.push(s);
        shard.push(p);
    }
    let (seq, shard) = (median(&seq).expect("reps > 0"), median(&shard).expect("reps > 0"));
    Ok(Dispatch {
        spawn_ms: median(&extra).expect("reps > 0") * 1e3,
        job_overhead_us: (2.0 * shard - seq) / batch.len() as f64 * 1e6,
    })
}

/// Registry figures, per call.
#[derive(Debug)]
pub struct Registry {
    /// Mean `DirStore::put` of a new entry.
    pub put_ms: f64,
    /// Mean `DirStore::lookup` for another machine (a nearest-machine
    /// match).
    pub lookup_ms: f64,
}

const REGISTRY_REPS: usize = 5;

/// Put every tuned result of `pass` into fresh temporary registries and
/// look each up for another machine.
///
/// # Errors
/// On registry errors, or a lookup that misses.
pub fn registry(work: &Workbench, pass: &Pass) -> Result<Registry, String> {
    let entries: Vec<StoredEntry> = pass
        .tunes
        .iter()
        .filter_map(|t| {
            let tuned = t.result.as_ref().ok()?;
            Some(stored_entry(work.machine(t), &*work.benches[t.bench], tuned))
        })
        .collect();
    if entries.is_empty() {
        return Err("no tuned results to store".to_owned());
    }
    let (mut put_s, mut lookup_s) = (0.0, 0.0);
    for _ in 0..REGISTRY_REPS {
        let reg = TempRegistry::create(&work.scratch)?;
        for e in &entries {
            let start = Instant::now();
            reg.store().put(e).map_err(|e| e.to_string())?;
            put_s += start.elapsed().as_secs_f64();
        }
        for e in &entries {
            let other = if e.machine.codename == "Server" {
                MachineProfile::laptop()
            } else {
                MachineProfile::server()
            };
            let start = Instant::now();
            let hit =
                reg.store().lookup(&other, &e.bench_spec, e.size).map_err(|e| e.to_string())?;
            lookup_s += start.elapsed().as_secs_f64();
            if hit.is_none() {
                return Err(format!("registry lookup missed {}", e.bench_spec));
            }
        }
    }
    let calls = (REGISTRY_REPS * entries.len()) as f64;
    Ok(Registry { put_ms: put_s * 1e3 / calls, lookup_ms: lookup_s * 1e3 / calls })
}
