//! `tunebench`: how many autotuner trials petal runs per host second, end
//! to end and per layer, on three workloads. See `README.md` beside this
//! package for the metrics, the workloads and what each layer figure
//! predicts.
//!
//! `--trace 0` measures the end-to-end metrics over untraced passes for
//! `--seconds` seconds; `--trace 1` runs one traced pass (plus the
//! untraced passes it is checked against) and reports the per-layer
//! metrics. The last line of standard output is one JSON object.

mod layers;
mod pins;
mod stats;
mod trace;
mod workload;

use petal_tuner::{FarmSettings, TunerSettings};
use stats::{geomean, median, peak_rss_mib, percentile, reset_peak_rss, tail_percentile};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Recorder;
use workload::{run_pass, same_outcome, slot_seed, Pass, Workbench, Workload};

const USAGE: &str = "usage: tunebench --workload <dataparallel-desktop|recursive-server|migrate-sharded> \
                     --shard-bin <path> --scratch <dir> [--seed <n>] [--seconds <n>] [--trace <0|1>] \
                     [--print-pins]";

/// Set-ups timed before each pass (and once more after the last);
/// `setup_s` is the median of all of them.
const SETUPS_PER_PASS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    shard_bin: PathBuf,
    scratch: PathBuf,
    print_pins: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut shard_bin, mut scratch) = (None, None, None);
    let mut args = Args {
        workload: Workload::DataparallelDesktop,
        seed: TunerSettings::standard().seed,
        seconds: 45.0,
        trace: false,
        shard_bin: PathBuf::new(),
        scratch: PathBuf::new(),
        print_pins: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                };
            }
            "--shard-bin" => shard_bin = Some(PathBuf::from(value()?)),
            "--scratch" => scratch = Some(PathBuf::from(value()?)),
            "--print-pins" => args.print_pins = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.shard_bin = shard_bin.ok_or("--shard-bin is required")?;
    args.scratch = scratch.ok_or("--scratch is required")?;
    Ok(args)
}

/// One reported figure.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, value, unit, better }
}

/// Why tunes failed, and how many tunes were attempted.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failures: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

struct Report {
    outcome: Outcome,
    metrics: Vec<Metric>,
    text: String,
}

/// A finite number as JSON (a figure that could not be computed, which
/// only happens alongside failures, prints as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

impl Report {
    fn print(&self) {
        print!("{}", self.text);
        let o = &self.outcome;
        let mut distinct = std::collections::BTreeMap::new();
        for why in &o.failures {
            *distinct.entry(why).or_insert(0) += 1;
        }
        for (why, n) in distinct {
            println!("FAILED ({n}x): {why}");
        }
        let share = o.failures.len() as f64 / o.attempted.max(1) as f64;
        println!("failed_share = {share} (of {} tuning runs; lower is better)", o.attempted);
        for m in &self.metrics {
            println!("{} = {} {} ({} is better)", m.name, json_number(m.value), m.unit, m.better);
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            o.failures.is_empty(),
            o.attempted.max(1),
            o.failures.len().min(o.attempted.max(1)),
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn label(work: &Workbench, t: &workload::Tune) -> String {
    let mode = if t.warm { "warm" } else { "cold" };
    format!("{} on {} ({mode})", work.benches[t.bench].name(), t.machine)
}

/// Check one pass's tunes: each produced a result, the tuned config
/// passes the benchmark's reference check, and at the default seed it
/// matches its pin. Returns one verdict per tune.
fn check_pass(
    args: &Args,
    work: &Workbench,
    slot: usize,
    pass: &Pass,
    pin_lines: &mut String,
) -> Vec<Option<String>> {
    let default_seed = args.seed == TunerSettings::standard().seed;
    pass.tunes
        .iter()
        .map(|t| {
            let what = label(work, t);
            let tuned = match &t.result {
                Ok(tuned) => tuned,
                Err(e) => return Some(format!("{what}: {e}")),
            };
            let bench = &work.benches[t.bench];
            if let Err(e) = bench.run_with_config(work.machine(t), &tuned.config) {
                return Some(format!("{what}: tuned config fails its check: {e}"));
            }
            let line =
                pins::pin_line(args.workload.name(), slot, bench.name(), &t.machine, t.warm, tuned);
            let _ = writeln!(pin_lines, "{line}");
            if default_seed && !args.print_pins {
                if let Err(e) = pins::check(pins::PINS, &line) {
                    return Some(format!("{what}: {e}"));
                }
            }
            None
        })
        .collect()
}

/// Compare `other` tune by tune with `base`, the reference pass.
fn check_same(work: &Workbench, base: &Pass, other: &Pass, what: &str, outcome: &mut Outcome) {
    for (a, b) in base.tunes.iter().zip(&other.tunes) {
        if let (Ok(x), Ok(y)) = (&a.result, &b.result) {
            if !same_outcome(x, y) {
                outcome.fail(format!("{}: {what} changed the tuning result", label(work, a)));
            }
        } else if let Err(e) = &b.result {
            outcome.fail(format!("{}: {what}: {e}", label(work, b)));
        }
    }
}

fn measured_run(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::new();
    let time_setups = |setups: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUPS_PER_PASS {
            let start = Instant::now();
            let work = Workbench::build(args.workload, &args.scratch)?;
            setups.push(start.elapsed().as_secs_f64());
            drop(std::hint::black_box(work));
        }
        Ok(())
    };
    let work = Workbench::build(args.workload, &args.scratch)?;
    let farm = args.workload.farm(&args.shard_bin);
    let slots = args.workload.seed_slots();
    let budget = Duration::from_secs_f64(args.seconds);
    // Each pass with the peak resident memory it reached.
    let mut by_slot: Vec<Vec<(Pass, f64)>> = vec![Vec::new(); slots];
    let start = Instant::now();
    // Every seed slot once, then repeats while another pass still fits.
    for n in 0.. {
        time_setups(&mut setups)?;
        if n >= slots && start.elapsed() + start.elapsed() / n as u32 > budget {
            break;
        }
        reset_peak_rss()?;
        let pass = run_pass(&work, slot_seed(args.seed, n % slots), &farm, None);
        by_slot[n % slots].push((pass, peak_rss_mib()?));
    }
    let measured_s = start.elapsed().as_secs_f64();

    let mut outcome = Outcome::default();
    let mut pin_lines = String::new();
    // Host figures are taken per seed slot (median over its repeats) and
    // reported as the median over slots: interference from other work on
    // the host only ever slows a pass, and a median shrugs off the few it
    // hits. The virtual figures are deterministic, so they pool every tune.
    let (mut rates, mut pass_walls, mut rss) = (vec![], vec![], vec![]);
    let (mut tuned_times, mut tuning_secs) = (vec![], 0.0);
    for (slot, passes) in by_slot.iter().enumerate() {
        let first = &passes[0].0;
        let verdicts = check_pass(args, &work, slot, first, &mut pin_lines);
        for (k, (pass, _)) in passes.iter().enumerate() {
            outcome.attempted += pass.tunes.len();
            for ((t, verdict), f) in pass.tunes.iter().zip(&verdicts).zip(&first.tunes) {
                if let Some(why) = verdict {
                    outcome.fail(why.clone());
                } else if k > 0
                    && !matches!((&f.result, &t.result), (Ok(a), Ok(b)) if same_outcome(a, b))
                {
                    outcome.fail(format!(
                        "{}: a repeat at the same seed tuned differently",
                        label(&work, t)
                    ));
                }
            }
        }
        let mut slot_rates = vec![];
        for (j, t) in first.tunes.iter().enumerate() {
            if let Ok(tuned) = &t.result {
                let walls: Vec<f64> = passes.iter().map(|(p, _)| p.tunes[j].wall_s).collect();
                slot_rates
                    .push(tuned.stats.trials as f64 / median(&walls).expect("one pass per slot"));
                tuned_times.push(tuned.time_secs);
                tuning_secs += tuned.stats.tuning_secs;
            }
        }
        rates.extend(geomean(&slot_rates));
        let walls: Vec<f64> = passes.iter().map(|(p, _)| p.wall_s).collect();
        pass_walls.push(median(&walls).expect("one pass per slot"));
        rss.push(
            median(&passes.iter().map(|(_, r)| *r).collect::<Vec<_>>()).expect("one pass per slot"),
        );
    }
    let mid = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let passes: usize = by_slot.iter().map(Vec::len).sum();
    let mut text = format!(
        "tunebench {} seed {}: {passes} passes over {slots} tuner seeds in {measured_s:.2} s, \
         farm threads={} shards={}, {} host threads\n",
        args.workload.name(),
        args.seed,
        farm.threads,
        farm.shards,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    for (slot, passes) in by_slot.iter().enumerate() {
        let walls: Vec<String> = passes.iter().map(|(p, _)| format!("{:.3}", p.wall_s)).collect();
        let _ = writeln!(
            text,
            "  slot {slot} (tuner seed {}): pass wall s {}",
            passes[0].0.seed,
            walls.join(" ")
        );
    }
    if args.print_pins {
        text.push_str(&pin_lines);
    }
    let metrics = vec![
        metric("trials_per_s", mid(&rates), "trials/s", "higher"),
        metric("tune_s", mid(&pass_walls), "s", "lower"),
        metric("setup_s", median(&setups).expect("set-ups were timed"), "s", "lower"),
        metric("peak_rss_mb", mid(&rss), "MiB", "lower"),
        metric("tuned_virtual_s", geomean(&tuned_times).unwrap_or(f64::NAN), "sim_s", "lower"),
        metric("tuning_virtual_s", tuning_secs / slots as f64, "sim_s", "lower"),
    ];
    Ok(Report { outcome, metrics, text })
}

/// Per-trial layer seconds from the spans: (resize, instantiate, exec,
/// check) for each recorded trial, indexed like the recorder's trials.
fn trial_layers(spans: &[trace::Span], trials: usize) -> Vec<[f64; 4]> {
    let mut out = vec![[0.0; 4]; trials];
    for s in spans {
        let Some(trial) = s.trial else { continue };
        let layer = match s.name {
            "resize" => 0,
            "instantiate" => 1,
            "exec" => 2,
            _ => 3,
        };
        out[trial][layer] += s.secs();
    }
    out
}

fn traced_run(args: &Args) -> Result<Report, String> {
    let work = Workbench::build(args.workload, &args.scratch)?;
    let farm = args.workload.farm(&args.shard_bin);
    let sequential = FarmSettings::sequential();
    let mut outcome = Outcome::default();
    let mut pin_lines = String::new();

    let untraced = run_pass(&work, args.seed, &farm, None);
    let plain = (farm != sequential).then(|| run_pass(&work, args.seed, &sequential, None));
    let rec = Arc::new(Recorder::default());
    let traced = run_pass(&work, args.seed, &sequential, Some(&rec));
    let plain = plain.as_ref().unwrap_or(&untraced);

    for why in check_pass(args, &work, 0, &untraced, &mut pin_lines).into_iter().flatten() {
        outcome.fail(why);
    }
    check_same(&work, &untraced, &traced, "tracing", &mut outcome);
    if !std::ptr::eq(plain, &untraced) {
        check_same(&work, &untraced, plain, "one farm thread", &mut outcome);
    }
    outcome.attempted = untraced.tunes.len() * if std::ptr::eq(plain, &untraced) { 2 } else { 3 };

    let spans = rec.spans();
    let calls = rec.trials();
    let layers = trial_layers(&spans, calls.len());
    let trial_secs: Vec<f64> = layers.iter().map(|l| l.iter().sum()).collect();
    let layer_sum = |i: usize| layers.iter().map(|l| l[i]).sum::<f64>();
    let (resize_s, inst_s, exec_s, check_s) =
        (layer_sum(0), layer_sum(1), layer_sum(2), layer_sum(3));
    let wall = |p: &Pass| p.tunes.iter().map(|t| t.wall_s).sum::<f64>();
    let traced_wall = wall(&traced);
    let workers = if farm.shards > 0 { farm.shards } else { farm.threads };

    let replay = layers::replay(&work, &traced, &calls).unwrap_or_else(|e| {
        outcome.fail(format!("replay: {e}"));
        layers::Replay::default()
    });
    let wire = layers::wire(&replay).map_err(|e| outcome.fail(format!("wire: {e}"))).ok();
    let dispatch = layers::dispatch(&work, &traced, &replay, &trial_secs, &args.shard_bin)
        .map_err(|e| outcome.fail(format!("dispatch: {e}")))
        .ok();
    let registry =
        layers::registry(&work, &traced).map_err(|e| outcome.fail(format!("registry: {e}"))).ok();

    let tuned: Vec<&petal_tuner::Tuned> =
        traced.tunes.iter().filter_map(|t| t.result.as_ref().ok()).collect();
    let trials: usize = tuned.iter().map(|t| t.stats.trials).sum();
    let rejected: usize = tuned.iter().map(|t| t.stats.rejected).sum();
    let (tail_p, tail) = tail_percentile(&trial_secs, 10).unwrap_or((f64::NAN, f64::NAN));
    let nan = f64::NAN;

    let mut text = format!(
        "tunebench {} seed {} traced: {} trials recorded, one farm thread; trial.tail_ms is p{tail_p}\n",
        args.workload.name(),
        args.seed,
        calls.len()
    );
    let _ = writeln!(
        text,
        "{:<40} {:>6} {:>8} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "tune", "trials", "wall s", "trials/s", "resize", "inst", "exec", "check", "tuner"
    );
    for (j, t) in traced.tunes.iter().enumerate() {
        let Ok(tuned) = &t.result else { continue };
        let mine: Vec<&[f64; 4]> =
            layers.iter().zip(&calls).filter(|(_, c)| c.tune == j).map(|(l, _)| l).collect();
        let share = |i: usize| 100.0 * mine.iter().map(|l| l[i]).sum::<f64>() / t.wall_s;
        let tuner = 100.0 - (0..4).map(share).sum::<f64>();
        let _ = writeln!(
            text,
            "{:<40} {:>6} {:>8.3} {:>9.1} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            label(&work, t),
            tuned.stats.trials,
            t.wall_s,
            tuned.stats.trials as f64 / t.wall_s,
            share(0),
            share(1),
            share(2),
            share(3),
            tuner
        );
    }
    let _ = writeln!(
        text,
        "untraced tune wall {:.3} s (farm threads={} shards={}), one-thread untraced {:.3} s, traced {traced_wall:.3} s",
        wall(&untraced),
        farm.threads,
        farm.shards,
        wall(plain)
    );
    let spans_path = args.scratch.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    std::fs::write(&spans_path, rec.spans_tsv())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let _ = writeln!(text, "spans written to {}", spans_path.display());

    let metrics = vec![
        metric("apps.instantiate_s", inst_s, "s", "lower"),
        metric("apps.instantiate_share", inst_s / traced_wall, "fraction", "lower"),
        metric("apps.resize_s", resize_s, "s", "lower"),
        metric("apps.check_s", check_s, "s", "lower"),
        metric("exec.run_s", exec_s, "s", "lower"),
        metric("exec.run_share", exec_s / traced_wall, "fraction", "lower"),
        metric("trial.p50_ms", percentile(&trial_secs, 50.0).unwrap_or(nan) * 1e3, "ms", "lower"),
        metric("trial.tail_ms", tail * 1e3, "ms", "lower"),
        metric("exec.lazy_pulls", replay.lazy_pulls as f64, "count", "lower"),
        metric("rt.sched_steps", replay.sched_steps as f64, "count", "lower"),
        metric("rt.sched_steps_per_s", replay.sched_steps as f64 / replay.run_s, "1/s", "higher"),
        metric("rt.steals", replay.steals as f64, "count", "lower"),
        metric("rt.eligibility_rescans", replay.eligibility_rescans as f64, "count", "lower"),
        metric("gpu.compile_events", replay.compile_events as f64, "count", "lower"),
        metric("tuner.self_s", traced_wall - trial_secs.iter().sum::<f64>(), "s", "lower"),
        metric("tuner.trials", trials as f64, "count", "higher"),
        metric("tuner.rejected_share", rejected as f64 / trials.max(1) as f64, "fraction", "lower"),
        metric(
            "tuner.kicks",
            tuned.iter().map(|t| t.stats.kicks).sum::<usize>() as f64,
            "count",
            "lower",
        ),
        metric(
            "tuner.repair_generations",
            tuned.iter().filter_map(|t| t.stats.repair_generations).sum::<usize>() as f64,
            "count",
            "lower",
        ),
        metric(
            "farm.efficiency",
            trial_secs.iter().sum::<f64>() / (workers as f64 * wall(&untraced)),
            "fraction",
            "higher",
        ),
        metric("wire.job_bytes", wire.as_ref().map_or(nan, |w| w.job_bytes), "bytes", "lower"),
        metric("wire.encode_us", wire.as_ref().map_or(nan, |w| w.encode_us), "us", "lower"),
        metric("wire.decode_us", wire.as_ref().map_or(nan, |w| w.decode_us), "us", "lower"),
        metric("dispatch.spawn_ms", dispatch.as_ref().map_or(nan, |d| d.spawn_ms), "ms", "lower"),
        metric(
            "dispatch.job_overhead_us",
            dispatch.as_ref().map_or(nan, |d| d.job_overhead_us),
            "us",
            "lower",
        ),
        metric("registry.put_ms", registry.as_ref().map_or(nan, |r| r.put_ms), "ms", "lower"),
        metric("registry.lookup_ms", registry.as_ref().map_or(nan, |r| r.lookup_ms), "ms", "lower"),
        metric("trace.overhead", traced_wall / wall(plain), "ratio", "lower"),
    ];
    Ok(Report { outcome, metrics, text })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("tunebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let run = std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("{}: {e}", args.scratch.display()))
        .and_then(|()| if args.trace { traced_run(&args) } else { measured_run(&args) });
    match run {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("tunebench: {e}");
            std::process::exit(1);
        }
    }
}
