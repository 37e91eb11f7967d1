//! The shard front-end: a pool of `petal-shard` worker *processes*.
//!
//! The (crate-private) `ShardPool` spawns N workers with
//! [`std::process::Command`], speaks
//! the [`crate::wire`] protocol over their stdin/stdout pipes, assigns
//! jobs round-robin by submission index (`job i → worker i mod effective`)
//! and hands raw outcomes back to [`crate::EvalFarm`]'s submission-order
//! merge — the same merge the in-process paths use, so compile re-pricing
//! (and therefore the tuning result) is bit-identical at any shard count.
//!
//! Workers are stateless with respect to pricing: they report each trial's
//! charged compile events verbatim and never see the warm-kernel or
//! IR-cache sets. A pool is keyed by `(benchmark spec, machine)` and is
//! respawned when either changes; within one tuning run it persists across
//! generation batches.
//!
//! **Worker loss is survivable.** Because every job is a pure function of
//! its [`crate::EvalJob`], a worker that dies mid-batch (crash, kill, bad
//! deploy) just has its outstanding jobs re-queued to the surviving
//! workers; the outcome vector — and therefore the tuning result — is
//! unchanged. Only when *every* worker is gone does
//! [`evaluate`](crate::dispatch::Dispatch::evaluate) return a structured
//! [`ShardError`] naming the
//! last failed worker and the jobs still outstanding, so the caller can
//! respawn a pool and retry.

use crate::wire::{LineReader, LineWriter, Message, WIRE_VERSION};
use crate::{EvalJob, JobOutcome};
use petal_gpu::profile::MachineProfile;
use std::collections::VecDeque;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// A dispatch failure: worker spawn/IO problems or protocol violations.
///
/// Carries structured context — which worker failed and which batch jobs
/// were still unanswered — so a retry layer (farmd's re-queue, or
/// [`crate::EvalFarm`]'s pool respawn) can recover mechanically instead
/// of parsing prose, and an operator reading the message can see exactly
/// what was lost.
#[derive(Debug)]
pub struct ShardError {
    /// Human-readable description.
    pub message: String,
    /// Index of the worker at fault (pool-local), when one is known.
    pub worker: Option<usize>,
    /// Submission indices of batch jobs still unanswered when the error
    /// was raised (empty outside `evaluate`). These — and only these —
    /// need re-dispatching.
    pub outstanding: Vec<usize>,
}

impl ShardError {
    /// New error with no worker/job context.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        ShardError { message: message.into(), worker: None, outstanding: Vec::new() }
    }

    /// New error attributed to worker `w`.
    #[must_use]
    pub fn at_worker(w: usize, message: impl Into<String>) -> Self {
        ShardError { message: message.into(), worker: Some(w), outstanding: Vec::new() }
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard farm error: {}", self.message)?;
        if let Some(w) = self.worker {
            write!(f, " (worker {w})")?;
        }
        if !self.outstanding.is_empty() {
            write!(f, "; {} jobs outstanding: {:?}", self.outstanding.len(), self.outstanding)?;
        }
        Ok(())
    }
}

impl std::error::Error for ShardError {}

fn io_err(context: &str, e: &std::io::Error) -> ShardError {
    ShardError::new(format!("{context}: {e}"))
}

/// Locate the `petal-shard` worker binary.
///
/// Resolution order:
/// 1. an explicit path from [`crate::FarmSettings::shard_bin`];
/// 2. the `PETAL_SHARD_BIN` environment variable;
/// 3. a `petal-shard` binary next to the current executable, or one
///    directory above it (covers `target/<profile>/deps/test-*` binaries
///    looking up to `target/<profile>/petal-shard`).
///
/// # Errors
/// When no candidate exists on disk — the message tells the operator to
/// `cargo build -p petal_shard` or set `PETAL_SHARD_BIN`.
pub fn resolve_shard_bin(explicit: Option<&Path>) -> Result<PathBuf, ShardError> {
    if let Some(p) = explicit {
        return Ok(p.to_path_buf());
    }
    if let Some(p) = std::env::var_os("PETAL_SHARD_BIN") {
        return Ok(PathBuf::from(p));
    }
    let exe_name = format!("petal-shard{}", std::env::consts::EXE_SUFFIX);
    if let Ok(exe) = std::env::current_exe() {
        let mut dir = exe.parent();
        for _ in 0..2 {
            if let Some(d) = dir {
                let candidate = d.join(&exe_name);
                if candidate.is_file() {
                    return Ok(candidate);
                }
                dir = d.parent();
            }
        }
    }
    Err(ShardError::new(
        "petal-shard binary not found; build it with \
         `cargo build -p petal_shard` or point PETAL_SHARD_BIN \
         (or FarmSettings::shard_bin) at it",
    ))
}

/// One spawned worker process, framed by the wire's reusable line
/// writer and reader, so steady-state dispatch (one `JOB` out, one
/// `RESULT` read back per trial) allocates nothing on the parent side.
#[derive(Debug)]
struct Worker {
    child: Child,
    stdin: LineWriter<ChildStdin>,
    stdout: LineReader<BufReader<ChildStdout>>,
}

impl Worker {
    fn send(&mut self, msg: &Message) -> Result<(), ShardError> {
        self.stdin.send(msg).map_err(|e| io_err("writing to shard worker", &e))
    }

    fn recv(&mut self) -> Result<Message, ShardError> {
        self.stdout.recv().map_err(|e| io_err("reading from shard worker", &e))?.ok_or_else(|| {
            ShardError::new(
                "shard worker closed its pipe early (it may have \
                 crashed; check its stderr above)",
            )
        })
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Best-effort clean shutdown: DONE, close stdin, reap. A worker
        // that already died is reaped all the same; errors are ignored
        // because drop runs on both success and failure paths.
        let _ = self.send(&Message::Done);
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A pool of initialized `petal-shard` worker processes for one
/// `(benchmark, machine)` session. Workers that die stay dead (their
/// slot is `None`) until the pool itself is respawned.
#[derive(Debug)]
pub(crate) struct ShardPool {
    workers: Vec<Option<Worker>>,
    /// Session key: the benchmark spec and machine this pool was
    /// initialized with; a mismatch forces a respawn.
    key: (String, MachineProfile),
}

impl ShardPool {
    /// Spawn and handshake `count` workers for `(bench_spec, machine)`.
    pub(crate) fn spawn(
        bin: &Path,
        count: usize,
        bench_spec: &str,
        machine: &MachineProfile,
    ) -> Result<ShardPool, ShardError> {
        let init = Message::Init {
            version: WIRE_VERSION,
            bench_spec: bench_spec.to_owned(),
            machine: Box::new(machine.clone()),
        };
        let mut workers = Vec::with_capacity(count);
        for i in 0..count.max(1) {
            let mut child = Command::new(bin)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| {
                    io_err(&format!("spawning shard worker {i} ({})", bin.display()), &e)
                })?;
            let at = |msg: String| ShardError::at_worker(i, msg);
            let Some(stdin) = child.stdin.take() else {
                return Err(at("spawned without a piped stdin".to_owned()));
            };
            let Some(stdout) = child.stdout.take() else {
                return Err(at("spawned without a piped stdout".to_owned()));
            };
            let mut worker = Worker {
                child,
                stdin: LineWriter::new(stdin),
                stdout: LineReader::new(BufReader::new(stdout)),
            };
            worker.send(&init).map_err(|e| at(e.message))?;
            match worker.recv().map_err(|e| at(e.message))? {
                Message::Ready { version } if version == WIRE_VERSION => {}
                Message::Ready { version } => {
                    return Err(at(format!(
                        "shard worker speaks wire version {version}, parent speaks {WIRE_VERSION}"
                    )));
                }
                other => return Err(at(format!("answered INIT with {other:?}"))),
            }
            workers.push(Some(worker));
        }
        Ok(ShardPool { workers, key: (bench_spec.to_owned(), machine.clone()) })
    }

    /// Workers still alive.
    fn survivors(&self) -> usize {
        self.workers.iter().filter(|w| w.is_some()).count()
    }

    /// Retire worker `w` after `cause`, re-queueing its unanswered jobs
    /// (`outstanding[w]`) onto the front of `todo` in submission order.
    /// The returned error is only raised if no workers survive.
    fn retire(
        &mut self,
        w: usize,
        cause: ShardError,
        outstanding: &mut [VecDeque<usize>],
        todo: &mut VecDeque<usize>,
    ) -> ShardError {
        self.workers[w] = None; // drop reaps the child
        while let Some(i) = outstanding[w].pop_back() {
            todo.push_front(i);
        }
        eprintln!(
            "petal-farm: shard worker {w} lost ({}); re-queueing its jobs to survivors",
            cause.message
        );
        ShardError { worker: Some(w), ..cause }
    }

    /// Read the next RESULT from worker `w`, which must answer `expected`
    /// (workers reply strictly in arrival order). Every failure names the
    /// worker, so a dead process in a large pool is identifiable.
    fn read_result(&mut self, w: usize, expected: usize) -> Result<JobOutcome, ShardError> {
        let at = |msg: String| ShardError::at_worker(w, msg);
        let worker = self.workers[w].as_mut().expect("reading from a live worker");
        match worker.recv().map_err(|e| at(e.message))? {
            Message::Result { index, outcome } if index == expected as u64 => Ok(outcome),
            Message::Result { index, .. } => {
                Err(at(format!("answered job {index} when {expected} was expected")))
            }
            other => Err(at(format!("answered JOB with {other:?}"))),
        }
    }
}

impl crate::dispatch::Dispatch for ShardPool {
    fn matches(&self, bench_spec: &str, machine: &MachineProfile) -> bool {
        self.key.0 == bench_spec && &self.key.1 == machine
    }

    /// Evaluate a batch: `jobs[i]` goes to worker `i mod effective`, and
    /// outcomes come back in submission order.
    ///
    /// Writes and reads are interleaved with a bounded number of
    /// outstanding jobs per worker (`MAX_OUTSTANDING`), so a batch of
    /// any size can never deadlock on full OS pipe buffers: the parent
    /// only blocks writing when a worker's queue is short, and only
    /// blocks reading results that worker is guaranteed to produce.
    ///
    /// A worker that dies mid-batch has its unanswered jobs re-queued to
    /// the survivors (jobs are pure, so the outcomes are identical);
    /// only the loss of *every* worker aborts the batch, with the
    /// unanswered submission indices in [`ShardError::outstanding`].
    fn evaluate(
        &mut self,
        jobs: &[EvalJob],
        effective: usize,
    ) -> Result<Vec<JobOutcome>, ShardError> {
        /// Cap on un-read jobs queued at one worker. Keeps worst-case
        /// bytes in flight per pipe (jobs out, results back) comfortably
        /// under the smallest common pipe buffer (64 KiB on Linux) even
        /// with multi-kilobyte config texts.
        const MAX_OUTSTANDING: usize = 8;

        let effective = effective.clamp(1, self.workers.len().max(1));
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        // Jobs not yet submitted, in submission order (re-queued jobs
        // return to the front so they are retried first).
        let mut todo: VecDeque<usize> = (0..jobs.len()).collect();
        // Per-worker FIFO of submitted-but-unread job indices.
        let mut outstanding: Vec<VecDeque<usize>> = vec![VecDeque::new(); self.workers.len()];
        // The error that killed the last worker, for the all-dead report.
        let mut last_loss: Option<ShardError> = None;

        let all_dead = |pool: &ShardPool,
                        todo: &VecDeque<usize>,
                        outcomes: &[Option<JobOutcome>],
                        last: &Option<ShardError>| {
            let mut unanswered: Vec<usize> = todo.iter().copied().collect();
            unanswered
                .extend(outcomes.iter().enumerate().filter(|(_, o)| o.is_none()).map(|(i, _)| i));
            unanswered.sort_unstable();
            unanswered.dedup();
            debug_assert_eq!(pool.survivors(), 0);
            ShardError {
                message: format!(
                    "every shard worker is gone (last loss: {})",
                    last.as_ref().map_or("unknown", |e| e.message.as_str())
                ),
                worker: last.as_ref().and_then(|e| e.worker),
                outstanding: unanswered,
            }
        };

        loop {
            // Submission phase: place pending jobs on live workers with
            // queue room. The healthy-path placement is the historical
            // `i mod effective` round-robin; a dead target falls through
            // to the next live worker (deterministically, by scanning
            // forward from the target).
            'submit: while let Some(&i) = todo.front() {
                let target = i % effective;
                let Some(w) = (0..self.workers.len())
                    .map(|k| (target + k) % self.workers.len())
                    .find(|&w| self.workers[w].is_some() && outstanding[w].len() < MAX_OUTSTANDING)
                else {
                    break 'submit; // every live worker is full (or none live)
                };
                todo.pop_front();
                let msg = Message::Job { index: i as u64, job: jobs[i].clone() };
                match self.workers[w].as_mut().expect("live worker").send(&msg) {
                    Ok(()) => outstanding[w].push_back(i),
                    Err(e) => {
                        // The job we failed to write is outstanding too.
                        todo.push_front(i);
                        last_loss = Some(self.retire(w, e, &mut outstanding, &mut todo));
                    }
                }
            }

            // Completion check: everything answered?
            if outcomes.iter().all(Option::is_some) {
                return Ok(outcomes.into_iter().map(|o| o.expect("checked above")).collect());
            }

            // Drain phase: read one result from the live worker with the
            // deepest queue (keeps every pipeline moving). If no live
            // worker holds outstanding jobs, either every worker died or
            // the submit phase is stuck with zero survivors.
            let Some(w) = (0..self.workers.len())
                .filter(|&w| self.workers[w].is_some() && !outstanding[w].is_empty())
                .max_by_key(|&w| outstanding[w].len())
            else {
                return Err(all_dead(self, &todo, &outcomes, &last_loss));
            };
            let expected = outstanding[w].front().copied().expect("non-empty queue");
            match self.read_result(w, expected) {
                Ok(outcome) => {
                    outstanding[w].pop_front();
                    outcomes[expected] = Some(outcome);
                }
                Err(e) => {
                    last_loss = Some(self.retire(w, e, &mut outstanding, &mut todo));
                    if self.survivors() == 0 {
                        return Err(all_dead(self, &todo, &outcomes, &last_loss));
                    }
                }
            }
        }
    }
}
