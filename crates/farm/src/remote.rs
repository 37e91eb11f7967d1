//! The remote-pool client: [`crate::EvalFarm`]'s connection to a
//! `petal-farmd` dispatcher.
//!
//! A [`RemotePool`] speaks the socket flavor of the [`crate::wire`]
//! protocol as a *client*: `HELLO` exchange (version negotiation), one
//! `INIT` naming the `(benchmark, machine)` session, then batches of
//! `JOB` records answered by `RESULT` records. Unlike the pipe protocol,
//! results may arrive **in any order** — the dispatcher fans jobs out to
//! an elastic worker fleet and relays answers as they land — so the
//! client files each `RESULT` by its echoed index and returns the batch
//! in submission order. That reordering is the entire client-side
//! contribution to determinism; everything else (re-pricing, merge) is
//! the same parent-side code every other backend uses.
//!
//! Worker churn is invisible here by design: the dispatcher re-queues a
//! lost worker's jobs internally and the client just sees the results
//! arrive. Since wire version 4 a bounced *dispatcher* is survivable
//! too: the dispatcher hands the client a `SESSION` token after `READY`,
//! and on a transport failure mid-batch the client reconnects (bounded
//! exponential backoff with jitter, overall deadline), presents the
//! token in a `RESUME`, and re-submits only its unanswered jobs. The
//! dispatcher's dedup (`Fresh`/`Duplicate`/`Stale` verdicts plus a
//! per-session result log) makes the replay idempotent, so the batch —
//! and therefore `Tuned.config` and the whole trajectory — stays
//! bit-identical across the bounce. Only an unresumable failure (no
//! token, expired session, exhausted deadline) surfaces as a
//! [`ShardError`], and [`crate::EvalFarm`] answers that by reconnecting
//! and re-running the batch (sound because jobs are pure).

use crate::dispatch::Dispatch;
use crate::net::{Endpoint, FarmStream};
use crate::shard::ShardError;
use crate::wire::{
    client_hello, HandshakeError, LineReader, LineWriter, Message, RESUME_WIRE_VERSION,
    WIRE_VERSION,
};
use crate::{EvalJob, JobOutcome};
use petal_gpu::profile::MachineProfile;
use std::io::BufReader;
use std::time::{Duration, Instant};

/// How long [`RemotePool::connect`] keeps retrying an endpoint that is
/// not (yet) accepting — covers tuner-before-dispatcher bring-up races.
const CONNECT_PATIENCE: Duration = Duration::from_secs(10);

/// Overall deadline for resuming a session after a transport failure:
/// the dispatcher gets this long to come back before the client gives
/// up and surfaces the error.
const RESUME_DEADLINE: Duration = Duration::from_secs(60);

/// First reconnect backoff step; doubles per attempt up to
/// [`RESUME_BACKOFF_CAP`], plus a little jitter so a fleet of resuming
/// clients does not stampede the reborn dispatcher in lockstep.
const RESUME_BACKOFF_START: Duration = Duration::from_millis(50);

/// Ceiling on the exponential reconnect backoff.
const RESUME_BACKOFF_CAP: Duration = Duration::from_secs(2);

/// How a single resume attempt failed: `Transient` keeps the backoff
/// loop going, `Fatal` (session refused, version lost) gives up now.
enum ResumeFail {
    Transient(ShardError),
    Fatal(ShardError),
}

/// A connected, initialized client session against a `petal-farmd`
/// dispatcher, usable as the farm's dispatch backend.
pub struct RemotePool {
    reader: LineReader<BufReader<FarmStream>>,
    writer: LineWriter<FarmStream>,
    /// Session key: the benchmark spec and machine the dispatcher was
    /// initialized with; a mismatch forces a fresh session.
    key: (String, MachineProfile),
    endpoint: Endpoint,
    /// Resume credentials from the dispatcher's `SESSION` record, when
    /// the negotiated wire version supports them.
    token: Option<(u64, u64)>,
    /// Absolute wire index of the next batch's first job. Indices are
    /// absolute (never reset per batch) so `(session, index)` uniquely
    /// names a job for the session's whole life — the property that
    /// makes post-resume re-submission dedupable on the dispatcher.
    base: u64,
}

impl std::fmt::Debug for RemotePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemotePool")
            .field("endpoint", &self.endpoint)
            .field("bench", &self.key.0)
            .field("machine", &self.key.1.codename)
            .finish_non_exhaustive()
    }
}

impl RemotePool {
    /// Connect to the dispatcher at `endpoint`, negotiate a wire version,
    /// and open a `(bench_spec, machine)` evaluation session.
    ///
    /// # Errors
    /// Connect failures (after `CONNECT_PATIENCE` of retries), version
    /// negotiation failures, and any protocol violation in the handshake.
    pub fn connect(
        endpoint_str: &str,
        bench_spec: &str,
        machine: &MachineProfile,
    ) -> Result<RemotePool, ShardError> {
        let endpoint = Endpoint::parse(endpoint_str).map_err(ShardError::new)?;
        let stream = FarmStream::connect_retry(&endpoint, CONNECT_PATIENCE)
            .map_err(|e| ShardError::new(format!("connecting to farmd at {endpoint}: {e}")))?;
        let (reader, writer) = stream
            .into_lines()
            .map_err(|e| ShardError::new(format!("cloning farmd connection at {endpoint}: {e}")))?;
        let mut pool = RemotePool {
            reader,
            writer,
            key: (bench_spec.to_owned(), machine.clone()),
            endpoint,
            token: None,
            base: 0,
        };
        let negotiated = client_hello(&mut pool.writer, &mut pool.reader)
            .map_err(|e| ShardError::new(format!("farmd at {}: {e}", pool.endpoint)))?;

        // Session handshake, same as a pipe worker: INIT → READY.
        pool.send(&Message::Init {
            version: WIRE_VERSION,
            bench_spec: bench_spec.to_owned(),
            machine: Box::new(machine.clone()),
        })?;
        match pool.recv()? {
            Message::Ready { version } if version == WIRE_VERSION => {}
            Message::Ready { version } => {
                return Err(ShardError::new(format!(
                    "farmd opened the session at wire version {version}, \
                     this build speaks {WIRE_VERSION}"
                )));
            }
            Message::Goodbye { reason } => {
                return Err(ShardError::new(format!("farmd refused the session: {reason}")));
            }
            other => {
                return Err(ShardError::new(format!("farmd answered INIT with {other:?}")));
            }
        }
        // A resume-capable dispatcher follows READY with the session's
        // credentials; older dispatchers never send them.
        if negotiated >= RESUME_WIRE_VERSION {
            match pool.recv()? {
                Message::Session { token, nonce } => pool.token = Some((token, nonce)),
                other => {
                    return Err(ShardError::new(format!("farmd answered READY with {other:?}")));
                }
            }
        }
        Ok(pool)
    }

    /// Re-attach to the dispatcher after a transport failure, retrying
    /// with jittered exponential backoff until [`RESUME_DEADLINE`].
    fn resume(&mut self) -> Result<(), ShardError> {
        let (token, nonce) = self
            .token
            .ok_or_else(|| ShardError::new("farmd session has no resume token".to_owned()))?;
        let start = Instant::now();
        let mut backoff = RESUME_BACKOFF_START;
        let mut last = String::from("never attempted");
        while start.elapsed() < RESUME_DEADLINE {
            match self.try_resume(token, nonce) {
                Ok(()) => return Ok(()),
                Err(ResumeFail::Fatal(e)) => return Err(e),
                Err(ResumeFail::Transient(e)) => last = e.to_string(),
            }
            // Jitter only perturbs *timing*, never results, so wall-clock
            // entropy is safe here despite the determinism contract.
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| u64::from(d.subsec_nanos()));
            std::thread::sleep(backoff + Duration::from_millis(nanos % 50));
            backoff = (backoff * 2).min(RESUME_BACKOFF_CAP);
        }
        Err(ShardError::new(format!(
            "farmd session {token} could not be resumed within {RESUME_DEADLINE:?}; \
             last error: {last}"
        )))
    }

    /// One resume attempt: dial, HELLO, `RESUME`, expect `READY` +
    /// `SESSION`. Leaves the fresh connection installed on success.
    fn try_resume(&mut self, token: u64, nonce: u64) -> Result<(), ResumeFail> {
        let transient = |e: ShardError| ResumeFail::Transient(e);
        let (reader, writer) =
            FarmStream::connect(&self.endpoint).and_then(FarmStream::into_lines).map_err(|e| {
                transient(ShardError::new(format!(
                    "reconnecting to farmd at {}: {e}",
                    self.endpoint
                )))
            })?;
        // Install the fresh halves before the handshake so `send`/`recv`
        // use them; a failed handshake just leaves them to be replaced by
        // the next attempt.
        self.reader = reader;
        self.writer = writer;
        let v = client_hello(&mut self.writer, &mut self.reader).map_err(|e| {
            let e_at = ShardError::new(format!("farmd at {} during resume: {e}", self.endpoint));
            match e {
                HandshakeError::Skew(_) => ResumeFail::Fatal(e_at),
                _ => ResumeFail::Transient(e_at),
            }
        })?;
        if v < RESUME_WIRE_VERSION {
            return Err(ResumeFail::Fatal(ShardError::new(format!(
                "farmd at {} no longer speaks a resume-capable wire version",
                self.endpoint
            ))));
        }
        self.send(&Message::Resume { token, nonce }).map_err(transient)?;
        match self.recv().map_err(transient)? {
            Message::Ready { .. } => {}
            Message::Goodbye { reason } => {
                return Err(ResumeFail::Fatal(ShardError::new(format!(
                    "farmd refused to resume the session: {reason}"
                ))));
            }
            other => {
                return Err(ResumeFail::Transient(ShardError::new(format!(
                    "farmd answered RESUME with {other:?}"
                ))));
            }
        }
        match self.recv().map_err(transient)? {
            Message::Session { token: t, nonce: n } if t == token && n == nonce => Ok(()),
            other => Err(ResumeFail::Transient(ShardError::new(format!(
                "farmd confirmed the resume with {other:?}"
            )))),
        }
    }

    fn send(&mut self, msg: &Message) -> Result<(), ShardError> {
        self.writer
            .send(msg)
            .map_err(|e| ShardError::new(format!("writing to farmd at {}: {e}", self.endpoint)))
    }

    fn recv(&mut self) -> Result<Message, ShardError> {
        self.reader
            .recv()
            .map_err(|e| ShardError::new(format!("reading from farmd at {}: {e}", self.endpoint)))?
            .ok_or_else(|| {
                ShardError::new(format!("farmd at {} closed the connection", self.endpoint))
            })
    }
}

impl Drop for RemotePool {
    fn drop(&mut self) {
        // Best-effort graceful close so the dispatcher retires the
        // session instead of logging a dropped client.
        let _ = self.send(&Message::Done);
        self.writer.get_ref().shutdown();
    }
}

impl Dispatch for RemotePool {
    fn matches(&self, bench_spec: &str, machine: &MachineProfile) -> bool {
        self.key.0 == bench_spec && &self.key.1 == machine
    }

    /// Ship the whole batch, then collect `RESULT`s in whatever order the
    /// dispatcher's workers produce them, filing each by its index.
    ///
    /// Writing everything up front is deadlock-free because the
    /// dispatcher buffers the queue in memory (it is not a pipe peer with
    /// a bounded buffer and a blocked write of its own) — flow control
    /// toward workers is the dispatcher's job.
    ///
    /// Jobs travel with *absolute* indices (`base + i`). On a transport
    /// failure mid-batch the client resumes the session (see [`module
    /// docs`](self)) and re-submits only the still-unanswered indices;
    /// the dispatcher re-serves anything it already answered from its
    /// result log and dedups anything still queued or in flight, so the
    /// filed outcomes are identical to an unbounced run.
    fn evaluate(
        &mut self,
        jobs: &[EvalJob],
        _effective: usize,
    ) -> Result<Vec<JobOutcome>, ShardError> {
        let with_outstanding = |mut e: ShardError, outcomes: &[Option<JobOutcome>]| {
            e.outstanding =
                outcomes.iter().enumerate().filter(|(_, o)| o.is_none()).map(|(i, _)| i).collect();
            e
        };
        let base = self.base;
        self.base += jobs.len() as u64;
        let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
        let mut remaining = jobs.len();
        // Set once a resume happens mid-batch: replays may then echo a
        // result we already filed, which is tolerated iff bit-identical.
        let mut resumed = false;
        loop {
            // (Re-)submit every unanswered job: the whole batch on the
            // first pass, only the outstanding tail after a resume.
            let mut transport: Option<ShardError> = None;
            for (i, job) in jobs.iter().enumerate().filter(|(i, _)| outcomes[*i].is_none()) {
                if let Err(e) =
                    self.send(&Message::Job { index: base + i as u64, job: job.clone() })
                {
                    transport = Some(e);
                    break;
                }
            }
            while transport.is_none() && remaining > 0 {
                let msg = match self.recv() {
                    Ok(m) => m,
                    Err(e) => {
                        transport = Some(e);
                        break;
                    }
                };
                match msg {
                    Message::Result { index, outcome } => {
                        let rel = index.checked_sub(base).map(|r| r as usize);
                        let slot = rel.and_then(|r| outcomes.get_mut(r)).ok_or_else(|| {
                            ShardError::new(format!(
                                "farmd answered job {index}, batch is {base}..{}",
                                base + jobs.len() as u64
                            ))
                        })?;
                        match slot {
                            Some(prev) if resumed && *prev == outcome => {
                                // Replay of a result that raced the bounce;
                                // identical by the determinism contract.
                            }
                            Some(_) => {
                                return Err(ShardError::new(format!(
                                    "farmd answered job {index} twice{}",
                                    if resumed { " with different outcomes" } else { "" }
                                )));
                            }
                            None => {
                                *slot = Some(outcome);
                                remaining -= 1;
                            }
                        }
                    }
                    Message::Goodbye { reason } => {
                        return Err(with_outstanding(
                            ShardError::new(format!("farmd ended the session: {reason}")),
                            &outcomes,
                        ));
                    }
                    other => {
                        return Err(with_outstanding(
                            ShardError::new(format!("farmd sent {other:?} mid-batch")),
                            &outcomes,
                        ));
                    }
                }
            }
            let Some(e) = transport else {
                return Ok(outcomes.into_iter().map(|o| o.expect("all results filed")).collect());
            };
            // Transport failure (dispatcher bounce, broken socket): try
            // to resume the session and replay the outstanding tail.
            if self.token.is_none() {
                return Err(with_outstanding(e, &outcomes));
            }
            if let Err(resume_err) = self.resume() {
                let chained = ShardError::new(format!("{e}; {resume_err}"));
                return Err(with_outstanding(chained, &outcomes));
            }
            resumed = true;
        }
    }
}
