//! # petal-farmd — the socket-served tuning-farm dispatcher
//!
//! `petal-farmd` turns the single-box evaluation farm into a service: it
//! listens on TCP and/or unix-domain sockets, admits **workers**
//! (`petal-shard --connect`) into a heartbeat-monitored fleet, serves
//! **clients** (a tuner with `FarmSettings::endpoint` set), and pumps
//! jobs from client sessions to whichever workers are alive — re-queueing
//! a lost worker's outstanding jobs to survivors so churn never fails a
//! batch. With `--registry <dir>` it additionally hosts the tuned-config
//! registry: **registry clients** (a `petal_registry::RemoteStore`)
//! speak wire v3's `REG_GET`/`REG_PUT` against a dispatcher-side
//! `DirStore`, whose keep-best merge runs under one store lock so
//! concurrent publishes from the whole fleet converge deterministically.
//! See `docs/farmd.md` for the protocol lifecycle and the determinism
//! argument, and `docs/registry.md` for the served-store topology.
//!
//! ## Why churn cannot perturb results
//!
//! The dispatcher never evaluates, prices, or reorders anything
//! semantically: jobs are pure functions of their [`petal_farm::EvalJob`]
//! and every `RESULT` is keyed by the client's submission index, so the
//! client's submission-order merge (where all compile re-pricing lives)
//! sees the same values no matter which worker answered, how often a job
//! was retried, or in what order answers arrived. The dispatcher's only
//! obligations are *exactly-once forwarding* per index (the fleet's
//! FIFO + verdicts) and *eventual completion* (re-queue on loss) —
//! scheduling is free to be elastic.
//!
//! ## Threading model
//!
//! Everything is std-only and lock-disciplined rather than async:
//!
//! * one **accept thread** per listener, polling with a stop flag;
//! * one **reader thread** per connection (see `conn`), reading with a
//!   socket timeout so shutdown is prompt;
//! * one **scheduler thread** that assigns queued jobs and expires
//!   silent workers, woken by a condvar on any state change;
//! * all shared state behind one [`Mutex`] (`Inner`), and every socket
//!   write behind a per-connection mutex **outside** the global lock, so
//!   a slow peer can never stall the dispatcher. Every connection also
//!   carries a socket **write timeout**, so a wedged peer whose receive
//!   buffer fills turns into a write error (and the worker-drain /
//!   session-detach path) instead of parking a thread forever.
//!
//! ## Crash safety
//!
//! With `--journal <dir>` ([`FarmdOptions::journal`]) the dispatcher
//! appends every session/job lifecycle event to a durable, wire-codec
//! journal (see `journal`); a restarted dispatcher replays it to the
//! exact pre-crash queue/session state, workers reconnect and drain the
//! recovered backlog, and v4 clients re-attach their sessions with
//! `RESUME` — the tuning loop finishes with results bit-identical to an
//! unbounced run. See `docs/farmd.md` § "Crash recovery & journal
//! format".

#![warn(missing_docs)]

mod conn;
pub mod fleet;
mod journal;
pub mod proxy;

use conn::LineWriter;
use fleet::{Ack, Fleet, JobKey};
use journal::Journal;
use petal_farm::net::{Endpoint, FarmListener};
use petal_farm::wire::{Message, WIRE_VERSION};
use petal_farm::{EvalJob, JobOutcome};
use petal_gpu::profile::MachineProfile;
use petal_registry::{entry_from_wire, entry_to_wire, ConfigStore, DirStore};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Dispatcher tuning knobs.
#[derive(Debug, Clone)]
pub struct FarmdOptions {
    /// A worker silent for longer than this is drained and its jobs
    /// re-queued. Workers heartbeat well under it (250 ms by default).
    pub deadline: Duration,
    /// Scheduler wake period when idle (it is also condvar-woken on
    /// every state change, so this only bounds expiry latency).
    pub poll: Duration,
    /// How long queued jobs may wait with **zero** ready workers before
    /// their sessions are closed with a GOODBYE. This is the elastic
    /// grace window: workers joining within it pick up the backlog;
    /// after it, clients get a diagnostic instead of blocking forever on
    /// an empty fleet.
    pub starvation: Duration,
    /// When set, host the tuned-config registry at this directory:
    /// registry clients' `REG_GET`/`REG_PUT` requests are answered from a
    /// [`DirStore`] opened here, with keep-best merge serialized under
    /// the dispatcher's store lock. `None` bounces registry requests
    /// with a GOODBYE.
    pub registry: Option<PathBuf>,
    /// When set, journal every session/job lifecycle event to this
    /// directory and replay it on the next start, so a killed
    /// dispatcher resumes mid-batch instead of vaporizing its sessions.
    pub journal: Option<PathBuf>,
    /// How long a detached v4 session (client disconnected, `RESUME`
    /// still possible) is kept before being closed for good. Bounds the
    /// memory a crashed client can pin.
    pub session_linger: Duration,
}

impl Default for FarmdOptions {
    fn default() -> Self {
        FarmdOptions {
            deadline: Duration::from_secs(2),
            poll: Duration::from_millis(50),
            starvation: Duration::from_secs(30),
            registry: None,
            journal: None,
            session_linger: Duration::from_secs(60),
        }
    }
}

/// A point-in-time snapshot of dispatcher state, for logs and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmdStats {
    /// Registered workers (both ready and draining).
    pub workers: usize,
    /// Workers currently eligible for assignments.
    pub ready: usize,
    /// Open client sessions.
    pub sessions: usize,
    /// Jobs queued and not yet assigned.
    pub queued: usize,
    /// Jobs assigned to workers and unanswered.
    pub inflight: usize,
    /// Jobs re-queued due to worker loss, lifetime total.
    pub requeues: u64,
    /// Results forwarded to clients, lifetime total.
    pub completed: u64,
}

/// One queued (not yet assigned) job.
struct Pending {
    session: u64,
    index: u64,
    job: EvalJob,
}

/// One open client session.
struct Session {
    bench_spec: String,
    machine: MachineProfile,
    /// Resume secret handed to v4 clients in their SESSION record.
    nonce: u64,
    /// `None` while detached: the client is gone but the session (and
    /// its queued/in-flight work) survives awaiting a RESUME.
    writer: Option<Arc<Mutex<LineWriter>>>,
    /// Bumped on every attach. A reader thread that noticed its
    /// connection die only detaches/closes if the epoch still matches —
    /// otherwise a newer connection already owns the session.
    epoch: u64,
    /// Whether the client negotiated wire v4: detach-on-disconnect,
    /// duplicate-index suppression and done-result re-serving all key
    /// off this, so a v≤3 client sees exactly the old behavior.
    resumable: bool,
    /// Outcomes already forwarded (resumable sessions only), re-served
    /// when a resumed client re-submits an index the crash already
    /// answered.
    done: BTreeMap<u64, JobOutcome>,
    /// When the session detached, for the linger reaper.
    detached_since: Option<Instant>,
}

/// All mutable dispatcher state, behind the one global lock.
struct Inner {
    fleet: Fleet,
    /// Write handles of registered workers, by fleet id.
    worker_writers: BTreeMap<u64, Arc<Mutex<LineWriter>>>,
    sessions: BTreeMap<u64, Session>,
    next_session: u64,
    /// Unassigned jobs, FIFO; re-queued jobs go back to the *front* so
    /// recovery work is retried before new work.
    queue: VecDeque<Pending>,
    /// Payloads of assigned jobs, so a lost worker's inflight keys can be
    /// turned back into queue entries.
    inflight_jobs: BTreeMap<JobKey, EvalJob>,
    /// When the queue first became non-empty with zero ready workers;
    /// cleared the moment either condition lapses.
    starved_since: Option<Instant>,
    requeues: u64,
    completed: u64,
    /// The durable journal, when `--journal` is set. Inside the global
    /// lock so appends serialize with the state changes they record.
    journal: Option<Journal>,
}

/// State shared by every dispatcher thread.
pub(crate) struct Shared {
    inner: Mutex<Inner>,
    /// Woken on any state change the scheduler cares about (job queued,
    /// worker joined/lost, session closed).
    wake: Condvar,
    pub(crate) stop: AtomicBool,
    opts: FarmdOptions,
    /// The hosted tuned-config store, when this dispatcher serves one.
    /// The mutex serializes whole registry operations, so a `REG_PUT`'s
    /// read-compare-write merge is atomic with respect to every other
    /// client — that is the served keep-best guarantee.
    store: Option<Mutex<DirStore>>,
}

/// One planned burst of sends to a single worker, executed outside the
/// global lock.
struct SendPlan {
    worker: u64,
    writer: Arc<Mutex<LineWriter>>,
    msgs: Vec<Message>,
}

impl Shared {
    // ---- worker-side entry points (called from conn reader threads) ----

    fn notify(&self) {
        self.wake.notify_all();
    }

    pub(crate) fn admit_worker(
        self: &Arc<Self>,
        name: &str,
        slots: u64,
        pid: u64,
        writer: Arc<Mutex<LineWriter>>,
    ) -> u64 {
        let mut inner = self.inner.lock().expect("farmd lock");
        let id = inner.fleet.register(name, slots, pid, Instant::now());
        inner.worker_writers.insert(id, writer);
        drop(inner);
        self.notify();
        id
    }

    pub(crate) fn touch_worker(&self, id: u64, now: Instant) -> bool {
        self.inner.lock().expect("farmd lock").fleet.touch(id, now)
    }

    pub(crate) fn worker_gone(&self, id: u64) -> bool {
        self.inner.lock().expect("farmd lock").fleet.get(id).is_none()
    }

    /// Judge a RESULT. `Some((session, index))` means fresh — forward it;
    /// `None` means it was dropped (duplicate/stale) or the worker was
    /// torn down (disorder).
    pub(crate) fn complete_job(
        self: &Arc<Self>,
        id: u64,
        index: u64,
        now: Instant,
    ) -> Option<(u64, u64)> {
        let mut inner = self.inner.lock().expect("farmd lock");
        inner.fleet.touch(id, now);
        match inner.fleet.complete(id, index) {
            Ack::Fresh(key) => {
                inner.inflight_jobs.remove(&key);
                inner.completed += 1;
                drop(inner);
                self.notify(); // a slot freed up
                Some(key)
            }
            Ack::Duplicate | Ack::Stale => None,
            Ack::Disorder => {
                drop(inner);
                self.lose_worker(id, &format!("RESULT {index} violates FIFO order"), true);
                None
            }
        }
    }

    /// Tear down worker `id`: re-queue everything it held, forget its
    /// writer, optionally send a GOODBYE naming the reason, and close its
    /// socket. Idempotent — the reader thread and the scheduler can both
    /// call it for the same loss.
    pub(crate) fn lose_worker(self: &Arc<Self>, id: u64, reason: &str, send_goodbye: bool) {
        let writer = {
            let mut inner = self.inner.lock().expect("farmd lock");
            let keys = inner.fleet.remove(id);
            if !keys.is_empty() {
                eprintln!(
                    "petal-farmd: worker {id} lost ({reason}); re-queueing {} jobs",
                    keys.len()
                );
            } else if inner.worker_writers.contains_key(&id) {
                eprintln!("petal-farmd: worker {id} left ({reason})");
            }
            inner.requeue(&keys);
            inner.worker_writers.remove(&id)
        };
        if let Some(writer) = writer {
            let mut w = writer.lock().expect("writer lock");
            if send_goodbye {
                let _ = w.send(&Message::Goodbye { reason: reason.to_owned() });
            }
            w.shutdown();
        }
        self.notify();
    }

    /// Forward a fresh RESULT to its session's client (outside the global
    /// lock — only the session writer's own mutex is held while writing).
    /// For resumable sessions the outcome is recorded (and journaled)
    /// **before** the send, so a crash between the two re-serves it on
    /// resume instead of losing it; a detached session just records.
    pub(crate) fn forward_result(self: &Arc<Self>, session: u64, index: u64, outcome: JobOutcome) {
        let writer = {
            let mut inner = self.inner.lock().expect("farmd lock");
            let Some(s) = inner.sessions.get_mut(&session) else {
                return; // session disappeared mid-flight; drop the answer
            };
            let writer = s.writer.clone();
            if s.resumable {
                s.done.insert(index, outcome.clone());
            }
            if let Some(j) = inner.journal.as_mut() {
                j.result(session, index, &outcome);
            }
            writer
        };
        if let Some(writer) = writer {
            let sent = writer
                .lock()
                .expect("writer lock")
                .send(&Message::Result { index, outcome })
                .is_ok();
            if !sent {
                self.client_writer_failed(session, &writer);
            }
        }
    }

    // ---- client-side entry points ----

    /// Open a session; returns its id (the resume token) and nonce.
    pub(crate) fn open_session(
        self: &Arc<Self>,
        bench_spec: &str,
        machine: MachineProfile,
        writer: Arc<Mutex<LineWriter>>,
        resumable: bool,
    ) -> (u64, u64) {
        let mut inner = self.inner.lock().expect("farmd lock");
        let id = inner.next_session;
        inner.next_session += 1;
        let nonce = fresh_nonce(id);
        if let Some(j) = inner.journal.as_mut() {
            j.open_session(id, nonce, bench_spec, &machine);
        }
        inner.sessions.insert(
            id,
            Session {
                bench_spec: bench_spec.to_owned(),
                machine,
                nonce,
                writer: Some(writer),
                epoch: 1,
                resumable,
                done: BTreeMap::new(),
                detached_since: None,
            },
        );
        (id, nonce)
    }

    /// Re-attach a live or journal-recovered session to a new
    /// connection. Returns the new epoch (for the reader's stale-exit
    /// guard) or a GOODBYE-able reason.
    pub(crate) fn resume_session(
        self: &Arc<Self>,
        token: u64,
        nonce: u64,
        writer: Arc<Mutex<LineWriter>>,
    ) -> Result<u64, String> {
        let (old, epoch) = {
            let mut inner = self.inner.lock().expect("farmd lock");
            let Some(s) = inner.sessions.get_mut(&token) else {
                return Err(format!("unknown session {token}; nothing to resume"));
            };
            if !s.resumable || s.nonce != nonce {
                return Err(format!("session {token} does not match the presented credentials"));
            }
            s.epoch += 1;
            s.detached_since = None;
            (s.writer.replace(writer), s.epoch)
        };
        // A superseded live connection (e.g. the client gave up on a
        // stalled socket the dispatcher still thinks is fine) is closed;
        // its reader thread's exit is ignored by the epoch guard.
        if let Some(old) = old {
            old.lock().expect("writer lock").shutdown();
        }
        self.notify();
        Ok(epoch)
    }

    /// The session's benchmark spec, for the resume serve loop.
    pub(crate) fn session_spec(&self, session: u64) -> Option<String> {
        let inner = self.inner.lock().expect("farmd lock");
        inner.sessions.get(&session).map(|s| s.bench_spec.clone())
    }

    pub(crate) fn enqueue_job(self: &Arc<Self>, session: u64, index: u64, job: EvalJob) {
        let done_replay = {
            let inner = self.inner.lock().expect("farmd lock");
            let Some(s) = inner.sessions.get(&session) else {
                return;
            };
            if s.resumable {
                // Idempotent re-submission: an index the crash already
                // answered is re-served from the result log; one that is
                // still queued or in flight is simply not duplicated.
                if let Some(outcome) = s.done.get(&index) {
                    Some((s.writer.clone(), outcome.clone()))
                } else if inner.inflight_jobs.contains_key(&(session, index))
                    || inner.queue.iter().any(|p| p.session == session && p.index == index)
                {
                    return;
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some((writer, outcome)) = done_replay {
            if let Some(writer) = writer {
                let sent = writer
                    .lock()
                    .expect("writer lock")
                    .send(&Message::Result { index, outcome })
                    .is_ok();
                if !sent {
                    self.client_writer_failed(session, &writer);
                }
            }
            return;
        }
        let mut inner = self.inner.lock().expect("farmd lock");
        if !inner.sessions.contains_key(&session) {
            return;
        }
        if let Some(j) = inner.journal.as_mut() {
            j.enqueue(session, index, &job);
        }
        inner.queue.push_back(Pending { session, index, job });
        drop(inner);
        self.notify();
    }

    /// A send through `writer` failed: detach the session if that
    /// writer is still its current one (resumable), close it otherwise.
    /// The `Arc::ptr_eq` guard keeps a failure on a superseded writer
    /// from tearing down a freshly resumed connection.
    fn client_writer_failed(self: &Arc<Self>, session: u64, writer: &Arc<Mutex<LineWriter>>) {
        let close = {
            let mut inner = self.inner.lock().expect("farmd lock");
            let Some(s) = inner.sessions.get_mut(&session) else { return };
            match &s.writer {
                Some(w) if Arc::ptr_eq(w, writer) => {}
                _ => return,
            }
            if s.resumable {
                s.writer = None;
                s.detached_since = Some(Instant::now());
                eprintln!(
                    "petal-farmd: session {session} detached (client write failed); \
                     awaiting resume"
                );
                false
            } else {
                true
            }
        };
        if close {
            self.close_session(session, "client write failed");
        }
    }

    /// A reader thread's connection ended (EOF, error). Resumable
    /// sessions detach and await a RESUME; others close as before. The
    /// epoch guard makes a stale reader's exit a no-op after a resume.
    pub(crate) fn client_gone(self: &Arc<Self>, session: u64, epoch: u64, reason: &str) {
        let close = {
            let mut inner = self.inner.lock().expect("farmd lock");
            let Some(s) = inner.sessions.get_mut(&session) else { return };
            if s.epoch != epoch {
                return; // a newer connection owns this session now
            }
            if s.resumable {
                s.writer = None;
                s.detached_since = Some(Instant::now());
                eprintln!("petal-farmd: session {session} detached ({reason}); awaiting resume");
                false
            } else {
                true
            }
        };
        if close {
            self.close_session(session, reason);
        }
    }

    // ---- registry-side entry points ----

    /// Whether this dispatcher hosts a registry at all.
    pub(crate) fn hosts_registry(&self) -> bool {
        self.store.is_some()
    }

    /// Answer one registry request with the full reply sequence —
    /// `REG_HIT`s first, then the closing `REG_HIT` ack or `REG_MISS`.
    /// Server-side failures become `REG_MISS` reasons with the `error:`
    /// prefix, never a dropped connection; the whole operation runs
    /// under the store lock, so concurrent clients serialize here.
    pub(crate) fn serve_registry_request(&self, msg: &Message) -> Vec<Message> {
        let Some(store) = &self.store else {
            return vec![Message::RegMiss {
                reason: "error: no registry hosted (start petal-farmd with --registry <dir>)"
                    .to_owned(),
            }];
        };
        let store = store.lock().expect("registry store lock");
        let err_miss =
            |e: petal_registry::RegistryError| Message::RegMiss { reason: format!("error: {e}") };
        match msg {
            Message::RegGet { op, bench_spec, size, machine } => match op.as_str() {
                "get" | "exact" => {
                    let Some(machine) = machine else {
                        return vec![Message::RegMiss {
                            reason: format!("error: `{op}` needs a machine profile"),
                        }];
                    };
                    match ConfigStore::lookup(&*store, machine, bench_spec, *size, op == "exact") {
                        Ok(Some(m)) => vec![Message::RegHit {
                            verdict: m.tier.to_string(),
                            distance: m.distance,
                            scaled_from: m.scaled_from,
                            entry: Box::new(entry_to_wire(&m.entry)),
                        }],
                        Ok(None) => vec![Message::RegMiss {
                            reason: format!("no entry for `{bench_spec}` size {size}"),
                        }],
                        Err(e) => vec![err_miss(e)],
                    }
                }
                "ls" => match ConfigStore::ls(&*store) {
                    Ok(listing) => {
                        let mut reason = format!(
                            "{} entries, {} unusable",
                            listing.entries.len(),
                            listing.issues.len()
                        );
                        for issue in &listing.issues {
                            reason.push('\n');
                            reason.push_str(issue);
                        }
                        let mut replies: Vec<Message> = listing
                            .entries
                            .iter()
                            .map(|(_, e)| Message::RegHit {
                                verdict: "ls".to_owned(),
                                distance: 0.0,
                                scaled_from: None,
                                entry: Box::new(entry_to_wire(e)),
                            })
                            .collect();
                        replies.push(Message::RegMiss { reason });
                        replies
                    }
                    Err(e) => vec![err_miss(e)],
                },
                "gc" => match ConfigStore::gc(&*store) {
                    Ok(removed) => {
                        let mut reason = format!("{} files removed", removed.len());
                        for line in &removed {
                            reason.push('\n');
                            reason.push_str(line);
                        }
                        vec![Message::RegMiss { reason }]
                    }
                    Err(e) => vec![err_miss(e)],
                },
                other => vec![Message::RegMiss {
                    reason: format!("error: unknown registry op `{other}`"),
                }],
            },
            Message::RegPut { force, entry } => {
                let entry = entry_from_wire((**entry).clone());
                match ConfigStore::put(&*store, &entry, *force) {
                    // The ack carries whichever entry now wins the key,
                    // so a losing publisher learns the better incumbent
                    // in the same round trip.
                    Ok(outcome) => {
                        match store.get_exact(&entry.machine, &entry.bench_spec, entry.size) {
                            Ok(Some(winner)) => vec![Message::RegHit {
                                verdict: outcome.to_string(),
                                distance: 0.0,
                                scaled_from: None,
                                entry: Box::new(entry_to_wire(&winner)),
                            }],
                            Ok(None) => vec![Message::RegMiss {
                                reason: "error: stored entry vanished before the ack".to_owned(),
                            }],
                            Err(e) => vec![err_miss(e)],
                        }
                    }
                    Err(e) => vec![err_miss(e)],
                }
            }
            _ => vec![Message::RegMiss { reason: "error: not a registry request".to_owned() }],
        }
    }

    /// Retire a session: drop its queued jobs and forget it. Results for
    /// its still-inflight jobs will be dropped on arrival.
    pub(crate) fn close_session(self: &Arc<Self>, session: u64, reason: &str) {
        let mut inner = self.inner.lock().expect("farmd lock");
        if inner.sessions.remove(&session).is_none() {
            return; // already closed by the other path
        }
        if let Some(j) = inner.journal.as_mut() {
            j.close(session);
        }
        inner.queue.retain(|p| p.session != session);
        inner.inflight_jobs.retain(|&(s, _), _| s != session);
        eprintln!("petal-farmd: session {session} closed ({reason})");
        drop(inner);
        self.notify();
    }
}

/// An unguessable-enough resume nonce: SplitMix64 over wall-clock
/// nanoseconds mixed with the session id. It gates accidental
/// cross-session resumes, never feeds any result, so its entropy source
/// cannot perturb determinism.
fn fresh_nonce(session: u64) -> u64 {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0));
    let mut z = t ^ session.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Inner {
    /// Put re-queued job keys back at the *front* of the queue in their
    /// original FIFO order, rehydrating payloads from `inflight_jobs`.
    /// Keys whose session has since closed are dropped.
    fn requeue(&mut self, keys: &[JobKey]) {
        for &(session, index) in keys.iter().rev() {
            if let Some(job) = self.inflight_jobs.remove(&(session, index)) {
                self.requeues += 1;
                self.queue.push_front(Pending { session, index, job });
            }
        }
    }

    /// Plan one scheduler pass: expire silent workers, assign queued
    /// jobs, detect starvation, and reap detached sessions whose resume
    /// window lapsed. Returns the socket work to perform outside the
    /// lock: send plans, worker closes, starved sessions, and lingered
    /// session ids.
    #[allow(clippy::type_complexity)]
    fn plan(
        &mut self,
        now: Instant,
        starvation: Duration,
        linger: Duration,
    ) -> (
        Vec<SendPlan>,
        Vec<(u64, Arc<Mutex<LineWriter>>)>,
        Vec<(u64, Arc<Mutex<LineWriter>>)>,
        Vec<u64>,
    ) {
        // Expiry: drain workers past the heartbeat deadline and reclaim
        // their jobs. Their connections are closed outside the lock; the
        // reader thread's EOF then removes them from the fleet.
        let mut closes = Vec::new();
        for (id, keys) in self.fleet.expire(now) {
            eprintln!(
                "petal-farmd: worker {id} missed its heartbeat deadline; re-queueing {} jobs",
                keys.len()
            );
            self.requeue(&keys);
            if let Some(writer) = self.worker_writers.get(&id) {
                closes.push((id, Arc::clone(writer)));
            }
        }

        // Assignment: drain the queue onto ready workers with free slots.
        // One SendPlan per worker keeps each worker's INIT→JOB ordering
        // while batching lock acquisitions.
        let mut plans: Vec<SendPlan> = Vec::new();
        while let Some(front) = self.queue.front() {
            let session_id = front.session;
            let Some(session) = self.sessions.get(&session_id) else {
                self.queue.pop_front(); // session closed while queued
                continue;
            };
            let Some(worker) = self.fleet.pick(session_id) else { break };
            let pending = self.queue.pop_front().expect("front exists");
            let writer =
                Arc::clone(self.worker_writers.get(&worker).expect("picked worker has a writer"));
            let plan = match plans.iter_mut().find(|p| p.worker == worker) {
                Some(p) => p,
                None => {
                    plans.push(SendPlan { worker, writer, msgs: Vec::new() });
                    plans.last_mut().expect("just pushed")
                }
            };
            if self.fleet.session(worker) != Some(session_id) {
                plan.msgs.push(Message::Init {
                    version: WIRE_VERSION,
                    bench_spec: session.bench_spec.clone(),
                    machine: Box::new(session.machine.clone()),
                });
                self.fleet.set_session(worker, session_id);
            }
            let key = (session_id, pending.index);
            self.fleet.assign(worker, key);
            self.inflight_jobs.insert(key, pending.job.clone());
            if let Some(j) = self.journal.as_mut() {
                j.assign(session_id, pending.index, worker);
            }
            plan.msgs.push(Message::Job { index: pending.index, job: pending.job });
        }

        // Starvation: jobs waiting with an empty fleet. Within the grace
        // window this is just elastic join in progress; past it, sessions
        // with queued work are told so instead of blocking forever.
        let mut starved = Vec::new();
        if self.queue.is_empty() || self.fleet.ready_count() > 0 {
            self.starved_since = None;
        } else {
            let since = *self.starved_since.get_or_insert(now);
            if now.duration_since(since) >= starvation {
                let mut ids: Vec<u64> = self.queue.iter().map(|p| p.session).collect();
                ids.sort_unstable();
                ids.dedup();
                for id in ids {
                    // Detached sessions cannot be told; the linger
                    // reaper below bounds their lifetime instead.
                    if let Some(writer) = self.sessions.get(&id).and_then(|s| s.writer.clone()) {
                        starved.push((id, writer));
                    }
                }
                self.starved_since = None; // re-arm for any later backlog
            }
        }

        // Linger reaping: a detached session whose client never resumed
        // is eventually closed for good (outside the lock, since
        // close_session re-locks).
        let lingered: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.detached_since.is_some_and(|t| now.duration_since(t) >= linger))
            .map(|(&id, _)| id)
            .collect();
        (plans, closes, starved, lingered)
    }
}

/// A running dispatcher: listeners, scheduler, and connection threads.
/// Dropping it shuts everything down.
pub struct Farmd {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    endpoints: Vec<Endpoint>,
}

impl Farmd {
    /// Bind every endpoint and start serving. TCP endpoints may use port
    /// `0`; the resolved endpoints are available from
    /// [`Self::endpoints`].
    ///
    /// # Errors
    /// Any `bind(2)` failure.
    pub fn bind(endpoints: &[Endpoint], opts: FarmdOptions) -> std::io::Result<Farmd> {
        let store = match &opts.registry {
            Some(dir) => {
                Some(Mutex::new(DirStore::open(dir.clone()).map_err(std::io::Error::other)?))
            }
            None => None,
        };
        // Journal recovery: replay the log into sessions (detached,
        // awaiting RESUME) and a queue of every unanswered job, in
        // (session, index) order. Inflight is empty — assignments died
        // with the old process's worker connections.
        let journal = match &opts.journal {
            Some(dir) => Some(Journal::open(dir)?),
            None => None,
        };
        let mut sessions: BTreeMap<u64, Session> = BTreeMap::new();
        let mut queue: VecDeque<Pending> = VecDeque::new();
        let mut next_session = 1;
        if let Some(j) = &journal {
            let state = j.state();
            next_session = state.next_session;
            for (&id, rs) in &state.sessions {
                sessions.insert(
                    id,
                    Session {
                        bench_spec: rs.bench_spec.clone(),
                        machine: rs.machine.clone(),
                        nonce: rs.nonce,
                        writer: None,
                        epoch: 0,
                        resumable: true,
                        done: rs.done.clone(),
                        detached_since: Some(Instant::now()),
                    },
                );
                for (&index, job) in &rs.pending {
                    queue.push_back(Pending { session: id, index, job: job.clone() });
                }
            }
            if !sessions.is_empty() {
                eprintln!(
                    "petal-farmd: recovered {} session(s) with {} queued job(s) from the journal",
                    sessions.len(),
                    queue.len()
                );
            }
        }
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                fleet: Fleet::new(opts.deadline),
                worker_writers: BTreeMap::new(),
                sessions,
                next_session,
                queue,
                inflight_jobs: BTreeMap::new(),
                starved_since: None,
                requeues: 0,
                completed: 0,
                journal,
            }),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            opts,
            store,
        });
        let conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        let mut bound = Vec::new();
        for endpoint in endpoints {
            let listener = FarmListener::bind(endpoint)?;
            bound.push(listener.local_endpoint()?);
            let shared_ = Arc::clone(&shared);
            let conns = Arc::clone(&conn_threads);
            threads.push(std::thread::spawn(move || accept_loop(&shared_, &listener, &conns)));
        }
        let shared_ = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || scheduler_loop(&shared_)));
        Ok(Farmd { shared, threads, conn_threads, endpoints: bound })
    }

    /// The endpoints actually bound (ephemeral TCP ports resolved), in
    /// the order given to [`Self::bind`].
    #[must_use]
    pub fn endpoints(&self) -> &[Endpoint] {
        &self.endpoints
    }

    /// Snapshot the dispatcher's state.
    #[must_use]
    pub fn stats(&self) -> FarmdStats {
        let inner = self.shared.inner.lock().expect("farmd lock");
        FarmdStats {
            workers: inner.fleet.len(),
            ready: inner.fleet.ready_count(),
            sessions: inner.sessions.len(),
            queued: inner.queue.len(),
            inflight: inner.fleet.inflight_total(),
            requeues: inner.requeues,
            completed: inner.completed,
        }
    }

    /// Block until at least `n` workers are ready or `timeout` elapses;
    /// returns whether the fleet reached `n`.
    #[must_use]
    pub fn wait_workers(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.stats().ready >= n {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stop serving: flag every thread down, say goodbye to workers and
    /// clients, close their sockets, and join all threads.
    pub fn shutdown(&mut self) {
        self.stop(true);
    }

    /// Hard stop: close every socket with **no** goodbyes, exactly as a
    /// `SIGKILL` would, and join all threads. Exists so in-process
    /// crash-recovery tests can bounce a journaled dispatcher without
    /// granting peers the graceful-shutdown diagnostics a real crash
    /// never sends. The journal needs no flushing — every append was a
    /// synchronous full-line write.
    pub fn abort(&mut self) {
        self.stop(false);
    }

    fn stop(&mut self, graceful: bool) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return; // second call
        }
        self.shared.wake.notify_all();
        // Goodbyes unblock peers promptly; the socket shutdowns unblock
        // our own reader threads.
        let (workers, clients) = {
            let inner = self.shared.inner.lock().expect("farmd lock");
            (
                inner.worker_writers.values().cloned().collect::<Vec<_>>(),
                inner.sessions.values().filter_map(|s| s.writer.clone()).collect::<Vec<_>>(),
            )
        };
        for writer in workers.iter().chain(&clients) {
            let mut w = writer.lock().expect("writer lock");
            if graceful {
                let _ = w.send(&Message::Goodbye { reason: "dispatcher shutting down".to_owned() });
            }
            w.shutdown();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conn_threads.lock().expect("conn threads lock"));
        for t in conns {
            let _ = t.join();
        }
    }
}

impl Drop for Farmd {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept connections until the stop flag rises, handing each to its own
/// reader thread.
fn accept_loop(
    shared: &Arc<Shared>,
    listener: &FarmListener,
    conn_threads: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let label = listener.local_endpoint().map_or_else(|_| "?".to_owned(), |e| e.to_string());
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.poll_accept() {
            Ok(Some(stream)) => {
                let shared_ = Arc::clone(shared);
                let peer = label.clone();
                let handle = std::thread::spawn(move || conn::serve_conn(&shared_, stream, &peer));
                conn_threads.lock().expect("conn threads lock").push(handle);
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => {
                eprintln!("petal-farmd: accept on {label} failed: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Assign and expire until the stop flag rises. All socket writes happen
/// with the global lock released.
fn scheduler_loop(shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::Relaxed) {
        let (plans, closes, starved, lingered) = {
            let mut inner = shared.inner.lock().expect("farmd lock");
            let (plans, closes, starved, lingered) =
                inner.plan(Instant::now(), shared.opts.starvation, shared.opts.session_linger);
            if plans.is_empty() && closes.is_empty() && starved.is_empty() && lingered.is_empty() {
                // Idle: sleep until state changes or the poll period
                // bounds how stale expiry checks can get.
                let _unused =
                    shared.wake.wait_timeout(inner, shared.opts.poll).expect("farmd lock");
                continue;
            }
            (plans, closes, starved, lingered)
        };
        for session in lingered {
            shared.close_session(session, "resume window expired");
        }
        for (id, writer) in closes {
            let mut w = writer.lock().expect("writer lock");
            let _ = w.send(&Message::Goodbye { reason: "heartbeat deadline missed".to_owned() });
            w.shutdown();
            drop(w);
            // The reader thread will observe the close and finish the
            // teardown (fleet removal) via lose_worker.
            let _ = id;
        }
        for (session, writer) in starved {
            {
                let mut w = writer.lock().expect("writer lock");
                let _ = w.send(&Message::Goodbye {
                    reason: "no workers available for queued jobs".to_owned(),
                });
                w.shutdown();
            }
            shared.close_session(session, "starved: no workers available");
        }
        for plan in plans {
            let ok = {
                let mut w = plan.writer.lock().expect("writer lock");
                plan.msgs.iter().all(|m| w.send(m).is_ok())
            };
            if !ok {
                shared.lose_worker(plan.worker, "write failed", false);
            }
        }
    }
}
