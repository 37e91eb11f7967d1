//! Per-connection protocol handling: the `HELLO` handshake, then the
//! worker- or client-side serve loop depending on what the peer turns
//! out to be.
//!
//! Every connection gets one reader thread (this module) built over a
//! socket **read timeout**: reads wake every [`READ_TIMEOUT`] to check
//! the dispatcher's stop flag, so shutdown never waits on a silent peer.
//! Writers live behind per-connection mutexes ([`LineWriter`]) shared
//! with the scheduler (worker `INIT`/`JOB` sends) and with other readers
//! (a worker's `RESULT` forwarded to a client), and every send happens
//! **outside** the dispatcher's global lock.

use crate::Shared;
use petal_farm::net::FarmStream;
use petal_farm::wire::{
    negotiate, Message, WireEncoder, WireError, MIN_WIRE_VERSION, RESUME_WIRE_VERSION, WIRE_VERSION,
};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Socket read timeout: the cadence at which reader threads notice the
/// stop flag (and handshake deadlines).
pub(crate) const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Socket write timeout on every dispatcher connection. A peer that
/// stops draining its receive buffer turns a blocked `write(2)` into an
/// error after this long, and the error takes the ordinary loss path
/// (worker drain + re-queue, or client detach) — the scheduler thread
/// must never be parked forever inside a send while holding a writer
/// mutex.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a freshly accepted connection gets to complete its
/// handshake before being dropped as hostile/dead.
const HANDSHAKE_PATIENCE: Duration = Duration::from_secs(10);

/// The write half of one connection: a socket clone plus reusable
/// encode buffers, behind a mutex so whole lines never interleave.
pub(crate) struct LineWriter {
    stream: FarmStream,
    enc: WireEncoder,
    line: String,
}

impl LineWriter {
    pub(crate) fn new(stream: FarmStream) -> Self {
        LineWriter { stream, enc: WireEncoder::default(), line: String::new() }
    }

    pub(crate) fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        self.enc.encode_into(msg, &mut self.line);
        self.line.push('\n');
        self.stream.write_all(self.line.as_bytes())?;
        self.stream.flush()
    }

    /// Unblock the connection's reader thread.
    pub(crate) fn shutdown(&self) {
        self.stream.shutdown();
    }
}

/// What one patient read produced.
enum Incoming {
    /// A decoded message.
    Msg(Message),
    /// Peer closed the connection (EOF, or EOF mid-line).
    Eof,
    /// The dispatcher is shutting down (or a handshake deadline passed).
    Stopped,
}

/// Read one wire line, tolerating read-timeout wakeups: partial bytes
/// accumulate in `buf` across timeouts (the socket timeout can fire
/// mid-line), and each wakeup checks the stop flag and the optional
/// deadline.
fn read_msg(
    reader: &mut BufReader<FarmStream>,
    buf: &mut Vec<u8>,
    shared: &Shared,
    deadline: Option<Instant>,
) -> Result<Incoming, WireError> {
    buf.clear();
    loop {
        match reader.read_until(b'\n', buf) {
            Ok(0) => return Ok(Incoming::Eof),
            Ok(_) if buf.ends_with(b"\n") => {
                let line = std::str::from_utf8(&buf[..buf.len() - 1])
                    .map_err(|_| WireError { message: "record is not UTF-8".to_owned() })?;
                return Message::decode(line).map(Incoming::Msg);
            }
            // A read returning data without a newline means EOF landed
            // mid-line (a truncated frame): treat as a close.
            Ok(_) => return Ok(Incoming::Eof),
            Err(e) if FarmStream::is_timeout(&e) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return Ok(Incoming::Stopped);
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Ok(Incoming::Stopped);
                }
                // Partial bytes (if any) stay in `buf`; keep reading.
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(Incoming::Eof),
        }
    }
}

/// Serve one accepted connection to completion. Runs on its own thread.
pub(crate) fn serve_conn(shared: &Arc<Shared>, stream: FarmStream, peer: &str) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    if write_half.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let writer = Arc::new(Mutex::new(LineWriter::new(write_half)));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();

    let goodbye = |reason: String| {
        let mut w = writer.lock().expect("writer lock");
        let _ = w.send(&Message::Goodbye { reason });
        w.shutdown();
    };

    // Handshake: HELLO in, HELLO out, negotiate. Anything else is
    // answered with a GOODBYE diagnostic — version skew and protocol
    // confusion must never surface as a silent close.
    let deadline = Some(Instant::now() + HANDSHAKE_PATIENCE);
    let theirs = match read_msg(&mut reader, &mut buf, shared, deadline) {
        Ok(Incoming::Msg(Message::Hello { min_version, max_version })) => {
            (min_version, max_version)
        }
        Ok(Incoming::Msg(other)) => {
            return goodbye(format!("expected HELLO first, got {}", tag_of(&other)));
        }
        Ok(Incoming::Eof | Incoming::Stopped) => return,
        Err(e) => return goodbye(format!("bad HELLO: {e}")),
    };
    if writer.lock().expect("writer lock").send(&Message::hello()).is_err() {
        return;
    }
    let negotiated = match negotiate((MIN_WIRE_VERSION, WIRE_VERSION), theirs) {
        Ok(v) => v,
        Err(e) => return goodbye(e.to_string()),
    };

    // Role detection: the first post-HELLO message decides what this
    // connection is.
    match read_msg(&mut reader, &mut buf, shared, deadline) {
        Ok(Incoming::Msg(Message::Register { name, slots, pid })) => {
            serve_worker(shared, reader, buf, &writer, &name, slots, pid, peer);
        }
        Ok(Incoming::Msg(Message::Init { version, bench_spec, machine })) => {
            serve_client(
                shared,
                reader,
                buf,
                &writer,
                version,
                &bench_spec,
                *machine,
                peer,
                negotiated,
            );
        }
        Ok(Incoming::Msg(Message::Resume { token, nonce })) => {
            serve_resumed_client(shared, reader, buf, &writer, token, nonce, peer);
        }
        Ok(Incoming::Msg(first @ (Message::RegGet { .. } | Message::RegPut { .. }))) => {
            if shared.hosts_registry() {
                serve_registry(shared, reader, buf, &writer, first, peer);
            } else {
                goodbye("no registry hosted (start petal-farmd with --registry <dir>)".to_owned());
            }
        }
        Ok(Incoming::Msg(other)) => {
            goodbye(format!(
                "expected REGISTER, INIT, RESUME or a registry request after HELLO, got {}",
                tag_of(&other)
            ));
        }
        Ok(Incoming::Eof | Incoming::Stopped) => {}
        Err(e) => goodbye(format!("bad record after HELLO: {e}")),
    }
}

/// A message's wire tag, for diagnostics.
fn tag_of(msg: &Message) -> &'static str {
    match msg {
        Message::Init { .. } => "INIT",
        Message::Ready { .. } => "READY",
        Message::Job { .. } => "JOB",
        Message::Result { .. } => "RESULT",
        Message::Done => "DONE",
        Message::Hello { .. } => "HELLO",
        Message::Register { .. } => "REGISTER",
        Message::Heartbeat { .. } => "HEARTBEAT",
        Message::Goodbye { .. } => "GOODBYE",
        Message::RegGet { .. } => "REG_GET",
        Message::RegPut { .. } => "REG_PUT",
        Message::RegHit { .. } => "REG_HIT",
        Message::RegMiss { .. } => "REG_MISS",
        Message::Session { .. } => "SESSION",
        Message::Resume { .. } => "RESUME",
    }
}

/// Registry-client serve loop: answer `REG_GET`/`REG_PUT` requests from
/// the hosted store until the client says `DONE` or disconnects. Each
/// request is one synchronous exchange — the store lock inside
/// `serve_registry_request` is what serializes concurrent publishers.
fn serve_registry(
    shared: &Arc<Shared>,
    mut reader: BufReader<FarmStream>,
    mut buf: Vec<u8>,
    writer: &Arc<Mutex<LineWriter>>,
    first: Message,
    peer: &str,
) {
    eprintln!("petal-farmd: registry client connected from {peer}");
    let mut next = Some(first);
    loop {
        let msg = match next.take() {
            Some(m) => m,
            None => match read_msg(&mut reader, &mut buf, shared, None) {
                Ok(Incoming::Msg(m)) => m,
                Ok(Incoming::Eof) => return,
                Ok(Incoming::Stopped) => {
                    let mut w = writer.lock().expect("writer lock");
                    let _ =
                        w.send(&Message::Goodbye { reason: "dispatcher shutting down".to_owned() });
                    w.shutdown();
                    return;
                }
                Err(e) => {
                    let mut w = writer.lock().expect("writer lock");
                    let _ = w.send(&Message::Goodbye { reason: format!("protocol error: {e}") });
                    w.shutdown();
                    return;
                }
            },
        };
        match msg {
            request @ (Message::RegGet { .. } | Message::RegPut { .. }) => {
                let replies = shared.serve_registry_request(&request);
                let mut w = writer.lock().expect("writer lock");
                for reply in &replies {
                    if w.send(reply).is_err() {
                        w.shutdown();
                        return;
                    }
                }
            }
            Message::Done => return,
            Message::Heartbeat { .. } => {}
            other => {
                let mut w = writer.lock().expect("writer lock");
                let _ = w.send(&Message::Goodbye {
                    reason: format!("unexpected {} from registry client", tag_of(&other)),
                });
                w.shutdown();
                return;
            }
        }
    }
}

/// Worker-side serve loop: admit to the fleet, then judge every
/// `RESULT` through it and forward the fresh ones to their sessions.
#[allow(clippy::too_many_arguments)]
fn serve_worker(
    shared: &Arc<Shared>,
    mut reader: BufReader<FarmStream>,
    mut buf: Vec<u8>,
    writer: &Arc<Mutex<LineWriter>>,
    name: &str,
    slots: u64,
    pid: u64,
    peer: &str,
) {
    let id = shared.admit_worker(name, slots, pid, Arc::clone(writer));
    eprintln!("petal-farmd: worker {id} `{name}` joined from {peer} (slots {slots}, pid {pid})");
    loop {
        match read_msg(&mut reader, &mut buf, shared, None) {
            Ok(Incoming::Msg(msg)) => {
                let now = Instant::now();
                match msg {
                    Message::Heartbeat { .. } | Message::Ready { .. } => {
                        if !shared.touch_worker(id, now) {
                            return; // drained while we read; conn is closing
                        }
                    }
                    Message::Result { index, outcome } => {
                        match shared.complete_job(id, index, now) {
                            Some((session, key_index)) => {
                                shared.forward_result(session, key_index, outcome);
                            }
                            None => {
                                // Duplicate/stale answers are dropped;
                                // disorder already tore the worker down.
                                if shared.worker_gone(id) {
                                    return;
                                }
                            }
                        }
                    }
                    Message::Goodbye { reason } => {
                        shared.lose_worker(id, &format!("worker left: {reason}"), false);
                        return;
                    }
                    other => {
                        shared.lose_worker(
                            id,
                            &format!("unexpected {} from worker", tag_of(&other)),
                            true,
                        );
                        return;
                    }
                }
            }
            Ok(Incoming::Eof) => {
                shared.lose_worker(id, "connection closed", false);
                return;
            }
            Ok(Incoming::Stopped) => {
                shared.lose_worker(id, "dispatcher shutting down", true);
                return;
            }
            Err(e) => {
                shared.lose_worker(id, &format!("protocol error: {e}"), true);
                return;
            }
        }
    }
}

/// Client-side serve loop: open a session, enqueue its `JOB`s, and let
/// the scheduler and worker readers push `RESULT`s back through the
/// session's writer.
#[allow(clippy::too_many_arguments)]
fn serve_client(
    shared: &Arc<Shared>,
    reader: BufReader<FarmStream>,
    buf: Vec<u8>,
    writer: &Arc<Mutex<LineWriter>>,
    version: u64,
    bench_spec: &str,
    machine: petal_gpu::profile::MachineProfile,
    peer: &str,
    negotiated: u64,
) {
    // Validate the spec *here*, not on a worker: a bad spec must bounce
    // the client, not cascade through the fleet killing workers.
    if let Err(e) = petal_apps::benchmark_from_spec(bench_spec) {
        let mut w = writer.lock().expect("writer lock");
        let _ =
            w.send(&Message::Goodbye { reason: format!("bad benchmark spec `{bench_spec}`: {e}") });
        w.shutdown();
        return;
    }
    // A client that negotiated the resume-capable wire version gets a
    // session token and survives dispatcher bounces; older clients get
    // the pre-v4 close-on-disconnect behavior.
    let resumable = negotiated >= RESUME_WIRE_VERSION;
    let (session, nonce) = shared.open_session(bench_spec, machine, Arc::clone(writer), resumable);
    eprintln!("petal-farmd: session {session} `{bench_spec}` opened from {peer}");
    // READY echoes the client's INIT version, mirroring the pipe worker.
    // The SESSION credentials follow immediately for resumable clients.
    let sent = {
        let mut w = writer.lock().expect("writer lock");
        w.send(&Message::Ready { version }).is_ok()
            && (!resumable || w.send(&Message::Session { token: session, nonce }).is_ok())
    };
    if !sent {
        // The client never received its token, so nothing can resume
        // this session: close it outright rather than detach.
        shared.close_session(session, "client write failed");
        return;
    }
    client_loop(shared, reader, buf, writer, session, 1);
}

/// Serve a client re-attaching to a detached (or journal-recovered)
/// session with a `RESUME` token instead of a fresh `INIT`.
fn serve_resumed_client(
    shared: &Arc<Shared>,
    reader: BufReader<FarmStream>,
    buf: Vec<u8>,
    writer: &Arc<Mutex<LineWriter>>,
    token: u64,
    nonce: u64,
    peer: &str,
) {
    let epoch = match shared.resume_session(token, nonce, Arc::clone(writer)) {
        Ok(epoch) => epoch,
        Err(reason) => {
            let mut w = writer.lock().expect("writer lock");
            let _ = w.send(&Message::Goodbye { reason });
            w.shutdown();
            return;
        }
    };
    let spec = shared.session_spec(token).unwrap_or_default();
    eprintln!("petal-farmd: session {token} `{spec}` resumed from {peer}");
    let sent = {
        let mut w = writer.lock().expect("writer lock");
        w.send(&Message::Ready { version: WIRE_VERSION }).is_ok()
            && w.send(&Message::Session { token, nonce }).is_ok()
    };
    if !sent {
        // The client still holds a valid token; detach and let it try
        // again rather than destroying the session.
        shared.client_gone(token, epoch, "client write failed during resume");
        return;
    }
    client_loop(shared, reader, buf, writer, token, epoch);
}

/// Shared post-handshake client loop. `epoch` is the attach generation
/// this reader belongs to: its disconnect paths go through
/// [`Shared::client_gone`], which no-ops if a newer connection has
/// since resumed the session.
fn client_loop(
    shared: &Arc<Shared>,
    mut reader: BufReader<FarmStream>,
    mut buf: Vec<u8>,
    writer: &Arc<Mutex<LineWriter>>,
    session: u64,
    epoch: u64,
) {
    loop {
        match read_msg(&mut reader, &mut buf, shared, None) {
            Ok(Incoming::Msg(Message::Job { index, job })) => {
                shared.enqueue_job(session, index, job);
            }
            Ok(Incoming::Msg(Message::Done)) => {
                shared.close_session(session, "client done");
                return;
            }
            Ok(Incoming::Msg(Message::Heartbeat { .. })) => {}
            Ok(Incoming::Msg(other)) => {
                let reason = format!("unexpected {} from client", tag_of(&other));
                let mut w = writer.lock().expect("writer lock");
                let _ = w.send(&Message::Goodbye { reason: reason.clone() });
                w.shutdown();
                drop(w);
                shared.close_session(session, &reason);
                return;
            }
            Ok(Incoming::Eof) => {
                shared.client_gone(session, epoch, "client disconnected");
                return;
            }
            Ok(Incoming::Stopped) => {
                // A hard stop (abort) must *detach*, not close: closing
                // would journal the session away and defeat recovery.
                shared.client_gone(session, epoch, "dispatcher shutting down");
                return;
            }
            Err(e) => {
                shared.close_session(session, &format!("protocol error: {e}"));
                return;
            }
        }
    }
}
