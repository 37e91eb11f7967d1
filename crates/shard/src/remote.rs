//! The remote-worker mode of `petal-shard`: connect out to a
//! `petal-farmd` dispatcher and serve jobs over a socket.
//!
//! The job-serving core is identical to the pipe mode — the same
//! [`petal_farm::evaluate_job`] on the same `(benchmark, machine)`
//! sessions, each with its own trial-input cache — wrapped in the socket
//! lifecycle from `docs/farmd.md`:
//!
//! 1. connect (with retry patience, so workers may start before the
//!    dispatcher), exchange `HELLO`s and negotiate a wire version;
//! 2. `REGISTER` with a name and a slot count (the pipelining depth the
//!    dispatcher may keep in flight here);
//! 3. serve interleaved `INIT`/`JOB` records — `INIT` may arrive *mid
//!    stream* whenever the dispatcher re-targets this worker at a new
//!    client session — while a background thread emits `HEARTBEAT`s on a
//!    period so the dispatcher can tell a busy worker from a dead one;
//! 4. leave on `GOODBYE`/`DONE`; on EOF or a socket error the worker
//!    assumes the dispatcher is *bouncing* (crash-recovery restart) and
//!    reconnects + re-registers within the same `patience` window,
//!    exiting quietly only when the dispatcher stays gone.
//!
//! The worker stays stateless with respect to tuning: raw outcomes only,
//! all pricing in the tuner's merge, so the dispatcher may hand any job
//! to any worker (or the same job to two) without perturbing results.
//! That statelessness is also what makes reconnecting trivial: a fresh
//! `REGISTER` admits this process as a brand-new worker id, and any job
//! lost with the old connection is simply re-queued by the dispatcher.

use crate::{err, ServeError};
use petal_apps::{benchmark_from_spec, Benchmark, InputCache};
use petal_farm::net::{Endpoint, FarmStream};
use petal_farm::wire::{negotiate, Message, WireEncoder, MIN_WIRE_VERSION, WIRE_VERSION};
use petal_gpu::profile::MachineProfile;
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration for one remote-worker session (`petal-shard --connect`).
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Dispatcher endpoint (`host:port` or `unix:<path>`).
    pub endpoint: String,
    /// Operator-facing worker name sent in `REGISTER`.
    pub name: String,
    /// Jobs the dispatcher may keep in flight here (pipelining depth).
    pub slots: u64,
    /// `HEARTBEAT` period.
    pub heartbeat: Duration,
    /// How long to keep retrying the initial connect.
    pub patience: Duration,
    /// Fault injection for churn tests: serve exactly this many jobs,
    /// then die abruptly (no `RESULT`, no `GOODBYE`) on receiving the
    /// next one.
    pub fail_after: Option<u64>,
}

impl RemoteOptions {
    /// Defaults for `endpoint`: a pid-derived name, 2 slots, 250 ms
    /// heartbeats, 10 s of connect patience, no fault injection.
    #[must_use]
    pub fn new(endpoint: impl Into<String>) -> Self {
        RemoteOptions {
            endpoint: endpoint.into(),
            name: format!("worker-{}", std::process::id()),
            slots: 2,
            heartbeat: Duration::from_millis(250),
            patience: Duration::from_secs(10),
            fail_after: None,
        }
    }
}

/// The socket's write half, shared by the serve loop (RESULTs, READYs)
/// and the heartbeat thread. One mutex serializes whole lines, so frames
/// never interleave.
struct RemoteWriter {
    stream: FarmStream,
    enc: WireEncoder,
    line: String,
}

impl RemoteWriter {
    fn send(&mut self, msg: &Message) -> std::io::Result<()> {
        self.enc.encode_into(msg, &mut self.line);
        self.line.push('\n');
        self.stream.write_all(self.line.as_bytes())?;
        self.stream.flush()
    }
}

/// How one connection to the dispatcher ended.
enum Served {
    /// The dispatcher dismissed this worker (`GOODBYE`/`DONE`, or it
    /// stayed gone through a whole reconnect window): final, exit clean.
    Dismissed(String),
    /// EOF or a socket error: the dispatcher may be bouncing — reconnect.
    Lost(String),
}

/// Connect to a dispatcher and serve jobs until it says goodbye.
///
/// A lost connection (EOF, read/write error, torn record) is *not* the
/// end: the dispatcher may be restarting with its journal, so the worker
/// reconnects and re-registers, keeping its `fail_after` count across
/// attempts. Only an explicit `GOODBYE`/`DONE` — or a dispatcher that
/// stays unreachable for a whole `patience` window — ends the process.
///
/// # Errors
/// First-connect failures, negotiation failures and protocol violations.
pub fn serve_remote(opts: &RemoteOptions) -> Result<(), ServeError> {
    let mut served: u64 = 0;
    let mut reconnecting = false;
    loop {
        match serve_once(opts, &mut served, reconnecting)? {
            Served::Dismissed(reason) => {
                eprintln!("petal-shard[{}]: leaving the farm: {reason}", opts.name);
                return Ok(());
            }
            Served::Lost(reason) => {
                eprintln!(
                    "petal-shard[{}]: dispatcher connection lost ({reason}); reconnecting",
                    opts.name
                );
                reconnecting = true;
                // Brief pause so a crash-looping dispatcher is not hammered.
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// One connection's worth of serving. `served` persists across calls so
/// `fail_after` fault injection counts jobs per *process*, not per
/// connection. When `reconnecting`, a connect failure is a quiet
/// dismissal (the farm is gone) rather than an error.
fn serve_once(
    opts: &RemoteOptions,
    served: &mut u64,
    reconnecting: bool,
) -> Result<Served, ServeError> {
    let endpoint = Endpoint::parse(&opts.endpoint).map_err(err)?;
    let stream = match FarmStream::connect_retry(&endpoint, opts.patience) {
        Ok(s) => s,
        Err(e) if reconnecting => {
            return Ok(Served::Dismissed(format!("dispatcher did not come back: {e}")));
        }
        Err(e) => return Err(err(format!("connecting to farmd at {endpoint}: {e}"))),
    };
    let write_half =
        stream.try_clone().map_err(|e| err(format!("cloning farmd connection: {e}")))?;
    let mut reader = BufReader::new(stream);
    let writer = Arc::new(Mutex::new(RemoteWriter {
        stream: write_half,
        enc: WireEncoder::default(),
        line: String::new(),
    }));
    // Socket I/O failures return `Served::Lost` (reconnectable) rather
    // than a hard error; protocol violations stay hard errors.
    let send =
        |msg: &Message| -> std::io::Result<()> { writer.lock().expect("writer lock").send(msg) };
    let mut line = String::new();
    let recv_line =
        |reader: &mut BufReader<FarmStream>, line: &mut String| -> std::io::Result<bool> {
            line.clear();
            let n = reader.read_line(line)?;
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            Ok(n > 0)
        };

    // HELLO exchange + version negotiation.
    if let Err(e) = send(&Message::hello()) {
        return Ok(Served::Lost(format!("writing HELLO: {e}")));
    }
    match recv_line(&mut reader, &mut line) {
        Ok(true) => {}
        Ok(false) => return Ok(Served::Lost("connection closed before HELLO".to_owned())),
        Err(e) => return Ok(Served::Lost(format!("reading HELLO: {e}"))),
    }
    match Message::decode(&line).map_err(|e| err(e.to_string()))? {
        Message::Hello { min_version, max_version } => {
            negotiate((MIN_WIRE_VERSION, WIRE_VERSION), (min_version, max_version))
                .map_err(|e| err(e.to_string()))?;
        }
        Message::Goodbye { reason } => {
            return Err(err(format!("farmd rejected the connection: {reason}")));
        }
        other => return Err(err(format!("farmd answered HELLO with {other:?}"))),
    }

    // Join the pool.
    if let Err(e) = send(&Message::Register {
        name: opts.name.clone(),
        slots: opts.slots.max(1),
        pid: u64::from(std::process::id()),
    }) {
        return Ok(Served::Lost(format!("writing REGISTER: {e}")));
    }

    // Liveness thread: heartbeats flow even while a long trial evaluates,
    // because the serve loop and this thread share the writer mutex, not
    // a single thread. The flag stops it on clean exit; a send failure
    // (dispatcher gone) stops it on its own.
    let stop = Arc::new(AtomicBool::new(false));
    let hb_writer = Arc::clone(&writer);
    let hb_stop = Arc::clone(&stop);
    let hb_period = opts.heartbeat;
    std::thread::spawn(move || {
        let mut seq: u64 = 0;
        loop {
            std::thread::sleep(hb_period);
            if hb_stop.load(Ordering::Relaxed) {
                return;
            }
            if hb_writer.lock().expect("writer lock").send(&Message::Heartbeat { seq }).is_err() {
                return;
            }
            seq += 1;
        }
    });
    // Whatever path the serve loop exits on, stop the heartbeats and
    // close the socket so the dispatcher sees a prompt EOF.
    struct Cleanup(Arc<AtomicBool>, Arc<Mutex<RemoteWriter>>);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
            self.1.lock().expect("writer lock").stream.shutdown();
        }
    }
    let _cleanup = Cleanup(Arc::clone(&stop), Arc::clone(&writer));

    // Serve: INIT re-targets the session, JOB evaluates, GOODBYE/DONE
    // dismisses, EOF/IO errors report a lost (reconnectable) dispatcher.
    // Each INIT starts a session with its own trial-input cache.
    let mut session: Option<(Box<dyn Benchmark>, MachineProfile, InputCache)> = None;
    loop {
        match recv_line(&mut reader, &mut line) {
            Ok(true) => {}
            Ok(false) => return Ok(Served::Lost("connection closed".to_owned())),
            Err(e) => return Ok(Served::Lost(format!("read error: {e}"))),
        }
        // A torn record is what a SIGKILLed dispatcher leaves mid-write:
        // treat it as a lost connection, not a protocol crime.
        let msg = match Message::decode(&line) {
            Ok(m) => m,
            Err(e) => return Ok(Served::Lost(format!("torn record: {e}"))),
        };
        match msg {
            Message::Init { version, bench_spec, machine } => {
                let bench = benchmark_from_spec(&bench_spec)
                    .map_err(|e| err(format!("bad benchmark spec `{bench_spec}`: {e}")))?;
                session = Some((bench, *machine, InputCache::new()));
                if let Err(e) = send(&Message::Ready { version }) {
                    return Ok(Served::Lost(format!("writing READY: {e}")));
                }
            }
            Message::Job { index, job } => {
                if opts.fail_after.is_some_and(|n| *served >= n) {
                    // Injected fault: die the way a crashed worker dies —
                    // mid-protocol, without a RESULT or a GOODBYE.
                    eprintln!("petal-shard[{}]: injected failure before job {index}", opts.name);
                    std::process::exit(3);
                }
                let Some((bench, machine, inputs)) = session.as_ref() else {
                    return Err(err(format!("JOB {index} before any INIT")));
                };
                let outcome = inputs.enter(|| petal_farm::evaluate_job(&**bench, machine, &job));
                if let Err(e) = send(&Message::Result { index, outcome }) {
                    return Ok(Served::Lost(format!("writing RESULT: {e}")));
                }
                *served += 1;
            }
            Message::Goodbye { reason } => {
                return Ok(Served::Dismissed(format!("farmd says goodbye: {reason}")));
            }
            Message::Done => return Ok(Served::Dismissed("farmd says done".to_owned())),
            // Stray liveness chatter is legal on any socket.
            Message::Heartbeat { .. } => {}
            other => return Err(err(format!("unexpected {other:?} from farmd"))),
        }
    }
}
