//! # petal-shard — the evaluation-farm worker process
//!
//! The worker half of the farm's process-sharding front-end
//! ([`petal_farm::shard`]): a tiny loop that reads
//! [`petal_farm::wire`] messages, evaluates jobs with
//! [`petal_farm::evaluate_job`] — the *same* function the in-process farm
//! runs on its threads — and writes raw outcomes back.
//!
//! The worker is deliberately stateless with respect to the tuning run:
//! it never sees the warm-kernel or IR-cache pricing sets (those fold over
//! the parent's submission-order merge), so any job assignment produces
//! bit-identical tuning results. Pipe mode ([`serve`], on stdin/stdout)
//! and socket mode ([`serve_remote`]) run one serve loop: each `INIT`
//! (re)targets the worker at a `(benchmark, machine)` session that owns a
//! [`petal_apps::InputCache`], so its trials share the benchmark's inputs
//! and reference answers (pure functions of the spec) instead of
//! rebuilding them per job.

#![warn(missing_docs)]

pub mod remote;

pub use remote::{serve_remote, RemoteOptions};

use petal_apps::{benchmark_from_spec, Benchmark, InputCache};
use petal_farm::wire::{
    version_supported, LineReader, LineWriter, Message, Record, MIN_WIRE_VERSION, WIRE_VERSION,
};
use petal_gpu::profile::MachineProfile;
use std::fmt;
use std::io::{self, BufRead, Write};

/// A fatal worker error: protocol violation, unknown benchmark spec, or a
/// broken pipe to the parent.
#[derive(Debug)]
pub struct ServeError {
    /// Human-readable cause, printed to stderr by the binary.
    pub message: String,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ServeError {}

pub(crate) fn err(message: impl Into<String>) -> ServeError {
    ServeError { message: message.into() }
}

/// How a [`serve_session`] ended.
pub(crate) enum Ended {
    /// `DONE` or `GOODBYE`: the peer dismissed this worker.
    Dismissed(String),
    /// Clean EOF at a record boundary.
    Closed,
    /// A read or write failed, or a record arrived torn or undecodable.
    Lost(String),
}

/// The `(benchmark, machine)` an `INIT` targeted, with its trial inputs.
struct Session {
    bench: Box<dyn Benchmark>,
    machine: MachineProfile,
    inputs: InputCache,
}

/// The worker's one serve loop, shared by pipe and socket mode. `first`
/// is a record the caller already read (pipe mode's `INIT`); `on_job`
/// sees each `JOB` index before it is evaluated (socket mode's fault
/// injection).
///
/// * `INIT` (re)targets the session with a fresh [`InputCache`] and is
///   answered with `READY`, echoing the peer's version: an older peer
///   checks for its own version, and every version this build accepts is
///   one it can serve (newer versions are pure supersets on these
///   records).
/// * `JOB` is evaluated inside the session's cache and answered with
///   `RESULT`.
/// * `DONE`/`GOODBYE` dismiss the worker; `HEARTBEAT`s never reach here.
///
/// # Errors
/// Protocol violations: an unknown benchmark spec, a `JOB` before any
/// `INIT`, or a record a worker never receives. Transport trouble is not
/// an error but [`Ended::Lost`], which each mode maps its own way.
pub(crate) fn serve_session<R: BufRead>(
    reader: &mut LineReader<R>,
    mut send: impl FnMut(&Message) -> io::Result<()>,
    mut first: Option<Message>,
    mut on_job: impl FnMut(u64),
) -> Result<Ended, ServeError> {
    let mut session: Option<Session> = None;
    loop {
        let next = match first.take() {
            Some(msg) => Ok(Some(msg)),
            None => reader.recv(),
        };
        let msg = match next {
            Ok(Some(msg)) => msg,
            Ok(None) => return Ok(Ended::Closed),
            // A torn record is what a peer killed mid-write leaves:
            // transport trouble, not a protocol crime.
            Err(e) => return Ok(Ended::Lost(format!("read failed: {e}"))),
        };
        let reply = match msg {
            Message::Init { version, bench_spec, machine } => {
                let bench = benchmark_from_spec(&bench_spec)
                    .map_err(|e| err(format!("bad benchmark spec `{bench_spec}`: {e}")))?;
                session = Some(Session { bench, machine: *machine, inputs: InputCache::new() });
                Message::Ready { version }
            }
            Message::Job { index, job } => {
                on_job(index);
                let Some(s) = &session else {
                    return Err(err(format!("JOB {index} before any INIT")));
                };
                let outcome =
                    s.inputs.enter(|| petal_farm::evaluate_job(&*s.bench, &s.machine, &job));
                Message::Result { index, outcome }
            }
            Message::Done => return Ok(Ended::Dismissed("peer says done".to_owned())),
            Message::Goodbye { reason } => {
                return Ok(Ended::Dismissed(format!("peer says goodbye: {reason}")));
            }
            other => return Err(err(format!("unexpected {other:?}"))),
        };
        if let Err(e) = send(&reply) {
            return Ok(Ended::Lost(format!("write failed: {e}")));
        }
    }
}

/// Serve one pipe session: `INIT` → `READY`, then the worker's one serve
/// loop (shared with [`serve_remote`]) until `DONE` or EOF. A later `INIT`
/// retargets the worker at a new benchmark or machine, exactly as over a
/// socket.
///
/// This is the whole pipe worker; `main` merely binds it to
/// stdin/stdout. It is generic over the streams so tests can drive a
/// session through in-memory buffers.
///
/// # Errors
/// On any protocol violation (bad handshake, malformed record, unknown
/// benchmark spec) or I/O failure. The parent treats a dead worker as a
/// fatal dispatch error, so erring out loudly is correct.
pub fn serve(input: impl BufRead, output: impl Write) -> Result<(), ServeError> {
    let mut reader = LineReader::new(input);
    let mut writer = LineWriter::new(output);
    let first = reader
        .recv_line()
        .map_err(|e| err(format!("reading from parent: {e}")))?
        .ok_or_else(|| err("EOF before INIT"))?;
    // Check the advertised version *before* decoding the full INIT: a
    // future wire version may change the INIT layout itself, and the
    // version-skew diagnostic must fire in exactly that case (a layout
    // decode error would otherwise mask it).
    let record = Record::parse(first).map_err(|e| err(e.to_string()))?;
    if record.tag == "INIT" {
        match record.fields.first().map(|v| v.parse::<u64>()) {
            Some(Ok(version)) if !version_supported(version) => {
                return Err(err(format!(
                    "parent speaks wire version {version}, worker speaks \
                     {MIN_WIRE_VERSION}..={WIRE_VERSION}"
                )));
            }
            Some(Ok(_)) => {}
            _ => return Err(err("INIT carries no parseable wire version")),
        }
    }
    let init = match Message::decode(first).map_err(|e| err(e.to_string()))? {
        init @ Message::Init { .. } => init,
        other => return Err(err(format!("expected INIT, got {other:?}"))),
    };
    match serve_session(&mut reader, |msg| writer.send(msg), Some(init), |_| {})? {
        // EOF without DONE: the parent died or closed early; exit quietly.
        Ended::Dismissed(_) | Ended::Closed => Ok(()),
        Ended::Lost(why) => Err(err(format!("pipe to parent lost: {why}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use petal_apps::blackscholes::BlackScholes;
    use petal_farm::{job_seed, EvalJob};

    /// Drive a whole session through in-memory buffers and check the
    /// worker's answers equal direct `evaluate_job` calls.
    #[test]
    fn serve_answers_jobs_like_the_in_process_farm() {
        let bench = BlackScholes::new(2_000);
        let machine = MachineProfile::laptop();
        let config = bench.program(&machine).default_config(&machine);
        let jobs: Vec<EvalJob> = (0..3)
            .map(|i| EvalJob {
                config: config.clone(),
                size: bench.input_size(),
                engine_seed: job_seed(5, 0, i),
            })
            .collect();

        let mut session = String::new();
        session.push_str(
            &Message::Init {
                version: WIRE_VERSION,
                bench_spec: bench.spec(),
                machine: Box::new(machine.clone()),
            }
            .encode(),
        );
        session.push('\n');
        for (i, job) in jobs.iter().enumerate() {
            session.push_str(&Message::Job { index: i as u64, job: job.clone() }.encode());
            session.push('\n');
        }
        session.push_str(&Message::Done.encode());
        session.push('\n');

        let mut out = Vec::new();
        serve(session.as_bytes(), &mut out).expect("session succeeds");

        let replies: Vec<Message> = String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(|l| Message::decode(l).expect("decodes"))
            .collect();
        assert_eq!(replies[0], Message::Ready { version: WIRE_VERSION });
        assert_eq!(replies.len(), 1 + jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let expected = petal_farm::evaluate_job(&bench, &machine, job);
            assert_eq!(
                replies[1 + i],
                Message::Result { index: i as u64, outcome: expected },
                "job {i}"
            );
        }
    }

    #[test]
    fn bad_handshakes_are_fatal() {
        let mut out = Vec::new();
        let e = serve("DONE\n".as_bytes(), &mut out).expect_err("DONE before INIT");
        assert!(e.message.contains("expected INIT"), "{e}");

        let wrong_version = Message::Init {
            version: WIRE_VERSION + 1,
            bench_spec: "sort n=64".to_owned(),
            machine: Box::new(MachineProfile::desktop()),
        };
        let e = serve(format!("{}\n", wrong_version.encode()).as_bytes(), &mut Vec::new())
            .expect_err("version skew");
        assert!(e.message.contains("wire version"), "{e}");

        // A future INIT layout this worker cannot decode must still
        // produce the version-skew diagnostic, not a framing error:
        // version is field 0 and is checked before full decode.
        let future = WIRE_VERSION + 1;
        let e = serve(format!("INIT 1:{future} 7:future!\n").as_bytes(), &mut Vec::new())
            .expect_err("skew with unknown layout");
        assert!(e.message.contains(&format!("wire version {future}")), "{e}");

        let bad_spec = Message::Init {
            version: WIRE_VERSION,
            bench_spec: "warp10 n=64".to_owned(),
            machine: Box::new(MachineProfile::desktop()),
        };
        let e = serve(format!("{}\n", bad_spec.encode()).as_bytes(), &mut Vec::new())
            .expect_err("unknown spec");
        assert!(e.message.contains("bad benchmark spec"), "{e}");
    }

    /// A v1 parent still gets served — v2 is a pure superset on the pipe
    /// records — and READY echoes the *parent's* version so the old
    /// parent's equality check passes.
    #[test]
    fn older_wire_versions_are_served_and_echoed() {
        let init = Message::Init {
            version: MIN_WIRE_VERSION,
            bench_spec: "sort n=64".to_owned(),
            machine: Box::new(MachineProfile::laptop()),
        };
        let session = format!("{}\n{}\n", init.encode(), Message::Done.encode());
        let mut out = Vec::new();
        serve(session.as_bytes(), &mut out).expect("v1 session succeeds");
        let first = String::from_utf8(out).expect("utf8");
        let reply = Message::decode(first.lines().next().expect("one reply")).expect("decodes");
        assert_eq!(reply, Message::Ready { version: MIN_WIRE_VERSION });
    }

    /// A second `INIT` retargets a live pipe session at another benchmark
    /// and machine — the same serve loop as socket mode, where the
    /// dispatcher re-targets workers mid-stream.
    #[test]
    fn a_second_init_retargets_a_pipe_session() {
        let targets: Vec<(Box<dyn Benchmark>, MachineProfile)> = vec![
            (Box::new(BlackScholes::new(2_000)), MachineProfile::laptop()),
            (benchmark_from_spec("sort n=64").expect("spec"), MachineProfile::desktop()),
        ];
        let mut session = String::new();
        let mut expected = Vec::new();
        for (i, (bench, machine)) in targets.iter().enumerate() {
            let job = EvalJob {
                config: bench.program(machine).default_config(machine),
                size: bench.input_size(),
                engine_seed: job_seed(9, 0, i as u64),
            };
            let init = Message::Init {
                version: WIRE_VERSION,
                bench_spec: bench.spec(),
                machine: Box::new(machine.clone()),
            };
            let index = i as u64;
            session += &format!("{}\n", init.encode());
            session += &format!("{}\n", Message::Job { index, job: job.clone() }.encode());
            expected.push(Message::Ready { version: WIRE_VERSION });
            let outcome = petal_farm::evaluate_job(&**bench, machine, &job);
            expected.push(Message::Result { index, outcome });
        }
        session += "DONE\n";

        let mut out = Vec::new();
        serve(session.as_bytes(), &mut out).expect("retargeted session succeeds");
        let replies: Vec<Message> = String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(|l| Message::decode(l).expect("decodes"))
            .collect();
        assert_eq!(replies, expected);
    }
}
