//! # petal-shard — the evaluation-farm worker process
//!
//! The worker half of the farm's process-sharding front-end
//! ([`petal_farm::shard`]): a tiny loop that reads
//! [`petal_farm::wire`] messages from stdin, evaluates jobs with
//! [`petal_farm::evaluate_job`] — the *same* function the in-process farm
//! runs on its threads — and writes raw outcomes to stdout.
//!
//! The worker is deliberately stateless with respect to the tuning run:
//! it never sees the warm-kernel or IR-cache pricing sets (those fold over
//! the parent's submission-order merge), so any job assignment produces
//! bit-identical tuning results. One worker serves one
//! `(benchmark, machine)` session, established by the `INIT` handshake;
//! the parent respawns workers when the session changes. The session owns
//! a [`petal_apps::InputCache`], so its trials share the benchmark's
//! inputs and reference answers (pure functions of the spec) instead of
//! rebuilding them per job.

#![warn(missing_docs)]

pub mod remote;

pub use remote::{serve_remote, RemoteOptions};

use petal_apps::{benchmark_from_spec, Benchmark, InputCache};
use petal_farm::wire::{
    version_supported, Message, Record, WireEncoder, MIN_WIRE_VERSION, WIRE_VERSION,
};
use petal_gpu::profile::MachineProfile;
use std::fmt;
use std::io::{BufRead, Write};

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

/// Reusable per-session I/O buffers: one `RESULT` is encoded and one
/// `JOB` line read back per trial, so keeping the encoder and both line
/// buffers across the serve loop makes the steady state allocation-free.
#[derive(Default)]
struct SessionBufs {
    enc: WireEncoder,
    line_out: String,
    line_in: String,
}

impl SessionBufs {
    fn send(&mut self, output: &mut impl Write, msg: &Message) -> Result<(), ServeError> {
        self.enc.encode_into(msg, &mut self.line_out);
        self.line_out.push('\n');
        output
            .write_all(self.line_out.as_bytes())
            .and_then(|()| output.flush())
            .map_err(|e| err(format!("writing to parent: {e}")))
    }

    /// Read one line into the reused buffer; `Ok(false)` on clean EOF.
    fn recv_line(&mut self, input: &mut impl BufRead) -> Result<bool, ServeError> {
        self.line_in.clear();
        let n = input
            .read_line(&mut self.line_in)
            .map_err(|e| err(format!("reading from parent: {e}")))?;
        if n == 0 {
            return Ok(false);
        }
        while self.line_in.ends_with('\n') || self.line_in.ends_with('\r') {
            self.line_in.pop();
        }
        Ok(true)
    }
}

/// Serve one shard session over a message stream: `INIT` → `READY`, then
/// `JOB` → `RESULT` until `DONE` or EOF.
///
/// This is the whole worker; `main` merely binds it to stdin/stdout. It
/// is generic over the streams so tests can drive a session through
/// in-memory buffers.
///
/// # Errors
/// On any protocol violation (bad handshake, malformed record, unknown
/// benchmark spec) or I/O failure. The parent treats a dead worker as a
/// fatal dispatch error, so erring out loudly is correct.
pub fn serve(mut input: impl BufRead, mut output: impl Write) -> Result<(), ServeError> {
    let mut bufs = SessionBufs::default();
    if !bufs.recv_line(&mut input)? {
        return Err(err("EOF before INIT"));
    }
    let first = bufs.line_in.clone();
    // Check the advertised version *before* decoding the full INIT: a
    // future wire version may change the INIT layout itself, and the
    // version-skew diagnostic must fire in exactly that case (a layout
    // decode error would otherwise mask it).
    let record = Record::parse(&first).map_err(|e| err(e.to_string()))?;
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
    let (version, bench, machine): (u64, Box<dyn Benchmark>, MachineProfile) =
        match Message::decode(&first).map_err(|e| err(e.to_string()))? {
            Message::Init { version, bench_spec, machine } => {
                let bench = benchmark_from_spec(&bench_spec)
                    .map_err(|e| err(format!("bad benchmark spec `{bench_spec}`: {e}")))?;
                (version, bench, *machine)
            }
            other => return Err(err(format!("expected INIT, got {other:?}"))),
        };
    // Echo the parent's version: an older parent checks for its own
    // version in READY, and every version this build accepts is one it
    // can serve (newer versions are pure supersets on the pipe records).
    bufs.send(&mut output, &Message::Ready { version })?;

    let inputs = InputCache::new();
    while bufs.recv_line(&mut input)? {
        match Message::decode(&bufs.line_in).map_err(|e| err(e.to_string()))? {
            Message::Job { index, job } => {
                let outcome = inputs.enter(|| petal_farm::evaluate_job(&*bench, &machine, &job));
                bufs.send(&mut output, &Message::Result { index, outcome })?;
            }
            Message::Done => return Ok(()),
            other => return Err(err(format!("expected JOB or DONE, got {other:?}"))),
        }
    }
    Ok(()) // EOF without DONE: parent died or closed early; exit quietly.
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
}
