//! The load generator: closed-loop generator threads that walk a seeded
//! request list, stamp per-request latency, and check answers against the
//! reference.
//!
//! Two shapes repeat on a small shared box and are the only ones used
//! (the restart shape is the first with one generator, between restarts).
//! *Loaded*: each of `min(nproc, 4)` generators keeps eight tickets
//! outstanding, so the cores stay saturated and nothing measures wake-up
//! luck. *Solo*: one generator, one request in flight. Two blocking clients
//! against two workers — the obvious third shape — flips between two
//! scheduling regimes on identical work and is not offered.

use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::api::{self, Answer, Client, Target};
use crate::stats::{self, FAILED_NS};
use crate::trace::{Recorder, Span};
use crate::workload::{RequestList, Shape};

/// An op unanswered this long after its run started counts as failed.
const HARD_DEADLINE: Duration = Duration::from_secs(120);

/// Failures a pass keeps the text of, for the report.
const MAX_COMPLAINTS: usize = 5;

/// When a run stops submitting.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// At a wall-clock instant (requests already submitted still drain).
    At(Instant),
    /// After this many requests in total.
    After(usize),
}

/// One pass over (part of) a request list.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    pub list: &'a RequestList,
    /// Reference answer per distinct request.
    pub reference: &'a [Answer],
    /// List position of the first request; positions wrap around.
    pub offset: usize,
    pub stop: Stop,
    pub generators: usize,
    pub in_flight: usize,
    /// One in this many answers is compared with its reference (errors
    /// always count as failures).
    pub check_every: usize,
    /// Record `request` / `client.submit` / `client.wait` spans, their
    /// timestamps counting from this instant.
    pub trace: Option<Instant>,
}

impl<'a> Job<'a> {
    /// A pass from the head of `list` in load shape `shape`, checking one
    /// answer in sixteen.
    pub fn new(
        shape: Shape,
        list: &'a RequestList,
        reference: &'a [Answer],
        stop: Stop,
    ) -> Job<'a> {
        let (generators, in_flight) = shape.clients();
        Job {
            list,
            reference,
            offset: 0,
            stop,
            generators,
            in_flight,
            check_every: 16,
            trace: None,
        }
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Submit → answer per request, [`FAILED_NS`] for a failed one.
    pub latencies_ns: Vec<u64>,
    pub failed: u64,
    pub wall_s: f64,
    /// Process CPU (user + system, every thread) over the pass.
    pub cpu_s: f64,
    /// When the first checked-and-correct answer arrived.
    pub first_ok: Option<Instant>,
    pub spans: Vec<Span>,
    /// First few failures, for the report.
    pub complaints: Vec<String>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    pub fn correct(&self) -> u64 {
        self.attempted() - self.failed
    }

    pub fn throughput_qps(&self) -> f64 {
        self.correct() as f64 / self.wall_s
    }

    pub fn cpu_us_per_query(&self) -> f64 {
        self.cpu_s * 1e6 / self.correct().max(1) as f64
    }

    pub fn percentile_us(&mut self, p: f64) -> f64 {
        stats::percentile_us(&mut self.latencies_ns, p)
    }

    /// Fold another pass in: samples pool, wall and CPU time add up (a
    /// generator's own are zero; [`run`] stamps the whole pass).
    pub fn absorb(&mut self, other: Outcome) {
        self.latencies_ns.extend(other.latencies_ns);
        self.failed += other.failed;
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.first_ok = self.first_ok.or(other.first_ok);
        self.spans.extend(other.spans);
        let room = MAX_COMPLAINTS.saturating_sub(self.complaints.len());
        self.complaints
            .extend(other.complaints.into_iter().take(room));
    }
}

/// One generator's closed loop: submit while fewer than `in_flight` are
/// outstanding, otherwise wait for the oldest.
fn generate(client: &Client<'_>, job: &Job<'_>, g: usize, started: Instant) -> Outcome {
    let len = job.list.order.len();
    let quota = match job.stop {
        Stop::After(n) => n / job.generators + usize::from(g < n % job.generators),
        Stop::At(_) => usize::MAX,
    };
    let mut out = Outcome::default();
    let mut rec = Recorder::new(job.trace.unwrap_or(started));
    let mut pending: VecDeque<(usize, usize, Instant, Instant, api::Ticket)> = VecDeque::new();
    let mut submitted = 0;
    loop {
        let open = submitted < quota
            && match job.stop {
                Stop::At(deadline) => Instant::now() < deadline,
                Stop::After(_) => true,
            };
        if open && pending.len() < job.in_flight {
            let pos = job.offset + g + submitted * job.generators;
            submitted += 1;
            let id = job.list.order[pos % len] as usize;
            let t0 = Instant::now();
            let ticket = client.submit(&job.list.queries[id]);
            pending.push_back((pos, id, t0, Instant::now(), ticket));
            continue;
        }
        let Some((pos, id, t0, t_submitted, ticket)) = pending.pop_front() else {
            break;
        };
        let t_wait = Instant::now();
        let left = (started + HARD_DEADLINE).saturating_duration_since(t_wait);
        let result = api::wait(ticket, left.max(Duration::from_millis(1)));
        let done = Instant::now();
        if job.trace.is_some() {
            let rid = pos as u64;
            rec.span(rid, "request", None, t0, done);
            rec.span(rid, "client.submit", Some("request"), t0, t_submitted);
            rec.span(rid, "client.wait", Some("request"), t_wait, done);
        }
        let checked = pos % job.check_every == 0;
        let complaint = match &result {
            Err(e) => Some(format!("{}: {e}", job.list.queries[id])),
            Ok(answer) if checked && *answer != job.reference[id] => Some(format!(
                "{}: answer differs from reference",
                job.list.queries[id]
            )),
            Ok(_) => None,
        };
        match complaint {
            Some(text) => {
                out.failed += 1;
                out.latencies_ns.push(FAILED_NS);
                if out.complaints.len() < MAX_COMPLAINTS {
                    out.complaints.push(text);
                }
            }
            None => {
                out.latencies_ns.push((done - t0).as_nanos() as u64);
                if checked && out.first_ok.is_none() {
                    out.first_ok = Some(done);
                }
            }
        }
    }
    out.spans = rec.spans;
    out
}

/// Run one pass against `target` and merge the generators' samples.
pub fn run(target: &Target, job: &Job<'_>) -> Outcome {
    let cpu0 = stats::process_cpu_s();
    let started = Instant::now();
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..job.generators)
            .map(|g| {
                let client = target.client();
                scope.spawn(move || generate(&client, job, g, started))
            })
            .collect();
        for t in threads {
            total.absorb(t.join().expect("generator thread panicked"));
        }
    });
    total.wall_s = started.elapsed().as_secs_f64();
    total.cpu_s = stats::process_cpu_s() - cpu0;
    total
}

/// What one restart cycle took, probes included.
#[derive(Clone, Copy, Debug)]
pub struct Cycle {
    /// `Router::checkpoint` of the live dataset.
    pub checkpoint_ms: f64,
    /// `Router::evict` call → first probe answer equal to its reference.
    pub recovery_ms: f64,
    /// Correct probes / wall of the whole cycle.
    pub throughput_qps: f64,
    /// Process CPU over the whole cycle / correct probes.
    pub cpu_us_per_query: f64,
    /// Resident set when the cycle's last probe is answered: the restored
    /// cache in use, no export or import in flight.
    pub rss_mb: f64,
    /// Cache entries the restore admitted.
    pub restored: u64,
}

/// One restart cycle on a routed target: checkpoint the live cache to
/// `dir`, evict the dataset, register it again warm from the file, then
/// run `probes`. The probes are part of the cycle on purpose: a restore
/// that gets faster by deferring work to first touch pays it back there.
///
/// The checkpoint file is removed once restored, so every cycle writes a
/// new file: replacing an existing one makes a journalling file system
/// flush the new data to the device at its next commit, and the cycle
/// would then time the sandbox's disk (a median checkpoint of 230 ms
/// instead of 160 ms, every third one 550–670 ms), not the program's
/// export path.
pub fn restart_cycle(target: &Target, dir: &Path, probes: &Job<'_>) -> (Cycle, Outcome) {
    let cpu0 = stats::process_cpu_s();
    let t0 = Instant::now();
    let file = target.checkpoint(dir);
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    target.evict();
    let restored = target.restore_from(&file);
    let _ = std::fs::remove_file(&file);
    let mut outcome = run(target, probes);
    let recovered = outcome.first_ok.unwrap_or_else(Instant::now);
    outcome.wall_s = t0.elapsed().as_secs_f64();
    outcome.cpu_s = stats::process_cpu_s() - cpu0;
    let cycle = Cycle {
        checkpoint_ms,
        recovery_ms: (recovered - t1).as_secs_f64() * 1e3,
        throughput_qps: outcome.throughput_qps(),
        cpu_us_per_query: outcome.cpu_us_per_query(),
        rss_mb: stats::rss_mb(),
        restored,
    };
    (cycle, outcome)
}
