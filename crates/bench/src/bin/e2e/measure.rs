//! The end-to-end run of one workload: prepare inputs and reference
//! answers, set the serving stack up (several times, for a steady
//! `setup_s`), run the timed pass, report.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::api::{self, Answer, DirectEngine, Frame, Network, Target};
use crate::load::{self, Job, Outcome, Stop};
use crate::metrics::Report;
use crate::naive;
use crate::stats;
use crate::workload::{net_seed, RequestList, Shape, Workload, PROBES_PER_CYCLE};

/// Requests per workload also checked against the naive evaluator.
const NAIVE_CHECKS: usize = 64;

/// A restart cycle counts as slow when it takes this many times the median
/// cycle.
const SLOW_CYCLE: f64 = 1.5;

/// Times the stack is set up per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Everything a run needs before the program under test is started.
pub struct Prepared {
    pub net: Network,
    pub list: RequestList,
    pub reference: Vec<Answer>,
    /// Wall time of the reference child (the benchmark's own cost).
    pub reference_s: f64,
    /// Requests whose reference answer the naive evaluator disputes.
    pub naive_disputes: Vec<String>,
}

/// `--reference-for`: answer every distinct request of `w` on a fresh
/// unbounded engine, check a sample against the naive evaluator, and write
/// the answers (then the disputes, as a closing note) to stdout as frames.
pub fn reference_child(w: &Workload, seed: u64) -> Result<(), String> {
    let net = Network::generate(w.net, net_seed(seed));
    let list = w.mix.generate(seed, &w.net);
    let engine = DirectEngine::new(&net, None);
    let reference = list
        .queries
        .iter()
        .map(|q| {
            engine
                .execute(q)
                .map_err(|e| format!("reference for `{q}`: {e}"))
        })
        .collect::<Result<Vec<Answer>, String>>()?;
    let n = list.distinct.len();
    let checks = NAIVE_CHECKS.min(n);
    let disputes: Vec<String> = (0..checks)
        .map(|i| i * n / checks)
        .filter(|&id| {
            let want = naive::evaluate(&net, &list.distinct[id]);
            let got = &reference[id];
            !naive::agrees(&want, api::object_type(got), api::items(got))
        })
        .map(|id| format!("{}: engine and naive evaluator disagree", list.queries[id]))
        .collect();
    let mut stream = Vec::new();
    for answer in reference {
        Frame::Answer(answer).write(&mut stream);
    }
    Frame::Note(disputes.join("\n")).write(&mut stream);
    std::io::stdout()
        .write_all(&stream)
        .map_err(|e| format!("write reference stream: {e}"))
}

/// Generate the network and request list, and get the reference answers.
///
/// The reference pass runs in a child process: it materialises every span
/// unbounded, and the allocator would keep most of that memory mapped in
/// this process after it is freed — `rss_p50_mb` would then read the
/// benchmark's leftovers, not the program's footprint.
pub fn prepare(w: &Workload, seed: u64) -> Result<Prepared, String> {
    let net = Network::generate(w.net, net_seed(seed));
    let list = w.mix.generate(seed, &w.net);
    let t0 = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("path of this binary: {e}"))?;
    let mut child = Command::new(exe);
    child.args(["--reference-for", w.name, "--seed", &seed.to_string()]);
    if w.smoke {
        child.arg("--smoke");
    }
    let output = child
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run the reference child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the reference child failed: {}", output.status));
    }
    let reference_s = t0.elapsed().as_secs_f64();

    let mut stream = output.stdout.as_slice();
    let mut reference = Vec::with_capacity(list.distinct.len());
    let naive_disputes = loop {
        match Frame::read(&mut stream) {
            Some(Frame::Answer(answer)) => reference.push(answer),
            Some(Frame::Note(note)) => break note.lines().map(str::to_string).collect(),
            None => return Err("the reference stream is cut short".to_string()),
        }
    };
    if reference.len() != list.distinct.len() {
        return Err("the reference child answered a different request list".to_string());
    }
    Ok(Prepared {
        net,
        list,
        reference,
        reference_s,
        naive_disputes,
    })
}

/// The job that walks the list in the workload's own load shape.
pub fn shaped<'a>(w: &Workload, p: &'a Prepared, stop: Stop) -> Job<'a> {
    Job {
        check_every: w.check_every,
        ..Job::new(w.shape, &p.list, &p.reference, stop)
    }
}

/// Start the workload's serving stack over `net` and push the warm-up
/// requests through it.
pub fn start_warm(w: &Workload, p: &Prepared, net: &Network, telemetry: bool) -> (Target, Outcome) {
    let target = Target::start(w.target, net, w.cache_budget, telemetry);
    let warmup = load::run(&target, &shaped(w, p, Stop::After(w.warmup)));
    (target, warmup)
}

/// A scratch directory under `out`, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(out: &Path, label: &str) -> ScratchDir {
        let dir = out.join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory under --out");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Restart cycles until `deadline`, probing the list from `offset` on:
/// per-cycle readings and the merged probe samples.
fn restart_loop(
    w: &Workload,
    p: &Prepared,
    target: &Target,
    dir: &Path,
    offset: usize,
    deadline: Instant,
) -> (Vec<load::Cycle>, Outcome) {
    let mut total = Outcome::default();
    let mut cycles = Vec::new();
    while cycles.is_empty() || Instant::now() < deadline {
        let probes = Job {
            offset: offset + cycles.len() * PROBES_PER_CYCLE,
            ..shaped(w, p, Stop::After(PROBES_PER_CYCLE))
        };
        let (cycle, mut outcome) = load::restart_cycle(target, dir, &probes);
        if cycle.restored == 0 {
            // answers would still be right, only slow: a cold start in
            // disguise must not pass as a warm one
            outcome.failed = outcome.attempted();
            let complaint = "warm restart restored no cache entry".to_string();
            outcome.complaints.push(complaint);
        }
        cycles.push(cycle);
        total.absorb(outcome);
    }
    (cycles, total)
}

/// Run `w` end to end for `seconds` of timed load.
///
/// The stack is set up `reps` times — generate, start, warm, from nothing —
/// and each set-up serves an equal slice of the timed window. That gives
/// `setup_s` a median, and it averages over what differs from one instance
/// of the program to the next on identical input (the cache seeds its shard
/// placement per instance, which moves `span_thrash` by 8 %). Memory is read
/// over the first slice only, in a process that has set up exactly once:
/// later set-ups inherit whatever the allocator kept of the earlier ones.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    out: &Path,
    reps: usize,
) -> Result<Report, String> {
    let p = prepare(w, seed)?;
    let scratch = ScratchDir::create(out, &format!("ckpt-{}", w.name));
    let slice = Duration::from_secs_f64(seconds / reps as f64);
    let mut setups = Vec::new();
    let mut warmups = Outcome::default();
    let mut timed = Outcome::default();
    let mut cycles = Vec::new();
    let mut memory = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let net = Network::generate(w.net, net_seed(seed));
        let (target, warmup) = start_warm(w, &p, &net, true);
        setups.push(t0.elapsed().as_secs_f64());
        warmups.absorb(warmup);

        let rss = (rep == 0).then(stats::RssSampler::start);
        let offset = w.warmup + rep * (p.list.order.len() / reps);
        let deadline = Instant::now() + slice;
        timed.absorb(match w.shape {
            Shape::Restart => {
                let (more, probes) = restart_loop(w, &p, &target, &scratch.0, offset, deadline);
                cycles.extend(more);
                probes
            }
            Shape::Loaded | Shape::Solo => {
                let job = Job {
                    offset,
                    ..shaped(w, &p, Stop::At(deadline))
                };
                load::run(&target, &job)
            }
        });
        if let Some(rss) = rss {
            memory = Some((rss.finish(), stats::peak_rss_mb(), cycles.len()));
        }
        target.shutdown();
    }
    drop(scratch);
    let (sampled_rss, peak_rss_mb, first_slice_cycles) = memory.expect("at least one set-up");

    // On the restart shape throughput and CPU time are the median over the
    // cycles (256 probes over checkpoint + downtime + probes each). A tenth
    // to a third of a run's cycles spend four times the usual system CPU
    // inside the checkpoint's `write`, and how many do would set a mean;
    // the median stays put until half of them are hit, and the share of
    // such cycles is a diagnostic. The resident set is read at the end of
    // each cycle of the first slice, because a median over a sawtooth
    // follows the longest phase.
    let per_cycle = |pick: fn(&load::Cycle) -> f64| cycles.iter().map(pick).collect::<Vec<f64>>();
    let (throughput_qps, cpu_us_per_query, rss_p50_mb) = match w.shape {
        Shape::Restart => (
            stats::median(&per_cycle(|c| c.throughput_qps)),
            stats::median(&per_cycle(|c| c.cpu_us_per_query)),
            (
                stats::median(&per_cycle(|c| c.rss_mb)[..first_slice_cycles]),
                first_slice_cycles as u64,
            ),
        ),
        Shape::Loaded | Shape::Solo => (
            timed.throughput_qps(),
            timed.cpu_us_per_query(),
            sampled_rss,
        ),
    };

    let mut report = Report::new();
    report.attempted = timed.attempted() + warmups.attempted() + NAIVE_CHECKS as u64;
    report.failed = timed.failed + warmups.failed + p.naive_disputes.len() as u64;
    report.complaints = p.naive_disputes.clone();
    report.complaints.extend(warmups.complaints.iter().cloned());
    report.complaints.extend(timed.complaints.iter().cloned());

    let n = timed.attempted();
    report.metric("setup_s", stats::median(&setups), setups.len() as u64);
    report.metric("throughput_qps", throughput_qps, n);
    report.metric("latency_p90_us", timed.percentile_us(0.90), n);
    report.metric("cpu_us_per_query", cpu_us_per_query, n);
    report.metric("rss_p50_mb", rss_p50_mb.0, rss_p50_mb.1);

    report.diagnostic("latency_p50_us", "us", timed.percentile_us(0.50), n);
    report.diagnostic("latency_p99_us", "us", timed.percentile_us(0.99), n);
    report.diagnostic("peak_rss_mb", "MB", peak_rss_mb, 1);
    let failed_share = report.failed as f64 / report.attempted as f64;
    report.diagnostic("failed_share", "ratio", failed_share, report.attempted);
    report.diagnostic("timed_wall_s", "s", timed.wall_s, 1);
    report.diagnostic("reference_s", "s", p.reference_s, 1);
    let distinct = p.list.distinct.len() as f64;
    report.diagnostic("distinct_requests", "count", distinct, 1);
    if !cycles.is_empty() {
        let k = cycles.len() as u64;
        let checkpoint_p50 = stats::median(&per_cycle(|c| c.checkpoint_ms));
        let recovery_p50 = stats::median(&per_cycle(|c| c.recovery_ms));
        report.diagnostic("checkpoint_p50_ms", "ms", checkpoint_p50, k);
        report.diagnostic("recovery_p50_ms", "ms", recovery_p50, k);
        let slow = cycles
            .iter()
            .filter(|c| c.throughput_qps < throughput_qps / SLOW_CYCLE)
            .count();
        report.diagnostic("slow_cycle_share", "ratio", slow as f64 / k as f64, k);
    }
    Ok(report)
}
