//! The traced run: a separate, shorter run per workload that takes the
//! stack apart layer by layer, from outside — by timing calls into public
//! functions and reading public statistics. Op counts are fixed (not
//! time-boxed) so that counts repeat from run to run.
//!
//! Five parts: (1) a *staged replay* calling parse → resolve → plan →
//! execute one after the other with a span around each; (2) a *ladder* of
//! the same solo request stream through the bare engine, the server, the
//! router and the remote client, whose differences are each layer's cost;
//! (3) the statistics the stack publishes, read after load passes in the
//! workload's own shape (traced, untraced, and with telemetry off);
//! (4) a *kernel probe* on the operands of the workload's heaviest span;
//! (5) a *codec probe* of the wire and snapshot formats on real payloads.

use std::path::Path;
use std::time::Instant;

use crate::api::{self, DirectEngine, KernelWork, Target, WireResponse};
use crate::load::{self, Job, Outcome, Stop};
use crate::measure::{prepare, shaped, start_warm, Prepared, ScratchDir};
use crate::metrics::{Report, RUN_SECONDS};
use crate::stats;
use crate::trace::{self, Recorder, Span};
use crate::workload::{Request, Shape, TargetKind, Workload};

/// Wall time of `f` in seconds, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Median wall time of `f` in seconds: at least once, up to five times
/// while the total stays under `budget_s`.
fn median_time(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let started = Instant::now();
    while times.is_empty() || (times.len() < 5 && started.elapsed().as_secs_f64() < budget_s) {
        times.push(timed(&mut f).0);
    }
    stats::median(&times)
}

/// Nanoseconds each of `n` calls of `f` took.
fn time_each(n: usize, mut f: impl FnMut(usize)) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_nanos() as u64
        })
        .collect()
}

fn p50_us(samples: &mut [u64]) -> f64 {
    stats::percentile_us(samples, 0.5)
}

fn p50_ns(samples: &mut [u64]) -> f64 {
    p50_us(samples) * 1e3
}

/// Per thousand requests.
fn per_kq(count: u64, requests: u64) -> f64 {
    count as f64 * 1e3 / requests.max(1) as f64
}

fn ratio(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

struct Traced<'a> {
    w: &'a Workload,
    p: &'a Prepared,
    report: Report,
    spans: Vec<Span>,
    /// Requests per ladder rung and staged replay.
    rung_ops: usize,
    /// Zero of every span timestamp of this run.
    epoch: Instant,
}

impl<'a> Traced<'a> {
    fn put(&mut self, name: &'static str, value: f64, samples: u64) {
        self.report.metric(name, value, samples);
    }

    fn tally(&mut self, outcome: &Outcome) {
        self.report.attempted += outcome.attempted();
        self.report.failed += outcome.failed;
        let complaints = outcome.complaints.iter().cloned();
        self.report.complaints.extend(complaints);
    }

    fn solo(&self, offset: usize, ops: usize) -> Job<'a> {
        let (list, reference) = (&self.p.list, &self.p.reference);
        Job {
            offset,
            check_every: self.w.check_every,
            ..Job::new(Shape::Solo, list, reference, Stop::After(ops))
        }
    }

    /// Parts 1 and 2a on one warmed engine: staged replay, the ladder's
    /// bottom rung, and the cache lookup probe. Returns the direct p50.
    fn engine_direct(&mut self) -> f64 {
        let (w, p, ops) = (self.w, self.p, self.rung_ops);
        let engine = DirectEngine::new(&p.net, w.cache_budget);
        let query = |pos: usize| {
            let id = p.list.order[pos % p.list.order.len()] as usize;
            (id, p.list.queries[id].as_str())
        };
        for pos in 0..ops {
            let _ = engine.execute(query(pos).1);
        }

        let mut rec = Recorder::new(self.epoch);
        let mut modes: Vec<&'static str> = Vec::new();
        for pos in ops..2 * ops {
            let (id, q) = query(pos);
            let rid = pos as u64;
            let t0 = Instant::now();
            let parsed = api::parse_query(q);
            let t1 = Instant::now();
            let resolved = engine.resolve(&parsed);
            let t2 = Instant::now();
            engine.plan(&resolved);
            let t3 = Instant::now();
            let (result, exec) = engine.execute_traced(q);
            let t4 = Instant::now();
            rec.span(rid, "replay", None, t0, t4);
            rec.span(rid, "query.parse", Some("replay"), t0, t1);
            rec.span(rid, "query.resolve", Some("replay"), t1, t2);
            rec.span(rid, "query.plan", Some("replay"), t2, t3);
            rec.span(rid, "query.engine", Some("replay"), t3, t4);
            rec.span_ending_at(rid, "query.engine.exec", "query.engine", t4, exec.exec_ns);
            modes.push(exec.mode);
            self.report.attempted += 1;
            if result.as_ref() != Ok(&p.reference[id]) {
                self.report.failed += 1;
                let complaint = format!("{q}: staged replay differs from reference");
                self.report.complaints.push(complaint);
            }
        }
        let n = ops as u64;
        let mut own = trace::self_times(&rec.spans);
        let mut own_p50_ns = |span: &str| p50_ns(own.get_mut(span).expect("recorded above"));
        self.put("query.parse.p50_ns", own_p50_ns("query.parse"), n);
        self.put("query.resolve.p50_ns", own_p50_ns("query.resolve"), n);
        self.put("query.plan.p50_ns", own_p50_ns("query.plan"), n);
        let exec_self_us = own_p50_ns("query.engine.exec") / 1e3;
        self.put("query.engine.exec_self_p50_us", exec_self_us, n);
        // by the label the engine reports, whatever modes it has by then
        let share = |label: &str| ratio(modes.iter().filter(|m| **m == label).count() as u64, n);
        self.put("query.engine.share_full", share("full"), n);
        self.put("query.engine.share_sparse_row", share("sparse_row"), n);
        self.put("query.engine.share_block_row", share("block_row"), n);
        self.spans.append(&mut rec.spans);

        let mut direct = time_each(ops, |i| {
            let _ = std::hint::black_box(engine.execute(query(2 * ops + i).1));
        });
        let direct_p50 = p50_us(&mut direct);
        let direct_p90 = stats::percentile_us(&mut direct, 0.9);
        self.put("query.engine.direct_p50_us", direct_p50, n);
        self.put("query.engine.direct_p90_us", direct_p90, n);

        // the smallest multi-step span of the mix: resident under any
        // budget the workloads use, so this times a lookup, not a product
        let shape = &p.net.shape;
        let size = |r: &Request| {
            let path = r.template.path;
            shape.count(path[0]) * shape.count(path[path.len() - 1])
        };
        let multi_step = |r: &&Request| r.template.path.len() >= 3;
        let smallest = p
            .list
            .distinct
            .iter()
            .filter(multi_step)
            .min_by_key(|r| size(r));
        let smallest = smallest.expect("every mix has a multi-step span");
        let resolved = engine.resolve(&api::parse_query(&smallest.render(shape)));
        engine.commuting_nnz(&resolved);
        let mut lookups = time_each(1000, |_| {
            std::hint::black_box(engine.commuting_nnz(&resolved));
        });
        self.put("query.cache.lookup_p50_ns", p50_ns(&mut lookups), 1000);
        direct_p50
    }

    /// Parts 2b–d: one solo rung through `kind`, plus what only that kind
    /// of target can show. Returns the rung's p50.
    fn rung(&mut self, kind: TargetKind, out: &Path) -> f64 {
        let (w, p, ops) = (self.w, self.p, self.rung_ops);
        let target = Target::start(kind, &p.net, w.cache_budget, true);
        // warmed solo, so the stage histograms hold solo samples only
        let warmup = load::run(&target, &self.solo(0, ops));
        self.tally(&warmup);
        let mut pass = load::run(&target, &self.solo(ops, ops));
        self.tally(&pass);
        let solo_p50 = pass.percentile_us(0.5);
        let n = pass.attempted();

        match kind {
            TargetKind::Local => self.snapshot_probe(&target),
            TargetKind::Routed => self.restart_probe(&target, out),
            TargetKind::Remote => {}
        }
        let stats = target.shutdown();
        let served = stats.served;
        let us = |ns: u64| ns as f64 / 1e3;
        match kind {
            TargetKind::Local => {
                self.put("serve.server.solo_p50_us", solo_p50, n);
                self.put(
                    "serve.queue.wait_p50_us",
                    us(stats.queue_wait_p50_ns),
                    served,
                );
                self.put(
                    "serve.server.admission_p50_us",
                    us(stats.admission_p50_ns),
                    served,
                );
                self.put(
                    "serve.server.dispatch_p50_us",
                    us(stats.dispatch_p50_ns),
                    served,
                );
            }
            TargetKind::Routed => self.put("serve.router.solo_p50_us", solo_p50, n),
            TargetKind::Remote => {
                let retries = per_kq(stats.remote_retries, served);
                self.put("serve.remote.solo_p50_us", solo_p50, n);
                self.put("serve.remote.retries_per_kq", retries, served);
            }
        }
        solo_p50
    }

    /// Three restart cycles on the ladder's routed target, 64 probes each.
    fn restart_probe(&mut self, target: &Target, out: &Path) {
        let scratch = ScratchDir::create(out, "ckpt-traced");
        let mut cycles = Vec::new();
        for c in 0..3 {
            let probes = Job {
                offset: (2 + c) * self.rung_ops,
                check_every: 1,
                ..Job::new(
                    Shape::Restart,
                    &self.p.list,
                    &self.p.reference,
                    Stop::After(64),
                )
            };
            let (cycle, outcome) = load::restart_cycle(target, &scratch.0, &probes);
            self.tally(&outcome);
            cycles.push(cycle);
        }
        let checkpoint: Vec<f64> = cycles.iter().map(|c| c.checkpoint_ms).collect();
        let recovery: Vec<f64> = cycles.iter().map(|c| c.recovery_ms).collect();
        self.put(
            "serve.router.checkpoint_p50_ms",
            stats::median(&checkpoint),
            3,
        );
        self.put("serve.router.recovery_p50_ms", stats::median(&recovery), 3);
    }

    /// Part 5b: export, encode, decode and restore the live cache.
    fn snapshot_probe(&mut self, target: &Target) {
        let (export_s, snapshot) = timed(|| target.snapshot());
        let (encode_s, bytes) = timed(|| snapshot.to_bytes());
        let (decode_s, decoded) = timed(|| api::Snapshot::from_bytes(&bytes));
        let fresh = DirectEngine::new(&self.p.net, self.w.cache_budget);
        let (restore_s, entries) = timed(|| fresh.restore(&decoded));
        let mb = bytes.len() as f64 / (1 << 20) as f64;
        self.put("query.snapshot.export_ms", export_s * 1e3, 1);
        self.put("query.snapshot.encode_mb_per_s", mb / encode_s, 1);
        self.put("query.snapshot.decode_mb_per_s", mb / decode_s, 1);
        self.put("query.snapshot.restore_ms", restore_s * 1e3, 1);
        self.put("query.snapshot.file_mb", mb, 1);
        self.put("query.snapshot.entries", entries as f64, 1);
    }

    /// Part 3: the workload's own target and load shape, with telemetry on
    /// (an untraced and a traced pass) and off (an untraced pass). Cache,
    /// engine and kernel counts are over the first target's whole life,
    /// warm-up included, because final statistics are all a routed or
    /// remote target publishes.
    fn shaped_passes(&mut self, kernel: &dyn Fn() -> KernelWork) {
        let (w, p) = (self.w, self.p);
        let pass = |offset: usize, trace: Option<Instant>| Job {
            offset,
            trace,
            ..shaped(w, p, Stop::After(w.traced_ops))
        };
        let k0 = kernel();
        let (target, warmup) = start_warm(w, p, &p.net, true);
        self.tally(&warmup);
        let mut untraced = load::run(&target, &pass(w.warmup, None));
        let mut traced = load::run(&target, &pass(w.warmup + w.traced_ops, Some(self.epoch)));
        let k1 = kernel();
        let on = target.shutdown();
        self.tally(&untraced);
        self.tally(&traced);

        let (target, warmup) = start_warm(w, p, &p.net, false);
        self.tally(&warmup);
        let quiet = load::run(&target, &pass(w.warmup, None));
        target.shutdown();
        self.tally(&quiet);

        let n = untraced.attempted();
        let (plain_qps, traced_qps) = (untraced.throughput_qps(), traced.throughput_qps());
        let cpu = untraced.cpu_us_per_query();
        self.put("load.untraced_qps", plain_qps, n);
        self.put("load.traced_qps", traced_qps, traced.attempted());
        self.put("load.cpu_us_per_query", cpu, n);
        self.put("load.latency_p50_us", untraced.percentile_us(0.5), n);
        self.put("load.latency_p90_us", untraced.percentile_us(0.9), n);
        self.put("trace.overhead_share", 1.0 - traced_qps / plain_qps, n);
        self.put(
            "telemetry.cost_us_per_query",
            cpu - quiet.cpu_us_per_query(),
            n,
        );
        self.spans.append(&mut traced.spans);

        let life = on.served;
        let lookups = on.cache_hits + on.cache_misses;
        let mb = on.cache_bytes as f64 / (1 << 20) as f64;
        self.put(
            "query.cache.hit_ratio",
            ratio(on.cache_hits, lookups),
            lookups,
        );
        self.put(
            "query.cache.hits_per_miss",
            ratio(on.cache_hits, on.cache_misses),
            lookups,
        );
        self.put(
            "query.cache.evictions_per_kq",
            per_kq(on.cache_evictions, life),
            life,
        );
        let waits = per_kq(on.cache_coalesced_waits, life);
        self.put("query.cache.coalesced_waits_per_kq", waits, life);
        self.put("query.cache.resident_mb", mb, 1);
        self.put(
            "query.engine.promotions_per_kq",
            per_kq(on.promotions, life),
            life,
        );
        self.put(
            "serve.server.mean_batch",
            ratio(on.served, on.batches),
            on.batches,
        );
        let spgemm = k1.spgemm_flops - k0.spgemm_flops;
        let spvm = k1.spvm_flops - k0.spvm_flops;
        let reuses = k1.scratch_reuses - k0.scratch_reuses;
        let scratch_uses = reuses + k1.scratch_allocs - k0.scratch_allocs;
        let anchors = k1.block_anchors - k0.block_anchors;
        self.put("linalg.spgemm.flops_per_query", ratio(spgemm, life), life);
        self.put("linalg.spvm.flops_per_query", ratio(spvm, life), life);
        self.put(
            "linalg.scratch.reuse_ratio",
            ratio(reuses, scratch_uses),
            scratch_uses,
        );
        self.put("linalg.block.anchors_per_kq", per_kq(anchors, life), life);
    }

    /// Part 4: the sparse kernels on the operands of the workload's first
    /// (heaviest) span, serial against `kernel_threads()` workers.
    fn kernel_probe(&mut self, kernel: &dyn Fn() -> KernelWork) {
        let net = &self.p.net;
        let path = self.w.mix.templates[0].path;
        let halves = api::SpanHalves::of(net, path);
        let k0 = kernel();
        halves.spgemm();
        let flops = (kernel().spgemm_flops - k0.spgemm_flops).max(1);
        let serial_s = median_time(0.6, || {
            std::hint::black_box(halves.spgemm());
        });
        let parallel_s = median_time(0.6, || {
            std::hint::black_box(halves.spgemm_parallel());
        });
        self.put(
            "linalg.spgemm.ns_per_flop",
            serial_s * 1e9 / flops as f64,
            flops,
        );
        self.put("linalg.spgemm.parallel_speedup", serial_s / parallel_s, 1);

        let anchors = 256.min(net.shape.count(path[0]));
        let stride = net.shape.count(path[0]) / anchors;
        let k0 = kernel();
        let (spvm_s, _) = timed(|| {
            for a in 0..anchors {
                std::hint::black_box(api::spvm_from(net, path, a * stride));
            }
        });
        let flops = (kernel().spvm_flops - k0.spvm_flops).max(1);
        self.put(
            "linalg.spvm.ns_per_flop",
            spvm_s * 1e9 / flops as f64,
            flops,
        );
    }

    /// Part 5a: the wire codec on the first thousand real request/response
    /// pairs. Per-message means: one clock read per thousand messages.
    fn wire_probe(&mut self) {
        let p = self.p;
        let n = 1000.min(p.list.order.len());
        let ids: Vec<usize> = p.list.order[..n].iter().map(|&i| i as usize).collect();
        let mut frame = Vec::new();
        let (request_s, _) = timed(|| {
            for (i, &id) in ids.iter().enumerate() {
                frame.clear();
                api::wire_encode_request(i as u64, &p.list.queries[id], &mut frame);
            }
        });
        let response = |(i, &id): (usize, &usize)| WireResponse::new(i as u64, &p.reference[id]);
        let responses: Vec<WireResponse> = ids.iter().enumerate().map(response).collect();
        let mut frames: Vec<Vec<u8>> = vec![Vec::new(); n];
        let (encode_s, _) = timed(|| {
            for (r, f) in responses.iter().zip(frames.iter_mut()) {
                r.encode(f);
            }
        });
        let decode = |f: &Vec<u8>| WireResponse::decode(f);
        let (decode_s, decoded) = timed(|| frames.iter().map(decode).collect::<Vec<_>>());
        let same =
            |(want, got): &(&WireResponse, &Option<WireResponse>)| got.as_ref() == Some(*want);
        let changed = n - responses.iter().zip(&decoded).filter(same).count();
        self.report.attempted += n as u64;
        self.report.failed += changed as u64;
        if changed > 0 {
            let complaint = format!("{changed} responses changed across the wire codec");
            self.report.complaints.push(complaint);
        }
        let bytes: usize = frames.iter().map(Vec::len).sum();
        let per_message = |s: f64| s * 1e9 / n as f64;
        let n = n as u64;
        self.put("serve.wire.encode_request_ns", per_message(request_s), n);
        self.put("serve.wire.encode_response_ns", per_message(encode_s), n);
        self.put("serve.wire.decode_response_ns", per_message(decode_s), n);
        self.put("serve.wire.response_bytes_mean", ratio(bytes as u64, n), n);
    }
}

/// Run the traced run of `w`; `seconds` scales the fixed op counts
/// (relative to the run length `BENCHMARK.json` asks for).
pub fn run(w: &Workload, seed: u64, seconds: f64, out: &Path) -> Result<Report, String> {
    let scale = seconds / f64::from(RUN_SECONDS);
    let scaled = |ops: usize| ((ops as f64 * scale) as usize).max(8);
    let w = Workload {
        traced_ops: scaled(w.traced_ops),
        ..*w
    };
    let kernel = api::kernel_counters();
    let p = prepare(&w, seed)?;
    let mut t = Traced {
        w: &w,
        p: &p,
        report: Report::new(),
        spans: Vec::new(),
        rung_ops: (w.traced_ops / 10)
            .max(scaled(300))
            .min(p.list.order.len() / 4),
        epoch: Instant::now(),
    };
    t.report.attempted = p.naive_disputes.len() as u64;
    t.report.failed = p.naive_disputes.len() as u64;
    t.report.complaints = p.naive_disputes.clone();
    t.put("synth.generate_ms", p.net.generate_ms, 1);
    t.put("core.nodes", p.net.nodes() as f64, 1);
    t.put("core.edges", p.net.edges() as f64, 1);

    let direct = t.engine_direct();
    let server = t.rung(TargetKind::Local, out);
    let router = t.rung(TargetKind::Routed, out);
    let remote = t.rung(TargetKind::Remote, out);
    t.put("serve.server.overhead_p50_us", server - direct, 1);
    t.put("serve.router.overhead_p50_us", router - server, 1);
    t.put("serve.remote.tax_p50_us", remote - server, 1);
    t.shaped_passes(&kernel);
    t.kernel_probe(&kernel);
    t.wire_probe();

    // what no public statistic covers yet: ticket hand-off and wake-ups
    let us = |name: &str| t.report.value(name);
    let known = (us("query.parse.p50_ns") + us("query.resolve.p50_ns") + us("query.plan.p50_ns"))
        / 1e3
        + us("query.engine.exec_self_p50_us")
        + us("serve.server.admission_p50_us")
        + us("serve.queue.wait_p50_us")
        + us("serve.server.dispatch_p50_us");
    t.put("residual.solo_p50_us", server - known, 1);

    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let file = out.join(format!("trace-{}.jsonl", w.name));
    trace::write_jsonl(&file, &t.spans).map_err(|e| format!("write {}: {e}", file.display()))?;
    t.put("trace.spans", t.spans.len() as f64, 1);
    println!("spans written to {}", file.display());
    Ok(t.report)
}
