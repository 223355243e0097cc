//! The metric registry — every metric's name, unit, direction and (for
//! end-to-end metrics) regression bound, in one table — plus the report a
//! run fills in and prints. `BENCHMARK.json` at the repository root is
//! [`manifest`]'s output, and a unit test keeps the two equal.

use crate::workload::WORKLOADS;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    /// Sized from measured spread; see the README's calibration table.
    pub bound: f64,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the serving stack sees, on every workload. Each bound is
/// the larger of the issue's starting bound and three times the largest gap
/// or spread in the README's calibration batches, capped at the 25 % the
/// driver's contract allows; set-up gets the largest, as the contract asks.
pub const END_TO_END: [EndToEnd; 5] = [
    // generate + start + warm-up, median of the run's set-ups
    gated("setup_s", "s", "lower", 0.25),
    // correctly answered requests / timed wall, over every slice
    gated("throughput_qps", "1/s", "higher", 0.25),
    // submit → answer over every timed request, a failed one counting +∞
    gated("latency_p90_us", "us", "lower", 0.25),
    // process user + system time over the timed window / correct requests
    gated("cpu_us_per_query", "us", "lower", 0.25),
    // median of VmRSS sampled every 20 ms over the first slice
    gated("rss_p50_mb", "MB", "lower", 0.15),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer readings of the traced run; layer names are module names.
/// The README says which end-to-end metric each should move, and where.
pub const PER_LAYER: [PerLayer; 58] = [
    layer("synth.generate_ms", "ms", "lower"),
    layer("core.nodes", "count", "higher"),
    layer("core.edges", "count", "higher"),
    layer("query.parse.p50_ns", "ns", "lower"),
    layer("query.resolve.p50_ns", "ns", "lower"),
    layer("query.plan.p50_ns", "ns", "lower"),
    layer("query.engine.direct_p50_us", "us", "lower"),
    layer("query.engine.direct_p90_us", "us", "lower"),
    layer("query.engine.exec_self_p50_us", "us", "lower"),
    layer("query.engine.share_full", "ratio", "higher"),
    layer("query.engine.share_sparse_row", "ratio", "higher"),
    layer("query.engine.share_block_row", "ratio", "higher"),
    layer("query.engine.promotions_per_kq", "1/kq", "lower"),
    layer("query.cache.hit_ratio", "ratio", "higher"),
    layer("query.cache.hits_per_miss", "ratio", "higher"),
    layer("query.cache.evictions_per_kq", "1/kq", "lower"),
    layer("query.cache.coalesced_waits_per_kq", "1/kq", "lower"),
    layer("query.cache.resident_mb", "MB", "lower"),
    layer("query.cache.lookup_p50_ns", "ns", "lower"),
    layer("linalg.spgemm.flops_per_query", "flop/q", "lower"),
    layer("linalg.spvm.flops_per_query", "flop/q", "lower"),
    layer("linalg.spgemm.ns_per_flop", "ns/flop", "lower"),
    layer("linalg.spvm.ns_per_flop", "ns/flop", "lower"),
    layer("linalg.spgemm.parallel_speedup", "ratio", "higher"),
    layer("linalg.scratch.reuse_ratio", "ratio", "higher"),
    layer("linalg.block.anchors_per_kq", "1/kq", "higher"),
    layer("serve.queue.wait_p50_us", "us", "lower"),
    layer("serve.server.admission_p50_us", "us", "lower"),
    layer("serve.server.dispatch_p50_us", "us", "lower"),
    layer("serve.server.mean_batch", "count", "higher"),
    layer("serve.server.solo_p50_us", "us", "lower"),
    layer("serve.server.overhead_p50_us", "us", "lower"),
    layer("serve.router.solo_p50_us", "us", "lower"),
    layer("serve.router.overhead_p50_us", "us", "lower"),
    layer("serve.router.checkpoint_p50_ms", "ms", "lower"),
    layer("serve.router.recovery_p50_ms", "ms", "lower"),
    layer("serve.wire.encode_request_ns", "ns", "lower"),
    layer("serve.wire.encode_response_ns", "ns", "lower"),
    layer("serve.wire.decode_response_ns", "ns", "lower"),
    layer("serve.wire.response_bytes_mean", "B", "lower"),
    layer("serve.remote.solo_p50_us", "us", "lower"),
    layer("serve.remote.tax_p50_us", "us", "lower"),
    layer("serve.remote.retries_per_kq", "1/kq", "lower"),
    layer("query.snapshot.export_ms", "ms", "lower"),
    layer("query.snapshot.encode_mb_per_s", "MB/s", "higher"),
    layer("query.snapshot.decode_mb_per_s", "MB/s", "higher"),
    layer("query.snapshot.restore_ms", "ms", "lower"),
    layer("query.snapshot.file_mb", "MB", "lower"),
    layer("query.snapshot.entries", "count", "higher"),
    layer("telemetry.cost_us_per_query", "us", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.spans", "count", "higher"),
    layer("residual.solo_p50_us", "us", "lower"),
    layer("load.traced_qps", "1/s", "higher"),
    layer("load.untraced_qps", "1/s", "higher"),
    layer("load.cpu_us_per_query", "us", "lower"),
    layer("load.latency_p50_us", "us", "lower"),
    layer("load.latency_p90_us", "us", "lower"),
];

/// Seconds of timed load per run, as `BENCHMARK.json` asks the driver for.
pub const RUN_SECONDS: u32 = 10;

/// A reading with how many samples it rests on.
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// What one run of one workload measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the result line carries (end-to-end or per-layer).
    pub metrics: Vec<Reading>,
    /// Printed, never gated.
    pub diagnostics: Vec<Reading>,
    pub complaints: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            diagnostics: Vec::new(),
            complaints: Vec::new(),
        }
    }

    /// Record a registered metric, end-to-end or per-layer.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: u64) {
        let gated = END_TO_END.iter().map(|m| (m.name, m.unit));
        let layers = PER_LAYER.iter().map(|m| (m.name, m.unit));
        let (_, unit) = gated
            .chain(layers)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unregistered metric {name}"));
        self.metrics.push(Reading {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn diagnostic(&mut self, name: &'static str, unit: &'static str, value: f64, samples: u64) {
        self.diagnostics.push(Reading {
            name,
            unit,
            value,
            samples,
        });
    }

    /// The value recorded for metric `name`.
    pub fn value(&self, name: &str) -> f64 {
        let found = self.metrics.iter().find(|r| r.name == name);
        found
            .unwrap_or_else(|| panic!("{name} not recorded yet"))
            .value
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Every metric by name with unit and sample count, then the one-line
    /// JSON result the driver reads.
    pub fn print(&self) {
        for (title, readings) in [
            ("metrics", &self.metrics),
            ("diagnostics", &self.diagnostics),
        ] {
            println!("{title}:");
            for r in readings {
                println!(
                    "  {:<40} {:>16.4} {:<8} n={}",
                    r.name, r.value, r.unit, r.samples
                );
            }
        }
        for c in &self.complaints {
            println!("FAILED {c}");
        }
        println!("attempted {} failed {}", self.attempted, self.failed);
        println!("{}", self.result_line());
    }

    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|r| {
                // JSON has no infinity: a percentile that landed on a failed
                // op prints as a number no real latency reaches
                let v = if r.value.is_finite() {
                    r.value.to_string()
                } else {
                    "1e300".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    r.name, r.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A result line read back.
#[derive(Debug, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Pull `(name, value)` pairs and the counts back out of a child run's
/// result line (the format [`Report::result_line`] writes).
pub fn parse_result_line(line: &str) -> Option<ResultLine> {
    let after = |key: &str| {
        let at = line.find(key)? + key.len();
        let rest = line[at..].trim_start();
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    };
    let correct = after("\"correct\":")? == "true";
    let attempted = after("\"attempted\":")?.parse().ok()?;
    let failed = after("\"failed\":")?.parse().ok()?;
    let body = &line[line.find("\"metrics\":")? + "\"metrics\":".len()..];
    let mut metrics = Vec::new();
    for part in body.split("\"value\":").collect::<Vec<_>>().windows(2) {
        let name = part[0].rsplit('"').nth(1)?;
        let value = part[1].trim_start();
        let end = value.find([',', '}']).unwrap_or(value.len());
        metrics.push((name.to_string(), value[..end].trim().parse().ok()?));
    }
    Some(ResultLine {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"crates/bench/src/bin/e2e/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"crates/bench/src/bin/e2e\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let mut r = Report::new();
        r.attempted = 1000;
        r.metric("setup_s", 0.8127, 3);
        r.metric("latency_p90_us", f64::INFINITY, 1000);
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        let read = parse_result_line(&line).expect("parses");
        assert!(read.correct);
        assert_eq!((read.attempted, read.failed), (1000, 0));
        assert_eq!(read.metrics[0], ("setup_s".to_string(), 0.8127));
        assert_eq!(read.metrics[1], ("latency_p90_us".to_string(), 1e300));
        r.failed = 1;
        assert!(r.result_line().starts_with("{\"correct\": false"));
        assert_eq!(parse_result_line("not a result"), None);
    }

    #[test]
    fn names_and_units_fit_the_manifest_rules() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(
                ok(n, "_.-", 64) && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(ok(u, "_/%.-", 16), "{u}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("required");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().len() < 64 << 10);
    }

    /// The repository root: the ancestor of this package that holds
    /// `BENCHMARK.json`.
    fn repo_root() -> std::path::PathBuf {
        let start = std::env::var("CARGO_MANIFEST_DIR").expect("cargo runs the tests");
        std::path::Path::new(&start)
            .ancestors()
            .find(|d| d.join("BENCHMARK.json").exists())
            .expect("BENCHMARK.json at the repository root")
            .to_path_buf()
    }

    /// `BENCHMARK.json` is generated (`e2e --manifest`), not hand-written.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let on_disk =
            std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("readable");
        assert_eq!(on_disk, manifest(), "regenerate with `e2e --manifest`");
    }

    /// The stand-alone manifest next to this file copies the root manifest's
    /// release profile, so the driver's command measures the build the
    /// repository ships. This fails when the two drift apart.
    #[test]
    fn the_standalone_manifest_keeps_the_root_release_profile() {
        let profile = |manifest: &str| {
            let mut settings: Vec<String> = manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap_or("").replace(' ', ""))
                .filter(|l| !l.is_empty())
                .collect();
            settings.sort_unstable();
            settings
        };
        let root = std::fs::read_to_string(repo_root().join("Cargo.toml")).expect("readable");
        let own = profile(include_str!("Cargo.toml"));
        assert!(!own.is_empty(), "the stand-alone manifest sets a profile");
        assert_eq!(own, profile(&root), "copy the root [profile.release]");
    }
}
