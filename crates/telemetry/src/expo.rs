//! Prometheus-style text exposition.
//!
//! [`MetricsWriter`] renders counters, gauges and histograms in the
//! Prometheus text format (`name{label="value"} 42`, histogram
//! `_bucket`/`_sum`/`_count` triples with cumulative `le` buckets). The
//! format requires every line of one metric to form one group, so the
//! page is grouped by name: each name's single `# TYPE` header is
//! followed by all of its samples, names in the order first written.
//! Samples may be written in any order — a router writing every series of
//! one dataset, then the next — and the page stays scrape-valid.
//!
//! Histogram values recorded as nanoseconds are exposed in **seconds**
//! (the Prometheus base unit for time); counters and gauges pass through
//! unscaled.

use std::collections::HashMap;
use std::fmt::Write;

use crate::hist::HistSnapshot;

const NS_PER_SEC: f64 = 1e9;

/// Escape a label value per the exposition format: backslash, quote, and
/// newline.
fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a label set as `{k="v",…}`, with an extra pair appended (used
/// for histogram `le`). Empty input and no extra renders as nothing.
fn label_block(labels: &[(&str, &str)], extra: Option<(&str, String)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Render an `f64` the way Prometheus expects: `+Inf`/`-Inf`/`NaN`
/// spellings, plain decimal otherwise.
fn number(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

/// Incremental builder of a metrics page.
#[derive(Debug, Default)]
pub struct MetricsWriter {
    /// Each metric's `# TYPE` header and samples, in first-written order.
    families: Vec<String>,
    /// Metric name → its family's index in `families`.
    index: HashMap<String, usize>,
}

impl MetricsWriter {
    /// An empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// `name`'s family text, opened with its `# TYPE` header the first
    /// time the name is written.
    fn family(&mut self, name: &str, kind: &str) -> &mut String {
        let families = &mut self.families;
        let i = *self.index.entry(name.to_string()).or_insert_with(|| {
            families.push(format!("# TYPE {name} {kind}\n"));
            families.len() - 1
        });
        &mut self.families[i]
    }

    /// One counter sample: `name{labels} value`.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let labels = label_block(labels, None);
        let _ = writeln!(self.family(name, "counter"), "{name}{labels} {value}");
    }

    /// One gauge sample: `name{labels} value`.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let (labels, value) = (label_block(labels, None), number(value));
        let _ = writeln!(self.family(name, "gauge"), "{name}{labels} {value}");
    }

    /// One histogram series, nanosecond-recorded, exposed in seconds:
    /// cumulative `name_bucket{…,le="…"}` lines for every occupied bucket
    /// plus `le="+Inf"`, then `name_sum` and `name_count`.
    pub fn histogram_seconds(&mut self, name: &str, labels: &[(&str, &str)], h: &HistSnapshot) {
        self.histogram(name, labels, h);
    }

    /// One histogram series with bounds and sum converted from nanoseconds
    /// to seconds.
    fn histogram(&mut self, name: &str, labels: &[(&str, &str)], h: &HistSnapshot) {
        let out = self.family(name, "histogram");
        let mut cumulative = 0u64;
        for (bound, count) in h.buckets() {
            cumulative += count;
            let le = label_block(labels, Some(("le", number(bound as f64 / NS_PER_SEC))));
            let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
        }
        let inf = label_block(labels, Some(("le", "+Inf".to_string())));
        let plain = label_block(labels, None);
        let _ = writeln!(out, "{name}_bucket{inf} {}", h.count());
        let _ = writeln!(
            out,
            "{name}_sum{plain} {}",
            number(h.sum() as f64 / NS_PER_SEC)
        );
        let _ = writeln!(out, "{name}_count{plain} {}", h.count());
    }

    /// The rendered page: each metric's family whole, in first-written
    /// order.
    pub fn finish(self) -> String {
        self.families.concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    #[test]
    fn counters_and_gauges_render_with_one_type_header() {
        let mut w = MetricsWriter::new();
        w.counter("hin_served_total", &[("dataset", "dblp")], 42);
        w.counter("hin_served_total", &[("dataset", "flickr")], 7);
        w.gauge("hin_queue_depth", &[], 3.0);
        let page = w.finish();
        assert_eq!(
            page.matches("# TYPE hin_served_total counter").count(),
            1,
            "one TYPE header per name: {page}"
        );
        assert!(page.contains("hin_served_total{dataset=\"dblp\"} 42\n"));
        assert!(page.contains("hin_served_total{dataset=\"flickr\"} 7\n"));
        assert!(page.contains("hin_queue_depth 3\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets_in_seconds() {
        let h = Histogram::new();
        h.record(1_000_000); // 1 ms
        h.record(1_000_000);
        h.record(2_000_000_000); // 2 s
        let mut w = MetricsWriter::new();
        w.histogram_seconds("hin_e2e_seconds", &[("dataset", "d")], &h.snapshot());
        let page = w.finish();
        assert!(page.contains("# TYPE hin_e2e_seconds histogram"));
        assert!(page.contains("le=\"+Inf\"} 3\n"), "total count: {page}");
        assert!(page.contains("hin_e2e_seconds_count{dataset=\"d\"} 3\n"));
        // sum = 2.002 s
        assert!(page.contains("hin_e2e_seconds_sum{dataset=\"d\"} 2.002\n"));
        // cumulative: the 1 ms bucket line carries count 2
        assert!(
            page.lines().any(|l| l.starts_with("hin_e2e_seconds_bucket")
                && l.ends_with(" 2")
                && l.contains("le=\"0.001")),
            "1ms bucket cumulative count: {page}"
        );
    }

    #[test]
    fn interleaved_writes_render_each_family_as_one_group() {
        let h = Histogram::new();
        h.record(2);
        let mut w = MetricsWriter::new();
        for ds in ["a", "b"] {
            w.counter("served", &[("dataset", ds)], 1);
            w.histogram_seconds("batch", &[("dataset", ds)], &h.snapshot());
            w.gauge("health", &[("dataset", ds)], 1.0);
        }
        w.counter("served", &[("dataset", "c")], 2);
        assert_eq!(
            w.finish(),
            "# TYPE served counter\n\
             served{dataset=\"a\"} 1\n\
             served{dataset=\"b\"} 1\n\
             served{dataset=\"c\"} 2\n\
             # TYPE batch histogram\n\
             batch_bucket{dataset=\"a\",le=\"0.000000002\"} 1\n\
             batch_bucket{dataset=\"a\",le=\"+Inf\"} 1\n\
             batch_sum{dataset=\"a\"} 0.000000002\n\
             batch_count{dataset=\"a\"} 1\n\
             batch_bucket{dataset=\"b\",le=\"0.000000002\"} 1\n\
             batch_bucket{dataset=\"b\",le=\"+Inf\"} 1\n\
             batch_sum{dataset=\"b\"} 0.000000002\n\
             batch_count{dataset=\"b\"} 1\n\
             # TYPE health gauge\n\
             health{dataset=\"a\"} 1\n\
             health{dataset=\"b\"} 1\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = MetricsWriter::new();
        w.counter("m", &[("k", "a\"b\\c\nd")], 1);
        assert!(w.finish().contains("m{k=\"a\\\"b\\\\c\\nd\"} 1"));
    }
}
