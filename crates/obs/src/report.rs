//! Plain-data snapshot of a recording session, with the two export
//! formats the CLI speaks (`--trace-format {json,flame}`) and the span
//! coverage measure the acceptance tests assert on.
//!
//! The JSON is hand-rendered (schema `srda-obs-v1`) because the workspace
//! must stay dependency-free; the flame output is the standard folded-
//! stack format (`path;seg;seg <microseconds>` per line) consumed by
//! `flamegraph.pl` and speedscope.

use std::collections::BTreeMap;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Hierarchical path, segments separated by `/`.
    pub path: String,
    /// Start offset from the recorder's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Small stable tag of the recording thread.
    pub thread: u64,
}

/// Snapshot of a fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending inclusive upper bounds.
    pub bounds: Vec<f64>,
    /// One count per bound.
    pub counts: Vec<u64>,
    /// Observations above the last bound.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
}

/// Snapshot of one solver telemetry channel.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// Channel label (e.g. `fit/response[3]/lsqr`).
    pub label: String,
    /// Solver name, e.g. `"lsqr"` (empty if the solve never configured it).
    pub solver: String,
    /// Execution backend the solve ran on.
    pub backend: String,
    /// Damping parameter in effect.
    pub damp: f64,
    /// Governor checks the loop made.
    pub governor_checks: u64,
    /// Per-iteration records, in order.
    pub iterations: Vec<crate::IterationRecord>,
}

/// Everything a [`crate::Recorder`] collected, as plain data.
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// Closed spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Solver telemetry channels, in open order.
    pub traces: Vec<TraceSnapshot>,
}

/// Escape a string for a JSON literal (quotes not included).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an f64 as a JSON value: shortest-roundtrip decimal for finite
/// values (Rust's `{}` float formatting round-trips), `null` otherwise.
fn jf64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // "1" is a valid JSON number, but keep floats visibly floats
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

impl ObsReport {
    /// Serialize the whole report as schema `srda-obs-v1` JSON. This is
    /// the `--metrics-out` payload and the `"obs"` section the bench
    /// driver embeds in `BENCH_*.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"srda-obs-v1\",\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"thread\": {}}}",
                esc(&s.path),
                s.start_ns,
                s.dur_ns,
                s.thread
            ));
        }
        out.push_str("\n  ],\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", esc(k), v));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", esc(k), jf64(*v)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let bounds: Vec<String> = h.bounds.iter().map(|b| jf64(*b)).collect();
            let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
            out.push_str(&format!(
                "\n    \"{}\": {{\"bounds\": [{}], \"counts\": [{}], \"overflow\": {}, \
                 \"count\": {}, \"sum\": {}}}",
                esc(k),
                bounds.join(", "),
                counts.join(", "),
                h.overflow,
                h.count,
                jf64(h.sum)
            ));
        }
        out.push_str("\n  },\n  \"solver_traces\": [");
        for (i, t) in self.traces.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"label\": \"{}\", \"solver\": \"{}\", \"backend\": \"{}\", \
                 \"damp\": {}, \"governor_checks\": {}, \"iterations\": [",
                esc(&t.label),
                esc(&t.solver),
                esc(&t.backend),
                jf64(t.damp),
                t.governor_checks
            ));
            for (j, it) in t.iterations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"iter\": {}, \"residual\": {}, \"atr_norm\": {}}}",
                    it.iteration,
                    jf64(it.residual),
                    jf64(it.atr_norm)
                ));
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Serialize the span log in folded-stack flame format: one line per
    /// distinct path, `seg;seg;seg <total microseconds>`.
    pub fn to_flame(&self) -> String {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.spans {
            *agg.entry(s.path.replace('/', ";")).or_insert(0) += s.dur_ns / 1_000;
        }
        let mut out = String::new();
        for (stack, micros) in agg {
            out.push_str(&format!("{stack} {micros}\n"));
        }
        out
    }

    /// Fraction of the wall time of the (single) span named `root` that
    /// is covered by the union of its descendant spans' intervals — the
    /// "spans cover ≥ 95% of fit wall time" acceptance measure. Returns
    /// `None` when `root` is absent or has zero duration.
    pub fn span_coverage(&self, root: &str) -> Option<f64> {
        let r = self.spans.iter().find(|s| s.path == root)?;
        if r.dur_ns == 0 {
            return None;
        }
        let (r0, r1) = (r.start_ns, r.start_ns + r.dur_ns);
        let prefix = format!("{root}/");
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.path.starts_with(&prefix))
            .map(|s| (s.start_ns.max(r0), (s.start_ns + s.dur_ns).min(r1)))
            .filter(|(a, b)| a < b)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in intervals {
            match cur {
                None => cur = Some((a, b)),
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        Some(covered as f64 / (r1 - r0) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            path: path.into(),
            start_ns: start,
            dur_ns: dur,
            thread: 0,
        }
    }

    #[test]
    fn coverage_unions_overlapping_children() {
        let rep = ObsReport {
            spans: vec![
                span("fit", 0, 100),
                span("fit/a", 0, 50),
                span("fit/a/deep", 10, 30), // nested inside fit/a: no double count
                span("fit/b", 40, 60),      // overlaps fit/a by 10
            ],
            ..ObsReport::default()
        };
        let cov = rep.span_coverage("fit").unwrap();
        assert!((cov - 1.0).abs() < 1e-12, "covered 0..100 fully, got {cov}");

        let rep2 = ObsReport {
            spans: vec![span("fit", 0, 100), span("fit/a", 0, 50)],
            ..ObsReport::default()
        };
        assert!((rep2.span_coverage("fit").unwrap() - 0.5).abs() < 1e-12);
        assert!(rep2.span_coverage("nope").is_none());
    }

    #[test]
    fn json_is_structurally_sound() {
        let mut rep = ObsReport {
            spans: vec![span("fit", 0, 5)],
            ..ObsReport::default()
        };
        rep.counters.insert("flam.fit".into(), 7);
        rep.gauges.insert("alpha".into(), 1.5);
        rep.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                bounds: vec![1.0],
                counts: vec![2],
                overflow: 1,
                count: 3,
                sum: 4.5,
            },
        );
        rep.traces.push(TraceSnapshot {
            label: "fit/response[0]/lsqr".into(),
            solver: "lsqr".into(),
            backend: "serial".into(),
            damp: 1.0,
            governor_checks: 2,
            iterations: vec![crate::IterationRecord {
                iteration: 1,
                residual: 0.5,
                atr_norm: f64::NAN, // must render as null, not NaN
            }],
        });
        let json = rep.to_json();
        assert!(json.contains("\"schema\": \"srda-obs-v1\""));
        assert!(json.contains("\"flam.fit\": 7"));
        assert!(json.contains("\"atr_norm\": null"));
        assert!(json.contains("\"damp\": 1.0"));
        // balanced braces/brackets (cheap structural check without a parser)
        for (open, close) in [('{', '}'), ('[', ']')] {
            let o = json.matches(open).count();
            let c = json.matches(close).count();
            assert_eq!(o, c, "unbalanced {open}{close}");
        }
    }

    #[test]
    fn flame_folds_paths() {
        let rep = ObsReport {
            spans: vec![
                span("fit", 0, 10_000),
                span("fit/a", 0, 3_000),
                span("fit/a", 5_000, 3_000),
            ],
            ..ObsReport::default()
        };
        let flame = rep.to_flame();
        assert!(flame.contains("fit 10\n"));
        assert!(flame.contains("fit;a 6\n"));
    }
}
