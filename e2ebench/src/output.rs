//! What a run prints and writes: the human-readable report, the result
//! file with its provenance, and the one-line JSON result that ends
//! standard output.

use crate::workloads::{Metric, RunOutcome};
use std::fmt::Write as _;
use std::path::Path;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("speedup_vs_seq", "x"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("bnb.seq_ns_per_expansion", "ns"),
    ("bnb.seq_expansions", "count"),
    ("core.expand_ns", "ns"),
    ("core.rebuild_ratio", "x"),
    ("runtime.solo_ns_per_expansion", "ns"),
    ("runtime.bookkeeping_ns_per_expansion", "ns"),
    ("core.work_inflation", "x"),
    ("core.pruned_at_pop", "count"),
    ("core.recoveries", "count"),
    ("wire.frames_per_expansion", "frames/exp"),
    ("wire.bytes_per_expansion", "B/exp"),
    ("wire.writes_per_frame", "x"),
    ("wire.dropped", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("tree.insert_ns", "ns"),
    ("tree.complement_ns", "ns"),
    ("gossip.kill_to_suspect_s", "s"),
    ("core.kill_to_first_recovery_s", "s"),
    ("core.recovery_span_s", "s"),
    ("phase.expand_share", "share"),
    ("phase.communicate_share", "share"),
    ("phase.contract_share", "share"),
    ("phase.load_balance_share", "share"),
    ("phase.membership_share", "share"),
    ("phase.idle_share", "share"),
    ("telemetry.overhead_ratio", "x"),
    ("attribution.unexplained_share", "share"),
    ("des.events_per_s", "1/s"),
    ("sim.exec_s", "s"),
    ("sim.messages", "count"),
    ("sim.msgs_per_proc", "count"),
    ("sim.bytes_per_proc", "B"),
    ("sim.bound_broadcasts", "count"),
    ("sim.redundant_expansions", "count"),
    ("sim.storage_peak_bytes", "B"),
];

/// The metric set a run reports.
pub fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Names of the expected metrics the run is missing, or reports with a
/// wrong unit or a non-finite value.
pub fn missing(outcome: &RunOutcome, trace: bool) -> Vec<String> {
    expected(trace)
        .iter()
        .filter(|(name, unit)| {
            !outcome
                .metrics
                .iter()
                .any(|m| m.name == *name && m.unit == *unit && m.value.is_finite())
        })
        .map(|(name, _)| name.to_string())
        .collect()
}

/// Did the run pass: no failed solve and every expected metric present.
pub fn correct(outcome: &RunOutcome, trace: bool) -> bool {
    outcome.tally.failed == 0 && outcome.tally.attempted > 0 && missing(outcome, trace).is_empty()
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits; `null` otherwise.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn metrics_object(metrics: &[&Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The final JSON line: the expected metric set only, in its fixed order.
pub fn result_line(outcome: &RunOutcome, trace: bool) -> String {
    let metrics: Vec<&Metric> = expected(trace)
        .iter()
        .filter_map(|(name, _)| outcome.metrics.iter().find(|m| m.name == *name))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct(outcome, trace),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics_object(&metrics)
    )
}

fn metric_line(m: &Metric) -> String {
    match (&m.summary, &m.basis) {
        (Some(s), None) => format!("  {:<38} {} {}", m.name, s.render(6), m.unit),
        (Some(s), Some(basis)) => format!(
            "  {:<38} {:.6} {} ({basis}; per solve: median {} {})",
            m.name,
            m.value,
            m.unit,
            s.render(6),
            m.unit
        ),
        (None, _) => format!("  {:<38} {:.6} {}", m.name, m.value, m.unit),
    }
}

/// The human-readable report.
pub fn report(outcome: &RunOutcome, provenance: &[(String, String)], trace: bool) -> String {
    let mut text = String::new();
    for (k, v) in provenance.iter().chain(&outcome.provenance) {
        let _ = writeln!(text, "{k}: {v}");
    }
    let _ = writeln!(
        text,
        "solves: {} attempted, {} failed\n  {:<38} {:.6} share",
        outcome.tally.attempted,
        outcome.tally.failed,
        "failed_frac",
        outcome.tally.failed_frac()
    );
    for f in &outcome.tally.failures {
        let _ = writeln!(text, "FAILED {f}");
    }
    let set = if trace { "per-layer" } else { "end-to-end" };
    let _ = writeln!(text, "{set} metrics (median, tail percentile, samples):");
    for m in &outcome.metrics {
        let _ = writeln!(text, "{}", metric_line(m));
    }
    if !outcome.extra.is_empty() {
        let _ = writeln!(text, "also measured:");
        for m in &outcome.extra {
            let _ = writeln!(text, "{}", metric_line(m));
        }
    }
    for section in &outcome.text {
        text.push_str(section);
    }
    for name in missing(outcome, trace) {
        let _ = writeln!(text, "MISSING metric {name}");
    }
    text
}

/// The result file: provenance, every metric with its summary, failures.
pub fn result_file(outcome: &RunOutcome, provenance: &[(String, String)], trace: bool) -> String {
    let mut out = String::from("{\n  \"provenance\": {\n");
    let entries: Vec<String> = provenance
        .iter()
        .chain(&outcome.provenance)
        .map(|(k, v)| format!("    {}: {}", json_str(k), json_str(v)))
        .collect();
    out.push_str(&entries.join(",\n"));
    let _ = write!(
        out,
        "\n  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failed_frac\": {},\n",
        correct(outcome, trace),
        outcome.tally.attempted,
        outcome.tally.failed,
        json_num(outcome.tally.failed_frac())
    );
    let failures: Vec<String> = outcome.tally.failures.iter().map(|f| json_str(f)).collect();
    let _ = writeln!(out, "  \"failures\": [{}],", failures.join(", "));
    out.push_str("  \"metrics\": [\n");
    let rows: Vec<String> = outcome
        .metrics
        .iter()
        .chain(&outcome.extra)
        .map(|m| {
            let (tail, n) = match &m.summary {
                Some(s) => (
                    s.tail.map_or("null".into(), |(p, v)| {
                        format!(
                            "{{\"percentile\": {}, \"value\": {}}}",
                            json_num(p),
                            json_num(v)
                        )
                    }),
                    s.n.to_string(),
                ),
                None => ("null".into(), "null".into()),
            };
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"value\": {}, \"tail\": {tail}, \"n\": {n}}}",
                json_str(m.name),
                json_str(m.unit),
                json_num(m.value)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The current git commit of the checkout, when it is a git checkout.
pub fn git_commit(dir: &Path) -> String {
    std::process::Command::new("git")
        .arg("rev-parse")
        .arg("HEAD")
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Tally;

    fn outcome_with(names: &[(&'static str, &'static str)]) -> RunOutcome {
        RunOutcome {
            tally: Tally {
                attempted: 3,
                ..Tally::default()
            },
            metrics: names
                .iter()
                .map(|&(n, u)| Metric::value(n, u, 0.125))
                .collect(),
            ..RunOutcome::default()
        }
    }

    #[test]
    fn complete_run_is_correct() {
        let out = outcome_with(&END_TO_END);
        assert!(correct(&out, false));
        let line = result_line(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
    }

    #[test]
    fn a_failed_solve_or_missing_metric_is_incorrect() {
        let mut out = outcome_with(&END_TO_END);
        out.tally.record::<()>("solve", Err("wrong optimum".into()));
        assert!(!correct(&out, false));
        assert!(result_line(&out, false).contains("\"failed\": 1"));

        let out = outcome_with(&END_TO_END[..2]);
        assert_eq!(missing(&out, false), vec!["setup_s".to_string()]);
        assert!(!correct(&out, false));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = spec.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
