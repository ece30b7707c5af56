//! Rendering reports: human-readable text and the versioned JSON report
//! documents.
//!
//! Every JSON artifact the workspace produces — `dds verify --json`,
//! `dds fuzz --json`, the E1–E10 bench runner, the `dds serve` wire
//! protocol and the serve load harness — shares one documented document
//! shape (see `docs/SPEC_LANGUAGE.md` § "The JSON report schema"):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "kind": "verify",
//!   "records": [
//!     {"id": "...", "wall_ns": 0, "configs_explored": 0, "outcome": "..."}
//!   ]
//! }
//! ```
//!
//! `schema_version` is bumped on any incompatible change; `kind`
//! distinguishes producers (`verify`, `fuzz`, `bench`, `serve-load`) while
//! the record shape stays identical, so downstream consumers parse one
//! format. [`document`] is the shared assembler.

use crate::equiv::EquivReport;
use crate::runner::SpecReport;
use dds_core::EngineStats;
use std::fmt::Write as _;

/// The JSON report schema version this workspace writes.
pub const SCHEMA_VERSION: u32 = 1;

/// Assembles a versioned JSON report document from pre-rendered record
/// objects (each a complete `{...}` JSON object, no trailing comma).
pub fn document(kind: &str, records: &[String]) -> String {
    let mut s = format!(
        "{{\n\"schema_version\": {SCHEMA_VERSION},\n\"kind\": \"{kind}\",\n\"records\": [\n"
    );
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(s, "  {r}{}", if i + 1 == records.len() { "" } else { "," });
    }
    s.push_str("]\n}\n");
    s
}

/// Renders one record object in the shared shape.
pub fn record(id: &str, wall_ns: u128, configs_explored: u64, outcome: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"wall_ns\":{},\"configs_explored\":{},\"outcome\":\"{}\"}}",
        crate::json::escape(id),
        wall_ns,
        configs_explored,
        crate::json::escape(outcome),
    )
}

/// Renders a structured error document (the `dds serve` error responses).
pub fn error_json(code: &str, message: &str, line: Option<usize>) -> String {
    let line_field = match line {
        Some(n) => format!(",\"line\":{n}"),
        None => String::new(),
    };
    format!(
        "{{\n\"schema_version\": {SCHEMA_VERSION},\n\"kind\": \"error\",\n\"error\": {{\"code\":\"{}\",\"message\":\"{}\"{line_field}}}\n}}\n",
        crate::json::escape(code),
        crate::json::escape(message),
    )
}

/// Writes the deterministic `EngineStats` counters as one indented
/// `stats:` line (shared by [`text`] and [`equiv_text`]).
fn stats_line(out: &mut String, s: &EngineStats) {
    let _ = writeln!(
        out,
        "  stats: explored={} unique={} transitions={} cache_hits={} dedup={}/{} levels={} initial={}",
        s.configs_explored,
        s.unique_configs,
        s.transitions_computed,
        s.transition_cache_hits,
        s.dedup_hits,
        s.dedup_probes,
        s.levels,
        s.initial_configs,
    );
}

/// Renders one spec report as text.
///
/// Everything printed is deterministic (outcomes, traces, witnesses, the
/// deterministic `EngineStats` counters); wall-clock timings are appended
/// only with `timings` — the golden suite pins the `timings = false` form.
pub fn text(report: &SpecReport, timings: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {}: system {} ({})",
        report.path, report.system, report.header
    );
    for p in &report.properties {
        let verdict = match (&p.expect, p.pass) {
            (Some(want), Some(true)) => format!("  [expect {want}: PASS]"),
            (Some(want), _) => format!("  [expect {want}: FAIL]"),
            (None, Some(false)) => "  [FAIL]".into(),
            (None, _) => String::new(),
        };
        let _ = writeln!(out, "property {}: {}{verdict}", p.id, p.outcome);
        if let Some(s) = &p.stats {
            stats_line(&mut out, s);
        }
        if let Some(t) = &p.trace {
            let _ = writeln!(out, "  trace: {t}");
        }
        if let Some(db) = &p.witness_db {
            let _ = writeln!(out, "  witness database: {db}");
        }
        if let Some(run) = &p.witness_run {
            let _ = writeln!(out, "  witness run: {run}");
        }
        if timings {
            let _ = writeln!(out, "  wall_ns: {}", p.wall_ns);
        }
    }
    out
}

/// Renders reports as a versioned JSON document (`kind: "verify"`) with
/// one record per property — the same record shape `BENCH_E1_E10.json`
/// uses, so downstream consumers parse one format. The `dds serve`
/// `/verify` responses are produced by this exact function, which is what
/// makes CLI and server outputs byte-identical (up to `wall_ns`).
pub fn json(reports: &[SpecReport]) -> String {
    let records: Vec<String> = reports
        .iter()
        .flat_map(|r| &r.properties)
        .map(|p| record(&p.id, p.wall_ns, p.configs_explored, &p.outcome))
        .collect();
    document("verify", &records)
}

/// Renders an equivalence report as text.
///
/// Same contract as [`text`]: everything except the `timings`-gated
/// wall-clock lines is deterministic, so the golden suite pins the
/// `timings = false` form.
pub fn equiv_text(report: &EquivReport, timings: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== equiv: {} vs {} (system {} ~ {}, class {}{})",
        report.label_a,
        report.label_b,
        report.system_a,
        report.system_b,
        report.class,
        if report.bisim { ", stepwise" } else { "" },
    );
    for p in &report.pairs {
        let _ = writeln!(
            out,
            "property {}: a={} b={} -> {}",
            p.name, p.a_outcome, p.b_outcome, p.verdict
        );
        if let Some(s) = &p.stats {
            stats_line(&mut out, s);
        }
        if let Some(d) = &p.detail {
            let _ = writeln!(out, "  note: {d}");
        }
        if let (Some(side), Some(t)) = (&p.witness_side, &p.trace) {
            let _ = writeln!(out, "  witness (spec {side}): {t}");
        }
        if let Some(db) = &p.witness_db {
            let _ = writeln!(out, "  witness database: {db}");
        }
        if let Some(run) = &p.witness_run {
            let _ = writeln!(out, "  witness run: {run}");
        }
        if timings {
            let _ = writeln!(out, "  wall_ns: {}", p.wall_ns);
        }
    }
    let _ = writeln!(out, "verdict: {}", report.verdict());
    out
}

/// Renders an equivalence report as a versioned JSON document
/// (`kind: "equiv"`): one record per property pair in the shared record
/// shape extended with `a_outcome`, `b_outcome` and (when divergent)
/// `witness_side`, plus a trailing `::verdict` summary record.
pub fn equiv_json(report: &EquivReport) -> String {
    let prefix = format!("{}~{}", report.system_a, report.system_b);
    let mut records = Vec::with_capacity(report.pairs.len() + 1);
    for p in &report.pairs {
        let side = match &p.witness_side {
            Some(s) => format!(",\"witness_side\":\"{}\"", crate::json::escape(s)),
            None => String::new(),
        };
        records.push(format!(
            "{{\"id\":\"{}\",\"wall_ns\":{},\"configs_explored\":{},\"outcome\":\"{}\",\"a_outcome\":\"{}\",\"b_outcome\":\"{}\"{side}}}",
            crate::json::escape(&format!("{prefix}::{}", p.name)),
            p.wall_ns,
            p.configs_explored,
            crate::json::escape(&p.verdict),
            crate::json::escape(&p.a_outcome),
            crate::json::escape(&p.b_outcome),
        ));
    }
    let total_wall: u128 = report.pairs.iter().map(|p| p.wall_ns).sum();
    let total_configs: u64 = report.pairs.iter().map(|p| p.configs_explored).sum();
    records.push(record(
        &format!("{prefix}::verdict"),
        total_wall,
        total_configs,
        report.verdict(),
    ));
    document("equiv", &records)
}

/// Zeroes the `wall_ns` fields of a rendered JSON string — the normalization
/// the golden suite applies so measurements never flap snapshots.
pub fn normalize_wall_ns(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("\"wall_ns\":") {
        let end = at + "\"wall_ns\":".len();
        out.push_str(&rest[..end]);
        rest = &rest[end..];
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        out.push('0');
        rest = &rest[digits..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_zeroes_every_wall_ns() {
        let s = "[{\"id\":\"a\",\"wall_ns\":123456,\"x\":1},{\"wall_ns\":9}]";
        assert_eq!(
            normalize_wall_ns(s),
            "[{\"id\":\"a\",\"wall_ns\":0,\"x\":1},{\"wall_ns\":0}]"
        );
    }
}
