//! The traced run: the workload's specs in-process, through each layer's
//! public call, with one span per call.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written to a file when the run ends. Passes alternate between tracing
//! on and off; a layer's metric is the median over traced passes of its
//! total self time (its spans minus the parts their child spans cover),
//! and `trace.overhead_ratio` is the median traced pass over the median
//! untraced one.
//!
//! `Engine::run` runs with `concretize(false)`; certification is then
//! called explicitly (`SymbolicClass::concretize`, then
//! `System::check_run` against `Engine::compiled_system()`), so every
//! witness is re-checked here independently of the engine.

use crate::workload::{Entry, Manifest};
use dds_cli::lower::{AnyClass, Task};
use dds_cli::runner::{PropertyReport, RunOptions, SpecReport};
use dds_cli::{api, lower, parse_spec, render, EquivRequest};
use dds_core::{Engine, EngineOptions, EngineStats, Outcome, SymbolicClass};
use dds_reductions::words_succ;
use dds_system::System;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u32,
}

/// Span and counter recorder for one pass; does nothing while `on` is
/// false. `threads` is the engine thread count of the calls it wraps.
#[derive(Debug)]
struct Tracer {
    on: bool,
    threads: usize,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    fn count(&mut self, name: &'static str, v: impl Into<f64>) {
        if self.on {
            *self.counts.entry(name).or_default() += v.into();
        }
    }

    /// Self time per span name: each span's duration minus the union of
    /// its children's intervals.
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            *out.entry(s.name).or_default() += (s.end_ns - s.start_ns - covered) as f64;
        }
        out
    }
}

/// The per-layer metric each span name's self time feeds.
const SPAN_METRICS: [(&str, &str); 10] = [
    ("parse", "parse.ns"),
    ("api", "api.fingerprint_ns"),
    ("lower", "lower.ns"),
    ("elim", "elim.ns"),
    ("engine", "engine.search_ns"),
    ("certify.concretize", "certify.concretize_ns"),
    ("certify.check_run", "certify.check_run_ns"),
    ("product", "product.ns"),
    ("reductions", "reductions.halt_ns"),
    ("render", "render.ns"),
];

/// What one operation produced.
enum Verdict {
    /// Ran to an outcome (`nonempty`, `empty`, `halts`, `equivalent`, ...).
    Ran(String),
    /// Served from the (simulated) result cache.
    Hit,
    /// The spec did not parse or lower.
    SpecError,
}

/// Deterministic per-operation counters for the diagnostic rows.
#[derive(Default)]
struct Row {
    configs_explored: u64,
    unique_configs: u64,
    trace_len: u64,
}

/// The engine options `dds verify --threads N --no-certify` uses.
fn search_options(threads: usize) -> EngineOptions {
    let run = RunOptions::default();
    EngineOptions::default()
        .threads(threads)
        .chunk_size(run.chunk_size)
        .max_configs(run.max_configs)
        .concretize(false)
}

fn record_stats(t: &mut Tracer, row: &mut Row, s: &EngineStats) {
    row.configs_explored += s.configs_explored as u64;
    row.unique_configs += s.unique_configs as u64;
    let fields: [(&'static str, f64); 14] = [
        ("engine.expand_ns", s.expand_ns as f64),
        ("engine.canon_ns", s.canon_ns as f64),
        ("engine.merge_ns", s.merge_ns as f64),
        ("engine.idle_ns", s.idle_ns as f64),
        ("engine.configs_explored", s.configs_explored as f64),
        ("engine.transitions_computed", s.transitions_computed as f64),
        (
            "engine.transition_cache_hits",
            s.transition_cache_hits as f64,
        ),
        ("engine.unique_configs", s.unique_configs as f64),
        ("engine.dedup_probes", s.dedup_probes as f64),
        ("engine.dedup_hits", s.dedup_hits as f64),
        ("engine.layers_parallel", s.layers_parallel as f64),
        ("engine.layers_inline", s.layers_inline as f64),
        ("engine.tasks_stolen", s.tasks_stolen as f64),
        ("engine.scratch_allocs", s.scratch_allocs as f64),
    ];
    for (name, v) in fields {
        t.count(name, v);
    }
}

/// Fact 2 elimination, the search, then explicit certification.
fn reach<C: SymbolicClass>(
    t: &mut Tracer,
    row: &mut Row,
    class: &C,
    system: &System,
) -> Result<(String, EngineStats), String> {
    let options = search_options(t.threads);
    let engine = t.span("elim", |_| Engine::new(class, system).with_options(options));
    let compiled = engine.compiled_system();
    t.count("elim.rules", compiled.rules().len() as f64);
    let outcome = t.span("engine", |_| engine.run());
    let stats = *outcome.stats();
    record_stats(t, row, &stats);
    if let Outcome::NonEmpty { trace, .. } = &outcome {
        row.trace_len += trace.len() as u64;
        t.count("certify.trace_len", trace.len() as f64);
        let witness = t.span("certify.concretize", |_| class.concretize(compiled, trace));
        if let Some((db, run)) = witness {
            t.span("certify.check_run", |_| compiled.check_run(&db, &run, true))
                .map_err(|e| format!("check_run rejects the witness: {e:?}"))?;
            t.count("certify.witness_elements", db.size() as f64);
        }
    }
    Ok((outcome.keyword().to_owned(), stats))
}

fn reach_any(
    t: &mut Tracer,
    row: &mut Row,
    class: &AnyClass,
    system: &System,
) -> Result<(String, EngineStats), String> {
    match class {
        AnyClass::Free(c) => reach(t, row, c, system),
        AnyClass::Hom(c) => reach(t, row, c, system),
        AnyClass::Order(c) => reach(t, row, c, system),
        AnyClass::Equiv(c) => reach(t, row, c, system),
        AnyClass::Words(c) => reach(t, row, c, system),
        AnyClass::Trees(c) => reach(t, row, c, system),
        AnyClass::DataFree(c) => reach(t, row, c, system),
        AnyClass::DataHom(c) => reach(t, row, c, system),
        AnyClass::DataOrder(c) => reach(t, row, c, system),
        AnyClass::DataEquiv(c) => reach(t, row, c, system),
        AnyClass::Counter(_) => Err("reach over a counter machine".into()),
    }
}

/// The `dds verify` / `POST /verify` pipeline for one spec. With `seen`,
/// a fingerprint already in the set is a cache hit and stops after lower,
/// as the daemon does.
fn verify(
    t: &mut Tracer,
    row: &mut Row,
    src: &str,
    seen: Option<&mut HashSet<u128>>,
) -> Result<Verdict, String> {
    t.count("parse.bytes", src.len() as f64);
    let Ok(ast) = t.span("parse", |_| parse_spec(src)) else {
        return Ok(Verdict::SpecError);
    };
    let fingerprint = t.span("api", |_| api::fingerprint(&ast, &RunOptions::default()));
    let Ok(lowered) = t.span("lower", |_| lower(&ast)) else {
        return Ok(Verdict::SpecError);
    };
    if let Some(seen) = seen {
        if !seen.insert(fingerprint) {
            return Ok(Verdict::Hit);
        }
    }
    let mut properties = Vec::new();
    for p in &lowered.properties {
        let (outcome, stats) = match &p.task {
            Task::Reach(system) => {
                let (o, s) = reach_any(t, row, &lowered.class, system)?;
                (o, Some(s))
            }
            Task::BoundedHalt { bound } => {
                let AnyClass::Counter(m) = &lowered.class else {
                    return Err("bounded-halt over a non-counter class".into());
                };
                let found = t.span("reductions", |_| words_succ::bounded_check(m, *bound));
                (
                    if found.is_some() { "halts" } else { "open" }.to_owned(),
                    None,
                )
            }
            _ => return Err(format!("task of `{}` is not benchmarked", p.name)),
        };
        properties.push(PropertyReport {
            id: format!("{}::{}", lowered.name, p.name),
            configs_explored: stats.map_or(0, |s| s.configs_explored as u64),
            outcome,
            expect: p.expect.clone(),
            pass: None,
            wall_ns: 0,
            stats,
            trace: None,
            witness_db: None,
            witness_run: None,
        });
    }
    let verdict = properties
        .iter()
        .map(|p| p.outcome.as_str())
        .collect::<Vec<_>>()
        .join(",");
    let report = SpecReport {
        path: String::new(),
        system: lowered.name.clone(),
        header: String::new(),
        properties,
    };
    let body = t.span("render", |_| render::json(std::slice::from_ref(&report)));
    t.count("render.bytes", body.len() as f64);
    Ok(Verdict::Ran(verdict))
}

/// The `dds equiv` pipeline: `EquivRequest::run`, whose search is
/// `Engine::run_multi` over the product system.
fn equiv(t: &mut Tracer, row: &mut Row, a: &str, b: &str) -> Result<Verdict, String> {
    let report = t
        .span("product", |t| {
            let options = RunOptions {
                threads: t.threads,
                ..RunOptions::default()
            };
            EquivRequest::new(a, b).options(options).run()
        })
        .map_err(|e| e.to_string())?;
    let configs: u64 = report.pairs.iter().map(|p| p.configs_explored).sum();
    row.configs_explored += configs;
    t.count("product.configs_explored", configs as f64);
    Ok(Verdict::Ran(report.verdict().to_owned()))
}

/// One pass over the manifest: every batch operation once, or the whole
/// serve schedule against a cache holding only the hot set. Returns the
/// per-operation `(id, verdict, row)` and the number of failed checks.
fn pass(t: &mut Tracer, m: &Manifest, hot: &HashSet<u128>) -> (Vec<(String, String, Row)>, usize) {
    let mut out = Vec::new();
    let mut failed = 0;
    let mut seen = hot.clone();
    let order: Vec<usize> = if m.schedule.is_empty() {
        (0..m.entries.len()).collect()
    } else {
        m.schedule
            .iter()
            .filter(|&&(phase, _, _)| phase == 0)
            .map(|&(_, _, i)| i)
            .collect()
    };
    for (n, &i) in order.iter().enumerate() {
        t.request = n as u32;
        let mut row = Row::default();
        let (got, want) = t.span("request", |t| match &m.entries[i] {
            Entry::Verify { src, expect, .. } => (verify(t, &mut row, src, None), expect.clone()),
            Entry::Equiv { a, b, .. } => (equiv(t, &mut row, a, b), "equivalent".to_owned()),
            Entry::Serve {
                src, kind, expect, ..
            } => {
                let want = if kind == "hot" { "hit" } else { expect };
                (verify(t, &mut row, src, Some(&mut seen)), want.to_owned())
            }
        });
        let got = match got {
            Ok(Verdict::Ran(v)) => v,
            Ok(Verdict::Hit) => "hit".to_owned(),
            Ok(Verdict::SpecError) => "spec-error".to_owned(),
            Err(e) => format!("error: {e}"),
        };
        if got != want {
            failed += 1;
            eprintln!(
                "traced {}: got `{got}`, expected `{want}`",
                m.entries[i].id()
            );
        }
        out.push((m.entries[i].id().to_owned(), got, row));
    }
    (out, failed)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Runs alternating untraced and traced passes for `seconds` (at least one
/// of each), prints `row`, `metric` and `passes` lines, and writes every
/// traced span to `spans_path`. Returns the number of failed checks.
pub fn run(m: &Manifest, seconds: f64, spans_path: &str) -> Result<usize, String> {
    // The daemon's hot set is cached before the open loop starts.
    let hot: HashSet<u128> = m
        .entries
        .iter()
        .filter_map(|e| match e {
            Entry::Serve { kind, src, .. } if kind == "hot" => parse_spec(src)
                .ok()
                .map(|ast| api::fingerprint(&ast, &RunOptions::default())),
            _ => None,
        })
        .collect();
    let start = Instant::now();
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first: Option<Vec<(String, String, Row)>> = None;
    let mut spans_out = String::new();
    let mut failed = 0;
    let mut k = 0;
    while k < 2 || start.elapsed().as_secs_f64() < seconds {
        let mut t = Tracer {
            on: k % 2 == 1,
            threads: m.threads,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        };
        let (ops, bad) = pass(&mut t, m, &hot);
        let wall = t.t0.elapsed().as_nanos() as f64;
        failed += bad;
        if !t.on {
            untraced_ns.push(wall);
            k += 1;
            continue;
        }
        traced_ns.push(wall);
        let mut metrics = t.counts.clone();
        for (span, ns) in t.self_times() {
            if let Some((_, metric)) = SPAN_METRICS.iter().find(|(s, _)| *s == span) {
                metrics.insert(metric, ns);
            }
        }
        per_pass.push(metrics);
        for s in &t.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                spans_out,
                "{{\"pass\":{k},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        first.get_or_insert(ops);
        k += 1;
    }
    std::fs::write(spans_path, spans_out).map_err(|e| format!("{spans_path}: {e}"))?;

    let mut out = String::new();
    for (id, verdict, row) in first.unwrap_or_default() {
        let _ = writeln!(
            out,
            "row {id} {verdict} {} {} {}",
            row.configs_explored, row.unique_configs, row.trace_len
        );
    }
    let names: BTreeSet<&str> = per_pass.iter().flat_map(|p| p.keys().copied()).collect();
    for name in names {
        let v = median(
            per_pass
                .iter()
                .map(|p| p.get(name).copied().unwrap_or(0.0))
                .collect(),
        );
        let _ = writeln!(out, "metric {name} {v}");
    }
    let _ = writeln!(
        out,
        "metric trace.overhead_ratio {}",
        median(traced_ns) / median(untraced_ns).max(1.0)
    );
    let _ = writeln!(out, "passes {}", per_pass.len());
    print!("{out}");
    Ok(failed)
}
