//! Shared workload generators for the experiment benches (E1–E10).
//!
//! The paper has no empirical section; EXPERIMENTS.md defines one experiment
//! per theorem and maps each to a bench group in
//! `benches/experiments.rs`. This library builds the workloads once, for
//! those benches and for the `experiments_json` runner, so both and the
//! EXPERIMENTS.md tables stay in sync.
//!
//! It also holds the timing and baseline-gate helpers both JSON runners
//! (`experiments_json`, `macro_json`) share: [`env_or`], [`measure`] and the
//! ratio-and-floor regression [`Gate`].

use dds_core::{Engine, FreeRelationalClass, HomClass, SymbolicClass};
use dds_structure::{Element, Schema, Structure};
use dds_system::{System, SystemBuilder};
use dds_trees::tree::Tree;
use dds_trees::TreeAutomaton;
use dds_words::Nfa;
use std::sync::Arc;
use std::time::Instant;

/// The graph schema `{E/2, red/1}` used by Examples 1 and 2.
pub fn graph_schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.add_relation("E", 2).unwrap();
    s.add_relation("red", 1).unwrap();
    s.finish()
}

/// The paper's Example 1 system (odd red cycles).
pub fn example1(schema: Arc<Schema>) -> System {
    let mut b = SystemBuilder::new(schema, &["x", "y"]);
    b.state("start").initial();
    b.state("q0");
    b.state("q1");
    b.state("end").accepting();
    b.rule(
        "start",
        "q0",
        "x_old = x_new & x_new = y_old & y_old = y_new",
    )
    .unwrap();
    b.rule("q0", "q1", "x_old = x_new & E(y_old, y_new) & red(y_new)")
        .unwrap();
    b.rule("q1", "q0", "x_old = x_new & E(y_old, y_new) & red(y_new)")
        .unwrap();
    b.rule("q1", "end", "x_old = x_new & x_new = y_old & y_old = y_new")
        .unwrap();
    b.finish().unwrap()
}

/// A chain system with `n` interior states, each stepping along an edge —
/// scales the state count while keeping registers fixed (E4).
pub fn chain_system(schema: Arc<Schema>, n: usize) -> System {
    let mut b = SystemBuilder::new(schema, &["x"]);
    b.state("s0").initial();
    for i in 1..=n {
        b.state(&format!("s{i}"));
    }
    b.state("acc").accepting();
    for i in 0..n {
        b.rule(&format!("s{i}"), &format!("s{}", i + 1), "E(x_old, x_new)")
            .unwrap();
    }
    b.rule(&format!("s{n}"), "acc", "red(x_old) & x_old = x_new")
        .unwrap();
    b.finish().unwrap()
}

/// A `k`-register system over the pure-equality schema demanding pairwise
/// distinct register values — scales the register count (E4).
pub fn distinct_registers_system(k: usize) -> System {
    let schema: Arc<Schema> = Schema::new().finish();
    let names: Vec<String> = (0..k).map(|i| format!("r{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let mut b = SystemBuilder::new(schema, &name_refs);
    b.state("s").initial();
    b.state("t").accepting();
    let mut parts = Vec::new();
    for i in 0..k {
        parts.push(format!("r{i}_old = r{i}_new"));
        for j in i + 1..k {
            parts.push(format!("r{i}_old != r{j}_old"));
        }
    }
    b.rule("s", "t", &parts.join(" & ")).unwrap();
    b.finish().unwrap()
}

/// A one-state system over `{E/2}` whose self-loop guard is an existential
/// edge chain of length `n` from `x_old` — the Fact 2 elimination input
/// (E2).
pub fn existential_chain_system(n: usize) -> System {
    let mut sc = Schema::new();
    sc.add_relation("E", 2).unwrap();
    let names: Vec<String> = (0..n).map(|i| format!("z{i}")).collect();
    let mut parts = vec!["E(x_old, z0)".to_owned()];
    for i in 1..n {
        parts.push(format!("E(z{}, z{})", i - 1, i));
    }
    let guard = format!("exists {} . {}", names.join(" "), parts.join(" & "));
    let mut b = SystemBuilder::new(sc.finish(), &["x"]);
    b.state("s").initial().accepting();
    b.rule("s", "s", &guard).unwrap();
    b.finish().unwrap()
}

/// The 4-state NFA over `a b c d` (a cycle with a loop on `b`) of E5.
pub fn nfa4() -> Nfa {
    Nfa::new(
        vec!["a".into(), "b".into(), "c".into(), "d".into()],
        vec![0, 1, 2, 3],
        vec![(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)],
        vec![0],
        vec![3],
    )
    .unwrap()
}

/// One strictly forward step `x_old < x_new` into an accepting state, over
/// a word class's schema (E5).
pub fn word_step_system(schema: Arc<Schema>) -> System {
    let mut b = SystemBuilder::new(schema, &["x"]);
    b.state("s").initial();
    b.state("t").accepting();
    b.rule("s", "t", "x_old < x_new").unwrap();
    b.finish().unwrap()
}

/// The tree automaton of E6 and E8: a root `r` over a subtree of `a`s
/// with `b` leaves.
pub fn abc_tree_automaton() -> TreeAutomaton {
    TreeAutomaton::new(
        vec!["r".into(), "a".into(), "b".into()],
        vec![0, 1, 2],
        vec![2],
        vec![0],
        vec![0, 1, 2],
        vec![(1, 0), (2, 0), (1, 1), (2, 1)],
        vec![],
    )
}

/// A walk of `steps` strict descendant steps ending on a `b` node, over a
/// tree class's schema (E6).
pub fn tree_walk_system(schema: Arc<Schema>, steps: usize) -> System {
    let mut b = SystemBuilder::new(schema, &["x"]);
    b.state("s0").initial();
    for i in 1..=steps {
        b.state(&format!("s{i}"));
    }
    b.state("acc").accepting();
    for i in 0..steps {
        b.rule(
            &format!("s{i}"),
            &format!("s{}", i + 1),
            "x_old <= x_new & x_old != x_new",
        )
        .unwrap();
    }
    b.rule(&format!("s{steps}"), "acc", "b(x_old) & x_old = x_new")
        .unwrap();
    b.finish().unwrap()
}

/// Two edge steps, each also asserting `data_atom` (appended to the guard
/// as is, e.g. `" & x_old << x_new"`; empty for the plain graph walk) —
/// the data-value overhead workload (E7).
pub fn data_walk_system(schema: Arc<Schema>, data_atom: &str) -> System {
    let mut b = SystemBuilder::new(schema, &["x"]);
    b.state("s").initial();
    b.state("m");
    b.state("t").accepting();
    let guard = format!("E(x_old, x_new){data_atom}");
    b.rule("s", "m", &guard).unwrap();
    b.rule("m", "t", &guard).unwrap();
    b.finish().unwrap()
}

/// The chain tree `r a^depth b` and its run of [`abc_tree_automaton`]
/// (E8).
pub fn chain_tree(depth: usize) -> (Tree, Vec<u32>) {
    let mut t = Tree::leaf(0);
    let mut cur = 0;
    for _ in 0..depth {
        cur = t.push_child(cur, 1);
    }
    t.push_child(cur, 2);
    let mut states = vec![0u32];
    states.extend(std::iter::repeat(1).take(depth));
    states.push(2);
    (t, states)
}

/// Template of size `n`: red cycle of length `n` plus an absorbing white
/// node (odd red cycles embeddable iff `n` has an odd divisor cycle... used
/// as a size sweep for Theorem 4's template-on-input claim, E3).
pub fn cycle_template(schema: Arc<Schema>, n: usize) -> HomClass {
    let e = schema.lookup("E").unwrap();
    let red = schema.lookup("red").unwrap();
    let mut h = Structure::new(schema, n + 1);
    for i in 0..n {
        h.add_fact(red, &[Element(i as u32)]).unwrap();
        h.add_fact(e, &[Element(i as u32), Element(((i + 1) % n) as u32)])
            .unwrap();
    }
    let w = Element(n as u32);
    h.add_fact(e, &[w, w]).unwrap();
    HomClass::new(h)
}

/// Convenience: run the engine and return (nonempty, configs explored).
pub fn run_engine<C: SymbolicClass>(class: &C, system: &System) -> (bool, usize) {
    let outcome = Engine::new(class, system).run();
    (outcome.is_nonempty(), outcome.stats().configs_explored)
}

/// Convenience: free-class run on the graph schema.
pub fn run_free(system: &System) -> (bool, usize) {
    let class = FreeRelationalClass::new(system.schema().clone());
    run_engine(&class, system)
}

/// Reads env var `name` parsed as `T`, or `default` when it is unset or
/// does not parse.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `work` `reps` times; returns the minimum wall time and the (stable)
/// result of the last run.
pub fn measure<R>(reps: u32, mut work: impl FnMut() -> R) -> (u128, R) {
    let mut best = u128::MAX;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = work();
        best = best.min(t0.elapsed().as_nanos());
        result = Some(r);
    }
    (best, result.expect("reps >= 1"))
}

/// Extracts `"key":<value>` from one serialized object, where the value is a
/// quoted string or a bare integer (the only shapes the runners write).
fn extract_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        Some(stripped[..stripped.find('"')?].to_owned())
    } else {
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        (end > 0).then(|| rest[..end].to_owned())
    }
}

/// Parses a report document written by one of the runners into
/// `(id, wall_ns)` pairs. The reader is intentionally minimal: records are
/// exactly the objects carrying an `id` (the document wrapper and the
/// `host` object are skipped), and the pre-`schema_version` flat-array
/// shape still reads, so old baselines keep gating until refreshed.
fn read_baseline(path: &str) -> Result<Vec<(String, u128)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for obj in text.split('{').skip(1) {
        let obj = obj.split('}').next().unwrap_or("");
        let Some(id) = extract_field(obj, "id") else {
            continue;
        };
        let wall: u128 = extract_field(obj, "wall_ns")
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("{path}: bad wall_ns for {id}"))?;
        out.push((id, wall));
    }
    Ok(out)
}

/// A wall-time regression gate against a committed baseline: a record
/// fails when it is slower than the baseline by more than the ratio *and*
/// by more than the absolute floor, so small absolute differences never
/// fail and microsecond-scale records do not flap.
#[derive(Debug)]
pub struct Gate<'a> {
    /// Env var overriding the allowed slowdown ratio.
    pub ratio_env: &'a str,
    /// Ratio used when `ratio_env` is unset.
    pub default_ratio: f64,
    /// Env var overriding the absolute noise floor, in milliseconds.
    pub floor_env: &'a str,
    /// Floor (ms) used when `floor_env` is unset.
    pub default_floor_ms: u128,
    /// What one record is called in messages (`experiment`, `scenario`).
    pub noun: &'a str,
    /// Opening words of the regression failure message.
    pub failure: &'a str,
    /// Column width of the id in the per-record report lines.
    pub id_width: usize,
    /// The command that refreshes the baseline after an intentional change.
    pub refresh: &'a str,
}

impl Gate<'_> {
    /// Compares each `(id, wall_ns)` record against the baseline file,
    /// printing one report line per record to stderr. `Err` carries the
    /// failure message, ending with the refresh command.
    pub fn check(&self, records: &[(&str, u128)], baseline_path: &str) -> Result<(), String> {
        let max_ratio: f64 = env_or(self.ratio_env, self.default_ratio);
        let floor_ns: u128 = env_or::<u128>(self.floor_env, self.default_floor_ms) * 1_000_000;
        let noun = self.noun;
        let baseline = read_baseline(baseline_path)?;
        // Id-set drift disables regression protection silently, so it fails
        // the gate in both directions: a rename/removal leaves an orphaned
        // baseline entry, and a new record has no reference yet — either way
        // the fix is the one-line baseline refresh.
        let mut mismatches: Vec<String> = baseline
            .iter()
            .filter(|(id, _)| !records.iter().any(|(r, _)| r == id))
            .map(|(id, _)| format!("baseline entry `{id}` matches no {noun}"))
            .collect();
        let mut failures = Vec::new();
        for &(id, wall_ns) in records {
            let Some((_, base)) = baseline.iter().find(|(b, _)| b == id) else {
                mismatches.push(format!("{noun} `{id}` has no baseline entry"));
                continue;
            };
            let ratio = wall_ns as f64 / (*base).max(1) as f64;
            let over_floor = wall_ns > base + floor_ns;
            let verdict = if ratio > max_ratio && over_floor {
                failures.push(id);
                "REGRESSED"
            } else {
                "ok"
            };
            eprintln!(
                "gate: {id:w$} {wall_ns:>12} ns vs baseline {base:>12} ns  ({ratio:.2}x) {verdict}",
                w = self.id_width
            );
        }
        if failures.is_empty() && mismatches.is_empty() {
            return Ok(());
        }
        let mut msg = String::new();
        if !failures.is_empty() {
            msg.push_str(&format!(
                "{} (> {max_ratio}x and > {floor_ns} ns absolute): {failures:?}\n",
                self.failure
            ));
        }
        if !mismatches.is_empty() {
            msg.push_str(&format!("{noun}/baseline id mismatch: {mismatches:?}\n"));
        }
        msg.push_str("If intentional, refresh the baseline:\n");
        msg.push_str(self.refresh);
        Err(msg)
    }
}
