//! `dds fuzz` — cross-class differential fuzzing of the whole pipeline.
//!
//! Each iteration draws a random scenario from `dds-gen` (a multi-state,
//! multi-rule guarded system over one of the eight structure classes) and
//! checks, in order:
//!
//! 1. **round-trip** — rendering the scenario as `.dds` text, re-parsing
//!    and lowering it reproduces the directly-built system *rule-for-rule*
//!    (same states, registers, guards, initial/accepting sets — and for
//!    counter machines, the same program), and the lowered system drives
//!    the engine to the identical outcome and statistics;
//! 2. **four-way engine agreement** — `threads = 1` vs `threads = N`,
//!    certify vs `--no-certify`, all bit-identical;
//! 3. **baseline agreement** — the bounded brute-force oracles
//!    (`dds_system::baseline`, `dds_words::baseline`, `dds_trees::baseline`,
//!    member enumeration for equivalence/linear orders, the Fact 15 word
//!    search for counter machines) never contradict the engine, and
//!    certified witnesses replay and are class members.
//!
//! Runs are a pure function of `--seed`: the same seed yields the same
//! report on every machine. On failure the scenario is shrunk to a locally
//! minimal reproducer and written to disk as a `.dds` file (format pinned
//! by [`repro_contents`] and the golden suite).
//!
//! `--mode equiv` switches to the second campaign: each iteration mutates
//! a generated base spec with a [`dds_gen::Mutation`] whose effect on
//! outcome equivalence is known *by construction*, runs `dds equiv` on the
//! pair, and requires the verdict to match the mutation's label —
//! preserving mutations must verdict `equivalent`, breaking ones
//! `divergent` with the witness on the side that still reaches. Failing
//! pairs are shrunk (re-applying the same mutation to ever-smaller bases)
//! and written as `-a.dds`/`-b.dds` repro pairs.

use crate::equiv::EquivRequest;
use crate::lower::{AnyClass, Task};
use crate::runner::RunOptions;
use crate::SpecError;
use dds_core::{Engine, EngineOptions, EngineStats, SymbolicClass};
use dds_gen::diff::{self, DiffOptions, DiffReport};
use dds_gen::{generate_seeded, with_symbolic_class, ClassKind, Mutation, Scenario};
use dds_system::System;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Which fuzzing campaign to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzMode {
    /// Differential: four-way engine agreement, baselines, round-trip.
    Diff,
    /// Equivalence: mutation pairs checked against `dds equiv` verdicts.
    Equiv,
}

impl FuzzMode {
    /// The `--mode` keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            FuzzMode::Diff => "diff",
            FuzzMode::Equiv => "equiv",
        }
    }

    /// Parses a `--mode` argument.
    pub fn parse(s: &str) -> Option<FuzzMode> {
        match s {
            "diff" => Some(FuzzMode::Diff),
            "equiv" => Some(FuzzMode::Equiv),
            _ => None,
        }
    }
}

/// Everything `dds fuzz` accepts on the command line.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Campaign: differential (default) or equivalence pairs.
    pub mode: FuzzMode,
    /// Base seed; every `(class, iteration)` derives its own stream.
    pub seed: u64,
    /// Iterations per class (`--mode diff`) or total iterations round-robin
    /// over the classes (`--mode equiv`, so `--iters 64` is a pinned
    /// 64-pair sweep).
    pub iters: u64,
    /// Classes to fuzz (default: all eight).
    pub classes: Vec<ClassKind>,
    /// Generation size knob (`1..=3`): registers, states, rules, guard width.
    pub max_size: usize,
    /// Worker count of the parallel engine leg.
    pub threads: usize,
    /// Engine exploration budget per leg.
    pub max_configs: usize,
    /// Directory minimized repros are written to.
    pub out_dir: PathBuf,
    /// When set, every passing iteration's spec (with its observed outcome
    /// stamped as `expect`) is written here — the corpus-seed workflow.
    pub emit_corpus: Option<PathBuf>,
    /// Test hook: force iteration `(class, iter)` to fail so the shrinking
    /// and repro-writing paths can be exercised deterministically.
    pub inject_failure: Option<(ClassKind, u64)>,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            mode: FuzzMode::Diff,
            seed: 0xDD5,
            iters: 4,
            classes: ClassKind::ALL.to_vec(),
            max_size: 2,
            threads: 2,
            max_configs: 100_000,
            out_dir: PathBuf::from("."),
            emit_corpus: None,
            inject_failure: None,
        }
    }
}

impl FuzzOptions {
    fn diff_options(&self) -> DiffOptions {
        DiffOptions {
            threads: self.threads,
            max_configs: self.max_configs,
            ..DiffOptions::default()
        }
    }
}

/// Per-class tallies.
#[derive(Clone, Debug, Default)]
pub struct ClassSummary {
    /// Iterations run.
    pub iters: u64,
    /// Outcome keyword → count.
    pub outcomes: BTreeMap<String, u64>,
    /// Iterations whose certified witness replayed.
    pub certified: u64,
    /// Iterations that passed the round-trip property.
    pub roundtrip: u64,
    /// Equiv mode: iterations with a preserving mutation.
    pub preserving: u64,
    /// Equiv mode: iterations with a breaking mutation.
    pub breaking: u64,
    /// Equiv mode: iterations skipped (base undecided within the budget
    /// headroom, or the proposed mutation inapplicable to the base).
    pub skipped: u64,
}

/// One failing iteration.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Class being fuzzed.
    pub class: ClassKind,
    /// Iteration index within the class.
    pub iteration: u64,
    /// What disagreed.
    pub reason: String,
    /// Where the minimized repro was written (None if writing failed).
    pub repro_path: Option<PathBuf>,
}

/// The whole run's result.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Options echo (what the report header prints).
    pub options: FuzzOptions,
    /// Per-class summaries, in [`ClassKind::ALL`] order.
    pub classes: Vec<(ClassKind, ClassSummary)>,
    /// Failures, in discovery order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when no iteration failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs the fuzzing campaign. I/O errors (repro/corpus writing) surface as
/// `Err`; check failures are collected in the report.
pub fn run(opts: &FuzzOptions) -> std::io::Result<FuzzReport> {
    match opts.mode {
        FuzzMode::Diff => run_diff(opts),
        FuzzMode::Equiv => run_equiv(opts),
    }
}

fn run_diff(opts: &FuzzOptions) -> std::io::Result<FuzzReport> {
    let diff_opts = opts.diff_options();
    let mut classes = Vec::new();
    let mut failures = Vec::new();
    for &kind in &opts.classes {
        let mut summary = ClassSummary::default();
        for iter in 0..opts.iters {
            let sc = generate_seeded(kind, opts.seed, iter, opts.max_size);
            let injected = opts.inject_failure == Some((kind, iter));
            let result = if injected {
                Err("injected failure (--inject-failure test hook)".to_owned())
            } else {
                check_iteration(&sc, &diff_opts)
            };
            summary.iters += 1;
            match result {
                Ok(check) => {
                    *summary
                        .outcomes
                        .entry(check.diff.outcome.clone())
                        .or_insert(0) += 1;
                    if check.diff.witness_certified {
                        summary.certified += 1;
                    }
                    summary.roundtrip += 1;
                    // `resource-limit` outcomes are budget-dependent (the
                    // corpus replays under `dds verify`'s larger default
                    // budget, which may decide the instance), so they never
                    // become corpus seeds.
                    let stable_outcome = check.diff.outcome != "resource-limit";
                    if let (Some(dir), true) = (&opts.emit_corpus, stable_outcome) {
                        std::fs::create_dir_all(dir)?;
                        let name = format!(
                            "fuzz_{}_s{}_i{iter}.dds",
                            kind.keyword().replace('-', "_"),
                            opts.seed
                        );
                        std::fs::write(
                            dir.join(name),
                            corpus_contents(&sc, opts.seed, kind, iter, &check.diff),
                        )?;
                    }
                }
                Err(reason) => {
                    let minimized = dds_gen::shrink::minimize(sc, &mut |cand| {
                        if injected {
                            true // any buildable candidate "reproduces" an injected failure
                        } else {
                            check_iteration(cand, &diff_opts).is_err()
                        }
                    });
                    let path = opts.out_dir.join(format!(
                        "fuzz-repro-{}-s{}-i{iter}.dds",
                        kind.keyword(),
                        opts.seed
                    ));
                    let contents = repro_contents(&minimized, opts.seed, kind, iter, &reason);
                    let repro_path = std::fs::create_dir_all(&opts.out_dir)
                        .and_then(|()| std::fs::write(&path, contents))
                        .ok()
                        .map(|_| path);
                    failures.push(FuzzFailure {
                        class: kind,
                        iteration: iter,
                        reason,
                        repro_path,
                    });
                }
            }
        }
        classes.push((kind, summary));
    }
    Ok(FuzzReport {
        options: opts.clone(),
        classes,
        failures,
    })
}

/// The `--mode equiv` campaign: generate a base, mutate it with a known
/// label, and hold `dds equiv`'s verdict to that label.
fn run_equiv(opts: &FuzzOptions) -> std::io::Result<FuzzReport> {
    // `dds equiv` rejects counter machines (no reachability product), so
    // the equiv campaign round-robins over the other classes.
    let classes: Vec<ClassKind> = opts
        .classes
        .iter()
        .copied()
        .filter(|k| *k != ClassKind::Counter)
        .collect();
    let mut summaries: Vec<(ClassKind, ClassSummary)> = classes
        .iter()
        .map(|k| (*k, ClassSummary::default()))
        .collect();
    let mut failures = Vec::new();
    if classes.is_empty() {
        return Ok(FuzzReport {
            options: opts.clone(),
            classes: summaries,
            failures,
        });
    }
    for i in 0..opts.iters {
        let class_idx = (i as usize) % classes.len();
        let kind = classes[class_idx];
        let summary = &mut summaries[class_idx].1;
        summary.iters += 1;
        let base = generate_seeded(kind, opts.seed, i, opts.max_size);

        // The base outcome (which side of the mutation oracle applies) is
        // decided at a quarter of the equiv budget: the product explores
        // both sides' configurations, and no mutation more than doubles a
        // side, so a base decided within budget/4 keeps the pair itself
        // decidable within the full budget — any `resource-limit` verdict
        // after this point is a genuine oracle violation, not noise.
        let base_budget = (opts.max_configs / 4).max(1);
        let base_nonempty = match base_outcome(&base, base_budget) {
            Ok("nonempty") => true,
            Ok("empty") => false,
            Ok(_) => {
                summary.skipped += 1;
                continue;
            }
            Err(reason) => {
                failures.push(FuzzFailure {
                    class: kind,
                    iteration: i,
                    reason: format!("base scenario rejected: {reason}"),
                    repro_path: None,
                });
                continue;
            }
        };

        let want_breaking = i % 2 == 1;
        let mut rng = dds_gen::FuzzRng::for_case(opts.seed ^ 0xE9F1u64, class_idx as u64, i);
        let mutation = if want_breaking {
            Mutation::propose_breaking(base_nonempty)
        } else {
            propose_applicable_preserving(&mut rng, &base)
        };
        if mutation.apply(&base).is_none() {
            summary.skipped += 1;
            continue;
        }
        if mutation.preserving() {
            summary.preserving += 1;
        } else {
            summary.breaking += 1;
        }

        match equiv_oracle(&base, mutation, opts) {
            Ok(verdict) => {
                *summary.outcomes.entry(verdict).or_insert(0) += 1;
            }
            Err(reason) => {
                let minimized = dds_gen::shrink::minimize(base, &mut |cand| {
                    mutation.apply(cand).is_some() && equiv_oracle(cand, mutation, opts).is_err()
                });
                let reason = format!("mutation {}: {reason}", mutation.label());
                let repro_path = write_equiv_repro(opts, kind, i, &minimized, mutation, &reason)
                    .ok()
                    .flatten();
                failures.push(FuzzFailure {
                    class: kind,
                    iteration: i,
                    reason,
                    repro_path,
                });
            }
        }
    }
    Ok(FuzzReport {
        options: opts.clone(),
        classes: summaries,
        failures,
    })
}

/// Proposes a preserving mutation that applies to this base, falling back
/// to rule duplication (applicable to every generated scenario) after a
/// few draws — keeps the mutation mix diverse without ever skipping.
fn propose_applicable_preserving(rng: &mut dds_gen::FuzzRng, base: &Scenario) -> Mutation {
    for _ in 0..8 {
        let m = Mutation::propose_preserving(rng);
        if m.apply(base).is_some() {
            return m;
        }
    }
    Mutation::DuplicateRule { rule: 0 }
}

/// Decides the base scenario's own reach outcome (sequentially, through
/// the same render → load path the equiv pair uses).
fn base_outcome(sc: &Scenario, max_configs: usize) -> Result<&'static str, String> {
    let lowered = crate::load_spec(&sc.render())
        .map_err(|e: SpecError| format!("rendered base does not load: {e}"))?;
    let property = lowered
        .properties
        .first()
        .ok_or("rendered base has no properties")?;
    let Task::Reach(system) = &property.task else {
        return Err(format!("base property is not reach: {:?}", property.task));
    };
    let eo = EngineOptions::default().max_configs(max_configs);
    Ok(with_symbolic_class!(
        &lowered.class,
        |c| engine_kind(c, system, eo).0,
        else unreachable!("counter classes have no reach properties")
    ))
}

/// The mutation-label oracle for one pair. `Ok` carries the verdict;
/// `Err` describes the disagreement (wrong verdict, wrong witness side,
/// missing witness, or a thread-determinism drift between the parallel and
/// sequential equiv runs).
fn equiv_oracle(base: &Scenario, mutation: Mutation, opts: &FuzzOptions) -> Result<String, String> {
    let mutant = mutation
        .apply(base)
        .ok_or("mutation no longer applicable")?;
    let a_text = base.render();
    let b_text = mutant.render();
    let label_b = format!("<mutant:{}>", mutation.label());
    let request = |threads: usize| {
        EquivRequest::new(&a_text, &b_text)
            .labels("<base>", &label_b)
            .options(RunOptions {
                threads,
                max_configs: opts.max_configs,
                ..RunOptions::default()
            })
    };
    let report = request(opts.threads)
        .run()
        .map_err(|e| format!("equiv rejected the pair: {e}"))?;
    let sequential = request(1)
        .run()
        .map_err(|e| format!("sequential equiv rejected the pair: {e}"))?;
    if crate::render::equiv_text(&report, false) != crate::render::equiv_text(&sequential, false)
        || report.fingerprint != sequential.fingerprint
    {
        return Err(format!(
            "thread-determinism drift: {} threads vs 1 disagree:\n{}\nvs\n{}",
            opts.threads,
            crate::render::equiv_text(&report, false),
            crate::render::equiv_text(&sequential, false),
        ));
    }
    let verdict = report.verdict();
    if mutation.preserving() {
        if verdict != "equivalent" {
            return Err(format!(
                "preserving mutation got verdict `{verdict}`:\n{}",
                crate::render::equiv_text(&report, false)
            ));
        }
    } else {
        if verdict != "divergent" {
            return Err(format!(
                "breaking mutation got verdict `{verdict}`:\n{}",
                crate::render::equiv_text(&report, false)
            ));
        }
        let div = report
            .first_divergence()
            .ok_or("divergent verdict without a divergent pair")?;
        // Severing breaks the mutant, so the base still reaches (side a);
        // bridging adds reachability to the mutant (side b).
        let expect_side = match mutation {
            Mutation::SeverAccept => "a",
            _ => "b",
        };
        if div.witness_side.as_deref() != Some(expect_side) {
            return Err(format!(
                "witness on side {:?}, expected side `{expect_side}`",
                div.witness_side
            ));
        }
        if div.trace.is_none() {
            return Err("divergence reported without a witness trace".into());
        }
    }
    Ok(verdict.to_owned())
}

/// Writes the minimized `-a.dds`/`-b.dds` pair; returns the `-a` path.
fn write_equiv_repro(
    opts: &FuzzOptions,
    class: ClassKind,
    iteration: u64,
    minimized: &Scenario,
    mutation: Mutation,
    reason: &str,
) -> std::io::Result<Option<PathBuf>> {
    let Some(mutant) = mutation.apply(minimized) else {
        return Ok(None);
    };
    std::fs::create_dir_all(&opts.out_dir)?;
    let stem = format!(
        "fuzz-repro-equiv-{}-s{}-i{iteration}",
        class.keyword(),
        opts.seed
    );
    let path_a = opts.out_dir.join(format!("{stem}-a.dds"));
    let path_b = opts.out_dir.join(format!("{stem}-b.dds"));
    let header = |side: &str, role: &str| {
        format!(
            "# dds fuzz equiv repro (side {side}, {role}): seed {} class {} iter {iteration} mutation {}\n# reason: {}\n",
            opts.seed,
            class.keyword(),
            mutation.label(),
            reason.replace('\n', " / "),
        )
    };
    std::fs::write(
        &path_a,
        format!("{}{}", header("a", "base"), minimized.render()),
    )?;
    std::fs::write(
        &path_b,
        format!("{}{}", header("b", "mutant"), mutant.render()),
    )?;
    Ok(Some(path_a))
}

/// What one passing iteration established.
struct IterationCheck {
    diff: DiffReport,
}

/// Differential checks plus the round-trip property for one scenario. The
/// diff runs first so its agreed certified-sequential engine leg doubles as
/// the built side of the round-trip comparison (no sixth engine run).
fn check_iteration(sc: &Scenario, diff_opts: &DiffOptions) -> Result<IterationCheck, String> {
    let built = sc.build()?;
    let diff = diff::check_built(sc, &built, diff_opts)?;
    round_trip(sc, &built, &diff, diff_opts)?;
    Ok(IterationCheck { diff })
}

/// The round-trip property: render → parse → lower reproduces the built
/// system rule-for-rule, and drives the engine identically (compared
/// against the diff report's agreed engine leg).
fn round_trip(
    sc: &Scenario,
    built: &dds_gen::Built,
    diff: &DiffReport,
    diff_opts: &DiffOptions,
) -> Result<(), String> {
    let text = sc.render();
    let lowered = crate::load_spec(&text)
        .map_err(|e: SpecError| format!("round-trip: rendered spec does not load: {e}\n{text}"))?;
    if lowered.name != sc.name {
        return Err(format!(
            "round-trip: system name drifted: `{}` vs `{}`",
            lowered.name, sc.name
        ));
    }
    let property = lowered
        .properties
        .first()
        .ok_or("round-trip: lowered spec has no properties")?;

    // An `Order`/`Equiv` swap can pass the behavioural comparison below on
    // a trivial system, so the variant must match too.
    if std::mem::discriminant(&built.class) != std::mem::discriminant(&lowered.class) {
        return Err(format!(
            "round-trip: class drifted: built `{}`, lowered `{}`",
            built.class.describe(),
            lowered.class.describe()
        ));
    }
    match (&built.class, &lowered.class) {
        (AnyClass::Counter(machine), AnyClass::Counter(lowered_machine)) => {
            if machine != lowered_machine {
                return Err(format!(
                    "round-trip: counter program drifted:\n  built   {machine:?}\n  lowered {lowered_machine:?}"
                ));
            }
            let ScenarioClass::Counter { bound, .. } = &sc.class else {
                return Err("round-trip: counter scenario without counter class".into());
            };
            match &property.task {
                Task::BoundedHalt { bound: b } if b == bound => Ok(()),
                other => Err(format!("round-trip: property drifted: {other:?}")),
            }
        }
        (_, lowered_class) => {
            let system = built
                .system
                .as_ref()
                .ok_or("round-trip: scenario without a system")?;
            let Task::Reach(lowered_system) = &property.task else {
                return Err(format!("round-trip: property drifted: {:?}", property.task));
            };
            same_system(system, lowered_system)?;
            // Behavioral equality: the lowered class value must drive the
            // engine to the identical outcome and deterministic statistics
            // as the built class did in the diff's certified sequential leg.
            let eo = EngineOptions::default().max_configs(diff_opts.max_configs);
            let built_stats = diff
                .engine_stats
                .ok_or("round-trip: diff report has no engine leg for this class")?;
            let (lowered_kind, lowered_stats) = with_symbolic_class!(
                lowered_class,
                |c| engine_kind(c, lowered_system, eo),
                else unreachable!("counter handled before engine comparison")
            );
            if lowered_kind != diff.outcome || lowered_stats != built_stats {
                return Err(format!(
                    "round-trip: engine drift between built and lowered class: {} {built_stats:?} vs {lowered_kind} {lowered_stats:?}",
                    diff.outcome
                ));
            }
            Ok(())
        }
    }
}

/// Rule-for-rule system equality.
fn same_system(a: &System, b: &System) -> Result<(), String> {
    let names = |s: &System| -> Vec<String> {
        (0..s.num_states())
            .map(|i| s.state_name(dds_system::StateId(i as u32)).to_owned())
            .collect()
    };
    let regs = |s: &System| -> Vec<String> {
        (0..s.num_registers())
            .map(|i| s.register_name(i).to_owned())
            .collect()
    };
    if names(a) != names(b) {
        return Err(format!(
            "round-trip: state names drifted: {:?} vs {:?}",
            names(a),
            names(b)
        ));
    }
    if regs(a) != regs(b) {
        return Err(format!(
            "round-trip: register names drifted: {:?} vs {:?}",
            regs(a),
            regs(b)
        ));
    }
    if a.initial() != b.initial() || a.accepting() != b.accepting() {
        return Err("round-trip: initial/accepting sets drifted".into());
    }
    if a.rules() != b.rules() {
        return Err(format!(
            "round-trip: rules drifted:\n  built   {:?}\n  lowered {:?}",
            a.rules(),
            b.rules()
        ));
    }
    Ok(())
}

fn engine_kind<C: SymbolicClass>(
    class: &C,
    system: &System,
    eo: EngineOptions,
) -> (&'static str, EngineStats) {
    let outcome = Engine::new(class, system).with_options(eo).run();
    (outcome.keyword(), *outcome.stats())
}

use dds_gen::ScenarioClass;

/// The pinned minimized-repro file format: two comment header lines
/// (provenance, then the reason) followed by the rendered spec. The golden
/// suite snapshots this byte-for-byte.
pub fn repro_contents(
    sc: &Scenario,
    seed: u64,
    class: ClassKind,
    iteration: u64,
    reason: &str,
) -> String {
    format!(
        "# dds fuzz minimized repro: seed {seed} class {} iter {iteration}\n# reason: {}\n{}",
        class.keyword(),
        reason.replace('\n', " / "),
        sc.render()
    )
}

/// A corpus seed: provenance header plus the spec with its observed outcome
/// stamped as `expect`, so replaying the file re-verifies the outcome.
pub fn corpus_contents(
    sc: &Scenario,
    seed: u64,
    class: ClassKind,
    iteration: u64,
    diff: &DiffReport,
) -> String {
    format!(
        "# dds fuzz corpus seed: seed {seed} class {} iter {iteration}\n# four-way engine agreement and brute-force baseline agreement held when generated\n{}",
        class.keyword(),
        sc.render_with_expect(Some(&diff.outcome))
    )
}

/// Renders the deterministic run report (no timings — same seed, same
/// bytes).
pub fn render_report(report: &FuzzReport) -> String {
    let o = &report.options;
    let mut out = String::new();
    match o.mode {
        FuzzMode::Diff => {
            let _ = writeln!(
                out,
                "== dds fuzz: seed {}, {} iters/class, max-size {}, threads 1v{}, max-configs {}",
                o.seed, o.iters, o.max_size, o.threads, o.max_configs
            );
        }
        FuzzMode::Equiv => {
            let _ = writeln!(
                out,
                "== dds fuzz (mode equiv): seed {}, {} pair iterations, max-size {}, threads 1v{}, max-configs {}",
                o.seed, o.iters, o.max_size, o.threads, o.max_configs
            );
        }
    }
    for (kind, s) in &report.classes {
        let outcomes: Vec<String> = s.outcomes.iter().map(|(k, v)| format!("{k} {v}")).collect();
        match o.mode {
            FuzzMode::Diff => {
                let _ = writeln!(
                    out,
                    "class {:<12} : {} iters | {} | certified {} roundtrip {}/{}",
                    kind.keyword(),
                    s.iters,
                    outcomes.join(", "),
                    s.certified,
                    s.roundtrip,
                    s.iters,
                );
            }
            FuzzMode::Equiv => {
                let _ = writeln!(
                    out,
                    "class {:<12} : {} pairs | {} | preserving {} breaking {} skipped {}",
                    kind.keyword(),
                    s.iters,
                    if outcomes.is_empty() {
                        "-".to_owned()
                    } else {
                        outcomes.join(", ")
                    },
                    s.preserving,
                    s.breaking,
                    s.skipped,
                );
            }
        }
    }
    for f in &report.failures {
        let _ = writeln!(
            out,
            "FAIL {} iter {}: {}{}",
            f.class.keyword(),
            f.iteration,
            f.reason.lines().next().unwrap_or(""),
            match &f.repro_path {
                Some(p) => format!(" (repro: {})", p.display()),
                None => " (repro could not be written)".into(),
            }
        );
    }
    let total: u64 = report.classes.iter().map(|(_, s)| s.iters).sum();
    let _ = writeln!(
        out,
        "result: {} ({} iterations, {} failures)",
        if report.passed() { "PASS" } else { "FAIL" },
        total,
        report.failures.len()
    );
    out
}

/// Renders the run as a versioned JSON document (`kind: "fuzz"`, the
/// shared record shape — see `docs/SPEC_LANGUAGE.md`): one record per
/// class summarizing its iterations (`configs_explored` carries the
/// iteration count; `outcome` is `pass` or `fail`), plus one record per
/// failure. Deterministic: `wall_ns` is always 0 here (fuzz timing is
/// seed-independent noise, and the golden suite pins these bytes).
pub fn json_report(report: &FuzzReport) -> String {
    let prefix = match report.options.mode {
        FuzzMode::Diff => "fuzz",
        FuzzMode::Equiv => "equiv-fuzz",
    };
    let mut records = Vec::new();
    for (kind, s) in &report.classes {
        let failed = report.failures.iter().any(|f| f.class == *kind);
        records.push(crate::render::record(
            &format!("{prefix}::{}", kind.keyword()),
            0,
            s.iters,
            if failed { "fail" } else { "pass" },
        ));
    }
    for f in &report.failures {
        records.push(crate::render::record(
            &format!("{prefix}::{}::iter{}", f.class.keyword(), f.iteration),
            0,
            0,
            &format!("fail: {}", f.reason.lines().next().unwrap_or("")),
        ));
    }
    crate::render::document("fuzz", &records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> FuzzOptions {
        FuzzOptions {
            iters: 1,
            max_size: 1,
            classes: vec![
                ClassKind::Free,
                ClassKind::Equivalence,
                ClassKind::LinearOrder,
                ClassKind::Words,
            ],
            out_dir: std::env::temp_dir(),
            ..FuzzOptions::default()
        }
    }

    #[test]
    fn quick_run_passes_and_replays() {
        let opts = quick_opts();
        let a = run(&opts).unwrap();
        assert!(a.passed(), "{}", render_report(&a));
        let b = run(&opts).unwrap();
        assert_eq!(
            render_report(&a),
            render_report(&b),
            "same seed, same report"
        );
    }

    #[test]
    fn round_trip_runs_for_every_class() {
        let diff_opts = DiffOptions::default();
        for kind in ClassKind::ALL {
            let sc = generate_seeded(kind, 0xF00D, 0, 1);
            let built = sc.build().unwrap();
            let diff = diff::check_built(&sc, &built, &diff_opts)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}\n{}", sc.render()));
            round_trip(&sc, &built, &diff, &diff_opts)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}\n{}", sc.render()));
        }
        // A linear-order system whose guard never mentions `<` behaves the
        // same over equivalence relations; only the class variant tells the
        // swap apart.
        let order = Scenario {
            name: "swap".into(),
            class: ScenarioClass::LinearOrder,
            registers: vec!["x".into()],
            states: vec![("s".into(), true), ("t".into(), false)],
            accept: vec!["t".into()],
            rules: vec![("s".into(), "t".into(), "x_old = x_new".into())],
        };
        let built = order.build().unwrap();
        let diff = diff::check_built(&order, &built, &diff_opts).unwrap();
        let equiv = Scenario {
            class: ScenarioClass::Equivalence,
            ..order.clone()
        };
        let err = round_trip(&equiv, &built, &diff, &diff_opts).unwrap_err();
        assert!(err.contains("class drifted"), "{err}");
    }

    #[test]
    fn equiv_mode_upholds_the_mutation_oracle() {
        let opts = FuzzOptions {
            mode: FuzzMode::Equiv,
            iters: 8,
            max_size: 1,
            classes: vec![ClassKind::Free, ClassKind::Equivalence, ClassKind::Words],
            out_dir: std::env::temp_dir(),
            ..FuzzOptions::default()
        };
        let a = run(&opts).unwrap();
        assert!(a.passed(), "{}", render_report(&a));
        // Both mutation polarities actually exercised.
        let preserving: u64 = a.classes.iter().map(|(_, s)| s.preserving).sum();
        let breaking: u64 = a.classes.iter().map(|(_, s)| s.breaking).sum();
        assert!(preserving > 0, "no preserving pairs ran");
        assert!(breaking > 0, "no breaking pairs ran");
        let b = run(&opts).unwrap();
        assert_eq!(
            render_report(&a),
            render_report(&b),
            "same seed, same report"
        );
        assert!(json_report(&a).contains("\"id\":\"equiv-fuzz::free\""));
    }

    #[test]
    fn equiv_oracle_flags_a_lying_label() {
        // A breaking mutation hand-mislabeled by pairing it with a verdict
        // expectation it cannot meet: sever the accept states of an empty
        // base — the pair stays equivalent, so the breaking label must be
        // rejected by the oracle.
        let mut sc = generate_seeded(ClassKind::Free, 0xBAD, 0, 1);
        // Make the base empty by severing it first.
        if let Some(severed) = Mutation::SeverAccept.apply(&sc) {
            sc = severed;
        }
        let opts = FuzzOptions {
            mode: FuzzMode::Equiv,
            ..FuzzOptions::default()
        };
        match equiv_oracle(&sc, Mutation::SeverAccept, &opts) {
            Err(reason) => assert!(
                reason.contains("breaking mutation got verdict `equivalent`"),
                "unexpected reason: {reason}"
            ),
            Ok(v) => panic!("oracle accepted a lying label with verdict {v}"),
        }
    }

    #[test]
    fn injected_failure_shrinks_and_writes_a_repro() {
        let dir = std::env::temp_dir().join("dds-fuzz-test-repro");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = FuzzOptions {
            iters: 1,
            max_size: 2,
            classes: vec![ClassKind::Free],
            out_dir: dir.clone(),
            inject_failure: Some((ClassKind::Free, 0)),
            ..FuzzOptions::default()
        };
        let report = run(&opts).unwrap();
        assert!(!report.passed());
        let path = report.failures[0]
            .repro_path
            .clone()
            .expect("repro written");
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with("# dds fuzz minimized repro: seed 3541 class free iter 0\n"));
        assert!(contents.contains("# reason: injected failure"));
        // The minimized spec still loads.
        let spec_text: String = contents
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        crate::load_spec(&spec_text).expect("minimized repro is a valid spec");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
