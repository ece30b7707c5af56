//! Executing a lowered spec: engine dispatch, measurement, reports.

use crate::lower::{AnyClass, Lowered, Task};
use dds_core::{Engine, EngineOptions, EngineStats, Outcome, SymbolicClass};
use dds_gen::with_symbolic_class;
use dds_reductions::words_succ;
use dds_system::{eliminate_existentials, System};
use dds_trees::pointers::{blowup_ratio, run_pointers};
use std::time::Instant;

/// Engine tuning exposed on the `dds` command line.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Worker threads (`dds_core::EngineOptions::threads`; `0` = auto, the
    /// CLI default — resolve to all hardware threads via
    /// `std::thread::available_parallelism`).
    pub threads: usize,
    /// Frontier chunk size (`dds_core::EngineOptions::chunk_size`).
    pub chunk_size: usize,
    /// Exploration budget.
    pub max_configs: usize,
    /// Concretize and certify witnesses for non-empty answers.
    pub concretize: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        let d = EngineOptions::default();
        RunOptions {
            // The CLI defaults to `auto` (0): outcomes are bit-identical at
            // every thread count, so the daemon and one-shot runs may as
            // well use the hardware. The library `EngineOptions` default
            // stays 1 for embedders who want the pure sequential path.
            threads: 0,
            chunk_size: d.get_chunk_size(),
            max_configs: d.get_max_configs(),
            concretize: d.get_concretize(),
        }
    }
}

impl RunOptions {
    pub(crate) fn engine_options(&self) -> EngineOptions {
        EngineOptions::default()
            .threads(self.threads)
            .chunk_size(self.chunk_size)
            .max_configs(self.max_configs)
            .concretize(self.concretize)
    }
}

/// The result of running one property.
#[derive(Clone, Debug)]
pub struct PropertyReport {
    /// `<system>::<property>`.
    pub id: String,
    /// Outcome string: `nonempty`, `empty`, `resource-limit`, `ok`,
    /// `halts`, `open` or `ratio_x1000=<n>`.
    pub outcome: String,
    /// Declared expectation, if any.
    pub expect: Option<String>,
    /// `Some(false)` exactly when the property fails verification: a
    /// declared expectation mismatches, or no expectation was declared and
    /// the search exhausted its budget.
    pub pass: Option<bool>,
    /// Wall-clock time of the run (nondeterministic; zeroed in golden
    /// snapshots).
    pub wall_ns: u128,
    /// `EngineStats::configs_explored` (0 for non-engine tasks).
    pub configs_explored: u64,
    /// Full engine statistics for reach properties.
    pub stats: Option<EngineStats>,
    /// Witness trace through control states, rendered (`a -[r0]-> b`).
    pub trace: Option<String>,
    /// Certified witness database, rendered.
    pub witness_db: Option<String>,
    /// Certified witness run, rendered.
    pub witness_run: Option<String>,
}

impl PropertyReport {
    /// True when the property did **not** fail (passes or had nothing to
    /// check).
    pub fn ok(&self) -> bool {
        self.pass != Some(false)
    }
}

/// The result of running a whole spec file.
#[derive(Clone, Debug)]
pub struct SpecReport {
    /// Path label the caller supplied (repo-relative in the golden suite).
    pub path: String,
    /// System name.
    pub system: String,
    /// Header: class description plus state/rule/register counts.
    pub header: String,
    /// Per-property reports, in declaration order.
    pub properties: Vec<PropertyReport>,
}

impl SpecReport {
    /// True when every property is ok.
    pub fn ok(&self) -> bool {
        self.properties.iter().all(PropertyReport::ok)
    }
}

/// Runs a reach task: Theorem 5 emptiness of `system`'s accepting states.
fn reach<C: SymbolicClass>(
    class: &C,
    system: &System,
    eo: EngineOptions,
    id: String,
    expect: Option<String>,
) -> PropertyReport {
    let outcome = Engine::new(class, system).with_options(eo).run();
    let stats = *outcome.stats();
    let mut report = PropertyReport {
        id,
        outcome: outcome.keyword().into(),
        expect,
        pass: None,
        wall_ns: 0,
        configs_explored: stats.configs_explored as u64,
        stats: Some(stats),
        trace: None,
        witness_db: None,
        witness_run: None,
    };
    if let Outcome::NonEmpty { trace, witness, .. } = outcome {
        let mut t = String::new();
        for step in &trace.steps {
            match step.rule {
                None => t.push_str(system.state_name(step.state)),
                Some(r) => t.push_str(&format!(" -[r{r}]-> {}", system.state_name(step.state))),
            }
        }
        report.trace = Some(t);
        report.witness_db = witness.as_ref().map(|(db, _)| db.to_string());
        report.witness_run = witness.as_ref().map(|(_, run)| run.to_string());
    }
    report
}

/// Runs every property of a lowered spec.
pub fn run_spec(path: &str, lowered: &Lowered, opts: &RunOptions) -> SpecReport {
    let mut properties = Vec::with_capacity(lowered.properties.len());
    for p in &lowered.properties {
        let id = format!("{}::{}", lowered.name, p.name);
        let t0 = Instant::now();
        let mut report = match &p.task {
            Task::Reach(system) => with_symbolic_class!(
                &lowered.class,
                |c| reach(c, system, opts.engine_options(), id, p.expect.clone()),
                else unreachable!("lowering rejects reach over counter machines")
            ),
            Task::Elim(system) => {
                let compiled = eliminate_existentials(system)
                    .expect("builder-accepted guards are existential");
                PropertyReport {
                    id,
                    outcome: "ok".into(),
                    expect: p.expect.clone(),
                    pass: None,
                    wall_ns: 0,
                    configs_explored: 0,
                    stats: None,
                    trace: Some(format!(
                        "compiled to {} registers, {} rules",
                        compiled.num_registers(),
                        compiled.rules().len()
                    )),
                    witness_db: None,
                    witness_run: None,
                }
            }
            Task::Blowup {
                tree,
                states,
                targets,
            } => {
                let AnyClass::Trees(tc) = &lowered.class else {
                    unreachable!("lowering checked the class");
                };
                let ptr = run_pointers(tc.automaton(), tree, states);
                let ratio = blowup_ratio(tree, &ptr, targets);
                PropertyReport {
                    id,
                    outcome: format!("ratio_x1000={}", (ratio * 1000.0) as u64),
                    expect: p.expect.clone(),
                    pass: None,
                    wall_ns: 0,
                    configs_explored: 0,
                    stats: None,
                    trace: None,
                    witness_db: None,
                    witness_run: None,
                }
            }
            Task::BoundedHalt { bound } => {
                let AnyClass::Counter(m) = &lowered.class else {
                    unreachable!("lowering checked the class");
                };
                let found = words_succ::bounded_check(m, *bound);
                PropertyReport {
                    id,
                    outcome: if found.is_some() { "halts" } else { "open" }.into(),
                    expect: p.expect.clone(),
                    pass: None,
                    wall_ns: 0,
                    configs_explored: 0,
                    stats: None,
                    trace: None,
                    witness_db: found.as_ref().map(|(db, _)| db.to_string()),
                    witness_run: found.as_ref().map(|(_, run)| run.to_string()),
                }
            }
        };
        report.wall_ns = t0.elapsed().as_nanos();
        report.pass = match &report.expect {
            Some(want) => Some(want == &report.outcome),
            None => (report.outcome == "resource-limit").then_some(false),
        };
        properties.push(report);
    }
    SpecReport {
        path: path.to_owned(),
        system: lowered.name.clone(),
        header: format!("class {}{}", lowered.class.describe(), lowered.shape),
        properties,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_spec;

    const EXAMPLE1: &str = r#"
        system demo
        schema {
          relation E/2
          relation red/1
        }
        class free
        registers x y
        states {
          start init
          q0
          q1
          end
        }
        rule start -> q0: x_old = x_new & x_new = y_old & y_old = y_new
        rule q0 -> q1: x_old = x_new & E(y_old, y_new) & red(y_new)
        rule q1 -> q0: x_old = x_new & E(y_old, y_new) & red(y_new)
        rule q1 -> end: x_old = x_new & x_new = y_old & y_old = y_new
        property reach {
          accept end
          expect nonempty
        }
    "#;

    #[test]
    fn example1_spec_runs_nonempty_with_witness() {
        let lowered = load_spec(EXAMPLE1).unwrap();
        let report = run_spec("mem.dds", &lowered, &RunOptions::default());
        assert!(report.ok());
        let p = &report.properties[0];
        assert_eq!(p.outcome, "nonempty");
        assert_eq!(p.pass, Some(true));
        assert!(p.trace.as_deref().unwrap().starts_with("start"));
        assert!(p.witness_db.is_some());
        assert!(p.witness_run.is_some());
    }

    #[test]
    fn expectation_mismatch_fails() {
        let src = EXAMPLE1.replace("expect nonempty", "expect empty");
        let lowered = load_spec(&src).unwrap();
        let report = run_spec("mem.dds", &lowered, &RunOptions::default());
        assert!(!report.ok());
        assert_eq!(report.properties[0].pass, Some(false));
    }

    #[test]
    fn resource_limit_without_expectation_fails() {
        let lowered = load_spec(EXAMPLE1).unwrap();
        let opts = RunOptions {
            max_configs: 1,
            ..RunOptions::default()
        };
        let report = run_spec("mem.dds", &lowered, &opts);
        // Either the engine found the witness before the cap or it hit the
        // limit; with a cap of 1 it must hit the limit on this system.
        assert_eq!(report.properties[0].outcome, "resource-limit");
        assert_eq!(report.properties[0].pass, Some(false));
    }

    #[test]
    fn threads_do_not_change_outcomes() {
        let lowered = load_spec(EXAMPLE1).unwrap();
        let seq = run_spec("mem.dds", &lowered, &RunOptions::default());
        let par = run_spec(
            "mem.dds",
            &lowered,
            &RunOptions {
                threads: 4,
                ..RunOptions::default()
            },
        );
        assert_eq!(seq.properties[0].outcome, par.properties[0].outcome);
        assert_eq!(seq.properties[0].stats, par.properties[0].stats);
        assert_eq!(seq.properties[0].trace, par.properties[0].trace);
    }
}
