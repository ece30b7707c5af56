//! Machine-readable E1–E10 experiment runner and perf-regression gate.
//!
//! Two modes, combinable:
//!
//! * **Record** (default): runs every experiment on a small smoke-sized
//!   workload and writes one record per experiment —
//!   `{"id", "wall_ns", "configs_explored", "outcome"}` — as a versioned
//!   JSON report document (`{"schema_version": 1, "kind": "bench",
//!   "records": [...]}` — the same schema `dds verify --json`, `dds fuzz
//!   --json` and the serve load harness emit; see
//!   `docs/SPEC_LANGUAGE.md`) to `--out PATH` (default
//!   `BENCH_E1_E10.json`).
//! * **Gate** (`--gate BASELINE.json`): after recording, compares each
//!   experiment's `wall_ns` against the committed baseline and exits
//!   non-zero when any experiment regressed by more than the allowed ratio
//!   (default 2.0, `DDS_BENCH_MAX_RATIO`) *and* more than the absolute noise
//!   floor (default 5 ms, `DDS_BENCH_FLOOR_MS`). Small absolute differences
//!   never fail the gate, so microsecond-scale experiments do not flap.
//!
//! Each experiment is measured `DDS_BENCH_REPS` times (default 3) and the
//! minimum wall time is reported — the standard trick to suppress scheduler
//! noise on shared CI runners.
//!
//! Refreshing the committed baseline after an intentional perf change is one
//! line:
//!
//! ```text
//! cargo run --release -p dds_bench --bin experiments_json -- --out bench/baseline.json
//! ```
//!
//! The JSON reader in the gate is intentionally minimal: it parses the
//! record objects out of the documents this writer produces (it also still
//! reads the pre-`schema_version` flat-array shape, so old baselines keep
//! gating until refreshed).

use dds_bench::{
    abc_tree_automaton, chain_system, chain_tree, cycle_template, data_walk_system, env_or,
    example1, existential_chain_system, graph_schema, measure, nfa4, run_engine, run_free,
    tree_walk_system, word_step_system, Gate,
};
use dds_core::{DataClass, DataSpec, Engine, FreeRelationalClass, SymbolicClass};
use dds_reductions::counter::CounterMachine;
use dds_reductions::lemma1::{lemma1_system, LinearTm};
use dds_reductions::words_succ;
use dds_system::eliminate_existentials;
use dds_trees::pointers::{blowup_ratio, run_pointers};
use dds_trees::TreeClass;
use dds_words::WordClass;

/// One experiment's recorded result.
struct Record {
    id: &'static str,
    wall_ns: u128,
    configs_explored: u64,
    outcome: String,
}

fn outcome_str(nonempty: bool) -> String {
    if nonempty { "nonempty" } else { "empty" }.to_owned()
}

fn run_all(reps: u32) -> Vec<Record> {
    let mut out = Vec::new();
    let mut push = |id: &'static str, wall_ns: u128, configs: u64, outcome: String| {
        eprintln!(
            "{id}: {:.3} ms  configs={configs}  {outcome}",
            wall_ns as f64 / 1e6
        );
        out.push(Record {
            id,
            wall_ns,
            configs_explored: configs,
            outcome,
        });
    };

    // E1 — Lemma 1 PSpace-hardness family (tape length 2).
    {
        let tm = LinearTm::flip_and_check();
        let system = lemma1_system(&tm, 2);
        let (ns, (ne, configs)) = measure(reps, || {
            let class = FreeRelationalClass::new(system.schema().clone());
            run_engine(&class, &system)
        });
        push("E1_lemma1_tape2", ns, configs as u64, outcome_str(ne));
    }

    // E2 — Fact 2 existential elimination (guard size 256).
    {
        let system = existential_chain_system(256);
        let (ns, _) = measure(reps, || eliminate_existentials(&system).unwrap());
        push("E2_elim_guard256", ns, 0, "ok".to_owned());
    }

    // E3 — Theorem 4 HOM emptiness (cycle template of size 3).
    {
        let schema = graph_schema();
        let system = example1(schema.clone());
        let class = cycle_template(schema, 3);
        let (ns, (ne, configs)) = measure(reps, || run_engine(&class, &system));
        push("E3_hom_cycle3", ns, configs as u64, outcome_str(ne));
    }

    // E4 — Theorem 5 scaling: chain of 8 states (free class).
    {
        let schema = graph_schema();
        let system = chain_system(schema, 8);
        let (ns, (ne, configs)) = measure(reps, || run_free(&system));
        push("E4_chain_states8", ns, configs as u64, outcome_str(ne));
    }

    // E5 — Theorem 10 word emptiness (4-state NFA).
    {
        let class = WordClass::new(nfa4());
        let system = word_step_system(class.schema().clone());
        let (ns, (ne, configs)) = measure(reps, || run_engine(&class, &system));
        push("E5_word_nfa4", ns, configs as u64, outcome_str(ne));
    }

    // E6 — Theorem 3 tree emptiness (one descendant step, then the `b`
    // check: two rules).
    {
        let class = TreeClass::new(abc_tree_automaton());
        let system = tree_walk_system(class.schema().clone(), 1);
        let (ns, (ne, configs)) = measure(reps, || run_engine(&class, &system));
        push("E6_tree_walk2", ns, configs as u64, outcome_str(ne));
    }

    // E7 — Proposition 1 data values (rational order product).
    {
        let schema = graph_schema();
        let class = DataClass::new(
            FreeRelationalClass::new(schema.clone()),
            DataSpec::rational_order(),
        );
        let system = data_walk_system(class.schema().clone(), " & x_old << x_new");
        let (ns, (ne, configs)) = measure(reps, || run_engine(&class, &system));
        push("E7_data_rational", ns, configs as u64, outcome_str(ne));
    }

    // E8 — Lemma 14 pointer-closure blowup (chain depth 64).
    {
        let aut = abc_tree_automaton();
        let depth = 64usize;
        let (t, states) = chain_tree(depth);
        let (ns, ratio) = measure(reps, || {
            let ptr = run_pointers(&aut, &t, &states);
            let mid = 1 + depth / 2;
            blowup_ratio(&t, &ptr, &[mid, t.len() - 1])
        });
        push(
            "E8_blowup_depth64",
            ns,
            0,
            format!("ratio_x1000={}", (ratio * 1000.0) as u64),
        );
    }

    // E9 — §6 undecidability: bounded counter-machine search (3 steps).
    {
        let m = CounterMachine::count_up_down(3);
        let (ns, found) = measure(reps, || words_succ::bounded_check(&m, 5).is_some());
        push(
            "E9_counter3",
            ns,
            0,
            if found { "halts" } else { "open" }.to_owned(),
        );
    }

    // E10 — the headline: amalgamation engine proving emptiness over
    // HOM(2-cycle) outright (brute force can never conclude).
    {
        let schema = graph_schema();
        let system = example1(schema.clone());
        let class = cycle_template(schema, 2);
        let (ns, (empty, configs)) = measure(reps, || {
            let outcome = Engine::new(&class, &system).run();
            let configs = outcome.stats().configs_explored;
            (outcome.is_empty(), configs)
        });
        push(
            "E10_engine_empty_hom2",
            ns,
            configs as u64,
            outcome_str(!empty),
        );
    }

    out
}

fn write_json(path: &str, records: &[Record]) -> std::io::Result<()> {
    let rendered: Vec<String> = records
        .iter()
        .map(|r| dds_cli::render::record(r.id, r.wall_ns, r.configs_explored, &r.outcome))
        .collect();
    std::fs::write(path, dds_cli::render::document("bench", &rendered))
}

/// The E1–E10 gate: 2x the baseline and 5 ms absolute by default.
const GATE: Gate = Gate {
    ratio_env: "DDS_BENCH_MAX_RATIO",
    default_ratio: 2.0,
    floor_env: "DDS_BENCH_FLOOR_MS",
    default_floor_ms: 5,
    noun: "experiment",
    failure: "perf regression gate failed",
    id_width: 24,
    refresh: "cargo run --release -p dds_bench --bin experiments_json -- --out bench/baseline.json",
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_E1_E10.json".to_owned();
    let mut gate_path = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args.get(i + 1).expect("--out PATH").clone();
                i += 2;
            }
            "--gate" => {
                gate_path = Some(args.get(i + 1).expect("--gate BASELINE").clone());
                i += 2;
            }
            other => {
                eprintln!("usage: experiments_json [--out PATH] [--gate BASELINE.json]");
                panic!("unknown argument: {other}");
            }
        }
    }
    let reps: u32 = env_or("DDS_BENCH_REPS", 3);
    let records = run_all(reps);
    write_json(&out_path, &records).expect("write results");
    eprintln!("wrote {} records to {out_path}", records.len());
    if let Some(b) = gate_path {
        let walls: Vec<(&str, u128)> = records.iter().map(|r| (r.id, r.wall_ns)).collect();
        if let Err(msg) = GATE.check(&walls, &b) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}
