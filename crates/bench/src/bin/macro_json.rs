//! The `bench/macro/` suite runner, minter and perf-regression gate.
//!
//! The macro suite is the large-scale counterpart to `experiments_json`:
//! 20+ generated `.dds` scenarios (see `dds_gen::macro_gen`) big enough —
//! tens of milliseconds to seconds each — to steer engine optimization,
//! where E1–E10 are all sub-3ms. Modes, combinable except `--mint`:
//!
//! * **Record** (default): runs every `<dir>/*.dds` spec through the
//!   library pipeline at `--threads N` *and* at 1 thread, fails hard when
//!   the two disagree on outcome, configuration count or any deterministic
//!   engine statistic (the bit-identity contract `tests/determinism.rs`
//!   pins), checks the stamped `expect` lines, and writes one record per
//!   scenario — `{"id", "wall_ns", "configs_explored", "outcome",
//!   "seq_wall_ns"}` — as a versioned JSON document to `--out PATH`
//!   (default `MACRO_BENCH.json`). The document also records where it was
//!   measured, `"host": {"cores", "git_rev"}`, so numbers from different
//!   machines or revisions cannot be confused; the gate ignores it.
//! * **Gate** (`--gate BASELINE.json`): compares each scenario's `wall_ns`
//!   against the committed baseline and exits non-zero when any scenario
//!   regressed by more than `DDS_MACRO_MAX_RATIO` (default 3.0) *and* more
//!   than `DDS_MACRO_FLOOR_MS` (default 250 ms) absolute — macro runs are
//!   long, so the generous floor keeps shared-runner noise from flapping.
//!   Gating also runs the **parallel-leg gate** over scenarios whose
//!   sequential leg clears `DDS_MACRO_PAR_FLOOR_MS` (default 100 ms): the
//!   aggregate parallel wall time must stay within `DDS_MACRO_PAR_RATIO`
//!   (default 1.05; multi-core CI can set a sub-1.0 ratio to demand a real
//!   speedup) of the aggregate sequential time, and no single scenario may
//!   exceed `DDS_MACRO_PAR_HARD` (default 1.5) times its sequential leg.
//! * **`--widths PATH`**: writes the per-scenario BFS layer-width
//!   histograms (`EngineStats::layer_widths`, log2 buckets) plus the
//!   aggregate `par_speedup` as a JSON artifact for CI upload.
//! * **Mint** (`--mint`): regenerates the pinned suite from
//!   `dds_gen::macro_suite()`, stamps each scenario's verified outcome as
//!   an `expect` line, and (re)writes `<dir>/<id>.dds`. The suite is
//!   seed-pinned, so minting is reproducible byte-for-byte.
//!
//! Refreshing the committed baseline after an intentional perf change:
//!
//! ```text
//! cargo run --release -p dds_bench --bin macro_json -- --out bench/macro_baseline.json
//! ```

use dds_bench::{env_or, measure, Gate};
use dds_cli::api::VerifyRequest;
use dds_cli::render;
use dds_cli::runner::RunOptions;
use std::time::Instant;

/// One scenario's recorded result.
struct Record {
    id: String,
    /// Minimum wall time at `--threads N`.
    wall_ns: u128,
    configs_explored: u64,
    outcome: String,
    /// Single-thread wall time from the determinism cross-run.
    seq_wall_ns: u128,
    /// Log2-bucketed BFS layer-width histogram (`EngineStats::layer_widths`)
    /// — deterministic, so identical on both legs.
    layer_widths: [u64; 16],
}

fn fail(msg: &str) -> ! {
    eprintln!("macro_json: {msg}");
    std::process::exit(1);
}

/// The sorted `.dds` files under `dir`.
fn spec_paths(dir: &str) -> Vec<std::path::PathBuf> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => fail(&format!("{dir}: {e} (run --mint first?)")),
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "dds"))
        .collect();
    paths.sort();
    paths
}

/// Regenerates the pinned suite into `dir`, stamping verified outcomes.
fn mint(dir: &str) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("mkdir {dir}: {e}")));
    let opts = RunOptions {
        threads: 1,
        ..RunOptions::default()
    };
    for m in dds_gen::macro_suite() {
        let t0 = Instant::now();
        let report = VerifyRequest::new(m.scenario.render())
            .label(format!("{}.dds", m.id))
            .options(opts)
            .verify()
            .unwrap_or_else(|e| fail(&format!("{}: {e}", m.id)));
        let prop = &report.report.properties[0];
        let text = format!(
            "# dds macro benchmark scenario: {} (pinned; regenerate with `macro_json --mint`)\n{}",
            m.id,
            m.scenario.render_with_expect(Some(&prop.outcome))
        );
        let path = format!("{dir}/{}.dds", m.id);
        std::fs::write(&path, text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        eprintln!(
            "minted {path}: {} configs={} in {:.1} ms",
            prop.outcome,
            prop.configs_explored,
            t0.elapsed().as_nanos() as f64 / 1e6
        );
    }
}

/// Runs one spec at `threads` and at 1 thread, cross-checking determinism
/// and the stamped expectation.
fn run_one(path: &str, threads: usize, reps: u32) -> Record {
    let req = VerifyRequest::from_file(path).unwrap_or_else(|e| fail(&e.to_string()));
    let par_opts = RunOptions {
        threads,
        ..RunOptions::default()
    };
    let seq_opts = RunOptions {
        threads: 1,
        ..RunOptions::default()
    };
    let (wall_ns, par) = measure(reps, || {
        req.clone()
            .options(par_opts)
            .verify()
            .unwrap_or_else(|e| fail(&e.to_string()))
    });
    // The same rep count as the parallel leg: the par gate compares the two
    // minima, and a min-of-N vs single-shot comparison would bias it.
    let (seq_wall_ns, seq) = measure(reps, || {
        req.clone()
            .options(seq_opts)
            .verify()
            .unwrap_or_else(|e| fail(&e.to_string()))
    });
    let (p, s) = (&par.report.properties[0], &seq.report.properties[0]);
    if p.outcome != s.outcome || p.configs_explored != s.configs_explored || p.stats != s.stats {
        fail(&format!(
            "{path}: threads={threads} diverges from threads=1\n  \
             {} configs={} stats={:?}\n  vs\n  {} configs={} stats={:?}",
            p.outcome, p.configs_explored, p.stats, s.outcome, s.configs_explored, s.stats
        ));
    }
    if !par.report.ok() {
        fail(&format!(
            "{path}: outcome `{}` violates the stamped expectation `{}` — \
             re-mint the corpus if the change is intentional",
            p.outcome,
            p.expect.as_deref().unwrap_or("<none>")
        ));
    }
    let id = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_owned();
    eprintln!(
        "{id}: {:.1} ms ({threads} threads) / {:.1} ms (1 thread)  configs={}  {}",
        wall_ns as f64 / 1e6,
        seq_wall_ns as f64 / 1e6,
        p.configs_explored,
        p.outcome
    );
    Record {
        id,
        wall_ns,
        configs_explored: p.configs_explored,
        outcome: p.outcome.clone(),
        seq_wall_ns,
        layer_widths: p
            .stats
            .as_ref()
            .map(|s| s.layer_widths.0)
            .unwrap_or_default(),
    }
}

/// Where the numbers were measured: `{"cores", "git_rev"}`. The revision
/// is `git rev-parse HEAD` (with `+dirty` when tracked files differ from
/// it), or `unknown` outside a git checkout.
fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let rev = match git(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty());
            format!("{rev}{}", if dirty { "+dirty" } else { "" })
        }
        None => "unknown".to_owned(),
    };
    format!("{{\"cores\":{cores},\"git_rev\":\"{rev}\"}}")
}

fn write_json(path: &str, records: &[Record]) -> std::io::Result<()> {
    let rendered: Vec<String> = records
        .iter()
        .map(|r| {
            let base = render::record(&r.id, r.wall_ns, r.configs_explored, &r.outcome);
            // Splice the macro-only fields into the shared record shape.
            let mut obj = base[..base.len() - 1].to_owned();
            obj.push_str(&format!(",\"seq_wall_ns\":{}}}", r.seq_wall_ns));
            obj
        })
        .collect();
    // The host object has no `"id"`, so `read_baseline` skips it.
    let doc = render::document("macro-bench", &rendered).replacen(
        "\"records\": [",
        &format!("\"host\": {},\n\"records\": [", host_json()),
        1,
    );
    std::fs::write(path, doc)
}

/// The macro gate: 3x the baseline and 250 ms absolute by default.
const GATE: Gate = Gate {
    ratio_env: "DDS_MACRO_MAX_RATIO",
    default_ratio: 3.0,
    floor_env: "DDS_MACRO_FLOOR_MS",
    default_floor_ms: 250,
    noun: "scenario",
    failure: "macro perf gate failed",
    id_width: 28,
    refresh: "cargo run --release -p dds_bench --bin macro_json -- --out bench/macro_baseline.json",
};

/// Aggregate parallel speedup over the measurable scenarios: total
/// sequential wall time divided by total parallel wall time, counting only
/// scenarios whose sequential leg clears `floor_ns` (fast scenarios are
/// dominated by fixed costs and noise, not by the scheduler).
fn par_speedup(records: &[Record], floor_ns: u128) -> Option<f64> {
    let (seq, par) = records
        .iter()
        .filter(|r| r.seq_wall_ns >= floor_ns)
        .fold((0u128, 0u128), |(s, p), r| {
            (s + r.seq_wall_ns, p + r.wall_ns)
        });
    (par > 0).then(|| seq as f64 / par as f64)
}

/// The parallel-leg gate, over scenarios whose sequential leg is slow
/// enough to measure (`DDS_MACRO_PAR_FLOOR_MS`, default 100 ms):
///
/// * the *aggregate* parallel wall time must satisfy
///   `sum(wall_ns) <= sum(seq_wall_ns) * DDS_MACRO_PAR_RATIO` (default
///   1.05 — threads may never lose overall; multi-core CI runners can set
///   a sub-1.0 ratio to demand a genuine speedup), and
/// * no single scenario may exceed `DDS_MACRO_PAR_HARD` (default 1.5)
///   times its sequential leg — a backstop for scheduler pathologies that
///   an aggregate would average away.
///
/// Per-scenario timing ratios flap with noise (thin-layer scenarios
/// inline every layer, so their two legs do identical work), which is why
/// the tight ratio applies to the sum and only the loose one per scenario.
fn gate_par(records: &[Record]) -> Result<(), String> {
    let max_ratio: f64 = env_or("DDS_MACRO_PAR_RATIO", 1.05);
    let hard_ratio: f64 = env_or("DDS_MACRO_PAR_HARD", 1.5);
    let floor_ns: u128 = env_or::<u128>("DDS_MACRO_PAR_FLOOR_MS", 100) * 1_000_000;
    let mut failures = Vec::new();
    let (mut seq_total, mut par_total) = (0u128, 0u128);
    for r in records {
        if r.seq_wall_ns < floor_ns {
            continue;
        }
        seq_total += r.seq_wall_ns;
        par_total += r.wall_ns;
        let ratio = r.wall_ns as f64 / r.seq_wall_ns.max(1) as f64;
        let verdict = if ratio > hard_ratio {
            failures.push(r.id.clone());
            "SLOWER"
        } else {
            "ok"
        };
        eprintln!(
            "par-gate: {:28} {:>12} ns parallel vs {:>12} ns sequential  ({ratio:.2}x) {verdict}",
            r.id, r.wall_ns, r.seq_wall_ns
        );
    }
    if let Some(speedup) = par_speedup(records, floor_ns) {
        eprintln!("par-gate: aggregate par_speedup = {speedup:.2}x (scenarios >= {floor_ns} ns sequential)");
    }
    if !failures.is_empty() {
        return Err(format!(
            "macro parallel gate failed (single scenario > {hard_ratio}x its sequential leg): {failures:?}"
        ));
    }
    if par_total as f64 > seq_total as f64 * max_ratio {
        return Err(format!(
            "macro parallel gate failed: aggregate {par_total} ns parallel > {max_ratio}x aggregate {seq_total} ns sequential"
        ));
    }
    Ok(())
}

/// Writes the width-histogram artifact: one log2-bucketed BFS layer-width
/// histogram per scenario plus the aggregate `par_speedup`, for the CI
/// macro-bench job to upload.
fn write_widths(path: &str, records: &[Record]) -> std::io::Result<()> {
    let floor_ns: u128 = env_or::<u128>("DDS_MACRO_PAR_FLOOR_MS", 100) * 1_000_000;
    let speedup = par_speedup(records, floor_ns)
        .map(|s| format!("{s:.4}"))
        .unwrap_or_else(|| "null".into());
    let scenarios: Vec<String> = records
        .iter()
        .map(|r| {
            let buckets: Vec<String> = r.layer_widths.iter().map(u64::to_string).collect();
            format!(
                "{{\"id\":\"{}\",\"layers\":{},\"layer_widths\":[{}]}}",
                r.id,
                r.layer_widths.iter().sum::<u64>(),
                buckets.join(",")
            )
        })
        .collect();
    std::fs::write(
        path,
        format!(
            "{{\"schema_version\":{},\"kind\":\"macro-widths\",\"host\":{},\"par_speedup\":{},\"scenarios\":[\n{}\n]}}\n",
            render::SCHEMA_VERSION,
            host_json(),
            speedup,
            scenarios.join(",\n")
        ),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = "bench/macro".to_owned();
    let mut out_path = "MACRO_BENCH.json".to_owned();
    let mut gate_path = None;
    let mut widths_path = None;
    let mut do_mint = false;
    let mut threads: usize = env_or("DDS_MACRO_THREADS", 4);
    let mut i = 0;
    while i < args.len() {
        let take = |i: usize, what: &str| -> String {
            args.get(i + 1)
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
                .clone()
        };
        match args[i].as_str() {
            "--dir" => {
                dir = take(i, "--dir");
                i += 2;
            }
            "--out" => {
                out_path = take(i, "--out");
                i += 2;
            }
            "--gate" => {
                gate_path = Some(take(i, "--gate"));
                i += 2;
            }
            "--widths" => {
                widths_path = Some(take(i, "--widths"));
                i += 2;
            }
            "--threads" => {
                threads = take(i, "--threads")
                    .parse()
                    .unwrap_or_else(|_| fail("--threads expects a number"));
                i += 2;
            }
            "--mint" => {
                do_mint = true;
                i += 1;
            }
            other => {
                eprintln!(
                    "usage: macro_json [--dir DIR] [--out PATH] [--gate BASELINE.json] \
                     [--mint] [--threads N] [--widths PATH]"
                );
                fail(&format!("unknown argument: {other}"));
            }
        }
    }
    if do_mint {
        mint(&dir);
        return;
    }
    let reps: u32 = env_or("DDS_BENCH_REPS", 2);
    let paths = spec_paths(&dir);
    if paths.is_empty() {
        fail(&format!("{dir}: no .dds scenarios (run --mint first?)"));
    }
    let records: Vec<Record> = paths
        .iter()
        .map(|p| run_one(p.to_str().expect("utf-8 path"), threads, reps))
        .collect();
    write_json(&out_path, &records).expect("write results");
    eprintln!("wrote {} records to {out_path}", records.len());
    if let Some(w) = widths_path {
        write_widths(&w, &records).expect("write widths artifact");
        eprintln!("wrote width histograms to {w}");
    }
    if let Some(b) = gate_path {
        let mut failed = false;
        let walls: Vec<(&str, u128)> = records.iter().map(|r| (r.id.as_str(), r.wall_ns)).collect();
        if let Err(msg) = GATE.check(&walls, &b) {
            eprintln!("{msg}");
            failed = true;
        }
        if let Err(msg) = gate_par(&records) {
            eprintln!("{msg}");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
