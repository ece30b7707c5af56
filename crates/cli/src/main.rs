//! The `dds` command-line verifier.
//!
//! ```text
//! dds verify [OPTIONS] FILE...   parse, lower and verify .dds specifications
//! dds check FILE...              parse and lower only (spec linting)
//! dds equiv [OPTIONS] A B        decide outcome equivalence of two specs
//! dds fuzz [FUZZ-OPTIONS]        differential fuzzing across all classes
//! dds serve [SERVE-OPTIONS]      long-running HTTP verification daemon
//!
//! OPTIONS
//!   --json            emit JSON records (the BENCH_E1_E10.json shape)
//!   --out PATH        also write the rendered output to PATH
//!   --threads N|auto  persistent engine workers (default auto: all cores)
//!   --chunk-size N    steal granularity: tasks per claim from a worker's
//!                     frontier queue (default auto: 4 chunks per worker)
//!   --max-configs N   exploration budget (default 1000000)
//!   --no-certify      skip witness concretization/certification
//!   --timings         include wall-clock timings in text output
//! ```
//!
//! `dds fuzz --help` and `dds equiv --help` document their options.
//!
//! Exit codes: `0` all properties pass (for `equiv`: the specs are
//! equivalent), `1` a property failed (expectation mismatch, budget
//! exhausted without a decision, a fuzz iteration found a disagreement, or
//! an equivalence check diverged), `2` a spec failed to parse/lower, the
//! specs are not comparable, or an I/O error occurred.

use dds_cli::fuzz::{self, FuzzMode, FuzzOptions};
use dds_cli::serve::{ServeOptions, Server};
use dds_cli::{render, EquivRequest, RunError, RunOptions, VerifyRequest};
use dds_gen::ClassKind;
use std::process::ExitCode;

struct Args {
    command: String,
    files: Vec<String>,
    json: bool,
    out: Option<String>,
    timings: bool,
    options: RunOptions,
}

const USAGE: &str = "usage: dds <verify|check> [--json] [--out PATH] [--threads N|auto] \
                     [--chunk-size N] [--max-configs N] [--no-certify] [--timings] FILE...\n\
                     \x20      dds equiv [EQUIV-OPTIONS] A B  (see `dds equiv --help`)\n\
                     \x20      dds fuzz [FUZZ-OPTIONS]    (see `dds fuzz --help`)\n\
                     \x20      dds serve [SERVE-OPTIONS]  (see `dds serve --help`)";

const EQUIV_USAGE: &str = "\
usage: dds equiv [--json] [--out PATH] [--bisim] [--up-to N] [--threads N|auto]
                 [--chunk-size N] [--no-certify] [--timings] A.dds B.dds

Decides whether two .dds specs over the same schema and class reach the
same outcomes: both systems are joined into one product system (disjoint
control states, shared data domain) and the interned frontier engine
explores it once per paired `reach` property, deciding both sides'
accepting sets in the same search. A divergence is reported with a
replayable witness naming which spec it belongs to — the safe-migration
check: refactor a spec, prove the refactoring equivalent.

The specs must be comparable: same schema (symbols in declaration order),
same class declaration, same register count, same property names, and
`reach` properties only; anything else is a structured error (exit 2).
`expect` stamps are ignored — outcomes are compared against each other.

OPTIONS
  --up-to N       exploration budget for the joint search (alias of
                  --max-configs; default 1000000). If the budget is hit the
                  verdict is `resource-limit`: equivalent up to the bound
  --bisim         stepwise mode: after every BFS layer the cumulative
                  accepting-configuration sets of the two sides must agree
                  (stricter than outcome equivalence; implies it)
  --json          emit the versioned JSON document (kind \"equiv\")
  --out PATH      also write the rendered output to PATH
  --threads N|auto, --chunk-size N, --max-configs N, --no-certify,
  --timings       as in `dds verify` (threads default to auto: all cores)

Exit codes: 0 equivalent, 1 divergent or undecided at the bound, 2 the
specs failed to load or are not comparable.";

const SERVE_USAGE: &str = "\
usage: dds serve [--addr HOST:PORT] [--workers N] [--timeout-ms N]
                 [--max-request-bytes N] [--cache-capacity N]
                 [--cache-file PATH] [--idle-timeout-ms N]
                 [--max-conn-requests N]
                 [--threads N|auto] [--chunk-size N] [--max-configs N] [--no-certify]

A long-running verification daemon. POST a .dds spec as JSON and get back
the same versioned JSON report document `dds verify --json` prints:

  curl -s http://127.0.0.1:7878/verify -d '{\"spec\":\"...\"}'

Endpoints: POST /verify, GET /health, GET /stats, POST /shutdown.
Connections are HTTP/1.1 keep-alive by default (pipelining works; send
`Connection: close` to opt out); identical systems are answered from a
content-hash result cache; requests beyond the worker queue are shed
with 503; a graceful shutdown (POST /shutdown) drains queued and
in-flight work before exiting, persisting the cache if --cache-file is
set.

OPTIONS
  --addr HOST:PORT       bind address (default 127.0.0.1:7878; :0 = ephemeral)
  --workers N            worker threads / max concurrent connections (default 8)
  --timeout-ms N         per-request verification timeout (default 30000)
  --max-request-bytes N  request body size limit (default 1048576)
  --cache-capacity N     result cache entries, FIFO eviction (default 4096)
  --cache-file PATH      persist the result cache here on drain and reload
                         it on start (a stale or corrupt file is discarded)
  --idle-timeout-ms N    close a keep-alive connection after N ms without a
                         new request (default 5000)
  --max-conn-requests N  close a keep-alive connection after N requests
                         (default 1000)
  --threads N|auto, --chunk-size N, --max-configs N, --no-certify
                         default engine tuning (a request's `options` object
                         overrides per field; threads default to auto: all
                         cores, reported by GET /stats)";

const FUZZ_USAGE: &str = "\
usage: dds fuzz [--mode diff|equiv] [--seed N] [--iters N] [--class LIST]
                [--max-size N] [--threads N] [--max-configs N] [--out DIR]
                [--emit-corpus DIR] [--json]

Differential fuzzing (--mode diff, the default): generates seeded random
systems across the eight structure classes (free, hom, equivalence,
linear-order, words, trees, data, counter), renders each as a .dds spec,
and checks

  * round-trip     render -> parse -> lower reproduces the built system
                   rule-for-rule with identical engine behavior,
  * four-way       engine outcomes and statistics are bit-identical at
                   1 vs N threads, with and without certification,
  * baselines      bounded brute-force oracles never contradict the
                   engine; certified witnesses replay and are members,
  * completeness   (trees) every step of every accepted run within the
                   baseline's node budget is a step of the symbolic search.

Equivalence fuzzing (--mode equiv): each iteration mutates a generated
base spec with a rewrite whose effect is known by construction
(equivalence-preserving: rule reorder, guard tautology, rule/state
duplication, register rename; equivalence-breaking: severing or bridging
the accepting states), runs `dds equiv` on the pair at 1 and N threads,
and requires the verdict to match the label — preserving pairs must be
`equivalent`, breaking pairs `divergent` with the witness on the side that
still reaches. `--iters` counts total pairs, round-robin over the classes
(counter machines are skipped: equiv has no reachability product there).

Runs are deterministic: the same --seed produces the same report. On
failure the scenario is shrunk and written to --out as a minimized .dds
repro (a `-a.dds`/`-b.dds` pair in equiv mode); the exit code is 1.

OPTIONS
  --mode diff|equiv campaign to run (default diff)
  --seed N          base seed (default 3541)
  --iters N         iterations per class (diff) or total pairs (equiv;
                    default 4)
  --class LIST      comma-separated class subset (default: all eight)
  --max-size N      generation size knob, 1..=3 (default 2)
  --threads N       worker count of the parallel engine leg (default 2;
                    values below 2 are raised to 2 — both modes compare
                    against a sequential leg)
  --max-configs N   engine exploration budget per leg (default 100000)
  --out DIR         directory for minimized repros (default .)
  --emit-corpus DIR write every passing spec (outcome stamped as `expect`;
                    diff mode only)
  --json            emit the versioned JSON report document instead of text
  --inject-failure CLASS:ITER
                    test hook: force one iteration to fail (diff mode)";

/// Parses a `--threads` value: the literal `auto` (all hardware threads,
/// spelled `0` internally — see `EngineOptions::resolved_threads`) or an
/// explicit worker count.
fn parse_threads(flag: &str, v: Option<&String>, usage: &str) -> Result<usize, String> {
    let word = v.ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
    if word == "auto" {
        return Ok(0);
    }
    word.parse()
        .map_err(|_| format!("{flag} needs a number or `auto`\n{usage}"))
}

fn parse_fuzz_args(argv: &[String]) -> Result<FuzzOptions, String> {
    let mut opts = FuzzOptions::default();
    let mut it = argv.iter();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{FUZZ_USAGE}"))
    };
    let numeric = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        value(flag, v)?
            .parse()
            .map_err(|_| format!("{flag} needs a number\n{FUZZ_USAGE}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => {
                let word = value("--mode", it.next())?;
                opts.mode = FuzzMode::parse(&word)
                    .ok_or_else(|| format!("unknown fuzz mode `{word}`\n{FUZZ_USAGE}"))?;
            }
            "--seed" => opts.seed = numeric("--seed", it.next())?,
            "--iters" => opts.iters = numeric("--iters", it.next())?,
            "--max-size" => opts.max_size = numeric("--max-size", it.next())? as usize,
            "--threads" => opts.threads = (numeric("--threads", it.next())? as usize).max(2),
            "--max-configs" => opts.max_configs = numeric("--max-configs", it.next())? as usize,
            "--out" => opts.out_dir = value("--out", it.next())?.into(),
            "--emit-corpus" => opts.emit_corpus = Some(value("--emit-corpus", it.next())?.into()),
            "--class" => {
                let list = value("--class", it.next())?;
                let mut classes = Vec::new();
                for word in list.split(',').filter(|w| !w.is_empty()) {
                    let kind = ClassKind::parse(word)
                        .ok_or_else(|| format!("unknown class `{word}`\n{FUZZ_USAGE}"))?;
                    if !classes.contains(&kind) {
                        classes.push(kind);
                    }
                }
                if classes.is_empty() {
                    return Err(format!("--class needs at least one class\n{FUZZ_USAGE}"));
                }
                opts.classes = classes;
            }
            "--inject-failure" => {
                let spec = value("--inject-failure", it.next())?;
                let (class, iter) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--inject-failure needs CLASS:ITER\n{FUZZ_USAGE}"))?;
                let kind = ClassKind::parse(class)
                    .ok_or_else(|| format!("unknown class `{class}`\n{FUZZ_USAGE}"))?;
                let iter: u64 = iter
                    .parse()
                    .map_err(|_| format!("--inject-failure needs CLASS:ITER\n{FUZZ_USAGE}"))?;
                opts.inject_failure = Some((kind, iter));
            }
            other => return Err(format!("unknown fuzz flag `{other}`\n{FUZZ_USAGE}")),
        }
    }
    Ok(opts)
}

fn run_fuzz(argv: &[String]) -> ExitCode {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{FUZZ_USAGE}");
        return ExitCode::SUCCESS;
    }
    let json = argv.iter().any(|a| a == "--json");
    let argv: Vec<String> = argv.iter().filter(|a| *a != "--json").cloned().collect();
    let opts = match parse_fuzz_args(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = match fuzz::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", fuzz::json_report(&report));
    } else {
        print!("{}", fuzz::render_report(&report));
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

struct EquivArgs {
    files: Vec<String>,
    json: bool,
    out: Option<String>,
    timings: bool,
    bisim: bool,
    options: RunOptions,
}

fn parse_equiv_args(argv: &[String]) -> Result<EquivArgs, String> {
    let mut args = EquivArgs {
        files: Vec::new(),
        json: false,
        out: None,
        timings: false,
        bisim: false,
        options: RunOptions::default(),
    };
    let mut it = argv.iter();
    let numeric = |flag: &str, value: Option<&String>| -> Result<usize, String> {
        value
            .ok_or_else(|| format!("{flag} needs a value\n{EQUIV_USAGE}"))?
            .parse()
            .map_err(|_| format!("{flag} needs a number\n{EQUIV_USAGE}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--timings" => args.timings = true,
            "--bisim" => args.bisim = true,
            "--no-certify" => args.options.concretize = false,
            "--out" => args.out = Some(it.next().ok_or("--out needs a PATH")?.clone()),
            "--threads" => {
                args.options.threads = parse_threads("--threads", it.next(), EQUIV_USAGE)?
            }
            "--chunk-size" => args.options.chunk_size = numeric("--chunk-size", it.next())?,
            "--max-configs" => args.options.max_configs = numeric("--max-configs", it.next())?,
            "--up-to" => args.options.max_configs = numeric("--up-to", it.next())?,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown equiv flag `{flag}`\n{EQUIV_USAGE}"))
            }
            file => args.files.push(file.to_owned()),
        }
    }
    if args.files.len() != 2 {
        return Err(format!(
            "equiv needs exactly two spec files, got {}\n{EQUIV_USAGE}",
            args.files.len()
        ));
    }
    Ok(args)
}

fn run_equiv(argv: &[String]) -> ExitCode {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{EQUIV_USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_equiv_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = EquivRequest::from_files(&args.files[0], &args.files[1])
        .and_then(|req| req.options(args.options).bisim(args.bisim).run());
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            if args.json {
                print!("{}", render::error_json(e.code(), &e.to_string(), e.line()));
            }
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let rendered = if args.json {
        render::equiv_json(&report)
    } else {
        render::equiv_text(&report, args.timings)
    };
    print!("{rendered}");
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, &rendered) {
            eprintln!("{out}: {e}");
            return ExitCode::from(2);
        }
    }
    if report.equivalent() {
        ExitCode::SUCCESS
    } else {
        eprintln!("NOT EQUIVALENT: {}", report.verdict());
        ExitCode::from(1)
    }
}

fn parse_serve_args(argv: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let mut it = argv.iter();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{SERVE_USAGE}"))
    };
    let numeric = |flag: &str, v: Option<&String>| -> Result<usize, String> {
        value(flag, v)?
            .parse()
            .map_err(|_| format!("{flag} needs a number\n{SERVE_USAGE}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => opts.addr = value("--addr", it.next())?,
            "--workers" => opts.workers = numeric("--workers", it.next())?,
            "--timeout-ms" => opts.timeout_ms = numeric("--timeout-ms", it.next())? as u64,
            "--max-request-bytes" => {
                opts.max_request_bytes = numeric("--max-request-bytes", it.next())?
            }
            "--cache-capacity" => opts.cache_capacity = numeric("--cache-capacity", it.next())?,
            "--cache-file" => opts.cache_file = Some(value("--cache-file", it.next())?),
            "--idle-timeout-ms" => {
                opts.idle_timeout_ms = numeric("--idle-timeout-ms", it.next())? as u64
            }
            "--max-conn-requests" => {
                opts.max_conn_requests = numeric("--max-conn-requests", it.next())?
            }
            "--threads" => opts.run.threads = parse_threads("--threads", it.next(), SERVE_USAGE)?,
            "--chunk-size" => opts.run.chunk_size = numeric("--chunk-size", it.next())?,
            "--max-configs" => opts.run.max_configs = numeric("--max-configs", it.next())?,
            "--no-certify" => opts.run.concretize = false,
            other => return Err(format!("unknown serve flag `{other}`\n{SERVE_USAGE}")),
        }
    }
    Ok(opts)
}

fn run_serve(argv: &[String]) -> ExitCode {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{SERVE_USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_serve_args(argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let workers = opts.workers;
    let server = match Server::start(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(2);
        }
    };
    let restored = server.cache_entries();
    println!(
        "dds serve listening on http://{} ({workers} workers, {restored} cached responses restored); POST /shutdown to drain",
        server.addr()
    );
    let stats = server.wait();
    println!(
        "dds serve drained: {} requests, {} verifications ({} engine runs, {} cache hits, {} timeouts)",
        stats.requests, stats.verifications, stats.engine_runs, stats.cache_hits, stats.timeouts
    );
    ExitCode::SUCCESS
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let command = it.next().cloned().ok_or(USAGE)?;
    if !matches!(command.as_str(), "verify" | "check") {
        return Err(format!("unknown command `{command}`\n{USAGE}"));
    }
    let mut args = Args {
        command,
        files: Vec::new(),
        json: false,
        out: None,
        timings: false,
        options: RunOptions::default(),
    };
    let numeric = |flag: &str, value: Option<&String>| -> Result<usize, String> {
        value
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?
            .parse()
            .map_err(|_| format!("{flag} needs a number\n{USAGE}"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--timings" => args.timings = true,
            "--no-certify" => args.options.concretize = false,
            "--out" => args.out = Some(it.next().ok_or("--out needs a PATH")?.clone()),
            "--threads" => args.options.threads = parse_threads("--threads", it.next(), USAGE)?,
            "--chunk-size" => args.options.chunk_size = numeric("--chunk-size", it.next())?,
            "--max-configs" => args.options.max_configs = numeric("--max-configs", it.next())?,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{USAGE}"))
            }
            file => args.files.push(file.to_owned()),
        }
    }
    if args.files.is_empty() {
        return Err(format!("no input files\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("equiv") => return run_equiv(&argv[1..]),
        Some("fuzz") => return run_fuzz(&argv[1..]),
        Some("serve") => return run_serve(&argv[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    // The CLI is a thin shell over the library API: every failure below is
    // a `RunError` value that main (and only main) turns into stderr text
    // and an exit code.
    let mut reports = Vec::new();
    for path in &args.files {
        let request = match VerifyRequest::from_file(path) {
            Ok(r) => r.options(args.options),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        let loaded = match request.load() {
            Ok(l) => l,
            Err(e @ RunError::Spec { .. }) | Err(e @ RunError::Io { .. }) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        if args.command == "check" {
            println!(
                "ok: {path} (system {}, {}, {} properties)",
                loaded.lowered.name,
                loaded.lowered.class.describe(),
                loaded.lowered.properties.len()
            );
            continue;
        }
        reports.push(request.run_loaded(&loaded).report);
    }
    if args.command == "check" {
        return ExitCode::SUCCESS;
    }

    let rendered = if args.json {
        render::json(&reports)
    } else {
        reports
            .iter()
            .map(|r| render::text(r, args.timings))
            .collect::<Vec<_>>()
            .join("\n")
    };
    print!("{rendered}");
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, &rendered) {
            eprintln!("{out}: {e}");
            return ExitCode::from(2);
        }
    }

    let failed: Vec<&str> = reports
        .iter()
        .flat_map(|r| &r.properties)
        .filter(|p| !p.ok())
        .map(|p| p.id.as_str())
        .collect();
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: {}", failed.join(", "));
        ExitCode::from(1)
    }
}
