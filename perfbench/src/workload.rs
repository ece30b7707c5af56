//! The workloads: which pinned scenarios each one runs, how a seed
//! turns them into spec files, and the manifest every other step reads.
//!
//! Manifest lines (whitespace-separated; files are relative to the
//! manifest's directory):
//!
//! ```text
//! verify <id> <file> <expect>        one `dds verify` process
//! equiv  <id> <file-a> <file-b>      one `dds equiv` process, must be `equivalent`
//! hot    <id> <file> <expect>        serve: a spec of the hot (cached) set
//! cold   <id> <file> <expect> <sys>  serve: a first-seen spec (an engine run):
//!                                    `file` renamed to system `sys`
//! bad    <id> <file>                 serve: a malformed spec (must get a 422)
//! req    <phase> <due_us> <id>       serve: one request; phase 0 is the open
//!                                    loop, phase k > 0 the k-th burst
//! threads <n>                        engine threads per verification (0 = auto)
//! ```
//!
//! Every outcome comes from the `expect` lines stamped in
//! `bench/macro/<id>.dds`, the pinned copy of the macro suite.

use dds_gen::{macro_suite, FuzzRng, MacroScenario, Mutation, Scenario};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

/// Relational amalgam classes with wide layers; all but `grid_free_dense`
/// are `empty`, so certification is negligible. `counter_halts` carries the
/// bounded-halt reduction, the other search outside `dds_core::amalgam`.
const AMALGAM_SEARCH: [&str; 8] = [
    "hom_grid_k4_exhaust",
    "grid_free_exhaust",
    "chain_free_wide_exhaust",
    "grid_free_dense",
    "chain_free_exhaust",
    "equiv_exhaust",
    "data_order_exhaust",
    "counter_halts",
];

/// Thin, deep, `nonempty` chains where certification dominates.
const WITNESS_CERTIFY: [&str; 6] = [
    "data_order_deep",
    "order_deep",
    "hom_chain_k5",
    "chain_free_thin",
    "chain_free_deep",
    "equiv_deep",
];

/// amalgam-search also runs each of these against a preserving mutant
/// through `dds equiv`: the multi-target product search.
const EQUIV_PAIRS: [&str; 2] = ["equiv_exhaust", "chain_free_exhaust"];

/// serve-mixed's first-seen specs are seed-renamed copies of these
/// mid-size specs (an engine run each, with and without a witness).
const COLD_BASES: [&str; 4] = [
    "hom_chain_k5",
    "chain_free_exhaust",
    "equiv_exhaust",
    "data_order_exhaust",
];

// serve-mixed's traffic. No measured `dds serve` traffic exists to copy,
// so these are assumed values; README.md gives the reason for each.
/// Open-loop arrival rate, requests per second.
const RATE: f64 = 50.0;
/// The open loop sends at least this many requests, so at least ten lie
/// beyond the p99 latency.
const MIN_REQUESTS: usize = 1000;
/// Shares of the mix, in percent: malformed, then first-seen.
const BAD_PCT: usize = 2;
const COLD_PCT: usize = 10;
/// The open loop takes this share of `--seconds`; the bursts follow.
const OPEN_SHARE: f64 = 0.75;
/// Bursts of `BURST` requests of the same mix, sent all at once.
const BURSTS: usize = 9;
const BURST: usize = 200;
/// Engine threads per serve-mixed verification: the daemon runs one
/// worker per core, so concurrent requests do not oversubscribe the cores.
const SERVE_THREADS: usize = 1;

/// The outcomes stamped in `<stamps>/<id>.dds`, comma-joined in property
/// order as `dds verify --json` reports them.
fn stamped(stamps: &Path, id: &str) -> Result<String, String> {
    let path = stamps.join(format!("{id}.dds"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let outcomes: Vec<&str> = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("expect "))
        .map(str::trim)
        .collect();
    if outcomes.is_empty() {
        return Err(format!("{}: no stamped `expect`", path.display()));
    }
    Ok(outcomes.join(","))
}

fn pinned(id: &str) -> Scenario {
    static SUITE: OnceLock<Vec<MacroScenario>> = OnceLock::new();
    SUITE
        .get_or_init(macro_suite)
        .iter()
        .find(|m| m.id == id)
        .unwrap_or_else(|| panic!("`{id}` is not in the pinned macro suite"))
        .scenario
        .clone()
}

fn tag(rng: &mut FuzzRng) -> String {
    format!("{:08x}", rng.next_u64() as u32)
}

/// A pinned scenario with stamped outcome `expect` under seeded preserving
/// mutations that leave the amount of work unchanged and a seed-derived
/// system name, so its outcome is known by construction.
fn seeded(id: &str, expect: &str, rng: &mut FuzzRng) -> Scenario {
    let mut sc = pinned(id);
    preserve(&mut sc, expect, rng);
    sc.name = format!("{id}_{}", tag(rng));
    sc
}

/// Renames a register and, when the search is exhaustive (`empty`), also
/// rotates the rules. Rule order decides which witness a `nonempty` search
/// meets first, and with it the certification work: it moved
/// `order_deep`'s time to verdict by 40% on some seeds.
fn preserve(sc: &mut Scenario, expect: &str, rng: &mut FuzzRng) {
    let rotation = rng.next_u64() as usize;
    let register = rng.next_u64() as usize;
    let mut mutations = vec![Mutation::RegisterRename { register }];
    if expect == "empty" {
        mutations.push(Mutation::RuleReorder { rotation });
    }
    for m in mutations {
        if let Some(next) = m.apply(sc) {
            *sc = next;
        }
    }
}

/// Writes the workload's spec files and `manifest.txt` into `dir`, with
/// outcomes read from the stamped specs in `stamps`.
pub fn generate(
    workload: &str,
    seed: u64,
    seconds: f64,
    dir: &Path,
    stamps: &Path,
) -> Result<(), String> {
    let mut rng = FuzzRng::new(seed);
    let mut manifest = String::new();
    let mut write = |file: &str, text: String| {
        std::fs::write(dir.join(file), text).map_err(|e| format!("{file}: {e}"))
    };
    let verify_ids: &[&str] = match workload {
        "amalgam-search" => &AMALGAM_SEARCH,
        "witness-certify" => &WITNESS_CERTIFY,
        "serve-mixed" => &[],
        other => return Err(format!("unknown workload `{other}`")),
    };
    for id in verify_ids {
        let file = format!("{id}.dds");
        let want = stamped(stamps, id)?;
        write(
            &file,
            seeded(id, &want, &mut rng).render_with_expect(Some(&want)),
        )?;
        let _ = writeln!(manifest, "verify {id} {file} {want}");
    }
    if workload == "amalgam-search" {
        for id in EQUIV_PAIRS {
            let want = stamped(stamps, id)?;
            let a = seeded(id, &want, &mut rng);
            let mut b = a.clone();
            preserve(&mut b, &want, &mut rng);
            b.name = format!("{}_mutant", a.name);
            let (fa, fb) = (format!("{id}-a.dds"), format!("{id}-b.dds"));
            write(&fa, a.render())?;
            write(&fb, b.render())?;
            let _ = writeln!(manifest, "equiv {id}-pair {fa} {fb}");
        }
    }
    if workload == "serve-mixed" {
        serve_mix(&mut rng, seconds, stamps, &mut manifest, &mut write)?;
    }
    write("manifest.txt", manifest)
}

/// serve-mixed: a hot set that repeats (cache hits), seed-renamed
/// first-seen specs (engine runs) and a few malformed specs (422s), in
/// exact shares and a seeded order. The open loop sends one request every
/// `1 / RATE` s; each burst sends `BURST` requests of the same mix at once.
fn serve_mix(
    rng: &mut FuzzRng,
    seconds: f64,
    stamps: &Path,
    manifest: &mut String,
    write: &mut impl FnMut(&str, String) -> Result<(), String>,
) -> Result<(), String> {
    let _ = writeln!(manifest, "threads {SERVE_THREADS}");
    let mut hot = Vec::new();
    for id in WITNESS_CERTIFY {
        let name = format!("hot-{id}");
        let want = stamped(stamps, id)?;
        write(&format!("{name}.dds"), seeded(id, &want, rng).render())?;
        let _ = writeln!(manifest, "hot {name} {name}.dds {want}");
        hot.push(name);
    }
    let mut bad = Vec::new();
    for (k, id) in ["order_deep", "hom_chain_k5"].iter().enumerate() {
        let name = format!("bad-{k}");
        // A rule out of an undeclared state: the spec parses but does not
        // lower, which the daemon answers with a 422 spec error.
        let text = format!(
            "{}rule nowhere -> acc: x_old = x_new\n",
            pinned(id).render()
        );
        write(&format!("{name}.dds"), text)?;
        let _ = writeln!(manifest, "bad {name} {name}.dds");
        bad.push(name);
    }
    // Each first-seen request is its base spec under a fresh system name,
    // applied when the manifest is read.
    let mut cold_expect = HashMap::new();
    for id in COLD_BASES {
        write(&format!("cold-{id}.dds"), pinned(id).render())?;
        cold_expect.insert(id, stamped(stamps, id)?);
    }
    let run_tag = tag(rng);
    let open_n = MIN_REQUESTS.max((RATE * seconds * OPEN_SHARE) as usize);
    let open_s = open_n as f64 / RATE;
    let mut turns = [0usize; 3];
    let mut cold_k = 0;
    let phases = std::iter::once(open_n).chain([BURST; BURSTS]);
    for (phase, n) in phases.enumerate() {
        let (n_bad, n_cold) = (n * BAD_PCT / 100, n * COLD_PCT / 100);
        // 0 = malformed, 1 = first-seen, 2 = hot; shuffled (Fisher-Yates).
        let mut classes: Vec<u8> = (0..n)
            .map(|k| u8::from(k >= n_bad) + u8::from(k >= n_bad + n_cold))
            .collect();
        for i in (1..n).rev() {
            classes.swap(i, rng.below(i + 1));
        }
        if phase > 0 {
            // A burst releases its engine runs first, so its wall time is
            // the daemon's work spread over its workers, not the luck of
            // which worker draws an engine run last.
            classes.sort_by_key(|&c| c != 1);
        }
        for (k, class) in classes.into_iter().enumerate() {
            let turn = turns[class as usize];
            turns[class as usize] += 1;
            let id = match class {
                0 => bad[turn % bad.len()].clone(),
                1 => {
                    let base = COLD_BASES[turn % COLD_BASES.len()];
                    let name = format!("cold-{base}-{cold_k}");
                    let _ = writeln!(
                        manifest,
                        "cold {name} cold-{base}.dds {} {base}_{run_tag}_{cold_k}",
                        cold_expect[base]
                    );
                    cold_k += 1;
                    name
                }
                _ => hot[turn % hot.len()].clone(),
            };
            let due_us = if phase == 0 {
                ((k + 1) as f64 * open_s * 1e6 / n as f64) as u64
            } else {
                0
            };
            let _ = writeln!(manifest, "req {phase} {due_us} {id}");
        }
    }
    Ok(())
}

/// One entry of a parsed manifest.
#[derive(Clone, Debug)]
pub enum Entry {
    /// `verify`: spec text and stamped outcome.
    Verify {
        id: String,
        src: String,
        expect: String,
    },
    /// `equiv`: the two spec texts.
    Equiv { id: String, a: String, b: String },
    /// `hot` / `cold` / `bad` serve spec (`expect` is `spec-error` for bad).
    Serve {
        id: String,
        kind: String,
        src: String,
        expect: String,
    },
}

/// A parsed manifest: batch operations or serve specs, plus the serve
/// schedule (`(phase, due_us, index into entries)`).
#[derive(Debug, Default)]
pub struct Manifest {
    pub entries: Vec<Entry>,
    pub schedule: Vec<(u32, u64, usize)>,
    /// Engine threads per verification (`0` = auto, the CLI default).
    pub threads: usize,
}

impl Manifest {
    pub fn read(path: &Path) -> Result<Manifest, String> {
        let dir = path.parent().unwrap_or(Path::new("."));
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let load = |file: &str| {
            std::fs::read_to_string(dir.join(file)).map_err(|e| format!("{file}: {e}"))
        };
        let mut m = Manifest::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let entry = match f.as_slice() {
                ["verify", id, file, expect] => Entry::Verify {
                    id: id.to_string(),
                    src: load(file)?,
                    expect: expect.to_string(),
                },
                ["equiv", id, a, b] => Entry::Equiv {
                    id: id.to_string(),
                    a: load(a)?,
                    b: load(b)?,
                },
                ["hot", id, file, expect] => Entry::Serve {
                    id: id.to_string(),
                    kind: "hot".into(),
                    src: load(file)?,
                    expect: expect.to_string(),
                },
                ["cold", id, file, expect, system] => {
                    let text = load(file)?;
                    let body = text
                        .strip_prefix("system ")
                        .and_then(|t| t.split_once('\n'))
                        .ok_or_else(|| format!("{file}: no leading `system` line"))?
                        .1;
                    Entry::Serve {
                        id: id.to_string(),
                        kind: "cold".into(),
                        src: format!("system {system}\n{body}"),
                        expect: expect.to_string(),
                    }
                }
                ["bad", id, file] => Entry::Serve {
                    id: id.to_string(),
                    kind: "bad".into(),
                    src: load(file)?,
                    expect: "spec-error".into(),
                },
                ["threads", n] => {
                    m.threads = n.parse().map_err(|_| format!("bad thread count: {line}"))?;
                    continue;
                }
                ["req", phase, due, id] => {
                    let phase: u32 = phase.parse().map_err(|_| format!("bad phase: {line}"))?;
                    let due: u64 = due.parse().map_err(|_| format!("bad due time: {line}"))?;
                    let idx = m
                        .entries
                        .iter()
                        .position(|e| e.id() == *id)
                        .ok_or_else(|| format!("request for unknown spec: {line}"))?;
                    m.schedule.push((phase, due, idx));
                    continue;
                }
                _ => return Err(format!("bad manifest line: {line}")),
            };
            m.entries.push(entry);
        }
        Ok(m)
    }
}

impl Entry {
    pub fn id(&self) -> &str {
        match self {
            Entry::Verify { id, .. } | Entry::Equiv { id, .. } | Entry::Serve { id, .. } => id,
        }
    }
}
