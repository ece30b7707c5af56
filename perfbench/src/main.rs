//! Helper binary behind `perfbench/run.py`, the repository benchmark.
//!
//! ```text
//! perfbench gen   --workload W --seed N --seconds S --out DIR --stamps DIR
//! perfbench load  --addr HOST:PORT --manifest DIR/manifest.txt --conns N
//!                 [--until-ms T] [--bursts 0|1]
//! perfbench trace --manifest DIR/manifest.txt --seconds S --spans FILE
//! ```
//!
//! `gen` writes a workload's seeded specs and manifest (outcomes from the
//! stamped specs in `--stamps`, the repository's `bench/macro`), `load`
//! drives a running `dds serve` with serve-mixed's open loop and bursts
//! (`--until-ms` cuts the open loop short, `--bursts 0` skips the bursts),
//! and `trace` runs the
//! workload in-process with a span around each layer's public call. Each
//! exits 1 when a check fails and 2 on bad arguments or I/O errors.

mod load;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench gen --workload W --seed N --seconds S --out DIR --stamps DIR\n\
                     \x20      perfbench load --addr HOST:PORT --manifest FILE --conns N [--until-ms T] [--bursts 0|1]\n\
                     \x20      perfbench trace --manifest FILE --seconds S --spans FILE";

fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut out = HashMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                out.insert(&k[2..], v.as_str());
            }
            _ => return Err(format!("bad arguments: {pair:?}")),
        }
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(f: &HashMap<&str, &str>, key: &str) -> Result<T, String> {
    f.get(key)
        .ok_or_else(|| format!("missing --{key}"))?
        .parse()
        .map_err(|_| format!("bad value for --{key}"))
}

fn run(args: &[String]) -> Result<usize, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let f = flags(rest)?;
    match cmd.as_str() {
        "gen" => {
            let workload: String = get(&f, "workload")?;
            let out: String = get(&f, "out")?;
            let stamps: String = get(&f, "stamps")?;
            workload::generate(
                &workload,
                get(&f, "seed")?,
                get(&f, "seconds")?,
                Path::new(&out),
                Path::new(&stamps),
            )?;
            Ok(0)
        }
        "load" => {
            let addr: std::net::SocketAddr = get(&f, "addr")?;
            let m = workload::Manifest::read(Path::new(&get::<String>(&f, "manifest")?))?;
            let until_us = match f.get("until-ms") {
                Some(_) => get::<u64>(&f, "until-ms")? * 1000,
                None => u64::MAX,
            };
            let bursts = match f.get("bursts") {
                Some(_) => get::<u8>(&f, "bursts")? != 0,
                None => true,
            };
            load::run(&addr, &m, get(&f, "conns")?, until_us, bursts)
        }
        "trace" => {
            let m = workload::Manifest::read(Path::new(&get::<String>(&f, "manifest")?))?;
            trace::run(&m, get(&f, "seconds")?, &get::<String>(&f, "spans")?)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("perfbench: {failed} failed checks");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
