//! Golden-file coverage for the `dds` CLI.
//!
//! Every `specs/*.dds` file is lowered and run (sequentially, default
//! options) and its rendered text and JSON outputs are diffed against the
//! checked-in snapshots under `tests/golden/`; every `specs/errors/*.dds`
//! file must fail to load with exactly the pinned diagnostic; every
//! `specs/equiv/` pair is run through `dds equiv` and its text/JSON
//! reports (or structured comparability errors) are pinned under
//! `tests/golden/equiv/`, plus `--bisim` reports for one equivalent and one
//! divergent pair as `<stem>.bisim.{txt,json}`. JSON snapshots are
//! normalized (`wall_ns` zeroed) so measurements never flap.
//!
//! Refresh after an intentional change with:
//!
//! ```text
//! DDS_UPDATE_GOLDEN=1 cargo test --test cli_golden
//! ```

use dds_cli::{load_spec, render, run_spec, EquivRequest, RunOptions};
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn updating() -> bool {
    std::env::var_os("DDS_UPDATE_GOLDEN").is_some()
}

/// Sorted `.dds` files under `dir` (non-recursive).
fn spec_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dds"))
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no .dds files in {}", dir.display());
    out
}

fn compare(golden: &Path, actual: &str, hint: &str) {
    if updating() {
        fs::create_dir_all(golden.parent().unwrap()).unwrap();
        fs::write(golden, actual).unwrap();
        return;
    }
    let want = fs::read_to_string(golden).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — run `DDS_UPDATE_GOLDEN=1 cargo test --test cli_golden`",
            golden.display()
        )
    });
    assert_eq!(
        actual,
        want,
        "{hint} drifted from {} — if intentional, refresh with \
         `DDS_UPDATE_GOLDEN=1 cargo test --test cli_golden`",
        golden.display()
    );
}

#[test]
fn spec_corpus_matches_text_and_json_snapshots() {
    let root = root();
    for path in spec_files(&root.join("specs")) {
        let stem = path.file_stem().unwrap().to_str().unwrap().to_owned();
        let label = format!("specs/{stem}.dds");
        let src = fs::read_to_string(&path).unwrap();
        let lowered = load_spec(&src).unwrap_or_else(|e| panic!("{}", e.with_path(&label)));
        let report = run_spec(&label, &lowered, &RunOptions::default());
        // Outcome drift (an expectation mismatch) fails even before the
        // snapshot diff, with the property named.
        for p in &report.properties {
            assert!(
                p.ok(),
                "{label}: property {} produced `{}`, expected `{}`",
                p.id,
                p.outcome,
                p.expect.as_deref().unwrap_or("(none)")
            );
        }
        let text = render::text(&report, false);
        compare(
            &root.join("tests/golden").join(format!("{stem}.txt")),
            &text,
            &label,
        );
        let json = render::normalize_wall_ns(&render::json(std::slice::from_ref(&report)));
        compare(
            &root.join("tests/golden").join(format!("{stem}.json")),
            &json,
            &label,
        );
    }
}

#[test]
fn error_specs_match_diagnostic_snapshots() {
    let root = root();
    for path in spec_files(&root.join("specs/errors")) {
        let stem = path.file_stem().unwrap().to_str().unwrap().to_owned();
        let label = format!("specs/errors/{stem}.dds");
        let src = fs::read_to_string(&path).unwrap();
        let err = load_spec(&src)
            .err()
            .unwrap_or_else(|| panic!("{label}: expected a load error, spec loaded fine"));
        let rendered = format!("{}\n", err.with_path(&label));
        compare(
            &root.join("tests/golden/errors").join(format!("{stem}.txt")),
            &rendered,
            &label,
        );
    }
}

#[test]
fn readme_quickstart_spec_verifies() {
    // The "Write your first spec" snippet in README.md must stay a valid,
    // green spec — this extracts it verbatim and runs it.
    let readme = fs::read_to_string(root().join("README.md")).unwrap();
    let section = readme
        .split("## Write your first spec")
        .nth(1)
        .expect("README has the quickstart section");
    let snippet = section
        .split("```text")
        .nth(1)
        .and_then(|s| s.split("```").next())
        .expect("quickstart section has a ```text block");
    let lowered =
        load_spec(snippet).unwrap_or_else(|e| panic!("README quickstart spec does not load: {e}"));
    let report = run_spec("README.md", &lowered, &RunOptions::default());
    assert!(report.ok(), "README quickstart spec fails: {report:?}");
    assert_eq!(report.properties[0].outcome, "nonempty");
}

/// The `specs/equiv/` pair stems (each `<stem>_a.dds`/`<stem>_b.dds` pair
/// contributes one stem).
fn equiv_pair_stems(root: &Path) -> Vec<String> {
    let stems: Vec<String> = spec_files(&root.join("specs/equiv"))
        .iter()
        .filter_map(|p| {
            p.file_stem()
                .unwrap()
                .to_str()
                .unwrap()
                .strip_suffix("_a")
                .map(str::to_owned)
        })
        .collect();
    assert!(!stems.is_empty(), "no pairs in specs/equiv");
    stems
}

#[test]
fn equiv_pair_corpus_matches_snapshots() {
    let root = root();
    for stem in equiv_pair_stems(&root) {
        let path_a = format!("specs/equiv/{stem}_a.dds");
        let path_b = format!("specs/equiv/{stem}_b.dds");
        let (text, json) =
            match EquivRequest::from_files(&path_a, &path_b).and_then(|req| req.run()) {
                Ok(report) => (
                    render::equiv_text(&report, false),
                    render::normalize_wall_ns(&render::equiv_json(&report)),
                ),
                // Comparability errors are part of the pinned surface too:
                // snapshot the CLI's diagnostic line and the structured
                // error document `--json` would emit.
                Err(e) => (
                    format!("error[{}]: {e}\n", e.code()),
                    render::error_json(e.code(), &e.to_string(), e.line()),
                ),
            };
        compare(
            &root.join("tests/golden/equiv").join(format!("{stem}.txt")),
            &text,
            &path_a,
        );
        compare(
            &root.join("tests/golden/equiv").join(format!("{stem}.json")),
            &json,
            &path_a,
        );
    }
}

/// Pairs pinned in stepwise (`--bisim`) mode too: one the stepwise check
/// proves equivalent, one it splits, so the bisim depth, explored count and
/// divergence trace are all snapshotted.
const BISIM_PAIRS: [&str; 2] = ["order_renamed", "order_relaxed_deadline"];

#[test]
fn equiv_bisim_pairs_match_snapshots() {
    let root = root();
    for stem in BISIM_PAIRS {
        let path_a = format!("specs/equiv/{stem}_a.dds");
        let path_b = format!("specs/equiv/{stem}_b.dds");
        let report = EquivRequest::from_files(&path_a, &path_b)
            .and_then(|req| req.bisim(true).run())
            .unwrap_or_else(|e| panic!("{path_a}: {e}"));
        let golden = root.join("tests/golden/equiv");
        compare(
            &golden.join(format!("{stem}.bisim.txt")),
            &render::equiv_text(&report, false),
            &path_a,
        );
        compare(
            &golden.join(format!("{stem}.bisim.json")),
            &render::normalize_wall_ns(&render::equiv_json(&report)),
            &path_a,
        );
    }
}

#[test]
fn golden_directory_has_no_orphans() {
    // Renaming a spec must not leave stale snapshots behind silently.
    let root = root();
    let stems: Vec<String> = spec_files(&root.join("specs"))
        .iter()
        .map(|p| p.file_stem().unwrap().to_str().unwrap().to_owned())
        .collect();
    for entry in fs::read_dir(root.join("tests/golden")).unwrap() {
        let p = entry.unwrap().path();
        if p.is_dir() {
            continue;
        }
        let stem = p.file_stem().unwrap().to_str().unwrap();
        assert!(
            stems.iter().any(|s| s == stem),
            "orphaned golden file {} (no specs/{stem}.dds)",
            p.display()
        );
    }
    let err_stems: Vec<String> = spec_files(&root.join("specs/errors"))
        .iter()
        .map(|p| p.file_stem().unwrap().to_str().unwrap().to_owned())
        .collect();
    for entry in fs::read_dir(root.join("tests/golden/errors")).unwrap() {
        let p = entry.unwrap().path();
        let stem = p.file_stem().unwrap().to_str().unwrap();
        assert!(
            err_stems.iter().any(|s| s == stem),
            "orphaned golden file {} (no specs/errors/{stem}.dds)",
            p.display()
        );
    }
    let pair_stems = equiv_pair_stems(&root);
    for entry in fs::read_dir(root.join("tests/golden/equiv")).unwrap() {
        let p = entry.unwrap().path();
        let stem = p.file_stem().unwrap().to_str().unwrap();
        let stem = match stem.strip_suffix(".bisim") {
            Some(pair) => {
                assert!(
                    BISIM_PAIRS.contains(&pair),
                    "orphaned golden file {} (not in BISIM_PAIRS)",
                    p.display()
                );
                pair
            }
            None => stem,
        };
        assert!(
            pair_stems.iter().any(|s| s == stem),
            "orphaned golden file {} (no specs/equiv/{stem}_a.dds pair)",
            p.display()
        );
    }
    // Every `_a` side must have its `_b` sibling (and nothing else may
    // live in the pair corpus).
    for p in spec_files(&root.join("specs/equiv")) {
        let name = p.file_stem().unwrap().to_str().unwrap();
        assert!(
            name.ends_with("_a") || name.ends_with("_b"),
            "{}: pair files must end in _a.dds or _b.dds",
            p.display()
        );
        let sibling = if let Some(s) = name.strip_suffix("_a") {
            format!("{s}_b")
        } else {
            format!("{}_a", name.strip_suffix("_b").unwrap())
        };
        assert!(
            p.with_file_name(format!("{sibling}.dds")).is_file(),
            "{}: missing pair sibling {sibling}.dds",
            p.display()
        );
    }
}
