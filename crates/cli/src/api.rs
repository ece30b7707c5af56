//! The embeddable verification API: `VerifyRequest → VerifyReport`.
//!
//! Before this module existed the one-shot pipeline lived inside the CLI's
//! `main`: it read files, printed errors to stderr and called
//! `process::exit`. That entangled every other consumer — the fuzz
//! harness re-implemented loading, and a long-running server was
//! impossible. This module is the extracted, side-effect-free surface
//! shared by `dds verify`, `dds serve` and the bench/load harnesses:
//!
//! * **no stdout/stderr** — rendering is the caller's job
//!   ([`crate::render`]);
//! * **no `process::exit`** — every failure is a [`RunError`] value;
//! * **deterministic fingerprints** — [`VerifyReport::fingerprint`] is a
//!   content hash of the parsed spec (source lines included) and the
//!   outcome-relevant engine options, the key the `dds serve` result
//!   cache replays on;
//! * **two steps** — [`VerifyRequest::load`] is [`VerifyRequest::parse`]
//!   (which computes the fingerprint) followed by
//!   [`VerifyRequest::lower`]; `dds serve` answers a cache hit after the
//!   first step and lowers only on a miss.
//!
//! ```
//! use dds_cli::api::VerifyRequest;
//!
//! let req = VerifyRequest::new(
//!     "system s\n\
//!      schema {\n  relation E/2\n}\n\
//!      class free\n\
//!      registers x\n\
//!      states {\n  start init\n  acc\n}\n\
//!      rule start -> acc: E(x_old, x_new)\n\
//!      property reach {\n  accept acc\n}\n",
//! );
//! let report = req.verify().expect("valid spec");
//! assert_eq!(report.report.properties[0].outcome, "nonempty");
//! ```

use crate::ast::Spec;
use crate::lower::Lowered;
use crate::runner::{run_spec, RunOptions, SpecReport};
use crate::SpecError;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A structured failure from the library pipeline — the value-level
/// replacement for the stderr-and-exit paths the CLI used to hard-code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The spec failed to parse or lower; `label` is the caller-supplied
    /// source label (a path for file inputs).
    Spec {
        /// Source label the error is attributed to.
        label: String,
        /// The underlying diagnostic.
        error: SpecError,
    },
    /// Reading a spec file failed.
    Io {
        /// The path that could not be read.
        path: String,
        /// The I/O error message.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Spec { label, error } => write!(f, "{}", error.with_path(label)),
            RunError::Io { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for RunError {}

/// One verification request: a `.dds` source, a label for reports and
/// diagnostics, and engine tuning.
#[derive(Clone, Debug)]
pub struct VerifyRequest {
    /// Label reports and diagnostics attribute the source to (a file path
    /// for the CLI, a client-chosen name for the server).
    pub label: String,
    /// The `.dds` specification text.
    pub spec: String,
    /// Engine tuning (see [`RunOptions`]).
    pub options: RunOptions,
}

impl VerifyRequest {
    /// A request with the default label (`<request>`) and options.
    pub fn new(spec: impl Into<String>) -> VerifyRequest {
        VerifyRequest {
            label: "<request>".to_owned(),
            spec: spec.into(),
            options: RunOptions::default(),
        }
    }

    /// Sets the report label.
    pub fn label(mut self, label: impl Into<String>) -> VerifyRequest {
        self.label = label.into();
        self
    }

    /// Sets the engine tuning.
    pub fn options(mut self, options: RunOptions) -> VerifyRequest {
        self.options = options;
        self
    }

    /// Reads the spec from a file, using the path as the label.
    pub fn from_file(path: &str) -> Result<VerifyRequest, RunError> {
        let spec = std::fs::read_to_string(path).map_err(|e| RunError::Io {
            path: path.to_owned(),
            message: e.to_string(),
        })?;
        Ok(VerifyRequest::new(spec).label(path))
    }

    /// Parses the spec and computes its cache fingerprint, without
    /// lowering it: all `dds serve` needs to answer a cache hit.
    pub fn parse(&self) -> Result<Parsed, RunError> {
        let ast = crate::parse_spec(&self.spec).map_err(|error| self.spec_error(error))?;
        let fingerprint = fingerprint(&ast, &self.options);
        Ok(Parsed { ast, fingerprint })
    }

    /// Lowers a parsed spec into engine inputs.
    pub fn lower(&self, parsed: &Parsed) -> Result<Loaded, RunError> {
        let lowered = crate::lower::lower(&parsed.ast).map_err(|error| self.spec_error(error))?;
        Ok(Loaded {
            lowered,
            fingerprint: parsed.fingerprint,
        })
    }

    /// Parses and lowers the spec without running it (`dds check`):
    /// [`VerifyRequest::parse`], then [`VerifyRequest::lower`].
    pub fn load(&self) -> Result<Loaded, RunError> {
        self.lower(&self.parse()?)
    }

    fn spec_error(&self, error: SpecError) -> RunError {
        RunError::Spec {
            label: self.label.clone(),
            error,
        }
    }

    /// Parses, lowers and runs every property: the whole pipeline as one
    /// pure-ish call (the engine allocates and spawns workers, but nothing
    /// escapes: no I/O, no printing, no exiting).
    pub fn verify(&self) -> Result<VerifyReport, RunError> {
        let loaded = self.load()?;
        Ok(self.run_loaded(&loaded))
    }

    /// Runs an already-loaded spec (the server's cache-miss path, where
    /// parsing happened earlier to compute the fingerprint).
    pub fn run_loaded(&self, loaded: &Loaded) -> VerifyReport {
        VerifyReport {
            report: run_spec(&self.label, &loaded.lowered, &self.options),
            fingerprint: loaded.fingerprint,
        }
    }
}

/// A parsed spec together with the fingerprint its results are cacheable
/// under.
#[derive(Debug)]
pub struct Parsed {
    /// The parsed AST.
    pub ast: Spec,
    /// See [`fingerprint`].
    pub fingerprint: u128,
}

/// A parsed-and-lowered spec together with the fingerprint its results
/// are cacheable under.
#[derive(Debug)]
pub struct Loaded {
    /// The lowered system(s), ready for [`run_spec`].
    pub lowered: Lowered,
    /// See [`fingerprint`].
    pub fingerprint: u128,
}

/// A completed verification: the per-property report plus the content
/// fingerprint it is cacheable under.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// The spec report ([`crate::render`] turns it into text or JSON).
    pub report: SpecReport,
    /// Content hash of the parsed spec and outcome-relevant options —
    /// equal fingerprints guarantee equal reports (up to the label and
    /// wall-clock timings).
    pub fingerprint: u128,
}

/// Content hash of a parsed spec under the outcome-relevant options.
///
/// The key covers the whole AST — the class, schema, registers, states,
/// rules and every property (guards, tasks, expectations), each with its
/// source line — plus the options that can change a report:
/// `max_configs` (decides `resource-limit`) and `concretize` (decides
/// witness fields). It deliberately excludes `threads` and `chunk_size` —
/// the engine is bit-deterministic across worker counts (pinned by
/// `tests/determinism.rs`), so those must not split the cache.
///
/// Because source lines are part of the AST, two specs share a key only
/// if every declaration sits on the same line. Indentation, the spacing
/// between a declaration's words and trailing comments are absorbed;
/// guard text is kept verbatim, and an added or removed line (a leading
/// comment, a blank line) changes the key.
///
/// The hash input is the *AST*, not the lowered system: the AST is plain
/// `Vec`s in source order, whereas lowered systems hold `HashMap`-backed
/// schemas whose iteration order varies per instance (and would silently
/// split the cache between identical requests). The AST's derived `Hash`
/// feeds a `Fingerprinter`, whose arithmetic is defined in this file, so
/// the key is the same in every process; the `fingerprint_is_pinned`
/// test catches a toolchain whose derive feeds it differently (the
/// persisted `dds serve` cache header must then change too).
pub fn fingerprint(spec: &Spec, options: &RunOptions) -> u128 {
    let mut h = Fingerprinter(0x6c62_272e_07bb_0142_cbf2_9ce4_8422_2325);
    (spec, options.max_configs, options.concretize).hash(&mut h);
    h.0
}

/// A word-at-a-time 128-bit hasher with a fixed definition (unlike
/// `DefaultHasher`, whose algorithm may change between Rust releases).
/// Each word is xored into the state, which is then multiplied by an odd
/// constant and xor-folded (`h ^ h >> 64`): every step is a bijection of
/// the state, and the fold carries high bits back down. Integers of every
/// width enter as one `u64` word; byte strings enter as zero-padded
/// little-endian words followed by their length, so adjacent strings
/// cannot run into each other.
struct Fingerprinter(u128);

impl Fingerprinter {
    /// PCG's 128-bit LCG multiplier (odd).
    const MUL: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

    fn word(&mut self, w: u64) {
        let h = (self.0 ^ w as u128).wrapping_mul(Self::MUL);
        self.0 = h ^ (h >> 64);
    }
}

impl Hasher for Fingerprinter {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(w));
        }
        self.word(bytes.len() as u64);
    }

    fn write_u8(&mut self, n: u8) {
        self.word(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.word(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.word(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.word(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0 as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "system demo\n\
        schema {\n  relation E/2\n}\n\
        class free\n\
        registers x\n\
        states {\n  start init\n  acc\n}\n\
        rule start -> acc: E(x_old, x_new)\n\
        property reach {\n  accept acc\n  expect nonempty\n}\n";

    #[test]
    fn verify_runs_end_to_end_without_io() {
        let report = VerifyRequest::new(SPEC).label("demo.dds").verify().unwrap();
        assert!(report.report.ok());
        assert_eq!(report.report.path, "demo.dds");
        assert_eq!(report.report.properties[0].outcome, "nonempty");
    }

    #[test]
    fn spec_errors_are_values_not_exits() {
        let err = VerifyRequest::new("system broken\nclass free\n")
            .label("broken.dds")
            .verify()
            .unwrap_err();
        let RunError::Spec { label, error } = &err else {
            panic!("expected a spec error, got {err:?}");
        };
        assert_eq!(label, "broken.dds");
        assert!(!error.msg.is_empty());
        assert!(err.to_string().starts_with("broken.dds"));
    }

    #[test]
    fn missing_file_is_an_io_error_value() {
        let err = VerifyRequest::from_file("/nonexistent/x.dds").unwrap_err();
        assert!(matches!(err, RunError::Io { .. }));
    }

    #[test]
    fn fingerprint_is_stable_and_label_independent() {
        let a = VerifyRequest::new(SPEC).label("a.dds");
        let b = VerifyRequest::new(SPEC).label("b.dds");
        assert_eq!(
            a.load().unwrap().fingerprint,
            b.load().unwrap().fingerprint,
            "the label must not split the cache"
        );
    }

    #[test]
    fn fingerprint_is_stable_across_threads() {
        // Regression: keying on the *lowered* system hashed HashMap-backed
        // schemas, whose debug order varies per instance and thread — so a
        // server worker could recompute a different key for an identical
        // request and miss the cache. The AST key must not do that.
        let here = VerifyRequest::new(SPEC).load().unwrap().fingerprint;
        let there = std::thread::spawn(|| VerifyRequest::new(SPEC).load().unwrap().fingerprint)
            .join()
            .unwrap();
        assert_eq!(here, there, "identical requests must share a cache key");
    }

    #[test]
    fn fingerprint_tracks_outcome_relevant_options_only() {
        let req = VerifyRequest::new(SPEC);
        let ast = crate::parse_spec(SPEC).unwrap();
        let base = fingerprint(&ast, &req.options);
        let mut threads = req.options;
        threads.threads = 8;
        assert_eq!(
            base,
            fingerprint(&ast, &threads),
            "threads are outcome-neutral"
        );
        let mut budget = req.options;
        budget.max_configs = 7;
        assert_ne!(base, fingerprint(&ast, &budget));
        let mut certify = req.options;
        certify.concretize = false;
        assert_ne!(base, fingerprint(&ast, &certify));
    }

    #[test]
    fn fingerprint_is_pinned() {
        // The persisted `dds serve` cache is keyed by this value. If it
        // moves, the key changed: bump the cache file's format version.
        let fp = VerifyRequest::new(SPEC).parse().unwrap().fingerprint;
        assert_eq!(format!("{fp:032x}"), "7b86ed4293bc0f182d0185beaab68b49");
    }

    #[test]
    fn fingerprint_absorbs_same_line_layout_but_not_moved_lines() {
        let fp = |src: &str| VerifyRequest::new(src).parse().unwrap().fingerprint;
        let base = fp(SPEC);
        let relaid = SPEC
            .replace("registers x", "registers   x   # the only register")
            .replace("  relation E/2", "\trelation E/2 ")
            .replace("rule start -> acc:", "rule  start  ->  acc :  ");
        assert_ne!(relaid, SPEC);
        assert_eq!(
            fp(&relaid),
            base,
            "same-line layout and comments are absorbed"
        );
        assert_ne!(
            fp(&format!("# a leading comment\n{SPEC}")),
            base,
            "source lines are part of the key"
        );
        assert_ne!(
            fp(&SPEC.replace("E(x_old, x_new)", "E(x_old,x_new)")),
            base,
            "guard text is kept verbatim"
        );
    }

    #[test]
    fn parse_fingerprints_without_lowering() {
        // `accept` names an undeclared state: the spec parses, so it has a
        // fingerprint, and fails only when lowered.
        let req = VerifyRequest::new(SPEC.replace("accept acc", "accept nowhere"));
        let parsed = req.parse().expect("parses");
        let err = req.lower(&parsed).unwrap_err();
        assert!(err.to_string().contains("nowhere"), "{err}");
        let ok = VerifyRequest::new(SPEC);
        let parsed = ok.parse().unwrap();
        assert_eq!(ok.lower(&parsed).unwrap().fingerprint, parsed.fingerprint);
    }

    #[test]
    fn fingerprint_differs_across_specs() {
        let a = VerifyRequest::new(SPEC);
        let b = VerifyRequest::new(SPEC.replace("expect nonempty", "expect empty"));
        assert_ne!(a.load().unwrap().fingerprint, b.load().unwrap().fingerprint);
    }
}
