//! `rock-lint` — static concurrency analysis for the Rock workspace.
//!
//! The chase, scheduler, and caches are all concurrent; PRs touching them
//! are one forgotten rank away from a deadlock and one Relaxed load away
//! from a stale read. This crate walks the workspace sources and enforces
//! the concurrency contract mechanically:
//!
//! | code | rule | severity |
//! |------|------|----------|
//! | L001 | raw `std::sync` primitive outside the `rock_crystal::sync` shim | error |
//! | L002 | nested lock acquisition violating the static `LockRank` order | error |
//! | L003 | `Ordering::SeqCst` without a `lint:allow(L003) <reason>` justification | warning |
//! | L004 | atomic store/load ordering mismatch on the same field | warning |
//! | L005 | blocking file I/O inside a scheduler work closure | warning |
//! | L006 | `.lock().unwrap()` poison propagation outside tests | warning |
//!
//! Any code can be suppressed at a site with a justified
//! `lint:allow(LXXX) <reason>` comment — the reason is mandatory.
//!
//! The crate is dependency-free on purpose: it gates the rest of the
//! workspace in CI, so it must build before everything else. Diagnostics
//! follow the `rock-analyze` idiom (typed codes, spans, severities that
//! map to exit codes 0/1/2, human + JSON output).
//!
//! Recall and precision are pinned by the seeded defect fixtures under
//! `fixtures/lint_defects/`: every `//~ LXXX` marker must be hit on its
//! exact line (100% recall) and nothing else may fire (zero false
//! positives) — [`check_fixtures`] is the self-check CI runs.

pub mod diag;
pub mod lints;
pub mod tokens;

pub use diag::{max_severity, to_json, Diagnostic, LintCode, Severity, Span};
pub use lints::{harvest_ranks, lint_file, RankTable};

use std::path::{Path, PathBuf};

/// Files the lints skip (the shim and the model checker are where the raw
/// primitives are *supposed* to live). Matched as path suffixes.
const SHIM_FILES: [&str; 2] = ["crystal/src/sync.rs", "crystal/src/model.rs"];

/// Directory names never descended into.
const SKIP_DIRS: [&str; 8] = [
    // `benchmark/shims`: stand-ins for registry crates, i.e. third-party
    // surface, which is where raw primitives live by definition.
    "shims",
    "target",
    ".git",
    "tests",
    "benches",
    "examples",
    "fixtures",
    "node_modules",
];

fn is_shim(path: &str) -> bool {
    let norm = path.replace('\\', "/");
    SHIM_FILES.iter().any(|s| norm.ends_with(s))
}

/// Collect `.rs` files under `root`, skipping [`SKIP_DIRS`], sorted for
/// deterministic output.
pub fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn rel_key(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint every source under `root` (a workspace or any directory).
/// Shim files contribute to the rank harvest but are not themselves
/// linted. Returns diagnostics sorted by (file, line, col).
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let paths = collect_sources(root);
    let mut files = Vec::new();
    for p in &paths {
        let Ok(src) = std::fs::read_to_string(p) else {
            continue; // non-UTF8: nothing for a token linter to do
        };
        files.push((rel_key(root, p), src));
    }
    let tokenized: Vec<(String, tokens::TokenStream)> = files
        .iter()
        .map(|(k, src)| (k.clone(), tokens::tokenize(src)))
        .collect();
    let ranks = harvest_ranks(&tokenized);
    let mut diags = Vec::new();
    for (key, src) in &files {
        if is_shim(key) {
            continue;
        }
        diags.extend(lint_file(key, src, &ranks));
    }
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.span.line, a.span.start).cmp(&(
            b.file.as_str(),
            b.span.line,
            b.span.start,
        ))
    });
    Ok(diags)
}

/// Outcome of checking the seeded defect fixtures.
#[derive(Debug, Default)]
pub struct FixtureReport {
    /// Markers that fired on their exact line (code, file, line).
    pub matched: Vec<(LintCode, String, u32)>,
    /// Markers no diagnostic hit — recall failures.
    pub missed: Vec<(LintCode, String, u32)>,
    /// Diagnostics with no marker — precision failures (false positives).
    pub unexpected: Vec<Diagnostic>,
}

impl FixtureReport {
    pub fn ok(&self) -> bool {
        self.missed.is_empty() && self.unexpected.is_empty() && !self.matched.is_empty()
    }
}

/// Check the seeded defect fixtures under `dir`: every `//~ LXXX` trailing
/// marker must produce a diagnostic of that code on that line, and no
/// diagnostic may fire on an unmarked site.
pub fn check_fixtures(dir: &Path) -> std::io::Result<FixtureReport> {
    let diags = lint_tree(dir)?;
    let mut expected: Vec<(LintCode, String, u32)> = Vec::new();
    for p in collect_sources(dir) {
        let Ok(src) = std::fs::read_to_string(&p) else {
            continue;
        };
        let key = rel_key(dir, &p);
        let ts = tokens::tokenize(&src);
        for c in &ts.comments {
            let Some(rest) = c.text.strip_prefix('~') else {
                continue;
            };
            for word in rest.split_whitespace() {
                if let Some(code) = LintCode::parse(word) {
                    expected.push((code, key.clone(), c.line));
                }
            }
        }
    }
    let mut report = FixtureReport::default();
    let mut unclaimed = diags;
    for (code, file, line) in expected {
        if let Some(pos) = unclaimed
            .iter()
            .position(|d| d.code == code && d.file == file && d.span.line == line)
        {
            unclaimed.remove(pos);
            report.matched.push((code, file, line));
        } else {
            report.missed.push((code, file, line));
        }
    }
    report.unexpected = unclaimed;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workspace root, assuming the canonical crates/lint location.
    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root")
    }

    #[test]
    fn workspace_is_clean() {
        let diags = lint_tree(&workspace_root()).expect("lint workspace");
        assert!(
            diags.is_empty(),
            "the workspace must carry zero concurrency lint violations:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn fixtures_have_full_recall_and_precision() {
        let dir = workspace_root().join("fixtures/lint_defects");
        let report = check_fixtures(&dir).expect("lint fixtures");
        assert!(
            report.ok(),
            "missed (recall): {:?}\nunexpected (precision): {}",
            report.missed,
            report
                .unexpected
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        // every code is represented at least once
        for code in LintCode::ALL {
            assert!(
                report.matched.iter().any(|(c, _, _)| *c == code),
                "fixture coverage gap: no seeded defect for {}",
                code.as_str()
            );
        }
    }

    #[test]
    fn shim_files_are_exempt() {
        assert!(is_shim("crates/crystal/src/sync.rs"));
        assert!(is_shim("crates/crystal/src/model.rs"));
        assert!(!is_shim("crates/data/src/column.rs"));
    }

    #[test]
    fn lint_tree_on_a_tempdir() {
        let dir = std::env::temp_dir().join(format!("rock-lint-test-{}", std::process::id()));
        let src_dir = dir.join("src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(src_dir.join("bad.rs"), "use std::sync::Mutex;\n").unwrap();
        let diags = lint_tree(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::L001);
        assert_eq!(diags[0].file, "src/bad.rs");
    }
}
