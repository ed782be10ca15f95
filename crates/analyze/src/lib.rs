//! `rflash-analyze` — workspace-local static analysis for the rflash tree.
//!
//! The paper this repo reproduces hinges on an invisible property: huge
//! pages engage only when large arrays flow through the right allocation
//! path, and regressions (a stray `mmap`, an allocator bypass) produce no
//! error — just silently slower runs. This crate makes those invariants
//! mechanical:
//!
//! 1. **unsafe-audit** (`safety_comment`) — every `unsafe` block/fn/impl
//!    carries a `SAFETY:` justification; the full surface is exported as
//!    `unsafe_inventory.json` so growth is diffed PR-over-PR.
//! 2. **allocation-path confinement** (`alloc_confinement`) — raw
//!    page-level syscalls and `libc` stay inside `crates/hugepages`, the
//!    one place the hugepage-aware allocator lives.
//! 3. **panic-freedom** (`panic`) — hot-path crates propagate errors
//!    instead of aborting a long simulation.
//! 4. **concurrency-surface audit** (`send_sync`) — manual
//!    `unsafe impl Send/Sync` must name the invariant they rely on.
//! 5. **pencil confinement** (`pencil_confinement`) — the pencil-batched
//!    SoA inner-loop modules (`hydro/src/pencil.rs`, `eos/src/batch.rs`)
//!    never touch unk cells one at a time: no `get`/`set`/`addr`/
//!    `slab_idx` identifiers outside test code; cell traffic flows through
//!    the `UnkGeom` gather/scatter helpers (`gather_slab`/`scatter_slab`,
//!    `gather_pencil`/`scatter_pencil`).
//! 6. **graph confinement** (`graph_confinement`) — step-graph task bodies
//!    (`core/src/stepgraph.rs`) reach slabs only through the
//!    race-audit claiming accessors, so every access lands in the
//!    declared-vs-actual ledger.
//! 7. **SIMD confinement** (`simd_confinement`) — architecture intrinsics
//!    (`_mm*`/`__m*`), `core::arch`/`std::arch` paths, and
//!    `#[target_feature]` wrappers stay inside `crates/simd`; kernel code
//!    vectorizes through the portable `Lane` abstraction, keeping the
//!    bit-identity contract and the unsafe surface in one reviewed place.
//! 8. **no caller** (`no_caller`) — a workspace rule: a `pub` item whose
//!    name appears nowhere but at its definition, in its own file's tests
//!    and in `use` declarations is API nothing takes; delete it or
//!    document why it stays.
//!
//! Per-site escape hatch: an `analyze::allow` comment — the rule id in
//! parentheses, then a colon and a mandatory reason — on or directly above
//! the offending line (full syntax in README.md). See `check_source` for
//! the programmatic entry point; `src/main.rs` provides the CLI used by CI.

pub mod inventory;
pub mod lexer;
pub mod rules;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use inventory::Inventory;
use rules::check_files;
pub use rules::{check_source, Violation};
use source::SourceFile;

/// Name of the committed inventory baseline at the workspace root.
pub const INVENTORY_FILE: &str = "unsafe_inventory.json";

/// Directories (relative to the workspace root) that hold first-party
/// sources. `vendor/` is deliberately absent: vendored stubs are not ours
/// to lint.
const SCAN_ROOTS: &[&str] = &["src", "tests", "examples", "benches", "crates"];

/// Directories searched for callers by the `no_caller` rule but not checked:
/// the benchmark harness is a package of its own that calls the product's
/// public API, and the analyzer has no say over its code.
const CALLER_ONLY_ROOTS: &[&str] = &["benchmark/src"];

/// Subtrees skipped during the walk: analyzer fixtures contain deliberate
/// violations, and build output is not source.
const SKIP_SUFFIXES: &[&str] = &["crates/analyze/tests/fixtures", "target"];

/// Find the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// All first-party `.rs` files under `root`, as (absolute, workspace-relative)
/// pairs, sorted by relative path for deterministic reports.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    files_under(root, SCAN_ROOTS)
}

fn files_under(root: &Path, tops: &[&str]) -> io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(PathBuf, String)>) -> io::Result<()> {
    let rel = dir
        .strip_prefix(root)
        .unwrap_or(dir)
        .to_string_lossy()
        .replace('\\', "/");
    if SKIP_SUFFIXES.iter().any(|s| rel.ends_with(s)) {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((path, rel));
        }
    }
    Ok(())
}

/// Run every rule over the workspace. Violations sort by (file, line).
pub fn check_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let files = parse_files(workspace_files(root)?)?;
    let readers = parse_files(files_under(root, CALLER_ONLY_ROOTS)?)?;
    let mut violations = check_files(&files, &readers);
    violations.sort_by(|a, b| (&a.rel, a.line, a.rule).cmp(&(&b.rel, b.line, b.rule)));
    Ok(violations)
}

fn parse_files(paths: Vec<(PathBuf, String)>) -> io::Result<Vec<SourceFile>> {
    paths
        .into_iter()
        .map(|(path, rel)| Ok(SourceFile::parse(&rel, &fs::read_to_string(&path)?)))
        .collect()
}

/// Build the unsafe inventory for the workspace.
pub fn build_inventory(root: &Path) -> io::Result<Inventory> {
    let mut inv = Inventory::default();
    for (path, rel) in workspace_files(root)? {
        let src = fs::read_to_string(&path)?;
        inv.add_file(&SourceFile::parse(&rel, &src));
    }
    inv.finish();
    Ok(inv)
}

/// Check a standalone fixture file. The workspace path the file pretends to
/// live at is taken from a leading `//@ path: <rel>` directive, defaulting
/// to `crates/fixture/src/lib.rs` (which is neither hot-path nor confined,
/// so path-dependent fixtures must carry the directive).
pub fn check_fixture(path: &Path) -> io::Result<Vec<Violation>> {
    let src = fs::read_to_string(path)?;
    let rel = fixture_pretend_path(&src).unwrap_or_else(|| "crates/fixture/src/lib.rs".to_string());
    Ok(check_source(&rel, &src))
}

/// Parse the `//@ path:` directive from a fixture header.
pub fn fixture_pretend_path(src: &str) -> Option<String> {
    for line in src.lines().take(5) {
        if let Some(rest) = line.trim().strip_prefix("//@ path:") {
            return Some(rest.trim().to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretend_path_directive_parses() {
        let src = "//@ path: crates/eos/src/fixture.rs\nfn f() {}\n";
        assert_eq!(
            fixture_pretend_path(src).as_deref(),
            Some("crates/eos/src/fixture.rs")
        );
        assert_eq!(fixture_pretend_path("fn f() {}\n"), None);
    }

    #[test]
    fn workspace_root_is_discoverable_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/analyze");
        assert!(root.join("crates/analyze").is_dir());
    }

    #[test]
    fn walker_skips_fixture_tree() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let files = workspace_files(&root).expect("walk");
        assert!(files.iter().all(|(_, rel)| !rel.contains("tests/fixtures")));
        assert!(files
            .iter()
            .any(|(_, rel)| rel == "crates/analyze/src/lib.rs"));
    }

    /// `no_caller` findings on a throwaway workspace where
    /// `crates/a/src/lib.rs` defines `pub fn probe` and `other` is one more file.
    fn no_caller_beside(tag: &str, other: (&str, &str)) -> usize {
        let root = std::env::temp_dir().join(format!("rflash-nc-{tag}-{}", std::process::id()));
        let def = ("crates/a/src/lib.rs", "pub fn probe() {}\n");
        for (rel, src) in [("Cargo.toml", "[workspace]\n"), def, other] {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            fs::write(&path, src).expect("write");
        }
        let found = check_workspace(&root).expect("walk");
        fs::remove_dir_all(&root).expect("cleanup");
        found.iter().filter(|v| v.rule == "no_caller").count()
    }

    #[test]
    fn no_caller_counts_another_crates_tests() {
        let test = ("crates/b/tests/t.rs", "#[test]\nfn t() { a::probe(); }\n");
        assert_eq!(no_caller_beside("tests", test), 0);
    }

    #[test]
    fn no_caller_counts_the_benchmark_harness() {
        let bench = ("benchmark/src/main.rs", "fn main() { a::probe(); }\n");
        assert_eq!(no_caller_beside("bench", bench), 0);
    }

    #[test]
    fn no_caller_ignores_doc_comment_mentions_elsewhere() {
        let doc = ("crates/b/src/lib.rs", "/// See [`a::probe`].\nfn f() {}\n");
        assert_eq!(no_caller_beside("doc", doc), 1);
    }
}
