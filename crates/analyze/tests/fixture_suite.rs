//! Fixture-driven end-to-end tests for the analyzer.
//!
//! Every file under `tests/fixtures/fail/` must produce exactly the rule set
//! registered here; every file under `tests/fixtures/pass/` must check
//! clean; and the real workspace must itself pass with a fresh inventory
//! matching the committed baseline. The CLI is exercised through
//! `CARGO_BIN_EXE` so the exit codes CI depends on are pinned by tests.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use rflash_analyze::{build_inventory, check_fixture, check_workspace, find_workspace_root};

/// Expected rule ids per fail fixture. A fixture on disk that is missing
/// from this table fails `every_fail_fixture_is_registered`.
const EXPECTED: &[(&str, &[&str])] = &[
    ("allow_bad_syntax.rs", &["allow_syntax", "panic"]),
    ("allow_unused.rs", &["unused_allow"]),
    ("guardian_abort_panics.rs", &["panic"]),
    ("hot_path_todo.rs", &["panic"]),
    ("hot_path_unwrap.rs", &["panic"]),
    ("no_caller_test_only.rs", &["no_caller"]),
    ("no_caller_reexport_only.rs", &["no_caller"]),
    ("pencil_cell_access.rs", &["pencil_confinement"]),
    ("send_sync_unnamed.rs", &["send_sync"]),
    ("simd_intrinsic_leak.rs", &["simd_confinement"]),
    ("stepgraph_raw_slab.rs", &["graph_confinement"]),
    ("stray_mmap.rs", &["alloc_confinement"]),
    ("unsafe_missing_safety.rs", &["safety_comment"]),
];

fn fixtures(sub: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(sub);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures under {}", dir.display());
    files
}

fn file_name(p: &Path) -> &str {
    p.file_name().and_then(|n| n.to_str()).expect("utf-8 name")
}

#[test]
fn every_fail_fixture_trips_exactly_its_rules() {
    for path in fixtures("fail") {
        let name = file_name(&path);
        let expected: BTreeSet<&str> = EXPECTED
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("fixture {name} not registered in EXPECTED"))
            .1
            .iter()
            .copied()
            .collect();
        let violations = check_fixture(&path).expect("fixture readable");
        assert!(
            !violations.is_empty(),
            "{name}: expected violations, got none"
        );
        let got: BTreeSet<&str> = violations.iter().map(|v| v.rule).collect();
        assert_eq!(got, expected, "{name}: wrong rule set — {violations:?}");
    }
}

#[test]
fn every_fail_fixture_is_registered() {
    let on_disk: BTreeSet<String> = fixtures("fail")
        .iter()
        .map(|p| file_name(p).to_string())
        .collect();
    let registered: BTreeSet<String> = EXPECTED.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(on_disk, registered);
}

#[test]
fn every_pass_fixture_is_clean() {
    for path in fixtures("pass") {
        let violations = check_fixture(&path).expect("fixture readable");
        assert!(
            violations.is_empty(),
            "{}: expected clean, got {violations:?}",
            file_name(&path)
        );
    }
}

#[test]
fn real_workspace_passes_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let violations = check_workspace(&root).expect("workspace walk");
    assert!(
        violations.is_empty(),
        "workspace is not clean: {violations:#?}"
    );
}

#[test]
fn committed_inventory_matches_fresh_build() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let committed = std::fs::read_to_string(root.join(rflash_analyze::INVENTORY_FILE))
        .expect("committed unsafe_inventory.json at workspace root — regenerate with `cargo run -p rflash-analyze -- inventory`");
    let fresh = build_inventory(&root).expect("inventory build").to_json();
    assert_eq!(
        committed, fresh,
        "unsafe_inventory.json is stale — regenerate with `cargo run -p rflash-analyze -- inventory`"
    );
}

// ---- CLI exit codes (what CI scripts against) --------------------------

fn run_cli(args: &[&str]) -> i32 {
    run_cli_output(args).0
}

fn run_cli_output(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rflash-analyze"))
        .args(args)
        .output()
        .expect("spawn rflash-analyze");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

#[test]
fn cli_check_is_zero_on_workspace_and_pass_fixtures() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    assert_eq!(
        run_cli(&["check", "--root", root.to_str().expect("utf-8 root")]),
        0
    );
    for path in fixtures("pass") {
        let p = path.to_str().expect("utf-8 path");
        assert_eq!(run_cli(&["check", "--fixture", p]), 0, "{p}");
    }
}

#[test]
fn cli_check_is_nonzero_on_each_fail_fixture() {
    for path in fixtures("fail") {
        let p = path.to_str().expect("utf-8 path");
        assert_eq!(run_cli(&["check", "--fixture", p]), 1, "{p}");
    }
}

#[test]
fn cli_check_json_keeps_exit_codes_and_emits_parseable_findings() {
    // Clean run: exit 0 and an empty JSON array.
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let (code, stdout) = run_cli_output(&[
        "check",
        "--json",
        "--root",
        root.to_str().expect("utf-8 root"),
    ]);
    assert_eq!(code, 0);
    let parsed: serde_json::Value = serde_json::from_str(stdout.trim()).expect("valid JSON");
    assert_eq!(parsed.as_array().expect("array").len(), 0, "{stdout}");

    // Failing run: exit 1 (unchanged) and one object per violation with the
    // documented fields.
    for path in fixtures("fail") {
        let p = path.to_str().expect("utf-8 path");
        let (code, stdout) = run_cli_output(&["check", "--json", "--fixture", p]);
        assert_eq!(code, 1, "{p}");
        let parsed: serde_json::Value = serde_json::from_str(stdout.trim())
            .unwrap_or_else(|e| panic!("{p}: invalid JSON ({e}): {stdout}"));
        let arr = parsed.as_array().expect("array");
        assert!(!arr.is_empty(), "{p}: expected findings in {stdout}");
        for f in arr {
            for field in ["file", "line", "rule", "message"] {
                assert!(
                    f.get(field).is_some(),
                    "{p}: finding missing '{field}': {f:?}"
                );
            }
        }
    }
}

#[test]
fn cli_inventory_check_accepts_committed_baseline() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let root = root.to_str().expect("utf-8 root");
    assert_eq!(run_cli(&["inventory", "--root", root, "--check"]), 0);
}
