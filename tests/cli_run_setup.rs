//! `rflash run-setup` honours `RFLASH_HPAGE_TYPE`.
//!
//! The CLI used to hard-wire `Policy::None`, so the paper's with/without-HP
//! pair could not be run from the command line. These tests drive the real
//! binary under each policy and check that the summary reports the resolved
//! policy and the kernel-verified huge fraction, that the state digest is
//! the committed golden one whatever backs `unk`, and that a bad value is a
//! typed CLI error naming the variable.

use std::process::{Command, Output};

use rflash::core::registry::load_golden;
use rflash::hugepages::POLICY_ENV_VAR;

fn run_setup(policy: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rflash"));
    cmd.args(["run-setup", "sedov"]).env_remove(POLICY_ENV_VAR);
    if let Some(p) = policy {
        cmd.env(POLICY_ENV_VAR, p);
    }
    cmd.output().expect("rflash binary runs")
}

fn golden_digest_line() -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let golden = load_golden(&dir, "sedov").expect("golden record must exist");
    format!("digest {}", golden.digest)
}

/// The percentage printed before "% huge-backed" on the `built:` line.
fn huge_percent(stdout: &str) -> f64 {
    let line = stdout
        .lines()
        .find(|l| l.contains("huge-backed"))
        .unwrap_or_else(|| panic!("no backing summary in:\n{stdout}"));
    let head = line.split("% huge-backed").next().unwrap();
    let number = head.rsplit('(').next().unwrap();
    number
        .parse()
        .unwrap_or_else(|e| panic!("bad percentage `{number}` in `{line}`: {e}"))
}

#[test]
fn policy_comes_from_the_environment_and_never_moves_the_digest() {
    let want = golden_digest_line();
    for (env, resolved) in [
        (Some("none"), "none"),
        (Some("thp"), "thp"),
        // Unset: the library default, huge pages on (the Fujitsu runtime's
        // behaviour the paper describes).
        (None, "thp"),
    ] {
        let out = run_setup(env);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{env:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains(&format!("hpage={resolved}")),
            "{env:?}:\n{stdout}"
        );
        assert!(
            stdout.contains(&format!("under {resolved} (")),
            "{env:?}:\n{stdout}"
        );
        assert!(
            stdout.contains(&want),
            "{env:?}: wanted `{want}` in:\n{stdout}"
        );
        let pct = huge_percent(&stdout);
        assert!((0.0..=100.0).contains(&pct), "{env:?}: {pct}");
        if resolved == "none" {
            assert_eq!(pct, 0.0, "base pages only:\n{stdout}");
        }
    }
}

#[test]
fn bad_policy_value_is_a_cli_error_naming_the_variable() {
    let out = run_setup(Some("sometimes"));
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(POLICY_ENV_VAR), "{stderr}");
    assert!(stderr.contains("sometimes"), "{stderr}");
}
