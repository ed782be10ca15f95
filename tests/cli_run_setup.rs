//! `rflash run-setup` honours `RFLASH_HPAGE_TYPE` and names the step path
//! it runs.
//!
//! The CLI used to hard-wire `Policy::None`, so the paper's with/without-HP
//! pair could not be run from the command line. These tests drive the real
//! binary under each policy and check that the summary reports the resolved
//! policy and the kernel-verified huge fraction, that `unk` is resident only
//! where blocks live (reserved vs. resident vs. huge-backed, the paper's
//! §III audit), that the state digest is the committed golden one whatever
//! backs `unk`, and that a bad value is a typed CLI error naming the
//! variable.

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

/// The number that ends just before `unit` on `line`.
fn number_before(line: &str, unit: &str) -> f64 {
    let head = line
        .split(unit)
        .next()
        .filter(|head| head.len() < line.len())
        .unwrap_or_else(|| panic!("no `{unit}` in `{line}`"));
    let number = head.rsplit([' ', '(']).next().unwrap();
    number
        .parse()
        .unwrap_or_else(|e| panic!("bad number `{number}` before `{unit}` in `{line}`: {e}"))
}

/// (reserved, resident, huge) MiB and the huge-backed percentage of the
/// `built:` / `exit:` line starting with `tag`.
fn backing(stdout: &str, tag: &str) -> (f64, f64, f64, f64) {
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with(tag))
        .unwrap_or_else(|| panic!("no `{tag}` line in:\n{stdout}"));
    (
        number_before(line, " MiB reserved"),
        number_before(line, " MiB resident"),
        number_before(line, " MiB huge "),
        number_before(line, "% huge-backed"),
    )
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
        for tag in ["built:", "exit:"] {
            let (reserved, resident, huge, pct) = backing(&stdout, tag);
            assert!((0.0..=100.0).contains(&pct), "{env:?}: {pct}");
            assert!(huge <= resident && resident > 0.0, "{env:?}:\n{stdout}");
            // The pool is a sparse reservation: smoke sedov's 64 leaves + 9
            // parents occupy a small corner of its 512 slots.
            assert!(
                resident < reserved / 4.0,
                "{env:?} {tag} {resident} MiB resident of {reserved} MiB reserved:\n{stdout}"
            );
            if resolved == "none" {
                assert_eq!((huge, pct), (0.0, 0.0), "base pages only:\n{stdout}");
            }
        }
        // The §III /proc/meminfo watch runs under a huge-page policy only.
        let watch = stdout.lines().find(|l| l.contains("AnonHugePages"));
        if resolved == "none" {
            assert!(watch.is_none(), "{env:?}:\n{stdout}");
        } else {
            let line = watch.unwrap_or_else(|| panic!("{env:?}: no meminfo watch in:\n{stdout}"));
            assert!(number_before(line, " samples") >= 1.0, "{line}");
            let (min, max) = (
                number_before(line, " MiB / max"),
                number_before(line, " MiB, peak"),
            );
            assert!(min <= max, "{line}");
        }
    }
}

#[test]
fn header_names_the_step_path_the_rank_count_picks() {
    // One rank runs the serial loop, more run the task graph; both reach
    // the golden digest.
    let want = golden_digest_line();
    for (nranks, path) in [("1", "nranks=1, serial,"), ("2", "nranks=2, task graph,")] {
        let out = Command::new(env!("CARGO_BIN_EXE_rflash"))
            .args(["run-setup", "sedov", "--nranks", nranks])
            .env(POLICY_ENV_VAR, "none")
            .output()
            .expect("rflash binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let header = stdout.lines().next().unwrap_or_default();
        assert!(
            header.contains(path),
            "--nranks {nranks}: `{path}` not in `{header}`"
        );
        assert!(stdout.contains(&want), "--nranks {nranks}:\n{stdout}");
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

#[test]
fn setup_line_splits_the_build_by_stage() {
    let out = run_setup(Some("none"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .map(str::trim_start)
        .find(|l| l.starts_with("setup:"))
        .unwrap_or_else(|| panic!("no `setup:` line in:\n{stdout}"));
    let stages: Vec<f64> = ["eos ", "ic_fill ", "refine ", "eos_pass "]
        .iter()
        .map(|stage| {
            let tail = line
                .split_once(stage)
                .unwrap_or_else(|| panic!("no `{stage}` stage in `{line}`"))
                .1;
            number_before(tail.split(',').next().unwrap(), " s")
        })
        .collect();
    let build = number_before(line, " s build");
    assert!(stages.iter().all(|&s| s >= 0.0), "{line}");
    // The IC fill has work on every run; the stages print to the
    // millisecond, so their sum may round past the build by 2 ms.
    assert!(stages[1] > 0.0, "{line}");
    let sum: f64 = stages.iter().sum();
    assert!(
        sum <= build + 0.002,
        "stages sum to {sum} s of a {build} s build: {line}"
    );
}

#[test]
fn table_line_counts_who_computed_the_helmholtz_rows() {
    let out = Command::new(env!("CARGO_BIN_EXE_rflash"))
        .args(["run-setup", "supernova"])
        .env(POLICY_ENV_VAR, "none")
        .output()
        .expect("rflash binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .map(str::trim_start)
        .find(|l| l.starts_with("table:"))
        .unwrap_or_else(|| panic!("no `table:` line in:\n{stdout}"));
    let at_setup = number_before(line, " of ");
    let n_temp = number_before(line, " rows at set-up");
    let in_loop = number_before(line, " on demand in the loop");
    let background = number_before(line, " by the background thread");
    assert!(n_temp > 0.0, "{line}");
    assert!(
        at_setup + in_loop + background <= n_temp,
        "more rows computed than the table has: {line}"
    );
}
