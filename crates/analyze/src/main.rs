//! CLI driver: `cargo run -p rflash-analyze -- <command>`.
//!
//! Commands:
//!   check [--root DIR]            run all rules over the workspace; exit 1
//!                                 on any violation
//!   check --json                  emit findings as a JSON array on stdout
//!                                 (exit codes unchanged)
//!   check --fixture FILE...       run the rules over standalone fixture
//!                                 files (honors their `//@ path:` header)
//!   inventory [--root DIR]        write unsafe_inventory.json at the root
//!   inventory --check             exit 1 if the committed inventory is
//!                                 stale (CI uses this)
//!   inventory --stdout            print the inventory instead of writing

use std::path::PathBuf;
use std::process::ExitCode;

use rflash_analyze as analyze;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("check") => cmd_check(&args[1..]),
        Some("inventory") => cmd_inventory(&args[1..]),
        Some(other) => usage(&format!("unknown command '{other}'")),
        None => usage("missing command"),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("rflash-analyze: {err}");
    eprintln!("usage: rflash-analyze check [--root DIR] [--json] | check --fixture FILE...");
    eprintln!("       rflash-analyze inventory [--root DIR] [--check | --stdout]");
    ExitCode::from(2)
}

fn resolve_root(explicit: Option<PathBuf>) -> Result<PathBuf, ExitCode> {
    if let Some(r) = explicit {
        return Ok(r);
    }
    let cwd = std::env::current_dir().map_err(|e| {
        eprintln!("rflash-analyze: cannot read cwd: {e}");
        ExitCode::from(2)
    })?;
    analyze::find_workspace_root(&cwd).ok_or_else(|| {
        eprintln!(
            "rflash-analyze: no [workspace] Cargo.toml above {}",
            cwd.display()
        );
        ExitCode::from(2)
    })
}

fn cmd_check(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut fixtures: Vec<PathBuf> = Vec::new();
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage("--root needs a directory"),
            },
            "--json" => json = true,
            "--fixture" => {
                fixtures.extend(it.by_ref().map(PathBuf::from));
            }
            other => return usage(&format!("unknown check flag '{other}'")),
        }
    }

    let violations = if fixtures.is_empty() {
        let root = match resolve_root(root) {
            Ok(r) => r,
            Err(code) => return code,
        };
        match analyze::check_workspace(&root) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("rflash-analyze: walking workspace failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let mut all = Vec::new();
        for f in &fixtures {
            match analyze::check_fixture(f) {
                Ok(v) => all.extend(v),
                Err(e) => {
                    eprintln!("rflash-analyze: reading {}: {e}", f.display());
                    return ExitCode::from(2);
                }
            }
        }
        all
    };

    if json {
        println!("{}", findings_json(&violations));
    } else {
        for v in &violations {
            println!("{v}");
        }
    }
    if violations.is_empty() {
        eprintln!("rflash-analyze: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("rflash-analyze: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Findings as a JSON array — one object per violation, stable field order
/// (`file`, `line`, `rule`, `message`) so CI diffs are meaningful. Built by
/// hand: the analyzer deliberately has no serde dependency.
fn findings_json(violations: &[analyze::Violation]) -> String {
    let mut out = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_string(&v.rel),
            v.line,
            json_string(v.rule),
            json_string(&v.msg)
        ));
    }
    if !violations.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cmd_inventory(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut check = false;
    let mut stdout = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage("--root needs a directory"),
            },
            "--check" => check = true,
            "--stdout" => stdout = true,
            other => return usage(&format!("unknown inventory flag '{other}'")),
        }
    }
    let root = match resolve_root(root) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let inv = match analyze::build_inventory(&root) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("rflash-analyze: building inventory failed: {e}");
            return ExitCode::from(2);
        }
    };
    let json = inv.to_json();
    let target = root.join(analyze::INVENTORY_FILE);

    if stdout {
        print!("{json}");
        return ExitCode::SUCCESS;
    }
    if check {
        return match std::fs::read_to_string(&target) {
            Ok(committed) if committed == json => {
                eprintln!(
                    "rflash-analyze: inventory up to date ({} sites, {} with SAFETY)",
                    inv.total(),
                    inv.with_safety()
                );
                ExitCode::SUCCESS
            }
            Ok(_) => {
                eprintln!(
                    "rflash-analyze: {} is stale; regenerate with \
                     `cargo run -p rflash-analyze -- inventory`",
                    target.display()
                );
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("rflash-analyze: reading {}: {e}", target.display());
                ExitCode::FAILURE
            }
        };
    }
    match std::fs::write(&target, &json) {
        Ok(()) => {
            eprintln!(
                "rflash-analyze: wrote {} ({} sites, {} with SAFETY)",
                target.display(),
                inv.total(),
                inv.with_safety()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rflash-analyze: writing {}: {e}", target.display());
            ExitCode::from(2)
        }
    }
}
