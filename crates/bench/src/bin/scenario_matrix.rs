//! Run every registered scenario across the full determinism matrix and
//! reconcile the digests against the committed golden corpus.
//!
//! Each scenario runs at smoke scale in both cells of `nranks ∈ {1, 4}`:
//! the serial step loop (the oracle) and the task graph over the rank
//! pool. The repo's determinism invariants say both cells must produce one
//! digest; this bin checks that first, then compares the digest against
//! `golden/<scenario>.ron`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rflash-bench --bin scenario_matrix            # verify
//! cargo run --release -p rflash-bench --bin scenario_matrix -- --bless # rewrite golden/
//! cargo run --release -p rflash-bench --bin scenario_matrix -- --golden-dir path/to/corpus
//! ```
//!
//! `--bless` only rewrites a record after the internal two-cell
//! consistency check passes — a matrix that disagrees with itself is a bug,
//! never a new golden.

use std::path::PathBuf;
use std::time::Instant;

use rflash_core::registry::{self, load_golden, store_golden, GoldenRecord, StateDigest};
use rflash_core::StepScheduler;
use rflash_hydro::SweepEngine;

fn main() {
    let mut bless = false;
    let mut golden_dir = PathBuf::from("golden");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bless" => bless = true,
            "--golden-dir" => {
                golden_dir =
                    PathBuf::from(args.next().expect("--golden-dir needs a path argument"));
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: scenario_matrix [--bless] [--golden-dir DIR]");
                std::process::exit(2);
            }
        }
    }

    let mut ok = true;

    for spec in registry::builtin() {
        let name = spec.name.clone();
        println!("== {name}: {}", spec.title);
        let mut reference: Option<StateDigest> = None;
        let mut consistent = true;

        for nranks in [1usize, 4] {
            let start = Instant::now();
            let sim =
                registry::run_smoke(&spec, nranks, SweepEngine::Pencil, StepScheduler::TaskGraph)
                    .unwrap_or_else(|e| panic!("{name}: smoke run failed: {e}"));
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let digest = StateDigest::of(&sim);
            println!("   nranks={nranks}: {digest} ({wall_ms:.0} ms)");
            match reference {
                None => reference = Some(digest),
                Some(r) if digest != r => {
                    consistent = false;
                    eprintln!("   !! matrix cell diverged from its sibling: nranks={nranks}");
                }
                Some(_) => {}
            }
        }

        let digest = reference.expect("at least one cell ran");
        if !consistent {
            ok = false;
        } else if bless {
            let record = GoldenRecord {
                scenario: name.clone(),
                steps: spec.smoke.steps,
                digest,
            };
            let path = store_golden(&golden_dir, &record)
                .unwrap_or_else(|e| panic!("{name}: bless failed: {e}"));
            println!("   blessed -> {}", path.display());
        } else {
            match load_golden(&golden_dir, &name) {
                Ok(golden) if golden.digest == digest && golden.steps == spec.smoke.steps => {
                    println!("   golden: match");
                }
                Ok(golden) => {
                    ok = false;
                    eprintln!(
                        "   !! golden mismatch: got {digest}, committed {}",
                        golden.digest
                    );
                }
                Err(e) => {
                    ok = false;
                    eprintln!("   !! no golden: {e}");
                }
            }
        }
    }

    if !ok {
        eprintln!("scenario matrix FAILED: see the cells above");
        std::process::exit(1);
    }
}
