//! Simulated-rank scaling: the paper's companion study (Feldman et al.,
//! HPCAsia 2022) examined FLASH's MPI scaling on Ookami; here the same
//! Morton-curve block decomposition runs on threads. On a single-core
//! container this mostly demonstrates the decomposition machinery; on a
//! real multicore host the speedup is real.
//!
//! ```text
//! cargo run --release --example rank_scaling [steps]
//! ```

use std::time::Instant;

use rflash::core::{registry, RuntimeParams};
use rflash::hugepages::Policy;

fn main() {
    let steps: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);

    println!(
        "host CPUs: {}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!(
        "{:>6} {:>10} {:>12} {:>10}",
        "ranks", "leaves", "time [s]", "speedup"
    );

    let mut spec = registry::load("sedov").expect("built-in scenario");
    spec.mesh.ndim = 2;
    spec.mesh.max_blocks = 2048;
    let mut t1 = None;
    for nranks in [1usize, 2, 4, 8] {
        let params = RuntimeParams {
            policy: Policy::Thp,
            nranks,
            pattern_every: 0,
            gather_every: 0,
            ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
        };
        let mut sim = spec.build(params).expect("sedov spec builds");
        let t0 = Instant::now();
        sim.evolve(steps);
        let dt = t0.elapsed().as_secs_f64();
        let speedup = t1.get_or_insert(dt).max(1e-12) / dt.max(1e-12);
        println!(
            "{:>6} {:>10} {:>12.3} {:>10.2}",
            nranks,
            sim.domain.tree.leaves().len(),
            dt,
            if nranks == 1 { 1.0 } else { speedup }
        );
    }
}
