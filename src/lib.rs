//! # rflash
//!
//! A from-scratch Rust reproduction of the system behind *"On Using Linux
//! Kernel Huge Pages with FLASH, an Astrophysical Simulation Code"*
//! (Calder et al., IEEE CLUSTER 2022): a FLASH-like block-structured AMR
//! multiphysics code (PARAMESH-style mesh, split PPM hydrodynamics,
//! Helmholtz-type degenerate EOS, ADR model flame, monopole gravity)
//! together with the Linux huge-page machinery the paper studies and a
//! PAPI-like instrumentation layer with a DTLB model.
//!
//! This facade crate re-exports every subsystem; see the individual crates
//! for the real APIs:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`hugepages`] | `rflash-hugepages` | THP/hugetlbfs regions, policies, `/proc` verification |
//! | [`tlbsim`] | `rflash-tlbsim` | set-associative multi-page-size TLB model |
//! | [`perfmon`] | `rflash-perfmon` | PAPI-like sessions, FLASH timers, hardware counters |
//! | [`simd`] | `rflash-simd` | portable lane abstraction + runtime SIMD dispatch |
//! | [`eos`] | `rflash-eos` | gamma-law + Helmholtz-style tabulated EOS |
//! | [`mesh`] | `rflash-mesh` | PARAMESH-like AMR, `unk` container, flux registers |
//! | [`hydro`] | `rflash-hydro` | split PPM + HLLC, Sedov analytic solution |
//! | [`flame`] | `rflash-flame` | ADR model flame, laminar speed tables |
//! | [`gravity`] | `rflash-gravity` | monopole/point/constant gravity |
//! | [`core`] | `rflash-core` | driver, runtime parameters, scenario registry (paper problems as spec files) |
//!
//! ## Quickstart
//!
//! ```no_run
//! use rflash::core::{registry, RuntimeParams};
//! use rflash::hugepages::Policy;
//!
//! // The paper's Sedov problem (`crates/core/specs/sedov.ron`), shrunk to 2-d.
//! let mut spec = registry::load("sedov").unwrap();
//! spec.mesh.ndim = 2;
//! spec.mesh.max_refine = 2;
//! let params = RuntimeParams {
//!     policy: Policy::Thp, // back unk with transparent huge pages
//!     ..RuntimeParams::with_mesh(spec.mesh.to_mesh_config())
//! };
//! let mut sim = spec.build(params).unwrap();
//! sim.evolve(50);
//! println!("{}", sim.domain.unk.backing_report()); // what the kernel granted
//! println!("{:?}", sim.hydro_measures());          // paper-style measures
//! ```

pub use rflash_core as core;
pub use rflash_eos as eos;
pub use rflash_flame as flame;
pub use rflash_gravity as gravity;
pub use rflash_hugepages as hugepages;
pub use rflash_hydro as hydro;
pub use rflash_mesh as mesh;
pub use rflash_perfmon as perfmon;
pub use rflash_simd as simd;
pub use rflash_tlbsim as tlbsim;
