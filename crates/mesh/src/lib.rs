//! PARAMESH-like block-structured adaptive mesh.
//!
//! FLASH manages its mesh with the PARAMESH library: a quadtree/octree of
//! fixed-size blocks (16×16 zones in 2-d, 16³ in 3-d in the paper's runs),
//! each padded with guard cells, with all solution data in one big
//! dynamically-allocated container
//! `unk(nvar, il:iu, jl:ju, kl:ku, maxblocks)`. The strided access into
//! `unk` is what motivated the authors' interest in huge pages (§I.C), so
//! this crate reproduces that container byte-for-byte in spirit:
//!
//! * [`UnkStorage`] — one policy-backed allocation holding every block,
//!   with the FLASH index order (`var` fastest, `block` slowest);
//! * [`Tree`] — the block tree: Morton-keyed blocks, refinement and
//!   derefinement with 2:1 balance, neighbor lookup;
//! * [`guardcell`] — guard-cell fill: same-level run copies, restriction,
//!   monotone prolongation, and physical boundary conditions, written
//!   straight into the destination slab from a per-epoch exchange plan;
//! * [`refine`] — the Löhner second-derivative error estimator;
//! * [`flux`] — flux registers for conservation at fine–coarse boundaries;
//! * [`executor`] — the persistent rank pool: one long-lived thread per
//!   simulated MPI rank, created once per simulation and reused by every
//!   parallel section (sweeps, EOS passes, guard exchange, reductions);
//! * [`domain`] — the rank decomposition: cost-weighted Morton-curve
//!   splitting cached on the tree epoch, parallel block updates, and the
//!   per-level parallel guard-cell exchange.

pub mod audit;
pub mod block;
pub mod domain;
pub mod executor;
pub mod flux;
pub mod geometry;
pub mod guardcell;
pub mod refine;
pub mod shadow;
pub mod stats;
pub mod taskgraph;
pub mod tree;
pub mod unk;
pub mod vars;

pub use block::{BlockId, BlockMeta, BlockState, MortonKey};
pub use domain::Domain;
pub use geometry::Geometry;
pub use guardcell::{GuardFillStats, GuardNeed};
pub use shadow::ShadowSnapshot;
pub use stats::MeshStats;
pub use taskgraph::{
    GraphBuilder, GraphRankStats, GraphStats, SlotRes, SyncSlots, TaskClass, TaskGraph, TaskId,
};
pub use tree::{AdaptPlan, BoundaryCondition, MeshConfig, Tree, ZoneGrid};
pub use unk::{Region, UnkCells, UnkStorage};
pub use vars::*;
