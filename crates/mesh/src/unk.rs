//! The `unk` solution container.
//!
//! FLASH/PARAMESH stores every variable of every zone of every block in one
//! dynamically allocated Fortran array
//! `unk(nvar, il_bnd:iu_bnd, jl_bnd:ju_bnd, kl_bnd:ku_bnd, maxblocks)`.
//! Fortran's column-major order makes `nvar` the fastest-varying index: a
//! kernel sweeping one variable over one block strides by `nvar × 8` bytes
//! per zone, and block-to-block hops are megabytes apart. The paper singles
//! this stride structure out as the motivation for huge pages (§I.C).
//!
//! [`UnkStorage`] reproduces the container in one policy-backed allocation
//! with the same index order: `var` fastest, then i, j, k; block slowest.
//! One variable's zones are `nvar × 8` bytes apart, and all variables of a
//! zone share its cache lines. (Experiment E6 models the structure-of-arrays
//! alternative as a plain stride; it is not a storage mode.)
//!
//! Like FLASH's `ALLOCATE(unk(..., maxblocks))`, the allocation is a sparse
//! *reservation*: the kernel backs a slab when a block first writes it, so
//! residency follows the tree's free list (slots are handed out lowest
//! first and recycled LIFO — see [`crate::Tree`]) and stays at the
//! high-water block count, not `max_blocks`. [`UnkStorage::bytes`] is the
//! reserved size; [`UnkStorage::backing_report`] says what is resident.

use crate::audit::{self, ResourceMap};
use rflash_hugepages::{BackingReport, PageBuffer, Policy};
use rflash_tlbsim::AccessPattern;

/// Which part of a block slab an instrumented [`UnkCells`] access claims.
/// The claim is what lands in the race-audit ledger, so it must be honest:
/// a kernel given `Interior` must not touch guard zones (and vice versa) —
/// the `graph_confinement` analyzer rule keeps raw slab access out of the
/// task bodies so every access carries a claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// The `nxb^ndim` interior zones.
    Interior,
    /// The guard band around the interior.
    Guards,
    /// The whole slab (interior + guards).
    Full,
}

/// The solution container: `max_blocks` fixed-size blocks in one mapping.
pub struct UnkStorage {
    nvar: usize,
    ndim: usize,
    nxb: usize,
    nguard: usize,
    ni: usize,
    nj: usize,
    nk: usize,
    per_block: usize,
    max_blocks: usize,
    buf: PageBuffer<f64>,
}

impl UnkStorage {
    /// Allocate the container. `nxb` is zones per side (FLASH: 16),
    /// `nguard` guard cells per side (FLASH: 4 for PPM).
    pub fn new(
        ndim: usize,
        nxb: usize,
        nguard: usize,
        nvar: usize,
        max_blocks: usize,
        policy: Policy,
    ) -> UnkStorage {
        assert!(ndim == 2 || ndim == 3, "FLASH runs 1–3D; we support 2D/3D");
        assert!(nxb > 0 && nvar > 0 && max_blocks > 0);
        assert!(nguard >= 1, "PPM needs guard cells");
        let ni = nxb + 2 * nguard;
        let nj = nxb + 2 * nguard;
        let nk = if ndim == 3 { nxb + 2 * nguard } else { 1 };
        let per_block = nvar * ni * nj * nk;
        let buf = PageBuffer::<f64>::zeroed(per_block * max_blocks, policy)
            .expect("unk allocation failed");
        UnkStorage {
            nvar,
            ndim,
            nxb,
            nguard,
            ni,
            nj,
            nk,
            per_block,
            max_blocks,
            buf,
        }
    }

    // ---- geometry of the container ------------------------------------

    #[inline]
    /// Number of solution variables.
    pub fn nvar(&self) -> usize {
        self.nvar
    }
    #[inline]
    /// Dimensionality (2 or 3).
    pub fn ndim(&self) -> usize {
        self.ndim
    }
    #[inline]
    /// Zones per block side.
    pub fn nxb(&self) -> usize {
        self.nxb
    }
    #[inline]
    /// Guard cells per side.
    pub fn nguard(&self) -> usize {
        self.nguard
    }
    /// Padded extent in i (= j; k is 1 in 2-d).
    #[inline]
    pub fn padded(&self) -> (usize, usize, usize) {
        (self.ni, self.nj, self.nk)
    }
    /// Interior index range along i or j (k in 3-d): `nguard..nguard+nxb`.
    #[inline]
    pub fn interior(&self) -> std::ops::Range<usize> {
        self.nguard..self.nguard + self.nxb
    }
    /// Interior range along k: the full `0..1` in 2-d.
    #[inline]
    pub fn interior_k(&self) -> std::ops::Range<usize> {
        if self.ndim == 3 {
            self.interior()
        } else {
            0..1
        }
    }
    #[inline]
    /// Block-pool capacity (PARAMESH's `maxblocks`).
    pub fn max_blocks(&self) -> usize {
        self.max_blocks
    }
    /// The huge-page policy the container was allocated under, so sibling
    /// allocations (scratch arenas, shadow snapshots) can ride the same
    /// backing and degradation chain.
    #[inline]
    pub fn policy(&self) -> Policy {
        self.buf.policy()
    }
    /// Doubles per block slab.
    #[inline]
    pub fn per_block(&self) -> usize {
        self.per_block
    }
    /// Total container size in bytes — FLASH's "unk is big" number. This
    /// is what is *reserved*; only slabs blocks have written are resident.
    pub fn bytes(&self) -> usize {
        self.buf.len() * 8
    }
    /// Base virtual address for TLB-model registration.
    pub fn base_addr(&self) -> usize {
        self.buf.base_addr()
    }
    /// Kernel-verified backing of the container: resident and huge-backed
    /// bytes from smaps.
    pub fn backing_report(&self) -> BackingReport {
        self.buf.backing_report()
    }

    // ---- indexing ------------------------------------------------------

    /// Flat element index of `(var, i, j, k, blk)`; `i/j/k` are padded
    /// coordinates (guards included), `k` must be 0 in 2-d.
    #[inline]
    pub fn idx(&self, var: usize, i: usize, j: usize, k: usize, blk: usize) -> usize {
        debug_assert!(
            blk < self.max_blocks,
            "unk block {blk} out of pool range (max_blocks {})",
            self.max_blocks
        );
        blk * self.per_block + self.slab_idx(var, i, j, k)
    }

    #[inline]
    /// Read one element (padded coordinates, guards included).
    pub fn get(&self, var: usize, i: usize, j: usize, k: usize, blk: usize) -> f64 {
        self.buf[self.idx(var, i, j, k, blk)]
    }

    #[inline]
    /// Write one element (padded coordinates, guards included).
    pub fn set(&mut self, var: usize, i: usize, j: usize, k: usize, blk: usize, v: f64) {
        let idx = self.idx(var, i, j, k, blk);
        self.buf[idx] = v;
    }

    /// Byte address of an element (trace generation).
    #[inline]
    pub fn addr(&self, var: usize, i: usize, j: usize, k: usize, blk: usize) -> usize {
        self.base_addr() + 8 * self.idx(var, i, j, k, blk)
    }

    // ---- slabs ----------------------------------------------------------

    /// One block's contiguous slab.
    pub fn block_slab(&self, blk: usize) -> &[f64] {
        debug_assert!(
            blk < self.max_blocks,
            "slab request for block {blk} beyond pool (max_blocks {})",
            self.max_blocks
        );
        &self.buf.as_slice()[blk * self.per_block..(blk + 1) * self.per_block]
    }

    /// One block's contiguous slab, mutable.
    pub fn block_slab_mut(&mut self, blk: usize) -> &mut [f64] {
        debug_assert!(
            blk < self.max_blocks,
            "slab request for block {blk} beyond pool (max_blocks {})",
            self.max_blocks
        );
        &mut self.buf.as_mut_slice()[blk * self.per_block..(blk + 1) * self.per_block]
    }

    /// Disjoint mutable slabs for every block slot — the safe foundation
    /// for thread-parallel block updates.
    pub fn slabs_mut(&mut self) -> std::slice::ChunksMut<'_, f64> {
        let per = self.per_block;
        self.buf.as_mut_slice().chunks_mut(per)
    }

    /// Raw base pointer of the whole container, for the executor's
    /// per-rank slab handout. Callers must uphold the same disjointness
    /// the safe [`UnkStorage::slabs_mut`] enforces: each block slab is
    /// touched by at most one rank during a dispatch.
    pub(crate) fn base_ptr_mut(&mut self) -> *mut f64 {
        self.buf.as_mut_slice().as_mut_ptr()
    }

    /// Raw per-block slab handout for task-graph execution. The mutable
    /// borrow taken here ends when the view is dropped conceptually, but
    /// the view itself is `Copy`; safety rests entirely on the graph's
    /// read/write edges serializing all conflicting slab access.
    pub fn cells(&mut self) -> UnkCells {
        UnkCells {
            per_block: self.per_block,
            max_blocks: self.max_blocks,
            ptr: self.base_ptr_mut(),
        }
    }

    /// Flat index of `(var, i, j, k)` *within* a block slab, matching
    /// [`UnkStorage::idx`] minus the block offset. Kernels operating on a
    /// slab from [`UnkStorage::slabs_mut`] use this.
    #[inline]
    pub fn slab_idx(&self, var: usize, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(
            var < self.nvar,
            "slab var {var} out of range (nvar {})",
            self.nvar
        );
        debug_assert!(
            i < self.ni,
            "slab i {i} out of padded range (ni {})",
            self.ni
        );
        debug_assert!(
            j < self.nj,
            "slab j {j} out of padded range (nj {})",
            self.nj
        );
        debug_assert!(
            k < self.nk,
            "slab k {k} out of padded range (nk {})",
            self.nk
        );
        var + self.nvar * (i + self.ni * (j + self.nj * k))
    }

    /// Copyable geometry handle for pattern generation inside parallel
    /// closures (where `self` is mutably split into slabs).
    pub fn geom(&self) -> UnkGeom {
        UnkGeom {
            nvar: self.nvar,
            ndim: self.ndim,
            nxb: self.nxb,
            nguard: self.nguard,
            ni: self.ni,
            nj: self.nj,
            nk: self.nk,
            per_block: self.per_block,
            base_addr: self.base_addr(),
        }
    }
}

/// Copyable geometry of an [`UnkStorage`]: index arithmetic and access
/// pattern generation without borrowing the storage itself.
#[derive(Clone, Copy, Debug)]
pub struct UnkGeom {
    pub nvar: usize,
    pub ndim: usize,
    pub nxb: usize,
    pub nguard: usize,
    pub ni: usize,
    pub nj: usize,
    pub nk: usize,
    pub per_block: usize,
    pub base_addr: usize,
}

impl UnkGeom {
    /// Flat element index within a block slab (matches
    /// [`UnkStorage::slab_idx`]).
    #[inline]
    pub fn slab_idx(&self, var: usize, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(
            var < self.nvar,
            "geom var {var} out of range (nvar {})",
            self.nvar
        );
        debug_assert!(
            i < self.ni,
            "geom i {i} out of padded range (ni {})",
            self.ni
        );
        debug_assert!(
            j < self.nj,
            "geom j {j} out of padded range (nj {})",
            self.nj
        );
        debug_assert!(
            k < self.nk,
            "geom k {k} out of padded range (nk {})",
            self.nk
        );
        var + self.nvar * self.cell(i, j, k)
    }

    /// Byte address of `(var, i, j, k, blk)`.
    #[inline]
    pub fn addr(&self, var: usize, i: usize, j: usize, k: usize, blk: usize) -> usize {
        self.base_addr + 8 * (blk * self.per_block + self.slab_idx(var, i, j, k))
    }

    /// Zone number of padded `(i, j, k)` within a block.
    #[inline]
    pub fn cell(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(
            i < self.ni && j < self.nj && k < self.nk,
            "zone ({i},{j},{k}) out of padded range"
        );
        i + self.ni * (j + self.nj * k)
    }

    /// Slab element index of the first variable of padded zone `(i, j, k)`;
    /// variable `var` of that zone is `zone(i, j, k) + var`. Kernels that
    /// walk zones outermost and variables innermost index with this.
    #[inline]
    pub fn zone(&self, i: usize, j: usize, k: usize) -> usize {
        self.nvar * self.cell(i, j, k)
    }

    /// The contiguous element run that holds *every* variable of the `n`
    /// zones `(i0..i0 + n, j, k)`: `n × nvar` doubles. Two rows of equal
    /// length give runs of equal length, so a row-to-row copy is one
    /// `copy_from_slice`.
    #[inline]
    pub fn row_run(&self, i0: usize, j: usize, k: usize, n: usize) -> std::ops::Range<usize> {
        debug_assert!(
            i0 + n <= self.ni,
            "row {i0}+{n} out of padded range (ni {})",
            self.ni
        );
        let first = self.zone(i0, j, k);
        first..first + n * self.nvar
    }

    /// Element byte stride along direction `dir` for one variable.
    #[inline]
    pub fn dir_stride(&self, dir: usize) -> usize {
        let cells = match dir {
            0 => 1,
            1 => self.ni,
            2 => self.ni * self.nj,
            _ => panic!("dir < 3"),
        };
        8 * self.nvar * cells
    }

    /// Number of cells in a full padded pencil along `dir`.
    #[inline]
    pub fn pencil_len(&self, dir: usize) -> usize {
        match dir {
            0 => self.ni,
            1 => self.nj,
            2 => self.nk,
            _ => panic!("dir < 3"),
        }
    }

    /// Slab element index of pencil position 0 and the element stride
    /// between consecutive pencil cells. Transverse coordinates follow the
    /// [`UnkGeom::pencil_pattern`] convention.
    #[inline]
    fn pencil_base_stride(&self, var: usize, dir: usize, t1: usize, t2: usize) -> (usize, usize) {
        let (i0, j0, k0) = match dir {
            0 => (0, t1, t2),
            1 => (t1, 0, t2),
            2 => (t1, t2, 0),
            _ => panic!("dir < 3"),
        };
        (self.slab_idx(var, i0, j0, k0), self.dir_stride(dir) / 8)
    }

    /// Copy one variable's full padded pencil (guard cells included) out of
    /// a block slab into a contiguous lane — the SoA copy-in of the pencil
    /// sweep engine. The per-cell index arithmetic happens once here, not
    /// inside the physics loops.
    #[inline]
    pub fn gather_pencil(
        &self,
        slab: &[f64],
        var: usize,
        dir: usize,
        t1: usize,
        t2: usize,
        lane: &mut [f64],
    ) {
        debug_assert_eq!(
            lane.len(),
            self.pencil_len(dir),
            "lane sized to the padded pencil"
        );
        let (base, stride) = self.pencil_base_stride(var, dir, t1, t2);
        for (p, v) in lane.iter_mut().enumerate() {
            *v = slab[base + p * stride];
        }
    }

    /// Write `lane[range]` back to the matching pencil positions of one
    /// variable — the one-pass SoA copy-out (interior cells only; guard
    /// cells are owned by the exchange).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn scatter_pencil(
        &self,
        slab: &mut [f64],
        var: usize,
        dir: usize,
        t1: usize,
        t2: usize,
        range: core::ops::Range<usize>,
        lane: &[f64],
    ) {
        debug_assert!(
            range.end <= lane.len() && range.end <= self.pencil_len(dir),
            "scatter range in bounds"
        );
        let (base, stride) = self.pencil_base_stride(var, dir, t1, t2);
        for (p, &v) in lane.iter().enumerate().take(range.end).skip(range.start) {
            slab[base + p * stride] = v;
        }
    }

    /// The zone rows of the slab at `t2` along `dir` that hold pencil
    /// positions `positions`, in traversal order.
    ///
    /// A *slab* is the `nxb` adjacent interior pencils `t1 = nguard + b`
    /// (`b < nxb`) along `dir` at one transverse `t2` (0 in 2-d). Its lanes
    /// are position-major and pencil-minor: `lane[p * nxb + b]` is pencil
    /// `b` at position `p`. Along `dir = 0` the pencils themselves are the
    /// unit-stride rows; along 1 and 2 each position is one row across all
    /// `nxb` pencils. Either way every row is a [`row_run`](Self::row_run),
    /// so a slab is read and written in whole rows.
    #[inline]
    fn slab_rows(
        &self,
        dir: usize,
        t2: usize,
        positions: core::ops::Range<usize>,
    ) -> impl Iterator<Item = SlabRow> {
        let (ng, nb) = (self.nguard, self.nxb);
        let (p0, np) = (positions.start, positions.len());
        let rows = if dir == 0 { 0..nb } else { positions };
        rows.map(move |r| match dir {
            0 => SlabRow {
                ijk: (p0, ng + r, t2),
                len: np,
                lane: p0 * nb + r,
                step: nb,
            },
            1 => SlabRow {
                ijk: (ng, r, t2),
                len: nb,
                lane: r * nb,
                step: 1,
            },
            2 => SlabRow {
                ijk: (ng, t2, r),
                len: nb,
                lane: r * nb,
                step: 1,
            },
            _ => panic!("dir < 3"),
        })
    }

    /// Copy variables `vars` of the slab at `t2` along `dir` (positions
    /// `positions` of all `nxb` pencils) into slab lanes,
    /// `lanes[v][p * nxb + b]` — the copy-in of the slab sweep. It walks
    /// whole rows: a row is one contiguous run holding every variable of
    /// its zones, read zone by zone with each zone's variables transposed
    /// into the SoA lanes in one touch. Lanes are at least
    /// `pencil_len(dir) × nxb` long; lane entries outside `positions` are
    /// left alone.
    #[inline]
    pub fn gather_slab<const N: usize>(
        &self,
        slab: &[f64],
        vars: [usize; N],
        dir: usize,
        t2: usize,
        positions: core::ops::Range<usize>,
        mut lanes: [&mut [f64]; N],
    ) {
        for row in self.slab_rows(dir, t2, positions) {
            let (i, j, k) = row.ijk;
            let run = &slab[self.row_run(i, j, k, row.len)];
            for (q, zone) in run.chunks_exact(self.nvar).enumerate() {
                let at = row.lane + q * row.step;
                for (lane, var) in lanes.iter_mut().zip(vars) {
                    lane[at] = zone[var];
                }
            }
        }
    }

    /// Write slab lanes back to variables `vars` at pencil positions
    /// `positions` — the inverse of [`gather_slab`](Self::gather_slab) and
    /// the one-pass copy-out of the slab sweep (callers pass the interior
    /// positions; guard zones are owned by the exchange).
    #[inline]
    pub fn scatter_slab<const N: usize>(
        &self,
        slab: &mut [f64],
        vars: [usize; N],
        dir: usize,
        t2: usize,
        positions: core::ops::Range<usize>,
        lanes: [&[f64]; N],
    ) {
        for row in self.slab_rows(dir, t2, positions) {
            let (i, j, k) = row.ijk;
            let run = &mut slab[self.row_run(i, j, k, row.len)];
            for (q, zone) in run.chunks_exact_mut(self.nvar).enumerate() {
                let at = row.lane + q * row.step;
                for (lane, var) in lanes.iter().zip(vars) {
                    zone[var] = lane[at];
                }
            }
        }
    }

    /// The access patterns of [`gather_slab`](Self::gather_slab) /
    /// [`scatter_slab`](Self::scatter_slab) at `positions` of the slab at
    /// `t2` along `dir` in block `blk`: one dense range per row, whatever
    /// the variables (a zone's variables share its cache lines).
    pub fn slab_patterns(
        &self,
        dir: usize,
        t2: usize,
        positions: core::ops::Range<usize>,
        blk: usize,
    ) -> impl Iterator<Item = AccessPattern> + '_ {
        self.slab_rows(dir, t2, positions).map(move |row| {
            let (i, j, k) = row.ijk;
            let run = self.row_run(i, j, k, row.len);
            AccessPattern::Range {
                base: self.base_addr + 8 * (blk * self.per_block + run.start),
                len: 8 * run.len(),
            }
        })
    }

    /// The access pattern of sweeping one variable along a full padded
    /// pencil in direction `dir` at transverse coordinates (t1, t2):
    /// dir 0 → (i varies; j=t1, k=t2), dir 1 → (j varies; i=t1, k=t2),
    /// dir 2 → (k varies; i=t1, j=t2).
    pub fn pencil_pattern(
        &self,
        var: usize,
        dir: usize,
        t1: usize,
        t2: usize,
        blk: usize,
    ) -> rflash_tlbsim::AccessPattern {
        let (i0, j0, k0, count) = match dir {
            0 => (0, t1, t2, self.ni),
            1 => (t1, 0, t2, self.nj),
            2 => (t1, t2, 0, self.nk),
            _ => panic!("dir < 3"),
        };
        rflash_tlbsim::AccessPattern::Strided {
            base: self.addr(var, i0, j0, k0, blk),
            stride: self.dir_stride(dir),
            count,
            elem: 8,
        }
    }
}

/// One row of a slab traversal: `len` zones along i from padded `ijk`,
/// landing at lane indices `lane + q * step`.
#[derive(Clone, Copy, Debug)]
struct SlabRow {
    ijk: (usize, usize, usize),
    len: usize,
    lane: usize,
    step: usize,
}

/// Raw, copyable view of every block slab, for kernels executed as graph
/// tasks. Unlike the rank-partitioned handout in `Domain`, a task graph has
/// no static block-to-thread assignment — any rank may touch any slab — so
/// exclusivity cannot be expressed with `&mut` partitioning. Instead the
/// graph builder's read/write edges serialize every pair of conflicting
/// accesses, and the accessors below make the obligation explicit.
#[derive(Clone, Copy)]
pub struct UnkCells {
    ptr: *mut f64,
    per_block: usize,
    max_blocks: usize,
}

// SAFETY: the pointer spans a plain-f64 region owned by the `UnkStorage`
// this view was taken from; cross-thread access discipline is the graph
// edges' responsibility, documented on the accessors.
unsafe impl Send for UnkCells {}
// SAFETY: as above.
unsafe impl Sync for UnkCells {}

impl UnkCells {
    /// Shared view of block `blk`'s slab.
    ///
    /// # Safety
    /// No concurrently running task may hold a mutable reference to the
    /// same slab: the caller's task must be ordered (by graph edges) after
    /// every writer of `blk` and before the next one.
    #[inline]
    pub unsafe fn slab(&self, blk: usize) -> &[f64] {
        debug_assert!(blk < self.max_blocks);
        std::slice::from_raw_parts(self.ptr.add(blk * self.per_block), self.per_block)
    }

    /// Exclusive view of block `blk`'s slab.
    ///
    /// # Safety
    /// The caller's task must be the only task touching `blk` while it
    /// runs: graph edges must order it after every prior reader and writer
    /// of `blk` and before every later one.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn slab_mut(&self, blk: usize) -> &mut [f64] {
        debug_assert!(blk < self.max_blocks);
        std::slice::from_raw_parts_mut(self.ptr.add(blk * self.per_block), self.per_block)
    }

    #[inline]
    fn rmap(&self) -> ResourceMap {
        ResourceMap {
            max_blocks: self.max_blocks,
        }
    }

    #[inline]
    fn rec(&self, blk: usize, region: Region, write: bool) {
        let m = self.rmap();
        let one = |res: usize| {
            if write {
                audit::rec_write(res);
            } else {
                audit::rec_read(res);
            }
        };
        match region {
            Region::Interior => one(m.interior(blk)),
            Region::Guards => one(m.guards(blk)),
            Region::Full => {
                one(m.interior(blk));
                one(m.guards(blk));
            }
        }
    }

    /// Shared view of block `blk`'s slab, claiming to read only `claims`.
    /// The claim is recorded in the race-audit ledger; the caller must not
    /// touch zones outside the claimed region.
    ///
    /// # Safety
    /// As for [`UnkCells::slab`]: no concurrently running task may hold a
    /// mutable reference to the claimed region of this slab — the caller's
    /// task must be ordered (by graph edges) after every writer of it and
    /// before the next one.
    #[inline]
    pub unsafe fn read_slab(&self, blk: usize, claims: Region) -> &[f64] {
        self.rec(blk, claims, false);
        self.slab(blk)
    }

    /// Exclusive view of block `blk`'s slab, claiming to write only
    /// `writes` (and additionally read `reads`, if given). The claims are
    /// recorded in the race-audit ledger; the caller must not touch zones
    /// outside the claimed regions.
    ///
    /// # Safety
    /// As for [`UnkCells::slab_mut`]: the caller's task must be the only
    /// task touching the claimed regions while it runs — graph edges must
    /// order it after every prior reader and writer of them and before
    /// every later one.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn write_slab(
        &self,
        blk: usize,
        writes: Region,
        reads: Option<Region>,
    ) -> &mut [f64] {
        self.rec(blk, writes, true);
        if let Some(r) = reads {
            self.rec(blk, r, false);
        }
        self.slab_mut(blk)
    }

    /// Read-modify-write one zone of block `blk`, classifying it as
    /// interior or guard from `geom` so the recorded claim is exact (the
    /// fault-injection task uses this to corrupt single cells).
    ///
    /// # Safety
    /// As for [`UnkCells::slab_mut`], restricted to the one zone touched.
    #[allow(clippy::too_many_arguments)] // one zone address is five indices
    pub unsafe fn update_cell(
        &self,
        geom: &UnkGeom,
        blk: usize,
        var: usize,
        i: usize,
        j: usize,
        k: usize,
        f: impl FnOnce(f64) -> f64,
    ) {
        let ir = geom.nguard..geom.nguard + geom.nxb;
        let interior = ir.contains(&i) && ir.contains(&j) && (geom.ndim < 3 || ir.contains(&k));
        let region = if interior {
            Region::Interior
        } else {
            Region::Guards
        };
        self.rec(blk, region, true);
        let slab = self.slab_mut(blk);
        let idx = geom.slab_idx(var, i, j, k);
        slab[idx] = f(slab[idx]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> UnkStorage {
        UnkStorage::new(2, 8, 2, 4, 3, Policy::None)
    }

    #[test]
    fn sizes_2d() {
        let u = mk();
        assert_eq!(u.padded(), (12, 12, 1));
        assert_eq!(u.per_block(), 4 * 12 * 12);
        assert_eq!(u.bytes(), 4 * 12 * 12 * 3 * 8);
        assert_eq!(u.interior(), 2..10);
        assert_eq!(u.interior_k(), 0..1);
    }

    #[test]
    fn sizes_3d() {
        let u = UnkStorage::new(3, 16, 4, 11, 2, Policy::None);
        assert_eq!(u.padded(), (24, 24, 24));
        assert_eq!(u.per_block(), 11 * 24 * 24 * 24);
        assert_eq!(u.interior_k(), 4..20);
    }

    #[test]
    fn pencil_gather_scatter_round_trips_in_every_dir() {
        let mut u = UnkStorage::new(3, 4, 2, 3, 2, Policy::None);
        let g = u.geom();
        let (ni, nj, nk) = u.padded();
        // Seed every element with a unique value.
        for var in 0..3 {
            for k in 0..nk {
                for j in 0..nj {
                    for i in 0..ni {
                        let v = (var * 1000 + i * 100 + j * 10 + k) as f64;
                        u.set(var, i, j, k, 1, v);
                    }
                }
            }
        }
        for dir in 0..3 {
            let n = g.pencil_len(dir);
            let mut lane = vec![0.0; n];
            let (t1, t2) = (3, 2);
            g.gather_pencil(u.block_slab(1), 2, dir, t1, t2, &mut lane);
            // Lane contents match per-cell reads.
            for (p, &got) in lane.iter().enumerate() {
                let (i, j, k) = match dir {
                    0 => (p, t1, t2),
                    1 => (t1, p, t2),
                    _ => (t1, t2, p),
                };
                assert_eq!(got, u.get(2, i, j, k, 1), "dir {dir} p {p}");
            }
            // Scatter a transformed interior back; guard cells untouched.
            let ng = g.nguard;
            let hi = ng + g.nxb;
            let doubled: Vec<f64> = lane.iter().map(|&v| 2.0 * v).collect();
            g.scatter_pencil(u.block_slab_mut(1), 2, dir, t1, t2, ng..hi, &doubled);
            for (p, &orig) in lane.iter().enumerate() {
                let (i, j, k) = match dir {
                    0 => (p, t1, t2),
                    1 => (t1, p, t2),
                    _ => (t1, t2, p),
                };
                let want = if (ng..hi).contains(&p) {
                    2.0 * orig
                } else {
                    orig
                };
                assert_eq!(u.get(2, i, j, k, 1), want, "dir {dir} p {p}");
            }
            // Restore for the next direction.
            g.scatter_pencil(u.block_slab_mut(1), 2, dir, t1, t2, 0..n, &lane);
        }
    }

    /// `(p, t1, t2)` of padded zone `(i, j, k)` in the sweep frame of `dir`.
    fn sweep_frame(dir: usize, i: usize, j: usize, k: usize) -> (usize, usize, usize) {
        match dir {
            0 => (i, j, k),
            1 => (j, i, k),
            _ => (k, i, j),
        }
    }

    #[test]
    fn slab_gather_equals_nxb_pencil_gathers() {
        for ndim in [2, 3] {
            let mut u = UnkStorage::new(ndim, 4, 2, 5, 2, Policy::None);
            for (n, x) in u.block_slab_mut(1).iter_mut().enumerate() {
                *x = n as f64 + 0.5;
            }
            let g = u.geom();
            let (ng, nb) = (g.nguard, g.nxb);
            let vars = [3, 0, 4];
            for dir in 0..ndim {
                let n = g.pencil_len(dir);
                let t2s = if ndim == 3 { ng..ng + nb } else { 0..1 };
                for t2 in t2s {
                    let mut lanes = vec![vec![f64::NAN; n * nb]; vars.len()];
                    let [l0, l1, l2] = &mut lanes[..] else {
                        unreachable!()
                    };
                    g.gather_slab(u.block_slab(1), vars, dir, t2, 0..n, [l0, l1, l2]);
                    let at = format!("{ndim}-d dir {dir} t2 {t2}");
                    let mut pencil = vec![0.0; n];
                    for (&var, lane) in vars.iter().zip(&lanes) {
                        for b in 0..nb {
                            g.gather_pencil(u.block_slab(1), var, dir, ng + b, t2, &mut pencil);
                            for (p, want) in pencil.iter().enumerate() {
                                assert_eq!(
                                    lane[p * nb + b].to_bits(),
                                    want.to_bits(),
                                    "{at} var {var} b {b} p {p}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slab_scatter_writes_exactly_the_slab_interior_of_its_vars() {
        for ndim in [2, 3] {
            let mut u = UnkStorage::new(ndim, 4, 2, 5, 2, Policy::None);
            let g = u.geom();
            let (ng, nb) = (g.nguard, g.nxb);
            let interior = ng..ng + nb;
            let t2 = if ndim == 3 { ng + 1 } else { 0 };
            let vars = [4, 1];
            for dir in 0..ndim {
                u.block_slab_mut(1).fill(f64::NAN);
                let n = g.pencil_len(dir);
                let lanes: Vec<Vec<f64>> = (0..vars.len())
                    .map(|v| (0..n * nb).map(|x| (1000 * v + x) as f64).collect())
                    .collect();
                g.scatter_slab(
                    u.block_slab_mut(1),
                    vars,
                    dir,
                    t2,
                    interior.clone(),
                    [&lanes[0], &lanes[1]],
                );
                let (ni, nj, nk) = u.padded();
                for var in 0..5 {
                    for k in 0..nk {
                        for j in 0..nj {
                            for i in 0..ni {
                                let (p, t1, tt2) = sweep_frame(dir, i, j, k);
                                let got = u.get(var, i, j, k, 1);
                                let slot = vars.iter().position(|&v| v == var);
                                match slot {
                                    Some(v)
                                        if tt2 == t2
                                            && interior.contains(&p)
                                            && interior.contains(&t1) =>
                                    {
                                        let want = lanes[v][p * nb + t1 - ng];
                                        assert_eq!(got, want, "{ndim}-d dir {dir}");
                                    }
                                    _ => assert!(
                                        got.is_nan(),
                                        "{ndim}-d dir {dir}: var {var} at \
                                         ({i},{j},{k}) outside the slab was written"
                                    ),
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slab_patterns_are_the_rows_the_gather_walks() {
        let u = UnkStorage::new(3, 4, 2, 5, 2, Policy::None);
        let g = u.geom();
        let (ng, nb) = (g.nguard, g.nxb);
        // z-sweep: one dense run of nxb whole zones per pencil position.
        let pats: Vec<_> = g.slab_patterns(2, ng, 0..g.nk, 1).collect();
        assert_eq!(pats.len(), g.nk);
        for (p, pat) in pats.iter().enumerate() {
            let want = AccessPattern::Range {
                base: u.addr(0, ng, ng, p, 1),
                len: 8 * nb * 5,
            };
            assert_eq!(*pat, want, "position {p}");
        }
        // x-sweep: one run per pencil, over the requested positions only.
        assert_eq!(g.slab_patterns(0, ng, ng..ng + nb, 1).count(), nb);
    }

    #[test]
    fn varfirst_strides_match_flash() {
        let u = mk();
        // Consecutive vars in the same zone are adjacent.
        assert_eq!(u.idx(1, 5, 5, 0, 0) - u.idx(0, 5, 5, 0, 0), 1);
        // Same var, consecutive i: stride nvar.
        assert_eq!(u.idx(0, 6, 5, 0, 0) - u.idx(0, 5, 5, 0, 0), 4);
        // Block stride is the full slab.
        assert_eq!(u.idx(0, 0, 0, 0, 1) - u.idx(0, 0, 0, 0, 0), u.per_block());
    }

    #[test]
    fn get_set_round_trip() {
        let mut u = mk();
        u.set(2, 3, 4, 0, 1, 7.5);
        assert_eq!(u.get(2, 3, 4, 0, 1), 7.5);
        assert_eq!(u.get(2, 3, 4, 0, 0), 0.0, "other blocks untouched");
        // Via slab view.
        let slab = u.block_slab(1);
        assert_eq!(slab[u.slab_idx(2, 3, 4, 0)], 7.5);
    }

    #[test]
    fn slabs_are_disjoint_and_cover() {
        let mut u = mk();
        let per = u.per_block();
        let mut count = 0;
        for (b, slab) in u.slabs_mut().enumerate() {
            assert_eq!(slab.len(), per);
            slab[0] = b as f64;
            count += 1;
        }
        assert_eq!(count, 3);
        for b in 0..3 {
            assert_eq!(u.block_slab(b)[0], b as f64);
        }
    }

    #[test]
    fn addr_is_byte_scaled() {
        let u = mk();
        assert_eq!(
            u.addr(0, 3, 4, 0, 0) - u.base_addr(),
            8 * u.idx(0, 3, 4, 0, 0)
        );
    }

    #[test]
    fn geom_matches_storage() {
        let u = mk();
        let g = u.geom();
        assert_eq!(g.slab_idx(2, 3, 4, 0), u.slab_idx(2, 3, 4, 0));
        assert_eq!(g.addr(1, 2, 3, 0, 2), u.addr(1, 2, 3, 0, 2));
        assert_eq!(g.dir_stride(0), 8 * g.nvar);
        assert_eq!(g.zone(3, 4, 0), g.slab_idx(0, 3, 4, 0));
        assert_eq!(g.row_run(2, 4, 0, 5), g.zone(2, 4, 0)..g.zone(7, 4, 0));
    }

    #[test]
    fn pencil_patterns_by_direction() {
        let u = UnkStorage::new(3, 4, 2, 5, 2, Policy::None);
        let g = u.geom();
        // dir 1 (j) stride: nvar * ni doubles.
        match g.pencil_pattern(0, 1, 3, 2, 1) {
            rflash_tlbsim::AccessPattern::Strided {
                stride,
                count,
                base,
                ..
            } => {
                assert_eq!(stride, 8 * 5 * 8);
                assert_eq!(count, 8);
                assert_eq!(base, u.addr(0, 3, 0, 2, 1));
            }
            _ => unreachable!(),
        }
        // dir 2 (k) stride: nvar * ni * nj doubles.
        match g.pencil_pattern(1, 2, 1, 2, 0) {
            rflash_tlbsim::AccessPattern::Strided { stride, .. } => {
                assert_eq!(stride, 8 * 5 * 64);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic]
    fn ndim_1_unsupported() {
        let _ = UnkStorage::new(1, 8, 2, 4, 1, Policy::None);
    }

    // Debug-build invariant checks: out-of-range indices must trip the
    // descriptive assertions rather than silently aliasing a neighbouring
    // zone. Release builds skip both the checks and these tests.
    #[cfg(debug_assertions)]
    mod debug_bounds {
        use super::*;

        #[test]
        #[should_panic(expected = "out of range")]
        fn idx_rejects_var_overflow() {
            let u = mk();
            let _ = u.idx(4, 0, 0, 0, 0);
        }

        #[test]
        #[should_panic(expected = "out of padded range")]
        fn idx_rejects_k_in_2d() {
            let u = mk();
            let _ = u.idx(0, 0, 0, 1, 0);
        }

        #[test]
        #[should_panic(expected = "out of pool range")]
        fn idx_rejects_block_overflow() {
            let u = mk();
            let _ = u.idx(0, 0, 0, 0, 3);
        }

        #[test]
        #[should_panic(expected = "beyond pool")]
        fn block_slab_rejects_overflow() {
            let u = mk();
            let _ = u.block_slab(3);
        }

        #[test]
        #[should_panic(expected = "out of padded range")]
        fn geom_slab_idx_rejects_i_overflow() {
            let g = mk().geom();
            let _ = g.slab_idx(0, 12, 0, 0);
        }
    }
}
