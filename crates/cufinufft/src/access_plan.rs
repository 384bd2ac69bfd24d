//! Symbolic [`AccessPlan`]s for every shipped kernel, declared next to
//! the kernels they describe.
//!
//! Each plan is the static counterpart of the shadow-memory
//! instrumentation in [`crate::spread`], [`crate::interp`], and
//! [`crate::bins`]: same buffer names, same traced element granularity
//! (one real word for complex data), same sync epochs — but with the
//! per-thread index arithmetic expressed as interval/stride terms
//! instead of executed. The FINUFFT kernel analysis makes this possible
//! in closed form: a point's spreading footprint is `w` cells wide per
//! dimension (`w = ceil(log10(1/eps)) + 1`-style, paper Sec. II),
//! wrapped periodically into the fine grid, so every element index any
//! launch can touch is `offset + Σ stride_i · (v_i mod n_i)` with known
//! variable ranges.
//!
//! [`PlanGeometry`] is the one derivation of a plan's launch geometry
//! (kernel width from the tolerance, fine-grid sizes under the sizing
//! policy — including Bluestein/prime shapes — Remark-1 bin sizes,
//! Remark-2 method resolution): `Plan` stores the value it derives at
//! build time ([`Plan::geometry`](crate::Plan::geometry)), and
//! [`PlanGeometry::from_spec`] runs the same derivation without a
//! device, so the static checker explores exactly the launch
//! configurations the library runs. [`plans_for`] then yields one plan
//! per kernel the configuration can launch for a point count;
//! `gpu-sim`'s checker passes ([`AccessPlan::check_all`]) and the
//! trace-containment test ([`AccessPlan::contains_trace`]) do the rest.

use crate::bins::BinLayout;
use crate::opts::{default_bin_size, sm_tile, GpuOpts, Method, Tuning};
use crate::recovery::{resolve_method_with_fallback, RecoveryReport};
use gpu_sim::{AccessPlan, DimTerm, IndexExpr, Scope, ThreadMap};
use nufft_common::hazard::AccessKind;
use nufft_common::shape::Shape;
use nufft_common::smooth::fine_grid_size_with;
use nufft_common::spec::{Precision, TransformSpec};
use nufft_common::Result;
use nufft_kernels::EsKernel;

/// Threads per block the SM spread and the bin-sort passes use (fixed
/// in their kernels, unlike the GM paths which take it from [`Tuning`]).
const SM_TPB: usize = 256;

/// A plan's launch geometry: everything its kernels' launch
/// configurations and symbolic plans depend on except the point count.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanGeometry {
    pub dim: usize,
    /// Upsampled fine-grid shape under the sizing policy.
    pub fine: Shape,
    /// Spreading kernel for the tolerance, precision and sigma.
    pub kernel: EsKernel,
    /// Bin size clamped per-dimension to the fine grid (what
    /// [`BinLayout`] actually uses).
    pub bin_size: [usize; 3],
    /// Total bins of the layout.
    pub nbins: usize,
    /// SM subproblem point cap.
    pub msub: usize,
    /// Threads per block of the GM spread/interp kernels.
    pub threads_per_block: usize,
    pub real_bytes: usize,
    pub complex_bytes: usize,
    /// Remark-2 shared-memory budget per block: the tuning budget capped
    /// by the device's limit.
    pub shared_budget: usize,
    /// Resolved spreading method (never `Auto`).
    pub method: Method,
}

impl PlanGeometry {
    /// Derive a plan's geometry, in this order: the kernel, the fine
    /// grid, the bin size, and the Remark-2 method under the budget
    /// `shared_mem_budget.min(device_shared_cap)`, resolved on the
    /// unclamped bin size (with the SM fallback `opts.recovery` allows,
    /// logged in `rec`).
    pub(crate) fn derive(
        modes: Shape,
        eps: f64,
        precision: Precision,
        opts: &GpuOpts,
        device_shared_cap: usize,
        rec: &mut RecoveryReport,
    ) -> Result<PlanGeometry> {
        let tuning = &opts.tuning;
        let real_bytes = precision.real_bytes();
        let complex_bytes = precision.complex_bytes();
        let kernel = EsKernel::for_upsampfac(eps, tuning.upsampfac, precision == Precision::F64)?;
        let fine =
            modes.map(|_, n| fine_grid_size_with(n, tuning.upsampfac, kernel.w, opts.fine_sizing));
        let dim = modes.dim;
        let bin_size = tuning.bin_size.unwrap_or_else(|| default_bin_size(dim));
        let shared_budget = tuning.shared_mem_budget.min(device_shared_cap);
        let method = resolve_method_with_fallback(
            opts,
            shared_budget,
            bin_size,
            dim,
            kernel.w,
            complex_bytes,
            rec,
        )?;
        let layout = BinLayout::new(fine, bin_size);
        Ok(PlanGeometry {
            dim,
            fine,
            kernel,
            bin_size: layout.bin_size,
            nbins: layout.total(),
            msub: tuning.msub.max(1),
            threads_per_block: tuning.threads_per_block.max(1),
            real_bytes,
            complex_bytes,
            shared_budget,
            method,
        })
    }

    /// The geometry `Plan::from_spec` with this tuning would have on a
    /// device whose blocks hold `device_shared_cap` bytes of shared
    /// memory, derived without a device. Fails exactly where plan
    /// construction would: invalid spec, tolerance outside the kernel
    /// table, explicit SM infeasible.
    pub fn from_spec(
        spec: &TransformSpec,
        tuning: &Tuning,
        device_shared_cap: usize,
    ) -> Result<PlanGeometry> {
        spec.validate()?;
        let opts = GpuOpts {
            method: spec.method,
            tuning: *tuning,
            fine_sizing: spec.fine_sizing,
            ..GpuOpts::default()
        };
        Self::derive(
            Shape::from_slice(&spec.modes),
            spec.eps,
            spec.precision,
            &opts,
            device_shared_cap,
            &mut RecoveryReport::default(),
        )
    }

    /// Number of SM subproblems for `m` points, as a `[lo, hi]` range:
    /// at least `ceil(m / msub)` (all points in one bin), at most `m`
    /// (every subproblem holds at least one point). Distribution-
    /// dependent, so the static model carries the whole range.
    fn nsub_range(&self, m: usize) -> (u64, u64) {
        (m.div_ceil(self.msub) as u64, m as u64)
    }

    /// The point-coordinate read set shared by every kernel that
    /// gathers point data: element `j*4 + arr`, `j` over the points,
    /// `arr` over the coordinate arrays (x, y, z, c slots).
    fn points_expr(&self, m: u64) -> IndexExpr {
        IndexExpr::new(0)
            .dim(DimTerm::var(4, 0, m as i64 - 1))
            .dim(DimTerm::var(1, 0, self.dim as i64 - 1))
    }

    /// The fine-grid word set of a `w`-wide wrapped footprint: element
    /// `2·(i1 + n1·(i2 + n2·i3)) + word` with each `i_k` the wrap of a
    /// raw index that may stray up to `w` cells past either grid edge.
    /// With `wrap = true` this is exactly the `rem_euclid` the kernels
    /// apply; `wrap = false` models a kernel that forgot to wrap (the
    /// out-of-bounds negative control).
    fn fine_grid_expr(&self, wrap: bool) -> IndexExpr {
        let [n1, n2, n3] = self.fine.n.map(|n| n as i64);
        let w = self.kernel.w as i64;
        let mut e = IndexExpr::new(0).dim(DimTerm::var(1, 0, 1));
        let mut stride = 2i64;
        for (i, n) in [n1, n2, n3].into_iter().enumerate().take(self.dim) {
            let _ = i;
            e = e.dim(if wrap {
                DimTerm::wrapped(stride, -w, n - 1 + w, n)
            } else {
                DimTerm::var(stride, -w, n - 1 + w)
            });
            stride *= n;
        }
        e
    }
}

/// Every plan the configuration can launch on `m` points (at least
/// one), covering both transform directions: the bin-sort passes (all
/// methods except GM), the resolved spread kernel, and the interp
/// kernel (GM in user order, GM-sort when a permutation exists — SM
/// spreading interpolates via GM-sort). Names match the dynamic kernel
/// names exactly so traces can be paired with plans.
pub fn plans_for(g: &PlanGeometry, m: usize) -> Vec<AccessPlan> {
    let m = m.max(1);
    let mut plans = Vec::new();
    match g.method {
        Method::Gm => {
            plans.push(spread_gm_plan(g, m, "spread_GM"));
            plans.push(interp_plan(g, m, "interp_GM"));
        }
        Method::GmSort => {
            plans.extend(bin_sort_plans(g, m));
            plans.push(spread_gm_plan(g, m, "spread_GM-sort"));
            plans.push(interp_plan(g, m, "interp_GM-sort"));
        }
        Method::Sm => {
            plans.extend(bin_sort_plans(g, m));
            plans.push(spread_sm_plan(g, m));
            plans.push(interp_plan(g, m, "interp_GM-sort"));
        }
        Method::Auto => unreachable!("PlanGeometry derivation resolves Auto"),
    }
    plans
}

/// GM spreading (paper Sec. III-B): one thread per point, `w^d` wrapped
/// fine-grid cells per point, two global atomic words per cell.
pub fn spread_gm_plan(g: &PlanGeometry, npts: usize, name: &str) -> AccessPlan {
    let m = npts as u64;
    let nf = g.fine.total() as u64;
    let wd = (g.kernel.w as u64).pow(g.dim as u32);
    let tpb = g.threads_per_block;
    let mut p = AccessPlan::new(name, tpb as u32, npts.div_ceil(tpb) as u64);
    let pts = p.buffer("points", Scope::Global, g.real_bytes, 4 * m);
    let stren = p.buffer("strengths", Scope::Global, g.complex_bytes, m);
    let grid = p.buffer("fine_grid", Scope::Global, g.complex_bytes / 2, 2 * nf);
    // Point and strength loads: each element read by exactly one thread
    // of one block (the thread that owns point j).
    let md = m * g.dim as u64;
    p.term(
        pts,
        AccessKind::Read,
        0,
        g.points_expr(m),
        ThreadMap::Exclusive,
        ThreadMap::Exclusive,
        (md, md),
    );
    p.term(
        stren,
        AccessKind::Read,
        0,
        IndexExpr::new(0).dim(DimTerm::var(1, 0, m as i64 - 1)),
        ThreadMap::Exclusive,
        ThreadMap::Exclusive,
        (m, m),
    );
    // Footprint accumulation: atomic adds, overlapping by construction
    // (neighbouring points share cells) — safe because atomic.
    p.term(
        grid,
        AccessKind::Atomic,
        0,
        g.fine_grid_expr(true),
        ThreadMap::Overlapping,
        ThreadMap::Overlapping,
        (2 * m * wd, 2 * m * wd),
    );
    p.contract.global_atomics = Some(2 * m * wd);
    p.contract.shared_atomics = Some(0);
    p.contract.shared_bytes = Some(0);
    p
}

/// SM spreading (paper Fig. 1): one block per subproblem; zero-fill the
/// padded shared bin, barrier, accumulate with shared atomics, barrier,
/// flush each padded cell to the fine grid with global atomics.
pub fn spread_sm_plan(g: &PlanGeometry, npts: usize) -> AccessPlan {
    let m = npts as u64;
    let nf = g.fine.total() as u64;
    let wd = (g.kernel.w as u64).pow(g.dim as u32);
    let pb = sm_tile(g.bin_size, g.dim, g.kernel.w);
    let pc: usize = pb.iter().product();
    let (nsub_lo, nsub_hi) = g.nsub_range(npts);
    let pc64 = pc as u64;
    let mut p = AccessPlan::new("spread_SM", SM_TPB as u32, nsub_hi);
    p.shared_bytes = pc * g.complex_bytes;
    let pts = p.buffer("points", Scope::Global, g.real_bytes, 4 * m);
    let stren = p.buffer("strengths", Scope::Global, g.complex_bytes, m);
    let bin = p.buffer("sm_bin", Scope::Shared, g.complex_bytes / 2, 2 * pc64);
    let grid = p.buffer("fine_grid", Scope::Global, g.complex_bytes / 2, 2 * nf);
    // Epoch 0: grid-stride zero fill of the padded bin. Word -> thread
    // is `word % 256`, functional, so the write term is exclusive.
    p.term(
        bin,
        AccessKind::Write,
        0,
        IndexExpr::new(0).dim(DimTerm::var(1, 0, 2 * pc as i64 - 1)),
        ThreadMap::Exclusive,
        ThreadMap::Overlapping,
        (2 * pc64 * nsub_lo, 2 * pc64 * nsub_hi),
    );
    // Epoch 1 (after the first barrier): gather point data and
    // accumulate into the shared bin with shared atomics.
    let md = m * g.dim as u64;
    p.term(
        pts,
        AccessKind::Read,
        1,
        g.points_expr(m),
        ThreadMap::Exclusive,
        ThreadMap::Exclusive,
        (md, md),
    );
    p.term(
        stren,
        AccessKind::Read,
        1,
        IndexExpr::new(0).dim(DimTerm::var(1, 0, m as i64 - 1)),
        ThreadMap::Exclusive,
        ThreadMap::Exclusive,
        (m, m),
    );
    p.term(
        bin,
        AccessKind::Atomic,
        1,
        IndexExpr::new(0)
            .dim(DimTerm::var(1, 0, 1))
            .dim(DimTerm::var(2, 0, pc as i64 - 1)),
        ThreadMap::Overlapping,
        ThreadMap::Overlapping,
        (2 * m * wd, 2 * m * wd),
    );
    // Epoch 2 (after the second barrier): each thread reads its own
    // shared words and atomically adds them to the wrapped fine grid.
    p.term(
        bin,
        AccessKind::Read,
        2,
        IndexExpr::new(0)
            .dim(DimTerm::var(1, 0, 1))
            .dim(DimTerm::var(2, 0, pc as i64 - 1)),
        ThreadMap::Exclusive,
        ThreadMap::Overlapping,
        (2 * pc64 * nsub_lo, 2 * pc64 * nsub_hi),
    );
    // Padded-bin cell -> fine cell: per dimension the raw index is the
    // bin origin minus the halo, plus the local offset, wrapped mod n.
    let half = g.kernel.w.div_ceil(2) as i64;
    let [n1, n2, n3] = g.fine.n.map(|n| n as i64);
    let mut flush = IndexExpr::new(0).dim(DimTerm::var(1, 0, 1));
    let mut stride = 2i64;
    for (i, n) in [n1, n2, n3].into_iter().enumerate().take(g.dim) {
        flush = flush.dim(DimTerm::wrapped(stride, -half, n - 1 + pb[i] as i64, n));
        stride *= n;
    }
    p.term(
        grid,
        AccessKind::Atomic,
        2,
        flush,
        ThreadMap::Overlapping,
        ThreadMap::Overlapping,
        (2 * pc64 * nsub_lo, 2 * pc64 * nsub_hi),
    );
    p.contract.global_atomics = Some(2 * pc64 * nsub_lo);
    p.contract.shared_atomics = Some(2 * m * wd);
    p.contract.shared_bytes = Some(pc * g.complex_bytes);
    p
}

/// GM interpolation (type 2): one thread per point, reads its wrapped
/// footprint and writes its own output words — no atomics at all.
pub fn interp_plan(g: &PlanGeometry, npts: usize, name: &str) -> AccessPlan {
    let m = npts as u64;
    let nf = g.fine.total() as u64;
    let wd = (g.kernel.w as u64).pow(g.dim as u32);
    let tpb = g.threads_per_block;
    let mut p = AccessPlan::new(name, tpb as u32, npts.div_ceil(tpb) as u64);
    let pts = p.buffer("points", Scope::Global, g.real_bytes, 4 * m);
    let grid = p.buffer("fine_grid", Scope::Global, g.complex_bytes / 2, 2 * nf);
    let out = p.buffer("out", Scope::Global, g.complex_bytes / 2, 2 * m);
    let md = m * g.dim as u64;
    p.term(
        pts,
        AccessKind::Read,
        0,
        g.points_expr(m),
        ThreadMap::Exclusive,
        ThreadMap::Exclusive,
        (md, md),
    );
    p.term(
        grid,
        AccessKind::Read,
        0,
        g.fine_grid_expr(true),
        ThreadMap::Overlapping,
        ThreadMap::Overlapping,
        (2 * m * wd, 2 * m * wd),
    );
    // out[2j], out[2j+1]: written only by point j's thread.
    p.term(
        out,
        AccessKind::Write,
        0,
        IndexExpr::new(0)
            .dim(DimTerm::var(1, 0, 1))
            .dim(DimTerm::var(2, 0, m as i64 - 1)),
        ThreadMap::Exclusive,
        ThreadMap::Exclusive,
        (2 * m, 2 * m),
    );
    p.contract.global_atomics = Some(0);
    p.contract.shared_atomics = Some(0);
    p.contract.shared_bytes = Some(0);
    p
}

/// The four bin-sort passes (paper Sec. III-A): bin index, histogram,
/// exclusive scan, scatter. One thread per point (256 per block) except
/// the scan, which runs in the single-threaded reference shape.
pub fn bin_sort_plans(g: &PlanGeometry, npts: usize) -> Vec<AccessPlan> {
    let m = npts as u64;
    let nb = g.nbins as u64;
    let md = m * g.dim as u64;
    let point_blocks = npts.div_ceil(SM_TPB) as u64;
    let j_expr = || IndexExpr::new(0).dim(DimTerm::var(1, 0, m as i64 - 1));
    let bin_expr = || IndexExpr::new(0).dim(DimTerm::var(1, 0, nb as i64 - 1));

    // calc_binidx: pure map from point coordinates to bin ids. The
    // dynamic trace declares the point buffer at 8-byte elements.
    let mut calc = AccessPlan::new("calc_binidx", SM_TPB as u32, point_blocks);
    let pts = calc.buffer("points", Scope::Global, 8, 4 * m);
    let bin_of = calc.buffer("bin_of", Scope::Global, 4, m);
    calc.term(
        pts,
        AccessKind::Read,
        0,
        g.points_expr(m),
        ThreadMap::Exclusive,
        ThreadMap::Exclusive,
        (md, md),
    );
    calc.term(
        bin_of,
        AccessKind::Write,
        0,
        j_expr(),
        ThreadMap::Exclusive,
        ThreadMap::Exclusive,
        (m, m),
    );
    calc.contract.global_atomics = Some(0);

    // bin_histogram: one atomic bump of a bin counter per point.
    let mut hist = AccessPlan::new("bin_histogram", SM_TPB as u32, point_blocks);
    let bin_of = hist.buffer("bin_of", Scope::Global, 4, m);
    let counts = hist.buffer("bin_counts", Scope::Global, 4, nb + 1);
    hist.term(
        bin_of,
        AccessKind::Read,
        0,
        j_expr(),
        ThreadMap::Exclusive,
        ThreadMap::Exclusive,
        (m, m),
    );
    hist.term(
        counts,
        AccessKind::Atomic,
        0,
        bin_expr(),
        ThreadMap::Overlapping,
        ThreadMap::Overlapping,
        (m, m),
    );
    hist.contract.global_atomics = Some(m);

    // bin_scan: serial exclusive scan — reads cnt[b], writes cnt[b+1],
    // all from one thread of one block, so the read/write overlap on
    // bin_counts carries no race.
    let mut scan = AccessPlan::new("bin_scan", 32, 1);
    let counts = scan.buffer("bin_counts", Scope::Global, 4, nb + 1);
    scan.term(
        counts,
        AccessKind::Read,
        0,
        bin_expr(),
        ThreadMap::Single,
        ThreadMap::Single,
        (nb, nb),
    );
    scan.term(
        counts,
        AccessKind::Write,
        0,
        IndexExpr::new(1).dim(DimTerm::var(1, 0, nb as i64 - 1)),
        ThreadMap::Single,
        ThreadMap::Single,
        (nb, nb),
    );
    scan.contract.global_atomics = Some(0);

    // bin_scatter: atomic cursor bump per point, then a write into the
    // point's unique permutation slot.
    let mut scat = AccessPlan::new("bin_scatter", SM_TPB as u32, point_blocks);
    let bin_of = scat.buffer("bin_of", Scope::Global, 4, m);
    let cursor = scat.buffer("bin_cursor", Scope::Global, 4, nb);
    let perm = scat.buffer("perm", Scope::Global, 4, m);
    scat.term(
        bin_of,
        AccessKind::Read,
        0,
        j_expr(),
        ThreadMap::Exclusive,
        ThreadMap::Exclusive,
        (m, m),
    );
    scat.term(
        cursor,
        AccessKind::Atomic,
        0,
        bin_expr(),
        ThreadMap::Overlapping,
        ThreadMap::Overlapping,
        (m, m),
    );
    scat.term(
        perm,
        AccessKind::Write,
        0,
        j_expr(),
        ThreadMap::Exclusive,
        ThreadMap::Exclusive,
        (m, m),
    );
    scat.contract.global_atomics = Some(m);

    vec![calc, hist, scan, scat]
}

/// Negative control: a GM spread whose footprint indices were "never
/// wrapped" — the raw `[-w, n-1+w]` halo range escapes the grid on both
/// edges, which the bounds pass must flag (AP001). Mirrors the dynamic
/// checker's `spread_gm_racy` control: proof the verifier is not
/// vacuously green.
#[doc(hidden)]
pub fn spread_gm_oob_plan(g: &PlanGeometry, npts: usize) -> AccessPlan {
    let mut p = spread_gm_plan(g, npts, "spread_GM_oob");
    let grid_term = p
        .terms
        .iter_mut()
        .find(|t| t.kind == AccessKind::Atomic)
        .expect("GM plan has a fine-grid atomic term");
    grid_term.expr = g.fine_grid_expr(false);
    p
}

/// Negative control: a GM spread whose contract declares zero global
/// atomics while the plan proves `2·m·w^d` of them — the
/// under-declared-contract drift the static contract pass must flag
/// (AP003).
#[doc(hidden)]
pub fn spread_gm_underdeclared_plan(g: &PlanGeometry, npts: usize) -> AccessPlan {
    let mut p = spread_gm_plan(g, npts, "spread_GM_underdeclared");
    p.contract.global_atomics = Some(0);
    p
}

/// Negative control: the static shape of `spread_gm_racy` — fine-grid
/// updates as plain writes from overlapping threads, which the race
/// pass must flag (AP002) just as the dynamic checker flags the traced
/// variant.
#[doc(hidden)]
pub fn spread_gm_racy_plan(g: &PlanGeometry, npts: usize) -> AccessPlan {
    let mut p = spread_gm_plan(g, npts, "spread_GM_racy");
    let grid_term = p
        .terms
        .iter_mut()
        .find(|t| t.kind == AccessKind::Atomic)
        .expect("GM plan has a fine-grid atomic term");
    grid_term.kind = AccessKind::Write;
    p.contract.global_atomics = Some(0);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceProps;

    const M: usize = 1000;

    fn geom(spec: &TransformSpec) -> PlanGeometry {
        PlanGeometry::from_spec(spec, &Tuning::default(), 49_152).unwrap()
    }

    #[test]
    fn remark2_infeasible_explicit_sm_is_an_error() {
        let spec = TransformSpec::type1(&[32, 32, 32])
            .eps(1e-8)
            .method(nufft_common::spec::Method::Sm); // 3D f64 w=9: infeasible
        assert!(PlanGeometry::from_spec(&spec, &Tuning::default(), 49_152).is_err());
        // ...while Auto degrades to GM-sort
        let auto = TransformSpec::type1(&[32, 32, 32]).eps(1e-8);
        assert_eq!(geom(&auto).method, Method::GmSort);
    }

    #[test]
    fn shipped_plans_are_clean_across_methods() {
        let props = DeviceProps::v100();
        for method in [
            nufft_common::spec::Method::Gm,
            nufft_common::spec::Method::GmSort,
            nufft_common::spec::Method::Sm,
        ] {
            let spec = TransformSpec::type1(&[64, 64])
                .eps(1e-5)
                .precision(Precision::F32)
                .method(method);
            let g = geom(&spec);
            for plan in plans_for(&g, M) {
                let findings = plan.check_all(&props, 49_000);
                assert!(
                    findings.iter().all(|f| !f.is_error()),
                    "{}: {:?}",
                    plan.kernel,
                    findings
                );
            }
        }
    }

    #[test]
    fn negative_controls_are_flagged() {
        let spec = TransformSpec::type1(&[64, 64])
            .eps(1e-5)
            .precision(Precision::F32);
        let g = geom(&spec);
        let oob = spread_gm_oob_plan(&g, M).check_bounds();
        assert!(oob.iter().any(|f| f.id == "AP001"), "{oob:?}");
        let under = spread_gm_underdeclared_plan(&g, M).check_contract();
        assert!(under.iter().any(|f| f.id == "AP003"), "{under:?}");
        let racy = spread_gm_racy_plan(&g, M).check_races();
        assert!(racy.iter().any(|f| f.id == "AP002"), "{racy:?}");
    }

    #[test]
    fn prime_fine_grid_shapes_stay_bounds_safe() {
        use nufft_common::smooth::FineSizing;
        let spec = TransformSpec::type1(&[37, 16])
            .eps(1e-6)
            .precision(Precision::F32)
            .fine_sizing(FineSizing::Exact);
        let g = geom(&spec);
        assert_eq!(g.fine.n[0], 74); // exact 2x, not rounded to 5-smooth
        let props = DeviceProps::v100();
        for plan in plans_for(&g, M) {
            let findings = plan.check_all(&props, 49_000);
            assert!(
                findings.iter().all(|f| !f.is_error()),
                "{}: {:?}",
                plan.kernel,
                findings
            );
        }
    }

    #[test]
    fn sm_shared_footprint_matches_remark2_formula() {
        let spec = TransformSpec::type1(&[64, 64])
            .eps(1e-5)
            .precision(Precision::F32)
            .method(nufft_common::spec::Method::Sm);
        let g = geom(&spec);
        let plan = spread_sm_plan(&g, M);
        assert_eq!(
            plan.shared_bytes,
            crate::opts::sm_shared_bytes(g.bin_size, g.dim, g.kernel.w, g.complex_bytes)
        );
    }
}
