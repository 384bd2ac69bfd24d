//! Analytic cost model for the multithreaded CPU library.
//!
//! Benchmarks need a *consistent timing basis* across libraries (see
//! DESIGN.md §2): GPU codes are priced by the `gpu-sim` model, so FINUFFT
//! is priced by an operation-count model of the paper's CPU testbeds — a
//! dual-socket Xeon E5-2680 v4 (28 threads) for Figs. 4-7/Table I and an
//! Intel Skylake node (40 threads) for Table II. Constants are fitted to
//! the absolute FINUFFT timings the paper reports: Table I implies 2.84 s
//! (w=3) and 3.4 s (w=6) for 3D type 1 at M=1.34e8 single precision, and
//! Table II implies ~49 ns/pt at w=13 double on 40 Skylake threads.
//! Jointly these pin a per-point constant of ~1.3k cycles and a *small*
//! per-cell marginal (~1.5 cycles single) — FINUFFT's vectorized
//! piecewise-polynomial spreading is nearly flat in kernel width, and the
//! model reflects that (kernel evaluation is folded into the per-point
//! constant).

use nufft_common::real::Real;
use nufft_common::shape::Shape;

/// Precision selector mirroring `gpu_sim::Precision` without the
/// dependency.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CpuPrecision {
    Single,
    Double,
}

impl CpuPrecision {
    /// The precision of a concrete scalar type.
    pub fn of<T: Real>() -> Self {
        if T::IS_DOUBLE {
            CpuPrecision::Double
        } else {
            CpuPrecision::Single
        }
    }
}

/// CPU hardware/cost constants.
#[derive(Clone, Debug)]
pub struct CpuModel {
    pub name: &'static str,
    pub threads: usize,
    pub clock_hz: f64,
    /// Sustained memory bandwidth, bytes/s (dual-socket aggregate).
    pub mem_bw: f64,
    /// Fixed per-point overhead of spreading, in cycles (index math,
    /// kernel-row evaluation setup, loop control).
    pub c_point: f64,
    /// Per-grid-cell cost of a spread update (read-modify-write),
    /// cycles, single precision.
    pub c_cell_spread: f64,
    /// Per-grid-cell cost of an interpolation read-accumulate, cycles.
    pub c_cell_interp: f64,
    /// Per-kernel-evaluation cost (exp + sqrt), cycles.
    pub c_eval: f64,
    /// FFT cycles per element per log2(size) (FFTW-class).
    pub c_fft: f64,
    /// Sort cost per point, cycles.
    pub c_sort: f64,
}

impl CpuModel {
    /// The paper's benchmark CPU: 2x Intel Xeon E5-2680 v4, 28 threads.
    pub fn xeon_e5_2680v4() -> Self {
        CpuModel {
            name: "2x Xeon E5-2680 v4, 28 threads (modeled)",
            threads: 28,
            clock_hz: 2.4e9,
            mem_bw: 130.0e9,
            c_point: 1260.0,
            c_cell_spread: 1.45,
            c_cell_interp: 1.1,
            c_eval: 0.0,
            c_fft: 4.5,
            c_sort: 40.0,
        }
    }

    /// Table II's CPU: Intel Skylake (Cori GPU node host), 40 threads.
    pub fn skylake_40t() -> Self {
        CpuModel {
            name: "Intel Skylake, 40 threads (modeled)",
            threads: 40,
            clock_hz: 2.4e9,
            mem_bw: 180.0e9,
            ..Self::xeon_e5_2680v4()
        }
    }

    /// (per-point, per-cell) cost multipliers for the precision: doubles
    /// halve the SIMD width (1.8x per cell) and modestly inflate the
    /// fixed per-point work (1.3x).
    fn prec_scale(prec: CpuPrecision) -> (f64, f64) {
        match prec {
            CpuPrecision::Single => (1.0, 1.0),
            CpuPrecision::Double => (1.3, 1.8),
        }
    }

    fn cycles_to_secs(&self, cycles: f64) -> f64 {
        cycles / (self.threads as f64 * self.clock_hz)
    }

    /// Spreading time for `m` points, kernel width `w`, `dim` dimensions.
    pub fn spread_time(&self, m: usize, w: usize, dim: usize, prec: CpuPrecision) -> f64 {
        let cells = (w as f64).powi(dim as i32);
        let (sa, sb) = Self::prec_scale(prec);
        let cycles = m as f64
            * (self.c_point * sa
                + cells * self.c_cell_spread * sb
                + dim as f64 * w as f64 * self.c_eval);
        // FINUFFT spreads through cache-blocked subgrids, so DRAM sees
        // the point data plus roughly one pass over the touched region,
        // not one transaction per cell update
        let bytes = m as f64 * (24.0 * sb + 16.0);
        self.cycles_to_secs(cycles).max(bytes / self.mem_bw)
    }

    /// Interpolation time (read-only gather).
    pub fn interp_time(&self, m: usize, w: usize, dim: usize, prec: CpuPrecision) -> f64 {
        let cells = (w as f64).powi(dim as i32);
        let (sa, sb) = Self::prec_scale(prec);
        let cycles = m as f64
            * (self.c_point * sa
                + cells * self.c_cell_interp * sb
                + dim as f64 * w as f64 * self.c_eval);
        let bytes = m as f64 * (24.0 * sb + 16.0);
        self.cycles_to_secs(cycles).max(bytes / self.mem_bw)
    }

    /// Multi-dimensional FFT of the fine grid.
    pub fn fft_time(&self, fine: Shape, prec: CpuPrecision) -> f64 {
        let n = fine.total() as f64;
        let (_, sb) = Self::prec_scale(prec);
        let cycles = self.c_fft * sb * n * n.log2().max(1.0);
        let bytes = n * 8.0 * sb * 2.0 * fine.dim as f64; // one r/w pass per axis
        self.cycles_to_secs(cycles).max(bytes / self.mem_bw)
    }

    /// Deconvolution + mode copy.
    pub fn deconv_time(&self, modes: Shape, prec: CpuPrecision) -> f64 {
        let n = modes.total() as f64;
        let (_, sb) = Self::prec_scale(prec);
        self.cycles_to_secs(n * 6.0)
            .max(n * 8.0 * sb * 2.0 / self.mem_bw)
    }

    /// Bin-sort time (the `set_pts` stage).
    pub fn sort_time(&self, m: usize) -> f64 {
        self.cycles_to_secs(m as f64 * self.c_sort)
            .max(m as f64 * 16.0 / self.mem_bw)
    }

    /// "exec" time of a type 1 transform (points already sorted).
    pub fn type1_exec(
        &self,
        m: usize,
        w: usize,
        modes: Shape,
        fine: Shape,
        prec: CpuPrecision,
    ) -> f64 {
        self.spread_time(m, w, modes.dim, prec)
            + self.fft_time(fine, prec)
            + self.deconv_time(modes, prec)
    }

    /// "exec" time of a type 2 transform.
    pub fn type2_exec(
        &self,
        m: usize,
        w: usize,
        modes: Shape,
        fine: Shape,
        prec: CpuPrecision,
    ) -> f64 {
        self.interp_time(m, w, modes.dim, prec)
            + self.fft_time(fine, prec)
            + self.deconv_time(modes, prec)
    }

    /// "total" time = sort + exec (the CPU library has no device
    /// transfers, matching how the paper reports FINUFFT's "total").
    pub fn total(&self, exec: f64, m: usize) -> f64 {
        self.sort_time(m) + exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_calibration_anchors() {
        // Paper Table I implies FINUFFT 3D type-1 exec of ~2.84 s (w=3)
        // and ~3.4 s (w=6) at N=256^3, M=1.34e8. The model should land
        // within a factor ~2 of both.
        let m = CpuModel::xeon_e5_2680v4();
        let modes = Shape::d3(256, 256, 256);
        let fine = Shape::d3(512, 512, 512);
        let t_w3 = m.type1_exec(134_000_000, 3, modes, fine, CpuPrecision::Single);
        let t_w6 = m.type1_exec(134_000_000, 6, modes, fine, CpuPrecision::Single);
        assert!(t_w3 > 1.4 && t_w3 < 5.7, "w=3: {t_w3}");
        assert!(t_w6 > 1.7 && t_w6 < 6.8, "w=6: {t_w6}");
        assert!(t_w6 > t_w3);
        // Table II anchor: 3D double w=13 on 40-thread Skylake lands near
        // the paper's ~49 ns/pt (1.62 s for two transforms of 1.64e7 pts)
        let sky = CpuModel::skylake_40t();
        let t13 = sky.type1_exec(
            16_400_000,
            13,
            Shape::d3(81, 81, 81),
            Shape::d3(162, 162, 162),
            CpuPrecision::Double,
        );
        assert!(t13 > 0.3 && t13 < 2.5, "w=13 f64: {t13}");
    }

    #[test]
    fn double_precision_is_slower() {
        let m = CpuModel::xeon_e5_2680v4();
        let modes = Shape::d2(512, 512);
        let fine = Shape::d2(1024, 1024);
        let s = m.type1_exec(1 << 20, 6, modes, fine, CpuPrecision::Single);
        let d = m.type1_exec(1 << 20, 6, modes, fine, CpuPrecision::Double);
        assert!(d > s);
    }

    #[test]
    fn more_threads_scale_compute() {
        let base = CpuModel::xeon_e5_2680v4();
        let mut big = base.clone();
        big.threads = 56;
        let modes = Shape::d2(256, 256);
        let fine = Shape::d2(512, 512);
        // small problem (compute-bound): should scale close to 2x
        let t1 = base.spread_time(100_000, 6, 2, CpuPrecision::Single);
        let t2 = big.spread_time(100_000, 6, 2, CpuPrecision::Single);
        assert!(t2 < t1);
        let _ = (modes, fine);
    }

    #[test]
    fn interp_cheaper_than_spread() {
        let m = CpuModel::xeon_e5_2680v4();
        let s = m.spread_time(1 << 22, 6, 2, CpuPrecision::Single);
        let i = m.interp_time(1 << 22, 6, 2, CpuPrecision::Single);
        assert!(i <= s);
    }

    #[test]
    fn exec_components_positive() {
        let m = CpuModel::skylake_40t();
        let modes = Shape::d3(81, 81, 81);
        let fine = Shape::d3(162, 162, 162);
        let t = m.type1_exec(16_400_000, 13, modes, fine, CpuPrecision::Double);
        assert!(t > 0.0 && t.is_finite());
        assert!(m.total(t, 16_400_000) > t);
    }
}
