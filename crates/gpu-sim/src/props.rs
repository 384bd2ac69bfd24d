//! Hardware properties of the simulated device.
//!
//! Constants are calibrated to the NVIDIA Tesla V100 used throughout the
//! paper (900 GB/s HBM2, 80 SMs, 49 kB usable shared memory per thread
//! block, PCIe 3.0 x16 host link). The *relative* performance of the
//! spreading schemes emerges from counted work; these constants set the
//! absolute scale so throughputs land in the paper's regime
//! (~1e9 points/s for 2D spreading at w=6).

/// Working precision of a kernel: the transform-level enum, which the
/// cost model uses to pick FLOP rates and element sizes.
pub use nufft_common::spec::Precision;

/// Device description and cost-model constants.
#[derive(Clone, Debug)]
pub struct DeviceProps {
    pub name: &'static str,
    /// Number of streaming multiprocessors (V100: 80).
    pub sm_count: usize,
    /// Threads per warp (32 on every NVIDIA GPU).
    pub warp_size: usize,
    /// Usable shared memory per thread block in bytes. The paper quotes
    /// 49 kB (48 KiB + 1) for the V100; we use 49_152 (48 KiB) and keep the
    /// paper's 49_000 figure in the SM feasibility check of cufinufft.
    pub shared_mem_per_block: usize,
    /// Total device memory in bytes (V100 SXM2: 16 or 32 GB; we model 16).
    pub global_mem_bytes: usize,
    /// DRAM bandwidth in bytes/second (V100: 900 GB/s).
    pub dram_bw: f64,
    /// Peak single-precision throughput in FLOP/s (V100: ~14 TFLOP/s). The
    /// model applies an achievable-fraction derate internally.
    pub flops_f32: f64,
    /// Peak double-precision throughput (V100: ~7 TFLOP/s).
    pub flops_f64: f64,
    /// Fraction of peak FLOPs a memory-irregular kernel actually sustains.
    pub compute_efficiency: f64,
    /// Size in bytes of one global-memory transaction sector (32 B on
    /// Volta); coalescing is counted in these units.
    pub sector_bytes: usize,
    /// Serialized-atomic cost: seconds per global atomic landing on the
    /// *same* 32 B sector (the L2 must replay them back-to-back).
    pub t_global_atomic_same: f64,
    /// Seconds per shared-memory atomic to the same bank address within a
    /// block (far cheaper than global; resolved in the SM).
    pub t_shared_atomic_same: f64,
    /// Aggregate shared-memory *atomic* op throughput per SM (ops/s).
    /// Scattered read-modify-write updates with bank conflicts sustain
    /// well under one op per clock; calibrated against the paper's SM
    /// spread throughputs (~0.7 ns/pt in 2D, ~5-6 ns/pt in 3D at w=6).
    pub shared_ops_rate_per_sm: f64,
    /// Fixed kernel launch overhead in seconds.
    pub t_launch: f64,
    /// Host-device transfer bandwidth in bytes/s (PCIe 3.0 x16 ~ 12 GB/s).
    pub pcie_bw: f64,
    /// Per-transfer latency in seconds.
    pub pcie_latency: f64,
    /// cudaMalloc-style fixed allocation overhead in seconds.
    pub t_alloc: f64,
    /// L2 cache size in bytes (V100: 6 MB). Reads of a working set that
    /// fits in L2 are charged at the L2 rate instead of DRAM.
    pub l2_bytes: usize,
    /// L2 bandwidth in bytes/s (~2.2x DRAM on Volta).
    pub l2_bw: f64,
    /// DRAM line (miss) granularity in bytes: an L2 miss transfers a full
    /// line regardless of how few bytes the warp wanted.
    pub line_bytes: usize,
    /// Aggregate device throughput of global atomic operations resolved
    /// in L2 (ops/s), assuming no same-address contention.
    pub l2_atomic_rate: f64,
}

impl DeviceProps {
    /// The NVIDIA Tesla V100 (SXM2 16 GB) used in the paper's benchmarks.
    pub fn v100() -> Self {
        DeviceProps {
            name: "Tesla V100-SXM2 (simulated)",
            sm_count: 80,
            warp_size: 32,
            shared_mem_per_block: 49_152,
            global_mem_bytes: 16 * (1 << 30),
            dram_bw: 900.0e9,
            flops_f32: 14.0e12,
            flops_f64: 7.0e12,
            compute_efficiency: 0.35,
            sector_bytes: 32,
            t_global_atomic_same: 4.0e-9,
            t_shared_atomic_same: 0.25e-9,
            shared_ops_rate_per_sm: 2.2e9,
            t_launch: 3.0e-6,
            pcie_bw: 12.0e9,
            pcie_latency: 10.0e-6,
            t_alloc: 100.0e-6,
            l2_bytes: 6 << 20,
            l2_bw: 2000.0e9,
            line_bytes: 128,
            l2_atomic_rate: 3.0e11,
        }
    }

    /// A smaller GPU (half the SMs and bandwidth) — handy in tests to check
    /// that the model responds to hardware scaling in the right direction.
    pub fn half_v100() -> Self {
        let mut p = Self::v100();
        p.name = "half-V100 (simulated)";
        p.sm_count = 40;
        p.dram_bw /= 2.0;
        p.flops_f32 /= 2.0;
        p.flops_f64 /= 2.0;
        p.l2_bw /= 2.0;
        p
    }

    /// FLOP rate for a precision, after the achievable-fraction derate.
    pub fn flops(&self, prec: Precision) -> f64 {
        let peak = match prec {
            Precision::F32 => self.flops_f32,
            Precision::F64 => self.flops_f64,
        };
        peak * self.compute_efficiency
    }

    /// Per-SM share of the derated FLOP rate.
    pub fn sm_flops(&self, prec: Precision) -> f64 {
        self.flops(prec) / self.sm_count as f64
    }

    /// Per-SM share of DRAM bandwidth.
    pub fn sm_bw(&self) -> f64 {
        self.dram_bw / self.sm_count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_constants_sane() {
        let p = DeviceProps::v100();
        assert_eq!(p.sm_count, 80);
        assert_eq!(p.warp_size, 32);
        assert!(p.dram_bw > 8.0e11);
        assert!(p.flops_f32 > p.flops_f64);
        assert!(p.l2_bw > p.dram_bw);
        assert!(p.shared_mem_per_block >= 48 * 1024);
    }

    #[test]
    fn precision_byte_sizes() {
        assert_eq!(Precision::F32.real_bytes(), 4);
        assert_eq!(Precision::F64.real_bytes(), 8);
        assert_eq!(Precision::F32.complex_bytes(), 8);
        assert_eq!(Precision::F64.complex_bytes(), 16);
    }

    #[test]
    fn derated_flops_ordering() {
        let p = DeviceProps::v100();
        assert!(p.flops(Precision::F32) > p.flops(Precision::F64));
        assert!(p.flops(Precision::F32) < p.flops_f32);
        assert!(
            (p.sm_flops(Precision::F32) * p.sm_count as f64 - p.flops(Precision::F32)).abs() < 1.0
        );
    }

    #[test]
    fn half_gpu_is_slower() {
        let full = DeviceProps::v100();
        let half = DeviceProps::half_v100();
        assert!(half.dram_bw < full.dram_bw);
        assert_eq!(half.sm_count, full.sm_count / 2);
    }
}
