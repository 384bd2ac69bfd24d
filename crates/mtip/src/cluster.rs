//! Multi-rank, multi-GPU work management (paper Sec. V-A/B).
//!
//! The production code uses MPI (`mpi4py`) with one process per rank and
//! round-robin GPU assignment; scatter before slicing, reduce after
//! merging. Here each rank is an OS thread with its own simulated
//! [`Device`]; the whole-node wall clock follows from the single-queue
//! contention model: ranks sharing a GPU serialize on it, so the wall
//! time of a stage is `max over GPUs of (sum of that GPU's ranks'
//! times)`. With at most one rank per GPU this reduces to the max over
//! ranks — ideal weak scaling — and beyond one rank per GPU it grows
//! linearly, reproducing the deterioration in the paper's Fig. 9.

use crate::geometry::{Rotation, SliceGeometry};
use cufinufft::Plan;
use gpu_sim::Device;
use nufft_common::complex::Complex;
use nufft_common::workload::Points;
use nufft_common::TransformType;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A compute-node description.
#[derive(Copy, Clone, Debug)]
pub struct Node {
    pub name: &'static str,
    pub gpus: usize,
}

impl Node {
    /// NERSC Cori GPU: 8 V100 per node.
    pub fn cori_gpu() -> Self {
        Node {
            name: "Cori GPU",
            gpus: 8,
        }
    }

    /// OLCF Summit: 6 V100 per node.
    pub fn summit() -> Self {
        Node {
            name: "Summit",
            gpus: 6,
        }
    }
}

/// The NUFFT workload one rank executes per M-TIP iteration (paper
/// Table II rows).
#[derive(Copy, Clone, Debug)]
pub struct RankTask {
    /// Uniform grid size per dim.
    pub n_grid: usize,
    /// Nonuniform points per rank.
    pub m: usize,
    /// Transform type (slicing = type 2, merging = type 1).
    pub ttype: TransformType,
    /// How many transforms per iteration (merging does two).
    pub transforms: usize,
    /// NUFFT tolerance.
    pub eps: f64,
}

impl RankTask {
    /// Table II "Slicing" row (optionally scaled down by `scale` to keep
    /// the functional simulation tractable; timings are per-point linear
    /// so ratios are preserved).
    pub fn slicing(scale: usize) -> Self {
        RankTask {
            n_grid: 41,
            m: 1_020_000 / scale.max(1),
            ttype: TransformType::Type2,
            transforms: 1,
            eps: 1e-12,
        }
    }

    /// Table II "Merging" row.
    pub fn merging(scale: usize) -> Self {
        RankTask {
            n_grid: 81,
            m: 16_400_000 / scale.max(1),
            ttype: TransformType::Type1,
            transforms: 2,
            eps: 1e-12,
        }
    }
}

/// Timing of one rank's stage work, in simulated seconds.
#[derive(Copy, Clone, Debug, Default)]
pub struct RankTiming {
    /// Plan + point transfer + sorting ("setup": crosses in Fig. 9).
    pub setup: f64,
    /// NUFFT execution ("exec": squares in Fig. 9).
    pub exec: f64,
    /// Host-device data movement for inputs/outputs.
    pub transfer: f64,
}

impl RankTiming {
    pub fn total(&self) -> f64 {
        self.setup + self.exec + self.transfer
    }
}

/// Run one rank's task on a dedicated simulated device and report
/// stage timings. Points are Ewald-slice samples at random orientations
/// (density and geometry matching the application, not "rand" noise).
pub fn run_rank(task: &RankTask, seed: u64) -> RankTiming {
    let dev = Device::v100();
    dev.set_record_timeline(false);
    let n = task.n_grid;
    // build slice-structured points covering m samples
    let n_det = (task.m as f64).sqrt().sqrt().ceil() as usize * 4; // ~detector-ish tiling
    let geom = SliceGeometry {
        n_det: n_det.max(8),
        q_max: 2.0,
        k0: 10.0,
    };
    let per_slice = geom.points_per_slice();
    let n_slices = task.m.div_ceil(per_slice);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = [Vec::new(), Vec::new(), Vec::new()];
    'outer: for _ in 0..n_slices {
        let rot = Rotation::random(&mut rng);
        for q in geom.slice_points(&rot) {
            if coords[0].len() >= task.m {
                break 'outer;
            }
            coords[0].push(q[0]);
            coords[1].push(q[1]);
            coords[2].push(q[2]);
        }
    }
    let pts = Points { coords, dim: 3 };
    let iflag = match task.ttype {
        TransformType::Type1 => 1,
        TransformType::Type2 => -1,
    };
    let mut plan = Plan::<f64>::builder(task.ttype, &[n, n, n])
        .iflag(iflag)
        .eps(task.eps)
        .build(&dev)
        .expect("rank plan");
    plan.set_pts(&pts).expect("rank set_pts");
    let t_after_setup = plan.timings();
    let setup = t_after_setup.alloc + t_after_setup.h2d_pts + t_after_setup.sort;
    let n_modes = n * n * n;
    let (in_len, out_len) = match task.ttype {
        TransformType::Type1 => (pts.len(), n_modes),
        TransformType::Type2 => (n_modes, pts.len()),
    };
    let input = vec![Complex::new(1.0, 0.5); in_len];
    let mut output = vec![Complex::<f64>::ZERO; out_len];
    let mut exec = 0.0;
    let mut transfer = 0.0;
    for _ in 0..task.transforms {
        plan.execute(&input, &mut output).expect("rank execute");
        let t = plan.timings();
        exec += t.exec();
        transfer += t.h2d_data + t.d2h + t.alloc - t_after_setup.alloc;
    }
    RankTiming {
        setup,
        exec,
        transfer,
    }
}

/// One point of a weak-scaling sweep.
#[derive(Copy, Clone, Debug)]
pub struct ScalingPoint {
    pub ranks: usize,
    /// Wall-clock seconds for the stage across the node (single-queue
    /// contention per GPU).
    pub wall_total: f64,
    pub wall_setup: f64,
    pub wall_exec: f64,
}

/// Weak-scaling sweep: each rank gets the same `task`; ranks are
/// assigned to the node's GPUs round-robin. Each rank's problem is
/// simulated once on a worker thread with an independent device; the
/// scaling points for every rank count are then assembled from the
/// single-queue contention model (ranks are independent, so the r-rank
/// configuration uses the first r rank timings).
pub fn weak_scaling(
    node: &Node,
    task: &RankTask,
    max_ranks: usize,
    seed: u64,
) -> Vec<ScalingPoint> {
    // ranks run statistically identical problems (same sizes, different
    // random orientations), so a handful of distinct simulations
    // suffices; reuse them cyclically for large rank counts
    let distinct = max_ranks.min(4);
    let sampled: Vec<RankTiming> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..distinct)
            .map(|r| s.spawn(move || run_rank(task, seed + r as u64)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let timings: Vec<RankTiming> = (0..max_ranks).map(|r| sampled[r % distinct]).collect();
    (1..=max_ranks)
        .map(|ranks| {
            // round-robin assignment; each GPU serializes its ranks
            let mut per_gpu_total = vec![0.0f64; node.gpus];
            let mut per_gpu_setup = vec![0.0f64; node.gpus];
            let mut per_gpu_exec = vec![0.0f64; node.gpus];
            for (r, t) in timings.iter().take(ranks).enumerate() {
                let g = r % node.gpus;
                per_gpu_total[g] += t.total();
                per_gpu_setup[g] += t.setup;
                per_gpu_exec[g] += t.exec;
            }
            ScalingPoint {
                ranks,
                wall_total: per_gpu_total.iter().cloned().fold(0.0, f64::max),
                wall_setup: per_gpu_setup.iter().cloned().fold(0.0, f64::max),
                wall_exec: per_gpu_exec.iter().cloned().fold(0.0, f64::max),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_task() -> RankTask {
        RankTask {
            n_grid: 16,
            m: 20_000,
            ttype: TransformType::Type2,
            transforms: 1,
            eps: 1e-6,
        }
    }

    #[test]
    fn rank_timing_components_positive() {
        let t = run_rank(&small_task(), 3);
        assert!(t.setup > 0.0);
        assert!(t.exec > 0.0);
        assert!(t.transfer > 0.0);
    }

    #[test]
    fn weak_scaling_flat_then_degrading() {
        let node = Node {
            name: "test-node",
            gpus: 2,
        };
        let pts = weak_scaling(&node, &small_task(), 4, 11);
        assert_eq!(pts.len(), 4);
        // flat up to #GPUs: 2 ranks no slower than ~1.3x of 1 rank
        assert!(pts[1].wall_total < 1.3 * pts[0].wall_total);
        // 4 ranks on 2 GPUs: roughly 2x one rank per GPU
        assert!(
            pts[3].wall_total > 1.6 * pts[1].wall_total,
            "expected deterioration: {:?}",
            pts
        );
    }

    #[test]
    fn table2_tasks_shapes() {
        let s = RankTask::slicing(16);
        let m = RankTask::merging(16);
        assert_eq!(s.n_grid, 41);
        assert_eq!(m.n_grid, 81);
        assert_eq!(m.transforms, 2);
        assert!(m.m > s.m);
        // density rho (eq. 16) of the unscaled tasks matches Table II
        let rho_s = 1_020_000.0 / (2.0f64 * 41.0).powi(3);
        let rho_m = 16_400_000.0 / (2.0f64 * 81.0).powi(3);
        assert!((rho_s - 1.85).abs() < 0.1, "{rho_s}");
        assert!((rho_m - 3.85).abs() < 0.1, "{rho_m}");
    }

    #[test]
    fn node_definitions() {
        assert_eq!(Node::cori_gpu().gpus, 8);
        assert_eq!(Node::summit().gpus, 6);
    }
}
