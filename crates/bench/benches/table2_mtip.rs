//! Table II: M-TIP NUFFT stage times — CPU vs single GPU vs whole node.
//!
//! Per-rank problem sizes follow the paper (slicing: type 2, N=41,
//! M=1.02e6, eps=1e-12; merging: 2x type 1, N=81, M=1.64e7), scaled down
//! by a factor (default 16; 1 with BENCH_LARGE=1 for slicing) to keep
//! the functional simulation tractable — stage times are per-point
//! linear so the CPU/GPU ratios are scale-stable. The CPU comparator is
//! the 40-thread Skylake model; whole-node rows use one rank per GPU
//! (Cori GPU: 8, Summit: 6).

use bench::Csv;
use finufft_cpu::CpuModel;
use mtip::{Node, RankTask};
use nufft_common::Precision;
use nufft_common::Shape;

fn cpu_time(task: &RankTask, model: &CpuModel) -> f64 {
    let n = task.n_grid;
    let modes = Shape::d3(n, n, n);
    let fine = modes.map(|_, v| nufft_common::smooth::fine_grid_size(v, 2.0, 13));
    let w = 13; // eps = 1e-12 double
    let per = match task.ttype {
        nufft_common::TransformType::Type1 => {
            model.type1_exec(task.m, w, modes, fine, Precision::F64)
        }
        nufft_common::TransformType::Type2 => {
            model.type2_exec(task.m, w, modes, fine, Precision::F64)
        }
    };
    task.transforms as f64 * (per + model.sort_time(task.m) / task.transforms as f64)
}

fn main() {
    let scale = if bench::large_mode() { 4 } else { 16 };
    let mut csv = Csv::create(
        "table2_mtip.csv",
        "task,node,parallelism,cpu_s,gpu_s,speedup",
    );
    println!("# Table II — M-TIP NUFFT stage wall times per iteration");
    println!("# per-rank sizes scaled by 1/{scale} (ratios are scale-stable)\n");
    println!(
        "{:>18} {:>10} {:>14} | {:>10} {:>10} {:>8}",
        "Task", "Node", "Parallelism", "CPU (s)", "GPU (s)", "speedup"
    );
    let skylake = CpuModel::skylake_40t();
    for (name, task) in [
        ("Slicing (type 2)", RankTask::slicing(scale)),
        ("Merging (type 1)", RankTask::merging(scale)),
    ] {
        let rank_t = mtip::cluster::run_rank(&task, 5);
        let gpu_single = rank_t.total();
        // one extra rank simulation to sample the (tiny) rank-to-rank
        // spread; whole-node wall = max over one-rank-per-GPU
        let wall = gpu_single.max(mtip::cluster::run_rank(&task, 6).total());
        let cpu_single = cpu_time(&task, &skylake);
        println!(
            "{:>18} {:>10} {:>14} | {:>10.4} {:>10.4} {:>7.1}x",
            name,
            "-",
            "single-rank",
            cpu_single,
            gpu_single,
            cpu_single / gpu_single
        );
        csv.row(&format!(
            "{name},-,single-rank,{cpu_single:.5},{gpu_single:.5},{:.2}",
            cpu_single / gpu_single
        ));
        for node in [Node::cori_gpu(), Node::summit()] {
            // whole-node: problem scaled up by #GPUs, one rank per GPU.
            // Ranks are identical, so the wall clock is the max over a
            // small sample of rank simulations (the single-queue model
            // puts exactly one rank on each GPU).
            let cpu_whole = cpu_single * node.gpus as f64;
            println!(
                "{:>18} {:>10} {:>14} | {:>10.4} {:>10.4} {:>7.1}x",
                name,
                node.name,
                format!("whole-node x{}", node.gpus),
                cpu_whole,
                wall,
                cpu_whole / wall
            );
            csv.row(&format!(
                "{name},{},whole-node,{cpu_whole:.5},{wall:.5},{:.2}",
                node.name,
                cpu_whole / wall
            ));
        }
    }
    println!("\n# paper anchors: single-rank GPU ~0.9-1.5x CPU; whole-node 6-18x;");
    println!("# densities rho = 1.86 (slicing) and 3.85 (merging) as in Table II.");
}
