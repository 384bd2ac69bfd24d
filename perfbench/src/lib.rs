//! The repository's benchmark: four seeded workloads measured on two
//! clocks (host wall time and simulated V100 time), nine end-to-end
//! metrics from an untraced run and per-layer metrics from a separate
//! traced run. Everything is measured from outside the library crates,
//! through their public functions, hooks and counters.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to run it.

pub mod check;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod ops;
pub mod spans;
pub mod w_cpu;
pub mod w_serve;
pub mod w_t1;
pub mod w_t2t1;

use ops::{PlanWorkload, RunResult};

/// The workloads, by the name the command line uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    T1_3dF64Rand,
    T2T1_2dF32Cluster,
    Cpu3dF64Rand,
    Serve2dF32Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::T1_3dF64Rand,
        Workload::T2T1_2dF32Cluster,
        Workload::Cpu3dF64Rand,
        Workload::Serve2dF32Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::T1_3dF64Rand => w_t1::T1::NAME,
            Workload::T2T1_2dF32Cluster => w_t2t1::T2T1::NAME,
            Workload::Cpu3dF64Rand => w_cpu::Cpu::NAME,
            Workload::Serve2dF32Mixed => w_serve::NAME,
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One run: the end-to-end metrics when `traced` is false, the
    /// per-layer metrics when it is true.
    pub fn run(self, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
        fn go<W: PlanWorkload>(seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
            if traced {
                ops::run_traced::<W>(seed, seconds)
            } else {
                ops::run_untraced::<W>(seed, seconds)
            }
        }
        match self {
            Workload::T1_3dF64Rand => go::<w_t1::T1>(seed, seconds, traced),
            Workload::T2T1_2dF32Cluster => go::<w_t2t1::T2T1>(seed, seconds, traced),
            Workload::Cpu3dF64Rand => go::<w_cpu::Cpu>(seed, seconds, traced),
            Workload::Serve2dF32Mixed if traced => w_serve::run_traced(seed, seconds),
            Workload::Serve2dF32Mixed => w_serve::run_untraced(seed, seconds),
        }
    }
}
