//! A CPU implementation of the nonuniform FFT in the style of FINUFFT —
//! the paper's multithreaded CPU comparator and this workspace's
//! high-accuracy ground truth.
//!
//! Supports type 1 (nonuniform -> uniform) and type 2 (uniform ->
//! nonuniform) transforms in 1, 2 and 3 dimensions (1D is a cuFINUFFT
//! "future work" item the CPU library already has), in f32 or f64, with
//! the plan/set-points/execute interface of the guru API. Spreading uses
//! bin-sorted subproblems merged without locks in a fixed chunk order,
//! so type-1 output is bitwise the same for every thread count;
//! interpolation walks the same bin-sorted order in parallel and
//! scatters to user order. The [`model`] module prices the same
//! operations on the paper's Xeon testbeds so benchmarks can compare
//! against the GPU cost model on one timing basis.

#![forbid(unsafe_code)]

pub mod deconv;
pub mod model;
pub mod plan;
pub mod sort;
pub mod spread;
pub mod type3;

pub use model::CpuModel;
pub use plan::{
    nufft1d1, nufft1d2, nufft2d1, nufft2d2, nufft3d1, nufft3d2, Opts, Plan, StageTimings,
    TransformType,
};
pub use type3::{nufft1d3, nufft2d3, Type3Plan};
