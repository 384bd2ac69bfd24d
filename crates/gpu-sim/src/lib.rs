//! A functional + performance simulator of a CUDA-class GPU.
//!
//! This crate is the substitution for the NVIDIA V100 the paper benchmarks
//! on (see DESIGN.md §2). Kernels execute *functionally* as host Rust over
//! buffer slices, while reporting their memory behaviour at warp/block
//! granularity; the device prices each launch with a model whose terms map
//! one-to-one onto the effects cuFINUFFT's algorithms are designed around:
//!
//! * **coalescing** — warp accesses are deduplicated into 32-byte sectors,
//!   so scattered access (unsorted GM spreading) costs up to 32x the
//!   bandwidth of sorted access (GM-sort);
//! * **atomic contention** — global atomics are histogrammed per sector
//!   and the hottest sector serializes the launch (why GM collapses on
//!   clustered points);
//! * **shared memory** — cheap per-block atomics with a 48 KiB capacity
//!   limit (why SM wins, and why it is infeasible for 3D double precision
//!   at large kernel widths — paper Remark 2);
//! * **load balance** — per-block serial costs are list-scheduled onto SM
//!   slots, so one overloaded block stretches the makespan (why the
//!   `M_sub` subproblem cap matters).
//!
//! Host-device transfers, allocations, and bulk data-parallel passes are
//! priced by bandwidth/latency models so the paper's "total" and
//! "total+mem" timings can be reconstructed.

#![forbid(unsafe_code)]

pub mod access;
pub mod access_plan;
pub mod device;
pub mod faults;
pub mod hazard;
pub mod kernel;
pub mod props;
pub mod report;
pub mod sched;
pub mod stream;

pub use access::{AccessRecord, BufId, BufferDecl, Contract, HazardMode, KernelTrace, Scope};
pub use access_plan::{
    AccessPlan, AccessTerm, DimTerm, IndexExpr, PlanBuffer, ThreadMap, MAX_THREADS_PER_BLOCK,
};
pub use device::{Device, GpuBuffer, OpKind, TimelineRecord};
pub use faults::{DeviceFault, FaultKind, FaultMode, FaultPlan, FaultSite};
pub use kernel::{BlockAcc, Breakdown, Kernel, LaunchConfig, LaunchReport};
pub use props::{DeviceProps, Precision};
pub use report::{overlap_stats, profile_table, summarize, OpSummary, OverlapStats};
pub use stream::{sync_streams, EngineState, Stream, StreamOp};
// Re-export the tracing session type so downstream crates can attach a
// trace to a `Device` without naming `nufft-trace` directly, and the
// typed hazard-report vocabulary from `nufft-common` likewise.
pub use nufft_common::hazard::{
    AccessKind, AccessSite, ContractViolation, Hazard, HazardReport, KernelHazardReport,
};
pub use nufft_trace::{Lane, Trace, TraceReport};
