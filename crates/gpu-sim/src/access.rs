//! Shadow-memory access tracing for instrumented kernels.
//!
//! When a [`crate::Device`] runs in [`HazardMode::Check`], each kernel
//! launch carries a [`KernelTrace`]: instrumented kernels register the
//! buffers they touch ([`KernelTrace::buffer`]) and log every read,
//! write, and atomic against them per (block, thread, sync-epoch). The
//! sync epoch is the count of [`barrier`](KernelTrace::barrier) calls —
//! the simulator's model of `__syncthreads` — the block has executed,
//! so two accesses by different threads of one block are *ordered* iff
//! their epochs differ. The resulting trace is analyzed by
//! [`crate::hazard::check`] at `launch_end`.
//!
//! Tracing granularity is a logical *element* chosen by the
//! instrumentation site (for complex grids: one real word, so the two
//! halves of a complex add stay distinct and atomic counts line up with
//! the performance model's per-word accounting).

use nufft_common::hazard::AccessKind;

/// Whether the device checks instrumented launches for data races and
/// contract drift. Off by default — tracing costs memory proportional to
/// the access count, so it is a debugging/CI mode, not a benchmark mode.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum HazardMode {
    /// No tracing; launches are priced as usual.
    #[default]
    Off,
    /// Trace every instrumented access and run the happens-before +
    /// contract checker on each launch, accumulating findings on the
    /// device (see `Device::hazard_findings`).
    Check,
}

/// Address space of a traced buffer. Determines which conflicts the
/// checker considers: shared buffers are private to a block (intra-block
/// analysis only), global buffers are additionally checked for
/// inter-block conflicts not mediated by atomics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scope {
    Shared,
    Global,
}

/// Handle to a buffer registered on a [`KernelTrace`]. Obtained from
/// [`KernelTrace::buffer`] (or `Kernel::trace_buffer`); cheap to copy
/// into inner loops.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BufId(pub(crate) u16);

/// A buffer declaration: name for reporting, scope for the conflict
/// rules, element size for footprint accounting.
#[derive(Clone, Debug)]
pub struct BufferDecl {
    pub name: String,
    pub scope: Scope,
    pub elem_bytes: usize,
}

/// One logged access.
#[derive(Copy, Clone, Debug)]
pub struct AccessRecord {
    pub buf: u16,
    pub kind: AccessKind,
    pub block: u32,
    pub thread: u32,
    pub epoch: u32,
    pub elem: u64,
}

/// The shadow-memory log of one kernel launch.
#[derive(Clone, Debug)]
pub struct KernelTrace {
    pub(crate) name: String,
    pub(crate) buffers: Vec<BufferDecl>,
    pub(crate) records: Vec<AccessRecord>,
    /// Current sync epoch per block id (advanced by `barrier`).
    epochs: Vec<u32>,
}

impl KernelTrace {
    pub fn new(name: &str) -> Self {
        KernelTrace {
            name: name.to_string(),
            buffers: Vec::new(),
            records: Vec::new(),
            epochs: Vec::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Register a named buffer; every access must reference the returned
    /// id. `elem_bytes` is the size of one traced element.
    pub fn buffer(&mut self, name: &str, scope: Scope, elem_bytes: usize) -> BufId {
        debug_assert!(
            self.buffers.len() < u16::MAX as usize,
            "too many traced buffers"
        );
        self.buffers.push(BufferDecl {
            name: name.to_string(),
            scope,
            elem_bytes: elem_bytes.max(1),
        });
        BufId((self.buffers.len() - 1) as u16)
    }

    fn epoch_of(&mut self, block: u32) -> u32 {
        let b = block as usize;
        if b >= self.epochs.len() {
            self.epochs.resize(b + 1, 0);
        }
        self.epochs[b]
    }

    /// Log one access by `thread` of `block` on element `elem` of `buf`,
    /// stamped with the block's current sync epoch.
    pub fn access(&mut self, buf: BufId, kind: AccessKind, block: u32, thread: u32, elem: u64) {
        let epoch = self.epoch_of(block);
        self.records.push(AccessRecord {
            buf: buf.0,
            kind,
            block,
            thread,
            epoch,
            elem,
        });
    }

    pub fn read(&mut self, buf: BufId, block: u32, thread: u32, elem: u64) {
        self.access(buf, AccessKind::Read, block, thread, elem);
    }

    pub fn write(&mut self, buf: BufId, block: u32, thread: u32, elem: u64) {
        self.access(buf, AccessKind::Write, block, thread, elem);
    }

    pub fn atomic(&mut self, buf: BufId, block: u32, thread: u32, elem: u64) {
        self.access(buf, AccessKind::Atomic, block, thread, elem);
    }

    /// Model `__syncthreads` for `block`: all threads of the block
    /// rendezvous, so accesses logged before the barrier happen-before
    /// accesses logged after it. Advances the block's sync epoch.
    pub fn barrier(&mut self, block: u32) {
        let e = self.epoch_of(block);
        self.epochs[block as usize] = e + 1;
    }

    /// Buffer declarations, indexed by [`AccessRecord::buf`]. Exposed so
    /// static analyzers ([`crate::access_plan`]) can replay a trace
    /// against a symbolic plan.
    pub fn buffers(&self) -> &[BufferDecl] {
        &self.buffers
    }

    /// The raw access log, in logging order.
    pub fn records(&self) -> &[AccessRecord] {
        &self.records
    }

    /// Number of logged accesses.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// What the launch *declared* to the performance model, captured when
/// the kernel is priced: the contract checker cross-validates the trace
/// against these numbers so the cost model cannot drift from the
/// functional code.
#[derive(Copy, Clone, Debug, Default)]
pub struct Contract {
    /// Global atomic ops charged via `BlockAcc::global_atomic`.
    pub global_atomics: Option<u64>,
    /// Shared-memory atomic ops charged via `BlockAcc::shared_atomic`.
    pub shared_atomics: Option<u64>,
    /// Shared bytes per block declared in the `LaunchConfig`.
    pub shared_bytes: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_advances_epoch_per_block() {
        let mut t = KernelTrace::new("k");
        let b = t.buffer("buf", Scope::Shared, 4);
        t.write(b, 0, 0, 7);
        t.barrier(0);
        t.write(b, 0, 1, 7);
        t.write(b, 1, 0, 7); // other block unaffected by block 0's barrier
        assert_eq!(t.records[0].epoch, 0);
        assert_eq!(t.records[1].epoch, 1);
        assert_eq!(t.records[2].epoch, 0);
    }

    #[test]
    fn buffer_ids_are_sequential() {
        let mut t = KernelTrace::new("k");
        let a = t.buffer("a", Scope::Global, 8);
        let b = t.buffer("b", Scope::Shared, 4);
        assert_eq!(a, BufId(0));
        assert_eq!(b, BufId(1));
        t.atomic(b, 0, 0, 0);
        assert_eq!(t.records[0].buf, 1);
        assert_eq!(t.len(), 1);
    }
}
