//! Kernel launch accounting: coalescing, cache reuse, atomic contention,
//! shared-memory traffic, and per-block serial cost.
//!
//! Kernels execute *functionally* as ordinary Rust code over buffer
//! slices; while doing so they report their memory behaviour at warp
//! granularity through one [`BlockAcc`] per thread block (see
//! [`Kernel::run_blocks`]). Traffic is tracked at two levels:
//!
//! * **L2 transactions** — each warp-wide access is deduplicated into
//!   32-byte sectors (hardware coalescing). All sectors pass through L2.
//! * **DRAM lines** — sector requests are filtered through a
//!   direct-mapped model of the 6 MB L2 at 128-byte line granularity;
//!   only misses cost DRAM bandwidth (writes/atomics pay read+writeback).
//!   This is what makes bin-sorting pay off: sorted points reuse resident
//!   lines, unsorted points miss on nearly every footprint row.
//!
//! Global atomics additionally pay (a) a device-wide op-throughput
//! ceiling and (b) a same-sector serialization penalty for the hottest
//! sector — the term that makes clustered input-driven spreading
//! collapse, exactly as the paper describes.
//!
//! Each block's counters become a serial block cost when the block is
//! merged ([`Kernel::run_blocks`]); `Device::launch_end` then prices the
//! launch as
//! `max(makespan, L2, DRAM, compute, atomic-ops, hotspot) + overhead`,
//! where makespan comes from list-scheduling per-block serial costs onto
//! the SMs (the paper's `M_sub` load-balancing story).

use crate::access::{BufId, Contract, KernelTrace, Scope};
use crate::props::{DeviceProps, Precision};
use crate::sched::makespan;

/// Launch configuration, the subset of CUDA's `<<<grid, block, shmem>>>`
/// the cost model needs (grid size is the block count passed to
/// [`Kernel::run_blocks`]).
#[derive(Copy, Clone, Debug)]
pub struct LaunchConfig {
    pub precision: Precision,
    pub threads_per_block: usize,
    pub shared_bytes_per_block: usize,
    /// Multiplier on the same-sector atomic serialization cost. 1.0 for
    /// native hardware atomics; larger for CAS-loop emulated atomics
    /// (e.g. CUNFFT's double-precision adds), whose retries compound
    /// under contention.
    pub cas_atomic_penalty: f64,
}

impl LaunchConfig {
    pub fn new(precision: Precision, threads_per_block: usize) -> Self {
        LaunchConfig {
            precision,
            threads_per_block,
            shared_bytes_per_block: 0,
            cas_atomic_penalty: 1.0,
        }
    }

    pub fn with_shared(mut self, bytes: usize) -> Self {
        self.shared_bytes_per_block = bytes;
        self
    }

    pub fn with_cas_penalty(mut self, penalty: f64) -> Self {
        self.cas_atomic_penalty = penalty;
        self
    }
}

/// Cost breakdown of one launch (all in seconds).
#[derive(Copy, Clone, Debug, Default)]
pub struct Breakdown {
    pub makespan: f64,
    /// L2 bandwidth term.
    pub l2: f64,
    /// DRAM bandwidth term (line misses).
    pub dram: f64,
    pub compute: f64,
    /// Same-sector atomic serialization (hottest sector).
    pub atomic_hotspot: f64,
    /// Device-wide atomic op-throughput term.
    pub atomic_ops: f64,
    pub overhead: f64,
}

/// Result of pricing a launch.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    pub name: String,
    pub duration: f64,
    pub breakdown: Breakdown,
    pub blocks: usize,
    pub flops: f64,
    pub l2_bytes: f64,
    pub dram_bytes: f64,
    pub global_atomics: u64,
    /// Atomic ops landing on the hottest 32-byte sector. `u64` so
    /// huge-M runs (billions of adds into one sector) cannot wrap.
    pub atomic_hotspot_count: u64,
}

/// Direct-mapped model of the L2 cache at line granularity.
struct LineCache {
    tags: Vec<u64>,
    /// `ceil(2^128 / tags.len())`, the multiplier of [`fastmod`].
    magic: u128,
}

impl LineCache {
    fn new(props: &DeviceProps) -> Self {
        let slots = (props.l2_bytes / props.line_bytes).max(1);
        LineCache {
            tags: vec![u64::MAX; slots],
            magic: fastmod_magic(slots as u64),
        }
    }

    /// Touch lines `first..=last` in order; returns the misses.
    /// Consecutive lines sit in consecutive slots, so only the first slot
    /// needs a reduction.
    #[inline(always)]
    fn touch_span(&mut self, first: u64, last: u64) -> u64 {
        let n = self.tags.len();
        let mut slot = fastmod(first, self.magic, n as u64) as usize;
        let mut misses = 0;
        for line in first..=last {
            let tag = &mut self.tags[slot];
            if *tag != line {
                *tag = line;
                misses += 1;
            }
            slot += 1;
            if slot == n {
                slot = 0;
            }
        }
        misses
    }
}

/// The multiplier `ceil(2^128 / d)` that [`fastmod`] reduces by `d`
/// (wrapping to 0 for `d = 1`, which [`fastmod`] also handles).
fn fastmod_magic(d: u64) -> u128 {
    assert!(d > 0, "modulus must be positive");
    (u128::MAX / d as u128).wrapping_add(1)
}

/// `a % d` without a division (Lemire, Kaser and Kurz, "Faster
/// remainder by direct computation", 2019): the fractional part of
/// `a / d`, held to 128 bits as `magic · a mod 2^128`, times `d`, keeps
/// the remainder in its integer part. 128 fractional bits make it exact
/// for every 64-bit `a` and `d`. `magic` is `fastmod_magic(d)`.
#[inline(always)]
fn fastmod(a: u64, magic: u128, d: u64) -> u64 {
    let frac = magic.wrapping_mul(a as u128);
    // high 128 bits of the 192-bit product frac · d
    let lo = (frac as u64 as u128) * d as u128;
    let hi = (frac >> 64) * d as u128;
    ((hi + (lo >> 64)) >> 64) as u64
}

/// An in-flight kernel launch. Create with `Device::kernel`, run its
/// thread blocks with [`Kernel::run_blocks`], then price via
/// `Device::launch_end` — or record an earlier price for the same inputs
/// via `Device::launch_priced`.
pub struct Kernel {
    pub(crate) name: String,
    pub(crate) cfg: LaunchConfig,
    props: DeviceProps,
    // device-wide accumulators
    flops: f64,
    l2_sectors: u64,
    dram_bytes: f64,
    atomics: u64,
    shared_atomics: u64,
    atomic_hist: Vec<u64>,
    elems_per_sector: usize,
    block_times: Vec<f64>,
    /// Built by the first block merge: launches whose price is replayed
    /// (`Device::launch_priced`) never touch it.
    cache: Option<LineCache>,
    // shadow-memory access trace, present under HazardMode::Check
    access: Option<KernelTrace>,
    /// Host-side worker threads [`Kernel::run_blocks`] may use. Set by
    /// `Device::kernel` from the device knob; forced to 1 under hazard
    /// checking or fault injection so those paths stay strictly serial.
    pub(crate) host_threads: usize,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("blocks", &self.block_times.len())
            .finish_non_exhaustive()
    }
}

impl Kernel {
    pub(crate) fn new(name: &str, cfg: LaunchConfig, props: DeviceProps) -> Self {
        Kernel {
            name: name.to_string(),
            cfg,
            props,
            flops: 0.0,
            l2_sectors: 0,
            dram_bytes: 0.0,
            atomics: 0,
            shared_atomics: 0,
            atomic_hist: Vec::new(),
            elems_per_sector: 1,
            block_times: Vec::new(),
            cache: None,
            access: None,
            host_threads: 1,
        }
    }

    /// Attach a shadow-memory access trace to this launch (done by the
    /// device under [`crate::access::HazardMode::Check`]). Instrumented
    /// kernels then log accesses through the `BlockAcc::trace_*` hooks.
    pub fn enable_access_trace(&mut self) {
        self.access = Some(KernelTrace::new(&self.name));
    }

    /// Whether this launch carries an access trace. Instrumentation
    /// sites can use this to skip building address streams when off.
    pub fn access_traced(&self) -> bool {
        self.access.is_some()
    }

    /// Register a named buffer for access tracing. Returns a handle the
    /// `BlockAcc::trace_*` hooks take; a no-op placeholder when tracing
    /// is off.
    pub fn trace_buffer(&mut self, name: &str, scope: Scope, elem_bytes: usize) -> BufId {
        match &mut self.access {
            Some(t) => t.buffer(name, scope, elem_bytes),
            None => BufId(u16::MAX),
        }
    }

    /// Declare the buffer that receives global atomics so contention can
    /// be tracked per 32-byte sector. `elem_bytes` is the size of one
    /// logical element (e.g. 8 for a complex f32).
    pub fn atomic_region(&mut self, n_elems: usize, elem_bytes: usize) {
        self.elems_per_sector = (self.props.sector_bytes / elem_bytes).max(1);
        let sectors = n_elems.div_ceil(self.elems_per_sector).max(1);
        self.atomic_hist = vec![0u64; sectors];
    }

    /// Price the launch. Called by `Device::launch_end`. When an access
    /// trace is attached, returns it alongside the launch's declared
    /// contract (atomic counts from the perf accumulators, shared bytes
    /// from the launch config) for the hazard checker.
    pub(crate) fn price(self) -> (LaunchReport, Option<(KernelTrace, Contract)>) {
        let p = &self.props;
        let prec = self.cfg.precision;
        let compute = self.flops / p.flops(prec);
        let l2_bytes = (self.l2_sectors * p.sector_bytes as u64) as f64;
        let l2 = l2_bytes / p.l2_bw;
        let dram = self.dram_bytes / p.dram_bw;
        let hot = self.atomic_hist.iter().copied().max().unwrap_or(0);
        let atomic_hotspot = hot as f64 * p.t_global_atomic_same * self.cfg.cas_atomic_penalty;
        let atomic_ops = self.atomics as f64 / p.l2_atomic_rate;
        let ms = makespan(&self.block_times, p.sm_count);
        let overhead = p.t_launch;
        let duration = ms
            .max(l2)
            .max(dram)
            .max(compute)
            .max(atomic_hotspot)
            .max(atomic_ops)
            + overhead;
        let traced = self.access.map(|t| {
            let contract = Contract {
                global_atomics: Some(self.atomics),
                shared_atomics: Some(self.shared_atomics),
                shared_bytes: Some(self.cfg.shared_bytes_per_block),
            };
            (t, contract)
        });
        let report = LaunchReport {
            name: self.name,
            duration,
            breakdown: Breakdown {
                makespan: ms,
                l2,
                dram,
                compute,
                atomic_hotspot,
                atomic_ops,
                overhead,
            },
            blocks: self.block_times.len(),
            flops: self.flops,
            l2_bytes,
            dram_bytes: self.dram_bytes,
            global_atomics: self.atomics,
            atomic_hotspot_count: hot,
        };
        (report, traced)
    }

    /// Execute `n_blocks` independent thread blocks, possibly on a bounded
    /// host thread pool, with results bit-for-bit identical to running
    /// them serially in block-id order.
    ///
    /// `body(block_id, acc)` does the block's functional work and reports
    /// its memory behaviour through the [`BlockAcc`] — a per-block private
    /// accumulator that *logs* cache-order-sensitive events (DRAM line
    /// touches, traced accesses) instead of applying them. The log is
    /// replayed through the shared L2 line-cache model strictly in
    /// block-id order at merge time, so per-block DRAM charges (and hence
    /// block timings and the launch price) are independent of host
    /// scheduling. `apply(block_id, r)` receives each block's return value
    /// in block-id order — do order-sensitive functional work there (e.g.
    /// accumulate a block's grid updates) so floating-point accumulation
    /// order matches the serial path exactly.
    ///
    /// Call after [`Kernel::atomic_region`] / [`Kernel::trace_buffer`];
    /// the accumulator snapshots those declarations. Runs serially when
    /// `host_threads <= 1` or when an access trace is attached (hazard
    /// checking), via the same accumulate-then-merge code path.
    pub fn run_blocks<R, F, G>(&mut self, n_blocks: usize, body: F, mut apply: G)
    where
        R: Send,
        F: Fn(usize, &mut BlockAcc<'_>) -> R + Sync,
        G: FnMut(usize, R),
    {
        let params = AccParams {
            sector_bytes: self.props.sector_bytes,
            line_bytes: self.props.line_bytes,
            elems_per_sector: self.elems_per_sector,
            hist_len: self.atomic_hist.len(),
            shared_words: self.cfg.shared_bytes_per_block / 4,
            traced: self.access.is_some(),
        };
        let threads = if params.traced {
            1
        } else {
            self.host_threads.max(1).min(n_blocks.max(1))
        };
        if threads <= 1 {
            let mut scratch = WorkerScratch::new(&params);
            for bid in 0..n_blocks {
                let mut acc = BlockAcc::begin(params, &mut scratch);
                let r = body(bid, &mut acc);
                let out = acc.into_out();
                self.merge_block(out);
                apply(bid, r);
            }
            for (dst, src) in self.atomic_hist.iter_mut().zip(scratch.hist.iter()) {
                *dst += src;
            }
            return;
        }
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let next = AtomicUsize::new(0);
        // Blocks merged so far. A worker runs block `bid` only once
        // `bid < merged + window`, so however far the workers outrun the
        // ordered merge, at most `window` finished blocks wait in the
        // reorder buffer. `merged` publishes no data (blocks travel over
        // the channel); the Release store pairs with the workers' Acquire
        // load only to keep the bound tight.
        let merged = AtomicUsize::new(0);
        let window = MERGE_WINDOW_PER_THREAD * threads;
        // Raised when any thread unwinds, so workers parked on the window
        // stop waiting for a merge that will never come.
        let stop = AtomicBool::new(false);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, BlockOut, R)>();
        let (next_ref, merged_ref, stop_ref) = (&next, &merged, &stop);
        let body_ref = &body;
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let tx = tx.clone();
                handles.push(s.spawn(move || {
                    let _unwind = StopOnUnwind(stop_ref);
                    let mut scratch = WorkerScratch::new(&params);
                    'claim: loop {
                        let bid = next_ref.fetch_add(1, Ordering::Relaxed);
                        if bid >= n_blocks {
                            break;
                        }
                        while bid >= merged_ref.load(Ordering::Acquire) + window {
                            if stop_ref.load(Ordering::Relaxed) {
                                break 'claim;
                            }
                            std::thread::yield_now();
                        }
                        let mut acc = BlockAcc::begin(params, &mut scratch);
                        let r = body_ref(bid, &mut acc);
                        let out = acc.into_out();
                        if tx.send((bid, out, r)).is_err() {
                            break;
                        }
                    }
                    scratch.hist
                }));
            }
            drop(tx);
            let _unwind = StopOnUnwind(stop_ref);
            // Merge strictly in block-id order through a reorder buffer.
            let mut pending: std::collections::HashMap<usize, (BlockOut, R)> =
                std::collections::HashMap::new();
            let mut want = 0usize;
            while want < n_blocks {
                let Ok((bid, out, r)) = rx.recv() else { break };
                pending.insert(bid, (out, r));
                while let Some((out, r)) = pending.remove(&want) {
                    self.merge_block(out);
                    apply(want, r);
                    want += 1;
                    merged_ref.store(want, Ordering::Release);
                }
            }
            for h in handles {
                match h.join() {
                    // Per-worker histograms are merged additively after the
                    // ordered pass: u64 adds commute, so the result matches
                    // the serial tally exactly.
                    Ok(hist) => {
                        for (dst, src) in self.atomic_hist.iter_mut().zip(hist.iter()) {
                            *dst += src;
                        }
                    }
                    Err(e) => std::panic::resume_unwind(e),
                }
            }
            assert_eq!(want, n_blocks, "parallel block execution lost blocks");
        });
    }

    /// Fold one block's private accumulator into the launch: replay its
    /// DRAM log through the shared line cache, replay traced accesses,
    /// convert its counters into a serial block cost, and accumulate
    /// launch-wide counters.
    fn merge_block(&mut self, out: BlockOut) {
        // Byte counts are whole numbers far below 2^53, so these f64
        // sums are exact however they are grouped.
        let lb = self.props.line_bytes as f64;
        let mut dram_bytes = 0.0f64;
        let cache = self
            .cache
            .get_or_insert_with(|| LineCache::new(&self.props));
        for op in &out.dram_log {
            match *op {
                DramOp::Line(line) => dram_bytes += cache.touch_span(line, line) as f64 * lb,
                DramOp::Span { first, last, write } => {
                    let factor = if write { 2.0 } else { 1.0 };
                    dram_bytes += cache.touch_span(first, last) as f64 * lb * factor;
                }
                DramOp::Flat(bytes) => dram_bytes += bytes,
            }
        }
        let block_id = self.block_times.len() as u32;
        if let Some(t) = &mut self.access {
            for op in &out.trace_log {
                match *op {
                    TraceOp::Read(buf, thread, elem) => t.read(buf, block_id, thread, elem),
                    TraceOp::Write(buf, thread, elem) => t.write(buf, block_id, thread, elem),
                    TraceOp::Atomic(buf, thread, elem) => t.atomic(buf, block_id, thread, elem),
                    TraceOp::Barrier => t.barrier(block_id),
                }
            }
        }
        let p = &self.props;
        let prec = self.cfg.precision;
        let sm = p.sm_count as f64;
        let t_compute = out.flops / p.sm_flops(prec);
        let t_l2 = (out.l2_sectors * p.sector_bytes as u64) as f64 / (p.l2_bw / sm);
        let t_dram = dram_bytes / (p.dram_bw / sm);
        let t_atomic = out.atomics as f64 / (p.l2_atomic_rate / sm);
        let t_shared = out.shared_ops as f64 / p.shared_ops_rate_per_sm
            + out.shared_hotspot as f64 * p.t_shared_atomic_same;
        let t_block = t_compute.max(t_l2).max(t_dram).max(t_atomic).max(t_shared);
        self.flops += out.flops;
        self.l2_sectors += out.l2_sectors;
        self.dram_bytes += dram_bytes;
        self.atomics += out.atomics;
        self.shared_atomics += out.shared_atomics;
        self.block_times.push(t_block);
    }
}

/// Blocks each host worker may run ahead of the ordered merge in
/// [`Kernel::run_blocks`]; bounds the reorder buffer to this many
/// finished blocks per worker.
const MERGE_WINDOW_PER_THREAD: usize = 4;

/// Raises its flag when dropped during a panic (see [`Kernel::run_blocks`]).
struct StopOnUnwind<'a>(&'a std::sync::atomic::AtomicBool);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Truncating division that strength-reduces to a shift when the
/// divisor is a power of two (the sector/line/element sizes always
/// are in practice, and a 64-bit `idiv` in the per-warp accounting
/// loops is a measurable fraction of simulated-launch wall time).
#[inline(always)]
fn div_fast(a: usize, d: usize) -> usize {
    if d.is_power_of_two() {
        a >> d.trailing_zeros()
    } else {
        a / d
    }
}

/// Split the `len` elements from `start` by the `eps`-element sector they
/// fall in: `f(sector, elements in it)`, in sector order.
#[inline(always)]
fn sector_split(start: usize, len: usize, eps: usize, mut f: impl FnMut(usize, u64)) {
    if len == 0 {
        return;
    }
    let first = div_fast(start, eps);
    let last = div_fast(start + len - 1, eps);
    for s in first..=last {
        let lo = start.max(s * eps);
        let hi = (start + len).min(s * eps + eps);
        f(s, (hi - lo) as u64);
    }
}

/// Add `n_per_elem` atomic ops per element of the `len` elements from
/// `start` to their sectors' tallies in `hist` (sectors past its end are
/// not tracked).
#[inline(always)]
fn hist_run(hist: &mut [u64], eps: usize, start: usize, len: usize, n_per_elem: u64) {
    sector_split(start, len, eps, |s, c| {
        if let Some(h) = hist.get_mut(s) {
            *h += c * n_per_elem;
        }
    });
}

/// One DRAM-side event logged by a [`BlockAcc`], replayed through the
/// shared L2 line cache in block-id order at merge time.
enum DramOp {
    /// One lane's line touch from [`BlockAcc::warp_access`] (read).
    Line(u64),
    /// Contiguous line range from [`BlockAcc::dram_span`] /
    /// [`BlockAcc::stream_span`]; writes pay read+writeback on miss.
    Span { first: u64, last: u64, write: bool },
    /// Unconditional DRAM bytes from [`BlockAcc::stream_bytes`]
    /// (compulsory misses; the line cache is not consulted).
    Flat(f64),
}

/// One shadow-memory access logged by a [`BlockAcc`], replayed into the
/// launch's [`KernelTrace`] in block-id order at merge time.
enum TraceOp {
    Read(BufId, u32, u64),
    Write(BufId, u32, u64),
    Atomic(BufId, u32, u64),
    Barrier,
}

/// Snapshot of the per-launch declarations a [`BlockAcc`] needs, taken
/// when [`Kernel::run_blocks`] starts (so it must be called after
/// `atomic_region`).
#[derive(Copy, Clone)]
struct AccParams {
    sector_bytes: usize,
    line_bytes: usize,
    elems_per_sector: usize,
    hist_len: usize,
    shared_words: usize,
    traced: bool,
}

/// Per-worker reusable scratch: a private copy of the atomic-sector
/// histogram (zeroed once per worker, not per block — merged additively
/// at the end), the shared-memory hotspot epoch arrays, the sector set
/// behind the distinct-sector counts, and the per-row sector pattern of
/// [`BlockAcc::global_atomic_rows`].
struct WorkerScratch {
    hist: Vec<u64>,
    shared_epoch: Vec<u32>,
    shared_count: Vec<u64>,
    cur_epoch: u32,
    sectors: SectorSet,
    pattern: Vec<(usize, u64)>,
}

impl WorkerScratch {
    fn new(p: &AccParams) -> Self {
        WorkerScratch {
            hist: vec![0u64; p.hist_len],
            shared_epoch: vec![0u32; p.shared_words],
            shared_count: vec![0u64; p.shared_words],
            cur_epoch: 0,
            sectors: SectorSet::default(),
            pattern: Vec::new(),
        }
    }
}

/// Exact distinct-id counting without a sort: an open-addressing table
/// whose slots are stamped with the query that filled them, so it never
/// needs clearing between queries. Each query sizes the table to at least
/// twice the ids it may insert, so linear probing always finds a free
/// slot; the table only grows.
#[derive(Default)]
struct SectorSet {
    /// `(query stamp, id)` per slot; a power-of-two count.
    slots: Vec<(u64, usize)>,
    clock: u64,
}

impl SectorSet {
    /// Distinct ids among `ids`, which hold at most `max_ids` items.
    /// Slots are the ids' low bits: sector ids that are close together
    /// (one warp's accesses) land in distinct, neighbouring slots. A
    /// folded hash measured slower on the 32-lane spread path.
    #[inline]
    fn count(&mut self, max_ids: usize, ids: impl Iterator<Item = usize>) -> u64 {
        let want = (2 * max_ids).next_power_of_two().max(64);
        if want > self.slots.len() {
            self.slots = vec![(0, 0); want];
        }
        self.clock += 1;
        let clock = self.clock;
        let slots = &mut self.slots[..];
        let mask = slots.len() - 1;
        let mut distinct = 0u64;
        'ids: for id in ids {
            let mut slot = id & mask;
            loop {
                let entry = &mut slots[slot];
                if entry.0 != clock {
                    *entry = (clock, id);
                    distinct += 1;
                    continue 'ids;
                }
                if entry.1 == id {
                    continue 'ids;
                }
                slot = (slot + 1) & mask;
            }
        }
        distinct
    }
}

/// Per-block accounting context used by [`Kernel::run_blocks`]: a block
/// reports its work through it. Instead of mutating launch-wide state it
/// counts locally and logs order-sensitive events (DRAM line touches,
/// traced accesses) for deterministic replay at merge time.
pub struct BlockAcc<'w> {
    params: AccParams,
    flops: f64,
    l2_sectors: u64,
    atomics: u64,
    shared_atomics: u64,
    shared_ops: u64,
    shared_hotspot: u64,
    dram_log: Vec<DramOp>,
    trace_log: Vec<TraceOp>,
    scratch: &'w mut WorkerScratch,
}

/// A finished block's counters and logs, sent from the worker that ran
/// it to the merging thread.
struct BlockOut {
    flops: f64,
    l2_sectors: u64,
    atomics: u64,
    shared_atomics: u64,
    shared_ops: u64,
    shared_hotspot: u64,
    dram_log: Vec<DramOp>,
    trace_log: Vec<TraceOp>,
}

impl<'w> BlockAcc<'w> {
    fn begin(params: AccParams, scratch: &'w mut WorkerScratch) -> Self {
        scratch.cur_epoch = scratch.cur_epoch.wrapping_add(1);
        if scratch.cur_epoch == 0 {
            scratch.shared_epoch.iter_mut().for_each(|e| *e = 0);
            scratch.cur_epoch = 1;
        }
        BlockAcc {
            params,
            flops: 0.0,
            l2_sectors: 0,
            atomics: 0,
            shared_atomics: 0,
            shared_ops: 0,
            shared_hotspot: 0,
            dram_log: Vec::new(),
            trace_log: Vec::new(),
            scratch,
        }
    }

    fn into_out(self) -> BlockOut {
        BlockOut {
            flops: self.flops,
            l2_sectors: self.l2_sectors,
            atomics: self.atomics,
            shared_atomics: self.shared_atomics,
            shared_ops: self.shared_ops,
            shared_hotspot: self.shared_hotspot,
            dram_log: self.dram_log,
            trace_log: self.trace_log,
        }
    }

    /// Report `n` floating-point operations (in the working precision).
    #[inline]
    pub fn flops(&mut self, n: u64) {
        self.flops += n as f64;
    }

    /// One warp-wide access whose traffic stays at L2 level; cache reuse
    /// at DRAM level must be reported separately via [`Self::dram_span`].
    /// Used for the grid accesses of spread/interp inner loops, whose
    /// footprint rows are reported to the line cache once per row.
    pub fn l2_access(&mut self, byte_addrs: &[usize]) {
        self.l2_sectors += self.distinct_sectors(byte_addrs);
    }

    /// `n` warp-wide accesses that each coalesce into as many sectors as
    /// `byte_addrs` does: exactly what `n` [`Self::l2_access`] calls on
    /// address sets with the same sector-sharing pattern would add. GM
    /// spreading uses it for the `w^(d-1)` footprint rows of a lockstep
    /// x-step on a grid whose rows start on sector boundaries.
    pub fn l2_access_n(&mut self, byte_addrs: &[usize], n: u64) {
        self.l2_sectors += n * self.distinct_sectors(byte_addrs);
    }

    /// Distinct 32-byte sectors among up to 32 lane addresses (hardware
    /// coalescing within one warp instruction), counted through the
    /// worker's [`SectorSet`] (no per-call sort).
    #[inline]
    fn distinct_sectors(&mut self, byte_addrs: &[usize]) -> u64 {
        debug_assert!(byte_addrs.len() <= 32, "a warp has at most 32 lanes");
        let sb = self.params.sector_bytes;
        let n = byte_addrs.len();
        if sb.is_power_of_two() {
            let sh = sb.trailing_zeros();
            self.scratch
                .sectors
                .count(n, byte_addrs.iter().map(|&a| a >> sh))
        } else {
            self.scratch
                .sectors
                .count(n, byte_addrs.iter().map(|&a| a / sb))
        }
    }

    /// L2 traffic of a set of loads that the per-SM L1 deduplicates as a
    /// whole (read-only gathers, which unlike atomics enjoy L1: a warp's
    /// whole footprint counts each sector once), given as inclusive runs
    /// of sector ids: adds the number of distinct sectors across all runs,
    /// exactly what sorting and deduplicating every covered id would
    /// count, in time linear in the runs' total length.
    pub fn l2_sector_runs(&mut self, runs: &[(usize, usize)]) {
        debug_assert!(runs.iter().all(|&(first, last)| first <= last));
        let total = runs.iter().map(|&(first, last)| last + 1 - first).sum();
        let distinct = self.scratch.sectors.count(
            total,
            runs.iter().flat_map(|&(first, last)| first..last + 1),
        );
        self.l2_sectors += distinct;
    }

    /// One warp-wide access including its DRAM-side line traffic (each
    /// lane's line filtered through the L2 model). Use for scattered
    /// gathers such as reading point data through a sort permutation.
    /// Lane line touches are logged for replay through the shared line
    /// cache at merge time.
    pub fn warp_access(&mut self, byte_addrs: &[usize]) {
        self.l2_sectors += self.distinct_sectors(byte_addrs);
        let lb = self.params.line_bytes;
        for &a in byte_addrs {
            self.dram_log.push(DramOp::Line((a / lb) as u64));
        }
    }

    /// A contiguous byte span touched by the block (streaming access,
    /// e.g. coalesced loads of consecutive point data): full L2 traffic
    /// plus line-cache-filtered DRAM traffic.
    pub fn stream_span(&mut self, start_byte: usize, len_bytes: usize, write: bool) {
        let sb = self.params.sector_bytes;
        self.l2_sectors += len_bytes.div_ceil(sb) as u64;
        self.dram_span(start_byte, len_bytes, write);
    }

    /// Report a contiguous byte span to the DRAM line cache only (no L2
    /// traffic; use when the L2-level cost was already counted via
    /// [`Self::l2_access`]). Writes pay read+writeback on miss.
    pub fn dram_span(&mut self, start_byte: usize, len_bytes: usize, write: bool) {
        if len_bytes == 0 {
            return;
        }
        let lb = self.params.line_bytes;
        let first = div_fast(start_byte, lb) as u64;
        let last = div_fast(start_byte + len_bytes - 1, lb) as u64;
        self.dram_log.push(DramOp::Span { first, last, write });
    }

    /// Contiguous streaming traffic with no base address (assumed
    /// compulsory misses; the line cache is not consulted).
    #[inline]
    pub fn stream_bytes(&mut self, bytes: usize) {
        let sb = self.params.sector_bytes;
        self.l2_sectors += bytes.div_ceil(sb) as u64;
        self.dram_log.push(DramOp::Flat(bytes as f64));
    }

    /// One global atomic op landing on logical element `elem_idx` of the
    /// declared atomic region. Pays the op-throughput term and feeds the
    /// per-sector contention histogram. Its memory traffic must be
    /// reported separately (`l2_access` + `dram_span`).
    #[inline]
    pub fn global_atomic(&mut self, elem_idx: usize) {
        self.global_atomic_n(elem_idx, 1);
    }

    /// `n` global atomic ops landing on the same logical element. Bulk
    /// form so synthetic huge-count tests (and batched accounting) need
    /// not loop per op; counters are `u64` throughout, so multi-billion
    /// tallies do not wrap. Tallies land in the worker's private
    /// histogram, merged additively when the launch completes.
    #[inline]
    pub fn global_atomic_n(&mut self, elem_idx: usize, n: u64) {
        self.atomics += n;
        if !self.scratch.hist.is_empty() {
            let s = div_fast(elem_idx, self.params.elems_per_sector);
            if let Some(c) = self.scratch.hist.get_mut(s) {
                *c += n;
            }
        }
    }

    /// `n_per_elem` atomic ops on each of `len` consecutive elements —
    /// one call per contiguous footprint row instead of one per cell.
    /// Totals (op count and per-sector histogram) are exactly what
    /// per-element [`Self::global_atomic_n`] calls would produce; the
    /// batching only removes per-cell call overhead from the simulated
    /// spread hot loop.
    pub fn global_atomic_run(&mut self, start_elem: usize, len: usize, n_per_elem: u64) {
        self.atomics += len as u64 * n_per_elem;
        let eps = self.params.elems_per_sector;
        hist_run(&mut self.scratch.hist, eps, start_elem, len, n_per_elem);
    }

    /// `n_per_elem` atomic ops on each cell of every row segment: `segs`
    /// are `(first element, length)` runs relative to a row's start, and
    /// `rows` the rows' first elements. Tallies exactly what
    /// `global_atomic_run(row + first, length, n_per_elem)` for each row
    /// and segment would; the op total is added once, and the segments'
    /// per-sector split is computed once and shifted onto every row that
    /// starts on a sector boundary.
    pub fn global_atomic_rows(&mut self, rows: &[usize], segs: &[(usize, usize)], n_per_elem: u64) {
        let per_row: u64 = segs.iter().map(|&(_, len)| len as u64).sum();
        self.atomics += per_row * n_per_elem * rows.len() as u64;
        let WorkerScratch { hist, pattern, .. } = &mut *self.scratch;
        if hist.is_empty() {
            return;
        }
        let eps = self.params.elems_per_sector;
        pattern.clear();
        for &(first, len) in segs {
            sector_split(first, len, eps, |s, c| pattern.push((s, c * n_per_elem)));
        }
        for &row in rows {
            let row_sector = div_fast(row, eps);
            if row_sector * eps == row {
                for &(s, c) in pattern.iter() {
                    if let Some(h) = hist.get_mut(row_sector + s) {
                        *h += c;
                    }
                }
            } else {
                for &(first, len) in segs {
                    hist_run(hist, eps, row + first, len, n_per_elem);
                }
            }
        }
    }

    /// One shared-memory atomic add to 4-byte word `word_idx` of this
    /// block's shared allocation.
    #[inline]
    pub fn shared_atomic(&mut self, word_idx: usize) {
        self.shared_ops += 1;
        self.shared_atomics += 1;
        let sc = &mut *self.scratch;
        if word_idx < sc.shared_epoch.len() {
            if sc.shared_epoch[word_idx] != sc.cur_epoch {
                sc.shared_epoch[word_idx] = sc.cur_epoch;
                sc.shared_count[word_idx] = 1;
            } else {
                sc.shared_count[word_idx] += 1;
            }
            self.shared_hotspot = self.shared_hotspot.max(sc.shared_count[word_idx]);
        }
    }

    /// `n` shared-memory atomic adds to each of the `len` consecutive
    /// words from `word0` — one call per footprint row instead of `len·n`
    /// [`Self::shared_atomic`] calls, with exactly their op, atomic and
    /// hotspot tallies (a word's running count peaks at its last add).
    pub fn shared_atomic_run(&mut self, word0: usize, len: usize, n: u64) {
        if len == 0 || n == 0 {
            return;
        }
        self.shared_ops += len as u64 * n;
        self.shared_atomics += len as u64 * n;
        let sc = &mut *self.scratch;
        let end = (word0 + len).min(sc.shared_epoch.len());
        for w in word0.min(end)..end {
            let count = if sc.shared_epoch[w] != sc.cur_epoch {
                sc.shared_epoch[w] = sc.cur_epoch;
                n
            } else {
                sc.shared_count[w] + n
            };
            sc.shared_count[w] = count;
            self.shared_hotspot = self.shared_hotspot.max(count);
        }
    }

    /// Plain (non-atomic) shared-memory operations.
    #[inline]
    pub fn shared_ops(&mut self, n: u64) {
        self.shared_ops += n;
    }

    /// Shared-memory reads: conflict-free loads sustain ~4x the
    /// read-modify-write rate.
    #[inline]
    pub fn shared_reads(&mut self, n: u64) {
        self.shared_ops += n / 4;
    }

    /// Log a traced read on `buf` by `thread` of this block (replayed in
    /// block-id order at merge time). No-op when the launch carries no
    /// access trace.
    #[inline]
    pub fn trace_read(&mut self, buf: BufId, thread: u32, elem: u64) {
        if self.params.traced {
            self.trace_log.push(TraceOp::Read(buf, thread, elem));
        }
    }

    /// Log a traced plain write on `buf` by `thread` of this block.
    #[inline]
    pub fn trace_write(&mut self, buf: BufId, thread: u32, elem: u64) {
        if self.params.traced {
            self.trace_log.push(TraceOp::Write(buf, thread, elem));
        }
    }

    /// Log a traced atomic on `buf` by `thread` of this block.
    #[inline]
    pub fn trace_atomic(&mut self, buf: BufId, thread: u32, elem: u64) {
        if self.params.traced {
            self.trace_log.push(TraceOp::Atomic(buf, thread, elem));
        }
    }

    /// Model `__syncthreads` for this block: orders all accesses logged
    /// before it against all logged after it. (Pure synchronization; no
    /// cost is charged, matching a contention-free barrier.)
    #[inline]
    pub fn barrier(&mut self) {
        if self.params.traced {
            self.trace_log.push(TraceOp::Barrier);
        }
    }

    /// Whether this launch carries an access trace.
    #[inline]
    pub fn access_traced(&self) -> bool {
        self.params.traced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(cfg: LaunchConfig) -> Kernel {
        Kernel::new("test", cfg, DeviceProps::v100())
    }

    /// Run `body` as the launch's only thread block.
    fn one_block(k: &mut Kernel, body: impl Fn(&mut BlockAcc<'_>) + Sync) {
        k.run_blocks(1, |_, b| body(b), |_, ()| {});
    }

    /// Count distinct 32-byte sectors among up to 32 lane addresses
    /// (hardware coalescing within one warp instruction) by sort+dedup: the
    /// reference the sector set behind [`BlockAcc::l2_access`] and
    /// [`BlockAcc::l2_sector_runs`] is tested against.
    fn dedup_sectors(sector_bytes: usize, byte_addrs: &[usize]) -> u64 {
        let mut ids: Vec<usize> = byte_addrs.iter().map(|&a| a / sector_bytes).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len() as u64
    }

    #[test]
    fn coalesced_warp_is_few_sectors() {
        let mut k = mk(LaunchConfig::new(Precision::F32, 128));
        one_block(&mut k, |b| {
            // 32 lanes reading 32 consecutive f32s: 128 B = 4 sectors
            let addrs: Vec<usize> = (0..32).map(|i| i * 4).collect();
            b.l2_access(&addrs);
        });
        assert_eq!(k.l2_sectors, 4);
    }

    #[test]
    fn scattered_warp_is_many_sectors() {
        let mut k = mk(LaunchConfig::new(Precision::F32, 128));
        one_block(&mut k, |b| {
            let addrs: Vec<usize> = (0..32).map(|i| i * 4096).collect();
            b.l2_access(&addrs);
        });
        assert_eq!(k.l2_sectors, 32);
    }

    #[test]
    fn line_cache_rewards_reuse() {
        let props = DeviceProps::v100();
        // repeatedly touching the same small region: only first touch
        // costs DRAM
        let mut k = Kernel::new("r", LaunchConfig::new(Precision::F32, 128), props.clone());
        one_block(&mut k, |b| {
            for _ in 0..100 {
                b.dram_span(0, 4096, false);
            }
        });
        assert_eq!(k.dram_bytes, 4096.0f64.div_euclid(128.0) * 128.0);
        // scattered touches each cost a full line
        let mut k2 = Kernel::new("s", LaunchConfig::new(Precision::F32, 128), props);
        one_block(&mut k2, |b| {
            for i in 0..100usize {
                b.dram_span(i * 1_000_000, 4, false);
            }
        });
        assert_eq!(k2.dram_bytes, 100.0 * 128.0);
    }

    #[test]
    fn writes_pay_read_plus_writeback() {
        let mut k = mk(LaunchConfig::new(Precision::F32, 128));
        one_block(&mut k, |b| b.dram_span(0, 128, true));
        assert_eq!(k.dram_bytes, 256.0);
    }

    #[test]
    fn batched_atomic_run_matches_per_element_accounting() {
        // `global_atomic_run` must be pure call-overhead batching: the
        // op count and per-sector histogram have to land exactly where
        // per-element `global_atomic_n` calls would put them, including
        // runs that straddle sector boundaries.
        let runs: [(usize, usize); 4] = [(3, 5), (100, 2), (1021, 3), (7, 0)];
        let mut ka = mk(LaunchConfig::new(Precision::F64, 128));
        ka.atomic_region(1024, 16);
        one_block(&mut ka, |b| {
            for &(start, len) in &runs {
                for e in start..start + len {
                    b.global_atomic_n(e, 2);
                }
            }
        });
        let mut kb = mk(LaunchConfig::new(Precision::F64, 128));
        kb.atomic_region(1024, 16);
        one_block(&mut kb, |b| {
            for &(start, len) in &runs {
                b.global_atomic_run(start, len, 2);
            }
        });
        assert_eq!(ka.atomics, kb.atomics);
        assert_eq!(ka.atomic_hist, kb.atomic_hist);
    }

    #[test]
    fn probe_table_dedup_matches_sort_dedup() {
        // The epoch-stamped sector set behind `BlockAcc::l2_access`
        // must count exactly what sort+dedup counts, including inputs
        // engineered to collide in its 64-slot table.
        let cases: Vec<Vec<usize>> = vec![
            vec![0; 32],                                 // one sector, 32 dups
            (0..32).map(|i| i * 64).collect(),           // all hash to slot 0
            (0..32).map(|i| i * 64 + (i & 1)).collect(), // collide + neighbours
            vec![63, 127, 191, 63, 127, 5, 5, 64, 0],    // mixed dups
            (0..32).rev().collect(),                     // descending
        ];
        for ids in cases {
            let addrs: Vec<usize> = ids.iter().map(|&i| i * 32).collect();
            let reference = dedup_sectors(32, &addrs);
            let mut k = mk(LaunchConfig::new(Precision::F32, 128));
            one_block(&mut k, |b| b.l2_access(&addrs));
            assert_eq!(k.l2_sectors, reference, "ids {ids:?}");
        }
    }

    /// Tiny deterministic generator for the randomized tests below.
    fn xorshift(state: &mut u64) -> usize {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state as usize
    }

    #[test]
    fn sector_runs_match_sort_dedup() {
        // `l2_sector_runs` must count what sort+dedup of every covered
        // sector id counts, query after query on one worker's table:
        // overlapping, adjacent and single-sector runs, runs straddling
        // the table size, and queries that grow the table mid-block.
        let reference = |runs: &[(usize, usize)]| -> u64 {
            let mut ids: Vec<usize> = runs.iter().flat_map(|&(f, l)| f..=l).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len() as u64
        };
        let mut queries: Vec<Vec<(usize, usize)>> = vec![
            vec![(5, 5)],
            vec![(0, 3), (4, 7), (2, 9)],
            vec![(60, 70), (127, 129), (65, 65)],
            vec![(3, 3); 40],
        ];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for q in 0..60 {
            // run count and spread grow with q, so later queries resize
            let n_runs = 1 + xorshift(&mut rng) % (4 + 8 * q);
            let span = 8 + 64 * q;
            let base = xorshift(&mut rng) % 100_000;
            let runs = (0..n_runs)
                .map(|_| {
                    let first = base + xorshift(&mut rng) % span;
                    (first, first + xorshift(&mut rng) % 12)
                })
                .collect();
            queries.push(runs);
        }
        queries.push(vec![(1, 1), (1, 2)]); // small again after growth
        let mut k = mk(LaunchConfig::new(Precision::F32, 128));
        one_block(&mut k, |b| {
            for runs in &queries {
                let before = b.l2_sectors;
                b.l2_sector_runs(runs);
                assert_eq!(b.l2_sectors - before, reference(runs), "runs {runs:?}");
            }
        });
        let total: u64 = queries.iter().map(|r| reference(r)).sum();
        assert_eq!(k.l2_sectors, total);
    }

    #[test]
    fn first_row_steps_price_every_step_on_sector_aligned_rows() {
        // A GM spread warp on a grid whose rows start on sector
        // boundaries: `l2_access_n` over the first row's x-steps, each
        // counted for all wd2·wd3 rows, must equal sort+dedup counted at
        // every lockstep step (t1, t2, t3). Random lane sets with partial
        // warps, shared and wrapped start rows, x-wrap, and n2, n3 below
        // the width, in f32 and f64 complex cells.
        let mut rng = 0x5851_f42d_4c95_7f2du64;
        for case in 0..300usize {
            let cb = if case.is_multiple_of(2) { 8 } else { 16 };
            let eps = 32 / cb;
            let w = 2 + xorshift(&mut rng) % 15;
            let n1 = eps * (w.div_ceil(eps) + xorshift(&mut rng) % 6);
            let [n2, n3] = [0, 1].map(|_| 1 + xorshift(&mut rng) % (2 * w));
            let [wd2, wd3] = [w, if case.is_multiple_of(3) { 1 } else { w }];
            let lanes = 1 + xorshift(&mut rng) % 32;
            // start nodes per lane; later lanes often repeat a row
            let mut starts: Vec<[usize; 3]> = Vec::with_capacity(lanes);
            for l in 0..lanes {
                let mut s = [0, 1, 2].map(|_| xorshift(&mut rng) % (2 * n1.max(n2).max(n3)));
                if l > 0 && xorshift(&mut rng).is_multiple_of(2) {
                    let [_, s2, s3] = starts[xorshift(&mut rng) % l];
                    s[1] = s2 + n2 * (xorshift(&mut rng) % 2);
                    s[2] = s3;
                }
                starts.push(s);
            }
            let addr = |s: &[usize; 3], t: [usize; 3]| {
                let [x, y, z] = [(s[0] + t[0]) % n1, (s[1] + t[1]) % n2, (s[2] + t[2]) % n3];
                (x + n1 * (y + n2 * z)) * cb
            };
            let mut reference = 0;
            for t3 in 0..wd3 {
                for t2 in 0..wd2 {
                    for t1 in 0..w {
                        let addrs: Vec<usize> =
                            starts.iter().map(|s| addr(s, [t1, t2, t3])).collect();
                        reference += dedup_sectors(32, &addrs);
                    }
                }
            }
            let mut k = mk(LaunchConfig::new(Precision::F32, 128));
            one_block(&mut k, |b| {
                for t1 in 0..w {
                    let addrs: Vec<usize> = starts.iter().map(|s| addr(s, [t1, 0, 0])).collect();
                    b.l2_access_n(&addrs, (wd2 * wd3) as u64);
                }
            });
            assert_eq!(
                k.l2_sectors, reference,
                "case {case}: cb {cb}, w {w}, n ({n1}, {n2}, {n3}), {lanes} lanes"
            );
        }
    }

    #[test]
    fn atomic_rows_match_per_row_runs() {
        // `global_atomic_rows` must tally what one `global_atomic_run`
        // per row and segment tallies: rows on and off sector
        // boundaries, one or two segments (a wrapped row), empty
        // segments, and sectors past the region's end.
        let mut rng = 0x1405_7b7e_f767_814fu64;
        for case in 0..200 {
            let elem_bytes = [4, 8, 16, 32][case % 4];
            let n1 = 1 + xorshift(&mut rng) % 40;
            let w = 1 + xorshift(&mut rng) % n1;
            let start = xorshift(&mut rng) % n1;
            let first = w.min(n1 - start);
            let segs = [(start, first), (0, w - first)];
            let rows: Vec<usize> = (0..xorshift(&mut rng) % 20)
                .map(|_| n1 * (xorshift(&mut rng) % 30))
                .collect();
            let region = n1 * 25;
            let mut ka = mk(LaunchConfig::new(Precision::F64, 128));
            ka.atomic_region(region, elem_bytes);
            one_block(&mut ka, |b| {
                for &row in &rows {
                    for &(s, len) in &segs {
                        b.global_atomic_run(row + s, len, 2);
                    }
                }
            });
            let mut kb = mk(LaunchConfig::new(Precision::F64, 128));
            kb.atomic_region(region, elem_bytes);
            one_block(&mut kb, |b| b.global_atomic_rows(&rows, &segs, 2));
            assert_eq!(ka.atomics, kb.atomics, "case {case}");
            assert_eq!(ka.atomic_hist, kb.atomic_hist, "case {case}");
        }
    }

    #[test]
    fn fastmod_matches_remainder() {
        let mut rng = 0x6c07_8965_7a3c_1f4bu64;
        let divisors = [1, 2, 3, 7, 128, 49_152, 1 << 40, u64::MAX - 1, u64::MAX];
        for &d in &divisors {
            let magic = fastmod_magic(d);
            let edges = [0, 1, d - 1, d, d.wrapping_add(1), u64::MAX - 1, u64::MAX];
            let randoms = (0..2000).map(|_| xorshift(&mut rng) as u64);
            for a in edges.into_iter().chain(randoms) {
                assert_eq!(fastmod(a, magic, d), a % d, "{a} mod {d}");
            }
        }
    }

    #[test]
    fn line_cache_is_built_by_the_first_merge() {
        let mut k = mk(LaunchConfig::new(Precision::F32, 128));
        assert!(k.cache.is_none());
        one_block(&mut k, |b| b.dram_span(0, 256, false));
        assert!(k.cache.is_some());
        assert_eq!(k.dram_bytes, 256.0);
    }

    #[test]
    fn shared_atomic_run_matches_per_word_atomics() {
        // `shared_atomic_run(w0, len, n)` must tally exactly what `len·n`
        // single `shared_atomic` calls tally — ops, atomics and the
        // per-block hotspot — across blocks and across the u32 epoch
        // wrap that clears the stamps.
        let p = AccParams {
            sector_bytes: 32,
            line_bytes: 128,
            elems_per_sector: 4,
            hist_len: 0,
            shared_words: 48,
            traced: false,
        };
        let mut runs_scratch = WorkerScratch::new(&p);
        let mut loop_scratch = WorkerScratch::new(&p);
        runs_scratch.cur_epoch = u32::MAX - 3;
        loop_scratch.cur_epoch = u32::MAX - 3;
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for block in 0..8 {
            let mut a = BlockAcc::begin(p, &mut runs_scratch);
            let mut b = BlockAcc::begin(p, &mut loop_scratch);
            for _ in 0..20 {
                // words past the 48-word allocation count as ops only
                let w0 = xorshift(&mut rng) % 56;
                let len = xorshift(&mut rng) % 9;
                let n = (xorshift(&mut rng) % 4) as u64;
                a.shared_atomic_run(w0, len, n);
                for w in w0..w0 + len {
                    for _ in 0..n {
                        b.shared_atomic(w);
                    }
                }
            }
            let (ra, rb) = (a.into_out(), b.into_out());
            assert_eq!(ra.shared_ops, rb.shared_ops, "block {block}");
            assert_eq!(ra.shared_atomics, rb.shared_atomics, "block {block}");
            assert_eq!(ra.shared_hotspot, rb.shared_hotspot, "block {block}");
        }
        assert!(runs_scratch.cur_epoch < 8, "the epoch wrapped");
    }

    #[test]
    fn atomic_hotspot_tracks_worst_sector() {
        let mut k = mk(LaunchConfig::new(Precision::F32, 128));
        k.atomic_region(1024, 8);
        one_block(&mut k, |b| {
            for _ in 0..100 {
                b.global_atomic(5);
            }
            b.global_atomic(900);
        });
        let r = k.price().0;
        assert_eq!(r.global_atomics, 101);
        assert_eq!(r.atomic_hotspot_count, 100);
    }

    #[test]
    fn hotspot_serialization_dominates_when_contended() {
        let props = DeviceProps::v100();
        let mut k = Kernel::new("hot", LaunchConfig::new(Precision::F32, 128), props.clone());
        k.atomic_region(16, 8);
        let n = 1_000_000u32;
        one_block(&mut k, |b| {
            for _ in 0..n {
                b.global_atomic(0);
            }
        });
        let r = k.price().0;
        let expect = n as f64 * props.t_global_atomic_same;
        assert!(r.breakdown.atomic_hotspot >= expect * 0.99);
        assert!(r.duration >= expect);
    }

    #[test]
    fn cas_penalty_multiplies_contention() {
        let props = DeviceProps::v100();
        let run = |penalty: f64| {
            let cfg = LaunchConfig::new(Precision::F64, 128).with_cas_penalty(penalty);
            let mut k = Kernel::new("c", cfg, props.clone());
            k.atomic_region(16, 16);
            one_block(&mut k, |b| {
                for _ in 0..10_000 {
                    b.global_atomic(0);
                }
            });
            k.price().0.breakdown.atomic_hotspot
        };
        assert!((run(16.0) / run(1.0) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn shared_atomics_are_much_cheaper_than_global_hotspot() {
        let props = DeviceProps::v100();
        let cfg = LaunchConfig::new(Precision::F32, 128).with_shared(4096);
        let mut kg = Kernel::new("g", LaunchConfig::new(Precision::F32, 128), props.clone());
        kg.atomic_region(16, 8);
        one_block(&mut kg, |bg| {
            for _ in 0..100_000 {
                bg.global_atomic(0);
            }
        });
        let mut ks = Kernel::new("s", cfg, props);
        one_block(&mut ks, |bs| {
            for _ in 0..100_000 {
                bs.shared_atomic(0);
            }
        });
        let tg = kg.price().0.duration;
        let ts = ks.price().0.duration;
        assert!(ts < tg / 3.0, "shared {ts} vs global {tg}");
    }

    #[test]
    fn shared_hotspot_resets_between_blocks() {
        let cfg = LaunchConfig::new(Precision::F32, 128).with_shared(1024);
        let mut k = mk(cfg);
        k.run_blocks(
            2,
            |bid, b| {
                let n = if bid == 0 { 50 } else { 1 };
                for _ in 0..n {
                    b.shared_atomic(3);
                }
                assert_eq!(b.shared_hotspot, n, "epoch must reset per block");
            },
            |_, ()| {},
        );
    }

    #[test]
    fn load_imbalance_shows_in_makespan() {
        let props = DeviceProps::v100();
        let total_flops = 8.0e9_f64;
        let mut k1 = Kernel::new(
            "lump",
            LaunchConfig::new(Precision::F32, 128),
            props.clone(),
        );
        one_block(&mut k1, |b| b.flops(total_flops as u64));
        let t_lump = k1.price().0.duration;
        let mut k2 = Kernel::new("split", LaunchConfig::new(Precision::F32, 128), props);
        k2.run_blocks(
            800,
            |_, b| b.flops((total_flops / 800.0) as u64),
            |_, ()| {},
        );
        let t_split = k2.price().0.duration;
        assert!(t_split < t_lump / 10.0, "split {t_split} vs lump {t_lump}");
    }

    #[test]
    fn atomic_op_throughput_bounds_uncontended_atomics() {
        let props = DeviceProps::v100();
        let mut k = Kernel::new("ops", LaunchConfig::new(Precision::F32, 128), props.clone());
        k.atomic_region(1 << 20, 8);
        one_block(&mut k, |b| {
            // spread over many sectors: no hotspot, but op rate still binds
            for i in 0..1_000_000usize {
                b.global_atomic(i % (1 << 20));
            }
        });
        let r = k.price().0;
        let expect = 1.0e6 / props.l2_atomic_rate;
        assert!(r.breakdown.atomic_ops >= expect * 0.99);
        assert!(r.breakdown.atomic_hotspot < expect);
    }

    #[test]
    fn hotspot_counter_survives_u32_overflow() {
        // Regression: `atomic_hotspot_count` (and the per-sector tallies
        // feeding it) were u32 and would wrap on huge-M runs. Feed > 2^32
        // ops into one sector via the bulk form and check the exact count
        // comes back out.
        let mut k = mk(LaunchConfig::new(Precision::F32, 128));
        k.atomic_region(16, 8);
        let huge = (u32::MAX as u64) + 5;
        one_block(&mut k, |b| b.global_atomic_n(0, huge));
        let r = k.price().0;
        assert_eq!(r.global_atomics, huge);
        assert_eq!(r.atomic_hotspot_count, huge, "tally must not wrap");
    }

    #[test]
    fn access_trace_captures_contract_and_records() {
        use crate::access::Scope;
        let mut k = mk(LaunchConfig::new(Precision::F32, 128).with_shared(1024));
        k.enable_access_trace();
        k.atomic_region(64, 8);
        let grid = k.trace_buffer("grid", Scope::Global, 4);
        let tile = k.trace_buffer("tile", Scope::Shared, 4);
        one_block(&mut k, |b| {
            b.global_atomic(3);
            b.trace_atomic(grid, 0, 3);
            b.shared_atomic(7);
            b.trace_atomic(tile, 1, 7);
            b.barrier();
            b.trace_read(tile, 2, 7);
        });
        let (_, traced) = k.price();
        let (trace, contract) = traced.expect("trace attached");
        assert_eq!(trace.len(), 3);
        assert_eq!(contract.global_atomics, Some(1));
        assert_eq!(contract.shared_atomics, Some(1));
        assert_eq!(contract.shared_bytes, Some(1024));
    }

    #[test]
    fn trace_hooks_are_noops_when_disabled() {
        use crate::access::Scope;
        let mut k = mk(LaunchConfig::new(Precision::F32, 128));
        assert!(!k.access_traced());
        let buf = k.trace_buffer("grid", Scope::Global, 4);
        one_block(&mut k, |b| {
            b.trace_write(buf, 0, 0);
            b.barrier();
        });
        let (_, traced) = k.price();
        assert!(traced.is_none());
    }

    #[test]
    fn atomic_region_exact_boundary_has_no_spurious_sector() {
        // 1024 elems of 8 bytes, 32-byte sectors → 4 elems/sector →
        // exactly 256 sectors. The old `n / eps + 1` sizing allocated a
        // 257th sector that nothing could ever land in, diluting
        // hotspot-fraction style statistics.
        let mut k = mk(LaunchConfig::new(Precision::F32, 128));
        k.atomic_region(1024, 8);
        assert_eq!(k.atomic_hist.len(), 256);
        // Last element maps to the last sector, in range.
        one_block(&mut k, |b| b.global_atomic(1023));
        let r = k.price().0;
        assert_eq!(r.atomic_hotspot_count, 1);
        // Non-dividing case still rounds up.
        let mut k2 = mk(LaunchConfig::new(Precision::F32, 128));
        k2.atomic_region(1025, 8);
        assert_eq!(k2.atomic_hist.len(), 257);
    }

    /// Synthetic per-block workload exercising every accounting channel,
    /// with cross-block line reuse so the DRAM replay order matters.
    fn workload_acc(bid: usize, b: &mut BlockAcc<'_>) -> Vec<(usize, f64)> {
        b.flops(1000 + bid as u64);
        let addrs: Vec<usize> = (0..32).map(|i| (bid / 2) * 256 + i * 8).collect();
        b.warp_access(&addrs);
        b.dram_span(bid * 100, 512, bid.is_multiple_of(3));
        b.stream_bytes(96);
        for j in 0..(bid % 7 + 1) {
            b.global_atomic((bid * 13 + j) % 64);
        }
        b.shared_atomic(bid % 16);
        b.shared_atomic(bid % 16);
        b.shared_ops(5);
        b.shared_reads(8);
        vec![(bid, bid as f64 * 0.5), (bid + 1, 1.0)]
    }

    fn run_workload(threads: usize, n_blocks: usize) -> (LaunchReport, Vec<f64>) {
        let cfg = LaunchConfig::new(Precision::F32, 128).with_shared(1024);
        let mut k = mk(cfg);
        k.atomic_region(256, 8);
        k.host_threads = threads;
        let mut sink = vec![0.0f64; n_blocks + 1];
        k.run_blocks(n_blocks, workload_acc, |_bid, deltas| {
            for (i, v) in deltas {
                sink[i] += v;
            }
        });
        (k.price().0, sink)
    }

    fn assert_reports_identical(a: &LaunchReport, b: &LaunchReport) {
        assert_eq!(a.duration.to_bits(), b.duration.to_bits());
        assert_eq!(a.dram_bytes.to_bits(), b.dram_bytes.to_bits());
        assert_eq!(a.flops.to_bits(), b.flops.to_bits());
        assert_eq!(a.l2_bytes.to_bits(), b.l2_bytes.to_bits());
        assert_eq!(a.global_atomics, b.global_atomics);
        assert_eq!(a.atomic_hotspot_count, b.atomic_hotspot_count);
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(
            a.breakdown.makespan.to_bits(),
            b.breakdown.makespan.to_bits()
        );
        assert_eq!(a.breakdown.dram.to_bits(), b.breakdown.dram.to_bits());
        assert_eq!(
            a.breakdown.atomic_hotspot.to_bits(),
            b.breakdown.atomic_hotspot.to_bits()
        );
    }

    #[test]
    fn run_blocks_parallel_is_bitwise_identical_to_serial() {
        let n_blocks = 97; // odd count: uneven work distribution
        let (serial, s_sink) = run_workload(1, n_blocks);
        for threads in [2, 3, 8] {
            let (par, p_sink) = run_workload(threads, n_blocks);
            assert_reports_identical(&serial, &par);
            for (a, b) in s_sink.iter().zip(p_sink.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn run_blocks_workers_stay_within_the_merge_window() {
        // Far more blocks than the window, and an ordered merge held back
        // at block 0 until the window has filled: every block must still
        // start within the window of the merge, and the launch must match
        // the serial run bit for bit.
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let threads = 3;
        let window = MERGE_WINDOW_PER_THREAD * threads;
        let n_blocks = 30 * window;
        let (serial, s_sink) = run_workload(1, n_blocks);
        let applied = AtomicUsize::new(0);
        let started = AtomicUsize::new(0);
        let escaped = AtomicBool::new(false);
        let cfg = LaunchConfig::new(Precision::F32, 128).with_shared(1024);
        let mut k = mk(cfg);
        k.atomic_region(256, 8);
        k.host_threads = threads;
        let mut sink = vec![0.0f64; n_blocks + 1];
        k.run_blocks(
            n_blocks,
            |bid, b| {
                if bid >= applied.load(Ordering::Acquire) + window {
                    escaped.store(true, Ordering::Relaxed);
                }
                started.fetch_add(1, Ordering::AcqRel);
                workload_acc(bid, b)
            },
            |bid, deltas| {
                if bid == 0 {
                    // every block inside the window can start meanwhile
                    while started.load(Ordering::Acquire) < window {
                        std::thread::yield_now();
                    }
                    // and none outside it may, however long block 0 takes
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < std::time::Duration::from_millis(20) {
                        std::thread::yield_now();
                    }
                    assert_eq!(started.load(Ordering::Acquire), window);
                }
                for (i, v) in deltas {
                    sink[i] += v;
                }
                applied.store(bid + 1, Ordering::Release);
            },
        );
        assert!(
            !escaped.load(Ordering::Relaxed),
            "a block ran past the window"
        );
        assert_reports_identical(&serial, &k.price().0);
        for (a, b) in s_sink.iter().zip(sink.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "block 5 failed")]
    fn run_blocks_propagates_a_worker_panic_past_the_window() {
        // Workers parked on the merge window must give up when the block
        // the merge waits for panicked, so the panic surfaces, not a hang.
        let mut k = mk(LaunchConfig::new(Precision::F32, 128));
        k.host_threads = 2;
        k.run_blocks(
            500,
            |bid, b| {
                assert!(bid != 5, "block 5 failed");
                b.flops(1);
            },
            |_, ()| {},
        );
    }

    #[test]
    fn run_blocks_forces_serial_and_replays_trace_when_hazard_checked() {
        use crate::access::Scope;
        let mut k = mk(LaunchConfig::new(Precision::F32, 128).with_shared(1024));
        k.enable_access_trace();
        k.atomic_region(64, 8);
        let grid = k.trace_buffer("grid", Scope::Global, 4);
        k.host_threads = 8; // must be ignored: trace attached → serial
        k.run_blocks(
            3,
            |bid, b| {
                b.global_atomic(bid);
                b.trace_atomic(grid, 0, bid as u64);
                b.barrier();
                b.trace_read(grid, 1, bid as u64);
            },
            |_, _| {},
        );
        let (report, traced) = k.price();
        assert_eq!(report.blocks, 3);
        let (trace, contract) = traced.expect("trace attached");
        assert_eq!(trace.len(), 6);
        assert_eq!(contract.global_atomics, Some(3));
    }

    #[test]
    fn stream_bytes_counts_both_levels() {
        let mut k = mk(LaunchConfig::new(Precision::F32, 128));
        one_block(&mut k, |b| b.stream_bytes(33));
        assert_eq!(k.l2_sectors, 2);
        assert_eq!(k.dram_bytes, 33.0);
    }
}
