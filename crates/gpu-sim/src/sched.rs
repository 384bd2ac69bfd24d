//! Block-to-SM scheduling: the makespan model.
//!
//! A CUDA grid's thread blocks are dispatched to SMs as slots free up. We
//! model each SM as a serial server and dispatch blocks in submission
//! order to the earliest-free SM (greedy list scheduling). This is the
//! component that makes *load balance* visible: one huge block (the
//! failure mode of uncapped output-driven spreading, fixed by the paper's
//! `M_sub` cap) stretches the makespan no matter how idle the other SMs
//! are.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total-order wrapper for non-NaN f64 so times can live in a heap.
#[derive(Copy, Clone, PartialEq, PartialOrd)]
pub(crate) struct Finite(pub f64);

impl Eq for Finite {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Finite {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("NaN time in scheduler")
    }
}

/// Greedy list-scheduling makespan of `block_times` over `slots` identical
/// servers, in submission order. Returns 0 for an empty grid.
pub fn makespan(block_times: &[f64], slots: usize) -> f64 {
    assert!(slots > 0, "scheduler needs at least one slot");
    if block_times.is_empty() {
        return 0.0;
    }
    if block_times.len() <= slots {
        return block_times.iter().cloned().fold(0.0, f64::max);
    }
    let mut heap: BinaryHeap<Reverse<Finite>> = BinaryHeap::with_capacity(slots);
    for _ in 0..slots {
        heap.push(Reverse(Finite(0.0)));
    }
    let mut latest: f64 = 0.0;
    for &t in block_times {
        debug_assert!(t >= 0.0 && t.is_finite(), "bad block time {t}");
        let Reverse(Finite(free_at)) = heap.pop().expect("heap never empty");
        let done = free_at + t;
        latest = latest.max(done);
        heap.push(Reverse(Finite(done)));
    }
    latest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid_is_instant() {
        assert_eq!(makespan(&[], 80), 0.0);
    }

    #[test]
    fn fewer_blocks_than_slots_take_the_longest_block() {
        assert_eq!(makespan(&[1.0, 3.0, 2.0], 4), 3.0);
    }

    #[test]
    fn perfectly_balanced_blocks_divide_evenly() {
        let times = vec![1.0; 160];
        assert!((makespan(&times, 80) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn one_giant_block_dominates() {
        // the load-imbalance pathology M_sub exists to prevent
        let mut times = vec![0.001; 1000];
        times[0] = 5.0;
        let ms = makespan(&times, 80);
        assert!((5.0..5.1).contains(&ms));
    }

    #[test]
    fn capped_blocks_beat_uncapped() {
        // same total work, split 100-ways vs one lump
        let lump = makespan(&[10.0], 80);
        let split = makespan(&vec![0.1; 100], 80);
        assert!(split < lump / 4.0, "split {split} vs lump {lump}");
    }

    #[test]
    fn makespan_bounds() {
        // classic bounds: max(avg load, longest block) <= makespan <= sum
        let times = [0.5, 1.7, 0.3, 2.2, 0.9, 1.1, 0.4];
        let slots = 3;
        let ms = makespan(&times, slots);
        let total: f64 = times.iter().sum();
        let lb = (total / slots as f64).max(2.2);
        assert!(ms + 1e-12 >= lb);
        assert!(ms <= total + 1e-12);
    }

    #[test]
    fn single_slot_serializes() {
        let times = [1.0, 2.0, 3.0];
        assert!((makespan(&times, 1) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn zero_blocks_is_instant_for_any_slot_count() {
        for slots in [1, 2, 80, 1000] {
            assert_eq!(makespan(&[], slots), 0.0);
        }
    }

    #[test]
    fn blocks_equal_to_slot_count_fill_one_wave() {
        // exactly one wave: every block gets its own SM, the longest wins
        let times: Vec<f64> = (1..=80).map(|i| i as f64 * 0.01).collect();
        assert!((makespan(&times, 80) - 0.80).abs() < 1e-12);
    }

    #[test]
    fn one_block_past_a_full_wave_starts_a_second_wave() {
        // 81 equal blocks on 80 slots: the straggler waits a full wave
        let times = vec![1.0; 81];
        assert!((makespan(&times, 80) - 2.0).abs() < 1e-12);
        // and it queues behind the *earliest-free* slot: with one short
        // block in wave 1, the straggler lands there instead
        let mut uneven = vec![1.0; 81];
        uneven[7] = 0.25;
        assert!((makespan(&uneven, 80) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn single_block_with_occupancy_limiting_shared_memory() {
        // a lone block that consumes the whole per-SM shared memory can
        // occupy only one SM; its serial cost IS the makespan, and no
        // amount of idle SMs helps
        use crate::props::DeviceProps;
        use crate::{Kernel, LaunchConfig, Precision};
        let props = DeviceProps::v100();
        let shared = props.shared_mem_per_block;
        let mut k = Kernel::new(
            "lone_block",
            LaunchConfig::new(Precision::Single, 256).with_shared(shared),
            props,
        );
        k.run_blocks(1, |_, b| b.shared_ops(1_000_000), |_, ()| {});
        let (r, _) = k.price();
        assert_eq!(r.blocks, 1);
        assert!(r.breakdown.makespan > 0.0);
        // one serial server: duration is bounded below by the block time
        assert!(r.duration >= r.breakdown.makespan);
        assert!((r.breakdown.makespan - makespan(&[r.breakdown.makespan], 80)).abs() < 1e-15);
    }
}
