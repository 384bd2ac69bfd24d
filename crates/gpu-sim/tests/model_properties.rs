//! Property-based tests for the device cost model: monotonicity,
//! conservation, and schedule validity. These pin down the *mechanisms*
//! the cuFINUFFT reproduction depends on — if one of these breaks, a
//! figure harness could silently produce the wrong shape.

use gpu_sim::{Device, DeviceProps, LaunchConfig, Precision};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// More traffic never prices faster.
    #[test]
    fn duration_monotone_in_traffic(a in 1usize..1000, b in 1usize..1000) {
        let (lo, hi) = (a.min(b), a.max(b));
        let run = |kb: usize| {
            let dev = Device::v100();
            dev.set_record_timeline(false);
            let mut k = dev.kernel("t", LaunchConfig::new(Precision::Single, 128)).unwrap();
            k.run_blocks(1, |_, blk| blk.stream_bytes(kb * 1024), |_, ()| {});
            dev.launch_end(k).duration
        };
        prop_assert!(run(hi) + 1e-15 >= run(lo));
    }

    /// More atomic contention never prices faster.
    #[test]
    fn duration_monotone_in_contention(a in 1u32..50_000, b in 1u32..50_000) {
        let (lo, hi) = (a.min(b), a.max(b));
        let run = |n: u32| {
            let dev = Device::v100();
            dev.set_record_timeline(false);
            let mut k = dev.kernel("t", LaunchConfig::new(Precision::Single, 128)).unwrap();
            k.atomic_region(64, 8);
            k.run_blocks(
                1,
                |_, blk| {
                    for _ in 0..n {
                        blk.global_atomic(0);
                    }
                },
                |_, ()| {},
            );
            dev.launch_end(k).duration
        };
        prop_assert!(run(hi) >= run(lo));
    }

    /// Splitting the same work over more blocks never lengthens the
    /// makespan term (the M_sub load-balancing premise).
    #[test]
    fn splitting_blocks_helps(total_flops in 1_000_000u64..1_000_000_000, parts in 1usize..64) {
        let run = |nblocks: usize| {
            let dev = Device::v100();
            dev.set_record_timeline(false);
            let mut k = dev.kernel("t", LaunchConfig::new(Precision::Single, 128)).unwrap();
            k.run_blocks(nblocks, |_, blk| blk.flops(total_flops / nblocks as u64), |_, ()| {});
            dev.launch_end(k).breakdown.makespan
        };
        prop_assert!(run(parts) <= run(1) + 1e-15);
    }

    /// The line-cache never reports more DRAM traffic than the raw
    /// (uncached) footprint, and never less than the distinct-lines
    /// compulsory floor.
    #[test]
    fn dram_traffic_bounded(spans in proptest::collection::vec((0usize..1_000_000, 1usize..4096), 1..100)) {
        let dev = Device::v100();
        dev.set_record_timeline(false);
        let mut k = dev.kernel("t", LaunchConfig::new(Precision::Single, 128)).unwrap();
        k.run_blocks(
            1,
            |_, blk| {
                for &(start, len) in &spans {
                    blk.dram_span(start, len, false);
                }
            },
            |_, ()| {},
        );
        let line = dev.props().line_bytes;
        let mut raw_lines = 0u64;
        let mut distinct = std::collections::HashSet::new();
        for &(start, len) in &spans {
            let first = start / line;
            let last = (start + len - 1) / line;
            raw_lines += (last - first + 1) as u64;
            for l in first..=last {
                distinct.insert(l);
            }
        }
        let rep = dev.launch_end(k);
        let dram_lines = (rep.dram_bytes / line as f64).round() as u64;
        prop_assert!(dram_lines <= raw_lines);
        prop_assert!(dram_lines >= distinct.len() as u64 || raw_lines < distinct.len() as u64);
    }

    /// Memory accounting: allocations and frees balance exactly.
    #[test]
    fn memory_conservation(sizes in proptest::collection::vec(1usize..1_000_000, 1..20)) {
        let dev = Device::v100();
        let base = dev.mem_used();
        {
            let mut bufs = Vec::new();
            let mut expect = base;
            for (i, &s) in sizes.iter().enumerate() {
                bufs.push(dev.alloc::<f32>(&format!("b{i}"), s).unwrap());
                expect += s * 4;
                prop_assert_eq!(dev.mem_used(), expect);
            }
            prop_assert!(dev.mem_peak() >= expect);
        }
        prop_assert_eq!(dev.mem_used(), base);
    }

    /// A weaker device never beats the V100 on the same workload.
    #[test]
    fn scaled_hardware_scales_time(kb in 64usize..100_000) {
        let run = |props: DeviceProps| {
            let dev = Device::new(props);
            dev.set_record_timeline(false);
            let mut k = dev.kernel("t", LaunchConfig::new(Precision::Single, 128)).unwrap();
            k.run_blocks(
                1,
                |_, blk| {
                    blk.stream_bytes(kb * 1024);
                    blk.flops(kb as u64 * 5000);
                },
                |_, ()| {},
            );
            dev.launch_end(k).duration
        };
        prop_assert!(run(DeviceProps::half_v100()) >= run(DeviceProps::v100()));
    }

    /// Double precision never beats single for the same op counts.
    #[test]
    fn double_no_faster_than_single(flops in 1_000_000u64..100_000_000) {
        let run = |p: Precision| {
            let dev = Device::v100();
            dev.set_record_timeline(false);
            let mut k = dev.kernel("t", LaunchConfig::new(p, 128)).unwrap();
            k.run_blocks(1, |_, blk| blk.flops(flops), |_, ()| {});
            dev.launch_end(k).duration
        };
        prop_assert!(run(Precision::Double) >= run(Precision::Single));
    }
}
