//! nvprof-style summaries of a device timeline.
//!
//! The simulator records every priced operation; this module aggregates
//! them into the familiar per-kernel profile (calls, total time, average,
//! share) so users can see where a transform's simulated time goes —
//! e.g. reproducing Table I's observation that spreading is >90% of a 3D
//! type-1 "exec".

use crate::device::{OpKind, TimelineRecord};
use std::collections::HashMap;
use std::fmt::Write;

/// Aggregated statistics for one operation name.
#[derive(Clone, Debug, PartialEq)]
pub struct OpSummary {
    pub name: String,
    pub kind: OpKind,
    pub calls: usize,
    pub total: f64,
    pub avg: f64,
    /// Fraction of the profiled span.
    pub share: f64,
}

/// Aggregate a timeline into per-name summaries, sorted by total time
/// (descending).
pub fn summarize(timeline: &[TimelineRecord]) -> Vec<OpSummary> {
    let mut agg: HashMap<(String, OpKind), (usize, f64)> = HashMap::new();
    let mut grand = 0.0f64;
    for r in timeline {
        let e = agg.entry((r.name.clone(), r.kind)).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += r.duration;
        grand += r.duration;
    }
    let mut out: Vec<OpSummary> = agg
        .into_iter()
        .map(|((name, kind), (calls, total))| OpSummary {
            name,
            kind,
            calls,
            total,
            avg: total / calls as f64,
            share: if grand > 0.0 { total / grand } else { 0.0 },
        })
        .collect();
    // total_cmp: totals of 0.0 (zero-duration records) or NaN must not
    // panic the profiler the way partial_cmp().unwrap() would.
    out.sort_by(|a, b| b.total.total_cmp(&a.total));
    out
}

/// Serial-vs-wall accounting over a span of timeline records (typically
/// the records of one batched execution). When operations were scheduled
/// on overlapping streams, `wall` is shorter than `serial`; the
/// difference is the pipeline's hidden time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OverlapStats {
    /// Sum of all operation durations (what a one-stream schedule costs).
    pub serial: f64,
    /// End-to-end span: latest completion minus earliest start.
    pub wall: f64,
}

impl OverlapStats {
    /// Time hidden by overlap (zero when nothing overlapped).
    pub fn saving(&self) -> f64 {
        (self.serial - self.wall).max(0.0)
    }

    /// Fraction of the serial cost hidden by overlap, in [0, 1).
    pub fn overlap_fraction(&self) -> f64 {
        if self.serial > 0.0 {
            self.saving() / self.serial
        } else {
            0.0
        }
    }
}

/// Compute [`OverlapStats`] for a slice of timeline records.
pub fn overlap_stats(timeline: &[TimelineRecord]) -> OverlapStats {
    if timeline.is_empty() {
        return OverlapStats::default();
    }
    let mut serial = 0.0f64;
    let mut first = f64::INFINITY;
    let mut last = f64::NEG_INFINITY;
    for r in timeline {
        serial += r.duration;
        first = first.min(r.start);
        last = last.max(r.start + r.duration);
    }
    OverlapStats {
        serial,
        wall: last - first,
    }
}

/// Render the summary as an nvprof-like table.
pub fn profile_table(timeline: &[TimelineRecord]) -> String {
    let rows = summarize(timeline);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>7}  {:>9}  {:>10}  {:>10}  {:<8}  name",
        "share", "calls", "total", "avg", "kind"
    );
    for r in &rows {
        let _ = writeln!(
            s,
            "{:>6.1}%  {:>9}  {:>9.3}ms  {:>9.3}us  {:<8}  {}",
            r.share * 100.0,
            r.calls,
            r.total * 1e3,
            r.avg * 1e6,
            format!("{:?}", r.kind),
            r.name
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::kernel::LaunchConfig;
    use crate::props::Precision;

    fn sample_device() -> Device {
        let dev = Device::v100();
        for _ in 0..3 {
            let mut k = dev
                .kernel("spread", LaunchConfig::new(Precision::F32, 128))
                .unwrap();
            k.run_blocks(1, |_, b| b.flops(1_000_000), |_, ()| {});
            dev.launch_end(k);
        }
        dev.bulk_op("cufft", 1 << 20, 1 << 20, 1e6, Precision::F32);
        dev
    }

    #[test]
    fn summary_aggregates_by_name() {
        let dev = sample_device();
        let rows = summarize(&dev.timeline());
        let spread = rows.iter().find(|r| r.name == "spread").unwrap();
        assert_eq!(spread.calls, 3);
        assert!((spread.avg * 3.0 - spread.total).abs() < 1e-15);
        let shares: f64 = rows.iter().map(|r| r.share).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rows_sorted_by_total() {
        let dev = sample_device();
        let rows = summarize(&dev.timeline());
        for w in rows.windows(2) {
            assert!(w[0].total >= w[1].total);
        }
    }

    #[test]
    fn table_renders() {
        let dev = sample_device();
        let t = profile_table(&dev.timeline());
        assert!(t.contains("spread"));
        assert!(t.contains("cufft"));
        assert!(t.lines().count() >= 3);
    }

    #[test]
    fn empty_timeline_is_fine() {
        let rows = summarize(&[]);
        assert!(rows.is_empty());
        assert!(profile_table(&[]).lines().count() == 1);
        assert_eq!(overlap_stats(&[]), OverlapStats::default());
    }

    #[test]
    fn zero_duration_records_do_not_panic_summarize() {
        let rec = |name: &str| TimelineRecord {
            name: name.into(),
            kind: OpKind::Bulk,
            start: 0.0,
            duration: 0.0,
            breakdown: Default::default(),
        };
        // all-zero totals: grand total is 0, shares must be 0, sort must
        // not panic (regression test for partial_cmp().unwrap())
        let rows = summarize(&[rec("a"), rec("b"), rec("a")]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.total, 0.0);
            assert_eq!(r.share, 0.0);
        }
        let a = rows.iter().find(|r| r.name == "a").unwrap();
        assert_eq!(a.calls, 2);
    }

    #[test]
    fn overlap_stats_single_record() {
        let one = [TimelineRecord {
            name: "solo".into(),
            kind: OpKind::Kernel,
            start: 5.0,
            duration: 2.0,
            breakdown: Default::default(),
        }];
        let s = overlap_stats(&one);
        assert!((s.serial - 2.0).abs() < 1e-12);
        assert!((s.wall - 2.0).abs() < 1e-12);
        assert_eq!(s.saving(), 0.0);
        assert_eq!(s.overlap_fraction(), 0.0);
    }

    #[test]
    fn overlap_stats_fully_overlapping_streams() {
        let rec = |start: f64, duration: f64| TimelineRecord {
            name: "op".into(),
            kind: OpKind::Memcpy,
            start,
            duration,
            breakdown: Default::default(),
        };
        // two streams issuing identical, fully concurrent work
        let s = overlap_stats(&[rec(0.0, 2.0), rec(0.0, 2.0)]);
        assert!((s.serial - 4.0).abs() < 1e-12);
        assert!((s.wall - 2.0).abs() < 1e-12);
        assert!((s.saving() - 2.0).abs() < 1e-12);
        assert!((s.overlap_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_stats_detect_hidden_time() {
        let rec = |start: f64, duration: f64| TimelineRecord {
            name: "op".into(),
            kind: OpKind::Memcpy,
            start,
            duration,
            breakdown: Default::default(),
        };
        // serial layout: no overlap
        let s = overlap_stats(&[rec(0.0, 1.0), rec(1.0, 2.0)]);
        assert!((s.serial - 3.0).abs() < 1e-12);
        assert!((s.wall - 3.0).abs() < 1e-12);
        assert_eq!(s.saving(), 0.0);
        // pipelined layout: second op starts while first runs
        let p = overlap_stats(&[rec(0.0, 2.0), rec(1.0, 2.0)]);
        assert!((p.serial - 4.0).abs() < 1e-12);
        assert!((p.wall - 3.0).abs() < 1e-12);
        assert!((p.saving() - 1.0).abs() < 1e-12);
        assert!((p.overlap_fraction() - 0.25).abs() < 1e-12);
    }
}
