//! The benchmark's own span recorder for the traced run: a span around
//! each call into a layer's public API, kept in memory and written out
//! when the run ends. The untraced run uses [`Spans::off`], which calls
//! straight through and records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::{json_number, json_string, median};

/// One closed span. Times are host seconds since the recorder started.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    /// Id of the enclosing span, 0 at top level.
    pub parent: u64,
    /// Index of the benchmark op the span belongs to; `None` for set-up
    /// and layer probes.
    pub op: Option<u64>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl SpanRecord {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanStats {
    pub count: usize,
    pub total_s: f64,
    /// Duration minus the part of it covered by child spans, summed.
    pub self_s: f64,
    pub median_s: f64,
}

#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    next_id: u64,
    stack: Vec<(u64, &'static str, f64)>,
    op: Option<u64>,
    done: Vec<SpanRecord>,
}

impl Spans {
    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Spans {
            on: true,
            origin: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            op: None,
            done: Vec::new(),
        }
    }

    /// A recorder that keeps nothing and adds no clock reads.
    pub fn off() -> Self {
        Spans {
            on: false,
            ..Spans::on()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Attribute the spans that follow to op `op` (`None`: set-up or
    /// probes).
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.origin.elapsed().as_secs_f64();
        self.stack.push((id, name, start));
        let r = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        let (id_back, name, start) = self.stack.pop().expect("span stack underflow");
        debug_assert_eq!(id_back, id);
        let parent = self.stack.last().map_or(0, |s| s.0);
        self.done.push(SpanRecord {
            id,
            parent,
            op: self.op,
            name,
            start,
            end,
        });
        r
    }

    pub fn records(&self) -> &[SpanRecord] {
        &self.done
    }

    /// Per-name statistics over every span.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let child_cover = child_cover(&self.done);
        let mut durs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for s in &self.done {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += s.duration();
            e.self_s += s.duration() - child_cover.get(&s.id).copied().unwrap_or(0.0);
            durs.entry(s.name).or_default().push(s.duration());
        }
        for (name, d) in durs {
            out.get_mut(name).expect("entry made above").median_s =
                median(&d).expect("at least one span");
        }
        out
    }

    /// Mean over the ops that call `name` of the seconds spent in it per
    /// op; 0 when no op calls it.
    pub fn per_op_total(&self, name: &str) -> f64 {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.done.iter().filter(|s| s.name == name) {
            if let Some(op) = s.op {
                *per_op.entry(op).or_default() += s.duration();
            }
        }
        if per_op.is_empty() {
            return 0.0;
        }
        per_op.values().sum::<f64>() / per_op.len() as f64
    }

    /// JSON array of every span, for the trace file.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .done
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": {}, \"start_s\": {}, \"end_s\": {}}}",
                    s.id,
                    s.parent,
                    s.op.map_or("null".to_string(), |o| o.to_string()),
                    json_string(s.name),
                    json_number(s.start),
                    json_number(s.end)
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }

    /// JSON object of [`Spans::stats`], keyed by span name.
    pub fn stats_json(&self) -> String {
        let rows: Vec<String> = self
            .stats()
            .into_iter()
            .map(|(name, st)| {
                format!(
                    "{}: {{\"count\": {}, \"total_s\": {}, \"self_s\": {}, \"median_s\": {}}}",
                    json_string(name),
                    st.count,
                    json_number(st.total_s),
                    json_number(st.self_s),
                    json_number(st.median_s)
                )
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }
}

/// For every span id, the length of the union of its children's
/// intervals (clipped to the parent).
fn child_cover(spans: &[SpanRecord]) -> BTreeMap<u64, f64> {
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut kids: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some(p) = by_id.get(&s.parent) {
            kids.entry(p.id)
                .or_default()
                .push((s.start.max(p.start), s.end.min(p.end)));
        }
    }
    kids.into_iter()
        .map(|(id, mut iv)| {
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (id, covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            op: Some(0),
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // parent [0, 10], children [1, 4] and [3, 6] overlap: cover = 5
        let spans = vec![
            rec(2, 1, 1.0, 4.0),
            rec(3, 1, 3.0, 6.0),
            rec(1, 0, 0.0, 10.0),
        ];
        let cover = child_cover(&spans);
        assert_eq!(cover.get(&1), Some(&5.0));
        assert_eq!(cover.get(&2), None);
    }

    #[test]
    fn off_records_nothing_and_nesting_sets_parents() {
        let mut off = Spans::off();
        assert_eq!(off.span("a", |_| 7), 7);
        assert!(off.records().is_empty());

        let mut on = Spans::on();
        on.set_op(Some(3));
        on.span("outer", |s| s.span("inner", |_| ()));
        let r = on.records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].name, "inner");
        assert_eq!(r[0].parent, r[1].id);
        assert_eq!(r[1].parent, 0);
        assert_eq!(r[1].op, Some(3));
        let st = on.stats();
        assert_eq!(st["outer"].count, 1);
        assert!(st["outer"].self_s <= st["outer"].total_s);
    }
}
