//! Metric values, the percentile rule and the one-line JSON result.

use std::fmt::Write as _;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// `true` when `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` when `unit` is a legal unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` for
/// no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Tail percentile `q` in `(0, 1)` by the nearest-rank rule, reported
/// only when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it: a p90
/// needs 100 samples, a p99 needs 1000.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// Accumulates the metrics of one run, refusing bad names, bad units
/// and values that are not finite.
#[derive(Debug, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// Names of the metrics whose value is NaN or infinite.
    pub fn non_finite(&self) -> Vec<&str> {
        self.metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }
}

/// JSON number text for a finite `f64`, with every digit it carries.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite value {v} has no JSON form");
    // `{:?}` prints the shortest text that reads back as the same f64
    // and uses an exponent for very large or small magnitudes, both of
    // which JSON accepts
    format!("{v:?}")
}

/// JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn json_number_round_trips() {
        for v in [0.0, 1.0, 1.2034e-4, 6.02e23, 2.5e-13] {
            assert_eq!(json_number(v).parse::<f64>().unwrap(), v);
        }
    }

    #[test]
    fn result_line_shape() {
        let mut m = MetricSet::default();
        m.push("op_s.p50", "s", 0.25);
        assert_eq!(
            result_line(true, 4, 0, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"op_s.p50\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
