//! Metric collection and the one-line JSON result.

use std::fmt::Write as _;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by nearest rank (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, capped at the 99th.
pub fn tail_q(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// The tail percentile of the end-to-end latency metrics. On a shared
/// host, stalls of up to ~10 ms from other tenants hit about one step in
/// a hundred in some runs and none in others, so a 99th percentile reads
/// the neighbours rather than the program; the 90th does not. The record
/// keeps the whole run's highest percentile with ten samples beyond it.
pub const TAIL_Q: f64 = 0.90;

/// Samples per segment of [`segmented_tail`]: ten beyond the 90th
/// percentile.
pub const TAIL_SEGMENT: usize = 100;

/// The [`TAIL_Q`] percentile of a run's samples, taken in consecutive
/// segments of [`TAIL_SEGMENT`] and reported as the median segment, so
/// that a few seconds of interference do not move it. A run shorter than
/// one segment reports its own percentile.
pub fn segmented_tail(xs: &[f64]) -> f64 {
    if xs.len() < TAIL_SEGMENT {
        return quantile(xs, TAIL_Q);
    }
    let tails: Vec<f64> = xs
        .chunks_exact(TAIL_SEGMENT)
        .map(|seg| quantile(seg, TAIL_Q))
        .collect();
    median(&tails)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Metrics by name with units, plus the provenance of the run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Tail latencies: printed in the record, not gated (see [`TAIL_Q`]).
    pub tails: Vec<(String, f64, &'static str)>,
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Replace the value of an already reported metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = self
            .metrics
            .iter_mut()
            .find(|m| m.0 == name)
            .expect("metric reported before");
        m.1 = value;
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// A timing distribution: its median as a metric `{name}_p50_{unit}`;
    /// its [`segmented_tail`] (`{name}_p90_{unit}`) and the whole run's
    /// highest percentile with ten samples beyond it (`{name}_tail_{unit}`)
    /// as tails, with that percentile and the sample count as provenance.
    pub fn distribution(&mut self, name: &str, xs: &[f64], scale: f64, unit: &'static str) {
        self.metric(&format!("{name}_p50_{unit}"), median(xs) * scale, unit);
        let p90 = segmented_tail(xs) * scale;
        self.tails.push((format!("{name}_p90_{unit}"), p90, unit));
        let q = tail_q(xs.len());
        let tail = format!("{name}_tail_{unit}");
        self.tails
            .push((tail.clone(), quantile(xs, q) * scale, unit));
        self.info(&format!("{tail}.percentile"), format!("{:.2}", q * 100.0));
        self.info(&format!("{tail}.samples"), xs.len());
    }

    fn metrics_json(metrics: &[(String, f64, &'static str)]) -> String {
        let mut s = String::from("{");
        for (i, (name, v, unit)) in metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }

    /// The full record: every metric with its unit and the provenance.
    pub fn record_json(&self) -> String {
        let mut s = String::from("{\"record\": {");
        for (k, v) in &self.info {
            let _ = write!(s, "{}: {}, ", json_str(k), json_str(v));
        }
        let _ = write!(
            s,
            "\"metrics\": {}, \"tails\": {}}}}}",
            Self::metrics_json(&self.metrics),
            Self::metrics_json(&self.tails)
        );
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
            attempted.max(1),
            Self::metrics_json(&self.metrics)
        )
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
