//! Exact latency statistics and the result line.
//!
//! Every latency sample is kept; percentiles are computed from the
//! sorted samples (linear interpolation between closest ranks), never
//! from bucketed histograms, so a 10% shift is visible.

use std::fmt::Write as _;

/// Exact samples of one quantity.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`); 0 for an empty set.
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.sort();
        let n = self.values.len();
        if n == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.values[lo] + (self.values[hi] - self.values[lo]) * frac
    }

    /// Samples strictly above the `q`-quantile.
    pub fn beyond(&mut self, q: f64) -> usize {
        let cut = self.quantile(q);
        self.values.iter().filter(|&&v| v > cut).count()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// Median of a small set (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.quantile(0.5)
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Free-form detail for the human-readable table (sample counts).
    pub note: String,
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics that go into the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the table only (workload-specific figures the
    /// result line of this mode does not carry).
    pub extra: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable descriptions of failed correctness gates.
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            note: note.into(),
        });
    }

    pub fn extra(&mut self, name: &str, unit: &'static str, value: f64, note: impl Into<String>) {
        self.extra.push(Metric {
            name: name.to_string(),
            unit,
            value,
            note: note.into(),
        });
    }

    /// Records a failed gate; `count` failed attempts are charged.
    pub fn fail(&mut self, count: u64, what: impl Into<String>) {
        self.failed += count;
        let what = what.into();
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Prints the table (every metric by name with its unit) and, as the
    /// last line, the JSON result object.
    pub fn print(&self, header: &str) {
        println!("{header}");
        for m in self.metrics.iter().chain(&self.extra) {
            println!(
                "  {:<28} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!(
            "  {:<28} {:>16.6} {:<6} {} failed of {} attempted",
            "error_rate",
            self.error_rate(),
            "ratio",
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        println!("{}", self.json());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                v,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert!((s.quantile(0.9) - 4.6).abs() < 1e-12);
        assert_eq!(s.beyond(0.5), 2);
    }

    #[test]
    fn result_line_is_json() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.metric("latency_ms", "ms", 1.25, "");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
