//! Result accumulation, order statistics and JSON output.

use std::fmt::Write as _;

/// One reported metric: its value, unit, and how many samples it summarizes.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind `value` (1 for derived or single-shot figures).
    pub samples: usize,
    /// First and third quartile of the samples, when there are several.
    pub q1: Option<f64>,
    pub q3: Option<f64>,
    /// The samples themselves, in the order they were taken.
    pub raw: Vec<f64>,
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable reasons for failed operations (first few only).
    pub failures: Vec<String>,
}

impl Report {
    /// Count one operation whose outcome is `result`; an error counts it
    /// as failed, described as `what: error`.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    /// Report the median of `samples` (with its quartiles and count).
    pub fn median(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let q = quartiles(samples);
        self.metrics.push(Metric {
            name: name.to_string(),
            value: q.1,
            unit,
            samples: samples.len(),
            q1: Some(q.0),
            q3: Some(q.2),
            raw: samples.to_vec(),
        });
    }

    /// Report a value computed from `samples` observations (1 for a
    /// single-shot or derived figure).
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            q1: None,
            q3: None,
            raw: vec![value],
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// `(q1, median, q3)` with the same interpolation as Python's
/// `statistics.quantiles(values, n=4)` (method "exclusive") for the
/// quartiles; a single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    assert!(!samples.is_empty(), "no samples to summarize");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n < 2 {
        return (v[0], median, v[0]);
    }
    // Python's exclusive method, in its exact integer form (it extrapolates
    // past the ends for tiny samples, and so does this).
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), median, at(3))
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// A JSON number with all its digits (`{}` prints the shortest string that
/// round-trips); non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escape a string for a JSON string literal.
pub fn jstr(s: &str) -> String {
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

/// The detail record: fingerprint, the host's steal share during the run,
/// every metric with samples and quartiles, and failure reasons.
pub fn detail_json(report: &Report, fingerprint: &[(&str, String)], steal: f64) -> String {
    let mut s = String::from("{\"record\":\"perfbench-detail-v1\",\"fingerprint\":{");
    for (i, (k, v)) in fingerprint.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}:{}", jstr(k), jstr(v));
    }
    let _ = write!(s, "}},\"host_steal_frac\":{},\"metrics\":{{", num(steal));
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{}:{{\"value\":{},\"unit\":{},\"samples\":{},\"q1\":{},\"q3\":{},\"raw\":[{}]}}",
            jstr(&m.name),
            num(m.value),
            jstr(m.unit),
            m.samples,
            m.q1.map_or("null".to_string(), num),
            m.q3.map_or("null".to_string(), num),
            // Long sample lists (service latencies) are summarized only.
            if m.raw.len() <= 64 {
                m.raw.iter().map(|&v| num(v)).collect::<Vec<_>>().join(",")
            } else {
                String::new()
            },
        );
    }
    s.push_str("},\"failures\":[");
    for (i, f) in report.failures.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&jstr(f));
    }
    s.push_str("]}");
    s
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// restricted to the metric names in `wanted` (in that order).
pub fn result_json(report: &Report, wanted: &[String]) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    let mut first = true;
    for name in wanted {
        let Some(m) = report.metrics.iter().find(|m| &m.name == name) else {
            continue;
        };
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(
            s,
            "{}:{{\"value\":{},\"unit\":{}}}",
            jstr(&m.name),
            num(m.value),
            jstr(m.unit)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(1.203_456_789_1), "1.2034567891");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(jstr("a\"b"), "\"a\\\"b\"");
    }
}
