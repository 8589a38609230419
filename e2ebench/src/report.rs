//! Named metrics and the one-line JSON result.

use crate::checks::Checks;

/// Metrics in emission order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric; a name may be set only once.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            !self.0.iter().any(|(n, _, _)| *n == name),
            "metric {name} set twice"
        );
        self.0.push((name, value, unit));
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

fn number(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` prints the shortest repr that round-trips: every digit.
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// The final result line.
pub fn result_json(checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct(),
        checks.attempted(),
        checks.failed(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric_with_all_digits() {
        let mut checks = Checks::default();
        checks.record("ok", Ok(()));
        let mut m = Metrics::default();
        m.set("sweep_s", 1.234_567_890_123, "s");
        m.set("peak_rss_mb", 12.0, "MB");
        assert_eq!(
            result_json(&checks, &m),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"sweep_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 12.0, \"unit\": \"MB\"}}}"
        );
    }
}
