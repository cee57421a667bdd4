//! Summary statistics and the result line.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in `(0, 1]`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Times `f` back to back until `window` has passed, at least `min`
/// times, and returns each call's time in seconds.
pub fn repeat_for(
    window: std::time::Duration,
    min: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    while times.len() < min || start.elapsed() < window {
        let t = std::time::Instant::now();
        f()?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// Printed for information only: glibc's dynamic mmap threshold makes it
/// depend on the order of allocations. The same five `search` designs
/// peak at 34 or 60 MB depending on their order.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak bytes the program held allocated at once, in MB, as the tracking
/// allocator of `columba-obs` counts them.
pub fn peak_heap_mb() -> f64 {
    columba_obs::alloc::stats().peak_live_bytes as f64 / (1024.0 * 1024.0)
}

/// The machine's CPU time so far as `(stolen, total)` jiffies, from the
/// first line of `/proc/stat`; zeros where it cannot be read. On a
/// virtual machine, stolen time is time the host ran something else
/// while this machine had work to run.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name, value, unit));
    }

    /// Prints every metric as `name value unit`, one per line.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.entries {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
    }

    /// The one-line JSON result the benchmark ends with.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.9), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.add("setup_s", 0.25, "s");
        m.add("count", 3.0, "count");
        let line = m.result_line(true, 2, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
