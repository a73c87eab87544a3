//! Sample collection, percentiles, spans and the final report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an unsorted sample (`q` in `0..=1`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Wall time of `f`, in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Named durations recorded around calls into one layer. Recording is off
/// unless the run is traced, so untraced runs pay one branch per call site.
#[derive(Default)]
pub struct Spans {
    enabled: bool,
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            by_name: BTreeMap::new(),
        }
    }

    /// Run `f`, recording its wall time (ms) under `name` when tracing.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, ms(start.elapsed()));
        out
    }

    pub fn record(&mut self, name: &'static str, value_ms: f64) {
        if self.enabled {
            self.by_name.entry(name).or_default().push(value_ms);
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
    pub samples: usize,
}

/// Everything one run reports: metrics, operation counts and check failures.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        let better = if matches!(
            name.as_str(),
            "serve_rps"
                | "ok_frac"
                | "serve.heldout_f1"
                | "learn.heldout_f1"
                | "service.hit_rate"
                | "coalesce.mean_batch"
                | "delta.reused"
        ) {
            "higher"
        } else {
            "lower"
        };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            better,
            samples,
        });
    }

    /// Count `n` attempted operations, `failures` of which failed.
    pub fn ops(&mut self, n: usize, failures: usize) {
        self.attempted += n as u64;
        self.failed += failures as u64;
    }

    /// Record a failed correctness check (counts as one failed operation).
    pub fn problem(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(message);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Print every metric by name with its unit, direction and sample
    /// count, then the one-line JSON result as the last line of stdout.
    pub fn print(&self, workload: &str, traced: bool) {
        println!(
            "# workload {workload}, {} metrics, trace={}",
            if traced { "per-layer" } else { "end-to-end" },
            u8::from(traced)
        );
        for m in &self.metrics {
            println!(
                "{:<32} {:>14.6} {:<6} ({} is better, n={})",
                m.name, m.value, m.unit, m.better, m.samples
            );
        }
        for n in &self.notes {
            println!("# {n}");
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let error_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# attempted {} failed {} error_frac {error_frac}",
            self.attempted, self.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every digit and always prints a decimal point.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The raw end-to-end samples of one process. A run pools them from its
/// worker processes before computing the end-to-end metrics.
#[derive(Default)]
pub struct Raw {
    pub setup_s: Vec<f64>,
    pub serve_ms: Vec<f64>,
    /// Length of the measured serving phase, in seconds.
    pub phase_s: f64,
    pub peak_rss_mb: f64,
}

impl Raw {
    /// Write the samples, counts, notes and failed checks of a worker, one
    /// `raw` line each, for the parent to read back with [`Raw::read`].
    pub fn write(&self, report: &Report) {
        let series = |name: &str, values: &[f64]| {
            let values: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
            println!("raw {name} {}", values.join(" "));
        };
        series("setup_s", &self.setup_s);
        series("serve_ms", &self.serve_ms);
        series("phase_s", &[self.phase_s]);
        series("peak_rss_mb", &[self.peak_rss_mb]);
        println!("raw ops {} {}", report.attempted, report.failed);
        for note in &report.notes {
            println!("raw note {note}");
        }
        for problem in &report.problems {
            println!("raw problem {problem}");
        }
    }

    /// Read a worker's output back, adding its counts, notes and failed
    /// checks to `report`.
    pub fn read(output: &str, report: &mut Report) -> Raw {
        let mut raw = Raw::default();
        for line in output.lines() {
            let Some(rest) = line.strip_prefix("raw ") else {
                continue;
            };
            let (key, value) = rest.split_once(' ').unwrap_or((rest, ""));
            let numbers = || -> Vec<f64> {
                value
                    .split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            };
            match key {
                "setup_s" => raw.setup_s = numbers(),
                "serve_ms" => raw.serve_ms = numbers(),
                "phase_s" => raw.phase_s = numbers().first().copied().unwrap_or(0.0),
                "peak_rss_mb" => raw.peak_rss_mb = numbers().first().copied().unwrap_or(0.0),
                "ops" => {
                    let counts = numbers();
                    report.attempted += counts.first().copied().unwrap_or(0.0) as u64;
                    report.failed += counts.get(1).copied().unwrap_or(0.0) as u64;
                }
                "note" => report.notes.push(value.to_string()),
                "problem" => report.problems.push(value.to_string()),
                _ => {}
            }
        }
        raw
    }
}

/// The end-to-end metrics of a run from its workers' samples. The serving
/// latency and rate are the best worker's own values (lowest time, highest
/// rate): the workers run the same code one after another, and interference
/// from a shared host only ever slows one down, so the best of them is the
/// steadiest estimate of the code's own speed. `setup_s` is the median of
/// every set-up of the run, and `peak_rss_mb` the largest worker's.
pub fn emit_end_to_end(workers: &[Raw], report: &mut Report) {
    if workers.is_empty()
        || workers
            .iter()
            .any(|w| w.setup_s.is_empty() || w.serve_ms.is_empty())
    {
        report.problem("a worker produced no samples".to_string());
        return;
    }
    let best = |f: &dyn Fn(&Raw) -> f64| workers.iter().map(f).fold(f64::INFINITY, f64::min);
    let requests = workers.iter().map(|w| w.serve_ms.len()).min().unwrap_or(0);
    let setup_s: Vec<f64> = workers.iter().flat_map(|w| w.setup_s.clone()).collect();
    report.add("setup_s", median(&setup_s), "s", setup_s.len());
    let serve_p50 = best(&|w| percentile(&w.serve_ms, 0.5));
    report.add("serve_p50_ms", serve_p50, "ms", requests);
    let serve_rps = -best(&|w| -(w.serve_ms.len() as f64) / w.phase_s);
    report.add("serve_rps", serve_rps, "1/s", requests);
    let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.add("ok_frac", ok, "ratio", report.attempted as usize);
    let peak = workers.iter().map(|w| w.peak_rss_mb).fold(0.0, f64::max);
    report.add("peak_rss_mb", peak, "MiB", workers.len());
}
