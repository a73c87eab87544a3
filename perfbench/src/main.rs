//! End-to-end and per-layer benchmark of the DLearn learn, serve and
//! maintain paths on the movie scenario. See README.md.
//!
//! ```text
//! dlearn-perfbench --workload <serve-zipf|serve-churn>
//!                  --seed <n> --seconds <s> --trace <0|1> [--scale paper|tiny]
//! ```
//!
//! Prints every metric by name with its unit, direction and sample count,
//! then the run's JSON result as the last line of stdout. Exits non-zero
//! when an output check fails.

mod layers;
mod ops;
mod report;
mod scenario;
mod serve;

use scenario::Scale;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    /// Set in worker processes: which part of an untraced run this is.
    part: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Paper,
        part: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--part" => args.part = Some(value.parse().map_err(|e| bad(&e))?),
            "--scale" => {
                args.scale = match value.as_str() {
                    "paper" => Scale::Paper,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad(&"expected paper or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["serve-zipf", "serve-churn"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dlearn-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let churn = args.workload == "serve-churn";
    let report = if args.trace {
        serve::run(args.scale, args.seed, args.seconds, true, churn).0
    } else if let Some(part) = args.part {
        // A worker: run one part and hand its raw samples to the parent.
        let seed = args.seed.wrapping_mul(0x100).wrapping_add(part);
        let (report, raw) = serve::run(args.scale, seed, args.seconds, false, churn);
        raw.write(&report);
        return;
    } else {
        pooled(&args)
    };
    report.print(&args.workload, args.trace);
    if !report.correct() {
        std::process::exit(1);
    }
}

/// An untraced run: the measured time split across fresh worker processes
/// (the system's performance depends on the process, see README.md), run
/// one after another; see `report::emit_end_to_end` for how their samples
/// combine.
fn pooled(args: &Args) -> report::Report {
    let mut report = report::Report::default();
    let mut workers = Vec::new();
    let processes = args.scale.sizes().processes;
    let exe = std::env::current_exe().expect("path of the running benchmark");
    for part in 0..processes {
        let output = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / processes as f64).to_string()])
            .args(["--trace", "0", "--scale", args.scale.name()])
            .args(["--part", &part.to_string()])
            .output();
        match output {
            Ok(out) if out.status.success() => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                workers.push(report::Raw::read(&stdout, &mut report));
            }
            Ok(out) => report.problem(format!(
                "worker {part} exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )),
            Err(e) => report.problem(format!("worker {part} did not start: {e}")),
        }
    }
    report::emit_end_to_end(&workers, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's own smoke test: both workloads, untraced and traced,
    /// at the tiny scale, pass their output checks and report every metric.
    #[test]
    fn both_workloads_pass_their_checks_at_tiny_scale() {
        for churn in [false, true] {
            let (mut report, raw) = serve::run(Scale::Tiny, 7, 0.5, false, churn);
            report::emit_end_to_end(&[raw], &mut report);
            assert!(report.correct(), "churn={churn}: {:?}", report.problems);
            assert_eq!(report.metrics.len(), 5, "churn={churn}");

            let (report, _) = serve::run(Scale::Tiny, 7, 0.5, true, churn);
            assert!(
                report.correct(),
                "churn={churn} traced: {:?}",
                report.problems
            );
            assert_eq!(report.metrics.len(), 47, "churn={churn} traced");
        }
    }
}
