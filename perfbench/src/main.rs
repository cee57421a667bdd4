//! End-to-end and per-layer benchmark of the Columba S flow and service.
//!
//! ```sh
//! perfbench --workload search|polish|service --seed N --seconds S --trace 0|1 [--out-dir DIR]
//! ```
//!
//! Run from the repository root (it reads `cases/`). With `--trace 0` it
//! times the workload with tracing off and prints the end-to-end
//! metrics; with `--trace 1` it runs the traced passes and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` next to this crate for the workloads and metrics.

mod designs;
mod flow;
mod layers;
mod report;
mod service;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Metrics;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans and the service its state.
    pub out_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let value = |name: &str| -> Option<&str> {
            argv.iter()
                .position(|a| a == name)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
        };
        let workload = value("--workload")
            .ok_or("--workload is required")?
            .to_string();
        if !["search", "polish", "service"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let number = |name: &str, default: &str| -> Result<f64, String> {
            value(name)
                .unwrap_or(default)
                .parse::<f64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        let seed = value("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds = number("--seconds", "30")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds {seconds} is outside (0, 120]"));
        }
        let trace = match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        let out_dir = PathBuf::from(value("--out-dir").unwrap_or(".bench_build/perfbench"));
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            out_dir,
        })
    }

    /// Writes a trace of the traced run to a file named after the
    /// workload, the seed and `tag`.
    pub fn write_trace(&self, tag: &str, contents: &str) -> Result<(), String> {
        std::fs::create_dir_all(&self.out_dir)
            .map_err(|e| format!("{}: {e}", self.out_dir.display()))?;
        let path = self
            .out_dir
            .join(format!("trace-{}-seed{}-{tag}", self.workload, self.seed));
        std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace written to {}", path.display());
        Ok(())
    }
}

/// What one run measured and how many of its attempts failed.
#[derive(Default)]
pub struct RunResult {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    /// Counts one failed attempt (an error, a refusal, a dirty or wrong
    /// output, a tripped budget guard or a failed self-check).
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let steal_before = report::cpu_steal();
    let run = match args.workload.as_str() {
        "service" => service::run(&args),
        _ => designs::run(&args),
    };
    let result = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal_after = report::cpu_steal();
    println!(
        "cpu steal {:.1}% of the machine's CPU time during the run",
        100.0
            * report::ratio(
                steal_after.0.saturating_sub(steal_before.0) as f64,
                steal_after.1.saturating_sub(steal_before.1) as f64
            )
    );
    for f in &result.failures {
        println!("FAILED: {f}");
    }
    let failed = result.failures.len();
    let attempted = result.attempted.max(1);
    println!(
        "failed_frac {:.6} ({failed} of {attempted} attempts)",
        failed as f64 / attempted as f64
    );
    result.metrics.print_table();
    println!(
        "{}",
        result.metrics.result_line(failed == 0, attempted, failed)
    );
    ExitCode::SUCCESS
}
