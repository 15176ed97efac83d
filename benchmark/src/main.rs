//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! swarm-benchmark                          # every workload, untraced then traced
//! swarm-benchmark --smoke                  # the same in a few seconds each
//! swarm-benchmark --workload oltp --seed 7 --seconds 15 --trace 0
//! swarm-benchmark spread runs.jsonl        # run-to-run spread per metric
//! swarm-benchmark compare a.jsonl b.jsonl  # pass / regress / unresolved
//! ```

mod analysis;
mod client;
mod cluster;
mod gen;
mod json;
mod kernels;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use run::{run_once, RunOpts, RunOutput};
use workloads::WORKLOADS;

const USAGE: &str = "usage: swarm-benchmark [--workload NAME] [--seed N] [--seconds N] \
[--trace 0|1] [--smoke] [--out FILE.jsonl]\n       \
swarm-benchmark spread FILE.jsonl\n       \
swarm-benchmark compare A.jsonl B.jsonl\n\
workloads: ingest point-read degraded-read oltp; without --workload every one runs, \
untraced then traced";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `workload metric unit value` for every metric, with the sample count
/// beside each percentile.
fn print_lines(workload: &str, out: &RunOutput) {
    for (name, unit, value) in &out.metrics {
        let n = out
            .samples
            .iter()
            .find(|s| s.0 == name)
            .map(|s| format!(" n={}", s.1))
            .unwrap_or_default();
        println!("{workload} {name} {unit} {value}{n}");
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{workload} failed_ops_ratio ratio {failed_ratio} failed={} attempted={}",
        out.failed, out.attempted
    );
}

/// The four fields of a result object, without the braces, so a run
/// record can carry them beside its own.
fn result_fields(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN or infinity.
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Appends one run record to `path` for `spread` and `compare`.
fn append_record(path: &PathBuf, opts: &RunOpts, out: &RunOutput) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        f,
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, {}}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        result_fields(out)
    )
}

fn run_and_report(opts: &RunOpts, out_file: &Option<PathBuf>) -> Result<RunOutput, String> {
    let out = run_once(opts).map_err(|e| format!("{}: {e}", opts.workload))?;
    print_lines(&opts.workload, &out);
    if let Some(path) = out_file {
        append_record(path, opts, &out).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => return report::compare(&argv[1], &argv[2]),
        Some("spread") if argv.len() == 2 => return report::spread(&argv[1]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    cluster::install_panic_cleanup();
    let seconds = args.seconds.unwrap_or(if args.smoke { 2.0 } else { 15.0 });
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# swarm-benchmark seed={} seconds={seconds} nproc={nproc} smoke={}",
        args.seed, args.smoke
    );
    let opts = |workload: &str, trace: bool| RunOpts {
        workload: workload.to_string(),
        seed: args.seed,
        seconds,
        trace,
        smoke: args.smoke,
    };

    // One workload, one pass: the form the benchmark driver calls. The
    // last line of output is the result object.
    if let Some(workload) = &args.workload {
        let opts = opts(workload, args.trace.unwrap_or(false));
        return match run_and_report(&opts, &args.out) {
            Ok(out) => {
                println!("{{{}}}", result_fields(&out));
                if out.correct() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // Every workload, untraced for the end-to-end metrics and then traced
    // for the per-layer ones; the ratio of the two runs' throughput is
    // what tracing cost.
    let mut ok = true;
    for workload in WORKLOADS {
        let passes: Vec<bool> = match args.trace {
            Some(t) => vec![t],
            None => vec![false, true],
        };
        let mut throughput = Vec::new();
        for trace in passes {
            match run_and_report(&opts(workload, trace), &args.out) {
                Ok(out) => {
                    ok &= out.correct();
                    let key = if trace {
                        "gen.traced_ops_per_s"
                    } else {
                        "ops_per_s"
                    };
                    throughput.push(out.get(key).unwrap_or(0.0));
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ok = false;
                }
            }
        }
        if let [untraced, traced] = throughput[..] {
            println!(
                "{workload} gen.trace_overhead ratio {}",
                untraced / traced.max(f64::MIN_POSITIVE)
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: FAILED (see above)");
        ExitCode::FAILURE
    }
}
