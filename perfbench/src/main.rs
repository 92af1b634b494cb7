//! The repository benchmark: throughput and result latency of the
//! software SplitJoin and the standing-query runtime.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <probe-broadcast|fanout-queries|hash-routed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits non-zero when an output disagrees with the oracle
//! or a call into the program fails. `--workload all` runs each workload
//! in its own process. See `NOTES.md` for the metrics and workloads.

mod gen;
mod hist;
mod oracle;
mod queries;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workloads::{Metric, Mode, Report, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// `JoinConfig::new` reads these, and `QueryRuntime` spawns its engines
/// through it with no override, so a set variable would silently change
/// what is measured.
fn refuse_overrides() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("ACCEL_SW_") || k == "ACCEL_FAULTS")
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with engine overrides set: {}",
            set.join(", ")
        ))
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Runs every workload in its own process and relays their output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_record(args: &Args, workload: Workload, host: &str, config: &str, report: &Report) {
    let out = bench_dir().join("out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("warning: cannot create {}: {e}", out.display());
        return;
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|n| format!("\"{}\"", n.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"host\":\"{}\",\"config\":\"{}\",\"notes\":[{}],\"correct\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{}}}\n",
        workload.name(),
        args.seed,
        args.seconds,
        host.replace('"', "'"),
        config.replace('"', "'"),
        notes.join(","),
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(&report.end_to_end),
        metrics_json(&report.per_layer),
    );
    if let Err(e) = std::fs::write(out.join(format!("{stem}.json")), record) {
        eprintln!("warning: cannot write the run record: {e}");
    }
    if args.trace {
        if let Err(e) = report
            .tracer
            .write_jsonl(&out.join(format!("{stem}.spans.jsonl")))
        {
            eprintln!("warning: cannot write spans: {e}");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = refuse_overrides() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };

    let root = bench_dir()
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();
    let host = format!(
        "nproc={} cpu={:?} git={}",
        std::thread::available_parallelism().map_or(0, usize::from),
        cpu_model(),
        git_rev(&root)
    );
    let spec = workload.spec();
    let config = spec.resolved_config();
    println!(
        "workload: {} seed {} seconds {}",
        workload.name(),
        args.seed,
        args.seconds
    );
    println!("host: {host}");
    println!("config: {config}");

    let mode = if args.trace {
        Mode::Traced
    } else {
        Mode::Plain
    };
    let report = match workloads::run(spec, args.seed, args.seconds, mode) {
        Ok(r) => r,
        Err(f) => {
            eprintln!("error: {}", f.message);
            println!("{}", result_line(false, f.attempted, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    print_metrics("end to end", &report.end_to_end);
    if args.trace {
        print_metrics("per layer (traced run)", &report.per_layer);
    }
    write_record(&args, workload, &host, &config, &report);
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{}",
        result_line(report.correct, report.attempted, report.failed, metrics)
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: outputs disagree with the oracle");
        ExitCode::FAILURE
    }
}
