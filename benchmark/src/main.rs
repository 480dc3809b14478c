//! The repo's benchmark: four fixed-work workloads over the three engines
//! behind `Scenario::run_on`, eight end-to-end metrics each, and a
//! per-layer cost ledger from a separate traced pass. See `README.md` and
//! `../BENCHMARK.json`.
//!
//! ```text
//! rgb-benchmark [--seed N] [--seconds S] [--smoke]
//!     every workload, each in its own child process: the end-to-end pass,
//!     then the traced pass; exits non-zero on any `correct: false`
//! rgb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!     one pass of one workload in this process; the last line of stdout is
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{…}}
//! ```

mod alloc;
mod clock;
mod host;
mod json;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use json::Value;
use spans::Recorder;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Outcome, Params};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Default run length, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
/// Prefix of the one-line run record a child prints before its result.
const INFO_PREFIX: &str = "#info ";

struct Args {
    workload: Option<String>,
    params: Params,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        params: Params { seed: 1, seconds: DEFAULT_SECONDS, trace: false, smoke: false },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.params.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.params.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.params.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.params.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.params.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("rgb-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let host = match host::probe() {
        Ok(host) => host,
        Err(why) => {
            eprintln!("rgb-benchmark: refusing to run, no numbers reported: {why}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_workload(name, &args.params, &host),
        None => run_all(&args.params),
    }
}

/// One pass of one workload in this process.
fn run_workload(name: &str, p: &Params, host: &host::Host) -> ExitCode {
    let mut rec = Recorder::new(p.trace);
    let mut out = match name {
        "fleet_steady_seq" => workloads::fleet::run(false, p, &mut rec),
        "fleet_steady_par" => workloads::fleet::run(true, p, &mut rec),
        "small_worlds" => workloads::small_worlds::run(p, &mut rec),
        "live_day" => workloads::live_day::run(p, &mut rec),
        other => {
            eprintln!("rgb-benchmark: unknown workload {other}; known: {:?}", workloads::NAMES);
            return ExitCode::from(2);
        }
    };
    // VmHWM of this workload's own process, read after all of its work
    // (live_day reads it itself, before its Sim twin runs).
    if !out.end_to_end.iter().any(|(n, _)| *n == "peak_rss_mb") {
        out.end_to_end.push(("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0)));
    }
    if p.trace {
        if let Err(e) = write_trace(name, &rec) {
            out.check("trace_written", false, || e);
        }
    }

    let reported: Vec<(&str, &str, f64)> = if p.trace {
        metrics::PER_LAYER
            .iter()
            .map(|&(n, unit)| (n, unit, out.layers.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(n, unit)| {
                let value = out.end_to_end.iter().find(|(m, _)| *m == n).map_or(0.0, |&(_, v)| v);
                (n, unit, value)
            })
            .collect()
    };
    for (n, unit, value) in &reported {
        out.check("finite", value.is_finite(), || format!("{n} is {value}"));
        println!("{name:<18} {n:<40} {value:>18.6} {unit}");
    }
    let correct = out.failed_checks.is_empty();
    println!("{INFO_PREFIX}{}", info_line(name, p, host, &out).render());
    for failed in &out.failed_checks {
        eprintln!("rgb-benchmark: {name}: check failed: {failed}");
    }
    let metrics = reported.iter().map(|&(n, unit, value)| {
        let value = if value.is_finite() { value } else { 0.0 };
        (n, json::obj([("value", Value::Num(value)), ("unit", Value::Str(unit.into()))]))
    });
    let result = json::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(out.attempted.max(1) as f64)),
        ("failed", Value::Num(out.failed as f64)),
        ("metrics", json::obj(metrics)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run record: what ran, on what, every lap time, every failed check.
fn info_line(name: &str, p: &Params, host: &host::Host, out: &Outcome) -> Value {
    let mut members = vec![
        ("workload".to_string(), Value::Str(name.into())),
        ("seed".into(), Value::Num(p.seed as f64)),
        ("seconds".into(), Value::Num(p.seconds as f64)),
        ("trace".into(), Value::Bool(p.trace)),
        ("smoke".into(), Value::Bool(p.smoke)),
        ("nproc".into(), Value::Num(host.nproc as f64)),
        ("cpu_model".into(), Value::Str(host.cpu_model.clone())),
        (
            "failed_checks".into(),
            Value::Arr(out.failed_checks.iter().map(|c| Value::Str(c.clone())).collect()),
        ),
    ];
    members.extend(out.info.iter().map(|(k, v)| (k.to_string(), v.clone())));
    Value::Obj(members)
}

fn write_trace(name: &str, rec: &Recorder) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{name}.json"));
    std::fs::write(&path, rec.to_json(name).render())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What the parent keeps of one child pass.
struct Pass {
    correct: bool,
    info: Value,
}

/// Run one pass in a child process, echoing its report.
fn child_pass(name: &str, p: &Params, trace: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &p.seed.to_string(),
        "--seconds",
        &p.seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .stdin(Stdio::null())
    .stderr(Stdio::inherit());
    if p.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut info = Value::Null;
    let mut last = "";
    for line in stdout.lines() {
        match line.strip_prefix(INFO_PREFIX) {
            Some(text) => info = json::parse(text)?,
            None => {
                println!("{line}");
                last = line;
            }
        }
    }
    let result = json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    let correct = result.get("correct").and_then(Value::as_bool).unwrap_or(false);
    Ok(Pass { correct: correct && output.status.success(), info })
}

/// Every workload, each pass in its own child process, so peak RSS and CPU
/// time are per workload and per pass.
fn run_all(p: &Params) -> ExitCode {
    let mut all_correct = true;
    let mut fingerprints = Vec::new();
    let mut median_laps = Vec::new();
    for name in workloads::NAMES {
        for trace in [false, true] {
            println!("== {name} ({}) ==", if trace { "traced pass" } else { "end-to-end pass" });
            match child_pass(name, p, trace) {
                Ok(pass) => {
                    all_correct &= pass.correct;
                    if !pass.correct {
                        println!("!! {name}: correct: false");
                    }
                    if !trace {
                        fingerprints.push(
                            pass.info
                                .get("views_fingerprint")
                                .and_then(Value::as_str)
                                .map(String::from),
                        );
                        let laps: Vec<f64> = pass
                            .info
                            .get("lap_s")
                            .and_then(Value::as_arr)
                            .map(|laps| laps.iter().filter_map(Value::as_f64).collect())
                            .unwrap_or_default();
                        median_laps.push((!laps.is_empty()).then(|| stats::median(&laps)));
                    }
                }
                Err(why) => {
                    all_correct = false;
                    println!("!! {name}: {why}");
                }
            }
        }
    }
    // The two fleet workloads ran one scenario value: same final views.
    if let (Some(Some(seq)), Some(Some(par))) = (fingerprints.first(), fingerprints.get(1)) {
        if seq != par {
            all_correct = false;
            println!("!! fleet_steady_par ended on views {par}, fleet_steady_seq on {seq}");
        }
    }
    if let (Some(Some(seq)), Some(Some(par))) = (median_laps.first(), median_laps.get(1)) {
        println!("== fleet median lap: seq {seq:.3} s / par {par:.3} s = {:.3}x ==", seq / par);
    }
    println!(
        "== {} ==",
        if all_correct { "all workloads correct" } else { "SOME WORKLOAD INCORRECT" }
    );
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
