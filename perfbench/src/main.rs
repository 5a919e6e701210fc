//! Benchmark command. See README.md for workloads, metrics and usage.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every repetition runs in a child process of this executable under a
//! wall-clock watchdog; a panic, a hang or a fingerprint drift counts as
//! a failed repetition instead of stopping the command. The last stdout
//! line is the result object.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::host::{self, ChildOutcome};
use perfbench::record::result_line;
use perfbench::workloads::{pinned, Workload, DEFAULT_SEED};
use perfbench::{layers, END_TO_END};

/// Watchdog limit on one timed repetition.
const REP_TIMEOUT: Duration = Duration::from_secs(40);
/// Watchdog limit on the traced run.
const TRACE_TIMEOUT: Duration = Duration::from_secs(150);
/// Repetitions every measured run makes, so two runs can agree.
const MIN_REPS: usize = 3;
/// Past this much wall time, no further repetition starts.
const HARD_STOP: Duration = Duration::from_secs(100);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 40;
    let mut trace = false;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?}; expected one of {:?}",
                    Workload::ALL.map(Workload::name)
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--child" => child = Some(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.child.as_deref() {
        Some("rep") => println!("{}", host::rep(args.workload, args.seed).to_json()),
        Some("trace") => println!("{}", layers::traced(args.workload, args.seed).to_json()),
        Some(other) => {
            eprintln!("perfbench: unknown child mode {other:?}");
            return ExitCode::from(2);
        }
        None if args.trace => traced_run(&args),
        None => measured_run(&args),
    }
    ExitCode::SUCCESS
}

fn child_args(mode: &str, args: &Args) -> Vec<String> {
    vec![
        "--child".into(),
        mode.into(),
        "--workload".into(),
        args.workload.name().into(),
        "--seed".into(),
        args.seed.to_string(),
    ]
}

/// Untraced run: repetitions until `--seconds` is used up, reporting
/// the median of each end-to-end metric.
fn measured_run(args: &Args) {
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut turns_per_s, mut setup_s, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut rep_walls = Vec::new();
    let mut reference: Option<String> = None;
    let mut correct = true;
    loop {
        let elapsed = start.elapsed();
        let next_end = elapsed.as_secs_f64()
            + if rep_walls.is_empty() {
                0.0
            } else {
                host::median(&rep_walls)
            };
        let enough = attempted as usize >= MIN_REPS && next_end > budget.as_secs_f64();
        if enough || elapsed >= HARD_STOP {
            break;
        }
        attempted += 1;
        let t = Instant::now();
        let outcome = host::supervise(&child_args("rep", args), REP_TIMEOUT);
        rep_walls.push(t.elapsed().as_secs_f64());
        let record = match outcome {
            ChildOutcome::Ok(record) => record,
            ChildOutcome::Failed(why) => {
                println!("rep {attempted}: failed: {why}");
                failed += 1;
                continue;
            }
            ChildOutcome::TimedOut => {
                println!("rep {attempted}: killed after {REP_TIMEOUT:?}");
                failed += 1;
                continue;
            }
        };
        let parsed = (|| -> Result<_, String> {
            Ok((
                record.get_num("turns")? / record.get_num("run_s")?,
                record.get_num("setup_s")?,
                record.get_num("peak_rss_mb")?,
                record.get_str("fingerprint")?.to_string(),
            ))
        })();
        let (tps, setup, peak, fingerprint) = match parsed {
            Ok(values) => values,
            Err(why) => {
                println!("rep {attempted}: bad record: {why}");
                failed += 1;
                continue;
            }
        };
        // The default seed is pinned; any other seed must repeat exactly
        // across the run's repetitions.
        let expected = if args.seed == DEFAULT_SEED {
            Some(pinned(args.workload).to_string())
        } else {
            reference.clone()
        };
        if expected.as_ref().is_some_and(|e| *e != fingerprint) {
            println!("rep {attempted}: fingerprint drift: {fingerprint}");
            println!("          expected: {}", expected.unwrap_or_default());
            correct = false;
            failed += 1;
            continue;
        }
        if reference.is_none() {
            println!(
                "fingerprint {} seed={}: {fingerprint}",
                args.workload.name(),
                args.seed
            );
            reference = Some(fingerprint);
        }
        println!("rep {attempted}: turns_per_s={tps:.2} setup_s={setup:.6} peak_rss_mb={peak:.2}");
        turns_per_s.push(tps);
        setup_s.push(setup);
        rss.push(peak);
    }
    let med = |v: &Vec<f64>| if v.is_empty() { 0.0 } else { host::median(v) };
    let values = [med(&turns_per_s), med(&setup_s), med(&rss)];
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} reps={attempted} host_cpus={host_cpus}",
        args.workload.name(),
        args.seed
    );
    println!(
        "{:<12} {fail_ratio:>12.4} ratio ({failed} of {attempted} reps failed)",
        "fail_ratio"
    );
    for ((name, unit), (value, samples)) in
        END_TO_END
            .iter()
            .zip(values.iter().zip([&turns_per_s, &setup_s, &rss]))
    {
        println!(
            "{name:<12} {value:>12.4} {unit:<4} spread {:.4} over {} reps",
            host::spread(samples),
            samples.len()
        );
    }
    correct &= failed == 0 && !turns_per_s.is_empty();
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    println!("{}", result_line(correct, attempted, failed, &metrics));
}

/// Traced run: one supervised child records every per-layer metric.
fn traced_run(args: &Args) {
    let outcome = host::supervise(&child_args("trace", args), TRACE_TIMEOUT);
    let (record, why) = match outcome {
        ChildOutcome::Ok(record) => (Some(record), String::new()),
        ChildOutcome::Failed(why) => (None, why),
        ChildOutcome::TimedOut => (None, format!("killed after {TRACE_TIMEOUT:?}")),
    };
    let mut correct = false;
    let mut metrics = Vec::new();
    if let Some(record) = &record {
        correct = record.get_bool("correct").unwrap_or(false);
        for &(name, unit) in layers::PER_LAYER {
            let value = record.get_num(name).unwrap_or_else(|why| {
                println!("{why}");
                correct = false;
                0.0
            });
            println!("{name:<28} {value:>16.6} {unit}");
            metrics.push((name, value, unit));
        }
        for key in ["exact_counts", "checks"] {
            if let Ok(text) = record.get_str(key) {
                println!("{key}: {text}");
            }
        }
    } else {
        println!("traced run failed: {why}");
        metrics.extend(layers::PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u)));
    }
    let failed = u64::from(record.is_none());
    println!("{}", result_line(correct, 1, failed, &metrics));
}
