//! Host-side measurement: one timed repetition of a workload, run in its
//! own child process, and the watchdog that supervises it.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::record::Record;
use crate::workloads::{Fingerprint, Workload};

/// Builds per repetition; `setup_s` is their median (a single build
/// takes milliseconds and jitters by about half).
pub const SETUPS_PER_REP: usize = 25;

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range over the median, with quartiles interpolated as
/// Python's `statistics.quantiles(values, n=4)` does (exclusive method).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let q = |p: f64| {
        let h = (n + 1.0) * p;
        let j = (h.floor() as usize).clamp(1, v.len() - 1);
        let delta = h - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q(0.75) - q(0.25)) / m
    }
}

/// One repetition, run inside the child: build the simulator
/// [`SETUPS_PER_REP`] times (timing each), run the last build, and
/// report times, memory and the simulated fingerprint.
pub fn rep(workload: Workload, seed: u64) -> Record {
    let mut setups = Vec::with_capacity(SETUPS_PER_REP);
    let mut sim = None;
    for _ in 0..SETUPS_PER_REP {
        let t = Instant::now();
        let built = std::hint::black_box(workload.config(seed).build());
        setups.push(t.elapsed().as_secs_f64());
        sim = Some(built);
    }
    let sim = sim.expect("at least one build");
    let t = Instant::now();
    let report = std::hint::black_box(sim.run());
    let run_s = t.elapsed().as_secs_f64();
    let fingerprint = Fingerprint::of(&report);
    let mut r = Record::new();
    r.str("workload", workload.name())
        .num("seed", seed as f64)
        .num("turns", workload.turns() as f64)
        .num("setup_s", median(&setups))
        .num("run_s", run_s)
        .num("peak_rss_mb", peak_rss_mb())
        .str("fingerprint", &fingerprint.canonical());
    r
}

/// How a supervised child ended.
#[derive(Debug)]
pub enum ChildOutcome {
    /// Exit 0 with a valid record on stdout.
    Ok(Record),
    /// Nonzero exit, a signal, or unreadable output.
    Failed(String),
    /// Killed by the watchdog.
    TimedOut,
}

/// Runs this executable with `args` as a child under a wall-clock
/// watchdog, and parses the record it prints as its last stdout line.
pub fn supervise(args: &[String], timeout: Duration) -> ChildOutcome {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return ChildOutcome::Failed(format!("no executable path: {e}")),
    };
    let mut child = match Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return ChildOutcome::Failed(format!("spawn failed: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() >= deadline => {
                // Kill errors mean the child already exited; wait reaps it
                // either way.
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return ChildOutcome::Failed(format!("wait failed: {e}"));
            }
        }
    };
    let text = reader.join().expect("stdout reader thread panicked");
    let Some(status) = status else {
        return ChildOutcome::TimedOut;
    };
    if !status.success() {
        return ChildOutcome::Failed(format!("child exited with {status}"));
    }
    let text = match text {
        Ok(text) => text,
        Err(e) => return ChildOutcome::Failed(format!("reading child output: {e}")),
    };
    match text.lines().last().map(Record::parse) {
        Some(Ok(record)) => ChildOutcome::Ok(record),
        Some(Err(e)) => ChildOutcome::Failed(format!("bad child record: {e}")),
        None => ChildOutcome::Failed("child printed nothing".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
