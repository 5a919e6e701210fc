//! Wall-clock performance regression harness for the simulator itself.
//!
//! Times a fixed set of simulator-stressing scenarios (high-QPS agent
//! serving, a deep LATS request, a Fig. 14-style QPS sweep) and writes
//! `BENCH_engine.json` at the repository root with baseline/current pairs:
//!
//! ```sh
//! cargo run -p agentsim-bench --release --bin perfstat                # measure
//! cargo run -p agentsim-bench --release --bin perfstat -- --rebaseline
//! cargo run -p agentsim-bench --release --bin perfstat -- --check    # CI smoke
//! ```
//!
//! The first run (no `BENCH_engine.json` yet, or `--rebaseline`) records
//! the measurements as the baseline. Later runs keep the stored baseline
//! and report the speedup of the current build against it, so an
//! accidental algorithmic regression shows up as a speedup well below 1.
//! Each scenario also records a determinism fingerprint (completions,
//! solved count, latency percentiles, hit rate, preemptions) so a perf
//! change that alters simulation results is immediately visible.
//!
//! `--check` runs every scenario at a tiny scale, verifies fingerprints
//! are reproducible within the process, and does not touch
//! `BENCH_engine.json`.
//!
//! ## Fleet (`--fleet`)
//!
//! The fleet driver has its own harness and output file:
//!
//! ```sh
//! cargo run -p agentsim-bench --release --bin perfstat -- --fleet              # CI smoke
//! cargo run -p agentsim-bench --release --bin perfstat -- --fleet --rebaseline
//! ```
//!
//! `--fleet` is the CI smoke: it runs the small 16-replica scenario,
//! demands its pinned fingerprint, and fails on a >10% wall-clock
//! regression against the smoke baseline recorded in `BENCH_fleet.json`.
//! `--fleet --rebaseline` times the smoke and the 64-replica ×
//! 1M-request headline, prints both against the stored baselines, and
//! rewrites `BENCH_fleet.json` with the new times and `host_cpus` (wall
//! clock is only comparable on the recording host).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_llm::{EngineConfig, SchedulerPolicy};
use agentsim_serving::{
    qps_sweep, FleetConfig, FleetSim, Routing, ServingConfig, ServingReport, ServingSim,
    ServingWorkload, SingleRequest,
};
use agentsim_workloads::Benchmark;

const OUTPUT: &str = "BENCH_engine.json";
const FLEET_OUTPUT: &str = "BENCH_fleet.json";

/// Timing repetitions per scenario; the minimum is reported.
const REPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Measure,
    Rebaseline,
    Check,
}

/// Compact determinism fingerprint of a scenario's simulation output.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    completed: u64,
    solved: u64,
    p50_us: u64,
    p95_us: u64,
    kv_hit_ppm: u64,
    preemptions: u64,
}

impl Fingerprint {
    fn of_report(r: &ServingReport) -> Self {
        Fingerprint {
            completed: r.completed,
            solved: r.solved,
            p50_us: (r.p50_s * 1e6).round() as u64,
            p95_us: (r.p95_s * 1e6).round() as u64,
            kv_hit_ppm: (r.kv_hit_rate * 1e6).round() as u64,
            preemptions: r.preemptions,
        }
    }
}

struct Scenario {
    name: &'static str,
    description: &'static str,
    run: fn(check: bool) -> Fingerprint,
}

fn react_workload() -> ServingWorkload {
    ServingWorkload::Agent {
        kind: AgentKind::React,
        benchmark: Benchmark::HotpotQa,
        config: AgentConfig::default_8b(),
    }
}

/// High offered load: a deep waiting queue and a full running set every
/// step, stressing admission and step formation/completion.
fn react_high_qps(check: bool) -> Fingerprint {
    let n = if check { 10 } else { 1200 };
    let cfg = ServingConfig::new(react_workload(), 40.0, n).seed(7);
    Fingerprint::of_report(&ServingSim::new(cfg).run())
}

/// Same load under DeepestFirst, stressing priority admission.
fn react_deepest_first(check: bool) -> Fingerprint {
    let n = if check { 10 } else { 1200 };
    let cfg = ServingConfig::new(react_workload(), 40.0, n)
        .seed(7)
        .engine(EngineConfig::a100_llama8b().with_scheduler(SchedulerPolicy::DeepestFirst));
    Fingerprint::of_report(&ServingSim::new(cfg).run())
}

/// One deep LATS tree: hundreds of iterative LLM calls over a growing
/// shared context, stressing prompt hashing and prefix-cache allocation.
fn lats_single(check: bool) -> Fingerprint {
    let runner = SingleRequest::new(AgentKind::Lats, Benchmark::HotpotQa).seed(8);
    let n = if check { 1 } else { 32 };
    let outcomes = runner.run_batch(n);
    let solved = outcomes.iter().filter(|o| o.trace.outcome.solved).count() as u64;
    let e2e_us: u64 = outcomes.iter().map(|o| o.trace.e2e().as_micros()).sum();
    let calls: u64 = outcomes.iter().map(|o| o.trace.llm_calls() as u64).sum();
    let hit_ppm = (outcomes.iter().map(|o| o.kv_hit_rate).sum::<f64>() / outcomes.len() as f64
        * 1e6)
        .round() as u64;
    Fingerprint {
        completed: outcomes.len() as u64,
        solved,
        p50_us: e2e_us / outcomes.len() as u64,
        p95_us: calls,
        kv_hit_ppm: hit_ppm,
        preemptions: 0,
    }
}

/// A small Fig. 14-style capacity sweep (mixed traffic over load points).
fn fig14_sweep(check: bool) -> Fingerprint {
    let points: &[f64] = if check {
        &[0.5]
    } else {
        &[0.5, 2.0, 4.0, 8.0, 16.0, 32.0]
    };
    let n = if check { 8 } else { 200 };
    let workload = ServingWorkload::Mixed {
        agent_fraction: 0.5,
        kind: AgentKind::React,
        benchmark: Benchmark::HotpotQa,
        config: AgentConfig::default_8b(),
    };
    let sweep = qps_sweep(&EngineConfig::a100_llama8b(), &workload, points, n, 11);
    let last = &sweep.last().expect("non-empty sweep").report;
    let mut fp = Fingerprint::of_report(last);
    fp.completed = sweep.iter().map(|p| p.report.completed).sum();
    fp.solved = sweep.iter().map(|p| p.report.solved).sum();
    fp
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "react_high_qps",
            description: "ReAct/HotpotQA serving at 40 qps x 1200 requests (FCFS)",
            run: react_high_qps,
        },
        Scenario {
            name: "react_deepest_first",
            description: "same load under the DeepestFirst scheduler",
            run: react_deepest_first,
        },
        Scenario {
            name: "lats_single",
            description: "32 LATS tree-search requests on dedicated replicas",
            run: lats_single,
        },
        Scenario {
            name: "fig14_sweep",
            description: "mixed-traffic QPS sweep, 6 load points x 200 requests",
            run: fig14_sweep,
        },
    ]
}

/// Locates the repository root (directory containing `Cargo.toml` with a
/// workspace) by walking up from the current directory.
fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return std::env::current_dir().expect("cwd");
        }
    }
}

/// Pulls `"<name>"`-scoped `"baseline_s": <v>` entries out of a previous
/// `BENCH_engine.json`. The file is our own output (one key per line), so
/// a line scanner is sufficient and avoids a JSON dependency.
fn read_baselines(path: &Path) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            if let Some(name) = rest.split('"').next() {
                current = Some(name.to_string());
            }
        } else if let Some(rest) = line.strip_prefix("\"baseline_s\": ") {
            if let (Some(name), Ok(v)) =
                (current.clone(), rest.trim_end_matches(',').parse::<f64>())
            {
                out.push((name, v));
            }
        }
    }
    out
}

struct Measurement {
    name: &'static str,
    description: &'static str,
    seconds: f64,
    fingerprint: Fingerprint,
}

fn measure(s: &Scenario) -> Measurement {
    let mut best = f64::INFINITY;
    let mut fingerprint = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let fp = (s.run)(false);
        best = best.min(t0.elapsed().as_secs_f64());
        if let Some(prev) = &fingerprint {
            assert_eq!(prev, &fp, "{}: nondeterministic fingerprint", s.name);
        }
        fingerprint = Some(fp);
    }
    Measurement {
        name: s.name,
        description: s.description,
        seconds: best,
        fingerprint: fingerprint.expect("at least one rep"),
    }
}

fn write_json(path: &Path, rows: &[(Measurement, f64)]) -> std::io::Result<()> {
    let mut s = String::from("{\n  \"generated_by\": \"perfstat\",\n  \"scenarios\": [\n");
    for (i, (m, baseline)) in rows.iter().enumerate() {
        let f = &m.fingerprint;
        let _ = write!(
            s,
            "    {{\n      \"name\": \"{}\",\n      \"description\": \"{}\",\n      \
             \"baseline_s\": {:.6},\n      \"current_s\": {:.6},\n      \
             \"speedup\": {:.3},\n      \"fingerprint\": {{\n        \
             \"completed\": {},\n        \"solved\": {},\n        \
             \"p50_us\": {},\n        \"p95_us\": {},\n        \
             \"kv_hit_ppm\": {},\n        \"preemptions\": {}\n      }}\n    }}{}\n",
            m.name,
            m.description,
            baseline,
            m.seconds,
            baseline / m.seconds,
            f.completed,
            f.solved,
            f.p50_us,
            f.p95_us,
            f.kv_hit_ppm,
            f.preemptions,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

/// One fleet load point: ReAct/HotpotQA traffic over least-loaded
/// routing (the policy whose per-decision cost grows with fleet size).
#[derive(Clone, Copy)]
struct FleetScenario {
    name: &'static str,
    replicas: u32,
    qps: f64,
    requests: u64,
    seed: u64,
}

/// The headline scaling scenario: a busy 64-replica fleet serving one
/// million agent turns.
const FLEET_HEADLINE: FleetScenario = FleetScenario {
    name: "fleet_react_64x1m",
    replicas: 64,
    qps: 60.0,
    requests: 1_000_000,
    seed: 0xBEEF,
};

/// The CI smoke scenario: same shape, small enough to run on every push.
const FLEET_SMOKE: FleetScenario = FleetScenario {
    name: "fleet_react_16x2k",
    replicas: 16,
    qps: 15.0,
    requests: 2_000,
    seed: 0xBEEF,
};

/// Determinism fingerprint of a fleet run (rounded, not bit-level — the
/// bit-level contract lives in the golden test suites).
#[derive(Debug, Clone, PartialEq, Eq)]
struct FleetFingerprint {
    completed: u64,
    max_live_sessions: u64,
    p50_us: u64,
    p95_us: u64,
    kv_hit_ppm: u64,
    energy_mwh: u64,
}

/// The smoke scenario's pinned fingerprint. Drift means a semantic
/// change to the fleet simulation, not just a slowdown.
const FLEET_SMOKE_FINGERPRINT: FleetFingerprint = FleetFingerprint {
    completed: 2_000,
    max_live_sessions: 291,
    p50_us: 16_249_229,
    p95_us: 27_670_028,
    kv_hit_ppm: 571_750,
    energy_mwh: 203_609,
};

/// Wall-clock regression budget for the CI smoke, as current/baseline.
const FLEET_SMOKE_BUDGET: f64 = 1.10;

fn run_fleet(s: FleetScenario) -> (f64, FleetFingerprint) {
    let cfg = FleetConfig::react_hotpotqa(s.replicas, Routing::LeastLoaded, s.qps, s.requests)
        .seed(s.seed);
    let t0 = Instant::now();
    let r = FleetSim::new(cfg).run();
    let seconds = t0.elapsed().as_secs_f64();
    let fp = FleetFingerprint {
        completed: r.completed,
        max_live_sessions: r.max_live_sessions,
        p50_us: (r.p50_s * 1e6).round() as u64,
        p95_us: (r.p95_s * 1e6).round() as u64,
        kv_hit_ppm: (r.kv_hit_rate * 1e6).round() as u64,
        energy_mwh: (r.energy_wh * 1e3).round() as u64,
    };
    (seconds, fp)
}

/// Pulls `"baseline_s"` of the `section` object (`"headline"` or
/// `"smoke"`) out of a previous `BENCH_fleet.json` (same line-scanner
/// approach as [`read_baselines`]).
fn read_fleet_baseline(path: &Path, section: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = format!("\"{section}\"");
    let mut inside = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with(&key) {
            inside = true;
        }
        if inside {
            if let Some(rest) = line.strip_prefix("\"baseline_s\": ") {
                return rest.trim_end_matches(',').parse::<f64>().ok();
            }
        }
    }
    None
}

fn write_fleet_json(
    path: &Path,
    fingerprint: &FleetFingerprint,
    headline_s: f64,
    smoke_s: f64,
) -> std::io::Result<()> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let s = FLEET_HEADLINE;
    let smoke = FLEET_SMOKE;
    let out = format!(
        "{{\n  \"generated_by\": \"perfstat --fleet --rebaseline\",\n  \
         \"host_cpus\": {host_cpus},\n  \"scenario\": {{\n    \"name\": \"{}\",\n    \
         \"description\": \"ReAct/HotpotQA, least-loaded routing, {} replicas, \
         {} qps x {} requests\",\n    \"replicas\": {},\n    \"qps\": {},\n    \
         \"requests\": {},\n    \"seed\": {}\n  }},\n  \"fingerprint\": {{\n    \
         \"completed\": {},\n    \"p50_us\": {},\n    \"p95_us\": {},\n    \
         \"kv_hit_ppm\": {}\n  }},\n  \"headline\": {{\n    \
         \"baseline_s\": {headline_s:.3}\n  }},\n  \"smoke\": {{\n    \
         \"name\": \"{}\",\n    \"replicas\": {},\n    \"qps\": {},\n    \
         \"requests\": {},\n    \"seed\": {},\n    \"baseline_s\": {smoke_s:.3}\n  }}\n}}\n",
        s.name,
        s.replicas,
        s.qps,
        s.requests,
        s.replicas,
        s.qps,
        s.requests,
        s.seed,
        fingerprint.completed,
        fingerprint.p50_us,
        fingerprint.p95_us,
        fingerprint.kv_hit_ppm,
        smoke.name,
        smoke.replicas,
        smoke.qps,
        smoke.requests,
        smoke.seed,
    );
    std::fs::write(path, out)
}

/// Best-of-[`REPS`] wall clock of the smoke scenario, demanding the
/// pinned fingerprint from every run.
fn time_fleet_smoke() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let (seconds, fp) = run_fleet(FLEET_SMOKE);
        assert_eq!(
            fp, FLEET_SMOKE_FINGERPRINT,
            "fleet smoke fingerprint drifted — a routing or engine change \
             altered simulation semantics; repin FLEET_SMOKE_FINGERPRINT only \
             alongside an intentional semantic change"
        );
        best = best.min(seconds);
    }
    best
}

/// `--fleet`: the CI smoke. Pinned fingerprint, then the wall-clock
/// budget against the stored baseline.
fn fleet_smoke() {
    let out_path = repo_root().join(FLEET_OUTPUT);
    let best = time_fleet_smoke();
    println!("fleet smoke: fingerprint ok, {best:.2}s wall");
    match read_fleet_baseline(&out_path, "smoke") {
        Some(baseline) => {
            let ratio = best / baseline;
            if ratio > FLEET_SMOKE_BUDGET {
                eprintln!(
                    "fleet smoke regression: {best:.2}s vs baseline {baseline:.2}s \
                     ({ratio:.2}x > {FLEET_SMOKE_BUDGET:.2}x budget)"
                );
                std::process::exit(1);
            }
            println!("fleet smoke wall clock within budget ({ratio:.2}x of baseline)");
        }
        None => {
            eprintln!(
                "no smoke baseline in {} — run `perfstat --fleet --rebaseline` first",
                out_path.display()
            );
            std::process::exit(2);
        }
    }
}

/// `--fleet --rebaseline`: time the smoke and the headline and record
/// both as the new baselines in `BENCH_fleet.json`.
fn fleet_rebaseline() {
    let out_path = repo_root().join(FLEET_OUTPUT);
    let smoke_s = time_fleet_smoke();
    println!("{:<22} {smoke_s:>9.3}s  fingerprint ok", FLEET_SMOKE.name);
    print!("{:<22} ", FLEET_HEADLINE.name);
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let (headline_s, fingerprint) = run_fleet(FLEET_HEADLINE);
    match read_fleet_baseline(&out_path, "headline") {
        Some(old) => println!(
            "{headline_s:>9.3}s  previous baseline {old:>9.3}s  speedup {:>5.2}x",
            old / headline_s
        ),
        None => println!("{headline_s:>9.3}s"),
    }
    if let Err(e) = write_fleet_json(&out_path, &fingerprint, headline_s, smoke_s) {
        eprintln!("could not write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", out_path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--fleet") {
        match args.get(1).map(String::as_str) {
            None => fleet_smoke(),
            Some("--rebaseline") => fleet_rebaseline(),
            Some(other) => {
                eprintln!("unknown fleet flag {other}; use --rebaseline");
                std::process::exit(2);
            }
        }
        return;
    }
    let mode = match args.first().map(String::as_str) {
        Some("--check") => Mode::Check,
        Some("--rebaseline") => Mode::Rebaseline,
        Some(other) => {
            eprintln!("unknown flag {other}; use --check, --rebaseline, or --fleet");
            std::process::exit(2);
        }
        None => Mode::Measure,
    };

    if mode == Mode::Check {
        for s in scenarios() {
            let t0 = Instant::now();
            let a = (s.run)(true);
            let b = (s.run)(true);
            assert_eq!(a, b, "{}: check-scale fingerprint must be stable", s.name);
            println!(
                "check {:<22} ok ({:.2}s) {:?}",
                s.name,
                t0.elapsed().as_secs_f64(),
                a
            );
        }
        println!("perfstat --check passed");
        return;
    }

    let out_path = repo_root().join(OUTPUT);
    let baselines = if mode == Mode::Rebaseline {
        Vec::new()
    } else {
        read_baselines(&out_path)
    };

    let mut rows = Vec::new();
    for s in scenarios() {
        print!("{:<22} ", s.name);
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        let m = measure(&s);
        let baseline = baselines
            .iter()
            .find(|(n, _)| n == m.name)
            .map(|&(_, v)| v)
            .unwrap_or(m.seconds);
        println!(
            "{:>8.3}s  baseline {:>8.3}s  speedup {:>5.2}x",
            m.seconds,
            baseline,
            baseline / m.seconds
        );
        rows.push((m, baseline));
    }

    if let Err(e) = write_json(&out_path, &rows) {
        eprintln!("could not write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", out_path.display());
}
