//! The traced run: per-layer numbers for one workload, in three parts.
//!
//! 1. The real workload runs once untraced and once with counting
//!    observers attached through the public hooks
//!    (`FleetSim::attach_recorders`, `DisaggSim::set_*_observer`); the
//!    report and observer counters give exact counts.
//! 2. The twin loop drives a one-replica slice of the workload with a
//!    span around each call into a layer; its fingerprint must equal
//!    `ServingSim` on the same slice.
//! 3. The inputs captured in parts 1 and 2 are replayed against
//!    `PerfModel`, `KvBlockManager`/`MemoryHierarchy`, `Link` and
//!    `TransferScheduler`, timing each call.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use agentsim_llm::{EngineEvent, EngineObserver};
use agentsim_serving::{ClientModel, ServingConfig, ServingSim, ServingWorkload};
use agentsim_simkit::SimDuration;

use crate::record::Record;
use crate::replay;
use crate::spans::Tracer;
use crate::twin::{self, TwinPrint};
use crate::workloads::{pinned, Config, Fingerprint, Report, Sim, Workload, DEFAULT_SEED};

/// Per-layer metrics as `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simkit.events", "count"),
    ("simkit.events_per_turn", "count"),
    ("simkit.self_s", "s"),
    ("simkit.ns_per_event", "ns"),
    ("llm.steps", "count"),
    ("llm.prefill_tokens", "count"),
    ("llm.decode_tokens", "count"),
    ("llm.preemptions", "count"),
    ("llm.batch_seqs_mean", "count"),
    ("llm.kick_useful_ratio", "ratio"),
    ("llm.self_s", "s"),
    ("llm.ns_per_step", "ns"),
    ("gpu.pricing_calls", "count"),
    ("gpu.ns_per_pricing", "ns"),
    ("gpu.link.transfers", "count"),
    ("gpu.link.chunks", "count"),
    ("gpu.link.bytes", "bytes"),
    ("gpu.link.busy_s", "sim_s"),
    ("gpu.link.wait_s", "sim_s"),
    ("gpu.link.ns_per_schedule", "ns"),
    ("kvcache.hit_ratio", "ratio"),
    ("kvcache.allocs", "count"),
    ("kvcache.ns_per_alloc", "ns"),
    ("kvcache.demoted_blocks", "count"),
    ("kvcache.promoted_blocks", "count"),
    ("kvcache.promote_ratio", "ratio"),
    ("kvcache.dropped_blocks", "count"),
    ("kvcache.evictions", "count"),
    ("kvcache.self_s", "s"),
    ("session.ops", "count"),
    ("session.ns_per_op", "ns"),
    ("session.self_s", "s"),
    ("session.retries", "count"),
    ("session.cancelled", "count"),
    ("session.dropped", "count"),
    ("session.escalated", "count"),
    ("session.shard_speedup", "ratio"),
    ("workloads.ns_per_task", "ns"),
    ("disagg.migrations", "count"),
    ("disagg.flips", "count"),
    ("disagg.ns_per_schedule", "ns"),
    ("disagg.calls_retained", "count"),
    ("serving.run_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Spans written to the trace file (the whole run stays in memory).
const SPANS_WRITTEN: usize = 20_000;

/// The one-replica slice of `workload` that the twin loop drives: the
/// first pool's engine and agent, with the per-replica share of the load.
pub fn slice(workload: Workload, seed: u64) -> ServingConfig {
    let workload_of = |kind, benchmark, config| ServingWorkload::Agent {
        kind,
        benchmark,
        config,
    };
    match workload.config(seed) {
        Config::Fleet(c) => {
            let replicas = u64::from(c.total_replicas());
            let pool = &c.pools[0];
            let client = match c.client {
                ClientModel::ClosedLoop {
                    concurrency,
                    think_time,
                } => ClientModel::ClosedLoop {
                    concurrency: (u64::from(concurrency) / replicas).max(1) as u32,
                    think_time,
                },
                other => other,
            };
            ServingConfig::new(
                workload_of(c.kind, c.benchmark, pool.agent),
                c.qps / replicas as f64,
                c.num_requests / replicas,
            )
            .engine(pool.engine.clone())
            .client(client)
            .seed(seed)
        }
        Config::Disagg(c) => {
            let replicas = u64::from(c.total_replicas());
            let agentsim_disagg::DisaggWorkload::Agent {
                kind,
                benchmark,
                config,
            } = c.workload
            else {
                panic!("the disagg workload serves agent traffic");
            };
            ServingConfig::new(
                workload_of(kind, benchmark, config),
                c.qps / replicas as f64,
                c.num_requests / replicas,
            )
            .engine(c.prefill_engine.clone())
            .seed(seed)
        }
    }
}

/// Step counters folded from engine events.
#[derive(Debug, Default, Clone, Copy)]
struct StepCounts {
    steps: u64,
    prefill_tokens: u64,
    decode_tokens: u64,
    batch_seqs: u64,
    preemptions: u64,
}

/// A counting observer shared by every replica of a disaggregated run.
#[derive(Debug, Clone, Default)]
struct Counter(Arc<Mutex<StepCounts>>);

impl EngineObserver for Counter {
    fn on_event(&mut self, event: &EngineEvent<'_>) {
        let mut c = self.0.lock().expect("counter poisoned");
        match event {
            EngineEvent::StepCompleted {
                prefill, decode, ..
            } => {
                c.steps += 1;
                c.prefill_tokens += prefill.iter().map(|&(_, n)| u64::from(n)).sum::<u64>();
                c.decode_tokens += decode.len() as u64;
                c.batch_seqs += (prefill.len() + decode.len()) as u64;
            }
            EngineEvent::Preempted { .. } => c.preemptions += 1,
            _ => {}
        }
    }
}

/// Builds and runs `config`, returning the report and the run's wall
/// seconds.
fn timed_run(config: Config) -> (Report, f64) {
    let sim = config.build();
    let t = Instant::now();
    let report = sim.run();
    (report, t.elapsed().as_secs_f64())
}

/// Part 1 with observers: the report, the step counters, and wall time.
fn observed_run(config: Config) -> (Report, StepCounts, f64) {
    match config.build() {
        Sim::Fleet(mut sim) => {
            let recorders = sim.attach_recorders();
            let t = Instant::now();
            let report = sim.run();
            let wall = t.elapsed().as_secs_f64();
            let mut c = StepCounts::default();
            for rec in &recorders {
                for s in rec.steps() {
                    c.steps += 1;
                    c.prefill_tokens += u64::from(s.prefill_tokens);
                    c.decode_tokens += u64::from(s.decode_seqs);
                    c.batch_seqs += u64::from(s.prefill_seqs + s.decode_seqs);
                }
                c.preemptions += rec
                    .spans()
                    .iter()
                    .map(|s| u64::from(s.preemptions))
                    .sum::<u64>();
            }
            (Report::Fleet(report), c, wall)
        }
        Sim::Disagg(mut sim) => {
            let counter = Counter::default();
            let (prefill, decode) = sim.pool_sizes();
            for r in 0..prefill {
                sim.set_prefill_observer(r, Box::new(counter.clone()));
            }
            for r in 0..decode {
                sim.set_decode_observer(r, Box::new(counter.clone()));
            }
            let t = Instant::now();
            let report = sim.run();
            let wall = t.elapsed().as_secs_f64();
            let c = *counter.0.lock().expect("counter poisoned");
            (Report::Disagg(report), c, wall)
        }
    }
}

/// Counters read off a part-1 report (zero where the driver has none).
#[derive(Debug, Default)]
struct ReportCounts {
    retries: u64,
    cancelled: u64,
    dropped: u64,
    escalated: u64,
    demoted: u64,
    promoted: u64,
    offload_dropped: u64,
    migrations: u64,
    flips: u64,
    calls_retained: u64,
    kv_hit: f64,
    /// Link `(transfers, chunks, bytes, busy seconds, wait seconds)`.
    link: (u64, u64, u64, f64, f64),
    /// Replayed nanoseconds per link-schedule call.
    link_ns: f64,
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Runs the traced parts for `workload` at `seed` and returns a record
/// holding every [`PER_LAYER`] metric, `correct`, the failed checks, and
/// the exact counts joined into one string that must repeat across runs.
pub fn traced(workload: Workload, seed: u64) -> Record {
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };

    // Part 1: the real workload. Untraced runs bracket the observed one,
    // so warm-up and drift fall on both sides of the overhead ratio.
    let (plain, untraced_before) = timed_run(workload.config(seed));
    drop(plain);
    let (report, counts, observed_s) = observed_run(workload.config(seed));
    let (plain, untraced_after) = timed_run(workload.config(seed));
    let untraced_s = (untraced_before + untraced_after) / 2.0;
    let fingerprint = Fingerprint::of(&report);
    check(
        Fingerprint::of(&plain) == fingerprint,
        "observers changed the simulated results".into(),
    );
    drop(plain);
    if seed == DEFAULT_SEED {
        check(
            fingerprint.canonical() == pinned(workload),
            format!("fingerprint drift: {}", fingerprint.canonical()),
        );
    }
    // The sharded fleet path on the same inputs: two worker threads
    // (`nproc` on the reference host) must reproduce the sequential
    // results bit for bit.
    let shard_speedup = match workload.config(seed) {
        Config::Fleet(c) => {
            let (sharded, sharded_s) = timed_run(Config::Fleet(c.threads(2)));
            check(
                Fingerprint::of(&sharded) == fingerprint,
                "threads(2) changed the simulated results".into(),
            );
            untraced_s / sharded_s
        }
        Config::Disagg(_) => 0.0,
    };

    // Part 2: the twin loop on a one-replica slice, traced (timing) and
    // capturing (replay inputs), against ServingSim.
    let slice_cfg = slice(workload, seed);
    let mut tracer = Tracer::new();
    let timed_twin = twin::run(&slice_cfg, &mut tracer, false);
    let captured = twin::run(&slice_cfg, &mut Tracer::new(), true);
    let reference = TwinPrint::of_report(&ServingSim::new(slice_cfg.clone()).run());
    check(
        timed_twin.print == reference && captured.print == reference,
        format!(
            "twin loop {:?} differs from ServingSim {reference:?}",
            timed_twin.print
        ),
    );
    let self_times = tracer.self_times();
    let self_s = |layer: &str| self_times.get(layer).map_or(0.0, |v| v.0);
    write_spans(workload, seed, &tracer);

    // Part 3: replays.
    let engine =
        match replay::replay_engine(&slice_cfg.engine, &captured.events_log, &captured.prompts) {
            Ok(r) => r,
            Err(e) => {
                check(false, format!("engine replay diverged: {e}"));
                replay::EngineReplay::default()
            }
        };
    check(
        engine.kv_tokens == captured.kv_tokens,
        format!(
            "replayed KV (hit, miss) {:?} != engine {:?}",
            engine.kv_tokens, captured.kv_tokens
        ),
    );
    check(
        engine.pricings == captured.steps
            && engine.steps_exact + engine.steps_stalled == engine.pricings,
        format!(
            "{} of {} steps priced exactly",
            engine.steps_exact, captured.steps
        ),
    );
    check(
        engine.links == captured.links,
        format!(
            "replayed offload links {:?} != engine {:?}",
            engine.links, captured.links
        ),
    );

    let mut r = Record::new();
    let twin_steps = captured.steps;
    r.num("simkit.events", timed_twin.events as f64)
        .num(
            "simkit.events_per_turn",
            per(timed_twin.events as f64, timed_twin.turns),
        )
        .num("simkit.self_s", self_s("simkit"))
        .num(
            "simkit.ns_per_event",
            per(self_s("simkit") * 1e9, timed_twin.events),
        )
        .num("llm.steps", counts.steps as f64)
        .num("llm.prefill_tokens", counts.prefill_tokens as f64)
        .num("llm.decode_tokens", counts.decode_tokens as f64)
        .num("llm.preemptions", counts.preemptions as f64)
        .num(
            "llm.batch_seqs_mean",
            per(counts.batch_seqs as f64, counts.steps),
        )
        .num(
            "llm.kick_useful_ratio",
            per(timed_twin.useful_kicks as f64, timed_twin.kicks),
        )
        .num("llm.self_s", self_s("llm"))
        .num("llm.ns_per_step", per(self_s("llm") * 1e9, twin_steps))
        .num("gpu.pricing_calls", engine.pricings as f64)
        .num(
            "gpu.ns_per_pricing",
            per(engine.pricing_ns as f64, engine.pricings),
        );

    let secs = |d: SimDuration| d.as_secs_f64();
    let mut migration_replay = replay::MigrationReplay::default();
    let f = match &report {
        Report::Fleet(f) => {
            let l = captured.links;
            ReportCounts {
                retries: f.retries,
                cancelled: f.cancelled,
                dropped: f.dropped,
                escalated: f.escalated,
                demoted: f.offload_demoted_blocks,
                promoted: f.offload_promoted_blocks,
                offload_dropped: f.offload_dropped_blocks,
                kv_hit: f.kv_hit_rate,
                link: (l.0, l.1, l.2, secs(l.3), secs(l.4)),
                link_ns: per(engine.link_ns as f64, engine.link_calls),
                ..ReportCounts::default()
            }
        }
        Report::Disagg(d) => {
            let Config::Disagg(cfg) = workload.config(seed) else {
                unreachable!("a disagg report comes from a disagg config")
            };
            migration_replay = replay::replay_migrations(&cfg, d);
            check(
                migration_replay.schedules == d.migrated_calls
                    && migration_replay.arrivals_exact == d.migrated_calls,
                format!(
                    "replayed {} of {} migrations, {} arriving when recorded",
                    migration_replay.schedules, d.migrated_calls, migration_replay.arrivals_exact
                ),
            );
            ReportCounts {
                dropped: d.dropped,
                demoted: d.offload_demoted_blocks,
                promoted: d.offload_promoted_blocks,
                offload_dropped: d.offload_dropped_blocks,
                migrations: d.migrated_calls,
                flips: d.flips.len() as u64,
                calls_retained: d.calls.len() as u64,
                kv_hit: d.kv_hit_rate,
                link: (
                    d.links.iter().map(|l| l.transfers).sum(),
                    d.links.iter().map(|l| l.chunks).sum(),
                    d.links.iter().map(|l| l.bytes).sum(),
                    d.links.iter().map(|l| l.busy_s).sum(),
                    d.links.iter().map(|l| l.wait_s).sum(),
                ),
                link_ns: per(migration_replay.link_ns as f64, migration_replay.link_calls),
                ..ReportCounts::default()
            }
        }
    };
    let link = f.link;
    r.num("gpu.link.transfers", link.0 as f64)
        .num("gpu.link.chunks", link.1 as f64)
        .num("gpu.link.bytes", link.2 as f64)
        .num("gpu.link.busy_s", link.3)
        .num("gpu.link.wait_s", link.4)
        .num("gpu.link.ns_per_schedule", f.link_ns)
        .num("kvcache.hit_ratio", f.kv_hit)
        .num("kvcache.allocs", engine.allocs as f64)
        .num(
            "kvcache.ns_per_alloc",
            per(engine.alloc_ns as f64, engine.allocs),
        )
        .num("kvcache.demoted_blocks", f.demoted as f64)
        .num("kvcache.promoted_blocks", f.promoted as f64)
        .num("kvcache.promote_ratio", per(f.promoted as f64, f.demoted))
        .num("kvcache.dropped_blocks", f.offload_dropped as f64)
        .num("kvcache.evictions", captured.print.evictions as f64)
        .num(
            "kvcache.self_s",
            (engine.alloc_ns + engine.kv_ns) as f64 * 1e-9,
        )
        .num("session.ops", timed_twin.session_ops as f64)
        .num(
            "session.ns_per_op",
            per(self_s("session") * 1e9, timed_twin.session_ops),
        )
        .num("session.self_s", self_s("session"))
        .num("session.retries", f.retries as f64)
        .num("session.cancelled", f.cancelled as f64)
        .num("session.dropped", f.dropped as f64)
        .num("session.escalated", f.escalated as f64)
        .num("session.shard_speedup", shard_speedup)
        .num(
            "workloads.ns_per_task",
            per(self_s("workloads") * 1e9, timed_twin.tasks),
        )
        .num("disagg.migrations", f.migrations as f64)
        .num("disagg.flips", f.flips as f64)
        .num(
            "disagg.ns_per_schedule",
            per(
                migration_replay.schedule_ns as f64,
                migration_replay.schedules,
            ),
        )
        .num("disagg.calls_retained", f.calls_retained as f64)
        .num("serving.run_s", observed_s)
        .num("bench.trace_overhead_ratio", observed_s / untraced_s);

    let exact = format!(
        "{} events={} kicks={}/{} twin_steps={} session_ops={} steps={} prefill_tokens={} \
         decode_tokens={} preemptions={} allocs={} link={:?}",
        fingerprint.canonical(),
        timed_twin.events,
        timed_twin.useful_kicks,
        timed_twin.kicks,
        twin_steps,
        timed_twin.session_ops,
        counts.steps,
        counts.prefill_tokens,
        counts.decode_tokens,
        counts.preemptions,
        engine.allocs,
        (link.0, link.1, link.2),
    );
    r.str("exact_counts", &exact)
        .bool("correct", failures.is_empty())
        .str(
            "checks",
            &if failures.is_empty() {
                "all passed".to_string()
            } else {
                failures.join("; ")
            },
        );
    r
}

/// Writes the first [`SPANS_WRITTEN`] spans as a Chrome trace under the
/// benchmark's `out/` directory. A failed write is reported, not fatal.
fn write_spans(workload: Workload, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{seed}.json", workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_json(SPANS_WRITTEN)));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
