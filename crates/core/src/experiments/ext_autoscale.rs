//! Extension: pool autoscaling for disaggregated serving — a hysteresis
//! controller that flips replicas between the prefill and decode pools
//! at runtime, priced against every static split.
//!
//! The paper's serving-cost story hinges on matching GPU supply to the
//! prefill/decode demand ratio, which differs across traffic classes:
//! ReAct re-reads its growing history every iteration (prefill-heavy,
//! Figs. 9–10) while chatbot traffic spends its life decoding, and a
//! KV-constrained decode pool thrashes long before the prefill pool
//! saturates. Whichever static split a cluster picks, some workload/load
//! point starves one pool while the other idles. This experiment gives
//! the cluster a demand-driven controller (hysteresis band on the
//! per-replica prefill/decode demand ratio, with a dwell timer and
//! explicit drain + reconfiguration cost per flip) and asks whether one
//! adaptive policy can track the best static split for *both* traffic
//! classes at iso-GPU count — and beat the worst split decisively.

use agentsim_llm::EngineConfig;
use agentsim_metrics::Table;
use agentsim_serving::{
    AutoscalePolicy, DisaggConfig, DisaggReport, DisaggSim, DisaggWorkload, HysteresisConfig,
};
use agentsim_simkit::SimDuration;

use crate::figure::{FigureResult, Scale};

/// 4-GPU budget: every policy below spends exactly this many replicas.
const GPUS: u32 = 4;

/// The static splits under comparison (prefill, decode).
const STATIC_SPLITS: [(u32, u32); 3] = [(3, 1), (2, 2), (1, 3)];

/// The adaptive policy starts from the middle split and earns its keep
/// by flipping.
const START_SPLIT: (u32, u32) = (2, 2);

fn hysteresis() -> AutoscalePolicy {
    AutoscalePolicy::Hysteresis(HysteresisConfig {
        dwell: SimDuration::from_millis(500),
        ..HysteresisConfig::default()
    })
}

fn run_split(
    workload: DisaggWorkload,
    qps: f64,
    n: u64,
    seed: u64,
    split: (u32, u32),
    autoscale: AutoscalePolicy,
) -> DisaggReport {
    // A KV-constrained engine (as in the serving goldens): an
    // undersized decode pool cannot hide behind bigger batches — it
    // thrashes its KV pool, and the preemption stalls land on TPOT.
    let engine = EngineConfig::a100_llama8b().with_kv_fraction(0.04);
    DisaggSim::new(
        DisaggConfig::new(workload, qps, n)
            .seed(seed)
            .engine(engine)
            .pools(split.0, split.1)
            .autoscale(autoscale),
    )
    .run()
}

fn tpot_p99(report: &DisaggReport) -> f64 {
    let mut tpot = report.tpot();
    tpot.try_percentile(99.0).unwrap_or(f64::NAN)
}

/// Compares the hysteresis controller against all static 4-GPU splits on
/// a prefill-heavy and a decode-heavy workload across a QPS sweep.
pub fn run(scale: &Scale) -> FigureResult {
    let mut result = FigureResult::new(
        "ext_autoscale",
        "Extension: autoscaled prefill/decode pools vs static splits, iso-GPU",
    );
    let n = scale.serving_requests;
    // Agent sessions are multi-call and long-lived, so realistic agent
    // arrival rates sit well below chatbot request rates.
    let workloads = [
        (
            "react (prefill-heavy)",
            DisaggWorkload::react_hotpotqa(),
            [2.0, 2.2],
        ),
        (
            "chatbot (decode-heavy)",
            DisaggWorkload::Chatbot,
            [2.0, 4.0],
        ),
    ];

    let mut table = Table::with_columns(&[
        "workload",
        "QPS",
        "policy",
        "tpot p99 ms",
        "ttft p95 s",
        "p95 s",
        "flips",
    ]);
    // Per-cell p99 TPOT, accumulated per policy. The sweep-wide figure
    // for a policy is the mean of its per-cell p99s: every sweep cell
    // weighs the same, regardless of how many LLM calls its workload
    // makes (react sessions emit several calls per request, chatbot one).
    let mut static_cells: Vec<Vec<f64>> = STATIC_SPLITS.iter().map(|_| Vec::new()).collect();
    let mut autoscale_cells: Vec<f64> = Vec::new();
    let mut total_flips = 0usize;
    for (wname, workload, qps_points) in &workloads {
        for &qps in qps_points {
            for (i, &split) in STATIC_SPLITS.iter().enumerate() {
                let report = run_split(
                    workload.clone(),
                    qps,
                    n,
                    scale.seed,
                    split,
                    AutoscalePolicy::Disabled,
                );
                let tpot = tpot_p99(&report);
                static_cells[i].push(tpot);
                let mut ttft = report.ttft();
                table.row(vec![
                    wname.to_string(),
                    format!("{qps:.1}"),
                    format!("static {}P+{}D", split.0, split.1),
                    format!("{:.1}", tpot * 1e3),
                    format!("{:.3}", ttft.try_p95().unwrap_or(f64::NAN)),
                    format!("{:.1}", report.p95_s),
                    "-".to_string(),
                ]);
            }
            let report = run_split(
                workload.clone(),
                qps,
                n,
                scale.seed,
                START_SPLIT,
                hysteresis(),
            );
            let tpot = tpot_p99(&report);
            autoscale_cells.push(tpot);
            total_flips += report.flips.len();
            let mut ttft = report.ttft();
            table.row(vec![
                wname.to_string(),
                format!("{qps:.1}"),
                "autoscale (hysteresis)".to_string(),
                format!("{:.1}", tpot * 1e3),
                format!("{:.3}", ttft.try_p95().unwrap_or(f64::NAN)),
                format!("{:.1}", report.p95_s),
                format!("{}", report.flips.len()),
            ]);
        }
    }
    result.table(
        &format!(
            "{GPUS}-GPU budget, {n} requests per cell; autoscale starts at \
             {}P+{}D with a warm flip cost",
            START_SPLIT.0, START_SPLIT.1
        ),
        table,
    );

    let mean = |cells: &[f64]| cells.iter().sum::<f64>() / cells.len() as f64;
    let static_p99: Vec<f64> = static_cells.iter().map(|c| mean(c)).collect();
    let autoscale_p99 = mean(&autoscale_cells);
    let best = static_p99.iter().copied().fold(f64::INFINITY, f64::min);
    let worst = static_p99.iter().copied().fold(0.0f64, f64::max);
    result.check(
        "autoscale-tracks-best-static-split",
        autoscale_p99 <= 1.10 * best,
        format!(
            "sweep-mean tpot p99: autoscale {:.1} ms vs best static {:.1} ms \
             (within {:.0}%)",
            autoscale_p99 * 1e3,
            best * 1e3,
            (autoscale_p99 / best - 1.0) * 100.0
        ),
    );
    result.check(
        "autoscale-beats-worst-static-split",
        autoscale_p99 <= 0.75 * worst,
        format!(
            "sweep-mean tpot p99: autoscale {:.1} ms vs worst static {:.1} ms \
             ({:.0}% better) — no single static split survives both traffic \
             classes",
            autoscale_p99 * 1e3,
            worst * 1e3,
            (1.0 - autoscale_p99 / worst) * 100.0
        ),
    );
    result.check(
        "controller-actually-flips",
        total_flips > 0,
        format!("{total_flips} role flips across the sweep"),
    );

    // Determinism: the adaptive path replays bit-identically — flips,
    // drains, and reconfiguration gaps included.
    let a = run_split(
        DisaggWorkload::react_hotpotqa(),
        2.0,
        n,
        scale.seed,
        START_SPLIT,
        hysteresis(),
    );
    let b = run_split(
        DisaggWorkload::react_hotpotqa(),
        2.0,
        n,
        scale.seed,
        START_SPLIT,
        hysteresis(),
    );
    result.check(
        "autoscaled-run-is-bit-deterministic",
        a.fingerprint() == b.fingerprint() && a.flips == b.flips && a.calls == b.calls,
        format!(
            "two runs, identical bits: p95 {:#x}, {} flips",
            a.p95_s.to_bits(),
            a.flips.len()
        ),
    );

    result.note(format!(
        "One adaptive policy, two opposite traffic classes, one GPU budget: \
         the hysteresis controller lands within {:.0}% of the best static \
         split's sweep-mean tpot p99 ({:.1} vs {:.1} ms) and {:.0}% under \
         the worst ({:.1} ms), paying an explicit drain + reconfiguration \
         cost for each of its {total_flips} flips. Static splits can only \
         buy one end of that trade.",
        (autoscale_p99 / best - 1.0) * 100.0,
        autoscale_p99 * 1e3,
        best * 1e3,
        (1.0 - autoscale_p99 / worst) * 100.0,
        worst * 1e3,
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks_pass_at_quick_scale() {
        // Full quick scale: the worst static split needs enough sustained
        // load to actually collapse, and 24 requests is too short a run.
        let r = run(&Scale::quick());
        assert!(r.all_checks_pass(), "failing: {:?}", r.failing_checks());
    }
}
