//! QPS sweeps, peak-throughput (knee) detection, and per-load-point
//! phase breakdowns ("where did the tail go").

use agentsim_llm::EngineConfig;
use agentsim_simkit::rng::splitmix64;

use crate::observe::{Phase, RequestSpan};
use crate::open_loop::{ServingConfig, ServingSim, ServingWorkload};
use crate::report::ServingReport;

/// One point of a QPS sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered load.
    pub qps: f64,
    /// The run's report.
    pub report: ServingReport,
}

/// Runs `run_point` at each offered load, in parallel across at most
/// `available_parallelism` OS threads, preserving input order.
fn sweep_map<T: Send>(qps_points: &[f64], run_point: impl Fn(f64) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(qps_points.len());
    let per_thread = qps_points.len().div_ceil(threads);
    let mut out: Vec<Option<T>> = qps_points.iter().map(|_| None).collect();
    let run_point = &run_point;
    std::thread::scope(|scope| {
        for (slots, points) in out
            .chunks_mut(per_thread)
            .zip(qps_points.chunks(per_thread))
        {
            scope.spawn(move || {
                for (slot, &qps) in slots.iter_mut().zip(points) {
                    *slot = Some(run_point(qps));
                }
            });
        }
    });
    out.into_iter()
        .map(|p| p.expect("point computed"))
        .collect()
}

/// Runs the workload at each offered load, in parallel across at most
/// `available_parallelism` OS threads. Results are returned in the input
/// order; each point's seed depends only on `(seed, qps)`, so the result
/// is deterministic regardless of how points are spread over threads.
///
/// # Panics
///
/// Panics if `qps_points` is empty or `num_requests` is zero.
pub fn qps_sweep(
    engine: &EngineConfig,
    workload: &ServingWorkload,
    qps_points: &[f64],
    num_requests: u64,
    seed: u64,
) -> Vec<SweepPoint> {
    assert!(!qps_points.is_empty(), "sweep needs at least one point");
    assert!(num_requests > 0, "sweep needs requests");
    sweep_map(qps_points, |qps| {
        let cfg = ServingConfig::new(workload.clone(), qps, num_requests)
            .seed(splitmix64(seed ^ qps.to_bits()))
            .engine(engine.clone());
        SweepPoint {
            qps,
            report: ServingSim::new(cfg).run(),
        }
    })
}

/// Where request time went, summed over a span population: the five
/// span phases, normalized against total end-to-end time.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Finished spans aggregated.
    pub requests: u64,
    /// Seconds queued before (re-)admission.
    pub queue_s: f64,
    /// Seconds in prefill steps.
    pub prefill_s: f64,
    /// Seconds in decode steps.
    pub decode_s: f64,
    /// Seconds in KV migration (disaggregated serving only).
    pub transfer_s: f64,
    /// Seconds admitted but not advancing.
    pub stall_s: f64,
}

impl PhaseBreakdown {
    /// Aggregates the finished spans in `spans` (unfinished are skipped).
    pub fn from_spans<'a>(spans: impl IntoIterator<Item = &'a RequestSpan>) -> Self {
        let mut b = PhaseBreakdown::default();
        for span in spans {
            if span.finished.is_none() {
                continue;
            }
            b.requests += 1;
            b.queue_s += span.queue_time.as_secs_f64();
            b.prefill_s += span.prefill_time.as_secs_f64();
            b.decode_s += span.decode_time.as_secs_f64();
            b.transfer_s += span.transfer_time.as_secs_f64();
            b.stall_s += span.stall_time.as_secs_f64();
        }
        b
    }

    /// Aggregates only the slowest `frac` of finished spans by
    /// end-to-end latency (at least one). The paper's Fig. 14 question:
    /// the *tail* breakdown shows which phase the knee pushes on.
    pub fn tail_of(spans: &[RequestSpan], frac: f64) -> Self {
        let mut finished: Vec<&RequestSpan> = spans.iter().filter(|s| s.is_complete()).collect();
        finished.sort_by(|a, b| {
            let (ea, eb) = (a.e2e().unwrap(), b.e2e().unwrap());
            ea.cmp(&eb).then(a.id.cmp(&b.id))
        });
        let keep = ((finished.len() as f64 * frac).ceil() as usize).max(1);
        let tail = finished.len().saturating_sub(keep);
        PhaseBreakdown::from_spans(finished[tail..].iter().copied())
    }

    /// Total attributed seconds (equals summed end-to-end time).
    pub fn total_s(&self) -> f64 {
        self.queue_s + self.prefill_s + self.decode_s + self.transfer_s + self.stall_s
    }

    /// Fraction of total time in `phase`, in `[0, 1]` (0 if empty).
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total_s();
        if total <= 0.0 {
            return 0.0;
        }
        let part = match phase {
            Phase::Queue => self.queue_s,
            Phase::Prefill => self.prefill_s,
            Phase::Decode => self.decode_s,
            Phase::Transfer => self.transfer_s,
            Phase::Stall => self.stall_s,
        };
        part / total
    }
}

/// A sweep point with its phase breakdowns: where time went overall and
/// in the slowest 5% of requests.
#[derive(Debug, Clone)]
pub struct ObservedSweepPoint {
    /// Offered load.
    pub qps: f64,
    /// The run's report.
    pub report: ServingReport,
    /// Phase breakdown over all finished request spans.
    pub overall: PhaseBreakdown,
    /// Phase breakdown over the slowest 5% by end-to-end latency.
    pub tail: PhaseBreakdown,
}

/// [`qps_sweep`] with a [`crate::SpanRecorder`] attached at every load
/// point: same seeds, same reports, plus per-point phase breakdowns.
/// The recorder itself stays thread-local; only the plain-data
/// breakdowns cross back.
///
/// # Panics
///
/// Panics if `qps_points` is empty or `num_requests` is zero.
pub fn qps_sweep_observed(
    engine: &EngineConfig,
    workload: &ServingWorkload,
    qps_points: &[f64],
    num_requests: u64,
    seed: u64,
) -> Vec<ObservedSweepPoint> {
    assert!(!qps_points.is_empty(), "sweep needs at least one point");
    assert!(num_requests > 0, "sweep needs requests");
    sweep_map(qps_points, |qps| {
        let cfg = ServingConfig::new(workload.clone(), qps, num_requests)
            .seed(splitmix64(seed ^ qps.to_bits()))
            .engine(engine.clone());
        let mut sim = ServingSim::new(cfg);
        let recorder = sim.attach_recorder();
        let report = sim.run();
        let spans = recorder.spans();
        ObservedSweepPoint {
            qps,
            report,
            overall: PhaseBreakdown::from_spans(&spans),
            tail: PhaseBreakdown::tail_of(&spans, 0.05),
        }
    })
}

/// Peak throughput: the highest achieved throughput across the sweep —
/// an estimate of serving capacity (the knee of the paper's Fig. 14
/// curves). Past the knee, offering more load cannot raise the achieved
/// rate, so the maximum over a sweep that spans the knee measures it.
///
/// # Panics
///
/// Panics if `points` is empty, matching [`qps_sweep`]'s contract (a
/// silent `0.0` sentinel would read as "the server has no capacity").
pub fn peak_throughput(points: &[SweepPoint]) -> f64 {
    assert!(
        !points.is_empty(),
        "peak_throughput needs at least one sweep point"
    );
    points
        .iter()
        .map(|p| p.report.throughput())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_ordered_and_complete() {
        let points = qps_sweep(
            &EngineConfig::a100_llama8b(),
            &ServingWorkload::Chatbot,
            &[0.5, 2.0],
            12,
            3,
        );
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].qps, 0.5);
        assert_eq!(points[1].qps, 2.0);
        assert_eq!(points[0].report.completed, 12);
    }

    #[test]
    fn overload_raises_tail_latency() {
        let points = qps_sweep(
            &EngineConfig::a100_llama8b(),
            &ServingWorkload::Chatbot,
            &[0.5, 20.0],
            25,
            4,
        );
        assert!(
            points[1].report.p95_s > points[0].report.p95_s,
            "overloaded p95 {} vs light p95 {}",
            points[1].report.p95_s,
            points[0].report.p95_s
        );
    }

    #[test]
    fn peak_throughput_finds_knee() {
        let points = qps_sweep(
            &EngineConfig::a100_llama8b(),
            &ServingWorkload::Chatbot,
            &[0.5, 50.0],
            20,
            5,
        );
        let peak = peak_throughput(&points);
        assert!(peak > 0.0);
        // 50 qps of chatbot far exceeds one A100's capacity: the sustained
        // peak must be well below the top offer.
        assert!(peak < 40.0, "peak {peak}");
    }

    #[test]
    #[should_panic(expected = "at least one sweep point")]
    fn empty_peak_throughput_rejected() {
        // An empty sweep must fail loudly, like `qps_sweep` itself does —
        // returning 0.0 would read as "the server has no capacity".
        let _ = peak_throughput(&[]);
    }

    #[test]
    fn observed_sweep_matches_plain_sweep_and_partitions_time() {
        let plain = qps_sweep(
            &EngineConfig::a100_llama8b(),
            &ServingWorkload::Chatbot,
            &[0.5, 60.0],
            40,
            4,
        );
        let observed = qps_sweep_observed(
            &EngineConfig::a100_llama8b(),
            &ServingWorkload::Chatbot,
            &[0.5, 60.0],
            40,
            4,
        );
        for (p, o) in plain.iter().zip(&observed) {
            // Observation must not perturb the simulation.
            assert_eq!(p.report.fingerprint(), o.report.fingerprint());
            assert!(o.overall.requests >= o.report.completed);
            assert!(o.tail.requests >= 1);
            assert!(o.tail.requests <= o.overall.requests);
            let shares: f64 = [
                Phase::Queue,
                Phase::Prefill,
                Phase::Decode,
                Phase::Transfer,
                Phase::Stall,
            ]
            .iter()
            .map(|&ph| o.overall.share(ph))
            .sum();
            assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
            assert_eq!(o.overall.share(Phase::Transfer), 0.0);
        }
        // Under overload the tail becomes queue-dominated: that is the
        // Fig. 14 "where did the tail go" signature.
        let (light, heavy) = (&observed[0], &observed[1]);
        assert!(
            heavy.tail.share(Phase::Queue) > light.tail.share(Phase::Queue),
            "overload must grow the tail's queue share ({} vs {})",
            heavy.tail.share(Phase::Queue),
            light.tail.share(Phase::Queue)
        );
    }

    #[test]
    fn tail_breakdown_keeps_slowest_spans_only() {
        let cfg = ServingConfig::new(ServingWorkload::Chatbot, 10.0, 40).seed(9);
        let mut sim = ServingSim::new(cfg);
        let recorder = sim.attach_recorder();
        sim.run();
        let spans = recorder.spans();
        let tail = PhaseBreakdown::tail_of(&spans, 0.05);
        let overall = PhaseBreakdown::from_spans(&spans);
        assert_eq!(tail.requests, 2, "ceil(40 * 0.05)");
        // Mean e2e of the tail is at least the population mean.
        assert!(
            tail.total_s() / tail.requests as f64 >= overall.total_s() / overall.requests as f64
        );
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_sweep_rejected() {
        let _ = qps_sweep(
            &EngineConfig::a100_llama8b(),
            &ServingWorkload::Chatbot,
            &[],
            1,
            0,
        );
    }
}
