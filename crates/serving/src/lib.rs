//! Serving drivers: execute agent sessions against the simulated engine
//! and tools. All of them step the shared [`SessionRunner`] core and
//! take their traffic from a pluggable [`ClientModel`] (open-loop
//! Poisson, closed-loop think-time populations, trace replay).
//!
//! * [`single`] — one request on a dedicated replica, producing a fully
//!   attributed [`RequestTrace`] (the paper's §IV-A/B per-request
//!   analysis: call counts, latency breakdown, GPU phase breakdown,
//!   token growth, KV footprint, prefix-caching effects).
//! * [`open_loop`] — many concurrent sessions over one shared replica,
//!   open-loop Poisson by default (its §IV-C serving analysis:
//!   throughput, tail latency vs QPS, KV pressure, cache thrashing).
//!   It runs on the [`disagg`] driver as one colocated replica.
//! * [`fleet`] — several replicas behind a router (session affinity vs
//!   stateless balancing), extending the paper's §VI datacenter view.
//! * [`observe`] — step-level observability: attach a [`SpanRecorder`]
//!   to any of the above and export per-request lifecycle spans, engine
//!   time-series, and Chrome-trace / JSONL files.
//! * [`disagg`] (re-export of `agentsim-disagg`) — Splitwise-style
//!   disaggregated prefill/decode pools with a modeled KV-transfer
//!   interconnect, plus the colocated baseline through the same driver
//!   for iso-GPU what-if comparisons.
//!
//! # Example
//!
//! ```
//! use agentsim_serving::SingleRequest;
//! use agentsim_agents::AgentKind;
//! use agentsim_workloads::Benchmark;
//!
//! let outcome = SingleRequest::new(AgentKind::React, Benchmark::HotpotQa)
//!     .seed(3)
//!     .run();
//! assert!(outcome.trace.llm_calls() >= 2);
//! assert!(outcome.trace.tool_calls() >= 1);
//! assert!(outcome.energy_wh > 0.0);
//! ```

pub use agentsim_disagg as disagg;
pub use agentsim_session as session;

pub mod fleet;
pub mod observe;
pub mod open_loop;
pub mod report;
pub mod single;
pub mod stream;
pub mod sweep;

/// Per-request execution traces (now shared driver infrastructure in
/// [`agentsim_session`]; re-exported here for path stability).
pub use agentsim_session::trace;

pub use disagg::{
    AutoscalePolicy, CallRecord, CallSpan, DisaggConfig, DisaggReport, DisaggSim, DisaggWorkload,
    FlipDirection, FlipRecord, HysteresisConfig,
};
pub use fleet::{FleetConfig, FleetReport, FleetSim, ReplicaPool, Routing};
pub use observe::{
    chrome_trace, stitch_disagg_span, Phase, RequestSpan, Segment, SpanRecorder, StepRecord,
};
pub use open_loop::{ServingConfig, ServingSim, ServingWorkload};
pub use report::ServingReport;
pub use session::{
    validate_load, AdmissionPolicy, Arrival, ArrivalProcess, CascadePolicy, ClientModel,
    OverloadPolicy, QueueDiscipline, RetryPolicy, SessionCmd, SessionRunner,
};
pub use single::{SingleOutcome, SingleRequest};
pub use stream::SpanStreamWriter;
pub use sweep::{
    peak_throughput, qps_sweep, qps_sweep_observed, ObservedSweepPoint, PhaseBreakdown, SweepPoint,
};
pub use trace::{LlmCallRecord, RequestTrace};
