//! Shared session-driver core.
//!
//! Every serving driver in this workspace — the synchronous
//! single-request runner, the open-loop shared-replica simulator, the
//! multi-replica fleet, and the disaggregated prefill/decode pool —
//! steps the same thing: agent sessions issuing iterative LLM calls and
//! tool batches. This crate holds that shared machinery exactly once:
//!
//! - [`runner::SessionRunner`] — the per-session state machine (pending
//!   and completed LLM calls, tool execution, LLMCompiler overlap
//!   accounting, trace accumulation). Drivers keep only what actually
//!   differs between them: where LLM calls are submitted and how events
//!   are scheduled.
//! - [`client::ClientModel`] / [`client::ArrivalProcess`] — who submits
//!   work and when: open-loop Poisson (the paper's methodology),
//!   closed-loop with think times and multi-turn session reuse, and
//!   recorded-trace replay.
//! - [`trace::RequestTrace`] — the per-request execution record every
//!   driver produces.
//! - [`overload`] — the overload-resilience policy surface shared by the
//!   drivers: per-request deadlines, retry backoff, admission control,
//!   and queue disciplines, plus the common load-parameter validation.
//! - [`seeds`] — the named RNG-fork keys all drivers derive their
//!   deterministic sub-streams from.

pub mod cascade;
pub mod client;
pub mod overload;
pub mod runner;
pub mod seeds;
pub mod trace;

pub use cascade::CascadePolicy;
pub use client::{Arrival, ArrivalProcess, ClientModel};
pub use overload::{
    validate_load, AcceptAll, AdmissionController, AdmissionPolicy, AimdLimiter, OverloadPolicy,
    QueueDiscipline, RetryPolicy,
};
pub use runner::{CallDone, LlmOp, LlmSubmit, SessionCmd, SessionRunner, ToolRng};
pub use trace::{LlmCallRecord, RequestTrace};
