//! Named RNG-fork keys shared by every serving driver.
//!
//! All stochastic behaviour flows through [`agentsim_simkit::SimRng`]
//! sub-streams keyed by these constants. They used to be magic numbers
//! copy-pasted across four drivers; keeping them here makes the streams
//! greppable and guarantees that two drivers given the same seed derive
//! *identical* randomness — the property the what-if experiments
//! (colocated vs disaggregated, open- vs closed-loop) rely on.
//!
//! Changing any value is a breaking change to every golden fingerprint.

/// Root-stream key of `DisaggSim`, and so of `ServingSim`, which runs
/// on it as one colocated replica:
/// `SimRng::seed_from(config.seed ^ SERVING_ROOT)`. One root for every
/// topology means a disaggregated run and a colocated run at the same
/// seed see identical arrivals and sessions.
pub const SERVING_ROOT: u64 = 0x5E61;

/// Root-stream key of the multi-replica fleet driver (`FleetSim`).
pub const FLEET_ROOT: u64 = 0xF1EE7;

/// Fork key of the arrival process stream (inter-arrival gaps, think
/// times): `root.fork(ARRIVALS)`.
pub const ARRIVALS: u64 = 0xA221;

/// Per-turn fork key of an agent session's decision stream:
/// `root.fork(turn ^ AGENT_SESSION)`.
pub const AGENT_SESSION: u64 = 0xA6E7;

/// Per-turn fork key of a chatbot session's stream:
/// `root.fork(turn ^ CHATBOT_SESSION)`.
pub const CHATBOT_SESSION: u64 = 0xC4A7;

/// Per-turn fork key of the agent-vs-chatbot class draw in mixed
/// workloads: `root.fork(turn ^ MIXED_CLASS)`.
pub const MIXED_CLASS: u64 = 0x111C;

/// XOR'd into the time-keyed tool-RNG fork when launching the tools of
/// an overlapped plan, so they draw independently of a plain tool batch
/// issued at the same instant.
pub const OVERLAP_TOOLS: u64 = 0x0B;

/// Fork key of the single-request driver's agent decision stream
/// (`SingleRequest` derives per-task roots, not per-arrival ones).
pub const SINGLE_AGENT: u64 = 1;

/// Fork key of the single-request driver's sequential tool stream.
pub const SINGLE_TOOLS: u64 = 2;
