//! Discrete-event simulation kernel for the `agentsim` workspace.
//!
//! This crate provides the building blocks every other simulation crate is
//! written against:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer-microsecond simulated clock
//!   with exact ordering (no floating-point drift in the event queue),
//! * [`EventQueue`] — a deterministic future-event list with stable FIFO
//!   tie-breaking for simultaneous events,
//! * [`SimRng`] — a small, seedable RNG with cheap independent sub-streams,
//! * [`dist`] — the statistical distributions the workload and tool models
//!   need (exponential, log-normal, normal, categorical, Zipf, …),
//!   implemented in-house so the workspace needs no `rand_distr` dependency.
//!
//! # Example
//!
//! ```
//! use agentsim_simkit::{EventQueue, SimDuration, SimTime, SimRng};
//! use agentsim_simkit::dist::{Exponential, Sample};
//!
//! let mut rng = SimRng::seed_from(42);
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! let arrivals = Exponential::with_rate(2.0); // two events per second
//!
//! let mut t = SimTime::ZERO;
//! for _ in 0..3 {
//!     t += SimDuration::from_secs_f64(arrivals.sample(&mut rng));
//!     queue.push(t, "arrival");
//! }
//! while let Some((when, what)) = queue.pop() {
//!     assert_eq!(what, "arrival");
//!     assert!(when >= SimTime::ZERO);
//! }
//! ```

pub mod dist;
pub mod queue;
pub mod rng;
pub mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
