//! Statistics and reporting utilities for serving experiments.
//!
//! * [`Summary`] — streaming count/mean/min/max/variance,
//! * [`Fingerprint`] — bit-exact named fields pinning a run for golden
//!   tests,
//! * [`Samples`] — exact percentiles over collected values (p50/p95/p99),
//! * [`Histogram`] — fixed-width binning for latency distributions
//!   (the paper's Fig. 7),
//! * [`TimeSeries`] — time-weighted gauges (queue depth, batch size),
//! * [`json`] — escape helper and a dependency-free JSON validity
//!   checker backing the trace exporters,
//! * [`power`] — per-query energy → datacenter power projections
//!   (its Table III),
//! * [`Table`] — plain-text table rendering for the `figures` binary.
//!
//! # Example
//!
//! ```
//! use agentsim_metrics::Samples;
//!
//! let mut s = Samples::new();
//! for v in 1..=100 {
//!     s.push(v as f64);
//! }
//! assert_eq!(s.percentile(50.0), 50.0);
//! assert_eq!(s.percentile(95.0), 95.0);
//! ```

pub mod fingerprint;
pub mod histogram;
pub mod json;
pub mod power;
pub mod samples;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use fingerprint::Fingerprint;
pub use histogram::Histogram;
pub use power::PowerProjection;
pub use samples::Samples;
pub use summary::Summary;
pub use table::Table;
pub use timeseries::TimeSeries;
