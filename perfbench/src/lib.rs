//! Host-cost benchmark of the agentsim drivers: three workloads run
//! through the public driver APIs, end-to-end host metrics, and a traced
//! run that splits the cost across the workspace crates.

pub mod host;
pub mod layers;
pub mod record;
pub mod replay;
pub mod spans;
pub mod twin;
pub mod workloads;

/// End-to-end metrics as `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("turns_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];
