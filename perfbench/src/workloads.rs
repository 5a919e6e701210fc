//! The three benchmark workloads: each one builds a driver config from a
//! seed, runs it through the public driver API, and folds the report into
//! a [`Fingerprint`] of its simulated results.

use agentsim_disagg::{
    AutoscalePolicy, DisaggConfig, DisaggReport, DisaggSim, DisaggWorkload, HysteresisConfig,
};
use agentsim_gpu::LinkSpec;
use agentsim_kvcache::EvictionPolicy;
use agentsim_llm::{EngineConfig, OffloadConfig};
use agentsim_serving::{
    AdmissionPolicy, CascadePolicy, ClientModel, FleetConfig, FleetReport, FleetSim,
    OverloadPolicy, QueueDiscipline, ReplicaPool, Routing,
};
use agentsim_simkit::SimDuration;

/// Seed whose fingerprints are pinned in [`pinned`].
pub const DEFAULT_SEED: u64 = 1;

/// A benchmark workload. Names are the `--workload` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plain colocated fleet: the `llm` step loop dominates.
    FleetOpen,
    /// Two model tiers with KV offload, cascade and overload control.
    FleetTiered,
    /// 2P+2D disaggregated serving with pipelined KV transfers.
    DisaggPipelined,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetOpen,
        Workload::FleetTiered,
        Workload::DisaggPipelined,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetOpen => "fleet_open",
            Workload::FleetTiered => "fleet_tiered",
            Workload::DisaggPipelined => "disagg_pipelined",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Turns one run issues.
    pub fn turns(self) -> u64 {
        match self {
            Workload::FleetOpen => 6000,
            Workload::FleetTiered => 4000,
            Workload::DisaggPipelined => 3000,
        }
    }

    /// Builds the driver config for `seed`. Everything a run depends on
    /// comes from here; the drivers receive only this config.
    pub fn config(self, seed: u64) -> Config {
        match self {
            Workload::FleetOpen => Config::Fleet(fleet_open(seed, self.turns())),
            Workload::FleetTiered => Config::Fleet(fleet_tiered(seed, self.turns())),
            Workload::DisaggPipelined => Config::Disagg(disagg_pipelined(seed, self.turns())),
        }
    }
}

/// A driver config of either family.
// One value per run, moved rather than stored: boxing would only add
// an allocation to the set-up being timed.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Config {
    /// Colocated fleet ([`FleetSim`]).
    Fleet(FleetConfig),
    /// Disaggregated pools ([`DisaggSim`]).
    Disagg(DisaggConfig),
}

/// A built simulator, ready to run.
// One value per run, moved rather than stored: boxing would only add
// an allocation to the set-up being timed.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Sim {
    /// Colocated fleet.
    Fleet(FleetSim),
    /// Disaggregated pools.
    Disagg(DisaggSim),
}

/// A finished run's report.
#[derive(Debug)]
pub enum Report {
    /// Colocated fleet.
    Fleet(FleetReport),
    /// Disaggregated pools.
    Disagg(DisaggReport),
}

impl Config {
    /// Builds the simulator (the set-up cost `setup_s` measures).
    pub fn build(self) -> Sim {
        match self {
            Config::Fleet(c) => Sim::Fleet(FleetSim::new(c)),
            Config::Disagg(c) => Sim::Disagg(DisaggSim::new(c)),
        }
    }
}

impl Sim {
    /// Runs to completion.
    pub fn run(self) -> Report {
        match self {
            Sim::Fleet(s) => Report::Fleet(s.run()),
            Sim::Disagg(s) => Report::Disagg(s.run()),
        }
    }
}

/// `FleetConfig::react_hotpotqa(16, LeastLoaded, 15 qps)`: no extra
/// features, prefix-cache reads only, the working set fits in HBM.
pub fn fleet_open(seed: u64, turns: u64) -> FleetConfig {
    FleetConfig::react_hotpotqa(16, Routing::LeastLoaded, 15.0, turns).seed(seed)
}

/// Two pools (4x A100-8B at a 15% KV pool, 1x H100x4-70B), both with
/// host/NVMe offload tiers ranked by invocation distance, under session
/// affinity, the standard cascade, a closed loop of 128 users and a 60 s
/// deadline with cancellation, AIMD admission and LIFO dispatch.
///
/// Context carry stays off: with it, closed-loop contexts grow until the
/// engine panics with "can never admit" (a known defect, see README).
pub fn fleet_tiered(seed: u64, turns: u64) -> FleetConfig {
    let offload = OffloadConfig::tiers(2048, 8192).with_policy(EvictionPolicy::InvocationDistance);
    let small = EngineConfig::a100_llama8b()
        .with_kv_fraction(0.15)
        .with_offload(offload.clone());
    let large = EngineConfig::h100x4_llama70b().with_offload(offload);
    FleetConfig::pooled(
        vec![ReplicaPool::new(small, 4), ReplicaPool::new(large, 1)],
        Routing::SessionAffinity,
        1.0,
        turns,
    )
    .cascade(CascadePolicy::standard())
    .client(ClientModel::ClosedLoop {
        concurrency: 128,
        think_time: SimDuration::from_secs(5),
    })
    .overload(
        OverloadPolicy::none()
            .deadline(SimDuration::from_secs(60))
            .cancel_on_expiry()
            .admission(AdmissionPolicy::aimd_default())
            .discipline(QueueDiscipline::Lifo),
    )
    .seed(seed)
}

/// 2P+2D over PCIe gen4 with 16-chunk pipelined migrations and the
/// hysteresis autoscaler, at 2 qps on the full KV pool (a shrunken pool
/// livelocks a decode replica: a known defect, see README).
pub fn disagg_pipelined(seed: u64, turns: u64) -> DisaggConfig {
    DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 2.0, turns)
        .pools(2, 2)
        .link(LinkSpec::pcie_gen4())
        .transfer_chunks(16)
        .autoscale(AutoscalePolicy::Hysteresis(HysteresisConfig::default()))
        .seed(seed)
}

/// The simulated results a host-side change must leave bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub completed: u64,
    pub solved: u64,
    pub late: u64,
    pub cancelled: u64,
    pub dropped: u64,
    pub escalated: u64,
    pub e2e_p50: u64,
    pub e2e_p95: u64,
    pub ttft_p50: u64,
    pub ttft_p95: u64,
    pub kv_hit: u64,
    pub energy: u64,
    pub demoted: u64,
    pub promoted: u64,
    pub link_bytes: u64,
    pub link_chunks: u64,
    pub flips: u64,
}

impl Fingerprint {
    /// Folds a report. Floats are kept as their bit patterns.
    pub fn of(report: &Report) -> Fingerprint {
        match report {
            Report::Fleet(r) => Fingerprint {
                completed: r.completed,
                solved: r.solved,
                late: r.late,
                cancelled: r.cancelled,
                dropped: r.dropped,
                escalated: r.escalated,
                e2e_p50: r.p50_s.to_bits(),
                e2e_p95: r.p95_s.to_bits(),
                ttft_p50: r.ttft_p50_s.to_bits(),
                ttft_p95: r.ttft_p95_s.to_bits(),
                kv_hit: r.kv_hit_rate.to_bits(),
                energy: r.energy_wh.to_bits(),
                demoted: r.offload_demoted_blocks,
                promoted: r.offload_promoted_blocks,
                link_bytes: r.offload_host_bytes + r.offload_nvme_bytes,
                link_chunks: 0,
                flips: 0,
            },
            Report::Disagg(r) => {
                let mut ttft = r.ttft();
                Fingerprint {
                    completed: r.completed,
                    solved: r.solved,
                    late: 0,
                    cancelled: 0,
                    dropped: r.dropped,
                    escalated: 0,
                    e2e_p50: r.p50_s.to_bits(),
                    e2e_p95: r.p95_s.to_bits(),
                    ttft_p50: ttft.try_median().unwrap_or(f64::NAN).to_bits(),
                    ttft_p95: ttft.try_p95().unwrap_or(f64::NAN).to_bits(),
                    kv_hit: r.kv_hit_rate.to_bits(),
                    energy: r.energy_wh.to_bits(),
                    demoted: r.offload_demoted_blocks,
                    promoted: r.offload_promoted_blocks,
                    link_bytes: r.transferred_bytes,
                    link_chunks: r.links.iter().map(|l| l.chunks).sum(),
                    flips: r.flips.len() as u64,
                }
            }
        }
    }

    /// Canonical one-line form, as printed and pinned.
    pub fn canonical(&self) -> String {
        format!(
            "completed={} solved={} late={} cancelled={} dropped={} escalated={} \
             e2e_p50={:016x} e2e_p95={:016x} ttft_p50={:016x} ttft_p95={:016x} \
             kv_hit={:016x} energy={:016x} demoted={} promoted={} link_bytes={} \
             link_chunks={} flips={}",
            self.completed,
            self.solved,
            self.late,
            self.cancelled,
            self.dropped,
            self.escalated,
            self.e2e_p50,
            self.e2e_p95,
            self.ttft_p50,
            self.ttft_p95,
            self.kv_hit,
            self.energy,
            self.demoted,
            self.promoted,
            self.link_bytes,
            self.link_chunks,
            self.flips,
        )
    }
}

/// The pinned canonical fingerprint of `workload` at [`DEFAULT_SEED`].
pub fn pinned(workload: Workload) -> &'static str {
    match workload {
        Workload::FleetOpen => {
            "completed=6000 solved=2861 late=0 cancelled=0 dropped=0 escalated=0 \
             e2e_p50=403004a2877ee4e2 e2e_p95=403bdbe61cffeb07 ttft_p50=3fb71422ccb3a259 \
             ttft_p95=3fd168b9fdbd2fa1 kv_hit=3fe246de2c267f60 energy=4081f962eee34d17 \
             demoted=0 promoted=0 link_bytes=0 link_chunks=0 flips=0"
        }
        Workload::FleetTiered => {
            "completed=3658 solved=2702 late=0 cancelled=342 dropped=212 escalated=57 \
             e2e_p50=402c4aed1394317b e2e_p95=4041a2f00ef1348b ttft_p50=3fa3a6aca7935760 \
             ttft_p95=3fcfb8ed1bf7ad4b kv_hit=3fe7c1849630e222 energy=408558ac52e10ee2 \
             demoted=1078567 promoted=42583 link_bytes=3957097234432 link_chunks=0 flips=0"
        }
        Workload::DisaggPipelined => {
            "completed=3000 solved=1444 late=0 cancelled=0 dropped=0 escalated=0 \
             e2e_p50=402720b9baa1511e e2e_p95=4033f57507e9d94d ttft_p50=3fa53e920c069e80 \
             ttft_p95=3fbc07bbb62413db kv_hit=3feb1ecf50fac818 energy=407988596f0f78c8 \
             demoted=0 promoted=0 link_bytes=3908820795392 link_chunks=266480 flips=1"
        }
    }
}
