//! The golden table: every pinned simulation cell in the workspace.
//!
//! Each row is a label, a driver configuration, and the exact `Display`
//! of the run's report [`Fingerprint`] — counters as integers, floats as
//! `f64::to_bits`, so equality is bit-exact with no tolerance. The
//! simulators must stay bit-deterministic for a given configuration and
//! seed across refactors and optimizations: any drift here means a
//! change altered simulation semantics, not just speed.
//!
//! After an intentional semantics change, re-capture the whole table with
//!
//! ```sh
//! cargo test -p agentsim-serving --test golden print_goldens -- --ignored --nocapture
//! ```
//!
//! and paste each printed literal over its row's pinned string. The named
//! tests below hold the structural facts a fingerprint alone cannot show
//! (a flip really executed, trains really pipelined, a relation between
//! two cells).

use agentsim_agents::{AgentConfig, AgentKind};
use agentsim_gpu::{FlipCostModel, LinkSpec};
use agentsim_kvcache::EvictionPolicy;
use agentsim_llm::{EngineConfig, OffloadConfig, SchedulerPolicy};
use agentsim_metrics::Fingerprint;
use agentsim_serving::disagg::PoolRouting;
use agentsim_serving::{
    AdmissionPolicy, AutoscalePolicy, CascadePolicy, ClientModel, DisaggConfig, DisaggReport,
    DisaggSim, DisaggWorkload, FleetConfig, FleetSim, FlipDirection, OverloadPolicy,
    QueueDiscipline, ReplicaPool, RetryPolicy, Routing, ServingConfig, ServingSim, ServingWorkload,
};
use agentsim_simkit::{SimDuration, SimTime};
use agentsim_workloads::Benchmark;

use SchedulerPolicy::{DeepestFirst, Fcfs};

/// One simulated cell: a driver and its configuration.
enum Cell {
    Serving(ServingConfig),
    Fleet(FleetConfig),
    Disagg(Box<DisaggConfig>),
}

impl Cell {
    fn fingerprint(self) -> Fingerprint {
        match self {
            Cell::Serving(cfg) => ServingSim::new(cfg).run().fingerprint(),
            Cell::Fleet(cfg) => FleetSim::new(cfg).run().fingerprint(),
            Cell::Disagg(cfg) => DisaggSim::new(*cfg).run().fingerprint(),
        }
    }
}

/// The serving goldens' traffic mixes.
fn workload(name: &str) -> ServingWorkload {
    match name {
        "chatbot" => ServingWorkload::Chatbot,
        "agent" => ServingWorkload::Agent {
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default_8b(),
        },
        "mixed" => ServingWorkload::Mixed {
            agent_fraction: 0.5,
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default_8b(),
        },
        other => panic!("unknown workload {other}"),
    }
}

/// High offered load so a real queue forms (schedulers diverge) and a
/// small KV pool so preemption fires (recompute paths are covered).
fn serving_engine(scheduler: SchedulerPolicy) -> EngineConfig {
    EngineConfig::a100_llama8b()
        .with_scheduler(scheduler)
        .with_kv_fraction(0.04)
}

fn serving(name: &str, scheduler: SchedulerPolicy) -> ServingConfig {
    ServingConfig::new(workload(name), 8.0, 40)
        .seed(0xD5EED)
        .engine(serving_engine(scheduler))
}

fn closed_loop() -> ClientModel {
    ClientModel::ClosedLoop {
        concurrency: 4,
        think_time: SimDuration::from_secs(2),
    }
}

/// Enough load on 3 replicas that routing decisions interleave with
/// queueing; seed fixed so every policy sees identical arrivals.
fn fleet(routing: Routing, client: ClientModel) -> FleetConfig {
    FleetConfig::react_hotpotqa(3, routing, 4.0, 30)
        .seed(0xF1E7)
        .client(client)
}

/// Two cheap 8B replicas fronting one 4xH100 70B replica, escalating
/// purely on observed failure (no aptitude pre-screen, which would route
/// doomed turns premium up front and leave the re-issue path cold).
fn cascade() -> FleetConfig {
    FleetConfig::pooled(
        vec![
            ReplicaPool::new(EngineConfig::a100_llama8b(), 2),
            ReplicaPool::new(EngineConfig::h100x4_llama70b(), 1),
        ],
        Routing::SessionAffinity,
        4.0,
        30,
    )
    .seed(0xF1E7)
    .cascade(CascadePolicy {
        escalate_on_failure: true,
        aptitude_margin: None,
        max_escalations: u32::MAX,
        escalate_retries: false,
    })
}

/// Turns issued by every overload cell.
const OVERLOAD_TURNS: u64 = 160;

/// Past the knee: 3 replicas at 10 qps is deep overload, so every
/// overload mechanism actually fires.
fn overload(policy: OverloadPolicy) -> FleetConfig {
    FleetConfig::react_hotpotqa(3, Routing::LeastLoaded, 10.0, OVERLOAD_TURNS)
        .seed(0x10AD)
        .overload(policy)
}

fn accept_all() -> OverloadPolicy {
    OverloadPolicy::none().deadline(SimDuration::from_secs(20))
}

fn adaptive() -> OverloadPolicy {
    accept_all()
        .cancel_on_expiry()
        .admission(AdmissionPolicy::aimd_default())
        .discipline(QueueDiscipline::Lifo)
}

/// A KV-thrashing operating point: closed-loop multi-turn users whose
/// carried contexts overrun the shrunken HBM pool between turns.
fn kv(offload: Option<OffloadConfig>) -> FleetConfig {
    let cfg = FleetConfig::react_hotpotqa(2, Routing::SessionAffinity, 2.0, 24)
        .seed(5)
        .client(ClientModel::ClosedLoop {
            concurrency: 6,
            think_time: SimDuration::from_secs(30),
        })
        .with_context_carry()
        .map_engines(|e| e.with_kv_fraction(0.15));
    match offload {
        Some(off) => cfg.map_engines(|e| e.with_offload(off.clone())),
        None => cfg,
    }
}

fn tiers(policy: EvictionPolicy) -> Option<OffloadConfig> {
    Some(OffloadConfig::tiers(2048, 8192).with_policy(policy))
}

fn disagg_1p1d() -> DisaggConfig {
    DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 1.0, 16).seed(0xD15A)
}

/// A one-flip schedule over a 2P+2D split: at t=8s a prefill replica
/// drains and joins the decode pool.
fn flip() -> DisaggConfig {
    disagg_1p1d()
        .pools(2, 2)
        .flip_cost(FlipCostModel::warm())
        .autoscale(AutoscalePolicy::Schedule(vec![(
            SimTime::from_secs_f64(8.0),
            FlipDirection::PrefillToDecode,
        )]))
}

fn routing(prefill: PoolRouting, decode: PoolRouting) -> DisaggConfig {
    DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 1.5, 24)
        .seed(0xD1A6)
        .pools(2, 2)
        .prefill_routing(prefill)
        .decode_routing(decode)
}

/// The one cell with real head-of-line waiting: a 1P+1D split over PCIe,
/// as whole-footprint transfers or as layer-wise chunk trains.
fn pcie(chunks: u32) -> DisaggConfig {
    DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 1.0, 20)
        .seed(0x9C1E)
        .pools(1, 1)
        .link(LinkSpec::pcie_gen4())
        .transfer_chunks(chunks)
}

/// Every pinned cell: `(label, cell, fingerprint)`.
fn table() -> Vec<(&'static str, Cell, &'static str)> {
    use Cell::{Disagg, Fleet, Serving};
    use PoolRouting::{LeastLoaded, RoundRobin};
    vec![
        (
            "serving chatbot fcfs",
            Serving(serving("chatbot", Fcfs)),
            "completed=40 solved=0 makespan=18486235 p50_s=0x401c9deca25529fe \
             p95_s=0x40244d996744b2b7 energy_wh=0x3ff651417d5769e1 utilization=0x3fefb04ca5aaca13 \
             kv_avg_bytes=0x41b98dbd504a854a kv_max_bytes=641728512 kv_hit_rate=0x3fbec4bf9c20d966 \
             preemptions=38 evictions=1241 agent_p50_s=0x7ff8000000000000 \
             chatbot_p50_s=0x401c9deca25529fe",
        ),
        (
            "serving chatbot deepest",
            Serving(serving("chatbot", DeepestFirst)),
            "completed=40 solved=0 makespan=18424770 p50_s=0x401c9deca25529fe \
             p95_s=0x402463c7f77af640 energy_wh=0x3ff6449b37157481 utilization=0x3fefb00894e2f9c1 \
             kv_avg_bytes=0x41b9b93a6335ec67 kv_max_bytes=641728512 kv_hit_rate=0x3fbeac2154dbf68a \
             preemptions=40 evictions=1261 agent_p50_s=0x7ff8000000000000 \
             chatbot_p50_s=0x401c9deca25529fe",
        ),
        (
            "serving agent fcfs",
            Serving(serving("agent", Fcfs)),
            "completed=40 solved=12 makespan=87998167 p50_s=0x4048e57403dddb12 \
             p95_s=0x405469a400fba882 energy_wh=0x401c4f11a222379b utilization=0x3fefa5423ec4a1a4 \
             kv_avg_bytes=0x41c00f3f5ef83c0b kv_max_bytes=641728512 kv_hit_rate=0x3fe1583517fc19a0 \
             preemptions=27 evictions=13215 agent_p50_s=0x4048e57403dddb12 \
             chatbot_p50_s=0x7ff8000000000000",
        ),
        (
            "serving agent deepest",
            Serving(serving("agent", DeepestFirst)),
            "completed=40 solved=12 makespan=93078109 p50_s=0x40481763f572de44 \
             p95_s=0x40539bfc5cdd50a9 energy_wh=0x401cfd95752fce53 utilization=0x3feeab36afe6b8b8 \
             kv_avg_bytes=0x41beacdc06488de8 kv_max_bytes=641728512 kv_hit_rate=0x3fe27cb834d0b8e0 \
             preemptions=29 evictions=12500 agent_p50_s=0x40481763f572de44 \
             chatbot_p50_s=0x7ff8000000000000",
        ),
        (
            "serving mixed fcfs",
            Serving(serving("mixed", Fcfs)),
            "completed=40 solved=5 makespan=50234267 p50_s=0x40231e16f86a0989 \
             p95_s=0x40477ebf9830e3ce energy_wh=0x40100456a802680f utilization=0x3fefe2ab8e5c5567 \
             kv_avg_bytes=0x41c0371417bf64a9 kv_max_bytes=641728512 kv_hit_rate=0x3fdf7a590117ac40 \
             preemptions=29 evictions=6668 agent_p50_s=0x4041f0b5bb384fd3 \
             chatbot_p50_s=0x401d3e071c53f39d",
        ),
        (
            "serving mixed deepest",
            Serving(serving("mixed", DeepestFirst)),
            "completed=40 solved=5 makespan=53196182 p50_s=0x403710f345069a4e \
             p95_s=0x4047394855da2728 energy_wh=0x4010ba1a9bff4130 utilization=0x3fef7635ef25081c \
             kv_avg_bytes=0x41bf41eaf3cf5f86 kv_max_bytes=641728512 kv_hit_rate=0x3fe0033284ef4253 \
             preemptions=18 evictions=6695 agent_p50_s=0x4042a2acc92146a2 \
             chatbot_p50_s=0x402773afd976ff3b",
        ),
        (
            "fleet open affinity",
            Fleet(fleet(
                Routing::SessionAffinity,
                ClientModel::OpenLoopPoisson,
            )),
            "completed=30 solved=17 escalated=0 p50_s=0x40269e2b6ae7d567 p95_s=0x40318bfa6defc7a4 \
             kv_hit_rate=0x3febc9a23153bc01 energy_wh=0x4012e480f7e2244d \
             throughput=0x3ff387d1986e41db goodput=0x3ff387d1986e41db retries=0 abandoned=0 late=0 \
             cancelled=0 dropped=0 wasted_gpu_s=0x0 max_live_sessions=30 \
             ttft_p95_s=0x3fb15a6c5d206c87 tpot_p99_s=0x3f906a9c6de8e1ee offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "fleet open round-robin",
            Fleet(fleet(Routing::RoundRobin, ClientModel::OpenLoopPoisson)),
            "completed=30 solved=17 escalated=0 p50_s=0x40257fc6759ab6d0 p95_s=0x4034f7e5753a3ec0 \
             kv_hit_rate=0x3fe64fa1a26e9c5e energy_wh=0x40166cc2bd1b1aaa \
             throughput=0x3ff0e2a52355c778 goodput=0x3ff0e2a52355c778 retries=0 abandoned=0 late=0 \
             cancelled=0 dropped=0 wasted_gpu_s=0x0 max_live_sessions=30 \
             ttft_p95_s=0x3fc4abe6a337a80d tpot_p99_s=0x3f906e1bb9e3a258 offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "fleet open least-loaded",
            Fleet(fleet(Routing::LeastLoaded, ClientModel::OpenLoopPoisson)),
            "completed=30 solved=17 escalated=0 p50_s=0x4023ead948dc11e4 p95_s=0x40333586ca89fc6e \
             kv_hit_rate=0x3fe6aefbf64ebe9a energy_wh=0x40152374d8d81458 \
             throughput=0x3ff34593cf11fc89 goodput=0x3ff34593cf11fc89 retries=0 abandoned=0 late=0 \
             cancelled=0 dropped=0 wasted_gpu_s=0x0 max_live_sessions=28 \
             ttft_p95_s=0x3fc38d25edd05293 tpot_p99_s=0x3f9049fbda6f6875 offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "fleet closed affinity",
            Fleet(fleet(Routing::SessionAffinity, closed_loop())),
            "completed=30 solved=17 escalated=0 p50_s=0x4020cae05ccc89b1 p95_s=0x4031620f0a5efe93 \
             kv_hit_rate=0x3feb811be54eb5cb energy_wh=0x402b7f46305c6dfe \
             throughput=0x3fd2c64eba21b7ab goodput=0x3fd2c64eba21b7ab retries=0 abandoned=0 late=0 \
             cancelled=0 dropped=0 wasted_gpu_s=0x0 max_live_sessions=4 \
             ttft_p95_s=0x3fb3ea5f84cad57c tpot_p99_s=0x3f8f90140c0fe409 offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "fleet closed round-robin",
            Fleet(fleet(Routing::RoundRobin, closed_loop())),
            "completed=30 solved=17 escalated=0 p50_s=0x40213f3387160957 p95_s=0x4032d55bbbe878fb \
             kv_hit_rate=0x3fe7b4ee68d154d4 energy_wh=0x402ddeb7c34923c4 \
             throughput=0x3fd26835e0c0cbeb goodput=0x3fd26835e0c0cbeb retries=0 abandoned=0 late=0 \
             cancelled=0 dropped=0 wasted_gpu_s=0x0 max_live_sessions=4 \
             ttft_p95_s=0x3fc06c226809d495 tpot_p99_s=0x3f8f460f459adbca offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "fleet closed least-loaded",
            Fleet(fleet(Routing::LeastLoaded, closed_loop())),
            "completed=30 solved=17 escalated=0 p50_s=0x40229a9da597d49d p95_s=0x4031c656366d7a57 \
             kv_hit_rate=0x3fe809fbeddfd1c4 energy_wh=0x402d57379c44f463 \
             throughput=0x3fd2c053556a27f5 goodput=0x3fd2c053556a27f5 retries=0 abandoned=0 late=0 \
             cancelled=0 dropped=0 wasted_gpu_s=0x0 max_live_sessions=4 \
             ttft_p95_s=0x3fbec636b0963561 tpot_p99_s=0x3f8f6bdc09096445 offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "fleet cascade",
            Fleet(cascade()),
            "completed=30 solved=20 escalated=13 p50_s=0x402b255171e29b6b p95_s=0x40404661ae70c133 \
             kv_hit_rate=0x3feb22b6c65a0653 energy_wh=0x4030962a67ec96dc \
             throughput=0x3fea0e4475e7c2b2 goodput=0x3fea0e4475e7c2b2 retries=0 abandoned=0 late=0 \
             cancelled=0 dropped=0 wasted_gpu_s=0x0 max_live_sessions=29 \
             ttft_p95_s=0x3fc0a5f84cad57bc tpot_p99_s=0x3f91688f72edd81c offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "overload accept-all",
            Fleet(overload(accept_all())),
            "completed=74 solved=39 escalated=0 p50_s=0x40282baf533f4235 p95_s=0x40336998d045fe11 \
             kv_hit_rate=0x3fe7068351e193e1 energy_wh=0x402855c876b9e71c \
             throughput=0x40098d3b15546fb2 goodput=0x3ff7a2a373bae751 retries=0 abandoned=86 \
             late=86 cancelled=0 dropped=0 wasted_gpu_s=0x407411ac84f8f8a4 max_live_sessions=136 \
             ttft_p95_s=0x3fd179702e6644d8 tpot_p99_s=0x3f9640b8e61e65d5 offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "overload adaptive",
            Fleet(overload(adaptive())),
            "completed=67 solved=34 escalated=0 p50_s=0x402a00791c4b9021 p95_s=0x40338ac311622813 \
             kv_hit_rate=0x3fe74e66e06f56a6 energy_wh=0x402216088a8e50c5 \
             throughput=0x3ffd3a21849a3a1e goodput=0x3ffd3a21849a3a1e retries=0 abandoned=93 \
             late=0 cancelled=93 dropped=29 wasted_gpu_s=0x403f17be121ee675 max_live_sessions=139 \
             ttft_p95_s=0x3fc6f9b13165d399 tpot_p99_s=0x3f9390bf29c38e52 offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "overload retry",
            Fleet(overload(adaptive().retry(RetryPolicy::standard()))),
            "completed=98 solved=51 escalated=0 p50_s=0x402dbe64d3bf2f55 p95_s=0x40338ac311622813 \
             kv_hit_rate=0x3fe7c0d1fc8539ed energy_wh=0x40335e98920b3e30 \
             throughput=0x3ff3addb6ee1b460 goodput=0x3ff3addb6ee1b460 retries=173 abandoned=62 \
             late=0 cancelled=235 dropped=96 wasted_gpu_s=0x404daf652bd3c360 max_live_sessions=139 \
             ttft_p95_s=0x3fc6d38cda6e75ff tpot_p99_s=0x3f9396a0686846b8 offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "kv no-offload",
            Fleet(kv(None)),
            "completed=24 solved=14 escalated=0 p50_s=0x402ba9351159c497 p95_s=0x4038b9f10667f90e \
             kv_hit_rate=0x3fea1b724442d216 energy_wh=0x40306446bc9d29c6 \
             throughput=0x3fc067887dc55bde goodput=0x3fc067887dc55bde retries=0 abandoned=0 late=0 \
             cancelled=0 dropped=0 wasted_gpu_s=0x0 max_live_sessions=5 \
             ttft_p95_s=0x3ff9a294141e9af6 tpot_p99_s=0x3f90e2c12ad81adf offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "kv offload-lru",
            Fleet(kv(tiers(EvictionPolicy::Lru))),
            "completed=24 solved=14 escalated=0 p50_s=0x402ba9351159c497 p95_s=0x4036d5d2bf551505 \
             kv_hit_rate=0x3fecd7a85a5be494 energy_wh=0x402f81a791e7eae6 \
             throughput=0x3fc07ddbcb7a04f4 goodput=0x3fc07ddbcb7a04f4 retries=0 abandoned=0 late=0 \
             cancelled=0 dropped=0 wasted_gpu_s=0x0 max_live_sessions=4 \
             ttft_p95_s=0x3fe72f74cd31769b tpot_p99_s=0x3f90e0d3eace3f93 \
             offload_demoted_blocks=7290 offload_promoted_blocks=3363 \
             offload_promoted_tokens=53808 offload_dropped_blocks=0 offload_host_bytes=22340960256 \
             offload_nvme_bytes=0",
        ),
        (
            "kv offload-distance",
            Fleet(kv(tiers(EvictionPolicy::InvocationDistance))),
            "completed=24 solved=14 escalated=0 p50_s=0x402ba9351159c497 p95_s=0x4035f2dedaec4a41 \
             kv_hit_rate=0x3fed66d6f2f9c8ce energy_wh=0x402eedca97804358 \
             throughput=0x3fc091a4defd5a69 goodput=0x3fc091a4defd5a69 retries=0 abandoned=0 late=0 \
             cancelled=0 dropped=0 wasted_gpu_s=0x0 max_live_sessions=4 \
             ttft_p95_s=0x3fe509edbf8b9baa tpot_p99_s=0x3f90e0d3eace3f93 \
             offload_demoted_blocks=8110 offload_promoted_blocks=6594 \
             offload_promoted_tokens=105504 offload_dropped_blocks=0 \
             offload_host_bytes=30836523008 offload_nvme_bytes=0",
        ),
        (
            "kv zero-capacity",
            Fleet(kv(Some(OffloadConfig::tiers(0, 0)))),
            "completed=24 solved=14 escalated=0 p50_s=0x402ba9351159c497 p95_s=0x4038b9f10667f90e \
             kv_hit_rate=0x3fea1b724442d216 energy_wh=0x40306446bc9d29c6 \
             throughput=0x3fc067887dc55bde goodput=0x3fc067887dc55bde retries=0 abandoned=0 late=0 \
             cancelled=0 dropped=0 wasted_gpu_s=0x0 max_live_sessions=5 \
             ttft_p95_s=0x3ff9a294141e9af6 tpot_p99_s=0x3f90e2c12ad81adf offload_demoted_blocks=0 \
             offload_promoted_blocks=0 offload_promoted_tokens=0 offload_dropped_blocks=0 \
             offload_host_bytes=0 offload_nvme_bytes=0",
        ),
        (
            "disagg 1p1d",
            Disagg(disagg_1p1d().into()),
            "completed=16 solved=4 abandoned=0 p50_s=0x4022d7fd3f5b5fa2 p95_s=0x4032c7dc486ad2dd \
             ttft_p95_s=0x3fb12c16df3f9618 tpot_p99_s=0x3f90baa582dbe7f3 migrated_calls=85 \
             transferred_bytes=18614321152 transfer_wait=0 energy_wh=0x400740065aa4f0b6 \
             kv_hit_rate=0x3feb05c2d308f314 offload_demoted_blocks=0 offload_promoted_blocks=0 \
             offload_promoted_tokens=0 offload_dropped_blocks=0 preemptions=0",
        ),
        (
            "disagg colocated",
            Disagg(
                DisaggConfig::colocated(DisaggWorkload::react_hotpotqa(), 2, 1.0, 16)
                    .seed(0xD15A)
                    .into(),
            ),
            "completed=16 solved=4 abandoned=0 p50_s=0x4023c0b439581062 p95_s=0x403261c9f72f76e6 \
             ttft_p95_s=0x3fba8f6cefed6345 tpot_p99_s=0x3f956fb8f57f737e migrated_calls=0 \
             transferred_bytes=0 transfer_wait=0 energy_wh=0x4010707319d30fdd \
             kv_hit_rate=0x3fe950ad426a32f2 offload_demoted_blocks=0 offload_promoted_blocks=0 \
             offload_promoted_tokens=0 offload_dropped_blocks=0 preemptions=0",
        ),
        (
            "disagg flip 2p2d",
            Disagg(flip().into()),
            "completed=16 solved=4 abandoned=0 p50_s=0x40284d3dc8b86b16 p95_s=0x403430316a055758 \
             ttft_p95_s=0x3fb1b25f633ce63a tpot_p99_s=0x3f8fb69984a0e411 migrated_calls=89 \
             transferred_bytes=20497563648 transfer_wait=0 energy_wh=0x4019cc484ab92872 \
             kv_hit_rate=0x3feac4d7f925898e offload_demoted_blocks=0 offload_promoted_blocks=0 \
             offload_promoted_tokens=0 offload_dropped_blocks=0 preemptions=0",
        ),
        (
            "disagg routing rr/ll",
            Disagg(routing(RoundRobin, LeastLoaded).into()),
            "completed=24 solved=9 abandoned=0 p50_s=0x402739878316a055 p95_s=0x40328b33226c3b92 \
             ttft_p95_s=0x3fc1ed41b75a74c1 tpot_p99_s=0x3f90d844d013a92a migrated_calls=140 \
             transferred_bytes=33657192448 transfer_wait=0 energy_wh=0x401665cf1c077290 \
             kv_hit_rate=0x3fe7f8d3fa422806 offload_demoted_blocks=0 offload_promoted_blocks=0 \
             offload_promoted_tokens=0 offload_dropped_blocks=0 preemptions=0",
        ),
        (
            "disagg routing rr/rr",
            Disagg(routing(RoundRobin, RoundRobin).into()),
            "completed=24 solved=9 abandoned=0 p50_s=0x4027e6273929ed39 p95_s=0x4033797f737da61e \
             ttft_p95_s=0x3fc075b3e1437c57 tpot_p99_s=0x3f909fe86833c600 migrated_calls=139 \
             transferred_bytes=33726398464 transfer_wait=0 energy_wh=0x401728dd920d62fd \
             kv_hit_rate=0x3fe81276e4ab0fd5 offload_demoted_blocks=0 offload_promoted_blocks=0 \
             offload_promoted_tokens=0 offload_dropped_blocks=0 preemptions=0",
        ),
        (
            "disagg routing ll/ll",
            Disagg(routing(LeastLoaded, LeastLoaded).into()),
            "completed=24 solved=9 abandoned=0 p50_s=0x40282e25204af923 p95_s=0x40333b3083558a76 \
             ttft_p95_s=0x3fbb9cb6848beb5b tpot_p99_s=0x3f90d73860999dcb migrated_calls=140 \
             transferred_bytes=33957085184 transfer_wait=0 energy_wh=0x4015bfb728ed0df3 \
             kv_hit_rate=0x3fe91d31f3b91624 offload_demoted_blocks=0 offload_promoted_blocks=0 \
             offload_promoted_tokens=0 offload_dropped_blocks=0 preemptions=0",
        ),
        (
            "disagg chatbot open",
            Disagg(
                DisaggConfig::new(DisaggWorkload::Chatbot, 2.0, 24)
                    .seed(0xD1A6)
                    .pools(2, 2)
                    .into(),
            ),
            "completed=24 solved=0 abandoned=0 p50_s=0x400ef61dc93ea2d3 p95_s=0x402191fcf3dc054f \
             ttft_p95_s=0x3fba39c51dabe271 tpot_p99_s=0x3f8f47f993d5347a migrated_calls=24 \
             transferred_bytes=1222639616 transfer_wait=0 energy_wh=0x40037f76dcdaf4fa \
             kv_hit_rate=0x3fa3bd60d9232955 offload_demoted_blocks=0 offload_promoted_blocks=0 \
             offload_promoted_tokens=0 offload_dropped_blocks=0 preemptions=0",
        ),
        (
            "disagg agent closed",
            Disagg(
                DisaggConfig::new(DisaggWorkload::react_hotpotqa(), 1.2, 20)
                    .seed(0xC11E)
                    .pools(2, 2)
                    .client(ClientModel::ClosedLoop {
                        concurrency: 5,
                        think_time: SimDuration::from_secs_f64(0.4),
                    })
                    .into(),
            ),
            "completed=20 solved=8 abandoned=0 p50_s=0x402cdaac753e707e p95_s=0x40336c5ab3aabcd8 \
             ttft_p95_s=0x3fc04f8f8a4c1ebd tpot_p99_s=0x3f8fe7e1fc08fa7b migrated_calls=123 \
             transferred_bytes=30821842944 transfer_wait=0 energy_wh=0x4025c51ea1f0e92d \
             kv_hit_rate=0x3fe767741523902a offload_demoted_blocks=0 offload_promoted_blocks=0 \
             offload_promoted_tokens=0 offload_dropped_blocks=0 preemptions=0",
        ),
        (
            "disagg pcie serial",
            Disagg(pcie(1).into()),
            "completed=20 solved=14 abandoned=0 p50_s=0x401fd2df505d0fa6 p95_s=0x4032da21fafc8b00 \
             ttft_p95_s=0x3fb878316a055758 tpot_p99_s=0x3f90f16f4384ba0f migrated_calls=91 \
             transferred_bytes=18838716416 transfer_wait=26886 energy_wh=0x4006edf8dfe8111c \
             kv_hit_rate=0x3feab79b818a7825 offload_demoted_blocks=0 offload_promoted_blocks=0 \
             offload_promoted_tokens=0 offload_dropped_blocks=0 preemptions=0",
        ),
        (
            "disagg pcie chunked",
            Disagg(pcie(32).into()),
            "completed=20 solved=14 abandoned=0 p50_s=0x401d480e06530058 p95_s=0x403052ec5b078d93 \
             ttft_p95_s=0x3fb5e03f705857b0 tpot_p99_s=0x3f909784ec636b09 migrated_calls=87 \
             transferred_bytes=17957912576 transfer_wait=63641 energy_wh=0x40042dcc0f4f87ce \
             kv_hit_rate=0x3feaa080690920be offload_demoted_blocks=0 offload_promoted_blocks=0 \
             offload_promoted_tokens=0 offload_dropped_blocks=0 preemptions=0",
        ),
    ]
}

#[test]
fn golden_table() {
    let drifted: Vec<String> = table()
        .into_iter()
        .filter_map(|(label, cell, pinned)| {
            let got = cell.fingerprint().to_string();
            (got != pinned).then(|| format!("{label}\n  got  {got}\n  want {pinned}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "{} golden row(s) drifted — a change altered simulation semantics \
         (run `print_goldens` to re-capture):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

/// Prints every row's current fingerprint as the string literal that
/// goes into [`table`].
#[test]
#[ignore]
fn print_goldens() {
    for (label, cell, _) in table() {
        let mut lines = vec![String::new()];
        for field in cell.fingerprint().to_string().split(' ') {
            let line = lines.last_mut().expect("one line");
            if !line.is_empty() && line.len() + field.len() > 84 {
                lines.push(field.to_owned());
            } else {
                if !line.is_empty() {
                    line.push(' ');
                }
                line.push_str(field);
            }
        }
        println!(
            "            // {label}\n            \"{}\",",
            lines.join(" \\\n             ")
        );
    }
}

#[test]
fn closed_loop_fleets_stay_within_their_population() {
    for routing in [
        Routing::SessionAffinity,
        Routing::RoundRobin,
        Routing::LeastLoaded,
    ] {
        let r = FleetSim::new(fleet(routing, closed_loop())).run();
        assert!(
            r.max_live_sessions <= 4,
            "{routing}: {} live sessions exceed the 4-user population",
            r.max_live_sessions
        );
    }
}

#[test]
fn overload_goodput_never_exceeds_throughput() {
    for policy in [
        accept_all(),
        adaptive(),
        adaptive().retry(RetryPolicy::standard()),
    ] {
        let r = FleetSim::new(overload(policy)).run();
        assert_eq!(
            r.completed + r.abandoned,
            OVERLOAD_TURNS,
            "every turn must resolve exactly once"
        );
        assert!(
            r.goodput <= r.throughput,
            "goodput {} exceeds throughput {}",
            r.goodput,
            r.throughput
        );
    }
}

#[test]
fn kv_thrash_point_spills_and_restores() {
    let lru = FleetSim::new(kv(tiers(EvictionPolicy::Lru))).run();
    let distance = FleetSim::new(kv(tiers(EvictionPolicy::InvocationDistance))).run();
    assert!(
        lru.offload_demoted_blocks > 0 && distance.offload_demoted_blocks > 0,
        "the thrash point must actually spill to the tiers"
    );
    assert!(
        distance.offload_promoted_tokens > 0,
        "carried conversations must restore context from the tiers"
    );
}

/// Every call's five-phase span partitions its end-to-end latency.
fn assert_partition(r: &DisaggReport) {
    for c in &r.calls {
        assert_eq!(c.span().total(), c.e2e(), "session {}", c.session);
        assert_eq!(c.migrated(), c.span().transfer > SimDuration::ZERO);
    }
}

/// The flip row's fingerprint alone cannot tell a dropped schedule from
/// an executed one.
#[test]
fn flip_schedule_executes_exactly_one_telescoping_flip() {
    let r = DisaggSim::new(flip()).run();
    assert_partition(&r);
    assert_eq!(r.flips.len(), 1, "the scheduled flip must execute");
    let f = &r.flips[0];
    assert_eq!(f.direction, FlipDirection::PrefillToDecode);
    assert!(f.requested >= SimTime::from_secs_f64(8.0));
    assert!(
        f.requested <= f.drained && f.drained <= f.completed,
        "flip timestamps must telescope"
    );
    assert_eq!(
        f.flip_gap(),
        FlipCostModel::warm().flip_time(),
        "reconfiguration gap must match the cost model"
    );
}

#[test]
fn pipelined_trains_cut_the_transfer_phase() {
    let serial = DisaggSim::new(pcie(1)).run();
    let pipelined = DisaggSim::new(pcie(32)).run();
    assert_partition(&serial);
    assert_partition(&pipelined);
    assert!(
        serial.links.iter().all(|l| l.chunks == l.transfers),
        "serial arm must move exactly one chunk per transfer"
    );
    assert!(
        pipelined.links.iter().any(|l| l.chunks > l.transfers),
        "pipelined arm must ship multi-chunk trains"
    );
    let transfer = |r: &DisaggReport| {
        r.phase_totals()
            .into_iter()
            .find(|(name, _)| *name == "transfer")
            .map(|(_, secs)| secs)
            .expect("transfer phase")
    };
    let (ser_t, pipe_t) = (transfer(&serial), transfer(&pipelined));
    assert!(
        pipe_t <= 0.75 * ser_t,
        "pipelining must shrink the transfer phase >=25% (serial {ser_t:.3} s, \
         chunked {pipe_t:.3} s)"
    );
}
