//! The workloads: what trace each replays, and the system it replays
//! through. See `README.md` for why each one exists.

use std::sync::Arc;
use std::time::Instant;

use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::StagedSwitch;
use fabric::trace::{encode, generate, TraceFlavor, TraceModel};
use fabric::{Backpressure, FabricConfig, RetryBudget, ServiceCore};
use tiers::{reference_tree, TierCore, TierTopology};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Revsort 1024→512, Bernoulli p = 0.48 wire-space trace, 64-byte
    /// payloads: the sweep- and marshal-bound case.
    FabricWide,
    /// The 16-leaf reference tree, zipf-population over 2048 ingress
    /// ids, 8-byte payloads: the only workload that forwards.
    TreeZipf,
    /// Revsort 256→128 under shed-oldest and a retry budget of 2,
    /// zipf-population in user space, 1-byte payloads: the per-message
    /// case, with 8 of 64 lanes used per sweep.
    FabricNarrow,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload::FabricWide,
    Workload::FabricNarrow,
    Workload::TreeZipf,
];

/// Users behind the zipf-population traces.
const POPULATION: u64 = 2_000_000;
/// Zipf exponent of the population traces. Below the repository's usual
/// 1.1: at 1.1 the hottest user is active in every tick, so its wire is
/// loaded at exactly one message per frame, its queue is a random walk,
/// and tail waits differ from seed to seed by more than any useful bound.
const ZIPF_EXPONENT: f64 = 0.8;
/// Ring capacity at every tier of the tree (the tier bench's default).
const TREE_QUEUE: usize = 64;
/// Offer probability per ingress id and tick on fabric-narrow: about
/// 121 messages per frame after folding, so congestion losers retry
/// (2% of offers) and a few exhaust their budget, while the shed-oldest
/// ring never overflows and p99 sojourn is 2 frames on every seed. At
/// 0.75 the backlog grows through the trace.
const NARROW_LOAD: f64 = 0.65;

/// What a workload replays through.
pub enum Target {
    /// One fabric of one shard.
    Fabric {
        /// The shared switch (datapath compiled during setup).
        switch: Arc<StagedSwitch>,
        /// Serving configuration.
        config: FabricConfig,
    },
    /// The tier tree.
    Tree {
        /// Topology with every tier's datapath compiled during setup.
        topology: TierTopology,
    },
}

/// One set-up: the system, and how long building it took.
pub struct Setup {
    /// What the replay runs through.
    pub target: Target,
    /// Where the set-up time went.
    pub times: SetupTimes,
}

/// Seconds per part of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Building the switches.
    pub build_s: f64,
    /// The first `datapath_logic` call of each switch.
    pub compile_s: f64,
    /// Constructing the serving cores and workers.
    pub cores_s: f64,
}

impl SetupTimes {
    /// Total set-up seconds.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.compile_s + self.cores_s
    }

    /// These times multiplied by a host-speed factor (see `reference`).
    pub fn scaled(self, scale: f64) -> SetupTimes {
        SetupTimes {
            build_s: self.build_s * scale,
            compile_s: self.compile_s * scale,
            cores_s: self.cores_s * scale,
        }
    }
}

impl Workload {
    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricWide => "fabric-wide",
            Workload::FabricNarrow => "fabric-narrow",
            Workload::TreeZipf => "tree-zipf",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Trace ticks in one replay pass: short, so that the reference
    /// kernel timed either side of a pass sees the host speed the pass
    /// ran at (0.1–0.2 s; fabric-wide 0.8 s). fabric-wide needs 96
    /// ticks: with 24, some seeds have under 1% of messages waiting a
    /// frame, and its p99 sojourn flips between 1 and 2 frames by seed.
    pub fn ticks(self) -> u64 {
        match self {
            Workload::FabricWide => 96,
            Workload::FabricNarrow => 1000,
            Workload::TreeZipf => 100,
        }
    }

    /// Ids the trace lowers onto: switch input wires for a fabric,
    /// ingress ids for the tree.
    pub fn wires(self) -> usize {
        match self {
            Workload::FabricWide => 1024,
            Workload::FabricNarrow => 256,
            Workload::TreeZipf => 2048,
        }
    }

    fn size_class(self) -> u8 {
        match self {
            Workload::FabricWide => 6,
            Workload::FabricNarrow => 0,
            Workload::TreeZipf => 3,
        }
    }

    /// Payload bytes of every message.
    pub fn payload_bytes(self) -> usize {
        1 << self.size_class()
    }

    fn model(self) -> TraceModel {
        match self {
            Workload::FabricWide => TraceModel::Bernoulli { p: 0.48 },
            Workload::FabricNarrow => TraceModel::ZipfPopulation {
                p: NARROW_LOAD,
                population: POPULATION,
                exponent: ZIPF_EXPONENT,
            },
            Workload::TreeZipf => TraceModel::ZipfPopulation {
                p: 0.02,
                population: POPULATION,
                exponent: ZIPF_EXPONENT,
            },
        }
    }

    /// The workload's trace for `seed`, `ticks` long, encoded as CTRC
    /// bytes, with its record count. A pure function of its arguments.
    pub fn trace(self, seed: u64, ticks: u64) -> (Vec<u8>, u64) {
        // Distinct streams per workload, so one seed does not replay
        // correlated draws across workloads.
        let seed = seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self as u64 + 1));
        let trace = generate(self.model(), self.wires(), ticks, self.size_class(), seed);
        (encode(&trace, TraceFlavor::Binary), trace.len() as u64)
    }

    /// Build the system from scratch and time each part.
    pub fn setup(self) -> Setup {
        let started = Instant::now();
        let (target, built) = match self {
            Workload::FabricWide => {
                let switch = revsort(1024, 512);
                (
                    Target::Fabric {
                        switch,
                        config: FabricConfig::new(1),
                    },
                    started.elapsed(),
                )
            }
            Workload::FabricNarrow => {
                let switch = revsort(256, 128);
                (
                    Target::Fabric {
                        switch,
                        config: narrow_config(),
                    },
                    started.elapsed(),
                )
            }
            Workload::TreeZipf => (
                Target::Tree {
                    topology: reference_tree(16, TREE_QUEUE),
                },
                started.elapsed(),
            ),
        };
        let compiling = Instant::now();
        for switch in target.switches() {
            std::hint::black_box(switch.datapath_logic(false));
        }
        let compiled = compiling.elapsed();
        let constructing = Instant::now();
        match &target {
            Target::Fabric { switch, config } => {
                let core = ServiceCore::new(*config);
                std::hint::black_box(core.worker(0, Arc::clone(switch)));
            }
            Target::Tree { topology } => {
                let core = TierCore::new(topology.clone());
                std::hint::black_box(core.workers());
            }
        }
        let cores = constructing.elapsed();
        Setup {
            target,
            times: SetupTimes {
                build_s: built.as_secs_f64(),
                compile_s: compiled.as_secs_f64(),
                cores_s: cores.as_secs_f64(),
            },
        }
    }
}

impl Target {
    /// One switch per tier, leaf first.
    pub fn switches(&self) -> Vec<Arc<StagedSwitch>> {
        match self {
            Target::Fabric { switch, .. } => vec![Arc::clone(switch)],
            Target::Tree { topology } => topology
                .tiers
                .iter()
                .map(|spec| Arc::clone(&spec.switch))
                .collect(),
        }
    }
}

/// `workload_bench`'s serving configuration: one shard, a shed-oldest
/// ring of one tick's worth of offers, and a retry budget of 2, so
/// overload shows as drops instead of unbounded re-offers.
fn narrow_config() -> FabricConfig {
    let mut config = FabricConfig::new(1);
    config.queue_capacity = 256;
    config.backpressure = Backpressure::ShedOldest;
    config.retry = RetryBudget::limited(2);
    config
}

fn revsort(n: usize, m: usize) -> Arc<StagedSwitch> {
    Arc::new(
        RevsortSwitch::new(n, m, RevsortLayout::TwoDee)
            .staged()
            .clone(),
    )
}
