//! The repository's benchmark: single-thread trace replay through the
//! public serving cores (`fabric::ServiceCore` / `WorkerCore`, and the
//! `tiers::TierCore` / `TierWorker` tree), with end-to-end metrics from
//! untraced passes and a per-layer ledger from traced ones.
//!
//! A run sets the system up [`SETUPS`] times (timing each), generates
//! the workload's trace from the seed, then replays it in passes until
//! the run's seconds are spent. Every pass checks every delivery and the
//! conservation ledger, and must reproduce the first pass's counters
//! exactly. Every set-up and pass is timed between two timings of the
//! [`reference`] kernel, which scale its times to the reference host
//! speed. Each metric is the median over passes.

pub mod reference;
pub mod replay;
pub mod stats;
pub mod workload;

use std::time::Instant;

use replay::{replay_fabric, replay_tree, Counters, Pass, TraceInput};
use stats::{median, quartiles};
use workload::{Setup, SetupTimes, Target, Workload};

/// Systems built per run; `setup_s` is the median of their set-up times.
pub const SETUPS: usize = 5;
/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// The held-out seed a gain claimed on [`DEFAULT_SEED`] must also hold on.
pub const HELD_OUT_SEED: u64 = 7;
/// Most of a traced pass's wall time the layers may leave unaccounted.
pub const UNACCOUNTED_BOUND: f64 = 0.10;

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Trace seed.
    pub seed: u64,
    /// Seconds of replay passes (at least one pass of each kind runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Trace ticks per pass.
    pub ticks: u64,
    /// Set-ups to time.
    pub setups: usize,
}

impl Plan {
    /// A full-size run.
    pub fn new(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Plan {
        Plan {
            workload,
            seed,
            seconds,
            traced,
            ticks: workload.ticks(),
            setups: SETUPS,
        }
    }
}

/// One metric: its per-pass samples, reported as their median.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// One value per pass (or per set-up).
    pub samples: Vec<f64>,
}

impl Metric {
    /// The reported value: the median sample.
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// What ran.
    pub plan: Plan,
    /// Replay passes run.
    pub passes: usize,
    /// Messages offered, over all passes.
    pub attempted: u64,
    /// Failed checks, over all passes and the run's own gates.
    pub failed: u64,
    /// The first failures, described.
    pub failures: Vec<String>,
    /// The first pass's deterministic counters.
    pub counters: Counters,
    /// Every pass's host-speed factor, in pass order.
    pub scales: Vec<f64>,
    /// Delivery latency samples per untraced pass.
    pub latency_samples: usize,
    /// Metrics, in output order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Run a plan.
pub fn run(plan: &Plan) -> Report {
    // The kernel's first run in a process pays for faulting in the
    // allocator's pages; keep it out of every scale.
    reference::time_kernel();
    // Passes rotate over every system built. Identical systems built in
    // one process differ in memory layout, and their medians over
    // interleaved passes were measured up to 15% apart on fabric-wide;
    // rotating keeps one build's layout from deciding the run.
    let mut kernel_ns = reference::time_kernel();
    let mut systems: Vec<Setup> = Vec::new();
    let mut setups: Vec<SetupTimes> = Vec::new();
    for _ in 0..plan.setups.max(1) {
        let setup = plan.workload.setup();
        let after = reference::time_kernel();
        setups.push(setup.times.scaled(reference::scale(kernel_ns, after)));
        kernel_ns = after;
        systems.push(setup);
    }
    let (bytes, records) = plan.workload.trace(plan.seed, plan.ticks);
    let input = TraceInput {
        bytes: &bytes,
        records,
        wires: plan.workload.wires(),
        payload_bytes: plan.workload.payload_bytes(),
    };

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut first: Option<Counters> = None;
    let mut scales: Vec<f64> = Vec::new();
    kernel_ns = reference::time_kernel();
    let started = Instant::now();
    for index in 0.. {
        let enough = !untraced.is_empty() && (!plan.traced || !traced.is_empty());
        if enough && started.elapsed().as_secs_f64() >= plan.seconds {
            break;
        }
        let tracing = plan.traced && index % 2 == 1;
        let mut pass = match &systems[index % systems.len()].target {
            Target::Fabric { switch, config } => replay_fabric(switch, *config, &input, tracing),
            Target::Tree { topology } => replay_tree(topology, &input, tracing),
        };
        let after = reference::time_kernel();
        pass.scale = reference::scale(kernel_ns, after);
        kernel_ns = after;
        scales.push(pass.scale);
        attempted += pass.counters.generated;
        failed += pass.failed;
        failures.extend(pass.failures.iter().cloned());
        match &first {
            None => first = Some(pass.counters.clone()),
            Some(expected) if *expected != pass.counters => {
                failed += 1;
                failures.push(format!(
                    "pass {index} counters differ from pass 0: {} vs {}",
                    pass.counters.to_json(),
                    expected.to_json()
                ));
            }
            Some(_) => {}
        }
        if tracing {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
    }

    let metrics = if plan.traced {
        let metrics = layer_metrics(&setups, &untraced, &traced, &systems[0].target);
        let unaccounted = metrics
            .iter()
            .find(|m| m.name == "layers.unaccounted_frac")
            .map_or(0.0, Metric::value);
        if unaccounted.abs() > UNACCOUNTED_BOUND {
            failed += 1;
            failures.push(format!(
                "layers leave {unaccounted:.4} of traced wall time unaccounted (bound {UNACCOUNTED_BOUND})"
            ));
        }
        metrics
    } else {
        end_to_end_metrics(&setups, &untraced)
    };
    failures.truncate(16);
    Report {
        plan: *plan,
        passes: untraced.len() + traced.len(),
        attempted: attempted.max(1),
        failed,
        failures,
        counters: first.expect("at least one pass"),
        scales,
        latency_samples: untraced.first().map_or(0, |p| p.latency_samples),
        metrics,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn metric(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        samples,
    }
}

fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

/// `ns` measured in pass `p`, at the reference host speed.
fn at_reference(p: &Pass, ns: u64) -> f64 {
    ns as f64 * p.scale
}

fn end_to_end_metrics(setups: &[SetupTimes], passes: &[Pass]) -> Vec<Metric> {
    let delivered = |p: &Pass| p.counters.delivered as f64;
    vec![
        metric(
            "msgs_per_s",
            "1/s",
            per_pass(passes, |p| ratio(delivered(p), at_reference(p, p.wall_ns) / 1e9)),
        ),
        metric(
            "deliver_p50_us",
            "us",
            per_pass(passes, |p| at_reference(p, p.latency_p50_ns) / 1e3),
        ),
        metric(
            "deliver_p99_us",
            "us",
            per_pass(passes, |p| at_reference(p, p.latency_p99_ns) / 1e3),
        ),
        metric(
            "sojourn_p99_frames",
            "frames",
            per_pass(passes, |p| p.counters.sojourn_percentile(99.0) as f64),
        ),
        metric(
            "delivered_frac",
            "frac",
            per_pass(passes, |p| {
                1.0 - ratio(p.counters.lost() as f64, p.counters.generated as f64)
            }),
        ),
        metric(
            "cpu_us_per_msg",
            "us",
            per_pass(passes, |p| ratio(at_reference(p, p.cpu_ns) / 1e3, delivered(p))),
        ),
        metric("peak_rss_mb", "MB", vec![peak_rss_mb()]),
        metric(
            "setup_s",
            "s",
            setups.iter().map(SetupTimes::total_s).collect(),
        ),
    ]
}

fn layer_metrics(
    setups: &[SetupTimes],
    untraced: &[Pass],
    traced: &[Pass],
    target: &Target,
) -> Vec<Metric> {
    let baseline_wall = median(&per_pass(untraced, |p| at_reference(p, p.wall_ns)));
    let insns: usize = target
        .switches()
        .iter()
        .map(|s| s.datapath_logic(false).compiled.insn_count())
        .sum();
    let layers = |p: &Pass| p.layers.clone().expect("traced pass has layers");
    let sum = |p: &Pass, f: fn(&replay::TierCounters) -> u64| -> f64 {
        p.counters.tiers.iter().map(f).sum::<u64>() as f64
    };
    let frames = |p: &Pass| sum(p, |t| t.frames);
    let sweeps = |p: &Pass| sum(p, |t| t.sweeps);
    let fill = |p: &Pass| sum(p, |t| t.offered);
    let share = |name: &str, f: fn(&replay::Layers) -> u64| {
        metric(
            name,
            "frac",
            per_pass(traced, |p| ratio(f(&layers(p)) as f64, p.wall_ns as f64)),
        )
    };
    let marshal: fn(&replay::Layers) -> u64 =
        |l| l.frame_ns.saturating_sub(l.route_ns + l.sweep_ns);
    let mut metrics = vec![
        metric(
            "trace.decode_ns_per_msg",
            "ns",
            per_pass(traced, |p| {
                ratio(at_reference(p, layers(p).decode_ns), p.counters.generated as f64)
            }),
        ),
        metric(
            "trace.fold_frac",
            "frac",
            per_pass(traced, |p| {
                ratio(p.counters.folds as f64, p.counters.records as f64)
            }),
        ),
        metric(
            "trace.overhead_frac",
            "frac",
            per_pass(traced, |p| ratio(at_reference(p, p.wall_ns), baseline_wall) - 1.0),
        ),
        metric(
            "service.submit_ns_per_msg",
            "ns",
            per_pass(traced, |p| {
                ratio(at_reference(p, layers(p).submit_ns), p.counters.offers as f64)
            }),
        ),
        metric(
            "service.handback_frac",
            "frac",
            per_pass(traced, |p| {
                ratio(p.counters.handbacks as f64, p.counters.offers as f64)
            }),
        ),
        metric(
            "shard.frame_us_p50",
            "us",
            per_pass(traced, |p| at_reference(p, layers(p).frame_p50_ns) / 1e3),
        ),
        metric(
            "shard.frame_us_p99",
            "us",
            per_pass(traced, |p| at_reference(p, layers(p).frame_p99_ns) / 1e3),
        ),
        metric("shard.frames", "count", per_pass(traced, frames)),
        metric(
            "shard.msgs_per_frame",
            "count",
            per_pass(traced, |p| ratio(fill(p), frames(p))),
        ),
        metric(
            "shard.deliveries_per_sweep",
            "count",
            per_pass(traced, |p| ratio(sum(p, |t| t.delivered), sweeps(p))),
        ),
        metric(
            "shard.retry_frac",
            "frac",
            per_pass(traced, |p| ratio(sum(p, |t| t.retries), fill(p))),
        ),
        metric(
            "shard.marshal_us_per_frame",
            "us",
            per_pass(traced, |p| {
                ratio(at_reference(p, marshal(&layers(p))) / 1e3, frames(p))
            }),
        ),
        metric(
            "route.us_per_frame",
            "us",
            per_pass(traced, |p| {
                ratio(at_reference(p, layers(p).route_ns) / 1e3, frames(p))
            }),
        ),
        metric(
            "netlist.sweep_us",
            "us",
            per_pass(traced, |p| {
                ratio(at_reference(p, layers(p).sweep_ns) / 1e3, sweeps(p))
            }),
        ),
        metric(
            "netlist.sweeps_per_frame",
            "count",
            per_pass(traced, |p| ratio(sweeps(p), frames(p))),
        ),
        metric(
            "netlist.lane_util",
            "frac",
            per_pass(traced, |p| {
                ratio(sum(p, |t| t.cycles), sweeps(p) * netlist::WORD_BITS as f64)
            }),
        ),
        metric("netlist.insns", "count", vec![insns as f64]),
        metric(
            "tiers.forward_ns",
            "ns",
            per_pass(traced, |p| {
                ratio(at_reference(p, layers(p).forward_ns), p.counters.forwards as f64)
            }),
        ),
        metric(
            "tiers.forwards_per_msg",
            "count",
            per_pass(traced, |p| {
                ratio(p.counters.forwards as f64, p.counters.delivered as f64)
            }),
        ),
        metric(
            "tiers.stall_frac",
            "frac",
            per_pass(traced, |p| {
                let c = &p.counters;
                ratio(c.stalls as f64, (c.forwards + c.stalls) as f64)
            }),
        ),
    ];
    for tier in 0..3 {
        let tier_counters = move |p: &Pass| p.counters.tiers.get(tier).cloned().unwrap_or_default();
        metrics.push(metric(
            &format!("tiers.t{tier}.frame_us"),
            "us",
            per_pass(traced, |p| {
                let ns = layers(p).tier_frame_ns.get(tier).copied().unwrap_or(0);
                ratio(at_reference(p, ns) / 1e3, tier_counters(p).frames as f64)
            }),
        ));
        metrics.push(metric(
            &format!("tiers.t{tier}.msgs_per_frame"),
            "count",
            per_pass(traced, |p| {
                let t = tier_counters(p);
                ratio(t.offered as f64, t.frames as f64)
            }),
        ));
    }
    metrics.extend([
        metric(
            "setup.build_s",
            "s",
            setups.iter().map(|s| s.build_s).collect(),
        ),
        metric(
            "setup.compile_s",
            "s",
            setups.iter().map(|s| s.compile_s).collect(),
        ),
        share("share.decode", |l| l.decode_ns),
        share("share.submit", |l| l.submit_ns),
        share("share.route", |l| l.route_ns),
        share("share.sweep", |l| l.sweep_ns),
        share("share.marshal", marshal),
        share("share.forward", |l| l.forward_ns + l.stall_ns),
        share("share.idle", |l| l.idle_ns),
        share("share.harness", |l| l.harness_ns),
        metric(
            "layers.unaccounted_frac",
            "frac",
            per_pass(traced, |p| {
                let accounted = layers(p).accounted_ns() as f64;
                ratio(p.wall_ns as f64 - accounted, p.wall_ns as f64)
            }),
        ),
    ]);
    metrics
}

/// The process's resident-set high-water mark (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The header line's description of the host and build.
pub fn host_json(plan: &Plan) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cores\":{cores},\"simd\":\"{}\",\"git\":\"{}\",\"rustc\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\"trace\":{}}}",
        simd_level(),
        git_revision(),
        env!("PERFBENCH_RUSTC"),
        plan.workload.name(),
        plan.seed,
        u8::from(plan.traced)
    )
}

fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "none"
}

/// The checked-out revision, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The header line: host, the reference kernel's time and the passes'
/// host-speed factors, per-metric median and quartiles over the run's
/// samples, and the deterministic counters with their checksum.
pub fn header_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let (q1, med, q3) = quartiles(&m.samples);
            let values: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
            format!(
                "\"{}\":{{\"unit\":\"{}\",\"samples\":{},\"median\":{},\"q1\":{},\"q3\":{},\"values\":[{}]}}",
                m.name,
                m.unit,
                m.samples.len(),
                num(med),
                num(q1),
                num(q3),
                values.join(",")
            )
        })
        .collect();
    let counters = report.counters.to_json();
    let (q1, med, q3) = quartiles(&report.scales);
    format!(
        "{{\"host\":{},\"reference_ns\":{},\"scale\":{{\"median\":{},\"q1\":{},\"q3\":{}}},\"passes\":{},\"latency_samples_per_pass\":{},\"summary\":{{{}}},\"counters_fnv1a\":\"{:016x}\",\"counters\":{}}}",
        host_json(&report.plan),
        num(reference::REFERENCE_NS),
        num(med),
        num(q1),
        num(q3),
        report.passes,
        report.latency_samples,
        metrics.join(","),
        fabric::trace::fnv1a(counters.as_bytes()),
        counters
    )
}

/// The result line: whether every check held, messages attempted,
/// checks failed, and every metric with its unit.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value()),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

/// A JSON number with every digit the value has.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}
