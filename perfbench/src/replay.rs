//! One replay pass: decode a CTRC trace tick by tick on one thread and
//! drive it through the public serving cores, checking every delivery.
//!
//! A tick is `TraceCursor::next_frame`, then submission (hand-backs
//! from earlier ticks re-offered first), then one worker step per worker
//! (in the tree, a worker first forwards its held egress, then runs at
//! most one frame). The trace offers on schedule whatever the backlog;
//! the next tick starts when the previous tick's frames have returned.
//!
//! A traced pass also times each layer from outside, by wrapping the
//! calls into it, and replays every executed frame's route and sweeps
//! on the same switch to split frame time into route, sweep and the
//! rest. Probe time is subtracted from the pass's wall time.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use concentrator::spec::ConcentratorSwitch;
use concentrator::{Elaboration, StagedSwitch};
use fabric::trace::{payload_for, TraceCursor, TraceReader};
use fabric::{FabricConfig, FrameRun, Message, ServiceCore, Shard, SubmitStep, WorkerStep};
use netlist::{EvalScratch, WORD_BITS};
use tiers::{tree_ledger, TierCore, TierStep, TierSubmit, TierTopology};

use crate::stats::nearest_rank;

/// Failure descriptions kept per pass (the count is always exact).
const KEPT_FAILURES: usize = 8;

/// Per-tier deterministic counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Frames executed.
    pub frames: u64,
    /// 64-lane datapath sweeps.
    pub sweeps: u64,
    /// Messages offered to the switch across all frames (frame fill).
    pub offered: u64,
    /// Messages the tier's frames delivered.
    pub delivered: u64,
    /// Congestion losers re-queued.
    pub retries: u64,
    /// Payload bit-cycles streamed (longest payload per frame).
    pub cycles: u64,
}

/// Everything a pass counts. A pure function of the trace bytes and the
/// program: two passes over one trace must produce equal counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Trace records.
    pub records: u64,
    /// Messages the cursor produced (records minus folds).
    pub generated: u64,
    /// Records folded away by user-space wire collisions.
    pub folds: u64,
    /// Virtual ticks replayed, drain excluded.
    pub ticks: u64,
    /// Payload-verified deliveries out of the system.
    pub delivered: u64,
    /// Refused at admission.
    pub rejected: u64,
    /// Shed from full rings.
    pub shed: u64,
    /// Dropped after exhausting the retry budget.
    pub retry_dropped: u64,
    /// Deliveries whose id or payload was wrong.
    pub mismatches: u64,
    /// Offers (fresh or re-offered) submitted.
    pub offers: u64,
    /// Offers handed back by a full ring.
    pub handbacks: u64,
    /// Messages moved onto a downstream tier.
    pub forwards: u64,
    /// Forward steps that found no downstream credit.
    pub stalls: u64,
    /// Per tier, leaf first (one entry for a lone fabric).
    pub tiers: Vec<TierCounters>,
    /// Exact histogram of each delivery's sojourn: frames from
    /// acceptance through the delivering frame, summed over tiers
    /// (`Delivery::waited_frames + 1` per tier).
    pub sojourn: BTreeMap<u64, u64>,
}

impl Counters {
    /// Counted losses, payload mismatches included.
    pub fn lost(&self) -> u64 {
        self.rejected + self.shed + self.retry_dropped + self.mismatches
    }

    /// Exact p-th percentile (nearest rank) of the sojourn in frames.
    pub fn sojourn_percentile(&self, p: f64) -> u64 {
        let total: u64 = self.sojourn.values().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&frames, &count) in &self.sojourn {
            seen += count;
            if seen >= rank {
                return frames;
            }
        }
        unreachable!("rank is at most the total")
    }

    /// Canonical JSON, for the determinism gate and the header line.
    pub fn to_json(&self) -> String {
        let tiers: Vec<String> = self
            .tiers
            .iter()
            .map(|t| {
                format!(
                    "{{\"frames\":{},\"sweeps\":{},\"offered\":{},\"delivered\":{},\"retries\":{},\"cycles\":{}}}",
                    t.frames, t.sweeps, t.offered, t.delivered, t.retries, t.cycles
                )
            })
            .collect();
        let sojourn: Vec<String> = self
            .sojourn
            .iter()
            .map(|(w, c)| format!("[{w},{c}]"))
            .collect();
        format!(
            "{{\"records\":{},\"generated\":{},\"folds\":{},\"ticks\":{},\"delivered\":{},\"rejected\":{},\"shed\":{},\"retry_dropped\":{},\"mismatches\":{},\"offers\":{},\"handbacks\":{},\"forwards\":{},\"stalls\":{},\"tiers\":[{}],\"sojourn\":[{}]}}",
            self.records,
            self.generated,
            self.folds,
            self.ticks,
            self.delivered,
            self.rejected,
            self.shed,
            self.retry_dropped,
            self.mismatches,
            self.offers,
            self.handbacks,
            self.forwards,
            self.stalls,
            tiers.join(","),
            sojourn.join(",")
        )
    }
}

/// Nanoseconds per layer in a traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `TraceCursor::next_frame`.
    pub decode_ns: u64,
    /// Submission calls into the serving cores.
    pub submit_ns: u64,
    /// Worker steps that returned a frame.
    pub frame_ns: u64,
    /// Per tier, worker steps that returned a frame.
    pub tier_frame_ns: Vec<u64>,
    /// Nearest-rank p50 of frame step durations.
    pub frame_p50_ns: u64,
    /// Nearest-rank p99 of frame step durations.
    pub frame_p99_ns: u64,
    /// Route replays of every executed frame.
    pub route_ns: u64,
    /// Sweep replays of every executed frame.
    pub sweep_ns: u64,
    /// Steps that forwarded a message downstream.
    pub forward_ns: u64,
    /// Steps that found the downstream link without credit.
    pub stall_ns: u64,
    /// Steps that found nothing to do (or finished).
    pub idle_ns: u64,
    /// The benchmark's own work: delivery checks, submit stamps.
    pub harness_ns: u64,
    /// Probe replays, subtracted from the wall time.
    pub probe_ns: u64,
}

impl Layers {
    /// Time the layers account for.
    pub fn accounted_ns(&self) -> u64 {
        self.decode_ns
            + self.submit_ns
            + self.frame_ns
            + self.forward_ns
            + self.stall_ns
            + self.idle_ns
            + self.harness_ns
    }
}

/// The outcome of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Deterministic counters.
    pub counters: Counters,
    /// Replay wall time, decode through the last delivery, probes
    /// excluded.
    pub wall_ns: u64,
    /// Main-thread on-CPU time over the same interval (probes included
    /// in a traced pass, which reports no CPU figure).
    pub cpu_ns: u64,
    /// Deliveries timed: tick submission → return of the delivering frame.
    pub latency_samples: usize,
    /// Nearest-rank p50 of those latencies, ns.
    pub latency_p50_ns: u64,
    /// Nearest-rank p99 of those latencies, ns.
    pub latency_p99_ns: u64,
    /// Exact number of failed checks.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Layer times, in a traced pass.
    pub layers: Option<Layers>,
    /// Host-speed factor for this pass's times (see `reference`); 1
    /// until the run measures it.
    pub scale: f64,
}

/// The trace one pass replays.
pub struct TraceInput<'a> {
    /// CTRC bytes.
    pub bytes: &'a [u8],
    /// Records in the trace (message ids run below this).
    pub records: u64,
    /// Ids the trace lowers onto.
    pub wires: usize,
    /// Payload bytes of every message.
    pub payload_bytes: usize,
}

/// Checks every delivery out of the system: a known id, delivered once,
/// carrying `payload_for(id, bytes)`.
pub struct Verifier {
    bytes: usize,
    seen: Vec<bool>,
    failed: u64,
    failures: Vec<String>,
}

impl Verifier {
    /// A verifier for message ids below `ids`, each `bytes` long.
    pub fn new(ids: u64, bytes: usize) -> Verifier {
        Verifier {
            bytes,
            seen: vec![false; ids as usize],
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Check one delivery; `true` if it is a correct first delivery.
    pub fn deliver(&mut self, id: u64, payload: &[u8]) -> bool {
        let Some(seen) = self.seen.get_mut(id as usize) else {
            self.fail(format!("delivery of unknown message id {id}"));
            return false;
        };
        if *seen {
            self.fail(format!("message {id} delivered twice"));
            return false;
        }
        *seen = true;
        if payload != payload_for(id, self.bytes).as_slice() {
            self.fail(format!("message {id} delivered a wrong payload"));
            return false;
        }
        true
    }

    /// Record a failed check that is not a delivery.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }

    /// Failed checks so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// Replays one frame's route and sweeps on the switch that ran it.
struct Probe {
    switch: Arc<StagedSwitch>,
    elab: Arc<Elaboration>,
    scratch: EvalScratch,
    word_in: Vec<u64>,
    word_out: Vec<u64>,
    valid: Vec<bool>,
}

impl Probe {
    fn new(switch: &Arc<StagedSwitch>) -> Probe {
        let elab = switch.datapath_logic(false);
        Probe {
            switch: Arc::clone(switch),
            scratch: elab.compiled.scratch(),
            word_in: vec![0; elab.compiled.input_count()],
            word_out: vec![0; elab.compiled.output_count()],
            valid: vec![false; switch.n],
            elab,
        }
    }

    /// Time the frame's route, then its `sweeps` sweeps: `(route, sweep)` ns.
    fn replay(&mut self, frame: &FrameRun, cycles: u64, sweeps: u64) -> (u64, u64) {
        let n = self.switch.n;
        self.valid.fill(false);
        for message in &frame.offered {
            self.valid[message.source] = true;
        }
        let started = Instant::now();
        std::hint::black_box(self.switch.route(std::hint::black_box(&self.valid)));
        let route = started.elapsed().as_nanos() as u64;
        let mut sweep = 0;
        let mut cycle = 0;
        for _ in 0..sweeps {
            let lanes = (cycles - cycle).min(WORD_BITS as u64);
            let mask = if lanes == WORD_BITS as u64 {
                !0u64
            } else {
                (1u64 << lanes) - 1
            };
            for (i, &valid) in self.valid.iter().enumerate() {
                self.word_in[i] = if valid { mask } else { 0 };
                self.word_in[n + i] = if valid {
                    mask & 0x5555_5555_5555_5555
                } else {
                    0
                };
            }
            let started = Instant::now();
            self.elab.compiled.eval_word_into(
                std::hint::black_box(&self.word_in),
                &mut self.scratch,
                &mut self.word_out,
            );
            std::hint::black_box(&self.word_out);
            sweep += started.elapsed().as_nanos() as u64;
            cycle += lanes;
        }
        (route, sweep)
    }
}

/// State shared by the fabric and tree replays.
struct Run<'a> {
    traced: bool,
    start: Instant,
    cpu_start: u64,
    counters: Counters,
    layers: Layers,
    verifier: Verifier,
    /// Nanoseconds since `start` at which each id's tick was submitted.
    submitted_at: Vec<u64>,
    /// Sojourn frames so far at upstream tiers, by id.
    upstream: Vec<u64>,
    latency_ns: Vec<u64>,
    frame_ns: Vec<u64>,
    probes: Vec<Probe>,
    cursor: TraceCursor<&'a [u8]>,
}

impl<'a> Run<'a> {
    fn new(input: &TraceInput<'a>, switches: &[Arc<StagedSwitch>], traced: bool) -> Run<'a> {
        let reader = TraceReader::open(input.bytes).expect("the benchmark encodes its own traces");
        let ids = input.records as usize;
        let probes = if traced {
            switches.iter().map(Probe::new).collect()
        } else {
            Vec::new()
        };
        let layers = Layers {
            tier_frame_ns: vec![0; switches.len()],
            ..Layers::default()
        };
        let counters = Counters {
            records: input.records,
            tiers: vec![TierCounters::default(); switches.len()],
            ..Counters::default()
        };
        Run {
            traced,
            counters,
            layers,
            verifier: Verifier::new(input.records, input.payload_bytes),
            submitted_at: vec![0; ids],
            upstream: vec![0; if switches.len() > 1 { ids } else { 0 }],
            latency_ns: Vec::new(),
            frame_ns: Vec::new(),
            probes,
            cursor: TraceCursor::new(reader, input.wires),
            cpu_start: cpu_ns(),
            start: Instant::now(),
        }
    }

    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Run `f`, adding its duration to the layer `slot` picks when traced.
    fn span<T>(&mut self, slot: fn(&mut Layers) -> &mut u64, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let started = Instant::now();
        let out = f();
        *slot(&mut self.layers) += started.elapsed().as_nanos() as u64;
        out
    }

    /// Decode the next tick's frame.
    fn decode(&mut self) -> Option<(u64, Vec<Message>)> {
        let started = self.traced.then(Instant::now);
        let frame = match self.cursor.next_frame() {
            Ok(frame) => frame,
            Err(err) => {
                self.verifier.fail(format!("trace decode failed: {err}"));
                None
            }
        };
        if let Some(started) = started {
            self.layers.decode_ns += started.elapsed().as_nanos() as u64;
        }
        if let Some((_, batch)) = &frame {
            self.counters.generated += batch.len() as u64;
        }
        frame
    }

    /// Stamp a tick's arrivals with their submission time.
    fn stamp(&mut self, arrivals: &[Message]) {
        let started = self.traced.then(Instant::now);
        let now = self.now();
        for message in arrivals {
            if let Some(slot) = self.submitted_at.get_mut(message.id as usize) {
                *slot = now;
            }
        }
        self.counters.offers += arrivals.len() as u64;
        if let Some(started) = started {
            self.layers.harness_ns += started.elapsed().as_nanos() as u64;
        }
    }

    /// Account one executed frame of tier `tier` that took `took` ns
    /// and returned at `returned` (ns since start).
    fn on_frame(&mut self, tier: usize, frame: &FrameRun, took: u64, returned: u64, spine: bool) {
        let cycles = frame
            .offered
            .iter()
            .map(Message::bit_len)
            .max()
            .unwrap_or(0) as u64;
        let sweeps = cycles.div_ceil(WORD_BITS as u64);
        let counters = &mut self.counters.tiers[tier];
        counters.frames += 1;
        counters.sweeps += sweeps;
        counters.offered += frame.offered.len() as u64;
        counters.delivered += frame.delivered.len() as u64;
        counters.cycles += cycles;
        let started = self.traced.then(Instant::now);
        for delivery in &frame.delivered {
            let id = delivery.message.id;
            if !spine {
                if let Some(upstream) = self.upstream.get_mut(id as usize) {
                    *upstream += delivery.waited_frames + 1;
                }
                continue;
            }
            if !self.verifier.deliver(id, &delivery.message.payload) {
                self.counters.mismatches += 1;
                continue;
            }
            self.counters.delivered += 1;
            let upstream = self.upstream.get(id as usize).copied().unwrap_or(0);
            *self
                .counters
                .sojourn
                .entry(upstream + delivery.waited_frames + 1)
                .or_insert(0) += 1;
            self.latency_ns
                .push(returned.saturating_sub(self.submitted_at[id as usize]));
        }
        if let Some(started) = started {
            self.layers.harness_ns += started.elapsed().as_nanos() as u64;
            self.layers.frame_ns += took;
            self.layers.tier_frame_ns[tier] += took;
            self.frame_ns.push(took);
            let probing = Instant::now();
            let (route, sweep) = self.probes[tier].replay(frame, cycles, sweeps);
            self.layers.route_ns += route;
            self.layers.sweep_ns += sweep;
            self.layers.probe_ns += probing.elapsed().as_nanos() as u64;
        }
    }

    /// Close the pass: cross-check counters against the shards' own
    /// metrics and the ledger, and package the result.
    fn finish(mut self, shards: &[(usize, &Shard)]) -> Pass {
        let wall = self.now();
        let cpu = cpu_ns().saturating_sub(self.cpu_start);
        for (tier, counters) in self.counters.tiers.iter_mut().enumerate() {
            let (mut frames, mut sweeps) = (0, 0);
            for (_, shard) in shards.iter().filter(|(t, _)| *t == tier) {
                frames += shard.metrics.frames;
                sweeps += shard.metrics.sweeps;
                counters.retries += shard.metrics.retries;
            }
            if (frames, sweeps) != (counters.frames, counters.sweeps) {
                self.verifier.fail(format!(
                    "tier {tier}: shards report {frames} frames / {sweeps} sweeps, replay saw {} / {}",
                    counters.frames, counters.sweeps
                ));
            }
        }
        let c = &mut self.counters;
        c.folds = c.records - c.generated;
        if c.delivered + c.lost() != c.generated {
            let what = format!(
                "{} generated but {} delivered + {} lost",
                c.generated,
                c.delivered,
                c.lost()
            );
            self.verifier.fail(what);
        }
        // Percentiles now, so a pass keeps no per-message samples and
        // memory does not grow with the number of passes in a run.
        self.latency_ns.sort_unstable();
        self.frame_ns.sort_unstable();
        self.layers.frame_p50_ns = nearest_rank(&self.frame_ns, 50.0);
        self.layers.frame_p99_ns = nearest_rank(&self.frame_ns, 99.0);
        let layers = self.traced.then_some(self.layers);
        let probe_ns = layers.as_ref().map_or(0, |l| l.probe_ns);
        Pass {
            counters: self.counters,
            wall_ns: wall.saturating_sub(probe_ns).max(1),
            cpu_ns: cpu,
            latency_samples: self.latency_ns.len(),
            latency_p50_ns: nearest_rank(&self.latency_ns, 50.0),
            latency_p99_ns: nearest_rank(&self.latency_ns, 99.0),
            failed: self.verifier.failed,
            failures: self.verifier.failures,
            layers,
            scale: 1.0,
        }
    }
}

/// Replay one pass through a single fabric: one [`ServiceCore`] and one
/// `WorkerCore`.
pub fn replay_fabric(
    switch: &Arc<StagedSwitch>,
    config: FabricConfig,
    input: &TraceInput,
    traced: bool,
) -> Pass {
    let core = ServiceCore::new(config);
    let mut worker = core.worker(0, Arc::clone(switch));
    let mut run = Run::new(input, std::slice::from_ref(switch), traced);
    let mut held: VecDeque<(Message, usize)> = VecDeque::new();
    let mut next = run.decode();
    let mut tick = 0u64;
    loop {
        let quiet = held.is_empty() && core.in_flight() == 0;
        match &next {
            None if quiet => break,
            Some((due, _)) if quiet && *due > tick => tick = *due,
            _ => {}
        }
        let arrivals = take_due(&mut run, &mut next, tick);
        run.stamp(&arrivals);
        let retries = std::mem::take(&mut held);
        run.counters.offers += retries.len() as u64;
        let blocked = run.span(
            |l| &mut l.submit_ns,
            || {
                let mut blocked: VecDeque<(Message, usize)> = VecDeque::new();
                for (message, shard) in retries {
                    if let SubmitStep::Blocked { message, shard } =
                        core.retry_submit(message, shard)
                    {
                        blocked.push_back((message, shard));
                    }
                }
                if !arrivals.is_empty() {
                    blocked.extend(core.try_submit_batch(arrivals).blocked);
                }
                blocked
            },
        );
        run.counters.handbacks += blocked.len() as u64;
        held = blocked;
        step_fabric(&mut run, &mut worker);
        tick += 1;
    }
    run.counters.ticks = tick;
    core.close();
    if !matches!(worker.step(), WorkerStep::Done) {
        run.verifier
            .fail("fabric worked after a quiet close".to_string());
    }
    let snapshot = core.snapshot();
    let totals = snapshot.totals();
    run.counters.rejected = totals.rejected;
    run.counters.shed = totals.shed;
    run.counters.retry_dropped = totals.retry_dropped;
    if !snapshot.conserved() || snapshot.in_flight != 0 {
        run.verifier
            .fail(format!("fabric ledger does not hold at drain: {totals:?}"));
    }
    if totals.delivered != run.counters.delivered + run.counters.mismatches {
        run.verifier.fail(format!(
            "fabric delivered {} but the replay saw {}",
            totals.delivered,
            run.counters.delivered + run.counters.mismatches
        ));
    }
    run.finish(&[(0, worker.shard())])
}

fn step_fabric(run: &mut Run, worker: &mut fabric::WorkerCore) {
    let started = Instant::now();
    let step = worker.step();
    let took = started.elapsed().as_nanos() as u64;
    match step {
        WorkerStep::Frame(frame) => {
            let returned = run.now();
            run.on_frame(0, &frame, took, returned, true);
        }
        WorkerStep::Idle | WorkerStep::Done => {
            if run.traced {
                run.layers.idle_ns += took;
            }
        }
    }
}

/// Take the pending frame if it is due at `tick`, decoding the next.
fn take_due(run: &mut Run, next: &mut Option<(u64, Vec<Message>)>, tick: u64) -> Vec<Message> {
    if next.as_ref().is_some_and(|(due, _)| *due == tick) {
        let (_, batch) = next.take().expect("checked due");
        *next = run.decode();
        batch
    } else {
        Vec::new()
    }
}

/// Replay one pass through the tier tree: one [`TierCore`] and its
/// `TierWorker`s, stepped in `(tier, fabric, shard)` order.
pub fn replay_tree(topology: &TierTopology, input: &TraceInput, traced: bool) -> Pass {
    let core = TierCore::new(topology.clone());
    let mut workers = core.workers();
    let switches: Vec<Arc<StagedSwitch>> = topology
        .tiers
        .iter()
        .map(|spec| Arc::clone(&spec.switch))
        .collect();
    let mut run = Run::new(input, &switches, traced);
    let mut held: VecDeque<(Message, usize, usize)> = VecDeque::new();
    let mut next = run.decode();
    let mut tick = 0u64;
    loop {
        let quiet = held.is_empty()
            && core.in_flight() == 0
            && workers.iter().all(|worker| worker.held() == 0);
        match &next {
            None if quiet => break,
            Some((due, _)) if quiet && *due > tick => tick = *due,
            _ => {}
        }
        let arrivals = take_due(&mut run, &mut next, tick);
        run.stamp(&arrivals);
        let retries = std::mem::take(&mut held);
        run.counters.offers += retries.len() as u64;
        let blocked = run.span(
            |l| &mut l.submit_ns,
            || {
                let mut blocked: VecDeque<(Message, usize, usize)> = VecDeque::new();
                let offers = retries
                    .into_iter()
                    .map(|(message, leaf, shard)| core.retry_submit(message, leaf, shard))
                    .chain(arrivals.into_iter().map(|message| core.try_submit(message)));
                for offer in offers {
                    if let TierSubmit::Blocked {
                        message,
                        leaf,
                        shard,
                    } = offer
                    {
                        blocked.push_back((message, leaf, shard));
                    }
                }
                blocked
            },
        );
        run.counters.handbacks += blocked.len() as u64;
        held = blocked;
        for worker in workers.iter_mut() {
            let spine = worker.is_spine();
            let tier = worker.tier();
            loop {
                let started = Instant::now();
                let step = worker.step();
                let took = started.elapsed().as_nanos() as u64;
                match step {
                    TierStep::Frame(frame) => {
                        let returned = run.now();
                        run.on_frame(tier, &frame, took, returned, spine);
                        break;
                    }
                    TierStep::Forwarded => {
                        run.counters.forwards += 1;
                        if run.traced {
                            run.layers.forward_ns += took;
                        }
                    }
                    TierStep::ForwardStalled => {
                        run.counters.stalls += 1;
                        if run.traced {
                            run.layers.stall_ns += took;
                        }
                        break;
                    }
                    TierStep::Idle | TierStep::Done => {
                        if run.traced {
                            run.layers.idle_ns += took;
                        }
                        break;
                    }
                }
            }
        }
        tick += 1;
    }
    run.counters.ticks = tick;
    for tier in 0..topology.depth() {
        core.close_tier(tier);
    }
    for worker in workers.iter_mut() {
        if !matches!(worker.step(), TierStep::Done) {
            run.verifier
                .fail("tree worked after a quiet close".to_string());
        }
    }
    let ledger = tree_ledger(&core, &workers);
    run.counters.rejected = ledger.rejected;
    run.counters.shed = ledger.shed;
    run.counters.retry_dropped = ledger.retry_dropped;
    if !ledger.holds() || ledger.in_flight != 0 || ledger.held != 0 {
        run.verifier
            .fail(format!("tree ledger does not hold at drain: {ledger:?}"));
    }
    if ledger.delivered != run.counters.delivered + run.counters.mismatches {
        run.verifier.fail(format!(
            "tree delivered {} but the replay saw {}",
            ledger.delivered,
            run.counters.delivered + run.counters.mismatches
        ));
    }
    let forwarded: u64 = workers.iter().map(|w| w.forwarded).sum();
    if forwarded != run.counters.forwards {
        run.verifier.fail(format!(
            "workers forwarded {forwarded}, the replay saw {}",
            run.counters.forwards
        ));
    }
    let shards: Vec<(usize, &Shard)> = workers.iter().map(|w| (w.tier(), w.shard())).collect();
    run.finish(&shards)
}

/// The main thread's on-CPU nanoseconds (`/proc/self/schedstat`), which
/// time spent descheduled on a shared host does not inflate.
pub fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}
