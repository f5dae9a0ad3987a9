//! One serving shard: a pending-request queue in front of one switch
//! instance, with a batching executor that packs requests into routing
//! frames and transports every payload through the switch's *compiled*
//! gate-level datapath with [`switchsim::FrameKernel`]: the whole frame
//! is one wide netlist call, its payload cycles swept as lanes of up to
//! 512 at a time and marshalled onto the rails a 64-bit word at a time.
//!
//! All shards of a fabric share one [`StagedSwitch`] (the switches are
//! stateless combinational logic), so the expensive elaborate-and-compile
//! step runs **once** through the switch's `concentrator::elab` cache and
//! every shard holds the same `Arc<Elaboration>`; what is per-shard is the
//! mutable state: the pending queue, the frame kernel's buffers and
//! scratch, the packing slots, and the metrics.

use std::collections::VecDeque;
use std::sync::Arc;

use concentrator::faults::{ChipFault, FaultySwitch};
use concentrator::spec::{ConcentratorKind, ConcentratorSwitch};
use concentrator::{Elaboration, StagedSwitch};
use netlist::CompiledNetlist;
use switchsim::{FrameKernel, Message};

use crate::config::{HealthPolicy, RetryBudget};
use crate::metrics::ShardMetrics;

/// A message waiting in a shard with its bookkeeping.
#[derive(Debug, Clone)]
struct Ticket {
    message: Message,
    /// Unsuccessful send attempts so far.
    attempts: usize,
    /// Shard frame counter when the message was accepted.
    born_frame: u64,
}

/// One delivered message with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Shard that served the request.
    pub shard: usize,
    /// Output wire the message arrived on.
    pub output: usize,
    /// The message, payload reassembled from the wire bits.
    pub message: Message,
    /// Frames waited from acceptance to delivery.
    pub waited_frames: u64,
}

/// What one executed frame did — returned so callers (and the equivalence
/// tests) can cross-check the batch against the single-frame reference.
#[derive(Debug, Clone, Default)]
pub struct FrameRun {
    /// The messages offered to the switch this frame (≤ 1 per input wire).
    pub offered: Vec<Message>,
    /// Deliveries completed this frame.
    pub delivered: Vec<Delivery>,
    /// Messages dropped this frame after exhausting their retry budget.
    pub dropped: Vec<Message>,
}

/// The degraded execution engine of a shard with injected chip faults:
/// the message-level faulty router (the routing oracle) and the
/// fault-compiled datapath overlay (the payload transport), which the
/// shard's frame kernel sweeps exactly as it sweeps the healthy netlist.
/// Derived from the switch's shared faultable elaboration; owning the
/// overlay here keeps the shared cache healthy-only.
struct FaultedEngine {
    router: FaultySwitch,
    compiled: CompiledNetlist,
}

/// A shard: pending queue + compiled-datapath batch executor + metrics.
pub struct Shard {
    id: usize,
    switch: Arc<StagedSwitch>,
    elab: Arc<Elaboration>,
    kernel: FrameKernel,
    /// Frame packing, one slot per input wire; empty between frames.
    slots: Vec<Option<Ticket>>,
    /// The setup cycle's valid pattern, rebuilt each frame.
    valid: Vec<bool>,
    pending: VecDeque<Ticket>,
    /// An empty queue whose capacity the next frame's packing reuses.
    spare: VecDeque<Ticket>,
    retry: RetryBudget,
    /// Frames this shard has executed (its local clock).
    clock: u64,
    /// Injected chip faults, when any (see [`Shard::set_faults`]).
    fault: Option<FaultedEngine>,
    health: HealthPolicy,
    /// Delivery-health EWMA against the analytic capacity bound.
    health_ewma: f64,
    quarantined: bool,
    /// Counters; public so the engine/service can fold in queue-side
    /// events (rejections, sheds) that never reach the shard proper.
    pub metrics: ShardMetrics,
}

impl Shard {
    /// Create shard `id` over the shared `switch`. The datapath
    /// elaboration comes from the switch's shared cache: the first shard
    /// pays the compile, the rest reuse it.
    pub fn new(id: usize, switch: Arc<StagedSwitch>, retry: RetryBudget) -> Shard {
        let elab = switch.datapath_logic(false);
        let kernel = FrameKernel::new(&elab.compiled);
        let slots = (0..switch.n).map(|_| None).collect();
        let metrics = ShardMetrics {
            health_milli: 1000,
            ..ShardMetrics::default()
        };
        Shard {
            id,
            switch,
            elab,
            kernel,
            slots,
            valid: Vec::new(),
            pending: VecDeque::new(),
            spare: VecDeque::new(),
            retry,
            clock: 0,
            fault: None,
            health: HealthPolicy::default(),
            health_ewma: 1.0,
            quarantined: false,
            metrics,
        }
    }

    /// Replace the health policy (builder style; the engine and service
    /// propagate [`crate::FabricConfig::health`] through this).
    pub fn with_health_policy(mut self, policy: HealthPolicy) -> Shard {
        policy.validate();
        self.health = policy;
        self
    }

    /// Shard id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Inject (or, with an empty set, clear) chip faults. The faulted
    /// engine is derived from the switch's shared faultable elaboration:
    /// routing goes through the message-level [`FaultySwitch`] reference
    /// and payload transport through a fault-compiled overlay of the
    /// tapped datapath, leaving the shared elaboration cache untouched.
    ///
    /// # Panics
    /// If a fault names a stage or chip the switch does not have.
    pub fn set_faults(&mut self, faults: Vec<ChipFault>) {
        self.metrics.faults_active = faults.len() as u64;
        if faults.is_empty() {
            self.fault = None;
            return;
        }
        let elab = self.switch.faultable_logic();
        let compiled = elab.compile_faulted(&faults);
        self.fault = Some(FaultedEngine {
            router: FaultySwitch::new(Arc::clone(&self.switch), faults),
            compiled,
        });
    }

    /// The chip faults currently injected (empty when healthy).
    pub fn active_faults(&self) -> &[ChipFault] {
        self.fault.as_ref().map_or(&[], |f| f.router.faults())
    }

    /// Whether the health monitor has quarantined this shard.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// The delivery-health EWMA (1.0 = meeting the capacity bound).
    pub fn health(&self) -> f64 {
        self.health_ewma
    }

    /// Messages waiting for a frame slot.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The switch this shard serves.
    pub fn switch(&self) -> &Arc<StagedSwitch> {
        &self.switch
    }

    /// Install a recompiled replacement switch — the worker-side half of
    /// the live swap protocol (see [`crate::reconfig`]). The caller (the
    /// worker core) invokes this only once its pending queue is empty, so
    /// every frame admitted under the old epoch has completed on the old
    /// switch; messages still in the ingress ring route on the new switch
    /// from their first frame. The replacement must cover the old input
    /// range (`n` may only grow) so no queued message's source wire
    /// disappears — that is what makes the swap zero-loss by construction.
    ///
    /// Installing clears any injected fault overlay: the faults were
    /// compiled against the *old* topology, and swapping in a
    /// fault-recompiled netlist is exactly how a quarantined shard is
    /// repaired. Health history likewise judged the old switch, so the
    /// EWMA restarts trusted and the existing hysteresis re-quarantines
    /// the shard only if the new switch underperforms.
    ///
    /// # Panics
    /// If the pending queue is non-empty, or the replacement's `n` is
    /// smaller than the old switch's.
    pub fn install_switch(&mut self, switch: Arc<StagedSwitch>) {
        assert!(
            self.pending.is_empty(),
            "shard {}: switch install requires an empty pending queue \
             (old-epoch frames must complete on the old switch first)",
            self.id
        );
        assert!(
            switch.n >= self.switch.n,
            "shard {}: replacement switch must cover the old input range \
             (new n = {} < old n = {})",
            self.id,
            switch.n,
            self.switch.n
        );
        self.elab = switch.datapath_logic(false);
        self.slots.resize_with(switch.n, || None);
        self.switch = switch;
        self.fault = None;
        self.metrics.faults_active = 0;
        self.health_ewma = 1.0;
        self.metrics.health_milli = 1000;
    }

    /// The analytic per-frame capacity bound this shard's health monitor
    /// judges frames against: `⌊α·m⌋` for a partial concentrator of
    /// guarantee `α` (Lemma 2's capacity floor), `m` otherwise, and at
    /// least 1. A healthy shard offered `k ≤ bound` messages in one frame
    /// delivers all `k`; the simulation harness's capacity oracle checks
    /// exactly this.
    pub fn capacity_bound(&self) -> u64 {
        let m = self.switch.m as f64;
        let alpha = match self.switch.kind {
            ConcentratorKind::Partial { alpha } => alpha,
            ConcentratorKind::Hyperconcentrator | ConcentratorKind::Perfect => 1.0,
        };
        ((alpha * m).floor() as u64).max(1)
    }

    /// Shard-local frame counter.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Accept a message into the pending queue. The caller has already
    /// applied admission control and backpressure; this always enqueues.
    pub fn accept(&mut self, message: Message) {
        assert!(
            message.source < self.switch.n,
            "message source {} out of range for n = {}",
            message.source,
            self.switch.n
        );
        self.pending.push_back(Ticket {
            message,
            attempts: 0,
            born_frame: self.clock,
        });
        self.metrics.max_pending = self.metrics.max_pending.max(self.pending.len() as u64);
    }

    /// Drop the oldest pending message (shed-oldest backpressure),
    /// returning it if the queue was non-empty. Counts as `shed`.
    pub fn shed_oldest(&mut self) -> Option<Message> {
        let ticket = self.pending.pop_front()?;
        self.metrics.shed += 1;
        Some(ticket.message)
    }

    /// Run one routing frame: pack pending messages onto free input wires
    /// (FIFO, at most one per wire), route, transport every payload
    /// through the compiled datapath, deliver winners, and re-queue or
    /// drop congestion losers per the retry budget.
    ///
    /// A shard with nothing pending executes nothing and returns an empty
    /// run (frames and sweeps only count real work).
    pub fn run_frame(&mut self) -> FrameRun {
        if self.pending.is_empty() {
            return FrameRun::default();
        }
        debug_assert!(self.slots.iter().all(Option::is_none));

        // Pack: claim input wires in FIFO order; conflicting tickets stay
        // queued (in order) for a later frame.
        let mut stay = std::mem::take(&mut self.spare);
        let mut batched = 0usize;
        for ticket in self.pending.drain(..) {
            let slot = &mut self.slots[ticket.message.source];
            if slot.is_none() {
                *slot = Some(ticket);
                batched += 1;
            } else {
                stay.push_back(ticket);
            }
        }
        self.spare = std::mem::replace(&mut self.pending, stay);
        debug_assert!(batched > 0);

        // Setup cycle: the valid bits establish the electrical paths —
        // through the faulty router when faults are injected, so the
        // routing oracle and the datapath degrade together.
        self.valid.clear();
        self.valid.extend(self.slots.iter().map(Option::is_some));
        let (routing, compiled) = match &self.fault {
            Some(faulted) => (faulted.router.route(&self.valid), &faulted.compiled),
            None => (self.switch.route(&self.valid), &self.elab.compiled),
        };

        // Payload cycles through the compiled datapath netlist (healthy
        // or fault overlay), the whole frame in one kernel call.
        let offered = self
            .slots
            .iter()
            .flatten()
            .map(|t| (t.message.source, &t.message.payload[..]));
        self.metrics.sweeps +=
            self.kernel
                .transport(compiled, offered, &routing.output_source) as u64;

        // Deliver winners with the payloads that arrived on their outputs.
        let mut run = FrameRun {
            offered: self
                .slots
                .iter()
                .flatten()
                .map(|t| t.message.clone())
                .collect(),
            ..FrameRun::default()
        };
        for (out, src) in routing.output_source.iter().enumerate() {
            if let Some(src) = src {
                let ticket = self.slots[*src]
                    .take()
                    .expect("routed inputs carry tickets");
                let payload = self.kernel.received(out, ticket.message.payload.len());
                let waited = self.clock - ticket.born_frame;
                self.metrics.delivered += 1;
                self.metrics.wait_frames.record(waited);
                run.delivered.push(Delivery {
                    shard: self.id,
                    output: out,
                    message: Message {
                        id: ticket.message.id,
                        source: ticket.message.source,
                        payload,
                    },
                    waited_frames: waited,
                });
            }
        }

        // Congestion losers: retry within budget (re-queued at the front,
        // preserving age order: walking the wires backwards, the lowest
        // wire ends up first), or drop.
        for slot in self.slots.iter_mut().rev() {
            let Some(mut ticket) = slot.take() else {
                continue;
            };
            ticket.attempts += 1;
            if self.retry.allows(ticket.attempts) {
                self.metrics.retries += 1;
                self.pending.push_front(ticket);
            } else {
                self.metrics.retry_dropped += 1;
                run.dropped.push(ticket.message);
            }
        }
        run.dropped.reverse();

        self.metrics.frames += 1;
        self.clock += 1;
        self.update_health(batched as u64, run.delivered.len() as u64);
        run
    }

    /// Fold one executed frame into the delivery-health EWMA and apply the
    /// quarantine state machine. The denominator is the analytic capacity
    /// bound: a partial concentrator of guarantee `α` owes `⌊α·m⌋`
    /// deliveries per saturated frame (Lemma 2), so congestion beyond the
    /// bound does not read as ill health — only faults do.
    fn update_health(&mut self, batched: u64, delivered: u64) {
        let expected = batched.min(self.capacity_bound()).max(1);
        let ratio = (delivered as f64 / expected as f64).min(1.0);
        self.health_ewma += self.health.alpha * (ratio - self.health_ewma);
        self.metrics.health_milli = (self.health_ewma * 1000.0).round() as u64;
        if self.metrics.frames >= self.health.min_frames {
            if !self.quarantined && self.health_ewma < self.health.quarantine_below {
                self.quarantined = true;
                self.metrics.quarantines += 1;
            } else if self.quarantined && self.health_ewma > self.health.recover_above {
                self.quarantined = false;
            }
        }
        if self.quarantined {
            self.metrics.quarantined_frames += 1;
        }
    }

    /// Run frames until the pending queue is empty (graceful drain),
    /// collecting deliveries. `max_frames` bounds the loop against a
    /// misconfigured switch that routes nothing.
    pub fn drain(&mut self, max_frames: u64) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        let mut frames = 0u64;
        while !self.pending.is_empty() {
            assert!(
                frames < max_frames,
                "shard {} failed to drain within {max_frames} frames",
                self.id
            );
            deliveries.extend(self.run_frame().delivered);
            frames += 1;
        }
        deliveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};

    fn test_switch() -> Arc<StagedSwitch> {
        Arc::new(
            RevsortSwitch::new(16, 8, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        )
    }

    #[test]
    fn delivers_packed_batch_with_intact_payloads() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        for src in [1usize, 4, 9] {
            shard.accept(Message::new(src as u64, src, vec![0xA0 | src as u8, 0x5C]));
        }
        let run = shard.run_frame();
        assert_eq!(run.offered.len(), 3);
        assert_eq!(run.delivered.len(), 3);
        for d in &run.delivered {
            assert_eq!(d.message.payload[0], 0xA0 | d.message.source as u8);
            assert_eq!(d.message.payload[1], 0x5C);
            assert_eq!(d.waited_frames, 0);
        }
        assert_eq!(shard.metrics.frames, 1);
        // 16 payload cycles fit in one 64-cycle word.
        assert_eq!(shard.metrics.sweeps, 1);
    }

    #[test]
    fn input_conflicts_wait_their_turn_in_fifo_order() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        shard.accept(Message::new(1, 3, vec![0x11]));
        shard.accept(Message::new(2, 3, vec![0x22]));
        shard.accept(Message::new(3, 3, vec![0x33]));
        let first = shard.run_frame();
        assert_eq!(first.offered.len(), 1, "one wire, one slot per frame");
        assert_eq!(first.delivered[0].message.id, 1);
        let second = shard.run_frame();
        assert_eq!(second.delivered[0].message.id, 2);
        assert_eq!(second.delivered[0].waited_frames, 1);
        let third = shard.run_frame();
        assert_eq!(third.delivered[0].message.id, 3);
        assert_eq!(shard.pending_len(), 0);
    }

    #[test]
    fn retry_budget_drops_persistent_losers() {
        // m = 4 ≪ n = 16: overload 12 inputs so some lose every frame.
        let switch = Arc::new(
            RevsortSwitch::new(16, 4, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        let mut shard = Shard::new(0, switch, RetryBudget::limited(0));
        for src in 0..12 {
            shard.accept(Message::new(src as u64, src, vec![src as u8]));
        }
        let run = shard.run_frame();
        assert_eq!(run.delivered.len() + run.dropped.len(), 12);
        assert!(!run.dropped.is_empty(), "budget 0 drops every loser");
        assert_eq!(shard.pending_len(), 0);
        assert_eq!(shard.metrics.retry_dropped as usize, run.dropped.len());
    }

    #[test]
    fn drain_empties_the_shard() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        for i in 0..40u64 {
            shard.accept(Message::new(i, (i % 16) as usize, vec![i as u8]));
        }
        let deliveries = shard.drain(1000);
        assert_eq!(deliveries.len(), 40);
        assert_eq!(shard.pending_len(), 0);
        assert_eq!(shard.metrics.delivered, 40);
    }

    #[test]
    fn idle_shard_does_no_work() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        let run = shard.run_frame();
        assert!(run.offered.is_empty());
        assert_eq!(shard.metrics.frames, 0);
        assert_eq!(shard.metrics.sweeps, 0);
    }

    use concentrator::faults::FaultMode;

    #[test]
    fn faulted_shard_degrades_and_accounts_every_message() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::limited(0));
        shard.set_faults(vec![ChipFault {
            stage: 0,
            chip: 0,
            mode: FaultMode::StuckInvalid,
        }]);
        assert_eq!(shard.active_faults().len(), 1);
        assert_eq!(shard.metrics.faults_active, 1);
        for src in 0..16 {
            shard.accept(Message::new(src as u64, src, vec![0x40 | src as u8]));
        }
        let run = shard.run_frame();
        assert_eq!(run.delivered.len() + run.dropped.len(), 16);
        assert!(
            !run.dropped.is_empty(),
            "a dead first-stage chip must cost messages"
        );
        // Winners still carry intact payloads through the faulted netlist.
        for d in &run.delivered {
            assert_eq!(d.message.payload[0], 0x40 | d.message.source as u8);
        }
    }

    #[test]
    fn health_quarantines_on_faults_and_recovers_after_repair() {
        // Offer only the faulted chip's column, under the bound: every
        // frame delivers zero of an expected four, so the EWMA collapses.
        let mut shard = Shard::new(0, test_switch(), RetryBudget::limited(0));
        shard.set_faults(vec![ChipFault {
            stage: 0,
            chip: 0,
            mode: FaultMode::StuckInvalid,
        }]);
        // TwoDee 16→8: stage 0 chip 0 serves matrix column 0.
        let dead: Vec<usize> = (0..16).filter(|i| i % 4 == 0).collect();
        let mut frames = 0;
        while !shard.is_quarantined() {
            assert!(frames < 100, "health monitor never quarantined");
            for &src in &dead {
                shard.accept(Message::new(src as u64, src, vec![1]));
            }
            shard.run_frame();
            frames += 1;
        }
        assert!(shard.health() < 0.7);
        assert!(shard.metrics.quarantines == 1);
        assert!(shard.metrics.quarantined_frames > 0);
        // Repair: clear the faults and the same traffic now lands, so the
        // EWMA climbs back over the recovery threshold.
        shard.set_faults(Vec::new());
        assert_eq!(shard.metrics.faults_active, 0);
        let mut frames = 0;
        while shard.is_quarantined() {
            assert!(frames < 100, "health monitor never recovered");
            for &src in &dead {
                shard.accept(Message::new(src as u64, src, vec![1]));
            }
            shard.run_frame();
            frames += 1;
        }
        assert!(shard.health() > 0.85);
        assert_eq!(shard.metrics.quarantines, 1, "no re-entry after recovery");
    }

    #[test]
    fn install_switch_serves_wider_traffic_and_clears_faults() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        shard.set_faults(vec![ChipFault {
            stage: 0,
            chip: 0,
            mode: FaultMode::StuckInvalid,
        }]);
        shard.accept(Message::new(1, 1, vec![0x5A]));
        shard.drain(100);
        let bigger = Arc::new(
            RevsortSwitch::new(64, 16, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        shard.install_switch(Arc::clone(&bigger));
        assert!(Arc::ptr_eq(shard.switch(), &bigger));
        assert!(shard.active_faults().is_empty());
        assert_eq!(shard.metrics.faults_active, 0);
        assert_eq!(shard.health(), 1.0);
        // Sources beyond the old n = 16 route on the new switch, payloads
        // intact through the freshly compiled datapath.
        for src in [3usize, 17, 45] {
            shard.accept(Message::new(src as u64, src, vec![0xC0 | src as u8]));
        }
        let run = shard.run_frame();
        assert_eq!(run.delivered.len(), 3);
        for d in &run.delivered {
            assert_eq!(d.message.payload[0], 0xC0 | d.message.source as u8);
        }
    }

    #[test]
    #[should_panic(expected = "empty pending queue")]
    fn install_with_old_epoch_backlog_is_refused() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        shard.accept(Message::new(1, 1, vec![1]));
        shard.install_switch(test_switch());
    }

    #[test]
    #[should_panic(expected = "cover the old input range")]
    fn install_of_a_narrower_switch_is_refused() {
        let mut shard = Shard::new(0, test_switch(), RetryBudget::UNLIMITED);
        let narrower = Arc::new(
            RevsortSwitch::new(4, 4, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        );
        shard.install_switch(narrower);
    }
}
