//! Differential test of the frame-transport kernel against the
//! bit-serial reference.
//!
//! `Shard::run_frame` and `switchsim::FrameEngine::run` both carry
//! payloads through the compiled datapath with `switchsim::FrameKernel`,
//! which sweeps a whole frame in the widest lane groups that fit and
//! marshals payloads a 64-bit word at a time. `switchsim::simulate_frame`
//! moves one bit per wire per cycle through the routing table. Every
//! delivery must agree on output wire, message id and bytes.
//!
//! Payload lengths {0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65} bytes cover
//! empty frames, frames of 1, 4 and 8 words (one lane group each), word
//! counts that split into several groups (5 = 4 + 1, 9 = 8 + 1), ragged
//! last words, and lengths mixed inside one frame. The shard runs are
//! repeated with each chip-fault mode injected, against the reference
//! routed through `FaultySwitch`.

use std::sync::Arc;

use concentrator::columnsort_switch::ColumnsortSwitch;
use concentrator::faults::{ChipFault, FaultMode, FaultySwitch};
use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
use concentrator::StagedSwitch;
use fabric::{FrameRun, RetryBudget, Shard};
use switchsim::{simulate_frame, FrameEngine, FrameOutcome, Message};

const LENGTHS: [usize; 11] = [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65];

fn switches() -> Vec<Arc<StagedSwitch>> {
    vec![
        Arc::new(
            RevsortSwitch::new(64, 32, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        ),
        Arc::new(
            RevsortSwitch::new(16, 12, RevsortLayout::TwoDee)
                .staged()
                .clone(),
        ),
        Arc::new(ColumnsortSwitch::new(8, 4, 20).staged().clone()),
    ]
}

/// xorshift64: deterministic payloads and offered sets.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// The frames to compare: for every length, one frame where every
/// message has it, then frames whose messages draw lengths from the
/// whole set. About 3 in 4 inputs are offered, so the `m < n` switches
/// also see congestion losers.
fn frames(n: usize, rng: &mut Rng) -> Vec<Vec<Message>> {
    let mut next_id = 0u64;
    let mut frame = |rng: &mut Rng, length: &mut dyn FnMut(&mut Rng) -> usize| {
        let mut offered = Vec::new();
        for source in 0..n {
            if rng.below(4) == 0 {
                continue;
            }
            let payload: Vec<u8> = (0..length(rng)).map(|_| rng.next() as u8).collect();
            next_id += 1;
            offered.push(Message::new(next_id, source, payload));
        }
        offered
    };
    let mut out = Vec::new();
    for len in LENGTHS {
        out.push(frame(rng, &mut |_| len));
    }
    for _ in 0..12 {
        out.push(frame(rng, &mut |rng| LENGTHS[rng.below(LENGTHS.len())]));
    }
    out
}

/// 64-cycle words a frame of `offered` transports.
fn words(offered: &[Message]) -> u64 {
    offered
        .iter()
        .map(|m| m.payload.len().div_ceil(8))
        .max()
        .unwrap_or(0) as u64
}

/// `(output, id, bytes)` of every delivery, in output order.
fn reference_deliveries(reference: &FrameOutcome) -> Vec<(usize, u64, Vec<u8>)> {
    reference
        .delivered
        .iter()
        .map(|(out, m)| (*out, m.id, m.payload.to_vec()))
        .collect()
}

/// Offer `offered` to `shard` as one frame (budget 0, so losers drop)
/// and check it against the reference outcome.
fn check_shard_frame(shard: &mut Shard, offered: &[Message], reference: &FrameOutcome, what: &str) {
    let sweeps = shard.metrics.sweeps;
    for msg in offered {
        shard.accept(msg.clone());
    }
    let run: FrameRun = shard.run_frame();
    let got: Vec<(usize, u64, Vec<u8>)> = run
        .delivered
        .iter()
        .map(|d| (d.output, d.message.id, d.message.payload.to_vec()))
        .collect();
    assert_eq!(got, reference_deliveries(reference), "{what}: deliveries");
    let mut dropped: Vec<u64> = run.dropped.iter().map(|m| m.id).collect();
    let mut unrouted: Vec<u64> = reference.unrouted.iter().map(|m| m.id).collect();
    dropped.sort_unstable();
    unrouted.sort_unstable();
    assert_eq!(dropped, unrouted, "{what}: losers");
    assert_eq!(
        shard.pending_len(),
        0,
        "{what}: budget 0 leaves nothing queued"
    );
    assert_eq!(
        shard.metrics.sweeps - sweeps,
        words(offered),
        "{what}: sweeps count 64-cycle words"
    );
}

#[test]
fn shard_and_engine_match_bit_serial_reference() {
    let mut rng = Rng(0x0F12_A3E5_77C1_D00D);
    for switch in switches() {
        let mut shard = Shard::new(0, Arc::clone(&switch), RetryBudget::limited(0));
        let mut engine = FrameEngine::new(&switch);
        for (f, offered) in frames(switch.n, &mut rng).iter().enumerate() {
            let what = format!("{} frame {f}", switch.name);
            let reference = simulate_frame(&*switch, offered);
            assert!(reference.payloads_intact(offered), "{what}: reference");
            let sweeps = engine.sweeps() as u64;
            assert_eq!(engine.run(offered), reference, "{what}: engine");
            assert_eq!(engine.sweeps() as u64 - sweeps, words(offered), "{what}");
            check_shard_frame(&mut shard, offered, &reference, &what);
        }
    }
}

#[test]
fn faulted_shard_matches_faulty_reference() {
    let mut rng = Rng(0xFA17_ED5E_ED00_0001);
    for switch in switches() {
        let last_stage = switch.stages.len() - 1;
        for mode in [
            FaultMode::StuckInvalid,
            FaultMode::StuckValid,
            FaultMode::Inverted,
        ] {
            for faults in [
                vec![ChipFault {
                    stage: 0,
                    chip: 0,
                    mode,
                }],
                vec![
                    ChipFault {
                        stage: 0,
                        chip: 1,
                        mode,
                    },
                    ChipFault {
                        stage: last_stage,
                        chip: switch.stages[last_stage].chip_count - 1,
                        mode,
                    },
                ],
            ] {
                let faulty = FaultySwitch::new(Arc::clone(&switch), faults.clone());
                let mut shard = Shard::new(0, Arc::clone(&switch), RetryBudget::limited(0));
                shard.set_faults(faults.clone());
                for (f, offered) in frames(switch.n, &mut rng).iter().enumerate() {
                    let what = format!("{} {faults:?} frame {f}", switch.name);
                    let reference = simulate_frame(&faulty, offered);
                    check_shard_frame(&mut shard, offered, &reference, &what);
                }
            }
        }
    }
}
