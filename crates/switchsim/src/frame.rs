//! One routing frame: setup cycle plus payload cycles.
//!
//! [`simulate_frame`] is the reference: it moves one bit per wire per
//! cycle through the switch's routing table. Everything else transports
//! payloads through the switch's *gate-level datapath netlist* with one
//! kernel, [`FrameKernel`]. The paths frozen at setup make every payload
//! cycle the same circuit evaluation with different data-rail bits, so
//! the kernel treats cycles as independent lanes: a frame whose longest
//! payload spans `w = ⌈cycles/64⌉` words goes through the compiled
//! netlist as one `w`-word call, swept in the widest lane groups that fit
//! (512 lanes for 64-byte payloads). Payloads are marshalled a word at a
//! time. [`FrameEngine`] (here) and the serving shards in `fabric` both
//! call the kernel.

use std::sync::Arc;

use bytes::Bytes;
use concentrator::spec::{ConcentratorSwitch, Routing};
use concentrator::{Elaboration, StagedSwitch};
use netlist::{CompiledNetlist, EvalScratch, WORD_BITS};

use crate::message::Message;

/// What happened to the offered messages in one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameOutcome {
    /// The established paths.
    pub routing: Routing,
    /// Messages delivered, with the output wire each arrived on. Payloads
    /// are reassembled from the cycle-by-cycle wire bits, so any routing
    /// inconsistency would corrupt them.
    pub delivered: Vec<(usize, Message)>,
    /// Messages that were valid at setup but got no path (congestion).
    pub unrouted: Vec<Message>,
}

/// Simulate one frame of bit-serial transmission through `switch`.
///
/// `offered` holds at most one message per input wire. The setup cycle
/// presents the valid bits; every subsequent cycle moves one payload bit of
/// every routed message along its frozen path; the receiver reassembles
/// payloads from the arriving bits.
///
/// # Panics
/// If two messages claim the same input wire or a source is out of range.
pub fn simulate_frame<S: ConcentratorSwitch + ?Sized>(
    switch: &S,
    offered: &[Message],
) -> FrameOutcome {
    let n = switch.inputs();
    let mut by_input: Vec<Option<&Message>> = vec![None; n];
    for msg in offered {
        assert!(msg.source < n, "message source {} out of range", msg.source);
        assert!(
            by_input[msg.source].is_none(),
            "two messages offered on input {}",
            msg.source
        );
        by_input[msg.source] = Some(msg);
    }

    // Setup cycle: valid bits establish the paths.
    let valid: Vec<bool> = by_input.iter().map(|m| m.is_some()).collect();
    let routing = switch.route(&valid);

    // Payload cycles: all frames carry the longest payload (shorter ones
    // idle-low afterwards, harmless for reassembly since lengths are known
    // to the receiver in this model).
    let cycles = offered.iter().map(Message::bit_len).max().unwrap_or(0);
    let m = switch.outputs();
    let mut received_bits: Vec<Vec<bool>> = vec![Vec::with_capacity(cycles); m];
    for cycle in 0..cycles {
        // One bit per input wire this cycle.
        for (out, src) in routing.output_source.iter().enumerate() {
            if let Some(src) = src {
                let msg = by_input[*src].expect("routing only routes valid inputs");
                let bit = if cycle < msg.bit_len() {
                    msg.bit(cycle)
                } else {
                    false
                };
                received_bits[out].push(bit);
            }
        }
    }

    // Reassemble deliveries.
    let mut delivered = Vec::new();
    for (out, src) in routing.output_source.iter().enumerate() {
        if let Some(src) = src {
            let original = by_input[*src].expect("routed inputs carry messages");
            let bits = &received_bits[out][..original.bit_len()];
            let payload = Message::payload_from_bits(bits);
            delivered.push((
                out,
                Message {
                    id: original.id,
                    source: original.source,
                    payload,
                },
            ));
        }
    }

    let unrouted = routing
        .unrouted_inputs(&valid)
        .map(|input| by_input[input].expect("unrouted inputs were valid").clone())
        .collect();

    FrameOutcome {
        routing,
        delivered,
        unrouted,
    }
}

/// The frame-transport kernel: carries every payload of one routed frame
/// through a compiled datapath netlist (`2n` inputs, valid rails then
/// data rails; `2m` outputs in the same order).
///
/// The valid rail of each offered input is all-ones over the frame's
/// payload cycles, the setup pattern frozen for the whole frame. Its data
/// rail is the payload itself: the wire is LSB-first per octet
/// ([`Message::bit`]), so data word `k` is `u64::from_le_bytes` of
/// payload bytes `8k..8k + 8`, zero-padded, and the delivered bytes are
/// `to_le_bytes` of the output words, truncated. The whole frame is one
/// [`CompiledNetlist::eval_words_into`] call. The input words, output
/// words and evaluation scratch persist across frames, so the kernel
/// allocates only the delivered payloads.
///
/// The kernel holds no netlist: each call names the one to sweep (a
/// healthy elaboration or a fault overlay), and the scratch is refitted
/// when that netlist's slot count changes.
#[derive(Debug)]
pub struct FrameKernel {
    scratch: EvalScratch,
    slots: usize,
    words_in: Vec<u64>,
    words_out: Vec<u64>,
    /// 64-cycle words per rail in the last transported frame.
    words: usize,
    /// Switch outputs `m` of the last transported frame.
    outputs: usize,
}

impl FrameKernel {
    /// A kernel with scratch sized for `compiled`.
    pub fn new(compiled: &CompiledNetlist) -> FrameKernel {
        FrameKernel {
            scratch: compiled.scratch(),
            slots: compiled.slot_count(),
            words_in: Vec::new(),
            words_out: Vec::new(),
            words: 0,
            outputs: 0,
        }
    }

    /// Transport one frame through `compiled`. `offered` yields the input
    /// wire and payload of every message in the frame (at most one per
    /// wire); `output_source` is the routing the setup cycle established.
    /// Returns the 64-cycle payload words swept, `⌈cycles/64⌉` for the
    /// frame's longest payload (0 for a frame of empty payloads, which
    /// needs no sweep). Read the delivered payloads back with
    /// [`FrameKernel::received`].
    ///
    /// # Panics
    /// If a routed output's valid rail drops in any payload word: the
    /// router and the datapath disagree about the frozen paths. This is
    /// checked on every frame, in release builds too.
    pub fn transport<'p, I>(
        &mut self,
        compiled: &CompiledNetlist,
        offered: I,
        output_source: &[Option<usize>],
    ) -> usize
    where
        I: IntoIterator<Item = (usize, &'p [u8])>,
        I::IntoIter: Clone,
    {
        let n = compiled.input_count() / 2;
        let m = compiled.output_count() / 2;
        assert_eq!(output_source.len(), m, "routing is for another switch");
        let offered = offered.into_iter();
        let bytes = offered.clone().map(|(_, p)| p.len()).max().unwrap_or(0);
        let words = bytes.div_ceil(8);
        self.words = words;
        self.outputs = m;
        if words == 0 {
            return 0;
        }
        if self.slots != compiled.slot_count() {
            self.scratch = compiled.scratch();
            self.slots = compiled.slot_count();
        }
        // Valid lanes of the last word: the frame's payload cycles only.
        let tail = (bytes * 8) % WORD_BITS;
        let last = if tail == 0 { !0u64 } else { (1u64 << tail) - 1 };

        self.words_in.clear();
        self.words_in.resize(2 * n * words, 0);
        self.words_out.resize(2 * m * words, 0);
        for (input, payload) in offered {
            let valid = &mut self.words_in[input * words..(input + 1) * words];
            valid.fill(!0u64);
            valid[words - 1] = last;
            let data = &mut self.words_in[(n + input) * words..(n + input + 1) * words];
            for (word, chunk) in data.iter_mut().zip(payload.chunks(8)) {
                let mut le = [0u8; 8];
                le[..chunk.len()].copy_from_slice(chunk);
                *word = u64::from_le_bytes(le);
            }
        }
        compiled.eval_words_into(
            &self.words_in,
            words,
            &mut self.scratch,
            &mut self.words_out,
        );
        for (out, src) in output_source.iter().enumerate() {
            if src.is_some() {
                let valid = &self.words_out[out * words..(out + 1) * words];
                for (k, &word) in valid.iter().enumerate() {
                    let mask = if k + 1 == words { last } else { !0u64 };
                    assert!(
                        word & mask == mask,
                        "routed output {out} lost its valid bit in the netlist"
                    );
                }
            }
        }
        words
    }

    /// The first `len` payload bytes that arrived on output `out` in the
    /// last transported frame.
    ///
    /// # Panics
    /// If `len` exceeds that frame's payload length.
    pub fn received(&self, out: usize, len: usize) -> Bytes {
        assert!(
            len <= 8 * self.words,
            "asked for {len} bytes of a {}-word frame",
            self.words
        );
        let row = (self.outputs + out) * self.words;
        let mut bytes = vec![0u8; len];
        for (chunk, word) in bytes
            .chunks_mut(8)
            .zip(&self.words_out[row..row + self.words])
        {
            chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
        }
        Bytes::from(bytes)
    }
}

/// A reusable gate-level frame simulator for one [`StagedSwitch`]: the
/// router for setup (it supplies message identity for reassembly), then
/// the [`FrameKernel`] over the switch's cached compiled datapath for
/// every payload bit. The kernel's buffers and the per-input index and
/// valid pattern persist across frames, so a steady-state frame
/// allocates only its outcome (the routing, the delivered payloads and
/// clones of the unrouted messages) and whatever the router allocates.
pub struct FrameEngine<'a> {
    switch: &'a StagedSwitch,
    elab: Arc<Elaboration>,
    kernel: FrameKernel,
    /// Index into the offered slice of the message on each input wire.
    by_input: Vec<Option<usize>>,
    valid: Vec<bool>,
    sweeps: usize,
}

impl<'a> FrameEngine<'a> {
    /// Build an engine over `switch`'s cached compiled datapath netlist.
    pub fn new(switch: &'a StagedSwitch) -> Self {
        let elab = switch.datapath_logic(false);
        let kernel = FrameKernel::new(&elab.compiled);
        FrameEngine {
            switch,
            elab,
            kernel,
            by_input: Vec::new(),
            valid: Vec::new(),
            sweeps: 0,
        }
    }

    /// Payload words transported so far: each frame adds `⌈cycles/64⌉`
    /// for its longest payload, however wide the lane groups that swept
    /// them.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Simulate one frame, transporting payload bits through the gate
    /// level. Same contract and panics as [`simulate_frame`].
    pub fn run(&mut self, offered: &[Message]) -> FrameOutcome {
        let n = self.switch.n;
        self.by_input.clear();
        self.by_input.resize(n, None);
        for (k, msg) in offered.iter().enumerate() {
            assert!(msg.source < n, "message source {} out of range", msg.source);
            assert!(
                self.by_input[msg.source].is_none(),
                "two messages offered on input {}",
                msg.source
            );
            self.by_input[msg.source] = Some(k);
        }
        self.valid.clear();
        self.valid.extend(self.by_input.iter().map(Option::is_some));
        let routing = self.switch.route(&self.valid);

        self.sweeps += self.kernel.transport(
            &self.elab.compiled,
            offered.iter().map(|msg| (msg.source, &msg.payload[..])),
            &routing.output_source,
        );

        let mut delivered = Vec::new();
        for (out, src) in routing.output_source.iter().enumerate() {
            if let Some(src) = src {
                let k = self.by_input[*src].expect("routed inputs carry messages");
                let original = &offered[k];
                delivered.push((
                    out,
                    Message {
                        id: original.id,
                        source: original.source,
                        payload: self.kernel.received(out, original.payload.len()),
                    },
                ));
            }
        }
        let unrouted = routing
            .unrouted_inputs(&self.valid)
            .map(|input| {
                let k = self.by_input[input].expect("unrouted inputs were valid");
                offered[k].clone()
            })
            .collect();
        FrameOutcome {
            routing,
            delivered,
            unrouted,
        }
    }
}

impl FrameOutcome {
    /// Whether every delivered payload matches what was sent.
    pub fn payloads_intact(&self, offered: &[Message]) -> bool {
        self.delivered.iter().all(|(_, got)| {
            offered
                .iter()
                .find(|m| m.id == got.id)
                .is_some_and(|sent| sent.payload == got.payload)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concentrator::Hyperconcentrator;

    #[test]
    fn frame_delivers_intact_payloads() {
        let switch = Hyperconcentrator::new(8);
        let offered = vec![
            Message::new(1, 2, vec![0xDE, 0xAD]),
            Message::new(2, 5, vec![0xBE, 0xEF]),
            Message::new(3, 7, vec![0x42]),
        ];
        let outcome = simulate_frame(&switch, &offered);
        assert_eq!(outcome.delivered.len(), 3);
        assert!(outcome.unrouted.is_empty());
        assert!(outcome.payloads_intact(&offered));
        // Hyperconcentrator compacts in order: inputs 2, 5, 7 -> outputs
        // 0, 1, 2.
        let outputs: Vec<usize> = outcome.delivered.iter().map(|&(o, _)| o).collect();
        assert_eq!(outputs, vec![0, 1, 2]);
    }

    #[test]
    fn empty_frame_is_fine() {
        let switch = Hyperconcentrator::new(4);
        let outcome = simulate_frame(&switch, &[]);
        assert!(outcome.delivered.is_empty());
        assert!(outcome.unrouted.is_empty());
    }

    #[test]
    #[should_panic(expected = "two messages")]
    fn double_booking_an_input_panics() {
        let switch = Hyperconcentrator::new(4);
        let offered = vec![Message::new(1, 0, vec![0u8]), Message::new(2, 0, vec![1u8])];
        simulate_frame(&switch, &offered);
    }

    #[test]
    fn mixed_payload_lengths() {
        let switch = Hyperconcentrator::new(4);
        let offered = vec![
            Message::new(1, 0, vec![0xFFu8; 4]),
            Message::new(2, 3, vec![0x01u8]),
        ];
        let outcome = simulate_frame(&switch, &offered);
        assert!(outcome.payloads_intact(&offered));
        assert_eq!(outcome.delivered[1].1.payload.len(), 1);
    }

    #[test]
    fn gate_level_engine_matches_routing_table_simulation() {
        use concentrator::revsort_switch::{RevsortLayout, RevsortSwitch};
        let switch = RevsortSwitch::new(16, 12, RevsortLayout::TwoDee);
        let mut engine = FrameEngine::new(switch.staged());
        let mut state = 0x5EEDu64;
        for frame in 0..40 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let offered: Vec<Message> = (0..16)
                .filter(|&i| state >> i & 1 == 1)
                .map(|i| {
                    let len = 1 + (state.rotate_left(i as u32) % 4) as usize;
                    let payload: Vec<u8> = (0..len)
                        .map(|b| (state.rotate_right(8 * b as u32 + i as u32)) as u8)
                        .collect();
                    Message::new(frame * 100 + i as u64, i as usize, payload)
                })
                .collect();
            let reference = simulate_frame(switch.staged(), &offered);
            let gate_level = engine.run(&offered);
            assert_eq!(gate_level, reference, "frame {frame}, state {state:#x}");
            assert!(gate_level.payloads_intact(&offered));
        }
    }

    #[test]
    fn engine_batches_64_cycles_per_sweep() {
        use concentrator::full_revsort::FullRevsortHyperconcentrator;
        let switch = FullRevsortHyperconcentrator::new(16);
        let mut engine = FrameEngine::new(switch.staged());
        // 8-byte payload = 64 cycles: exactly one payload word.
        engine.run(&[Message::new(1, 3, vec![0xA5u8; 8])]);
        assert_eq!(engine.sweeps(), 1);
        // 9 bytes = 72 cycles: two words, swept in one kernel call. The
        // buffers are reused, so the counter just accumulates.
        engine.run(&[Message::new(2, 9, vec![0x3Cu8; 9])]);
        assert_eq!(engine.sweeps(), 3);
        // An empty frame needs no sweep at all.
        engine.run(&[]);
        assert_eq!(engine.sweeps(), 3);
    }

    #[test]
    #[should_panic(expected = "routed output 1 lost its valid bit")]
    fn kernel_rejects_routing_the_datapath_disagrees_with() {
        use concentrator::full_revsort::FullRevsortHyperconcentrator;
        let switch = FullRevsortHyperconcentrator::new(16);
        let elab = switch.staged().datapath_logic(false);
        let mut kernel = FrameKernel::new(&elab.compiled);
        // One message lights output 0 only; a routing that also claims
        // output 1 contradicts the datapath.
        let payload = [0x5Au8; 9];
        let mut output_source = vec![None; switch.staged().m];
        output_source[0] = Some(3);
        output_source[1] = Some(3);
        kernel.transport(&elab.compiled, [(3, &payload[..])], &output_source);
    }
}
