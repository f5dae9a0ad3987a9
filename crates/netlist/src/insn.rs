//! Phase 2 of the compiler: lowering a levelized [`Schedule`] to a dense
//! instruction stream, and the wide-lane emulator that sweeps it.
//!
//! The phase-1 schedule is faithful but pointer-heavy: evaluating a gate
//! means indexing a prefix-offset table, walking a variable-length literal
//! span, and folding through a closure — per gate, per 64-lane word. This
//! module compiles the schedule **once** into the form hardware emulation
//! engines use:
//!
//! * **Dense three-operand instructions.** Every gate lowers to one or
//!   more fixed-width 16-byte records: three source slots `a, b, c` and
//!   one word packing the destination slot with a 3-bit opcode and
//!   invert-a/b/c flags. A fan-in-k gate with k ≥ 3 becomes one
//!   `dst = a op b op c` record followed by ⌈(k−3)/2⌉ accumulator steps
//!   `dst = dst op p op q`; the switches' wide AND/OR planes are mostly
//!   fan-in 3, so most gates are a single record. The emulator's hot loop
//!   is one linear pass with no indirection: fetch, three loads, two ops,
//!   store.
//! * **Level-blocked slot allocation.** Wire values live in *slots*
//!   assigned by a liveness pass: a wire's slot is recycled once its last
//!   reader level has run. Peak live wires is far below total wires in a
//!   levelized sorting network, so the working set drops from
//!   `wires × lanes` to `slots × lanes` — small enough to stay cache
//!   resident while the instruction stream streams past it. Frees are
//!   deferred to level boundaries, which also makes every level's
//!   instructions write-disjoint across chips (see below).
//! * **Wide lanes.** The emulator sweeps lane *groups* of 1, 4, or 8
//!   64-bit words (64 / 256 / 512 test vectors per instruction fetch),
//!   monomorphized per width, with explicit AVX2/AVX-512 kernels selected
//!   at runtime on x86-64. One instruction fetch is amortized over up to
//!   512 vectors.
//! * **Chip-partitioned levels.** Gates are assigned to chips by the
//!   partitioner pass ([`crate::partition`]); the stream is ordered
//!   (level, chip, gate), and per-(level, chip) instruction ranges are
//!   recorded so a thread team can execute one level concurrently —
//!   barrier between levels, chips striped across threads. Slot recycling
//!   deferred to level boundaries guarantees no two chips touch the same
//!   slot within a level (checked by [`InsnStream::self_check`]).

use crate::compile::{unpack, Op, Schedule};
use crate::matrix::BitMatrix;
use crate::partition::Partition;
use std::sync::Barrier;

/// Opcodes, in bits 0..3 of [`Insn::dw`]. AND, OR and XOR combine all
/// three sources; `XOR2` combines `a` and `b` only, for the two-input XOR
/// steps that AND and OR cover by repeating an operand.
const OP_AND: u32 = 0;
const OP_OR: u32 = 1;
const OP_XOR: u32 = 2;
const OP_XOR2: u32 = 3;
const OP_COPY: u32 = 4;
const OP_CONST0: u32 = 5;
const OP_CONST1: u32 = 6;
const OP_MASK: u32 = 7;
/// Bit of [`Insn::dw`] that inverts source a; b and c follow at +1, +2.
const INV_SHIFT: u32 = 3;
/// The destination slot occupies bits 6..32 of [`Insn::dw`].
const DST_SHIFT: u32 = 6;
/// Slots addressable by the destination field.
const MAX_SLOTS: usize = 1 << (32 - DST_SHIFT);

/// Words in the widest lane group (512 lanes), and so the per-slot
/// stride a scratch buffer must allow for.
pub(crate) const MAX_GROUP_WORDS: usize = 8;

/// The widest lane group, in words, that fits the `left` words still to
/// sweep without exceeding `max_lw`: 8, then 4, then 1.
fn group_words(left: usize, max_lw: usize) -> usize {
    if left >= 8 && max_lw >= 8 {
        8
    } else if left >= 4 && max_lw >= 4 {
        4
    } else {
        1
    }
}

/// One emulator instruction: `dst = a op b op c` over a whole lane group.
///
/// 16 bytes, fixed width: the stream is a flat `Vec<Insn>` the sweep walks
/// front to back, so instruction fetch is a linear prefetch-friendly scan.
/// Sources an opcode ignores still hold in-range slots, so every kernel
/// may form all three operand addresses unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct Insn {
    /// Source slot a (ignored by const ops).
    pub a: u32,
    /// Source slot b (ignored by const and copy ops).
    pub b: u32,
    /// Source slot c (read by AND, OR and XOR only).
    pub c: u32,
    /// Destination slot in bits 6..32; opcode in bits 0..3; bits 3, 4, 5
    /// invert sources a, b, c.
    pub dw: u32,
}

const _: () = assert!(std::mem::size_of::<Insn>() == 16);

impl Insn {
    /// `dst = op(srcs)`, each source a `(slot, inverted)` pair.
    fn new(op: u32, dst: u32, srcs: [(u32, bool); 3]) -> Insn {
        let [(a, ia), (b, ib), (c, ic)] = srcs;
        let inv = (ia as u32) | (ib as u32) << 1 | (ic as u32) << 2;
        Insn {
            a,
            b,
            c,
            dw: dst << DST_SHIFT | inv << INV_SHIFT | op,
        }
    }

    /// `dst = value` on every lane.
    fn konst(dst: u32, value: bool) -> Insn {
        let op = if value { OP_CONST1 } else { OP_CONST0 };
        Insn::new(op, dst, [(0, false); 3])
    }

    /// `dst = x op y`. AND and OR are idempotent, so they repeat `y` as
    /// the third source; XOR takes its two-input opcode.
    fn pair(op: u32, dst: u32, x: (u32, bool), y: (u32, bool)) -> Insn {
        let op = if op == OP_XOR { OP_XOR2 } else { op };
        Insn::new(op, dst, [x, y, y])
    }

    #[inline(always)]
    fn op(self) -> u32 {
        self.dw & OP_MASK
    }

    #[inline(always)]
    fn dst(self) -> u32 {
        self.dw >> DST_SHIFT
    }

    /// All-ones where source `k` (0 = a, 1 = b, 2 = c) is inverted.
    #[inline(always)]
    fn inv_mask(self, k: u32) -> u64 {
        ((self.dw >> (INV_SHIFT + k) & 1) as u64).wrapping_neg()
    }

    /// How many of the sources a, b, c this instruction's opcode reads.
    fn source_count(self) -> usize {
        match self.op() {
            OP_CONST0 | OP_CONST1 => 0,
            OP_COPY => 1,
            OP_XOR2 => 2,
            _ => 3,
        }
    }
}

/// The compiled instruction stream plus everything the emulator needs to
/// run it: slot bindings for primary inputs and outputs, stuck-input
/// forces, level boundaries, and per-(level, chip) ranges.
#[derive(Debug, Clone)]
pub(crate) struct InsnStream {
    pub insns: Vec<Insn>,
    /// Instruction-index boundaries per level: level `l` is
    /// `insns[level_bounds[l]..level_bounds[l+1]]`.
    pub level_bounds: Vec<u32>,
    /// Per-(level, chip) instruction subranges, flattened row-major:
    /// level `l`, chip `c` at `chip_ranges[l * chips + c]`.
    pub chip_ranges: Vec<(u32, u32)>,
    /// Number of chips the stream is partitioned into.
    pub chips: usize,
    /// Value slots required (scratch words per lane).
    pub slot_count: usize,
    /// Slot of each primary input, in input-ordinal order.
    pub input_slots: Vec<u32>,
    /// Stuck-input forces: `(slot, value)` written after input load.
    pub forces: Vec<(u32, bool)>,
    /// Primary outputs: `(slot, inverted)` in marking order.
    pub outputs: Vec<(u32, bool)>,
}

/// Lower `sched` onto `part`'s chips: liveness-allocate slots, emit the
/// instruction stream in (level, chip, gate) order, and record the
/// per-level chip ranges.
pub(crate) fn lower(sched: &Schedule, part: &Partition) -> InsnStream {
    let num_levels = sched.levels.len() - 1;
    let chips = part.chips.max(1);
    let gate_count = sched.ops.len();

    // Gates regrouped by (level, chip), stable within a group.
    let mut by_level_chip: Vec<Vec<u32>> = vec![Vec::new(); num_levels * chips];
    for (l, level) in sched.levels.windows(2).enumerate() {
        for g in level[0]..level[1] {
            let c = part.chip_of_gate[g as usize] as usize;
            by_level_chip[l * chips + c].push(g);
        }
    }

    // Liveness: the last level (1-based; inputs are level 0) at which each
    // wire is read. Output wires are pinned — their slot never recycles,
    // so the post-sweep output read always sees the final value.
    let mut last_use = vec![0u32; sched.wire_count];
    for (l, level) in sched.levels.windows(2).enumerate() {
        for g in level[0] as usize..level[1] as usize {
            for &packed in sched.gate_lits(g) {
                let w = (packed >> 1) as usize;
                last_use[w] = last_use[w].max(l as u32 + 1);
            }
        }
    }
    let mut pinned = vec![false; sched.wire_count];
    for &packed in &sched.outputs {
        pinned[(packed >> 1) as usize] = true;
    }

    // Slot allocation with frees deferred to level boundaries: a slot
    // last read at level `r` re-enters the free list only when level
    // `r + 1` starts, so within any single level the set of slots written
    // is disjoint from the slots any other chip reads or writes.
    let mut slot_of = vec![u32::MAX; sched.wire_count];
    let mut free: Vec<u32> = Vec::new();
    let mut pending: Vec<Vec<u32>> = vec![Vec::new(); num_levels + 2];
    let mut next_slot = 0u32;
    let mut alloc = |free: &mut Vec<u32>| -> u32 {
        free.pop().unwrap_or_else(|| {
            let s = next_slot;
            next_slot += 1;
            s
        })
    };

    // Level 0: primary inputs.
    let mut input_slots = Vec::with_capacity(sched.input_wires.len());
    for &w in &sched.input_wires {
        let s = alloc(&mut free);
        slot_of[w as usize] = s;
        input_slots.push(s);
        if !pinned[w as usize] {
            pending[last_use[w as usize] as usize].push(s);
        }
    }

    let mut insns: Vec<Insn> = Vec::with_capacity(gate_count + gate_count / 4);
    let mut level_bounds = vec![0u32];
    let mut chip_ranges = Vec::with_capacity(num_levels * chips);
    let mut drained = 0usize;

    for l in 0..num_levels {
        // Def level of this schedule level is l + 1: recycle every slot
        // whose last read is at level ≤ l.
        while drained <= l {
            free.append(&mut pending[drained]);
            drained += 1;
        }
        let def_level = (l + 1) as u32;
        for c in 0..chips {
            let start = insns.len() as u32;
            for &g in &by_level_chip[l * chips + c] {
                let g = g as usize;
                let w = sched.outs[g] as usize;
                let dst = alloc(&mut free);
                slot_of[w] = dst;
                if !pinned[w] {
                    pending[last_use[w].max(def_level) as usize].push(dst);
                }
                emit_gate(sched, g, dst, &slot_of, &mut insns);
            }
            chip_ranges.push((start, insns.len() as u32));
        }
        level_bounds.push(insns.len() as u32);
    }

    let forces = sched
        .forces
        .iter()
        .map(|&(w, v)| {
            let s = slot_of[w as usize];
            debug_assert_ne!(s, u32::MAX, "force names an unallocated wire");
            (s, v)
        })
        .collect();
    let outputs = sched
        .outputs
        .iter()
        .map(|&packed| {
            let lit = unpack(packed);
            let s = slot_of[lit.wire.index()];
            assert_ne!(s, u32::MAX, "output reads an undriven wire");
            (s, lit.inverted)
        })
        .collect();

    assert!(
        next_slot as usize <= MAX_SLOTS,
        "{next_slot} value slots overflow the {MAX_SLOTS}-slot destination field"
    );
    let stream = InsnStream {
        insns,
        level_bounds,
        chip_ranges,
        chips,
        slot_count: next_slot as usize,
        input_slots,
        forces,
        outputs,
    };
    stream.check_slots();
    #[cfg(debug_assertions)]
    stream.self_check();
    stream
}

/// Emit the instruction(s) computing schedule gate `g` into `dst`.
fn emit_gate(sched: &Schedule, g: usize, dst: u32, slot_of: &[u32], insns: &mut Vec<Insn>) {
    let slot = |packed: u32| -> (u32, bool) {
        let lit = unpack(packed);
        let s = slot_of[lit.wire.index()];
        debug_assert_ne!(s, u32::MAX, "gate reads an unallocated wire");
        (s, lit.inverted)
    };
    let lits = sched.gate_lits(g);
    let op = match sched.ops[g] {
        Op::ConstTrue => return insns.push(Insn::konst(dst, true)),
        Op::ConstFalse => return insns.push(Insn::konst(dst, false)),
        Op::Buf => {
            let a = slot(lits[0]);
            return insns.push(Insn::new(OP_COPY, dst, [a, a, a]));
        }
        Op::And => OP_AND,
        Op::Or => OP_OR,
        Op::Xor => OP_XOR,
    };
    match *lits {
        // Fold identities of the interpreters: empty AND is true, empty
        // OR/XOR are false.
        [] => insns.push(Insn::konst(dst, op == OP_AND)),
        [only] => {
            let a = slot(only);
            insns.push(Insn::new(OP_COPY, dst, [a, a, a]));
        }
        [x, y] => insns.push(Insn::pair(op, dst, slot(x), slot(y))),
        [x, y, z, ref rest @ ..] => {
            insns.push(Insn::new(op, dst, [slot(x), slot(y), slot(z)]));
            // Accumulator chain: dst = dst op p op q, same level and chip,
            // executed sequentially by the owning worker. A gate's
            // destination slot is never one of its sources (frees are
            // deferred to level boundaries), so the chain reads only
            // values it has not overwritten.
            let acc = (dst, false);
            for step in rest.chunks(2) {
                insns.push(match *step {
                    [p, q] => Insn::new(op, dst, [acc, slot(p), slot(q)]),
                    _ => Insn::pair(op, dst, acc, slot(step[0])),
                });
            }
        }
    }
}

/// SIMD kernel selection, probed once at compile time and carried by the
/// engine so cached compilations never re-probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// Portable unrolled u64 loops (auto-vectorized by the compiler).
    Scalar,
    /// 256-bit AVX2 kernels for the 4- and 8-word lane groups.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit AVX-512F kernel for the 8-word lane group (AVX2 for 4).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Simd {
    /// The instruction-set name of this kernel family.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Simd::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Simd::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Simd::Avx512 => "avx512f",
        }
    }
}

pub(crate) fn detect_simd() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Simd::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return Simd::Avx2;
        }
    }
    Simd::Scalar
}

/// Execute one instruction over a lane group of `LW` words.
///
/// # Safety
/// `vals` must point to at least `slot_count * LW` words and all four of
/// the instruction's slots must be `< slot_count`
/// ([`InsnStream::check_slots`], which [`lower`] runs on every stream).
#[inline(always)]
unsafe fn exec<const LW: usize>(vals: *mut u64, i: Insn) {
    let (ma, mb, mc) = (i.inv_mask(0), i.inv_mask(1), i.inv_mask(2));
    let a = vals.add(i.a as usize * LW);
    let b = vals.add(i.b as usize * LW);
    let c = vals.add(i.c as usize * LW);
    let d = vals.add(i.dst() as usize * LW);
    match i.op() {
        OP_AND => {
            for k in 0..LW {
                *d.add(k) = (*a.add(k) ^ ma) & (*b.add(k) ^ mb) & (*c.add(k) ^ mc);
            }
        }
        OP_OR => {
            for k in 0..LW {
                *d.add(k) = (*a.add(k) ^ ma) | (*b.add(k) ^ mb) | (*c.add(k) ^ mc);
            }
        }
        OP_XOR => {
            for k in 0..LW {
                *d.add(k) = *a.add(k) ^ *b.add(k) ^ *c.add(k) ^ (ma ^ mb ^ mc);
            }
        }
        OP_XOR2 => {
            for k in 0..LW {
                *d.add(k) = *a.add(k) ^ *b.add(k) ^ (ma ^ mb);
            }
        }
        OP_COPY => {
            for k in 0..LW {
                *d.add(k) = *a.add(k) ^ ma;
            }
        }
        OP_CONST0 => {
            for k in 0..LW {
                *d.add(k) = 0;
            }
        }
        _ => {
            for k in 0..LW {
                *d.add(k) = !0;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Explicit 256/512-bit kernels. The portable `exec` loops already
    //! auto-vectorize to the baseline 128-bit SSE2; these widen one
    //! instruction's lane group to one or two native vector ops.
    use super::{Insn, OP_AND, OP_CONST0, OP_COPY, OP_OR, OP_XOR, OP_XOR2};
    use std::arch::x86_64::*;

    /// One 256-bit block of `i`'s result, the sources at `a`, `b`, `c`.
    ///
    /// # Safety
    /// Caller guarantees AVX2 and that each pointer addresses 32 readable
    /// bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block256(
        i: Insn,
        a: *const __m256i,
        b: *const __m256i,
        c: *const __m256i,
    ) -> __m256i {
        let a = _mm256_xor_si256(
            _mm256_loadu_si256(a),
            _mm256_set1_epi64x(i.inv_mask(0) as i64),
        );
        let b = _mm256_xor_si256(
            _mm256_loadu_si256(b),
            _mm256_set1_epi64x(i.inv_mask(1) as i64),
        );
        let c = _mm256_xor_si256(
            _mm256_loadu_si256(c),
            _mm256_set1_epi64x(i.inv_mask(2) as i64),
        );
        match i.op() {
            OP_AND => _mm256_and_si256(_mm256_and_si256(a, b), c),
            OP_OR => _mm256_or_si256(_mm256_or_si256(a, b), c),
            OP_XOR => _mm256_xor_si256(_mm256_xor_si256(a, b), c),
            OP_XOR2 => _mm256_xor_si256(a, b),
            OP_COPY => a,
            OP_CONST0 => _mm256_setzero_si256(),
            _ => _mm256_set1_epi64x(-1),
        }
    }

    /// # Safety
    /// Caller guarantees AVX2, `vals` covers `slot_count * 4` words, and
    /// all four instruction slots are in range.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn exec_w4(vals: *mut u64, i: Insn) {
        let a = vals.add(i.a as usize * 4) as *const __m256i;
        let b = vals.add(i.b as usize * 4) as *const __m256i;
        let c = vals.add(i.c as usize * 4) as *const __m256i;
        let d = vals.add(i.dst() as usize * 4) as *mut __m256i;
        _mm256_storeu_si256(d, block256(i, a, b, c));
    }

    /// # Safety
    /// As [`exec_w4`], over two 256-bit halves of an 8-word group.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn exec_w8_avx2(vals: *mut u64, i: Insn) {
        let a = vals.add(i.a as usize * 8) as *const __m256i;
        let b = vals.add(i.b as usize * 8) as *const __m256i;
        let c = vals.add(i.c as usize * 8) as *const __m256i;
        let d = vals.add(i.dst() as usize * 8) as *mut __m256i;
        for h in 0..2 {
            _mm256_storeu_si256(d.add(h), block256(i, a.add(h), b.add(h), c.add(h)));
        }
    }

    /// # Safety
    /// Caller guarantees AVX-512F, `vals` covers `slot_count * 8` words,
    /// and all four instruction slots are in range.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn exec_w8_avx512(vals: *mut u64, i: Insn) {
        let a = vals.add(i.a as usize * 8) as *const __m512i;
        let b = vals.add(i.b as usize * 8) as *const __m512i;
        let c = vals.add(i.c as usize * 8) as *const __m512i;
        let d = vals.add(i.dst() as usize * 8) as *mut __m512i;
        let a = _mm512_xor_si512(
            _mm512_loadu_si512(a),
            _mm512_set1_epi64(i.inv_mask(0) as i64),
        );
        let b = _mm512_xor_si512(
            _mm512_loadu_si512(b),
            _mm512_set1_epi64(i.inv_mask(1) as i64),
        );
        let c = _mm512_xor_si512(
            _mm512_loadu_si512(c),
            _mm512_set1_epi64(i.inv_mask(2) as i64),
        );
        let r = match i.op() {
            OP_AND => _mm512_and_si512(_mm512_and_si512(a, b), c),
            OP_OR => _mm512_or_si512(_mm512_or_si512(a, b), c),
            OP_XOR => _mm512_xor_si512(_mm512_xor_si512(a, b), c),
            OP_XOR2 => _mm512_xor_si512(a, b),
            OP_COPY => a,
            OP_CONST0 => _mm512_setzero_si512(),
            _ => _mm512_set1_epi64(-1),
        };
        _mm512_storeu_si512(d, r);
    }

    /// # Safety
    /// As [`exec_w4`], for every instruction of `insns`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_w4(insns: &[Insn], vals: *mut u64) {
        for &i in insns {
            exec_w4(vals, i);
        }
    }

    /// # Safety
    /// As [`exec_w8_avx2`], for every instruction of `insns`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_w8_avx2(insns: &[Insn], vals: *mut u64) {
        for &i in insns {
            exec_w8_avx2(vals, i);
        }
    }

    /// # Safety
    /// As [`exec_w8_avx512`], for every instruction of `insns`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn run_w8_avx512(insns: &[Insn], vals: *mut u64) {
        for &i in insns {
            exec_w8_avx512(vals, i);
        }
    }
}

impl InsnStream {
    /// Number of levels.
    #[inline]
    pub fn level_count(&self) -> usize {
        self.level_bounds.len() - 1
    }

    /// Execute instructions `[lo, hi)` over lane groups of `lw` words.
    ///
    /// # Safety
    /// `vals` must cover `slot_count * lw` words, the stream must have
    /// passed [`InsnStream::check_slots`], and `simd` must name kernels
    /// this CPU supports (as [`detect_simd`] reports them).
    unsafe fn run_range(&self, lo: usize, hi: usize, lw: usize, vals: *mut u64, simd: Simd) {
        let insns = &self.insns[lo..hi];
        // SAFETY (every arm): the caller's guarantees are exactly the
        // kernels' — `vals` covers `slot_count * lw` words, all slots are
        // in range, and AVX2 (and, for `Avx512`, AVX-512F) is present.
        match lw {
            1 => {
                for &i in insns {
                    exec::<1>(vals, i);
                }
            }
            4 => match simd {
                #[cfg(target_arch = "x86_64")]
                Simd::Avx2 | Simd::Avx512 => x86::run_w4(insns, vals),
                _ => {
                    for &i in insns {
                        exec::<4>(vals, i);
                    }
                }
            },
            8 => match simd {
                #[cfg(target_arch = "x86_64")]
                Simd::Avx512 => x86::run_w8_avx512(insns, vals),
                #[cfg(target_arch = "x86_64")]
                Simd::Avx2 => x86::run_w8_avx2(insns, vals),
                _ => {
                    for &i in insns {
                        exec::<8>(vals, i);
                    }
                }
            },
            _ => unreachable!("lane group width must be 1, 4, or 8 words"),
        }
    }

    /// One full sequential sweep over a lane group of `lw` words. Inputs
    /// and forces must already be loaded into `vals`.
    pub(crate) fn sweep(&self, lw: usize, vals: &mut [u64], simd: Simd) {
        assert!(
            matches!(lw, 1 | 4 | 8),
            "lane group width must be 1, 4, or 8 words"
        );
        assert!(vals.len() >= self.slot_count * lw, "vals buffer too small");
        // SAFETY: buffer length and width checked above; `lower` checks
        // every slot with `check_slots` before it returns a stream; every
        // `Simd` the crate passes comes from `detect_simd`.
        unsafe { self.run_range(0, self.insns.len(), lw, vals.as_mut_ptr(), simd) }
    }

    /// Load the lane group starting at word `w0` (width `lw`) from the
    /// row-major `inputs` (`stride` words per input row) into `vals`,
    /// then apply stuck-input forces.
    pub(crate) fn load_group(
        &self,
        inputs: &[u64],
        stride: usize,
        w0: usize,
        lw: usize,
        vals: &mut [u64],
    ) {
        for (ord, &slot) in self.input_slots.iter().enumerate() {
            let src = &inputs[ord * stride + w0..ord * stride + w0 + lw];
            vals[slot as usize * lw..slot as usize * lw + lw].copy_from_slice(src);
        }
        for &(slot, value) in &self.forces {
            let fill = if value { !0u64 } else { 0u64 };
            vals[slot as usize * lw..slot as usize * lw + lw].fill(fill);
        }
    }

    /// Read the output lane group back out of `vals` into `sink(output,
    /// word-within-group, value)`.
    pub(crate) fn store_group(
        &self,
        lw: usize,
        vals: &[u64],
        mut sink: impl FnMut(usize, usize, u64),
    ) {
        for (o, &(slot, inverted)) in self.outputs.iter().enumerate() {
            let m = (inverted as u64).wrapping_neg();
            for k in 0..lw {
                sink(o, k, vals[slot as usize * lw + k] ^ m);
            }
        }
    }

    /// Sweep an entire word range `[lo, hi)` of the row-major `inputs`
    /// (`stride` words per input row) into `sink`, choosing the widest
    /// lane group that fits at each step (bounded by `max_lw`). `vals`
    /// must cover `slot_count * max_lw` words.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sweep_word_range(
        &self,
        inputs: &[u64],
        stride: usize,
        lo: usize,
        hi: usize,
        max_lw: usize,
        vals: &mut [u64],
        simd: Simd,
        sink: &mut impl FnMut(usize, usize, u64),
    ) {
        let mut w = lo;
        while w < hi {
            let lw = group_words(hi - w, max_lw);
            self.load_group(inputs, stride, w, lw, vals);
            self.sweep(lw, &mut vals[..self.slot_count * lw], simd);
            let base = w;
            self.store_group(lw, vals, |o, k, v| sink(o, base + k, v));
            w += lw;
        }
    }

    /// Check that every slot the kernels address — all four of each
    /// instruction's — lies below `slot_count`. The sweep's memory safety
    /// rests on this, so [`lower`] runs it in every build.
    pub(crate) fn check_slots(&self) {
        let n = self.slot_count as u32;
        for i in &self.insns {
            assert!(
                i.a < n && i.b < n && i.c < n && i.dst() < n,
                "instruction slot out of range"
            );
        }
    }

    /// Validate the stream: every slot index in range, and every level's
    /// instructions parallel-safe across chips — no slot written by two
    /// chips in one level, and no slot read by one chip while another
    /// writes it in the same level (same-chip read-after-write is the
    /// sequential accumulator chain and is allowed).
    pub(crate) fn self_check(&self) {
        use std::collections::HashMap;
        self.check_slots();
        let n = self.slot_count as u32;
        for &(s, _) in &self.forces {
            assert!(s < n, "force slot out of range");
        }
        for &(s, _) in &self.outputs {
            assert!(s < n, "output slot out of range");
        }
        assert_eq!(self.chip_ranges.len(), self.level_count() * self.chips);
        for l in 0..self.level_count() {
            let mut writer: HashMap<u32, usize> = HashMap::new();
            for c in 0..self.chips {
                let (lo, hi) = self.chip_ranges[l * self.chips + c];
                assert!(
                    self.level_bounds[l] <= lo && hi <= self.level_bounds[l + 1],
                    "chip range escapes its level"
                );
                for i in &self.insns[lo as usize..hi as usize] {
                    if let Some(&prev) = writer.get(&i.dst()) {
                        assert_eq!(
                            prev,
                            c,
                            "slot {} written by chips {} and {} in level {}",
                            i.dst(),
                            prev,
                            c,
                            l
                        );
                    }
                    writer.insert(i.dst(), c);
                }
            }
            for c in 0..self.chips {
                let (lo, hi) = self.chip_ranges[l * self.chips + c];
                for i in &self.insns[lo as usize..hi as usize] {
                    let sources = [i.a, i.b, i.c];
                    for &r in &sources[..i.source_count()] {
                        if let Some(&wc) = writer.get(&r) {
                            assert_eq!(
                                wc, c,
                                "chip {c} reads slot {r} written by chip {wc} in level {l}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Level-parallel evaluation: a team of `threads` workers sweeps every
    /// lane group of `inputs` cooperatively — chips striped across
    /// workers, one barrier per level — instead of splitting lanes.
    /// Profitable when the circuit is large but the batch is narrow.
    pub(crate) fn eval_level_parallel(
        &self,
        inputs: &BitMatrix,
        out: &mut BitMatrix,
        threads: usize,
        simd: Simd,
    ) {
        let words = inputs.words_per_row();
        let team = threads.clamp(1, self.chips.max(1));
        let mut vals = vec![0u64; self.slot_count * MAX_GROUP_WORDS];
        if team <= 1 || words == 0 {
            let mut sink = |o: usize, w: usize, v: u64| *out.word_mut(o, w) = v;
            self.sweep_word_range(
                inputs.words(),
                words,
                0,
                words,
                MAX_GROUP_WORDS,
                &mut vals,
                simd,
                &mut sink,
            );
            return;
        }

        // Group plan shared by every worker: (start word, group width).
        let mut groups = Vec::new();
        let mut w = 0usize;
        while w < words {
            let lw = group_words(words - w, MAX_GROUP_WORDS);
            groups.push((w, lw));
            w += lw;
        }

        struct ValsPtr(*mut u64);
        // SAFETY: the one field points into `vals`, which outlives the
        // thread scope; moving the pointer to a worker is sound because
        // all access through it follows the Sync argument below.
        unsafe impl Send for ValsPtr {}
        // SAFETY: workers write disjoint slots within a level (`lower`
        // allocates them so; self_check verifies it) and synchronize
        // between levels with a barrier, so shared use never races.
        unsafe impl Sync for ValsPtr {}
        impl ValsPtr {
            // Accessor rather than field reads in closures: 2021 disjoint
            // capture would otherwise capture the raw `*mut u64` field
            // itself, bypassing the wrapper's Send/Sync.
            #[inline]
            fn get(&self) -> *mut u64 {
                self.0
            }
        }
        let shared = ValsPtr(vals.as_mut_ptr());
        let barrier = Barrier::new(team);
        let levels = self.level_count();

        let run_levels = |tid: usize, lw: usize| {
            for l in 0..levels {
                let mut c = tid;
                while c < self.chips {
                    let (lo, hi) = self.chip_ranges[l * self.chips + c];
                    // SAFETY: `vals` holds `slot_count * MAX_GROUP_WORDS`
                    // words; slot indices passed check_slots in `lower`;
                    // `simd` came from detect_simd; chips are write-disjoint
                    // within a level and the barrier below orders
                    // cross-level reads after writes.
                    unsafe { self.run_range(lo as usize, hi as usize, lw, shared.get(), simd) };
                    c += team;
                }
                barrier.wait();
            }
        };

        std::thread::scope(|scope| {
            for tid in 1..team {
                let barrier = &barrier;
                let groups = &groups;
                scope.spawn(move || {
                    for &(_, lw) in groups {
                        barrier.wait(); // leader finished loading inputs
                        run_levels(tid, lw);
                        barrier.wait(); // leader may now store outputs
                    }
                });
            }
            // The caller's thread is worker 0 and owns load/store phases;
            // between the closing and opening barriers the other workers
            // are parked, so touching `vals` directly is race-free.
            for &(w0, lw) in &groups {
                // SAFETY: the pointer and length describe `vals` exactly,
                // and no worker touches it outside run_levels, so this is
                // the only live reference until the next barrier.
                let vals = unsafe {
                    std::slice::from_raw_parts_mut(shared.get(), self.slot_count * MAX_GROUP_WORDS)
                };
                self.load_group(
                    inputs.words(),
                    words,
                    w0,
                    lw,
                    &mut vals[..self.slot_count * lw],
                );
                barrier.wait();
                run_levels(0, lw);
                barrier.wait();
                self.store_group(lw, &vals[..self.slot_count * lw], |o, k, v| {
                    *out.word_mut(o, w0 + k) = v;
                });
            }
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::Netlist;
    use crate::gate::GateKind;
    use crate::wire::Literal;

    /// Every kernel family this host can run, the portable one first.
    fn host_kernels() -> Vec<Simd> {
        #[allow(unused_mut)]
        let mut kernels = vec![Simd::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                kernels.push(Simd::Avx2);
                if std::arch::is_x86_feature_detected!("avx512f") {
                    kernels.push(Simd::Avx512);
                }
            }
        }
        kernels
    }

    /// Sweep `words` words of the row-major `inputs` through `stream`
    /// with kernel family `simd`, in lane groups of at most `max_lw`
    /// words; outputs row-major.
    fn sweep_with(
        stream: &InsnStream,
        inputs: &[u64],
        words: usize,
        simd: Simd,
        max_lw: usize,
    ) -> Vec<u64> {
        let mut vals = vec![0u64; stream.slot_count * max_lw];
        let mut out = vec![0u64; stream.outputs.len() * words];
        let mut sink = |o: usize, w: usize, v: u64| out[o * words + w] = v;
        stream.sweep_word_range(inputs, words, 0, words, max_lw, &mut vals, simd, &mut sink);
        out
    }

    /// Every kernel this host has, at lane widths 1, 4 and 8 words, must
    /// agree bit for bit with the portable 64-lane sweep. With 13 words
    /// the 8-word pass also runs one 4-word and one 1-word group.
    pub(crate) fn assert_kernels_agree(stream: &InsnStream, inputs: &[u64], words: usize) {
        let reference = sweep_with(stream, inputs, words, Simd::Scalar, 1);
        for simd in host_kernels() {
            for max_lw in [1, 4, 8] {
                assert_eq!(
                    sweep_with(stream, inputs, words, simd, max_lw),
                    reference,
                    "{} kernels, {max_lw}-word groups",
                    simd.name()
                );
            }
        }
    }

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random one-chip, one-level stream over `slots` slots, the first
    /// `inputs` of them primary inputs: every opcode and inversion flag,
    /// destinations that are overwritten like accumulator chains, a
    /// stuck-input force like a fault overlay's, and every slot an
    /// output. Sources are drawn only from slots already written, so no
    /// lane group can read another group's leftover scratch.
    fn random_stream(rng: &mut Rng, inputs: usize, slots: usize, len: usize) -> InsnStream {
        let mut written: Vec<u32> = (0..inputs as u32).collect();
        let mut insns = Vec::with_capacity(len);
        for _ in 0..len {
            let mut src = || (written[rng.below(written.len())], rng.next() & 1 == 1);
            let srcs = [src(), src(), src()];
            let op = rng.below(OP_CONST1 as usize + 1) as u32;
            let dst = rng.below(slots) as u32;
            insns.push(Insn::new(op, dst, srcs));
            if !written.contains(&dst) {
                written.push(dst);
            }
        }
        let len = insns.len() as u32;
        InsnStream {
            insns,
            level_bounds: vec![0, len],
            chip_ranges: vec![(0, len)],
            chips: 1,
            slot_count: slots,
            input_slots: (0..inputs as u32).collect(),
            forces: vec![(rng.below(inputs) as u32, rng.next() & 1 == 1)],
            outputs: written.iter().map(|&s| (s, rng.next() & 1 == 1)).collect(),
        }
    }

    /// The instruction format's definition, one word per slot.
    fn model_sweep(stream: &InsnStream, inputs: &[u64], words: usize) -> Vec<u64> {
        let mut out = vec![0u64; stream.outputs.len() * words];
        for w in 0..words {
            let mut v = vec![0u64; stream.slot_count];
            for (ord, &s) in stream.input_slots.iter().enumerate() {
                v[s as usize] = inputs[ord * words + w];
            }
            for &(s, value) in &stream.forces {
                v[s as usize] = if value { !0 } else { 0 };
            }
            for &i in &stream.insns {
                let a = v[i.a as usize] ^ i.inv_mask(0);
                let b = v[i.b as usize] ^ i.inv_mask(1);
                let c = v[i.c as usize] ^ i.inv_mask(2);
                v[i.dst() as usize] = match i.op() {
                    OP_AND => a & b & c,
                    OP_OR => a | b | c,
                    OP_XOR => a ^ b ^ c,
                    OP_XOR2 => a ^ b,
                    OP_COPY => a,
                    OP_CONST0 => 0,
                    OP_CONST1 => !0,
                    op => panic!("undefined opcode {op}"),
                };
            }
            for (o, &(s, inverted)) in stream.outputs.iter().enumerate() {
                out[o * words + w] = v[s as usize] ^ (inverted as u64).wrapping_neg();
            }
        }
        out
    }

    #[test]
    fn every_kernel_matches_the_format_on_random_streams() {
        let mut rng = Rng(0x5EED);
        let (inputs, words) = (6, 13);
        for _ in 0..20 {
            let stream = random_stream(&mut rng, inputs, 40, 300);
            stream.self_check();
            let bits: Vec<u64> = (0..inputs * words).map(|_| rng.next()).collect();
            assert_eq!(
                sweep_with(&stream, &bits, words, Simd::Scalar, 1),
                model_sweep(&stream, &bits, words)
            );
            assert_kernels_agree(&stream, &bits, words);
        }
    }

    #[test]
    #[should_panic(expected = "instruction slot out of range")]
    fn self_check_validates_the_third_source() {
        let mut rng = Rng(3);
        let mut stream = random_stream(&mut rng, 4, 8, 10);
        stream.insns[5].c = stream.slot_count as u32;
        stream.self_check();
    }

    /// A fan-in-k AND/OR/XOR gate lowers to `max(1, 1 + ⌈(k−3)/2⌉)`
    /// instructions and still computes the gate, with inverted literals
    /// reaching every operand position of the first record and the chain.
    #[test]
    fn fan_in_k_lowers_to_one_record_per_two_further_literals() {
        for k in 2..=11usize {
            let expected = if k < 3 { 1 } else { 1 + (k - 3).div_ceil(2) };
            for kind in [GateKind::And, GateKind::Or, GateKind::Xor] {
                for inverted in [0b0101_0101_0101u32, 0b1011_0110_1101, 0b0110_1101_1011] {
                    let mut nl = Netlist::new();
                    let wires = nl.inputs_n(k);
                    let lits = wires.iter().enumerate().map(|(j, &wire)| Literal {
                        wire,
                        inverted: inverted >> j & 1 == 1,
                    });
                    let g = nl.gate(kind, lits);
                    nl.mark_output(g);
                    let compiled = nl.compile();
                    assert_eq!(compiled.insn_count(), expected, "{kind:?} fan-in {k}");
                    let m = crate::BitMatrix::from_fn(k, 1 << k, |row, v| v >> row & 1 == 1);
                    let out = compiled.eval_matrix(&m);
                    for v in 0..1usize << k {
                        assert_eq!(out.column(v), nl.eval(&m.column(v)), "{kind:?} fan-in {k}");
                    }
                }
            }
        }
    }
}
