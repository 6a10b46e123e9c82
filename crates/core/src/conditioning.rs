//! Composable conditioning components — the SP 800-90C "conditioner"
//! box between the raw entropy source and the DRBG.
//!
//! The paper's headline is that DH-TRNG passes the batteries *raw*; a
//! production entropy service still deploys a conditioning stage, both
//! as defence in depth (a degraded source keeps full-entropy output at
//! a reduced rate) and because SP 800-90C requires one between the
//! noise source and the DRBG. This module supplies that stage as small
//! composable state machines:
//!
//! * [`Conditioner`] — the trait: a bit-serial state machine that
//!   consumes raw bits and occasionally emits conditioned bits, with a
//!   declared expected compression ratio (raw bits in per conditioned
//!   bit out);
//! * [`VonNeumannConditioner`] — exact debiasing of an independent
//!   source at an expected 4x+ rate cost;
//! * [`XorFold`] — XOR of `k` raw bits per output bit (piling-up
//!   lemma: residual bias `2^(k-1) * e^k` for input bias `e`);
//! * [`CrcWhitener`] — a CRC-16/CCITT register fed bit-serially with a
//!   **configurable compression ratio**: every `ratio` raw bits, the
//!   register's low bit is emitted. `ratio = 1` whitens at full rate;
//!   `ratio >= 2` compresses, folding `16 + ratio` raw bits of history
//!   into every output bit;
//! * [`LfsrConditioner`] — the legacy rate-preserving 16-bit Fibonacci
//!   LFSR whitener;
//! * [`Chain`] — sequential composition via [`Conditioner::then`];
//! * [`Conditioned`] — the adaptor that mounts any [`Conditioner`] on
//!   any [`Trng`], pulling raw bits through the batched
//!   [`next_word`](Trng::next_word) fast path and keeping
//!   consumed/emitted throughput ledgers.
//!
//! The throughput-cost demonstrations (`examples/conditioning_tradeoff.rs`)
//! and the production conditioning layer share these primitives: the
//! examples mount them on a single source through [`Conditioned`], and
//! the stream-level sessions (`dhtrng-stream`) mount the same machines
//! on the sharded merged stream.
//!
//! Conditioned output is a **pure function of the raw bit stream**: no
//! conditioner draws randomness of its own, so for a seeded source the
//! conditioned stream is as reproducible as the raw one, however the
//! raw bits are batched.
//!
//! # Example
//!
//! ```
//! use dhtrng_core::conditioning::{Conditioned, Conditioner, CrcWhitener};
//! use dhtrng_core::{DhTrng, Trng};
//!
//! // 2:1 CRC compression over a DH-TRNG instance.
//! let raw = DhTrng::builder().seed(7).build();
//! let mut conditioned = Conditioned::new(raw, CrcWhitener::new(2));
//! let mut key = [0u8; 32];
//! conditioned.fill_bytes(&mut key);
//! assert_eq!(conditioned.expected_ratio(), 2.0);
//! assert_eq!(conditioned.consumed(), 2 * conditioned.emitted());
//! ```

use crate::trng::Trng;
use std::sync::Arc;

/// A resumable MSB-first bit packer over a caller-owned byte buffer —
/// the output side of the block conditioning path.
///
/// Conditioned bits are appended one emission at a time (or up to 8 at
/// once via [`push_bits`](Self::push_bits)); completed bytes land in
/// the buffer in order and a ≤ 7-bit partial byte is carried in the
/// sink until the next byte completes. The partial state can be
/// extracted with [`into_parts`](Self::into_parts) and resumed with
/// [`from_parts`](Self::from_parts), which is how
/// [`ConditionerStage`](crate::kernel::ConditionerStage) keeps one
/// logical output stream across blocks (and across the staging chunks
/// within a block) without ever allocating.
///
/// Packing matches every other path in the crate: bit `i` of the
/// output stream is bit `7 - i % 8` of byte `i / 8`.
#[derive(Debug)]
pub struct BitSink<'a> {
    buf: &'a mut [u8],
    bytes: usize,
    /// Partial output byte: the low `acc_len` bits, earliest emission
    /// highest.
    acc: u8,
    acc_len: u32,
    /// Bits pushed through this sink instance (for ledgers).
    pushed: u64,
}

impl<'a> BitSink<'a> {
    /// A fresh sink writing from the start of `buf`.
    pub fn new(buf: &'a mut [u8]) -> Self {
        Self::from_parts(buf, 0, 0, 0)
    }

    /// Resumes a sink mid-stream: `bytes` bytes of `buf` already hold
    /// output, and `acc_len` (< 8) bits of a partial byte are carried
    /// in the low bits of `acc`.
    pub fn from_parts(buf: &'a mut [u8], bytes: usize, acc: u8, acc_len: u32) -> Self {
        debug_assert!(acc_len < 8);
        Self {
            buf,
            bytes,
            acc,
            acc_len,
            pushed: 0,
        }
    }

    /// Appends one conditioned bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        self.push_bits(u8::from(bit), 1);
    }

    /// Appends `n <= 8` conditioned bits: the earliest is bit `n - 1`
    /// of `bits`, the latest bit 0 (any higher bits are ignored).
    #[inline]
    pub fn push_bits(&mut self, bits: u8, n: u32) {
        debug_assert!(n <= 8);
        if n == 0 {
            return;
        }
        let total = self.acc_len + n;
        let word = (u16::from(self.acc) << n) | (u16::from(bits) & ((1u16 << n) - 1));
        if total >= 8 {
            self.buf[self.bytes] = (word >> (total - 8)) as u8;
            self.bytes += 1;
            self.acc_len = total - 8;
            self.acc = (word & ((1u16 << self.acc_len) - 1)) as u8;
        } else {
            self.acc = word as u8;
            self.acc_len = total;
        }
        self.pushed += u64::from(n);
    }

    /// Completed bytes written so far (including any resumed prefix).
    pub fn bytes_written(&self) -> usize {
        self.bytes
    }

    /// Bits pushed through this sink instance (excludes any resumed
    /// partial prefix).
    pub fn bits_pushed(&self) -> u64 {
        self.pushed
    }

    /// Tears the sink down into `(bytes_written, acc, acc_len)` for a
    /// later [`from_parts`](Self::from_parts).
    pub fn into_parts(self) -> (usize, u8, u32) {
        (self.bytes, self.acc, self.acc_len)
    }
}

/// A bit-serial conditioning state machine.
///
/// Raw bits go in one at a time through [`push`](Self::push); zero or
/// one conditioned bits come out per push. Implementations are pure
/// state machines — deterministic in the raw stream, no internal
/// randomness — so conditioning never *adds* entropy, it only
/// concentrates what the source supplies.
pub trait Conditioner {
    /// Feeds one raw bit; returns a conditioned output bit when the
    /// machine emits on this push.
    fn push(&mut self, raw: bool) -> Option<bool>;

    /// Expected raw bits consumed per conditioned bit emitted
    /// (`>= 1.0`). Exact for fixed-rate conditioners; the long-run
    /// expectation on an unbiased source for variable-rate ones
    /// (Von Neumann).
    fn expected_ratio(&self) -> f64;

    /// Clears the machine back to its initial state (discarding any
    /// partially accumulated input).
    fn reset(&mut self);

    /// Block fast path: consumes whole raw bytes (8 raw bits each,
    /// MSB-first — the packing every [`Trng`] path produces) and
    /// appends the emissions to `sink`.
    ///
    /// The provided implementation unrolls to bit-serial
    /// [`push`](Self::push) calls, so every conditioner gets the block
    /// interface for free and the output is — by construction —
    /// bit-identical to pushing the same bits one at a time. The
    /// in-tree machines override it with table-driven GF(2) kernels
    /// that process 8 raw bits per lookup; overrides must preserve
    /// that exact bit-identity (the conditioned stream is pinned as a
    /// pure function of the raw stream).
    ///
    /// This method is object-safe: `Box<dyn Conditioner>` forwards to
    /// the boxed machine's override.
    fn condition_block(&mut self, raw: &[u8], sink: &mut BitSink<'_>) {
        for &byte in raw {
            for i in (0..8).rev() {
                if let Some(bit) = self.push((byte >> i) & 1 == 1) {
                    sink.push_bit(bit);
                }
            }
        }
    }

    /// Chains another conditioner after this one: raw bits feed `self`,
    /// its output feeds `next`, and `next`'s output is the chain's.
    ///
    /// ```
    /// use dhtrng_core::conditioning::{Conditioner, CrcWhitener, XorFold};
    ///
    /// // XOR-fold by 2, then whiten: 2x compression overall.
    /// let chain = XorFold::new(2).then(CrcWhitener::new(1));
    /// assert_eq!(chain.expected_ratio(), 2.0);
    /// ```
    fn then<B: Conditioner>(self, next: B) -> Chain<Self, B>
    where
        Self: Sized,
    {
        Chain {
            first: self,
            second: next,
        }
    }
}

/// Boxed conditioners condition like their contents, so heterogeneous
/// stacks (e.g. the pipeline's runtime-selected machine) mount anywhere
/// a generic [`Conditioner`] is expected — notably behind
/// [`ConditionerStage`](crate::kernel::ConditionerStage).
impl<C: Conditioner + ?Sized> Conditioner for Box<C> {
    fn push(&mut self, raw: bool) -> Option<bool> {
        (**self).push(raw)
    }

    fn expected_ratio(&self) -> f64 {
        (**self).expected_ratio()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn condition_block(&mut self, raw: &[u8], sink: &mut BitSink<'_>) {
        // Forward explicitly: without this, a boxed machine would fall
        // back to the default bit-serial loop (correct but slow) and
        // the pipeline's runtime-selected conditioner would lose the
        // table-driven fast path.
        (**self).condition_block(raw, sink)
    }
}

/// Marker alias for the block conditioning interface: every
/// [`Conditioner`] is a `BlockConditioner`, because
/// [`Conditioner::condition_block`] ships a provided bit-serial
/// fallback. The alias exists so APIs can name the block-capable bound
/// explicitly; the in-tree machines override the fallback with
/// table-driven GF(2) kernels (see the module docs and DESIGN.md §12).
pub trait BlockConditioner: Conditioner {}

impl<C: Conditioner + ?Sized> BlockConditioner for C {}

/// Von Neumann debiaser: consumes raw bits in pairs; an unequal pair
/// emits its second bit, an equal pair is discarded.
///
/// Removes *all* bias from an independent source; costs `2 / (2pq)` raw
/// bits per output bit (4.0 when unbiased, worse when biased).
#[derive(Debug, Clone, Default)]
pub struct VonNeumannConditioner {
    held: Option<bool>,
}

impl VonNeumannConditioner {
    /// A fresh debiaser (no bit held).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Portable pair-compaction table for the Von Neumann block path.
///
/// Indexed by `d | (v << 1)` where `d` (⊆ 0x55) marks unequal pairs at
/// even bit positions and `v` (⊆ `d`) holds each pair's second bit at
/// the same position: `cnt` is the number of emissions (≤ 4) and
/// `bits` the emitted second bits compacted MSB-first — a table-driven
/// substitute for the `pext` instruction.
struct VnCompact {
    cnt: [u8; 256],
    bits: [u8; 256],
}

const fn build_vn_compact() -> VnCompact {
    let mut cnt = [0u8; 256];
    let mut bits = [0u8; 256];
    let mut idx = 0usize;
    while idx < 256 {
        let d = (idx as u8) & 0x55;
        let v = ((idx as u8) >> 1) & d;
        let mut c = 0u8;
        let mut b = 0u8;
        let mut pos = 6i32;
        loop {
            if (d >> pos) & 1 == 1 {
                b = (b << 1) | ((v >> pos) & 1);
                c += 1;
            }
            if pos == 0 {
                break;
            }
            pos -= 2;
        }
        cnt[idx] = c;
        bits[idx] = b;
        idx += 1;
    }
    VnCompact { cnt, bits }
}

static VN_COMPACT: VnCompact = build_vn_compact();

impl Conditioner for VonNeumannConditioner {
    fn push(&mut self, raw: bool) -> Option<bool> {
        match self.held.take() {
            None => {
                self.held = Some(raw);
                None
            }
            Some(first) => (first != raw).then_some(raw),
        }
    }

    fn expected_ratio(&self) -> f64 {
        4.0
    }

    fn reset(&mut self) {
        self.held = None;
    }

    fn condition_block(&mut self, raw: &[u8], sink: &mut BitSink<'_>) {
        if raw.is_empty() {
            return;
        }
        if let Some(mut h) = self.held.take() {
            // Misaligned stream: the held first-of-pair makes every
            // pair straddle a byte boundary, and each byte re-arms the
            // hold (8 bits = 1 straddling pair + 3 whole pairs + 1
            // leftover), so misalignment is sticky. Per byte: resolve
            // the straddling pair, compact the 3 interior pairs via
            // the same table as the aligned path (shifted left one),
            // and hold the last bit.
            for &b in raw {
                let second = (b >> 7) & 1 == 1;
                if h != second {
                    sink.push_bit(second);
                }
                let t = b << 1;
                let d = ((t >> 1) ^ t) & 0x54;
                let idx = (d | ((t & d) << 1)) as usize;
                sink.push_bits(VN_COMPACT.bits[idx], u32::from(VN_COMPACT.cnt[idx]));
                h = b & 1 == 1;
            }
            self.held = Some(h);
            return;
        }
        // Aligned stream: pairs never straddle bytes and the hold
        // stays clear. Wide-mask pair compare over 64 raw bits at a
        // time: `d` flags unequal pairs, `v` carries each pair's
        // second bit; per-byte table lookups do the bit compaction.
        let mut chunks = raw.chunks_exact(8);
        for chunk in &mut chunks {
            let w = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
            let d = ((w >> 1) ^ w) & 0x5555_5555_5555_5555;
            if d == 0 {
                continue;
            }
            let v = w & d;
            let mut shift = 56i32;
            loop {
                let db = (d >> shift) as u8;
                if db != 0 {
                    let idx = (db | (((v >> shift) as u8) << 1)) as usize;
                    sink.push_bits(VN_COMPACT.bits[idx], u32::from(VN_COMPACT.cnt[idx]));
                }
                if shift == 0 {
                    break;
                }
                shift -= 8;
            }
        }
        for &b in chunks.remainder() {
            let d = ((b >> 1) ^ b) & 0x55;
            let idx = (d | ((b & d) << 1)) as usize;
            sink.push_bits(VN_COMPACT.bits[idx], u32::from(VN_COMPACT.cnt[idx]));
        }
    }
}

/// XOR decimator: each output bit is the XOR of `factor` raw bits.
///
/// By the piling-up lemma (paper Eq. 4), input bias `e` becomes output
/// bias `2^(factor - 1) * e^factor` at a linear `factor : 1` rate cost.
#[derive(Debug, Clone)]
pub struct XorFold {
    factor: u32,
    acc: bool,
    fed: u32,
}

impl XorFold {
    /// A fold over `factor` raw bits per output bit.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn new(factor: u32) -> Self {
        assert!(factor > 0, "decimation factor must be positive");
        Self {
            factor,
            acc: false,
            fed: 0,
        }
    }

    /// The fold factor (= raw bits per output bit).
    pub fn factor(&self) -> u32 {
        self.factor
    }
}

/// Byte-fold tables for the [`XorFold`] block path: packed parities of
/// the consecutive 2-, 4-, and 8-bit groups of a byte (MSB-first), for
/// the aligned byte-divides-factor fast cases.
struct XfFold {
    f2: [u8; 256],
    f4: [u8; 256],
    f8: [u8; 256],
}

const fn xf_groups(b: u8, f: u32) -> u8 {
    let mut out = 0u8;
    let mut g = 0u32;
    while g < 8 / f {
        let seg = (b as u32 >> (8 - f * (g + 1))) & ((1u32 << f) - 1);
        out = (out << 1) | (seg.count_ones() & 1) as u8;
        g += 1;
    }
    out
}

const fn build_xf_fold() -> XfFold {
    let mut t = XfFold {
        f2: [0; 256],
        f4: [0; 256],
        f8: [0; 256],
    };
    let mut b = 0usize;
    while b < 256 {
        t.f2[b] = xf_groups(b as u8, 2);
        t.f4[b] = xf_groups(b as u8, 4);
        t.f8[b] = xf_groups(b as u8, 8);
        b += 1;
    }
    t
}

static XF_FOLD: XfFold = build_xf_fold();

impl Conditioner for XorFold {
    fn push(&mut self, raw: bool) -> Option<bool> {
        self.acc ^= raw;
        self.fed += 1;
        if self.fed == self.factor {
            let out = self.acc;
            self.acc = false;
            self.fed = 0;
            Some(out)
        } else {
            None
        }
    }

    fn expected_ratio(&self) -> f64 {
        f64::from(self.factor)
    }

    fn reset(&mut self) {
        self.acc = false;
        self.fed = 0;
    }

    fn condition_block(&mut self, raw: &[u8], sink: &mut BitSink<'_>) {
        let f = self.factor;
        if f == 1 {
            // Factor 1 is the identity fold: the output byte IS the
            // input byte.
            for &b in raw {
                sink.push_bits(b, 8);
            }
            return;
        }
        for &b in raw {
            if self.fed == 0 && 8 % f == 0 {
                // Aligned and the factor divides the byte: one table
                // lookup folds the whole byte and alignment is sticky.
                let (bits, n) = match f {
                    2 => (XF_FOLD.f2[b as usize], 4),
                    4 => (XF_FOLD.f4[b as usize], 2),
                    _ => (XF_FOLD.f8[b as usize], 1),
                };
                sink.push_bits(bits, n);
                continue;
            }
            if self.fed + 8 < f {
                // The whole byte folds into the accumulator.
                self.acc ^= b.count_ones() & 1 == 1;
                self.fed += 8;
                continue;
            }
            // At least one emission lands inside this byte: close the
            // partial group, fold the whole groups, accumulate the
            // leftover bits.
            let k1 = (f - self.fed) as usize;
            let first = (u32::from(b) >> (8 - k1)).count_ones() & 1 == 1;
            let mut bits = u8::from(self.acc ^ first);
            let mut n = 1u32;
            let mut start = k1;
            while start + f as usize <= 8 {
                let seg = (u32::from(b) >> (8 - start - f as usize)) & ((1u32 << f) - 1);
                bits = (bits << 1) | (seg.count_ones() & 1) as u8;
                n += 1;
                start += f as usize;
            }
            let rem = 8 - start;
            self.acc = rem > 0 && (u32::from(b) & ((1u32 << rem) - 1)).count_ones() & 1 == 1;
            self.fed = rem as u32;
            sink.push_bits(bits, n);
        }
    }
}

/// CRC-16/CCITT polynomial (x^16 + x^12 + x^5 + 1).
const CRC_POLY: u16 = 0x1021;
/// CRC-16/CCITT initial register value.
const CRC_INIT: u16 = 0xFFFF;

/// CRC-based whitener with a configurable compression ratio.
///
/// Raw bits shift serially into a CRC-16/CCITT register; every `ratio`
/// raw bits the register's low bit is emitted. Each output bit
/// therefore mixes the full 16-bit register history plus the `ratio`
/// fresh bits — unlike a plain XOR fold, local raw structure is spread
/// across many output bits.
///
/// * `ratio = 1`: rate-preserving whitening (cosmetic — no entropy is
///   added, exactly like the classic LFSR whitener);
/// * `ratio >= 2`: a genuine conditioner, concentrating `ratio` raw
///   bits into each output bit.
#[derive(Debug, Clone)]
pub struct CrcWhitener {
    ratio: u32,
    crc: u16,
    fed: u32,
    /// GF(2) byte-transition tables for the block path, built once at
    /// construction for this ratio (`None` above
    /// [`CRC_TABLE_MAX_RATIO`], where the bit-serial path is already
    /// emission-starved and cheap). Shared by clones.
    tables: Option<Arc<CrcTables>>,
}

/// Largest ratio for which [`CrcWhitener`] precomputes block tables.
/// Above this, each input byte emits at most rarely and the serial
/// fallback costs little, while the per-phase tables would grow
/// linearly in the ratio.
const CRC_TABLE_MAX_RATIO: u32 = 64;

/// Byte-transition tables for the CRC block path.
///
/// The serial CRC step is linear over GF(2) with no affine term
/// (`crc' = (crc << 1) ^ (fed_back · POLY)`, `fed_back = crc₁₅ ^ raw`),
/// so both the 8-step state advance and the packed emissions
/// superpose: `f(crc, byte) = f(crc_hi, 0) ^ f(crc_lo, 0) ^ f(0, byte)`.
/// State advance is phase-independent (emitting never mutates the
/// register); the emission tables are per phase (`fed` at byte start),
/// because the phase decides *which* of the 8 intermediate low bits
/// are sampled. All entries are built by brute-force simulation of the
/// bit-serial machine, so bit-identity holds by construction.
#[derive(Debug)]
struct CrcTables {
    s_hi: [u16; 256],
    s_lo: [u16; 256],
    s_b: [u16; 256],
    /// Per phase: packed emissions (MSB-first) attributable to the
    /// input byte / register high byte / register low byte.
    e_b: Vec<[u8; 256]>,
    e_hi: Vec<[u8; 256]>,
    e_lo: Vec<[u8; 256]>,
    /// Per phase: emissions per byte (0..=8), the same for every input.
    count: Vec<u8>,
}

fn build_crc_tables(ratio: u32) -> CrcTables {
    let sim = |crc: u16, fed: u32, byte: u8| -> (u16, u8, u8) {
        let mut m = CrcWhitener {
            ratio,
            crc,
            fed,
            tables: None,
        };
        let mut bits = 0u8;
        let mut n = 0u8;
        for i in (0..8).rev() {
            if let Some(bit) = m.push((byte >> i) & 1 == 1) {
                bits = (bits << 1) | u8::from(bit);
                n += 1;
            }
        }
        (m.crc, bits, n)
    };
    let mut t = CrcTables {
        s_hi: [0; 256],
        s_lo: [0; 256],
        s_b: [0; 256],
        e_b: Vec::with_capacity(ratio as usize),
        e_hi: Vec::with_capacity(ratio as usize),
        e_lo: Vec::with_capacity(ratio as usize),
        count: Vec::with_capacity(ratio as usize),
    };
    for x in 0..256usize {
        t.s_hi[x] = sim((x as u16) << 8, 0, 0).0;
        t.s_lo[x] = sim(x as u16, 0, 0).0;
        t.s_b[x] = sim(0, 0, x as u8).0;
    }
    for p in 0..ratio {
        let mut e_b = [0u8; 256];
        let mut e_hi = [0u8; 256];
        let mut e_lo = [0u8; 256];
        for x in 0..256usize {
            e_b[x] = sim(0, p, x as u8).1;
            e_hi[x] = sim((x as u16) << 8, p, 0).1;
            e_lo[x] = sim(x as u16, p, 0).1;
        }
        t.e_b.push(e_b);
        t.e_hi.push(e_hi);
        t.e_lo.push(e_lo);
        t.count.push(sim(0, p, 0).2);
    }
    t
}

impl CrcWhitener {
    /// A whitener emitting one bit per `ratio` raw bits.
    ///
    /// Ratios up to 64 also precompute the GF(2)
    /// byte-transition tables behind
    /// [`condition_block`](Conditioner::condition_block); larger
    /// ratios fall back to the bit-serial path there.
    ///
    /// # Panics
    ///
    /// Panics if `ratio == 0`.
    pub fn new(ratio: u32) -> Self {
        assert!(ratio > 0, "compression ratio must be positive");
        let tables = (ratio <= CRC_TABLE_MAX_RATIO).then(|| Arc::new(build_crc_tables(ratio)));
        Self {
            ratio,
            crc: CRC_INIT,
            fed: 0,
            tables,
        }
    }

    /// The compression ratio (= raw bits per output bit).
    pub fn ratio(&self) -> u32 {
        self.ratio
    }
}

impl Conditioner for CrcWhitener {
    fn push(&mut self, raw: bool) -> Option<bool> {
        // Bit-serial CRC step: feed the raw bit at the register's top.
        let fed_back = (self.crc >> 15) ^ u16::from(raw);
        self.crc <<= 1;
        if fed_back == 1 {
            self.crc ^= CRC_POLY;
        }
        self.fed += 1;
        if self.fed == self.ratio {
            self.fed = 0;
            // Emit the register's low bit. NOT the register parity: the
            // parity of a CRC register is a degenerate linear output —
            // each push flips it iff the raw bit is 1, so a
            // parity-emitting "whitener" collapses to a running XOR
            // accumulator and a stuck source yields constant output.
            // The low bit is a full mix of the register history.
            Some(self.crc & 1 == 1)
        } else {
            None
        }
    }

    fn expected_ratio(&self) -> f64 {
        f64::from(self.ratio)
    }

    fn reset(&mut self) {
        self.crc = CRC_INIT;
        self.fed = 0;
    }

    fn condition_block(&mut self, raw: &[u8], sink: &mut BitSink<'_>) {
        let Some(t) = self.tables.clone() else {
            for &byte in raw {
                for i in (0..8).rev() {
                    if let Some(bit) = self.push((byte >> i) & 1 == 1) {
                        sink.push_bit(bit);
                    }
                }
            }
            return;
        };
        let mut crc = self.crc;
        if 8 % self.ratio == 0 {
            // Constant-phase fast lane (ratio 1/2/4/8): the phase is
            // invariant across bytes, so the per-phase emission tables
            // hoist out of the loop and the packer runs on locals —
            // one flush per input byte at most (n ≤ 8).
            let p = self.fed as usize;
            let n = 8 / self.ratio;
            let (e_b, e_hi, e_lo) = (&t.e_b[p], &t.e_hi[p], &t.e_lo[p]);
            let mut acc = u32::from(sink.acc);
            let mut acc_len = sink.acc_len;
            let mut w = sink.bytes;
            for &b in raw {
                let hi = (crc >> 8) as u8 as usize;
                let lo = crc as u8 as usize;
                let bits = e_b[b as usize] ^ e_hi[hi] ^ e_lo[lo];
                crc = t.s_hi[hi] ^ t.s_lo[lo] ^ t.s_b[b as usize];
                acc = (acc << n) | u32::from(bits);
                acc_len += n;
                if acc_len >= 8 {
                    acc_len -= 8;
                    sink.buf[w] = (acc >> acc_len) as u8;
                    w += 1;
                    acc &= (1u32 << acc_len) - 1;
                }
            }
            sink.pushed += u64::from(n) * raw.len() as u64;
            sink.bytes = w;
            sink.acc = acc as u8;
            sink.acc_len = acc_len;
        } else {
            let mut fed = self.fed;
            for &b in raw {
                let p = fed as usize;
                let hi = (crc >> 8) as u8 as usize;
                let lo = crc as u8 as usize;
                let n = t.count[p];
                if n > 0 {
                    let bits = t.e_b[p][b as usize] ^ t.e_hi[p][hi] ^ t.e_lo[p][lo];
                    sink.push_bits(bits, u32::from(n));
                }
                crc = t.s_hi[hi] ^ t.s_lo[lo] ^ t.s_b[b as usize];
                fed = (fed + 8) % self.ratio;
            }
            self.fed = fed;
        }
        self.crc = crc;
    }
}

/// The legacy 16-bit Fibonacci LFSR whitener (x^16 + x^14 + x^13 +
/// x^11 + 1), rate-preserving: the raw bit is injected into the
/// feedback and the register's low bit is emitted every push.
///
/// Kept distinct from [`CrcWhitener`] so the historical whitened stream
/// stays bit-for-bit stable.
#[derive(Debug, Clone)]
pub struct LfsrConditioner {
    state: u16,
}

impl LfsrConditioner {
    /// Non-zero initial register.
    const SEED: u16 = 0xACE1;

    /// A fresh whitener.
    pub fn new() -> Self {
        Self { state: Self::SEED }
    }
}

impl Default for LfsrConditioner {
    fn default() -> Self {
        Self::new()
    }
}

/// Byte-transition tables for the LFSR block path. The serial step is
/// linear over GF(2) with no affine term (`state' = (state >> 1) ^
/// ((fb ^ raw) << 15)`, `fb` a parity of state taps), so the 8-step
/// advance and the 8 packed emissions both superpose across the state
/// high byte, state low byte, and input byte.
struct LfsrTables {
    s_hi: [u16; 256],
    s_lo: [u16; 256],
    s_b: [u16; 256],
    e_hi: [u8; 256],
    e_lo: [u8; 256],
    e_b: [u8; 256],
}

const fn lfsr_byte(state: u16, byte: u8) -> (u16, u8) {
    let mut s = state;
    let mut out = 0u8;
    let mut i = 7i32;
    loop {
        let raw = ((byte >> i) & 1) as u16;
        let fb = (s ^ (s >> 2) ^ (s >> 3) ^ (s >> 5)) & 1;
        s = (s >> 1) | ((fb ^ raw) << 15);
        out = (out << 1) | (s & 1) as u8;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    (s, out)
}

const fn build_lfsr_tables() -> LfsrTables {
    let mut t = LfsrTables {
        s_hi: [0; 256],
        s_lo: [0; 256],
        s_b: [0; 256],
        e_hi: [0; 256],
        e_lo: [0; 256],
        e_b: [0; 256],
    };
    let mut x = 0usize;
    while x < 256 {
        let (s, e) = lfsr_byte((x as u16) << 8, 0);
        t.s_hi[x] = s;
        t.e_hi[x] = e;
        let (s, e) = lfsr_byte(x as u16, 0);
        t.s_lo[x] = s;
        t.e_lo[x] = e;
        let (s, e) = lfsr_byte(0, x as u8);
        t.s_b[x] = s;
        t.e_b[x] = e;
        x += 1;
    }
    t
}

static LFSR_TABLES: LfsrTables = build_lfsr_tables();

impl Conditioner for LfsrConditioner {
    fn push(&mut self, raw: bool) -> Option<bool> {
        let fb = (self.state ^ (self.state >> 2) ^ (self.state >> 3) ^ (self.state >> 5)) & 1;
        self.state = (self.state >> 1) | ((fb ^ u16::from(raw)) << 15);
        Some(self.state & 1 == 1)
    }

    fn expected_ratio(&self) -> f64 {
        1.0
    }

    fn reset(&mut self) {
        self.state = Self::SEED;
    }

    fn condition_block(&mut self, raw: &[u8], sink: &mut BitSink<'_>) {
        let t = &LFSR_TABLES;
        let mut s = self.state;
        // Rate-preserving: exactly one output byte per input byte, so
        // the packer runs on locals with a single flush per iteration.
        let mut acc = u32::from(sink.acc);
        let acc_len = sink.acc_len;
        let mut w = sink.bytes;
        for &b in raw {
            let hi = (s >> 8) as u8 as usize;
            let lo = s as u8 as usize;
            let out = t.e_hi[hi] ^ t.e_lo[lo] ^ t.e_b[b as usize];
            s = t.s_hi[hi] ^ t.s_lo[lo] ^ t.s_b[b as usize];
            acc = (acc << 8) | u32::from(out);
            sink.buf[w] = (acc >> acc_len) as u8;
            w += 1;
            acc &= (1u32 << acc_len) - 1;
        }
        sink.pushed += 8 * raw.len() as u64;
        sink.bytes = w;
        sink.acc = acc as u8;
        sink.acc_len = acc_len;
        self.state = s;
    }
}

/// Two conditioners in sequence (built by [`Conditioner::then`]): raw
/// bits feed the first; its emissions feed the second; the second's
/// emissions are the chain's output.
#[derive(Debug, Clone)]
pub struct Chain<A, B> {
    first: A,
    second: B,
}

/// Staging-chunk size for the chain block path: the first machine's
/// emissions for one chunk are packed into a stack buffer this large
/// before feeding the second machine's block path.
const CHAIN_STAGING: usize = 64;

impl<A: Conditioner, B: Conditioner> Conditioner for Chain<A, B> {
    fn push(&mut self, raw: bool) -> Option<bool> {
        self.first.push(raw).and_then(|mid| self.second.push(mid))
    }

    fn expected_ratio(&self) -> f64 {
        self.first.expected_ratio() * self.second.expected_ratio()
    }

    fn reset(&mut self) {
        self.first.reset();
        self.second.reset();
    }

    fn condition_block(&mut self, raw: &[u8], sink: &mut BitSink<'_>) {
        // Compose the two block paths through a small stack staging
        // buffer: per input chunk, the first machine's emissions are
        // packed into `mid` (a ratio ≥ 1 bounds them by the chunk size
        // plus a 7-bit overhang, hence the +1 byte), whole mid-bytes
        // feed the second machine's block path, and the ≤ 7 leftover
        // mid-bits are pushed bit-serially — the second machine sees
        // exactly the bit sequence the serial chain would feed it, in
        // order, so the chain stays a pure function of the raw stream
        // and nothing is buffered across calls (no rollback hazard:
        // every staged bit is either emitted into `sink` or absorbed
        // into machine state before this call returns).
        let mut mid = [0u8; CHAIN_STAGING + 1];
        for chunk in raw.chunks(CHAIN_STAGING) {
            let (whole, tail, tail_len) = {
                let mut mid_sink = BitSink::new(&mut mid);
                self.first.condition_block(chunk, &mut mid_sink);
                mid_sink.into_parts()
            };
            self.second.condition_block(&mid[..whole], sink);
            for i in (0..tail_len).rev() {
                if let Some(bit) = self.second.push((tail >> i) & 1 == 1) {
                    sink.push_bit(bit);
                }
            }
        }
    }
}

/// A [`Trng`] whose output is another `Trng` run through a
/// [`Conditioner`] — the single-instance form of the pipeline's
/// conditioned tier.
///
/// Byte reads ([`fill_bytes`](Trng::fill_bytes), and
/// [`next_word`](Trng::next_word) through it) pull raw bytes in staged
/// chunks through the inner generator's batched fast path and run them
/// through the conditioner's block kernel
/// ([`condition_block`](Conditioner::condition_block)); per-bit reads
/// drain any pending block output before falling back to the serial
/// machine. Either way the conditioned stream is identical to a
/// per-bit pull (conditioning is a pure function of the raw stream),
/// just cheaper per raw bit.
///
/// The adaptor keeps a throughput ledger: [`consumed`](Self::consumed)
/// raw bits vs [`emitted`](Self::emitted) conditioned bits, with
/// [`measured_ratio`](Self::measured_ratio) as their quotient.
///
/// # Liveness
///
/// [`next_bit`](Trng::next_bit) pulls raw bits until the conditioner
/// emits; a conditioner that never emits on the given source spins
/// forever — the canonical case is [`VonNeumannConditioner`] over a
/// stuck source, which discards every (equal) pair. Run health tests
/// upstream of the conditioner, as the stream pipeline does: a source
/// degenerate enough to starve a conditioner is one the SP 800-90B
/// continuous tests retire first.
#[derive(Debug, Clone)]
pub struct Conditioned<T, C> {
    inner: T,
    conditioner: C,
    raw_word: u64,
    raw_left: u32,
    /// Conditioned bits emitted by a block-path fill but not yet
    /// handed out (low `out_len` bits, earliest highest).
    out_acc: u8,
    out_len: u32,
    consumed: u64,
    emitted: u64,
}

impl<T: Trng, C: Conditioner> Conditioned<T, C> {
    /// Mounts `conditioner` on `inner`.
    pub fn new(inner: T, conditioner: C) -> Self {
        Self {
            inner,
            conditioner,
            raw_word: 0,
            raw_left: 0,
            out_acc: 0,
            out_len: 0,
            consumed: 0,
            emitted: 0,
        }
    }

    /// Raw bits fed to the conditioner so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Conditioned bits emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Measured raw-bits-per-output-bit (infinite until the first
    /// emission).
    pub fn measured_ratio(&self) -> f64 {
        if self.emitted == 0 {
            f64::INFINITY
        } else {
            self.consumed as f64 / self.emitted as f64
        }
    }

    /// The conditioner's declared expected ratio.
    pub fn expected_ratio(&self) -> f64 {
        self.conditioner.expected_ratio()
    }

    /// The mounted conditioner.
    pub fn conditioner(&self) -> &C {
        &self.conditioner
    }

    /// Unwraps the raw source.
    ///
    /// The source may sit up to 63 bits past the last conditioned bit
    /// handed out: raw bits are pulled in 64-bit words (or staged
    /// chunks on the block path), and a partially drained word — plus
    /// up to 7 conditioned bits a block fill emitted but never handed
    /// out — is dropped here.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Trng, C: Conditioner> Trng for Conditioned<T, C> {
    fn next_bit(&mut self) -> bool {
        // Bits a block fill over-produced come first: they are earlier
        // in the conditioned stream than anything the machine emits
        // next.
        if self.out_len > 0 {
            self.out_len -= 1;
            return (self.out_acc >> self.out_len) & 1 == 1;
        }
        loop {
            if self.raw_left == 0 {
                self.raw_word = self.inner.next_word();
                self.raw_left = 64;
            }
            self.raw_left -= 1;
            let raw = (self.raw_word >> self.raw_left) & 1 == 1;
            self.consumed += 1;
            if let Some(bit) = self.conditioner.push(raw) {
                self.emitted += 1;
                return bit;
            }
        }
    }

    fn next_word(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        self.fill_bytes(&mut bytes);
        u64::from_be_bytes(bytes)
    }

    fn fill_bytes(&mut self, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let dest_len = buf.len();
        let mut sink = BitSink::from_parts(buf, 0, self.out_acc, self.out_len);
        self.out_acc = 0;
        self.out_len = 0;
        // Stream order: any bits still buffered in the raw word were
        // pulled before whatever the block path pulls next, so they go
        // through the machine first (bit-serially — there are at most
        // 63 of them).
        while sink.bytes_written() < dest_len && self.raw_left > 0 {
            self.raw_left -= 1;
            let raw = (self.raw_word >> self.raw_left) & 1 == 1;
            self.consumed += 1;
            if let Some(bit) = self.conditioner.push(raw) {
                sink.push_bit(bit);
            }
        }
        // Block path: pull raw staging chunks no larger than the
        // remaining output space. Compression ratio ≥ 1 then bounds
        // the sink's completed bytes by the destination length, so the
        // conditioner can never overshoot the buffer (at most 7 bits
        // spill into the partial byte, stashed below).
        let mut staging = [0u8; 64];
        while sink.bytes_written() < dest_len {
            let pull = (dest_len - sink.bytes_written()).min(staging.len());
            self.inner.fill_bytes(&mut staging[..pull]);
            self.consumed += 8 * pull as u64;
            self.conditioner
                .condition_block(&staging[..pull], &mut sink);
        }
        self.emitted += sink.bits_pushed();
        let (_, acc, len) = sink.into_parts();
        self.out_acc = acc;
        self.out_len = len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtrng_noise::NoiseRng;

    /// A tunable biased source.
    struct Biased {
        rng: NoiseRng,
        p_one: f64,
    }

    impl Trng for Biased {
        fn next_bit(&mut self) -> bool {
            self.rng.bernoulli(self.p_one)
        }
    }

    fn biased(p: f64, seed: u64) -> Biased {
        Biased {
            rng: NoiseRng::seed_from_u64(seed),
            p_one: p,
        }
    }

    fn ones_fraction<T: Trng>(t: &mut T, n: usize) -> f64 {
        (0..n).filter(|_| t.next_bit()).count() as f64 / n as f64
    }

    /// Runs `bits` through a conditioner, collecting the emissions.
    fn run<C: Conditioner>(cond: &mut C, bits: impl IntoIterator<Item = bool>) -> Vec<bool> {
        bits.into_iter().filter_map(|b| cond.push(b)).collect()
    }

    #[test]
    fn von_neumann_machine_implements_the_pair_rule() {
        let mut vn = VonNeumannConditioner::new();
        // 00 -> nothing, 01 -> 1, 10 -> 0, 11 -> nothing.
        assert_eq!(
            run(
                &mut vn,
                [false, false, false, true, true, false, true, true]
            ),
            vec![true, false]
        );
    }

    #[test]
    fn xor_fold_emits_every_factor_bits() {
        let mut fold = XorFold::new(3);
        let out = run(&mut fold, [true, true, false, true, false, false]);
        assert_eq!(out, vec![false, true]);
        assert_eq!(fold.factor(), 3);
        // Factor 1 is the identity.
        let mut id = XorFold::new(1);
        let bits = [true, false, true, true];
        assert_eq!(run(&mut id, bits), bits.to_vec());
    }

    #[test]
    fn crc_whitener_respects_ratio_and_resets() {
        for ratio in [1u32, 2, 7, 64] {
            let mut crc = CrcWhitener::new(ratio);
            let n = 5 * ratio as usize + (ratio as usize / 2);
            let out = run(&mut crc, (0..n).map(|i| i % 3 == 0));
            assert_eq!(out.len(), n / ratio as usize, "ratio = {ratio}");
        }
        // reset() discards both the register and the partial count.
        let mut crc = CrcWhitener::new(4);
        let _ = run(&mut crc, [true, false, true]);
        crc.reset();
        let mut fresh = CrcWhitener::new(4);
        let input: Vec<bool> = (0..32).map(|i| i % 5 == 0).collect();
        assert_eq!(run(&mut crc, input.clone()), run(&mut fresh, input));
    }

    #[test]
    fn crc_whitener_balances_biased_input() {
        let mut source = biased(0.7, 11);
        let mut crc = CrcWhitener::new(2);
        let out = run(&mut crc, (0..200_000).map(|_| source.next_bit()));
        let frac = out.iter().filter(|&&b| b).count() as f64 / out.len() as f64;
        assert!((frac - 0.5).abs() < 0.005, "frac = {frac}");
    }

    #[test]
    fn chain_composes_ratios_and_streams() {
        let mut chain = XorFold::new(2).then(XorFold::new(3));
        assert_eq!(chain.expected_ratio(), 6.0);
        // XOR of 2 then XOR of 3 == XOR of 6.
        let mut flat = XorFold::new(6);
        let input: Vec<bool> = (0..120).map(|i| (i * 7) % 11 < 5).collect();
        assert_eq!(run(&mut chain, input.clone()), run(&mut flat, input));
    }

    #[test]
    fn conditioned_adaptor_keeps_ledgers() {
        let mut c = Conditioned::new(biased(0.5, 3), XorFold::new(4));
        let _ = c.collect_bits(1000);
        assert_eq!(c.emitted(), 1000);
        assert_eq!(c.consumed(), 4000);
        assert_eq!(c.measured_ratio(), 4.0);
        assert_eq!(c.expected_ratio(), 4.0);
        assert_eq!(c.conditioner().factor(), 4);
    }

    #[test]
    fn conditioned_stream_is_a_pure_function_of_the_raw_stream() {
        // Same seed, different pull patterns: identical conditioned bits.
        let make = || Conditioned::new(biased(0.5, 9), CrcWhitener::new(3));
        let mut per_bit = make();
        let reference: Vec<bool> = (0..500).map(|_| per_bit.next_bit()).collect();
        let mut batched = make();
        assert_eq!(batched.collect_bits(500), reference);
    }

    #[test]
    fn von_neumann_adaptor_debiases_completely() {
        let mut vn = Conditioned::new(biased(0.7, 1), VonNeumannConditioner::new());
        let frac = ones_fraction(&mut vn, 100_000);
        assert!((frac - 0.5).abs() < 0.006, "frac = {frac}");
        // Cost near the 2/(2pq) = 4.76 theory value.
        assert!((vn.measured_ratio() - 4.76).abs() < 0.15);
    }

    #[test]
    fn von_neumann_cost_matches_theory() {
        // For p = 0.7: P(accept pair) = 2pq = 0.42 -> cost = 2/0.42 = 4.76.
        let mut vn = Conditioned::new(biased(0.7, 2), VonNeumannConditioner::new());
        let _ = ones_fraction(&mut vn, 50_000);
        let cost = vn.measured_ratio();
        assert!((cost - 4.76).abs() < 0.15, "cost = {cost}");
        // Unbiased source: cost -> 4.0.
        let mut vn = Conditioned::new(biased(0.5, 3), VonNeumannConditioner::new());
        let _ = ones_fraction(&mut vn, 50_000);
        let cost = vn.measured_ratio();
        assert!((cost - 4.0).abs() < 0.1, "cost = {cost}");
    }

    #[test]
    fn xor_decimation_follows_piling_up() {
        // bias 0.2 (p = 0.7); after XOR-4 the bias is 2^3 * 0.2^4 = 0.0128.
        let mut x4 = Conditioned::new(biased(0.7, 4), XorFold::new(4));
        let frac = ones_fraction(&mut x4, 400_000);
        let bias = (frac - 0.5).abs();
        assert!((bias - 0.0128).abs() < 0.004, "bias = {bias}");
    }

    #[test]
    fn lfsr_whitener_balances_structured_input() {
        // A heavily periodic source looks balanced after whitening (but
        // carries no more entropy than before, hence "cosmetic").
        struct Period6(u64);
        impl Trng for Period6 {
            fn next_bit(&mut self) -> bool {
                self.0 += 1;
                (self.0 / 3) % 2 == 0
            }
        }
        let mut w = Conditioned::new(Period6(0), LfsrConditioner::new());
        let frac = ones_fraction(&mut w, 100_000);
        assert!((frac - 0.5).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn whitener_preserves_source_entropy_injection() {
        // Two whiteners over different random streams diverge; over
        // identical streams they agree (the raw bits drive the state).
        let whitener = |seed| Conditioned::new(biased(0.5, seed), LfsrConditioner::new());
        let seq_a = whitener(7).collect_bits(128);
        let seq_b = whitener(7).collect_bits(128);
        let seq_c = whitener(8).collect_bits(128);
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn dh_trng_gains_nothing_from_post_processing() {
        // The paper's point: DH-TRNG output is already balanced, so the
        // corrector only costs throughput.
        use crate::trng::DhTrng;
        let mut raw = DhTrng::builder().seed(9).build();
        let raw_frac = ones_fraction(&mut raw, 200_000);
        let mut vn = Conditioned::new(
            DhTrng::builder().seed(9).build(),
            VonNeumannConditioner::new(),
        );
        let vn_frac = ones_fraction(&mut vn, 50_000);
        assert!((raw_frac - 0.5).abs() < 0.005);
        assert!((vn_frac - 0.5).abs() < 0.007);
        // ... but the corrector burned 4x the raw bits.
        assert!(vn.measured_ratio() > 3.8);
    }

    #[test]
    fn empty_input_emits_nothing() {
        // Zero pushes -> zero emissions, ledgers stay zeroed, ratio is
        // the defined infinity.
        let c = Conditioned::new(biased(0.5, 1), VonNeumannConditioner::new());
        assert_eq!(c.consumed(), 0);
        assert_eq!(c.emitted(), 0);
        assert!(c.measured_ratio().is_infinite());
    }

    /// Reference: push `raw` bit-serially through a fresh clone of the
    /// machine's state, packing emissions like the block path does.
    fn serial_block<C: Conditioner + Clone>(cond: &C, raw: &[u8]) -> (Vec<u8>, u8, u32) {
        let mut serial = cond.clone();
        let mut out = vec![0u8; raw.len() + 1];
        let (bytes, acc, len) = {
            let mut sink = BitSink::new(&mut out);
            for &byte in raw {
                for i in (0..8).rev() {
                    if let Some(bit) = serial.push((byte >> i) & 1 == 1) {
                        sink.push_bit(bit);
                    }
                }
            }
            sink.into_parts()
        };
        out.truncate(bytes);
        (out, acc, len)
    }

    /// Asserts the block path matches the serial path bit-for-bit over
    /// `raw`, split across arbitrary slice boundaries, and returns the
    /// machine in its post-block state.
    fn assert_block_matches<C: Conditioner + Clone>(mut cond: C, raw: &[u8], splits: &[usize]) {
        let (want, want_acc, want_len) = serial_block(&cond, raw);
        let mut out = vec![0u8; raw.len() + 1];
        let (bytes, acc, len) = {
            let mut sink = BitSink::new(&mut out);
            let mut pos = 0;
            for &s in splits {
                let end = (pos + s).min(raw.len());
                cond.condition_block(&raw[pos..end], &mut sink);
                pos = end;
            }
            cond.condition_block(&raw[pos..], &mut sink);
            sink.into_parts()
        };
        out.truncate(bytes);
        assert_eq!(out, want);
        assert_eq!((acc, len), (want_acc, want_len));
    }

    fn test_bytes(n: usize, seed: u64) -> Vec<u8> {
        use rand::RngCore;
        let mut rng = NoiseRng::seed_from_u64(seed);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn block_paths_match_serial_for_every_machine() {
        let raw = test_bytes(4096, 21);
        let splits = [1usize, 7, 64, 3, 1000, 13];
        for ratio in [1u32, 2, 3, 5, 7, 8, 11, 63, 64, 65, 200] {
            assert_block_matches(CrcWhitener::new(ratio), &raw, &splits);
        }
        for factor in [1u32, 2, 3, 4, 5, 7, 8, 9, 64, 100] {
            assert_block_matches(XorFold::new(factor), &raw, &splits);
        }
        assert_block_matches(LfsrConditioner::new(), &raw, &splits);
        assert_block_matches(VonNeumannConditioner::new(), &raw, &splits);
    }

    #[test]
    fn block_path_matches_serial_mid_stream_phases() {
        // Start each machine mid-phase (serial pushes first), then run
        // the block path: the tables must resume from any reachable
        // interior state, including a misaligned Von Neumann hold.
        let raw = test_bytes(512, 33);
        for lead in 1..=9usize {
            let lead_bits: Vec<bool> = (0..lead).map(|i| i % 3 == 0).collect();
            for ratio in [1u32, 2, 3, 64] {
                let mut crc = CrcWhitener::new(ratio);
                lead_bits.iter().for_each(|&b| {
                    crc.push(b);
                });
                assert_block_matches(crc, &raw, &[17, 1]);
            }
            for factor in [2u32, 4, 6, 8] {
                let mut xf = XorFold::new(factor);
                lead_bits.iter().for_each(|&b| {
                    xf.push(b);
                });
                assert_block_matches(xf, &raw, &[17, 1]);
            }
            let mut vn = VonNeumannConditioner::new();
            lead_bits.iter().for_each(|&b| {
                vn.push(b);
            });
            assert_block_matches(vn, &raw, &[17, 1]);
        }
    }

    #[test]
    fn chain_block_path_matches_serial() {
        let raw = test_bytes(2048, 55);
        let splits = [200usize, 3, 64];
        assert_block_matches(XorFold::new(2).then(CrcWhitener::new(1)), &raw, &splits);
        assert_block_matches(CrcWhitener::new(2).then(XorFold::new(3)), &raw, &splits);
        assert_block_matches(
            VonNeumannConditioner::new().then(LfsrConditioner::new()),
            &raw,
            &splits,
        );
        assert_block_matches(
            LfsrConditioner::new()
                .then(XorFold::new(2))
                .then(CrcWhitener::new(2)),
            &raw,
            &splits,
        );
    }

    #[test]
    fn boxed_conditioner_forwards_the_block_path() {
        // A boxed machine must produce the same stream as its unboxed
        // self (the Box impl forwards condition_block to the override).
        let raw = test_bytes(1024, 77);
        let (want, want_acc, want_len) = serial_block(&CrcWhitener::new(2), &raw);
        let mut boxed: Box<dyn Conditioner + Send> = Box::new(CrcWhitener::new(2));
        let mut out = vec![0u8; raw.len() + 1];
        let (bytes, acc, len) = {
            let mut sink = BitSink::new(&mut out);
            boxed.condition_block(&raw, &mut sink);
            sink.into_parts()
        };
        out.truncate(bytes);
        assert_eq!(out, want);
        assert_eq!((acc, len), (want_acc, want_len));
    }

    #[test]
    fn bit_sink_packs_and_resumes() {
        let mut buf = [0u8; 4];
        let (bytes, acc, len) = {
            let mut sink = BitSink::new(&mut buf);
            sink.push_bits(0b101, 3); // 1 0 1
            sink.push_bit(true); // 1
            sink.push_bits(0xFF, 6); // 1 1 1 1 1 1
            assert_eq!(sink.bits_pushed(), 10);
            sink.into_parts()
        };
        assert_eq!(bytes, 1);
        assert_eq!(buf[0], 0b1011_1111);
        assert_eq!((acc, len), (0b11, 2));
        let (bytes, _, len) = {
            let mut sink = BitSink::from_parts(&mut buf, bytes, acc, len);
            sink.push_bits(0b110101, 6); // completes 0b11_110101
            sink.into_parts()
        };
        assert_eq!(bytes, 2);
        assert_eq!(buf[1], 0b1111_0101);
        assert_eq!(len, 0);
    }

    #[test]
    fn conditioned_fill_bytes_matches_next_bit_stream() {
        // The block-path fill must walk the same conditioned stream as
        // per-bit pulls, for compressing, rate-preserving, and
        // variable-rate machines — including interleaved pulls that
        // leave partial output bits stashed.
        fn check<C: Conditioner + Clone>(cond: C) {
            let make = |c: C| Conditioned::new(biased(0.5, 42), c);
            let mut per_bit = make(cond.clone());
            let reference: Vec<bool> = (0..61 * 8).map(|_| per_bit.next_bit()).collect();
            let mut packed = Vec::new();
            for chunk in reference.chunks(8) {
                packed.push(chunk.iter().fold(0u8, |a, &b| (a << 1) | u8::from(b)));
            }

            let mut filled = make(cond.clone());
            let mut buf = [0u8; 61];
            filled.fill_bytes(&mut buf);
            assert_eq!(&buf[..], &packed[..], "single fill");

            let mut mixed = make(cond);
            let mut got: Vec<bool> = Vec::new();
            got.push(mixed.next_bit());
            let mut b = [0u8; 13];
            mixed.fill_bytes(&mut b);
            got.extend(
                b.iter()
                    .flat_map(|&x| (0..8).rev().map(move |i| (x >> i) & 1 == 1)),
            );
            got.push(mixed.next_bit());
            got.push(mixed.next_bit());
            let mut b2 = [0u8; 20];
            mixed.fill_bytes(&mut b2);
            got.extend(
                b2.iter()
                    .flat_map(|&x| (0..8).rev().map(move |i| (x >> i) & 1 == 1)),
            );
            assert_eq!(got, reference[..got.len()], "interleaved pulls");
        }
        check(CrcWhitener::new(2));
        check(CrcWhitener::new(1));
        check(LfsrConditioner::new());
        check(VonNeumannConditioner::new());
        check(XorFold::new(4));
        check(XorFold::new(2).then(CrcWhitener::new(2)));
    }

    #[test]
    fn conditioned_block_fill_keeps_ledgers() {
        let mut c = Conditioned::new(biased(0.5, 3), XorFold::new(4));
        let mut buf = [0u8; 125];
        c.fill_bytes(&mut buf);
        assert_eq!(c.emitted(), 1000);
        assert_eq!(c.consumed(), 4000);
        assert_eq!(c.measured_ratio(), 4.0);
    }

    #[test]
    #[should_panic(expected = "decimation factor")]
    fn zero_fold_factor_panics() {
        let _ = XorFold::new(0);
    }

    #[test]
    #[should_panic(expected = "compression ratio")]
    fn zero_crc_ratio_panics() {
        let _ = CrcWhitener::new(0);
    }
}
