//! Stage-graph primitives: block-oriented **source** and **transform**
//! stages over borrowed buffers.
//!
//! The batched fast path ([`batch::BlockKernel`](crate::batch::BlockKernel))
//! made *generation* block-oriented; this module generalises that shape
//! into a small vocabulary the whole output chain is built from, so the
//! post-processing layers stop re-buffering between themselves:
//!
//! * [`BitBlock`] — a borrowed byte buffer plus a valid-bit length: the
//!   unit of work every stage operates on. Blocks are *views* over
//!   caller-owned storage (in production, the streaming engine's
//!   recycled chunk pool), so moving data through a stage graph never
//!   allocates;
//! * [`BlockSource`] — the generation stage: fills a block with the
//!   next bits of a stream. Implemented for **every** [`Trng`] (the
//!   blanket impl routes through the batched
//!   [`fill_bytes`](Trng::fill_bytes) path), so [`DhTrng`](crate::DhTrng),
//!   [`HybridUnitGroup`](crate::HybridUnitGroup), and all the Table 6
//!   baselines in `dhtrng-baselines` are sources as-is;
//! * [`Stage`] — the transform stage: consumes a block's valid bits and
//!   overwrites the block's prefix with its output, **in place**. The
//!   canonical implementation is [`ConditionerStage`], which runs any
//!   [`Conditioner`] over whole blocks instead of pulling bits one
//!   ledger entry at a time.
//!
//! The DRBG output stage is deliberately *not* a [`Stage`]: it is an
//! expander, not a transformer — it consumes seed material only at
//! reseed boundaries and generates output from internal state between
//! them. It participates in the graph as a block *pump* over borrowed
//! buffers instead (see `dhtrng-stream::api::Session` and
//! [`Drbg`](crate::drbg::Drbg), both of which reuse one persistent seed
//! buffer across reseeds).
//!
//! # In-place safety
//!
//! A [`Stage`] writes output over the same bytes it reads. This is
//! sound because a [`Conditioner`] emits at most one bit per bit pushed
//! (compression ratio ≥ 1), so after `k` input bytes are consumed at
//! most `8k + 7` output bits exist (the 7 from partial-byte state
//! carried in from the previous block) — strictly fewer than `k + 1`
//! completed output bytes. [`ConditionerStage`] exploits this by
//! copying the input out in small stack staging chunks and letting the
//! conditioner's block path write straight back over the block: the
//! write cursor can never pass the end of the staged (already copied)
//! region, so no delay line or double buffer is needed and the whole
//! block is conditioned 8 raw bits per table lookup.
//!
//! # Example
//!
//! ```
//! use dhtrng_core::kernel::{BitBlock, BlockSource, ConditionerStage, Stage};
//! use dhtrng_core::conditioning::CrcWhitener;
//! use dhtrng_core::DhTrng;
//!
//! let mut source = DhTrng::builder().seed(7).build();
//! let mut stage = ConditionerStage::new(CrcWhitener::new(2));
//! let mut buf = [0u8; 1024];
//!
//! // Generate a block, then condition it in place: no intermediate
//! // buffer, no allocation.
//! let mut block = BitBlock::empty(&mut buf);
//! source.fill_block(&mut block);
//! stage.process(&mut block);
//! assert_eq!(block.bits(), 4096); // 8192 raw bits at 2:1
//! assert_eq!(stage.measured_ratio(), 2.0);
//! ```

use crate::conditioning::{BitSink, Conditioner};
use crate::trng::Trng;

/// A borrowed byte buffer with a valid-bit length — the unit of work
/// the stage graph passes between stages.
///
/// Bits are packed MSB-first within each byte (bit `i` of the block is
/// bit `7 - i % 8` of byte `i / 8`), the packing every [`Trng`] path
/// produces. The backing storage is caller-owned: in the streaming
/// engine it is a recycled pool chunk, in tests a stack array.
#[derive(Debug)]
pub struct BitBlock<'a> {
    bytes: &'a mut [u8],
    bits: usize,
}

impl<'a> BitBlock<'a> {
    /// A block whose entire backing store holds valid bits (a freshly
    /// generated chunk).
    pub fn full(bytes: &'a mut [u8]) -> Self {
        let bits = bytes.len() * 8;
        Self { bytes, bits }
    }

    /// A block with no valid bits yet (a buffer waiting to be filled).
    pub fn empty(bytes: &'a mut [u8]) -> Self {
        Self { bytes, bits: 0 }
    }

    /// Number of valid bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of *whole* valid bytes (a trailing partial byte, if any,
    /// is excluded).
    pub fn whole_bytes(&self) -> usize {
        self.bits / 8
    }

    /// Capacity of the backing store, in bits.
    pub fn capacity_bits(&self) -> usize {
        self.bytes.len() * 8
    }

    /// The valid whole-byte prefix.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.whole_bytes()]
    }

    /// Reads valid bit `i` (MSB-first within bytes).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.bits()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.bits, "bit {i} out of range ({} valid)", self.bits);
        (self.bytes[i / 8] >> (7 - i % 8)) & 1 == 1
    }

    /// The whole backing store, for stages that read and rewrite it.
    /// The valid length is *not* adjusted; pair with
    /// [`set_valid_bits`](Self::set_valid_bits).
    pub fn backing_mut(&mut self) -> &mut [u8] {
        self.bytes
    }

    /// Declares the first `bits` bits of the backing store valid.
    ///
    /// # Panics
    ///
    /// Panics if `bits` exceeds the backing capacity.
    pub fn set_valid_bits(&mut self, bits: usize) {
        assert!(
            bits <= self.capacity_bits(),
            "{bits} bits exceed the {}-bit capacity",
            self.capacity_bits()
        );
        self.bits = bits;
    }
}

/// A generation stage: fills a [`BitBlock`] with the next bits of a
/// stream.
///
/// This is the stage-graph face of [`batch::BlockKernel`](crate::batch::BlockKernel):
/// the blanket impl makes every [`Trng`] a source, and because the
/// in-tree generators override [`Trng::fill_bytes`] with hoisted-state
/// kernels, filling a block through this trait pays one kernel setup
/// per block. The bit stream is identical to every other `Trng` path.
pub trait BlockSource {
    /// Fills the block's backing store to capacity with the next bits
    /// of the stream and marks it full.
    fn fill_block(&mut self, block: &mut BitBlock<'_>);
}

impl<T: Trng + ?Sized> BlockSource for T {
    fn fill_block(&mut self, block: &mut BitBlock<'_>) {
        self.fill_bytes(block.backing_mut());
        let bits = block.capacity_bits();
        block.set_valid_bits(bits);
    }
}

/// A transform stage: consumes a block's valid bits and overwrites the
/// block's prefix with its output, in place.
///
/// Stages are pure state machines over the bit stream — splitting a
/// stream across differently-sized blocks never changes the
/// concatenated output (partial-byte state carries across calls inside
/// the stage).
pub trait Stage {
    /// Consumes every valid bit of `block` and rewrites the block so
    /// its valid prefix is this stage's output for those bits.
    fn process(&mut self, block: &mut BitBlock<'_>);

    /// Expected input bits per output bit (`>= 1.0`).
    fn expected_ratio(&self) -> f64;
}

/// A [`Conditioner`] mounted as a block [`Stage`], with consumed /
/// emitted throughput ledgers.
///
/// Each [`process`](Stage::process) call feeds the block's valid bits
/// through the machine and packs the emissions back into the block's
/// prefix (whole bytes only; up to 7 pending output bits are carried to
/// the next call, exactly like the bit-serial adaptors). The conditioned
/// stream is bit-identical to pushing the same raw bits one at a time.
#[derive(Debug, Clone)]
pub struct ConditionerStage<C> {
    conditioner: C,
    /// Partial output byte under construction (MSB first).
    acc: u8,
    acc_len: u32,
    consumed: u64,
    emitted: u64,
}

impl<C: Conditioner> ConditionerStage<C> {
    /// Mounts `conditioner` as a block stage.
    pub fn new(conditioner: C) -> Self {
        Self {
            conditioner,
            acc: 0,
            acc_len: 0,
            consumed: 0,
            emitted: 0,
        }
    }

    /// Raw bits fed to the conditioner so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Conditioned bits emitted so far (including any still pending in
    /// the partial output byte).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Measured raw-bits-per-output-bit (infinite before the first
    /// emission).
    pub fn measured_ratio(&self) -> f64 {
        if self.emitted == 0 {
            f64::INFINITY
        } else {
            self.consumed as f64 / self.emitted as f64
        }
    }

    /// The mounted conditioner.
    pub fn conditioner(&self) -> &C {
        &self.conditioner
    }
}

/// Staging-chunk size for in-place block conditioning: input bytes are
/// copied out in chunks this large before the conditioner's block path
/// writes its output back over the same region.
const STAGE_STAGING: usize = 64;

impl<C: Conditioner> Stage for ConditionerStage<C> {
    fn process(&mut self, block: &mut BitBlock<'_>) {
        let in_bits = block.bits();
        let whole = in_bits / 8;
        let bytes = block.backing_mut();
        // Grab the trailing partial byte (if any) before the output
        // cursor can reach it: the ≤ 7 tail bits are fed serially
        // after the whole-byte block path below.
        let tail_byte = if in_bits % 8 != 0 { bytes[whole] } else { 0 };
        // In-place block conditioning through a stack staging copy:
        // each chunk of input bytes is copied out, then the
        // conditioner's block fast path (table-driven for the in-tree
        // machines, bit-serial fallback otherwise) reads the copy and
        // packs its emissions straight back into the block via a
        // resumed [`BitSink`]. Compression ratio ≥ 1 plus the ≤ 7-bit
        // carry keep the completed-output-byte count at or below the
        // consumed-input-byte count, so the write cursor never passes
        // the staged region's end — the delay line the old per-bit
        // loop needed is subsumed by the staging copy.
        let mut staging = [0u8; STAGE_STAGING];
        let mut written = 0usize;
        let mut pushed = 0u64;
        let mut pos = 0usize;
        while pos < whole {
            let n = (whole - pos).min(STAGE_STAGING);
            staging[..n].copy_from_slice(&bytes[pos..pos + n]);
            let mut sink = BitSink::from_parts(bytes, written, self.acc, self.acc_len);
            self.conditioner.condition_block(&staging[..n], &mut sink);
            pushed += sink.bits_pushed();
            let (w, acc, acc_len) = sink.into_parts();
            written = w;
            self.acc = acc;
            self.acc_len = acc_len;
            pos += n;
        }
        if in_bits % 8 != 0 {
            let mut sink = BitSink::from_parts(bytes, written, self.acc, self.acc_len);
            for i in 0..in_bits % 8 {
                if let Some(bit) = self.conditioner.push((tail_byte >> (7 - i)) & 1 == 1) {
                    sink.push_bit(bit);
                }
            }
            pushed += sink.bits_pushed();
            let (w, acc, acc_len) = sink.into_parts();
            written = w;
            self.acc = acc;
            self.acc_len = acc_len;
        }
        self.consumed += in_bits as u64;
        self.emitted += pushed;
        block.set_valid_bits(written * 8);
    }

    fn expected_ratio(&self) -> f64 {
        self.conditioner.expected_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditioning::{CrcWhitener, VonNeumannConditioner, XorFold};
    use crate::trng::DhTrng;
    use dhtrng_noise::NoiseRng;
    use rand::RngCore;

    #[test]
    fn bit_block_views_and_lengths() {
        let mut buf = [0b1010_0000u8, 0xFF];
        let block = BitBlock::full(&mut buf);
        assert_eq!(block.bits(), 16);
        assert_eq!(block.whole_bytes(), 2);
        assert!(block.bit(0));
        assert!(!block.bit(1));
        assert!(block.bit(8));

        let mut buf = [0u8; 4];
        let mut block = BitBlock::empty(&mut buf);
        assert_eq!(block.bits(), 0);
        assert_eq!(block.capacity_bits(), 32);
        block.set_valid_bits(12);
        assert_eq!(block.whole_bytes(), 1);
        assert_eq!(block.as_bytes().len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversized_valid_length_panics() {
        let mut buf = [0u8; 2];
        BitBlock::empty(&mut buf).set_valid_bits(17);
    }

    #[test]
    fn block_source_matches_fill_bytes_for_every_trng() {
        // The blanket impl must walk exactly the batched byte stream.
        let mut direct = DhTrng::builder().seed(11).build();
        let mut reference = vec![0u8; 100];
        Trng::fill_bytes(&mut direct, &mut reference);

        let mut source = DhTrng::builder().seed(11).build();
        let mut buf = vec![0u8; 100];
        let mut block = BitBlock::empty(&mut buf);
        source.fill_block(&mut block);
        assert_eq!(block.bits(), 800);
        assert_eq!(block.as_bytes(), &reference[..]);
    }

    /// Reference: the raw bytes pushed bit-serially, packed into whole
    /// output bytes (partial tail dropped) — what the bit-at-a-time
    /// adaptors compute.
    fn reference_condition<C: Conditioner>(cond: &mut C, raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let (mut acc, mut acc_len) = (0u8, 0u32);
        for &byte in raw {
            for i in (0..8).rev() {
                if let Some(bit) = cond.push((byte >> i) & 1 == 1) {
                    acc = (acc << 1) | u8::from(bit);
                    acc_len += 1;
                    if acc_len == 8 {
                        out.push(acc);
                        acc = 0;
                        acc_len = 0;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conditioner_stage_is_bit_identical_to_bit_serial_pushes() {
        let mut rng = NoiseRng::seed_from_u64(5);
        // Ratio 1 exercises the delay line at full pressure (1:1 output
        // with carried bits); the others exercise compression. Odd block
        // sizes force partial-byte carries across blocks.
        for ratio in [1u32, 2, 3, 64] {
            let raws: Vec<Vec<u8>> = [7usize, 64, 13, 128, 1, 33]
                .iter()
                .map(|&len| (0..len).map(|_| rng.next_u64() as u8).collect())
                .collect();
            let concatenated: Vec<u8> = raws.iter().flatten().copied().collect();
            let reference = reference_condition(&mut CrcWhitener::new(ratio), &concatenated);

            let mut stage = ConditionerStage::new(CrcWhitener::new(ratio));
            let mut got = Vec::new();
            for mut raw in raws {
                let mut block = BitBlock::full(&mut raw);
                stage.process(&mut block);
                got.extend_from_slice(block.as_bytes());
            }
            assert_eq!(got, reference, "ratio = {ratio}");
        }
    }

    #[test]
    fn variable_rate_stage_matches_von_neumann_reference() {
        let mut rng = NoiseRng::seed_from_u64(9);
        let raws: Vec<Vec<u8>> = [64usize, 5, 96, 31]
            .iter()
            .map(|&len| (0..len).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let concatenated: Vec<u8> = raws.iter().flatten().copied().collect();
        let reference = reference_condition(&mut VonNeumannConditioner::new(), &concatenated);

        let mut stage = ConditionerStage::new(VonNeumannConditioner::new());
        let mut got = Vec::new();
        for mut raw in raws {
            let mut block = BitBlock::full(&mut raw);
            stage.process(&mut block);
            got.extend_from_slice(block.as_bytes());
        }
        assert_eq!(got, reference);
        assert!(stage.measured_ratio() > 3.0, "VN costs ~4x unbiased");
    }

    #[test]
    fn stage_ledgers_track_consumption() {
        let mut stage = ConditionerStage::new(XorFold::new(4));
        let mut raw = [0xA7u8; 100];
        let mut block = BitBlock::full(&mut raw);
        stage.process(&mut block);
        assert_eq!(stage.consumed(), 800);
        assert_eq!(stage.emitted(), 200);
        assert_eq!(stage.measured_ratio(), 4.0);
        assert_eq!(stage.expected_ratio(), 4.0);
        assert_eq!(block.bits(), 200); // 25 whole bytes, no pending tail
        assert_eq!(stage.conditioner().factor(), 4);
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let mut stage = ConditionerStage::new(CrcWhitener::new(2));
        let mut buf = [0u8; 8];
        let mut block = BitBlock::empty(&mut buf);
        stage.process(&mut block);
        assert_eq!(block.bits(), 0);
        assert_eq!(stage.consumed(), 0);
        assert!(stage.measured_ratio().is_infinite());
    }
}
