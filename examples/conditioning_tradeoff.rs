//! Post-processing trade-off study: why the paper's "passes NIST and
//! AIS-31 *without any post-processing*" headline matters.
//!
//! A weak source needs a corrector, and correctors eat throughput. This
//! example pits a deliberately biased source against the DH-TRNG, with
//! and without the three classic post-processing stages, and prints the
//! quality/throughput ledger.
//!
//! Each corrector is a conditioning machine mounted on the source with
//! the core `Conditioned` adaptor, whose ledgers measure the rate cost.
//!
//! Run with: `cargo run --release --example conditioning_tradeoff`

use dh_trng::prelude::*;

const BITS: usize = 1 << 19;

/// A weak jittery source: 56% ones (a badly skewed latch).
struct WeakSource(NoiseRng);
impl Trng for WeakSource {
    fn next_bit(&mut self) -> bool {
        self.0.bernoulli(0.56)
    }
}

fn assess<T: Trng>(t: &mut T, n: usize) -> (f64, f64) {
    let bits: BitBuffer = (0..n).map(|_| t.next_bit()).collect();
    let ones = bits.ones() as f64 / bits.len() as f64;
    (min_entropy_mcv(&bits), (ones - 0.5).abs())
}

fn main() {
    println!("post-processing trade-off (quality vs throughput)\n");
    println!(
        "{:<38} {:>8} {:>9} {:>14}",
        "configuration", "h (MCV)", "|bias|", "rate multiplier"
    );

    // The weak source family.
    let weak = || WeakSource(NoiseRng::seed_from_u64(0xbad));
    let (h, b) = assess(&mut weak(), BITS);
    println!(
        "{:<38} {h:>8.4} {b:>9.4} {:>14}",
        "weak source, raw", "1.00x"
    );

    let mut vn = Conditioned::new(weak(), VonNeumannConditioner::new());
    let (h, b) = assess(&mut vn, BITS / 4);
    println!(
        "{:<38} {h:>8.4} {b:>9.4} {:>13.2}x",
        "weak + Von Neumann",
        1.0 / vn.measured_ratio()
    );

    let mut x8 = Conditioned::new(weak(), XorFold::new(8));
    let (h, b) = assess(&mut x8, BITS / 8);
    println!(
        "{:<38} {h:>8.4} {b:>9.4} {:>13.2}x",
        "weak + XOR-8 decimation",
        1.0 / f64::from(x8.conditioner().factor())
    );

    let mut lfsr = Conditioned::new(weak(), LfsrConditioner::new());
    let (h, b) = assess(&mut lfsr, BITS);
    println!(
        "{:<38} {h:>8.4} {b:>9.4} {:>14}",
        "weak + LFSR whitener (cosmetic!)", "1.00x"
    );

    // DH-TRNG raw vs post-processed.
    let dh = || DhTrng::builder().seed(0xd4).build();
    let (h, b) = assess(&mut dh(), BITS);
    println!("{:<38} {h:>8.4} {b:>9.4} {:>14}", "DH-TRNG, raw", "1.00x");

    let mut vn = Conditioned::new(dh(), VonNeumannConditioner::new());
    let (h, b) = assess(&mut vn, BITS / 4);
    println!(
        "{:<38} {h:>8.4} {b:>9.4} {:>13.2}x",
        "DH-TRNG + Von Neumann",
        1.0 / vn.measured_ratio()
    );

    println!(
        "\ntakeaways:\n\
         * the weak source needs Von Neumann / XOR-8 to look healthy, \
           paying a 4-8x rate cut —\n   at DH-TRNG's 620 Mbps line rate \
           that would mean dropping to ~80-150 Mbps;\n\
         * the LFSR whitener hides the bias from the MCV statistic but \
           adds no entropy (cosmetic);\n\
         * DH-TRNG is already at the estimator ceiling raw, so the \
           corrector only burns throughput —\n   the paper's \"no \
           post-processing\" design point."
    );
}
