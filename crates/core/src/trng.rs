//! The behavioural DH-TRNG generator and its builder.
//!
//! [`DhTrng`] is the fast cycle-accurate model: each call to
//! [`Trng::next_bit`] advances one sampling-clock cycle of the
//! architecture. Per cycle it follows the paper's Eq. 5 structure —
//! with probability `P_rand` (computed from the jitter, subthreshold-lock
//! and metastability physics of all 12 rings at the configured device,
//! clock and PVT corner) the sample captures a fresh random event;
//! otherwise it returns the deterministic XOR of the free-running ring
//! beat patterns. A small systematic sampler asymmetry (calibrated
//! against the paper's Table 4 silicon numbers, growing toward PVT
//! corners per the Figure 9 sweep) supplies the realistic residual bias.

use dhtrng_fpga::packer::{pack_design, Region};
use dhtrng_fpga::{
    efficiency_metric, ActivityProfile, Device, Placement, PowerBreakdown, PowerModel,
    ResourceReport, TimingModel,
};
use dhtrng_noise::jitter::JitterModel;
use dhtrng_noise::metastability::{MetastabilityModel, SubthresholdLock};
use dhtrng_noise::pvt::PvtCorner;
use dhtrng_noise::NoiseRng;
use dhtrng_sim::Netlist;

use crate::architecture::{dh_trng_netlist, NetlistPorts};
use crate::batch::BlockKernel;
use crate::model::{
    eq5_randomness_coverage, BeatOscillator, GroupCalibration, RingKind, RingPhysics,
};

/// A generator of true-random bits (one bit per architecture clock).
///
/// Implemented by [`DhTrng`], [`HybridUnitGroup`], and every baseline
/// architecture in `dhtrng-baselines`.
///
/// # Batched generation
///
/// [`next_bit`](Self::next_bit) is the per-cycle primitive; everything
/// else routes through the block-oriented [`next_bits`](Self::next_bits)
/// / [`next_word`](Self::next_word) path, so an implementation that
/// overrides `next_bits` (and, for long buffers,
/// [`fill_bytes`](Self::fill_bytes)) with a hoisted-state kernel — see
/// [`batch::BlockKernel`](crate::batch::BlockKernel) — accelerates every
/// consumer for free. Whatever the path, the bit stream is identical:
/// bit `k` of the generator is bit `k` of the generator, however it is
/// packed.
pub trait Trng {
    /// Produces the next output bit.
    fn next_bit(&mut self) -> bool;

    /// Produces the next `n` bits (`1..=64` clock cycles), oldest bit
    /// first: the first cycle lands in bit `n - 1`, the newest in bit 0.
    ///
    /// The default loops over [`next_bit`](Self::next_bit); batched
    /// implementations override it.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 64`.
    fn next_bits(&mut self, n: u32) -> u64 {
        crate::batch::pack_bits(n, || self.next_bit())
    }

    /// Produces the next 64-cycle word, oldest bit in the MSB.
    fn next_word(&mut self) -> u64 {
        self.next_bits(64)
    }

    /// Produces the next byte (eight clock cycles, MSB first).
    fn next_byte(&mut self) -> u8 {
        self.next_bits(8) as u8
    }

    /// Fills a byte buffer with fresh random bytes, eight bytes per
    /// [`next_word`](Self::next_word) call.
    fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in chunks.by_ref() {
            chunk.copy_from_slice(&self.next_word().to_be_bytes());
        }
        for slot in chunks.into_remainder() {
            *slot = self.next_byte();
        }
    }

    /// Collects `n` bits into a vector, routed through
    /// [`fill_bytes`](Self::fill_bytes) so batched implementations pay
    /// one block setup per call, not per word.
    fn collect_bits(&mut self, n: usize) -> Vec<bool> {
        let mut bytes = vec![0u8; n / 8];
        self.fill_bytes(&mut bytes);
        let mut bits = Vec::with_capacity(n);
        for byte in bytes {
            bits.extend((0..8).rev().map(|i| (byte >> i) & 1 == 1));
        }
        let tail = (n % 8) as u32;
        if tail > 0 {
            let word = self.next_bits(tail);
            bits.extend((0..tail).rev().map(|i| (word >> i) & 1 == 1));
        }
        bits
    }
}

/// Configuration of a [`DhTrng`] instance.
#[derive(Debug, Clone)]
pub struct DhTrngConfig {
    /// Target device (delays, power constants, process).
    pub device: Device,
    /// Operating corner.
    pub corner: PvtCorner,
    /// Noise seed (reproducibility of the simulated physics).
    pub seed: u64,
    /// Coupling strategy enabled (paper §3.2, Fig. 4a).
    pub coupling: bool,
    /// Feedback strategy enabled (paper §3.2, Fig. 4b).
    pub feedback: bool,
    /// Sampling clock in Hz; `None` uses the device's maximum (the
    /// paper's 670 MHz on Virtex-6 / 620 MHz on Artix-7).
    pub sampling_hz: Option<f64>,
}

impl Default for DhTrngConfig {
    fn default() -> Self {
        Self {
            device: Device::artix7(),
            corner: PvtCorner::nominal(),
            seed: 0,
            coupling: true,
            feedback: true,
            sampling_hz: None,
        }
    }
}

/// Builder for [`DhTrng`].
///
/// # Example
///
/// ```
/// use dhtrng_core::DhTrng;
/// use dhtrng_fpga::Device;
/// use dhtrng_noise::PvtCorner;
///
/// let trng = DhTrng::builder()
///     .device(Device::virtex6())
///     .corner(PvtCorner::new(80.0, 1.2))
///     .seed(7)
///     .build();
/// assert!(trng.throughput_mbps() > 400.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DhTrngBuilder {
    config: DhTrngConfig,
}

impl DhTrngBuilder {
    /// Target device.
    #[must_use]
    pub fn device(mut self, device: Device) -> Self {
        self.config.device = device;
        self
    }

    /// Operating corner.
    #[must_use]
    pub fn corner(mut self, corner: PvtCorner) -> Self {
        self.config.corner = corner;
        self
    }

    /// Noise seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Enables/disables the coupling strategy (ablation).
    #[must_use]
    pub fn coupling(mut self, on: bool) -> Self {
        self.config.coupling = on;
        self
    }

    /// Enables/disables the feedback strategy (ablation).
    #[must_use]
    pub fn feedback(mut self, on: bool) -> Self {
        self.config.feedback = on;
        self
    }

    /// Overrides the sampling clock (Hz).
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive.
    #[must_use]
    pub fn sampling_hz(mut self, hz: f64) -> Self {
        assert!(hz > 0.0, "sampling clock must be positive");
        self.config.sampling_hz = Some(hz);
        self
    }

    /// Builds the generator.
    pub fn build(self) -> DhTrng {
        DhTrng::new(self.config)
    }
}

/// Feedback phase-kick strength (fraction of a beat period).
const FEEDBACK_KICK: f64 = 0.3;
/// Per-ring feedback kick multipliers: fixed incommensurate fractions
/// (golden-ratio schedule) keeping the per-ring kicks mutually
/// decorrelated. Index `i` is ring `i` of the 12-ring bank.
fn feedback_kick_multipliers() -> [f64; 12] {
    let mut mults = [0.0; 12];
    for (i, slot) in mults.iter_mut().enumerate() {
        *slot = (0.3 + 0.618_034 * (i as f64 + 1.0)).fract();
    }
    mults
}
/// Additive bias penalties for the ablations (residual structure when a
/// reinforcement strategy is disabled). No silicon data exists for these
/// (the paper always runs both strategies); the values are chosen so the
/// ablations are clearly visible to the estimators without being
/// catastrophic.
const NO_COUPLING_BIAS_ADD: f64 = 7.5e-4;
const NO_FEEDBACK_BIAS_ADD: f64 = 4.0e-4;
/// PVT-corner asymmetry to sampler-bias coupling (calibrated so the
/// Figure 9 worst corner lands near h = 0.973).
const ASYMMETRY_BIAS_GAIN: f64 = 0.30;

/// Residual sampler bias at the nominal corner, per device process —
/// calibrated against the paper's §4.3 deviation test (Eq. 6 bias of
/// 0.0075 % on Virtex-6 and 0.0069 % on Artix-7, i.e. |p - 1/2| of
/// 3.75e-5 / 3.45e-5; Table 4's MCV p-max of ~0.5014 is then almost
/// entirely the 1 Mbit estimator confidence floor, as on the silicon).
fn nominal_bias(device: &Device) -> f64 {
    match device.process.nm {
        45 => 3.75e-5,
        28 => 3.45e-5,
        // Unknown process: between the two measured devices.
        _ => 3.6e-5,
    }
}

/// The DH-TRNG behavioural generator. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct DhTrng {
    config: DhTrngConfig,
    rng: NoiseRng,
    beats: Vec<BeatOscillator>,
    p_rand: f64,
    bias: f64,
    sampling_hz: f64,
    ring_periods: RingPeriods,
    restarts: u64,
}

/// Nominal ring periods at the built corner (seconds).
#[derive(Debug, Clone, Copy)]
struct RingPeriods {
    ro1: f64,
    ro2: f64,
    central: f64,
}

impl DhTrng {
    /// Starts building a generator.
    pub fn builder() -> DhTrngBuilder {
        DhTrngBuilder::default()
    }

    /// Creates a generator from an explicit configuration.
    pub fn new(config: DhTrngConfig) -> Self {
        let factors = config.device.process.factors(config.corner);
        let stage = config.device.stage_delay_s() * factors.delay;
        let mux = config.device.net_delay_s * factors.delay;
        let periods = RingPeriods {
            ro1: 6.0 * stage,         // 3-stage ring
            ro2: 2.0 * (stage + mux), // inverter + MUX loop
            central: 10.0 * stage,    // through-coupling ring
        };
        let sampling_hz = config
            .sampling_hz
            .unwrap_or_else(|| TimingModel::max_frequency_hz(&config.device, 2, config.corner));
        let t_sample = 1.0 / sampling_hz;

        // Eq. 5 coverage over the 12 rings at this corner.
        let meta = MetastabilityModel::fpga_dff().scaled(factors.metastability);
        let lock = SubthresholdLock::dh_trng_nominal();
        let ring = |kind: RingKind, period: f64| RingPhysics {
            kind,
            period,
            jitter: JitterModel::fpga_ring_oscillator(period).scaled(factors.jitter),
            meta,
            lock,
        };
        let central_kind = if config.coupling {
            RingKind::CentralRing
        } else {
            RingKind::JitterRing
        };
        let mut coverages = Vec::with_capacity(12);
        for _cell in 0..2 {
            for _unit in 0..2 {
                coverages.push(ring(RingKind::JitterRing, periods.ro1).coverage(t_sample));
                coverages.push(ring(RingKind::HybridRing, periods.ro2).coverage(t_sample));
            }
            for _central in 0..2 {
                coverages.push(ring(central_kind, periods.central).coverage(t_sample));
            }
        }
        let p_rand = eq5_randomness_coverage(&coverages);

        // Residual sampler bias: nominal calibration, scaled up by the
        // ablations and by the PVT asymmetry.
        let mut bias = nominal_bias(&config.device) + ASYMMETRY_BIAS_GAIN * factors.asymmetry;
        if !config.coupling {
            bias += NO_COUPLING_BIAS_ADD;
        }
        if !config.feedback {
            bias += NO_FEEDBACK_BIAS_ADD;
        }

        let mut trng = Self {
            config,
            rng: NoiseRng::seed_from_u64(0),
            beats: Vec::new(),
            p_rand,
            bias,
            sampling_hz,
            ring_periods: periods,
            restarts: 0,
        };
        trng.power_up(0);
        trng
    }

    /// (Re-)derives the power-up state for restart number `restart`.
    fn power_up(&mut self, restart: u64) {
        let mut rng = NoiseRng::seed_from_u64(self.config.seed);
        let mut rng = rng.fork(&format!("restart-{restart}"));
        let t_sample = 1.0 / self.sampling_hz;
        let periods = [
            self.ring_periods.ro1,
            self.ring_periods.ro2,
            self.ring_periods.central,
        ];
        self.beats = (0..12)
            .map(|i| {
                let base = periods[i % 3];
                // Manufacturing mismatch: each ring instance deviates a
                // little, which is what makes the beat increments
                // incommensurate across rings.
                let mismatch = 1.0 + 0.02 * (rng.uniform() - 0.5);
                let increment = (t_sample / (base * mismatch)).rem_euclid(1.0);
                BeatOscillator::new(rng.uniform(), increment, 0.5)
            })
            .collect();
        self.rng = rng;
        self.restarts = restart;
    }

    /// Models a power-cycle: fresh metastable power-up state, as in the
    /// paper's §4.2 restart test. The noise seed is preserved but the
    /// startup conditions differ per restart.
    pub fn restart(&mut self) {
        self.power_up(self.restarts + 1);
    }

    /// Number of restarts performed.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// The configuration this generator was built with.
    pub fn config(&self) -> &DhTrngConfig {
        &self.config
    }

    /// Per-sample randomness coverage (the paper's Eq. 5 `P_rand`) at the
    /// built corner and clock.
    pub fn randomness_coverage(&self) -> f64 {
        self.p_rand
    }

    /// Residual sampler bias of the model at this corner.
    pub fn residual_bias(&self) -> f64 {
        self.bias
    }

    /// The sampling clock in Hz.
    pub fn sampling_hz(&self) -> f64 {
        self.sampling_hz
    }

    /// Throughput in Mbps (one bit per cycle).
    pub fn throughput_mbps(&self) -> f64 {
        self.sampling_hz / 1e6
    }

    /// Cell-level resource usage (the paper's 23 LUTs + 4 MUXes + 14
    /// DFFs).
    pub fn resources(&self) -> ResourceReport {
        let (nl, _) = self.netlist();
        let r = nl.resources();
        ResourceReport::new(r.luts, r.muxes, r.dffs)
    }

    /// Packed slice count under the paper's typed-placement constraints
    /// (8 slices).
    pub fn slices(&self) -> u32 {
        pack_design(
            &Region::dh_trng_reference(),
            self.config.device.slice_spec(),
        )
        .total_slices
    }

    /// The compact square placement of Fig. 5(b), anchored at `origin`.
    pub fn placement(&self, origin: (u32, u32)) -> Placement {
        Placement::compact_square(&[("entropy", 5), ("sampling", 2), ("feedback", 1)], origin)
    }

    /// Power at the built corner, from the device's calibrated CV²f
    /// model over the architecture's switching activity.
    pub fn power(&self) -> PowerBreakdown {
        let mut activity = ActivityProfile::new();
        // 4 RO1 rings x 3 nodes, toggling twice per period.
        activity.add(12, 2.0 / self.ring_periods.ro1);
        // 4 RO2 rings x 2 nodes.
        activity.add(8, 2.0 / self.ring_periods.ro2);
        // 4 central XOR nodes switch at edge-ring activity rates.
        activity.add(4, 2.0 / self.ring_periods.ro1);
        // Sampling array: 14 DFFs + 3 LUTs at the sampling clock (output
        // toggles about half the time -> one transition per cycle).
        activity.add(17, self.sampling_hz);
        PowerModel::power(&self.config.device, &activity, self.config.corner)
    }

    /// The paper's headline metric `Throughput / (Slices x Power)`.
    pub fn efficiency(&self) -> f64 {
        efficiency_metric(
            self.throughput_mbps(),
            self.slices(),
            self.power().total_w(),
        )
    }

    /// Emits the gate-level netlist of this configuration (for the
    /// event-driven simulator).
    pub fn netlist(&self) -> (Netlist, NetlistPorts) {
        dh_trng_netlist(&self.config.device)
    }

    /// Builds the batched block kernel over the current generator state
    /// (always succeeds for the 12-ring bank; `None` only if the bank
    /// ever outgrew the kernel capacity).
    fn kernel(&self) -> Option<BlockKernel> {
        let mults = feedback_kick_multipliers();
        let feedback = self.config.feedback.then_some((FEEDBACK_KICK, &mults[..]));
        BlockKernel::new(&self.beats, self.p_rand, self.bias, feedback)
    }
}

impl Default for DhTrng {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl Trng for DhTrng {
    fn next_bit(&mut self) -> bool {
        // Free-running rings advance every cycle regardless of whether
        // the sample captures a random event.
        let mut beat_xor = false;
        for beat in &mut self.beats {
            beat_xor ^= beat.step();
        }
        let mut bit = if self.rng.bernoulli(self.p_rand) {
            // Eq. 5 event: jitter-window hit, subthreshold lock, or
            // metastable capture somewhere among the 12 rings.
            self.rng.bernoulli(0.5)
        } else {
            beat_xor
        };
        // Systematic sampler asymmetry (threshold mismatch): a small
        // probability of mis-capturing a 0 as a 1.
        if !bit && self.rng.bernoulli(2.0 * self.bias) {
            bit = true;
        }
        // Feedback strategy: the output re-randomises the ring phases.
        // One noise draw per cycle, spread over the rings with fixed
        // incommensurate multipliers (cheap, and the per-ring kicks stay
        // mutually decorrelated).
        if self.config.feedback && bit {
            let kick = FEEDBACK_KICK * self.rng.uniform();
            let mults = feedback_kick_multipliers();
            for (beat, &mult) in self.beats.iter_mut().zip(&mults) {
                beat.kick(kick * mult);
            }
        }
        bit
    }

    fn next_bits(&mut self, n: u32) -> u64 {
        match self.kernel() {
            Some(mut kernel) => {
                let word = kernel.next_bits(&mut self.rng, n);
                kernel.write_back(&mut self.beats);
                word
            }
            None => per_bit_fallback(self, n),
        }
    }

    fn fill_bytes(&mut self, buf: &mut [u8]) {
        // Block fast path: one kernel build per buffer, not per word.
        let Some(mut kernel) = self.kernel() else {
            fill_bytes_fallback(self, buf);
            return;
        };
        kernel.fill_bytes(&mut self.rng, buf);
        kernel.write_back(&mut self.beats);
    }
}

/// Per-bit `next_bits` for generators whose beat bank exceeds the
/// kernel capacity (never the in-tree ones; correctness backstop).
fn per_bit_fallback<T: Trng + ?Sized>(trng: &mut T, n: u32) -> u64 {
    crate::batch::pack_bits(n, || trng.next_bit())
}

/// Per-bit `fill_bytes` companion to [`per_bit_fallback`].
fn fill_bytes_fallback<T: Trng + ?Sized>(trng: &mut T, buf: &mut [u8]) {
    for slot in buf {
        *slot = per_bit_fallback(trng, 8) as u8;
    }
}

/// [`rand::RngCore`] integration: a DH-TRNG can drive anything in the
/// `rand` ecosystem (shuffles, distributions, other generators' seeds).
impl rand::RngCore for DhTrng {
    fn next_u32(&mut self) -> u32 {
        // One kernel build for the whole word (same stream as four
        // MSB-first bytes).
        self.next_bits(32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        Trng::next_word(self)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        Trng::fill_bytes(self, dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        Trng::fill_bytes(self, dest);
        Ok(())
    }
}

/// An XOR-combined group of `n` entropy sources at the paper's 100 MHz
/// characterisation clock — the generator behind Table 2 (and, through
/// `dhtrng-baselines`, Table 1).
///
/// Uses the [`GroupCalibration`] fits: residual bias `b0 * rho^n` and
/// Eq. 5 coverage `1 - (1 - r)^n`.
#[derive(Debug, Clone)]
pub struct HybridUnitGroup {
    calibration: GroupCalibration,
    n: u32,
    p_rand: f64,
    bias: f64,
    beats: Vec<BeatOscillator>,
    rng: NoiseRng,
}

impl HybridUnitGroup {
    /// A group of `n` dynamic hybrid entropy units (Table 2, row 1).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn hybrid(n: u32, seed: u64) -> Self {
        Self::from_calibration(GroupCalibration::hybrid_units(), n, seed)
    }

    /// A group of `n` 9-stage ring oscillators (Table 2, row 2).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn nine_stage_ro(n: u32, seed: u64) -> Self {
        Self::from_calibration(GroupCalibration::nine_stage_ros(), n, seed)
    }

    /// A group from an explicit calibration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn from_calibration(calibration: GroupCalibration, n: u32, seed: u64) -> Self {
        assert!(n > 0, "a source group needs at least one source");
        let mut rng = NoiseRng::seed_from_u64(seed);
        let beats = (0..n)
            .map(|_| {
                // 9-stage-ish rings at a 100 MHz sampling clock: the beat
                // increment is the fractional clock/ring ratio.
                let period = 6.2e-9 * (1.0 + 0.03 * (rng.uniform() - 0.5));
                BeatOscillator::new(rng.uniform(), (10.0e-9 / period).rem_euclid(1.0), 0.5)
            })
            .collect();
        Self {
            calibration,
            n,
            p_rand: calibration.p_rand(n),
            bias: calibration.bias(n),
            beats,
            rng,
        }
    }

    /// Number of XORed sources.
    pub fn sources(&self) -> u32 {
        self.n
    }

    /// The group's Eq. 5 coverage.
    pub fn randomness_coverage(&self) -> f64 {
        self.p_rand
    }

    /// The group's calibrated residual bias.
    pub fn residual_bias(&self) -> f64 {
        self.bias
    }

    /// The calibration behind this group.
    pub fn calibration(&self) -> GroupCalibration {
        self.calibration
    }
}

impl Trng for HybridUnitGroup {
    fn next_bit(&mut self) -> bool {
        let mut beat_xor = false;
        for beat in &mut self.beats {
            beat_xor ^= beat.step();
        }
        let mut bit = if self.rng.bernoulli(self.p_rand) {
            self.rng.bernoulli(0.5)
        } else {
            beat_xor
        };
        if !bit && self.rng.bernoulli(2.0 * self.bias) {
            bit = true;
        }
        bit
    }

    fn next_bits(&mut self, n: u32) -> u64 {
        match BlockKernel::new(&self.beats, self.p_rand, self.bias, None) {
            Some(mut kernel) => {
                let word = kernel.next_bits(&mut self.rng, n);
                kernel.write_back(&mut self.beats);
                word
            }
            None => per_bit_fallback(self, n),
        }
    }

    fn fill_bytes(&mut self, buf: &mut [u8]) {
        let Some(mut kernel) = BlockKernel::new(&self.beats, self.p_rand, self.bias, None) else {
            fill_bytes_fallback(self, buf);
            return;
        };
        kernel.fill_bytes(&mut self.rng, buf);
        kernel.write_back(&mut self.beats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones_fraction(trng: &mut dyn Trng, n: usize) -> f64 {
        (0..n).filter(|_| trng.next_bit()).count() as f64 / n as f64
    }

    #[test]
    fn default_config_matches_paper_operating_point() {
        let trng = DhTrng::default();
        assert!((trng.throughput_mbps() - 620.0).abs() < 15.0);
        let r = trng.resources();
        assert_eq!((r.luts, r.muxes, r.dffs), (23, 4, 14));
        assert_eq!(trng.slices(), 8);
        let p = trng.power().total_w();
        assert!((p - 0.068).abs() < 0.005, "A7 power = {p}");
        let eff = trng.efficiency();
        assert!(eff > 1000.0, "efficiency = {eff}");
    }

    #[test]
    fn virtex6_operating_point() {
        let trng = DhTrng::builder().device(Device::virtex6()).build();
        assert!((trng.throughput_mbps() - 670.0).abs() < 15.0);
        let p = trng.power().total_w();
        assert!((p - 0.126).abs() < 0.008, "V6 power = {p}");
    }

    #[test]
    fn output_is_roughly_balanced() {
        let mut trng = DhTrng::builder().seed(1).build();
        let frac = ones_fraction(&mut trng, 200_000);
        assert!((frac - 0.5).abs() < 0.01, "ones fraction = {frac}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = DhTrng::builder().seed(9).build();
        let mut b = DhTrng::builder().seed(9).build();
        assert_eq!(a.collect_bits(1000), b.collect_bits(1000));
        let mut c = DhTrng::builder().seed(10).build();
        assert_ne!(a.collect_bits(1000), c.collect_bits(1000));
    }

    #[test]
    fn restart_changes_first_word_like_paper_section_4_2() {
        let mut trng = DhTrng::builder().seed(5).build();
        let mut words = Vec::new();
        for _ in 0..6 {
            let bits = trng.collect_bits(32);
            let word = bits.iter().fold(0u32, |w, &b| (w << 1) | u32::from(b));
            words.push(word);
            trng.restart();
        }
        assert_eq!(trng.restarts(), 6);
        let mut sorted = words.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "all restart words distinct: {words:08X?}");
    }

    #[test]
    fn coverage_is_high_at_nominal_corner() {
        let trng = DhTrng::default();
        let p = trng.randomness_coverage();
        assert!(p > 0.6 && p <= 1.0, "Eq.5 coverage = {p}");
    }

    #[test]
    fn ablations_increase_bias_and_reduce_coverage() {
        let full = DhTrng::builder().seed(1).build();
        let no_coupling = DhTrng::builder().seed(1).coupling(false).build();
        let no_feedback = DhTrng::builder().seed(1).feedback(false).build();
        assert!(no_coupling.residual_bias() > full.residual_bias());
        assert!(no_feedback.residual_bias() > full.residual_bias());
        assert!(no_coupling.randomness_coverage() < full.randomness_coverage());
    }

    #[test]
    fn corner_conditions_raise_bias() {
        let nominal = DhTrng::builder().seed(1).build();
        let corner = DhTrng::builder()
            .seed(1)
            .corner(PvtCorner::new(-20.0, 0.8))
            .build();
        assert!(corner.residual_bias() > nominal.residual_bias());
    }

    #[test]
    fn slower_sampling_increases_coverage() {
        let fast = DhTrng::builder().seed(1).build();
        let slow = DhTrng::builder().seed(1).sampling_hz(100.0e6).build();
        assert!(slow.randomness_coverage() > fast.randomness_coverage());
        assert!((slow.throughput_mbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn trait_helpers_work() {
        let mut trng = DhTrng::builder().seed(2).build();
        let mut buf = [0u8; 64];
        trng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        let bits = trng.collect_bits(12);
        assert_eq!(bits.len(), 12);
    }

    #[test]
    fn unit_group_bias_ordering_matches_table2() {
        // The hybrid group must beat the 9-stage RO group at every XOR
        // order, and both must improve with more sources.
        for n in 9..=18 {
            let dh = HybridUnitGroup::hybrid(n, 1);
            let ro = HybridUnitGroup::nine_stage_ro(n, 1);
            assert!(dh.residual_bias() < ro.residual_bias(), "n = {n}");
        }
        let small = HybridUnitGroup::hybrid(9, 1);
        let large = HybridUnitGroup::hybrid(18, 1);
        assert!(large.residual_bias() < small.residual_bias());
        assert!(large.randomness_coverage() > small.randomness_coverage());
    }

    #[test]
    fn unit_group_generates_balanced_bits() {
        let mut g = HybridUnitGroup::hybrid(12, 3);
        let frac = ones_fraction(&mut g, 100_000);
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_group_panics() {
        let _ = HybridUnitGroup::hybrid(0, 1);
    }

    /// Collects `n` bits strictly through the per-bit reference path.
    fn reference_bits<T: Trng>(trng: &mut T, n: usize) -> Vec<bool> {
        (0..n).map(|_| trng.next_bit()).collect()
    }

    #[test]
    fn batched_word_path_is_bit_identical_to_next_bit() {
        // Feedback on and off exercise both kernel branches.
        for feedback in [true, false] {
            let mut per_bit = DhTrng::builder().seed(21).feedback(feedback).build();
            let mut batched = per_bit.clone();
            let reference = reference_bits(&mut per_bit, 256);
            let mut bits = Vec::new();
            for _ in 0..4 {
                let word = Trng::next_word(&mut batched);
                bits.extend((0..64).rev().map(|i| (word >> i) & 1 == 1));
            }
            assert_eq!(bits, reference, "feedback = {feedback}");
            // Both generators keep agreeing afterwards: the kernel left
            // the beat bank and the noise stream in the same state.
            assert_eq!(
                reference_bits(&mut per_bit, 64),
                reference_bits(&mut batched, 64)
            );
        }
    }

    #[test]
    fn batched_fill_bytes_matches_per_bit_bytes() {
        let mut per_bit = DhTrng::builder().seed(33).build();
        let mut batched = per_bit.clone();
        // 1035 is deliberately not a multiple of 8: the word chunks and
        // the byte tail both run.
        let reference: Vec<u8> = (0..1035)
            .map(|_| {
                let mut byte = 0u8;
                for _ in 0..8 {
                    byte = (byte << 1) | u8::from(per_bit.next_bit());
                }
                byte
            })
            .collect();
        let mut buf = vec![0u8; 1035];
        batched.fill_bytes(&mut buf);
        assert_eq!(buf, reference);
    }

    #[test]
    fn batched_collect_bits_matches_per_bit() {
        let mut per_bit = DhTrng::builder().seed(44).build();
        let mut batched = per_bit.clone();
        // 1000 exercises the 64-bit chunks and the 40-bit tail.
        assert_eq!(
            batched.collect_bits(1000),
            reference_bits(&mut per_bit, 1000)
        );
    }

    #[test]
    fn unit_group_batched_paths_match_per_bit() {
        for group in [
            HybridUnitGroup::hybrid(12, 7),
            HybridUnitGroup::nine_stage_ro(18, 8),
        ] {
            let mut per_bit = group.clone();
            let mut batched = group;
            let reference = reference_bits(&mut per_bit, 500);
            assert_eq!(batched.collect_bits(500), reference);
        }
    }

    #[test]
    fn next_bits_boundary_sizes() {
        let mut a = DhTrng::builder().seed(55).build();
        let mut b = a.clone();
        let one = a.next_bits(1);
        assert_eq!(one & !1, 0, "a single bit fits in bit 0");
        assert_eq!(one == 1, b.next_bit());
        let word = a.next_bits(64);
        let reference = reference_bits(&mut b, 64)
            .iter()
            .fold(0u64, |w, &bit| (w << 1) | u64::from(bit));
        assert_eq!(word, reference);
    }

    #[test]
    #[should_panic(expected = "next_bits takes 1..=64")]
    fn next_bits_rejects_oversized_requests() {
        let _ = DhTrng::builder().seed(1).build().next_bits(65);
    }

    #[test]
    fn rng_core_integration() {
        use rand::Rng;
        let mut trng = DhTrng::builder().seed(3).build();
        // Drive a rand-ecosystem API end to end.
        let die: u8 = trng.gen_range(1..=6);
        assert!((1..=6).contains(&die));
        let mut buf = [0u8; 16];
        rand::RngCore::fill_bytes(&mut trng, &mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        // Word paths agree with the bit path.
        let mut a = DhTrng::builder().seed(8).build();
        let mut b = DhTrng::builder().seed(8).build();
        let w = rand::RngCore::next_u32(&mut a);
        let bits = b.collect_bits(32);
        let rebuilt = bits.iter().fold(0u32, |acc, &x| (acc << 1) | u32::from(x));
        assert_eq!(w, rebuilt);
    }
}
