//! The whole sensor node: sample → process → transmit — experiment E10.
//!
//! Three policies for a node that samples a biometric-like signal and must
//! get clinically relevant information to the uplink:
//!
//! * [`NodePolicy::SendRaw`] — transmit every sample. Radio-dominated.
//! * [`NodePolicy::FilterThenSend`] — run an on-node anomaly detector
//!   (moving-mean threshold) and transmit only anomalous windows. Trades
//!   MCU ops (pJ) for radio bits (nJ) — the paper's central sensor claim.
//! * [`NodePolicy::CompressThenSend`] — delta-encode and transmit
//!   everything (lossless middle ground, modeled with a calibrated
//!   compression ratio).
//!
//! The simulation marches a battery through sampling epochs and reports
//! lifetime, plus the detector's recall so the energy saving is shown not
//! to come from dropping the signal.
//!
//! The node is also a fault-injection client ([`SensorNode::run_faulted`]):
//! component 0 of a [`FaultPlan`] is the radio. During a brownout (kill or
//! pause) the node buffers its payload, burns a short probe transmission
//! discovering the dead link, and flushes the backlog — bits *and* pending
//! anomaly reports — once the radio recovers; a slowdown stretches transmit
//! energy (link-layer retransmissions). [`SensorNode::run`] and
//! [`SensorNode::run_observed`] are the empty-plan special case,
//! bit-identical to the pre-fault-seam behavior.
//!
//! Each epoch needs only two booleans from its synthetic signal: whether
//! it holds an anomaly, and whether the detector fires. A private epoch
//! kernel yields both, bit-for-bit the answers of `SignalGen::generate` and
//! the detector, without building the signal in the common case. Under
//! send-raw and compress only the anomaly flag matters: the kernel draws
//! each sample's `chance`, steps over the noise's two draws (the
//! `Rng64` draw contract), and stops at the first anomaly start. Under the
//! filter it bounds each sample instead of computing it: the carrier comes
//! from a per-phase table built with `generate`'s own expression, and the
//! Box–Muller noise is bounded as `|noise| ≤ σ·√(2·L(u))`, where
//! `L(u) = ln 2·(1 − m − e)` for `u = m·2^e` is the chord of the convex
//! `−ln m` over `[1, 2]` and so bounds `−ln u` from above without `ln`,
//! the angle's draw, or `cos`. Squared, these give per-sample bounds
//! `lo² ≤ x² ≤ hi²`, hence bounds on the epoch mean square and on every
//! window mean. The verdict is "no" when every window's upper mean lies
//! below `T²·` the lower epoch mean square, and "yes" when some window's
//! lower mean lies above `T²·` the upper one. The error budget: each
//! per-sample bound is widened by 2⁻⁴⁰ (≈ 8192 ulps, against ≤ 1 ulp each
//! from libm's `ln`, `sqrt`, `cos` and a few roundings), and each window
//! comparison by a relative `(n + 64)·2⁻⁴⁸` plus an absolute
//! `n·(w + 1)·2⁻⁴⁸·max hi²`, 16× the rounding the detector's `n`-term
//! sums and running window adds/subtracts can accumulate (n samples,
//! window w). Any epoch the bounds cannot decide — about 0.3% of e10's —
//! is regenerated and detected exactly, so outputs are byte-identical.

use serde::{Deserialize, Serialize};

use crate::epoch::EpochKernel;
use crate::mcu::Mcu;
use crate::power::{Battery, Harvester};
use crate::radio::Radio;
use xxi_approx::signal::SignalGen;
use xxi_core::des::fault::{FaultInjector, FaultPlan};
use xxi_core::metrics::Metrics;
use xxi_core::obs::{EnergyLedger, Layer, LogHistogram, Trace};
use xxi_core::time::SimTime;
use xxi_core::units::{Energy, Seconds};

/// Processing/transmission policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodePolicy {
    /// Transmit every raw sample.
    SendRaw,
    /// Detect anomalies on-node; transmit only anomalous windows.
    FilterThenSend,
    /// Delta-compress and transmit everything.
    CompressThenSend,
}

/// Node configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SensorNodeConfig {
    /// Sampling rate in Hz.
    pub sample_hz: f64,
    /// Bits per raw sample.
    pub bits_per_sample: u32,
    /// Samples per processing/transmit epoch.
    pub epoch_samples: usize,
    /// Detection window for the moving-mean filter.
    pub window: usize,
    /// Detection threshold as a multiple of the running RMS.
    pub threshold: f64,
    /// Compression ratio for [`NodePolicy::CompressThenSend`].
    pub compression_ratio: f64,
    /// MCU operations per sample for filtering.
    pub ops_per_sample_filter: u64,
    /// MCU operations per sample for compression.
    pub ops_per_sample_compress: u64,
}

impl Default for SensorNodeConfig {
    fn default() -> SensorNodeConfig {
        SensorNodeConfig {
            sample_hz: 250.0, // ECG-class
            bits_per_sample: 12,
            epoch_samples: 250,
            window: 8,
            threshold: 1.8,
            compression_ratio: 3.0,
            ops_per_sample_filter: 50,
            ops_per_sample_compress: 200,
        }
    }
}

/// Result of simulating one node to battery exhaustion (or the horizon).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NodeOutcome {
    /// Battery lifetime.
    pub lifetime: Seconds,
    /// Bits transmitted in total.
    pub bits_sent: u64,
    /// Fraction of true anomaly windows that were reported (recall);
    /// 1.0 for policies that send everything.
    pub recall: f64,
    /// Total energy spent in the radio.
    pub radio_energy: Energy,
    /// Total energy spent computing.
    pub compute_energy: Energy,
}

/// Telemetry from one [`SensorNode::run_observed`] simulation.
#[derive(Clone, Debug)]
pub struct NodeObservation {
    /// Energy attribution: `mcu_compute` (compute), `radio_tx` (network),
    /// `mcu_sleep` (idle), and `harvester` (harvest) when harvesting.
    pub ledger: EnergyLedger,
    /// Total joules drawn per epoch.
    pub epoch_energy: LogHistogram,
    /// One `epoch` span per epoch plus a `tx` instant per transmission.
    /// Trace timestamps saturate after ~200 simulated days (the `SimTime`
    /// horizon); histograms and the ledger are unaffected.
    pub trace: Trace,
}

/// Result of a fault-injected node run ([`SensorNode::run_faulted`]).
#[derive(Clone, Debug)]
pub struct FaultedNodeOutcome {
    /// Lifetime / bits / recall outcome, as for [`SensorNode::run`].
    pub outcome: NodeOutcome,
    /// Epochs whose transmission was deferred by a radio brownout.
    pub deferred_epochs: u64,
    /// Energy burned probing a browned-out radio (part of the battery
    /// draw, excluded from [`NodeOutcome::radio_energy`]'s useful bits).
    pub probe_energy: Energy,
    /// `sensor.*` counters plus the fault accounting
    /// (`fault.scheduled == fault.fired + fault.cancelled`).
    pub metrics: Metrics,
}

/// The radio is fault-plan component 0.
const RADIO: u32 = 0;

/// Bits in the probe frame a node wastes discovering a browned-out link.
const PROBE_BITS: u64 = 64;

/// The node simulator.
pub struct SensorNode {
    /// Node configuration.
    pub cfg: SensorNodeConfig,
    /// MCU model.
    pub mcu: Mcu,
    /// Radio model.
    pub radio: Radio,
}

impl SensorNode {
    /// Build a node.
    pub fn new(cfg: SensorNodeConfig, mcu: Mcu, radio: Radio) -> SensorNode {
        assert!(cfg.epoch_samples > 0 && cfg.window > 0);
        SensorNode { cfg, mcu, radio }
    }

    /// Simulate under `policy` until `battery` dies or `horizon` elapses.
    pub fn run(
        &self,
        policy: NodePolicy,
        battery: Battery,
        horizon: Seconds,
        seed: u64,
    ) -> NodeOutcome {
        self.run_observed(policy, battery, None, horizon, seed, Trace::disabled())
            .0
    }

    /// Like [`SensorNode::run`], but with full telemetry: an energy ledger
    /// across harvest/compute/transmit/idle, a per-epoch energy histogram,
    /// and (when `trace` is enabled) epoch spans and transmit instants on
    /// the simulated clock. An optional `harvester` recharges the battery
    /// each epoch, with the captured energy on the ledger's harvest layer.
    pub fn run_observed(
        &self,
        policy: NodePolicy,
        battery: Battery,
        harvester: Option<Harvester>,
        horizon: Seconds,
        seed: u64,
        trace: Trace,
    ) -> (NodeOutcome, NodeObservation) {
        let (out, obs, _) = self.run_inner(
            policy,
            battery,
            harvester,
            horizon,
            seed,
            trace,
            &FaultPlan::new(),
        );
        (out, obs)
    }

    /// [`SensorNode::run`] with the radio exposed to a [`FaultPlan`]
    /// (component 0 = the radio). During a brownout the payload is
    /// buffered, a [`PROBE_BITS`]-bit probe is wasted discovering the dead
    /// link, and the backlog — bits and pending anomaly reports — flushes
    /// once the radio recovers; a slowdown multiplies transmit energy.
    /// With an empty plan this is bit-identical to the fault-free run.
    /// Fault times must stay under the `SimTime` horizon (~200 days).
    pub fn run_faulted(
        &self,
        policy: NodePolicy,
        battery: Battery,
        horizon: Seconds,
        seed: u64,
        plan: &FaultPlan,
    ) -> FaultedNodeOutcome {
        let (outcome, _, stats) = self.run_inner(
            policy,
            battery,
            None,
            horizon,
            seed,
            Trace::disabled(),
            plan,
        );
        let mut metrics = Metrics::new();
        metrics.count("sensor.epochs", stats.epochs);
        metrics.count("sensor.deferred_epochs", stats.deferred);
        metrics.count("sensor.anomaly_epochs", stats.anomaly_epochs);
        metrics.count("sensor.reported_epochs", stats.reported_epochs);
        stats.faults.record(&mut metrics);
        FaultedNodeOutcome {
            outcome,
            deferred_epochs: stats.deferred,
            probe_energy: stats.probe_energy,
            metrics,
        }
    }

    #[allow(clippy::too_many_arguments)] // the one shared body behind run/run_observed/run_faulted
    fn run_inner(
        &self,
        policy: NodePolicy,
        mut battery: Battery,
        mut harvester: Option<Harvester>,
        horizon: Seconds,
        seed: u64,
        trace: Trace,
        plan: &FaultPlan,
    ) -> (NodeOutcome, NodeObservation, FaultStats) {
        let cfg = &self.cfg;
        let epoch_dt = Seconds(cfg.epoch_samples as f64 / cfg.sample_hz);
        // Clinically interesting events are rare: ~5% of epochs.
        let gen = SignalGen {
            anomaly_rate: 0.0002,
            ..SignalGen::default()
        };
        let mut kernel = EpochKernel::new(gen, cfg.epoch_samples, cfg.window, cfg.threshold);
        let mut elapsed = 0.0f64;
        let mut bits_sent = 0u64;
        let mut radio_energy = Energy::ZERO;
        let mut compute_energy = Energy::ZERO;
        let mut anomaly_epochs = 0u64;
        let mut reported_anomaly_epochs = 0u64;
        let mut epoch_seed = seed;
        let mut ledger = EnergyLedger::new();
        let mut epoch_energy = LogHistogram::new();
        let mut trace = trace;
        let mut faults = FaultInjector::new(plan, 1);
        let mut pending_bits = 0u64;
        let mut pending_reports = 0u64;
        let mut deferred = 0u64;
        let mut probe_energy = Energy::ZERO;
        let mut epochs = 0u64;

        while elapsed < horizon.value() && !battery.dead() {
            epochs += 1;
            if let Some(h) = harvester.as_mut() {
                let e_h = h.harvest(epoch_dt);
                battery.charge(e_h);
                ledger.charge("harvester", Layer::Harvest, e_h);
            }
            epoch_seed = epoch_seed.wrapping_mul(6364136223846793005).wrapping_add(7);
            let (has_anomaly, detected) = match policy {
                NodePolicy::FilterThenSend => kernel.filter(epoch_seed),
                NodePolicy::SendRaw | NodePolicy::CompressThenSend => {
                    (kernel.has_anomaly(epoch_seed), false)
                }
            };
            if has_anomaly {
                anomaly_epochs += 1;
            }

            // Baseline sampling cost (ADC + store): 10 ops/sample.
            let mut ops = 10 * cfg.epoch_samples as u64;
            let mut bits = 0u64;
            let mut reported = false;

            match policy {
                NodePolicy::SendRaw => {
                    bits = cfg.epoch_samples as u64 * cfg.bits_per_sample as u64;
                    reported = has_anomaly;
                }
                NodePolicy::FilterThenSend => {
                    ops += cfg.ops_per_sample_filter * cfg.epoch_samples as u64;
                    if detected {
                        bits = cfg.epoch_samples as u64 * cfg.bits_per_sample as u64;
                        reported = has_anomaly;
                    }
                }
                NodePolicy::CompressThenSend => {
                    ops += cfg.ops_per_sample_compress * cfg.epoch_samples as u64;
                    bits = (cfg.epoch_samples as f64 * cfg.bits_per_sample as f64
                        / cfg.compression_ratio) as u64;
                    reported = has_anomaly;
                }
            }

            // Radio health at the epoch boundary; brownouts defer the
            // payload and cost a probe frame discovering the dead link.
            let now = SimTime::from_seconds(Seconds(elapsed));
            faults.advance(now);
            let radio_up = faults.is_up(RADIO, now);
            let mut tx_bits = 0u64;
            let mut e_probe = Energy::ZERO;
            if radio_up {
                tx_bits = bits + pending_bits;
                pending_bits = 0;
            } else if bits > 0 || pending_bits > 0 {
                pending_bits += bits;
                e_probe = self.radio.tx_energy(PROBE_BITS);
                deferred += 1;
            }

            let e_compute = self.mcu.compute_energy(ops);
            let e_radio = if tx_bits > 0 {
                self.radio.tx_energy(tx_bits) * faults.slowdown(RADIO, now)
            } else {
                Energy::ZERO
            };
            let e_sleep = self.mcu.sleep_power * epoch_dt;
            let e_total = e_compute + e_radio + e_sleep + e_probe;
            if !battery.draw(e_total) {
                break;
            }
            compute_energy += e_compute;
            radio_energy += e_radio;
            probe_energy += e_probe;
            bits_sent += tx_bits;
            if reported && has_anomaly {
                if radio_up {
                    reported_anomaly_epochs += 1;
                } else {
                    pending_reports += 1;
                }
            }
            if radio_up && pending_reports > 0 {
                // The backlog just flushed: its anomaly reports arrive now.
                reported_anomaly_epochs += pending_reports;
                pending_reports = 0;
            }

            ledger.charge("mcu_compute", Layer::Compute, e_compute);
            ledger.charge("mcu_sleep", Layer::Idle, e_sleep);
            if tx_bits > 0 {
                ledger.charge("radio_tx", Layer::Network, e_radio);
            }
            if e_probe.value() > 0.0 {
                ledger.charge("radio_probe", Layer::Network, e_probe);
            }
            epoch_energy.add(e_total.value());
            if trace.is_enabled() {
                let t0 = SimTime::from_seconds(Seconds(elapsed));
                let t1 = SimTime::from_seconds(Seconds(elapsed + epoch_dt.value()));
                trace.span_args("epoch", "sensor", 0, t0, t1, &[("soc", battery.soc())]);
                if tx_bits > 0 {
                    trace.instant_args("tx", "sensor", 1, t1, &[("bits", tx_bits as f64)]);
                }
            }

            elapsed += epoch_dt.value();
        }
        // Fire any plan remainder so the accounting covers the whole plan.
        faults.advance(SimTime::MAX);

        let outcome = NodeOutcome {
            lifetime: Seconds(elapsed),
            bits_sent,
            recall: if anomaly_epochs == 0 {
                1.0
            } else {
                reported_anomaly_epochs as f64 / anomaly_epochs as f64
            },
            radio_energy,
            compute_energy,
        };
        (
            outcome,
            NodeObservation {
                ledger,
                epoch_energy,
                trace,
            },
            FaultStats {
                epochs,
                deferred,
                anomaly_epochs,
                reported_epochs: reported_anomaly_epochs,
                probe_energy,
                faults,
            },
        )
    }
}

/// Fault-path bookkeeping threaded out of `run_inner`.
struct FaultStats {
    epochs: u64,
    deferred: u64,
    anomaly_epochs: u64,
    reported_epochs: u64,
    probe_energy: Energy,
    faults: FaultInjector,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::RadioTech;

    fn node() -> SensorNode {
        SensorNode::new(
            SensorNodeConfig::default(),
            Mcu::cortex_m_class(),
            Radio::new(RadioTech::BleClass),
        )
    }

    fn small_battery() -> Battery {
        Battery::new(Energy(1.0))
    }

    #[test]
    fn filtering_extends_lifetime_substantially() {
        // E10's headline: compute-then-send beats send-raw on lifetime.
        let n = node();
        let horizon = Seconds::from_hours(10_000.0);
        let raw = n.run(NodePolicy::SendRaw, small_battery(), horizon, 1);
        let filt = n.run(NodePolicy::FilterThenSend, small_battery(), horizon, 1);
        assert!(
            filt.lifetime.value() > 2.0 * raw.lifetime.value(),
            "filter {}h vs raw {}h",
            filt.lifetime.hours(),
            raw.lifetime.hours()
        );
        // And it's the radio that made the difference: bits per second of
        // lifetime drop by at least 5×.
        let raw_rate = raw.bits_sent as f64 / raw.lifetime.value();
        let filt_rate = filt.bits_sent as f64 / filt.lifetime.value();
        assert!(
            filt_rate < raw_rate / 5.0,
            "filt={filt_rate} raw={raw_rate}"
        );
    }

    #[test]
    fn compression_lands_between() {
        let n = node();
        let horizon = Seconds::from_hours(10_000.0);
        let raw = n.run(NodePolicy::SendRaw, small_battery(), horizon, 2);
        let comp = n.run(NodePolicy::CompressThenSend, small_battery(), horizon, 2);
        let filt = n.run(NodePolicy::FilterThenSend, small_battery(), horizon, 2);
        assert!(comp.lifetime.value() > raw.lifetime.value());
        assert!(comp.lifetime.value() < filt.lifetime.value());
    }

    #[test]
    fn filtering_keeps_high_recall() {
        // The saving must not come from dropping the medical events.
        let n = node();
        let filt = n.run(
            NodePolicy::FilterThenSend,
            Battery::new(Energy(2.0)),
            Seconds::from_hours(10_000.0),
            3,
        );
        assert!(filt.recall > 0.9, "recall={}", filt.recall);
    }

    #[test]
    fn radio_dominates_raw_policy_energy() {
        let n = node();
        let raw = n.run(
            NodePolicy::SendRaw,
            small_battery(),
            Seconds::from_hours(10_000.0),
            4,
        );
        assert!(
            raw.radio_energy.value() > 3.0 * raw.compute_energy.value(),
            "radio={} compute={}",
            raw.radio_energy,
            raw.compute_energy
        );
    }

    #[test]
    fn observed_run_matches_plain_run_and_accounts_energy() {
        let n = node();
        let horizon = Seconds::from_hours(1_000.0);
        let plain = n.run(NodePolicy::FilterThenSend, small_battery(), horizon, 6);
        let (out, obs) = n.run_observed(
            NodePolicy::FilterThenSend,
            small_battery(),
            None,
            horizon,
            6,
            Trace::disabled(),
        );
        // run() is run_observed() without a harvester: identical outcome.
        assert_eq!(out.lifetime.value(), plain.lifetime.value());
        assert_eq!(out.bits_sent, plain.bits_sent);
        // The ledger's compute/network layers equal the outcome's totals.
        assert!(
            (obs.ledger.layer_total(Layer::Compute).value() - out.compute_energy.value()).abs()
                < 1e-12
        );
        assert!(
            (obs.ledger.layer_total(Layer::Network).value() - out.radio_energy.value()).abs()
                < 1e-12
        );
        assert!(obs.ledger.layer_total(Layer::Idle).value() > 0.0);
        assert!(obs.epoch_energy.count() > 0);
    }

    #[test]
    fn harvesting_extends_lifetime_and_lands_on_the_ledger() {
        use crate::power::HarvestProfile;
        use xxi_core::units::Power;
        let n = node();
        let horizon = Seconds::from_hours(100.0);
        let (plain, _) = n.run_observed(
            NodePolicy::FilterThenSend,
            small_battery(),
            None,
            horizon,
            7,
            Trace::disabled(),
        );
        let h = Harvester::new(HarvestProfile::Constant, Power::from_uw(50.0), 100, 7);
        let (harvested, obs) = n.run_observed(
            NodePolicy::FilterThenSend,
            small_battery(),
            Some(h),
            horizon,
            7,
            Trace::disabled(),
        );
        assert!(harvested.lifetime.value() > plain.lifetime.value());
        assert!(obs.ledger.layer_total(Layer::Harvest).value() > 0.0);
        // Harvest is income: excluded from spend.
        assert!(obs.ledger.total_spent().value() > 0.0);
    }

    #[test]
    fn epoch_trace_has_spans_and_tx_instants() {
        let n = node();
        let (_, obs) = n.run_observed(
            NodePolicy::SendRaw,
            small_battery(),
            None,
            Seconds(100.0),
            8,
            Trace::enabled(),
        );
        assert!(!obs.trace.is_empty());
        let json = obs.trace.chrome_json();
        assert!(json.contains("\"epoch\""), "{json}");
        assert!(json.contains("\"tx\""), "{json}");
    }

    #[test]
    fn empty_plan_run_faulted_matches_run_bit_for_bit() {
        let n = node();
        let horizon = Seconds::from_hours(1_000.0);
        let plain = n.run(NodePolicy::FilterThenSend, small_battery(), horizon, 21);
        let faulted = n.run_faulted(
            NodePolicy::FilterThenSend,
            small_battery(),
            horizon,
            21,
            &FaultPlan::new(),
        );
        assert_eq!(
            plain.lifetime.value().to_bits(),
            faulted.outcome.lifetime.value().to_bits()
        );
        assert_eq!(plain.bits_sent, faulted.outcome.bits_sent);
        assert_eq!(
            plain.radio_energy.value().to_bits(),
            faulted.outcome.radio_energy.value().to_bits()
        );
        assert_eq!(faulted.deferred_epochs, 0);
        assert_eq!(faulted.probe_energy.value(), 0.0);
    }

    #[test]
    fn a_brownout_defers_bits_then_flushes_the_backlog() {
        use xxi_core::des::fault::Fault;
        let n = node();
        let horizon = Seconds(3_600.0);
        // Radio pauses (brownout) from t = 600 s for 1200 s.
        let mut plan = FaultPlan::new();
        plan.at(
            SimTime::from_seconds(Seconds(600.0)),
            0,
            Fault::Pause {
                for_time: SimTime::from_seconds(Seconds(1_200.0)),
            },
        );
        let free = n.run_faulted(
            NodePolicy::SendRaw,
            Battery::new(Energy(5.0)),
            horizon,
            22,
            &FaultPlan::new(),
        );
        let browned = n.run_faulted(
            NodePolicy::SendRaw,
            Battery::new(Energy(5.0)),
            horizon,
            22,
            &plan,
        );
        // SendRaw transmits every epoch, so every brownout epoch defers.
        assert!(browned.deferred_epochs > 100, "{}", browned.deferred_epochs);
        assert!(browned.probe_energy.value() > 0.0);
        // No bits are dropped — the backlog flushes after recovery — but
        // the probes drain the battery: same horizon, same bits, more
        // energy gone.
        assert_eq!(browned.outcome.bits_sent, free.outcome.bits_sent);
        assert_eq!(
            browned.metrics.counter("fault.scheduled"),
            browned.metrics.counter("fault.fired") + browned.metrics.counter("fault.cancelled")
        );
    }

    #[test]
    fn a_killed_radio_strands_the_backlog_and_recall() {
        use xxi_core::des::fault::Fault;
        let n = node();
        let horizon = Seconds::from_hours(100.0);
        let mut plan = FaultPlan::new();
        plan.at(SimTime::from_seconds(Seconds(60.0)), 0, Fault::Kill);
        let dead = n.run_faulted(
            NodePolicy::SendRaw,
            Battery::new(Energy(5.0)),
            horizon,
            23,
            &plan,
        );
        let free = n.run_faulted(
            NodePolicy::SendRaw,
            Battery::new(Energy(5.0)),
            horizon,
            23,
            &FaultPlan::new(),
        );
        // Everything after t=60 s is deferred forever.
        assert!(dead.outcome.bits_sent < free.outcome.bits_sent / 10);
        assert!(dead.deferred_epochs > 0);
        // Anomalies after the kill are never reported.
        assert!(
            dead.outcome.recall < 1.0 || dead.metrics.counter("sensor.anomaly_epochs") == 0,
            "recall={}",
            dead.outcome.recall
        );
    }

    #[test]
    fn horizon_caps_simulation() {
        let n = node();
        let out = n.run(
            NodePolicy::FilterThenSend,
            Battery::coin_cell(),
            Seconds(10.0),
            5,
        );
        assert!(out.lifetime.value() <= 10.0 + 1.1);
    }
}
