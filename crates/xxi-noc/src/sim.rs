//! Synchronous flit-level mesh simulator.
//!
//! A cycle-driven model of a wormhole-class mesh at single-flit-packet
//! granularity: each router has one FIFO per input port; each cycle every
//! output port forwards at most one flit, chosen by rotating round-robin
//! arbitration over the input ports; forwarding requires a free slot in the
//! downstream FIFO (credit backpressure). This is the standard abstraction
//! for latency-vs-offered-load curves: it exhibits the canonical hockey-
//! stick saturation that experiment E13 sweeps.
//!
//! Data layout: all input FIFOs are rings in one flat slot array
//! (`queue_depth` slots for queue `router * 7 + port`) with a head and a
//! length per queue, and each router keeps a 7-bit mask of its non-empty
//! inputs so idle routers cost one byte test per cycle. Routing and
//! neighbors are tables built once from [`Mesh::route`] and
//! [`Mesh::neighbor`] (the route table has `nodes²` one-byte entries).
//! `queue_depth` has no upper bound beyond the memory of `nodes × 7 ×
//! queue_depth` slots.
//!
//! Arbitration: each occupied input's head flit sets its bit in the
//! request mask of the output it routes to; an output whose downstream
//! FIFO is full forwards nothing, and otherwise takes the first requesting
//! input at or after its round-robin pointer, cyclically. That is exactly
//! the choice of a scan over `(rr + k) % 7` for `k` in `0..7`, because the
//! downstream check does not depend on which input asks. No slot can be
//! claimed twice in a cycle: downstream slot `(to, port)` is fed only by
//! the one output of the one neighbor facing it, and that output
//! arbitrates once per cycle — so the occupancy at the start of the cycle
//! is the whole capacity check. A test-only copy of the scan engine
//! (`sim/reference.rs`) pins the equivalence bit for bit.
//!
//! Energy: the measured phase keeps `noc_link`/`noc_router` as running
//! sums of the same constants a per-hop `charge` would add, in the same
//! order, and posts them once per run with [`EnergyLedger::charge_n`], so
//! the ledger is bit-identical to charging every hop.
//!
//! Determinism: arbitration state and the injection RNG are seeded, so a
//! `(config, seed)` pair fully determines the run.

use serde::{Deserialize, Serialize};

use crate::topology::{Dir, Mesh};
use crate::traffic::Pattern;
use xxi_core::obs::{EnergyLedger, Layer, LogHistogram, Trace};
use xxi_core::rng::Rng64;
use xxi_core::stats::Streaming;
use xxi_core::time::SimTime;
use xxi_core::units::Energy;

#[cfg(test)]
mod reference;

/// Trace timestamp of a cycle number, assuming a 1 GHz router clock.
fn cycle_ts(cycle: u64) -> SimTime {
    SimTime::from_ns(cycle)
}

/// Link energy per flit traversal (~128-bit flit on a short on-chip wire).
const LINK_HOP_ENERGY: Energy = Energy(2.0e-12);
/// Router switching energy per flit forwarded or ejected.
const ROUTER_ENERGY: Energy = Energy(1.0e-12);

/// Port index of ejection to the local node.
const LOCAL: usize = Dir::Local.index();
/// Move target meaning "eject at this router".
const DELIVER: usize = usize::MAX;

/// Simulator configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NocConfig {
    /// Topology.
    pub mesh: Mesh,
    /// Per-input-port FIFO depth in flits (at least 1).
    pub queue_depth: usize,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Injection rate in flits per node per cycle (0–1).
    pub injection_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl NocConfig {
    /// A conventional 8×8 mesh at the given injection rate.
    pub fn mesh8x8(pattern: Pattern, injection_rate: f64, seed: u64) -> NocConfig {
        NocConfig {
            mesh: Mesh::new_2d(8, 8),
            queue_depth: 4,
            pattern,
            injection_rate,
            seed,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Flit {
    dest: usize,
    injected_at: u64,
    hops: u32,
}

/// One input FIFO's window into its `queue_depth` ring slots.
#[derive(Clone, Copy, Default)]
struct Ring {
    head: usize,
    len: usize,
}

/// Aggregate results of a run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NocResult {
    /// Flits delivered during the measurement phase.
    pub delivered: u64,
    /// Flits offered (attempted injections) during measurement.
    pub offered: u64,
    /// Flits that could not be injected (source queue full).
    pub throttled: u64,
    /// Mean packet latency in cycles (measurement phase).
    pub mean_latency: f64,
    /// Median packet latency in cycles.
    pub p50_latency: f64,
    /// 99th-percentile packet latency in cycles.
    pub p99_latency: f64,
    /// 99.9th-percentile packet latency in cycles.
    pub p999_latency: f64,
    /// Max packet latency in cycles.
    pub max_latency: f64,
    /// Mean hops per delivered flit.
    pub mean_hops: f64,
    /// Delivered throughput in flits/node/cycle.
    pub throughput: f64,
    /// Total link traversals (for energy accounting).
    pub link_traversals: u64,
}

/// Full telemetry from an observed run: the aggregate result plus the
/// per-packet latency/hop distributions, the energy ledger (links and
/// routers, [`Layer::Network`]), and the event trace.
#[derive(Clone, Debug)]
pub struct NocObservation {
    /// The aggregate counters and quantiles.
    pub result: NocResult,
    /// Per-packet latency in cycles (measurement phase).
    pub latency: LogHistogram,
    /// Per-packet hop counts (measurement phase).
    pub hops: LogHistogram,
    /// Energy attribution: `noc_link` and `noc_router`.
    pub ledger: EnergyLedger,
    /// Per-packet spans (`flit` on the destination node's track) and
    /// `throttled` instants; empty unless tracing was enabled.
    pub trace: Trace,
}

/// The simulator.
pub struct NocSim {
    cfg: NocConfig,
    /// Ring slots: queue `q` owns `slots[q * queue_depth..][..queue_depth]`.
    slots: Vec<Flit>,
    /// Per queue `router * 7 + port`.
    rings: Vec<Ring>,
    /// Per router: bit `port` set when that input FIFO is non-empty.
    occupied: Vec<u8>,
    /// Round-robin pointer per `router * 7 + output`.
    rr: Vec<u8>,
    /// Output port index for `cur * nodes + dest`, from [`Mesh::route`].
    route: Vec<u8>,
    /// Downstream queue for `router * 6 + output` (planar and vertical
    /// outputs only), from [`Mesh::neighbor`]; `usize::MAX` off the mesh,
    /// which no route reaches (dimension-order hops head for an on-mesh
    /// destination).
    downstream: Vec<usize>,
    /// This cycle's `(from queue, to queue or DELIVER)`, reused.
    moves: Vec<(usize, usize)>,
    rng: Rng64,
    cycle: u64,
    latency: Streaming,
    hops: Streaming,
    latency_hist: LogHistogram,
    hops_hist: LogHistogram,
    /// Measured-phase `noc_link` / `noc_router` charges, posted to the
    /// ledger once at the end of the run.
    link_energy: Energy,
    link_events: u64,
    router_energy: Energy,
    router_events: u64,
    /// Trace recorder: disabled by default; assign [`Trace::enabled`]
    /// before running to capture per-packet spans (timestamped at 1 ns per
    /// cycle) during the measurement phase.
    pub trace: Trace,
    delivered: u64,
    offered: u64,
    throttled: u64,
    link_traversals: u64,
    measuring: bool,
}

impl NocSim {
    /// Build a simulator.
    pub fn new(cfg: NocConfig) -> NocSim {
        assert!(cfg.queue_depth >= 1);
        assert!((0.0..=1.0).contains(&cfg.injection_rate));
        let mesh = cfg.mesh;
        let nodes = mesh.nodes();
        let route = (0..nodes)
            .flat_map(|cur| (0..nodes).map(move |dest| mesh.route(cur, dest).index() as u8))
            .collect();
        let downstream = (0..nodes)
            .flat_map(|r| {
                Dir::ALL[..6].iter().map(move |&out| {
                    mesh.neighbor(r, out)
                        .map_or(usize::MAX, |to| to * 7 + out.opposite().index())
                })
            })
            .collect();
        NocSim {
            rng: Rng64::new(cfg.seed),
            slots: vec![Flit::default(); nodes * 7 * cfg.queue_depth],
            rings: vec![Ring::default(); nodes * 7],
            occupied: vec![0; nodes],
            rr: vec![0; nodes * 7],
            route,
            downstream,
            moves: Vec::new(),
            cfg,
            cycle: 0,
            latency: Streaming::new(),
            hops: Streaming::new(),
            latency_hist: LogHistogram::new(),
            hops_hist: LogHistogram::new(),
            link_energy: Energy::ZERO,
            link_events: 0,
            router_energy: Energy::ZERO,
            router_events: 0,
            trace: Trace::disabled(),
            delivered: 0,
            offered: 0,
            throttled: 0,
            link_traversals: 0,
            measuring: false,
        }
    }

    /// Advance one cycle: inject, then switch.
    pub fn step(&mut self) {
        self.inject();
        self.switch();
        self.cycle += 1;
    }

    fn push(&mut self, q: usize, f: Flit) {
        let depth = self.cfg.queue_depth;
        let ring = &mut self.rings[q];
        debug_assert!(ring.len < depth);
        let mut tail = ring.head + ring.len;
        if tail >= depth {
            tail -= depth;
        }
        ring.len += 1;
        self.slots[q * depth + tail] = f;
        self.occupied[q / 7] |= 1 << (q % 7);
    }

    fn pop(&mut self, q: usize) -> Flit {
        let depth = self.cfg.queue_depth;
        let ring = &mut self.rings[q];
        debug_assert!(ring.len > 0);
        let f = self.slots[q * depth + ring.head];
        ring.head += 1;
        if ring.head == depth {
            ring.head = 0;
        }
        ring.len -= 1;
        if ring.len == 0 {
            self.occupied[q / 7] &= !(1 << (q % 7));
        }
        f
    }

    fn inject(&mut self) {
        let nodes = self.cfg.mesh.nodes();
        for src in 0..nodes {
            if !self.rng.chance(self.cfg.injection_rate) {
                continue;
            }
            let Some(dest) = self.cfg.pattern.dest(&self.cfg.mesh, src, &mut self.rng) else {
                continue;
            };
            assert!(
                dest < nodes,
                "destination {dest} is outside the {nodes}-node mesh"
            );
            if self.measuring {
                self.offered += 1;
            }
            let q = src * 7 + LOCAL;
            if self.rings[q].len < self.cfg.queue_depth {
                let injected_at = self.cycle;
                self.push(
                    q,
                    Flit {
                        dest,
                        injected_at,
                        hops: 0,
                    },
                );
            } else if self.measuring {
                self.throttled += 1;
                self.trace
                    .instant("throttled", "noc", src as u64, cycle_ts(self.cycle));
            }
        }
    }

    fn switch(&mut self) {
        // Two-phase: decide all moves against the *current* occupancy, then
        // apply, so a flit moves at most one hop per cycle and router scan
        // order cannot create free-slot races.
        let nodes = self.occupied.len();
        let depth = self.cfg.queue_depth;
        let mut moves = std::mem::take(&mut self.moves);
        moves.clear();
        for r in 0..nodes {
            let mut inputs = self.occupied[r] as u32;
            if inputs == 0 {
                continue;
            }
            // req[out]: inputs whose head flit routes to `out`.
            let mut req = [0u32; 7];
            let mut outs = 0u32;
            while inputs != 0 {
                let inp = inputs.trailing_zeros() as usize;
                inputs &= inputs - 1;
                let q = r * 7 + inp;
                let dest = self.slots[q * depth + self.rings[q].head].dest;
                let out = self.route[r * nodes + dest] as usize;
                req[out] |= 1 << inp;
                outs |= 1 << out;
            }
            // Outputs in `Dir::ALL` order, as the apply order requires.
            while outs != 0 {
                let out = outs.trailing_zeros() as usize;
                outs &= outs - 1;
                let to = if out == LOCAL {
                    DELIVER
                } else {
                    let to = self.downstream[r * 6 + out];
                    if self.rings[to].len == depth {
                        continue;
                    }
                    to
                };
                let want = req[out];
                let rr = &mut self.rr[r * 7 + out];
                let after = want & (0x7f << *rr);
                let inp = if after != 0 { after } else { want }.trailing_zeros() as usize;
                *rr = ((inp + 1) % 7) as u8;
                moves.push((r * 7 + inp, to));
            }
        }

        for &(from, to) in &moves {
            let mut f = self.pop(from);
            if to == DELIVER {
                debug_assert_eq!(f.dest, from / 7);
                self.delivered_flit(f);
                continue;
            }
            f.hops += 1;
            self.link_traversals += 1;
            if self.measuring {
                self.link_energy += LINK_HOP_ENERGY;
                self.link_events += 1;
                self.router_energy += ROUTER_ENERGY;
                self.router_events += 1;
            }
            self.push(to, f);
        }
        self.moves = moves;
    }

    fn delivered_flit(&mut self, f: Flit) {
        if self.measuring {
            self.delivered += 1;
            let cycles = (self.cycle - f.injected_at) as f64;
            self.latency.add(cycles);
            self.hops.add(f.hops as f64);
            self.latency_hist.add(cycles);
            self.hops_hist.add(f.hops as f64);
            self.router_energy += ROUTER_ENERGY;
            self.router_events += 1;
            self.trace.span_args(
                "flit",
                "noc",
                f.dest as u64,
                cycle_ts(f.injected_at),
                cycle_ts(self.cycle),
                &[("hops", f.hops as f64)],
            );
        }
    }

    /// Run `warmup` cycles unmeasured, then `measure` measured cycles, then
    /// drain-free stop; returns aggregate results.
    pub fn run(self, warmup: u64, measure: u64) -> NocResult {
        self.run_observed(warmup, measure).result
    }

    /// Like [`NocSim::run`] but also returns the per-packet histograms,
    /// the energy ledger, and the trace (enable `self.trace` first to get
    /// events).
    pub fn run_observed(mut self, warmup: u64, measure: u64) -> NocObservation {
        for _ in 0..warmup {
            self.step();
        }
        self.measuring = true;
        let start = self.cycle;
        for _ in 0..measure {
            self.step();
        }
        let cycles = (self.cycle - start) as f64;
        let nodes = self.cfg.mesh.nodes() as f64;
        let result = NocResult {
            delivered: self.delivered,
            offered: self.offered,
            throttled: self.throttled,
            mean_latency: self.latency.mean(),
            p50_latency: self.latency_hist.p50(),
            p99_latency: self.latency_hist.p99(),
            p999_latency: self.latency_hist.p999(),
            max_latency: self.latency.max(),
            mean_hops: self.hops.mean(),
            throughput: self.delivered as f64 / cycles / nodes,
            link_traversals: self.link_traversals,
        };
        let mut ledger = EnergyLedger::new();
        ledger.charge_n(
            "noc_link",
            Layer::Network,
            self.link_energy,
            self.link_events,
        );
        ledger.charge_n(
            "noc_router",
            Layer::Network,
            self.router_energy,
            self.router_events,
        );
        NocObservation {
            result,
            latency: self.latency_hist,
            hops: self.hops_hist,
            ledger,
            trace: self.trace,
        }
    }

    /// Every input queue's flits, front to back, as
    /// `(dest, injected_at, hops)`; queue `router * 7 + port`.
    #[cfg(test)]
    fn queues(&self) -> Vec<Vec<(usize, u64, u32)>> {
        let depth = self.cfg.queue_depth;
        self.rings
            .iter()
            .enumerate()
            .map(|(q, ring)| {
                (0..ring.len)
                    .map(|i| {
                        let f = self.slots[q * depth + (ring.head + i) % depth];
                        (f.dest, f.injected_at, f.hops)
                    })
                    .collect()
            })
            .collect()
    }
}

/// Sweep injection rates and return `(rate, mean_latency, throughput)`
/// triples — the saturation curve of experiment E13.
pub fn load_sweep(mesh: Mesh, pattern: Pattern, rates: &[f64], seed: u64) -> Vec<(f64, f64, f64)> {
    rates
        .iter()
        .map(|&rate| {
            let cfg = NocConfig {
                mesh,
                queue_depth: 4,
                pattern,
                injection_rate: rate,
                seed,
            };
            let r = NocSim::new(cfg).run(2_000, 8_000);
            (rate, r.mean_latency, r.throughput)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_latency_matches_hop_count() {
        // A single flit travels hops × 1 cycle per hop + 1 ejection cycle.
        let cfg = NocConfig::mesh8x8(Pattern::Uniform, 0.005, 7);
        let r = NocSim::new(cfg).run(1_000, 20_000);
        assert!(r.delivered > 100);
        // At near-zero load, latency ≈ mean_hops + small constant.
        assert!(
            (r.mean_latency - r.mean_hops).abs() < 3.0,
            "lat={} hops={}",
            r.mean_latency,
            r.mean_hops
        );
        // Mean hops ≈ analytic uniform mean (≈ 5.25 for 8×8).
        let expect = Mesh::new_2d(8, 8).mean_hops_uniform();
        assert!((r.mean_hops - expect).abs() < 0.5, "hops={}", r.mean_hops);
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let cfg = NocConfig::mesh8x8(Pattern::Uniform, 0.05, 8);
        let r = NocSim::new(cfg).run(2_000, 10_000);
        assert!(
            (r.throughput - 0.05).abs() < 0.01,
            "throughput={}",
            r.throughput
        );
        assert_eq!(r.throttled, 0);
    }

    #[test]
    fn saturation_hockey_stick() {
        // Latency at high load must exceed low-load latency by a lot, and
        // throughput must flatten below offered load.
        let m = Mesh::new_2d(8, 8);
        let sweep = load_sweep(m, Pattern::Uniform, &[0.02, 0.45], 9);
        let (lo_rate, lo_lat, lo_thr) = sweep[0];
        let (hi_rate, hi_lat, hi_thr) = sweep[1];
        assert!(hi_lat > 3.0 * lo_lat, "lo={lo_lat} hi={hi_lat}");
        assert!((lo_thr - lo_rate).abs() < 0.005);
        assert!(
            hi_thr < hi_rate,
            "saturated throughput {hi_thr} < {hi_rate}"
        );
    }

    #[test]
    fn transpose_saturates_earlier_than_uniform() {
        // Dimension-order routing concentrates transpose traffic.
        let m = Mesh::new_2d(8, 8);
        let u = load_sweep(m, Pattern::Uniform, &[0.30], 10)[0];
        let t = load_sweep(m, Pattern::Transpose, &[0.30], 10)[0];
        assert!(
            t.1 > u.1,
            "transpose latency {} should exceed uniform {}",
            t.1,
            u.1
        );
    }

    #[test]
    fn neighbor_traffic_is_cheap() {
        let m = Mesh::new_2d(8, 8);
        let n = load_sweep(m, Pattern::Neighbor, &[0.30], 11)[0];
        // One-hop traffic stays low-latency even at 0.3 flits/node/cycle.
        assert!(n.1 < 10.0, "neighbor latency={}", n.1);
    }

    #[test]
    fn stacked_3d_beats_planar_on_latency() {
        // E13's 3D claim: same node count, lower hop count, lower latency.
        let planar = NocSim::new(NocConfig {
            mesh: Mesh::new_2d(8, 8),
            queue_depth: 4,
            pattern: Pattern::Uniform,
            injection_rate: 0.1,
            seed: 12,
        })
        .run(2_000, 8_000);
        let stacked = NocSim::new(NocConfig {
            mesh: Mesh::new_3d(4, 4, 4),
            queue_depth: 4,
            pattern: Pattern::Uniform,
            injection_rate: 0.1,
            seed: 12,
        })
        .run(2_000, 8_000);
        assert!(stacked.mean_hops < planar.mean_hops);
        assert!(stacked.mean_latency < planar.mean_latency);
    }

    #[test]
    fn conservation_no_flits_lost() {
        // Run with measurement from cycle 0 and drain by injecting nothing:
        // delivered + in-flight == injected.
        let cfg = NocConfig::mesh8x8(Pattern::Uniform, 0.1, 13);
        let mut sim = NocSim::new(cfg);
        sim.measuring = true;
        for _ in 0..1_000 {
            sim.step();
        }
        let injected = sim.offered - sim.throttled;
        sim.cfg.injection_rate = 0.0;
        for _ in 0..10_000 {
            sim.step();
        }
        assert_eq!(sim.delivered, injected);
    }

    #[test]
    fn observed_run_reports_quantiles_energy_and_trace() {
        let mut sim = NocSim::new(NocConfig::mesh8x8(Pattern::Uniform, 0.1, 21));
        sim.trace = Trace::enabled();
        let obs = sim.run_observed(1_000, 4_000);
        let r = &obs.result;
        assert_eq!(obs.latency.count(), r.delivered);
        assert!(r.p50_latency <= r.p99_latency && r.p99_latency <= r.p999_latency);
        assert!(r.p50_latency > 0.0 && r.p999_latency <= r.max_latency);
        // Tail sits above the mean in a congested queueing system.
        assert!(r.p99_latency >= r.mean_latency, "{r:?}");
        // Energy: every measured hop charged a link + router traversal.
        assert!(obs.ledger.component("noc_link").value() > 0.0);
        assert!(obs.ledger.layer_total(Layer::Network).value() == obs.ledger.total_spent().value());
        // Trace has one span per delivered flit.
        assert_eq!(obs.trace.len() as u64, r.delivered);
        assert!(obs.trace.chrome_json().contains("\"flit\""));
    }

    #[test]
    fn tracing_disabled_records_nothing_and_changes_nothing() {
        let plain =
            NocSim::new(NocConfig::mesh8x8(Pattern::Uniform, 0.2, 22)).run_observed(500, 2_000);
        let mut traced = NocSim::new(NocConfig::mesh8x8(Pattern::Uniform, 0.2, 22));
        traced.trace = Trace::enabled();
        let traced = traced.run_observed(500, 2_000);
        assert_eq!(plain.result.delivered, traced.result.delivered);
        assert_eq!(plain.result.p99_latency, traced.result.p99_latency);
        assert_eq!(plain.trace.events_capacity(), 0);
        assert!(!traced.trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the 16-node mesh")]
    fn hotspot_off_the_mesh_panics() {
        let pattern = Pattern::Hotspot {
            node: 16,
            permille: 1000,
        };
        let cfg = NocConfig {
            mesh: Mesh::new_2d(4, 4),
            queue_depth: 4,
            pattern,
            injection_rate: 1.0,
            seed: 1,
        };
        NocSim::new(cfg).run(0, 10);
    }

    #[test]
    fn determinism() {
        let r1 = NocSim::new(NocConfig::mesh8x8(Pattern::Uniform, 0.2, 99)).run(500, 2_000);
        let r2 = NocSim::new(NocConfig::mesh8x8(Pattern::Uniform, 0.2, 99)).run(500, 2_000);
        assert_eq!(r1.delivered, r2.delivered);
        assert_eq!(r1.link_traversals, r2.link_traversals);
        assert_eq!(r1.mean_latency, r2.mean_latency);
    }
}
