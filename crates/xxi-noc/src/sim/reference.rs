//! Reference engine for the switch-stage oracle (test-only).
//!
//! This is the simulator as it was before the flat-ring switch: seven
//! `VecDeque`s per router, a 7×7 scan per router and cycle that calls
//! `Mesh::route`/`Mesh::neighbor` for every candidate, a per-cycle `claims`
//! table, and one ledger lookup per charge. The tests below drive it and
//! [`NocSim`] over seeded configurations and demand bit-equal results,
//! ledgers, traces and per-cycle queue contents.

use std::collections::VecDeque;

use super::{
    cycle_ts, NocConfig, NocObservation, NocResult, NocSim, LINK_HOP_ENERGY, ROUTER_ENERGY,
};
use crate::topology::{Dir, Mesh};
use crate::traffic::Pattern;
use xxi_core::obs::{EnergyLedger, Layer, LogHistogram, Trace};
use xxi_core::rng::Rng64;
use xxi_core::stats::Streaming;

#[derive(Clone, Copy, Debug)]
struct Flit {
    dest: usize,
    injected_at: u64,
    hops: u32,
}

struct Router {
    inputs: [VecDeque<Flit>; 7],
    /// Round-robin pointer per output port.
    rr: [usize; 7],
}

struct RefSim {
    cfg: NocConfig,
    routers: Vec<Router>,
    rng: Rng64,
    cycle: u64,
    latency: Streaming,
    hops: Streaming,
    latency_hist: LogHistogram,
    hops_hist: LogHistogram,
    ledger: EnergyLedger,
    trace: Trace,
    delivered: u64,
    offered: u64,
    throttled: u64,
    link_traversals: u64,
    measuring: bool,
}

impl RefSim {
    fn new(cfg: NocConfig) -> RefSim {
        assert!(cfg.queue_depth >= 1);
        assert!((0.0..=1.0).contains(&cfg.injection_rate));
        let routers = (0..cfg.mesh.nodes())
            .map(|_| Router {
                inputs: Default::default(),
                rr: [0; 7],
            })
            .collect();
        RefSim {
            rng: Rng64::new(cfg.seed),
            cfg,
            routers,
            cycle: 0,
            latency: Streaming::new(),
            hops: Streaming::new(),
            latency_hist: LogHistogram::new(),
            hops_hist: LogHistogram::new(),
            ledger: EnergyLedger::new(),
            trace: Trace::disabled(),
            delivered: 0,
            offered: 0,
            throttled: 0,
            link_traversals: 0,
            measuring: false,
        }
    }

    fn step(&mut self) {
        self.inject();
        self.switch();
        self.cycle += 1;
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
            if self.measuring {
                self.offered += 1;
            }
            let q = &mut self.routers[src].inputs[Dir::Local.index()];
            if q.len() < self.cfg.queue_depth {
                q.push_back(Flit {
                    dest,
                    injected_at: self.cycle,
                    hops: 0,
                });
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
        let mesh = self.cfg.mesh;
        // (from_router, from_port) -> (to_router, to_port) or delivery.
        enum Move {
            Hop {
                from: usize,
                port: usize,
                to: usize,
                to_port: usize,
            },
            Deliver {
                from: usize,
                port: usize,
            },
        }
        let mut moves: Vec<Move> = Vec::new();
        // Claimed slots this cycle: (router, port) -> claims.
        let mut claims = vec![[0u8; 7]; self.routers.len()];

        for r in 0..self.routers.len() {
            // Each output port arbitrates independently among input ports.
            for out in Dir::ALL {
                let out_idx = out.index();
                let rr = self.routers[r].rr[out_idx];
                let mut chosen: Option<usize> = None;
                for k in 0..7 {
                    let inp = (rr + k) % 7;
                    let Some(f) = self.routers[r].inputs[inp].front() else {
                        continue;
                    };
                    if mesh.route(r, f.dest) != out {
                        continue;
                    }
                    // Check downstream capacity.
                    if out == Dir::Local {
                        chosen = Some(inp);
                        break;
                    }
                    let Some(to) = mesh.neighbor(r, out) else {
                        continue;
                    };
                    let to_port = out.opposite().index();
                    let free = self.cfg.queue_depth
                        - self.routers[to].inputs[to_port].len()
                        - claims[to][to_port] as usize;
                    if free > 0 {
                        chosen = Some(inp);
                        break;
                    }
                }
                if let Some(inp) = chosen {
                    self.routers[r].rr[out_idx] = (inp + 1) % 7;
                    if out == Dir::Local {
                        moves.push(Move::Deliver { from: r, port: inp });
                    } else {
                        let to = mesh.neighbor(r, out).unwrap(); // xxi-allow: panic-path -- route stays inside the mesh
                        let to_port = out.opposite().index();
                        claims[to][to_port] += 1;
                        moves.push(Move::Hop {
                            from: r,
                            port: inp,
                            to,
                            to_port,
                        });
                    }
                }
            }
        }

        for m in moves {
            match m {
                Move::Deliver { from, port } => {
                    let f = self.routers[from].inputs[port].pop_front().unwrap(); // xxi-allow: panic-path -- moves only name occupied ports
                    debug_assert_eq!(f.dest, from);
                    self.delivered_flit(f);
                }
                Move::Hop {
                    from,
                    port,
                    to,
                    to_port,
                } => {
                    let mut f = self.routers[from].inputs[port].pop_front().unwrap(); // xxi-allow: panic-path -- moves only name occupied ports
                    f.hops += 1;
                    self.link_traversals += 1;
                    if self.measuring {
                        self.ledger
                            .charge("noc_link", Layer::Network, LINK_HOP_ENERGY);
                        self.ledger
                            .charge("noc_router", Layer::Network, ROUTER_ENERGY);
                    }
                    self.routers[to].inputs[to_port].push_back(f);
                    debug_assert!(self.routers[to].inputs[to_port].len() <= self.cfg.queue_depth);
                }
            }
        }
    }

    fn delivered_flit(&mut self, f: Flit) {
        if self.measuring {
            self.delivered += 1;
            let cycles = (self.cycle - f.injected_at) as f64;
            self.latency.add(cycles);
            self.hops.add(f.hops as f64);
            self.latency_hist.add(cycles);
            self.hops_hist.add(f.hops as f64);
            self.ledger
                .charge("noc_router", Layer::Network, ROUTER_ENERGY);
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

    fn run_observed(mut self, warmup: u64, measure: u64) -> NocObservation {
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
        NocObservation {
            result,
            latency: self.latency_hist,
            hops: self.hops_hist,
            ledger: self.ledger,
            trace: self.trace,
        }
    }

    /// Every input queue's flits, front to back, as
    /// `(dest, injected_at, hops)`; queue `r * 7 + port`.
    fn queues(&self) -> Vec<Vec<(usize, u64, u32)>> {
        self.routers
            .iter()
            .flat_map(|r| r.inputs.iter())
            .map(|q| q.iter().map(|f| (f.dest, f.injected_at, f.hops)).collect())
            .collect()
    }
}

/// Ledger rows `(component, layer, energy bits, events)`.
type LedgerRows = Vec<(&'static str, Layer, u64, u64)>;

/// Everything an observation carries that the switch can influence, with
/// floats as bit patterns so `==` is bit-equality.
fn fingerprint(obs: &NocObservation) -> (Vec<u64>, LedgerRows, String) {
    let r = &obs.result;
    let fields = vec![
        r.delivered,
        r.offered,
        r.throttled,
        r.mean_latency.to_bits(),
        r.p50_latency.to_bits(),
        r.p99_latency.to_bits(),
        r.p999_latency.to_bits(),
        r.max_latency.to_bits(),
        r.mean_hops.to_bits(),
        r.throughput.to_bits(),
        r.link_traversals,
        obs.latency.count(),
        obs.hops.count(),
    ];
    let ledger = obs
        .ledger
        .components()
        .map(|(name, layer, e, n)| (name, layer, e.value().to_bits(), n))
        .collect();
    (fields, ledger, obs.trace.chrome_json())
}

const MESHES: [(usize, usize, usize); 6] = [
    (1, 1, 1),
    (2, 1, 1),
    (3, 5, 1),
    (8, 8, 1),
    (4, 4, 4),
    (2, 3, 4),
];
const DEPTHS: [usize; 4] = [1, 2, 4, 9];
const RATES: [f64; 5] = [0.0, 0.01, 0.3, 0.7, 1.0];

fn patterns(mesh: &Mesh, rng: &mut Rng64) -> [Pattern; 4] {
    [
        Pattern::Uniform,
        Pattern::Transpose,
        Pattern::Hotspot {
            node: rng.below(mesh.nodes() as u64) as usize,
            permille: rng.below(1001) as u32,
        },
        Pattern::Neighbor,
    ]
}

#[test]
fn flat_ring_switch_matches_the_reference_engine() {
    let mut rng = Rng64::new(0x0c13);
    let mut runs = 0;
    for (w, h, d) in MESHES {
        let mesh = Mesh::new_3d(w, h, d);
        for queue_depth in DEPTHS {
            for pattern in patterns(&mesh, &mut rng) {
                for injection_rate in RATES {
                    let cfg = NocConfig {
                        mesh,
                        queue_depth,
                        pattern,
                        injection_rate,
                        seed: rng.next_u64(),
                    };
                    let warmup = rng.below(40);
                    let measure = 1 + rng.below(160);
                    let mut new = NocSim::new(cfg);
                    new.trace = Trace::enabled();
                    let mut old = RefSim::new(cfg);
                    old.trace = Trace::enabled();
                    let (a, b) = (
                        new.run_observed(warmup, measure),
                        old.run_observed(warmup, measure),
                    );
                    assert_eq!(
                        fingerprint(&a),
                        fingerprint(&b),
                        "{cfg:?} {warmup}+{measure}"
                    );
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, MESHES.len() * DEPTHS.len() * 4 * RATES.len());
}

#[test]
fn queue_contents_match_the_reference_engine_every_cycle() {
    let configs = [
        (Mesh::new_2d(8, 8), 4, Pattern::Uniform, 0.7),
        (Mesh::new_3d(4, 4, 4), 1, Pattern::Uniform, 1.0),
        (Mesh::new_2d(3, 5), 2, Pattern::Transpose, 0.3),
        (Mesh::new_3d(2, 3, 4), 9, Pattern::Neighbor, 1.0),
        (
            Mesh::new_2d(8, 8),
            4,
            Pattern::Hotspot {
                node: 27,
                permille: 300,
            },
            0.3,
        ),
    ];
    for (i, (mesh, queue_depth, pattern, injection_rate)) in configs.into_iter().enumerate() {
        let cfg = NocConfig {
            mesh,
            queue_depth,
            pattern,
            injection_rate,
            seed: 100 + i as u64,
        };
        let (mut new, mut old) = (NocSim::new(cfg), RefSim::new(cfg));
        for cycle in 0..400 {
            if cycle == 100 {
                new.measuring = true;
                old.measuring = true;
            }
            new.step();
            old.step();
            assert_eq!(new.queues(), old.queues(), "{cfg:?} after cycle {cycle}");
        }
        assert_eq!(
            (new.delivered, new.link_traversals, new.throttled),
            (old.delivered, old.link_traversals, old.throttled)
        );
    }
}
