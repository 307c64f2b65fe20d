//! The four workloads. Each is a fixed job list built from the workload
//! seed (the set-up), one pass that calls the model crates' public
//! functions on it, and a check that digests every job's results, tests
//! its invariants, and sums the exact per-layer counts.
//!
//! Every job starts from an empty model, as the experiments do: the
//! calls construct their simulators, batteries and queues themselves.

// xxi-allow-file: determinism -- the timed pool wrapper measures host time

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use xxi_cloud::cluster::{cluster_sweep_on, ClusterConfig, ClusterOutcome, Hedging, Routing};
use xxi_cloud::fanout::{fanout_sweep_on, FanoutResult};
use xxi_cloud::hedge::{hedge_experiment_on, tied_experiment_on, HedgeOutcome};
use xxi_cloud::latency::LatencyDist;
use xxi_cloud::queueing::{MG1Queue, QueueResult};
use xxi_core::des::fault::{Fault, FaultMix, FaultPlan};
use xxi_core::obs::Trace;
use xxi_core::par::Parallelism;
use xxi_core::rng::Rng64;
use xxi_core::time::SimTime;
use xxi_core::units::{Energy, Power, Seconds};
use xxi_noc::sim::{NocConfig, NocResult, NocSim};
use xxi_noc::topology::Mesh;
use xxi_noc::traffic::Pattern;
use xxi_sensor::mcu::Mcu;
use xxi_sensor::node::{
    FaultedNodeOutcome, NodeObservation, NodeOutcome, NodePolicy, SensorNode, SensorNodeConfig,
};
use xxi_sensor::power::{Battery, HarvestProfile, Harvester};
use xxi_sensor::radio::{Radio, RadioTech};
use xxi_stack::pool::Pool;

use crate::check::{Digest, JobOutcome};
use crate::spans::Recorder;

/// Exact counts of one pass, keyed by their per-layer metric names.
pub type Counts = BTreeMap<&'static str, u64>;

/// What the check makes of one pass.
pub struct Pass {
    pub jobs: Vec<JobOutcome>,
    pub counts: Counts,
    /// Simulated work completed, in the workload's unit.
    pub work: u64,
}

pub trait Workload: Sized + Sync {
    const NAME: &'static str;
    /// The unit of `work_per_s`.
    const UNIT: &'static str;
    /// Whether the pass fans out on the pool.
    const USES_POOL: bool;
    type Out;

    /// Generate the job list from the workload seed.
    fn build(seed: u64) -> Self;
    /// One pass over the jobs: the timed part.
    fn run(&self, exec: &dyn Parallelism, rec: &Recorder) -> Self::Out;
    /// Digest, check and count one pass's results (untimed).
    fn check(&self, out: &Self::Out) -> Pass;
}

/// The benchmark's pool, optionally timing every task it runs (the
/// traced run's `pool.busy_frac`).
pub struct Exec<'a> {
    pub pool: &'a Pool,
    pub busy_ns: Option<&'a AtomicU64>,
}

impl Parallelism for Exec<'_> {
    fn threads(&self) -> usize {
        self.pool.threads()
    }

    fn for_tasks(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        match self.busy_ns {
            None => self.pool.run_scoped(tasks, f),
            Some(busy) => self.pool.run_scoped(tasks, &|i| {
                let t0 = Instant::now();
                f(i);
                busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }),
        }
    }
}

fn add(counts: &mut Counts, key: &'static str, n: u64) {
    *counts.entry(key).or_insert(0) += n;
}

fn sim_hours(h: f64) -> SimTime {
    SimTime::from_seconds(Seconds::from_hours(h))
}

// --- sensor-fleet ---------------------------------------------------------

/// Battery of every sensor job (the e10 grid's 1 J budget).
const SENSOR_BATTERY_J: f64 = 1.0;
/// Horizon of the battery-limited jobs: long enough that the battery,
/// not the horizon, ends every run.
const SENSOR_HORIZON_H: f64 = 100_000.0;
/// Horizon of the harvested node, which the harvester keeps alive.
const OBSERVED_HORIZON_H: f64 = 10.0;
/// Fault-free filter-policy lifetimes on a 1 J battery (e10), used only to
/// place brownouts and kills inside each faulted node's life.
const FAULTED_RADIOS: [(RadioTech, f64); 2] =
    [(RadioTech::ZigbeeClass, 8.51), (RadioTech::WifiClass, 2.81)];

enum SensorKind {
    Run,
    Faulted(FaultPlan),
    Observed(Harvester),
}

struct SensorJob {
    label: String,
    node: SensorNode,
    policy: NodePolicy,
    horizon: Seconds,
    seed: u64,
    kind: SensorKind,
}

pub enum SensorOut {
    Run(NodeOutcome),
    Faulted(FaultedNodeOutcome),
    Observed(NodeOutcome, NodeObservation),
}

/// `SensorNode::run` over the e10 grid, `run_faulted` under brownout and
/// kill plans, and one harvested `run_observed` node. Serial.
pub struct SensorFleet {
    jobs: Vec<SensorJob>,
}

fn node(tech: RadioTech) -> SensorNode {
    SensorNode::new(
        SensorNodeConfig::default(),
        Mcu::cortex_m_class(),
        Radio::new(tech),
    )
}

fn digest_node(d: &mut Digest, o: &NodeOutcome) {
    d.f64(o.lifetime.value())
        .u64(o.bits_sent)
        .f64(o.recall)
        .f64(o.radio_energy.value())
        .f64(o.compute_energy.value());
}

impl Workload for SensorFleet {
    const NAME: &'static str = "sensor-fleet";
    const UNIT: &'static str = "samples";
    const USES_POOL: bool = false;
    type Out = Vec<Option<SensorOut>>;

    fn build(seed: u64) -> SensorFleet {
        let mut rng = Rng64::stream(seed, 1);
        let horizon = Seconds::from_hours(SENSOR_HORIZON_H);
        let mut jobs = Vec::new();
        for tech in [
            RadioTech::BleClass,
            RadioTech::ZigbeeClass,
            RadioTech::LoraClass,
            RadioTech::WifiClass,
        ] {
            for policy in [
                NodePolicy::SendRaw,
                NodePolicy::CompressThenSend,
                NodePolicy::FilterThenSend,
            ] {
                jobs.push(SensorJob {
                    label: format!("run/{tech:?}/{policy:?}"),
                    node: node(tech),
                    policy,
                    horizon,
                    seed: rng.next_u64(),
                    kind: SensorKind::Run,
                });
            }
        }
        for (tech, life_h) in FAULTED_RADIOS {
            // Two brownouts of 5% of the life each, somewhere in its first
            // half, as in e10.
            let mut brownout = FaultPlan::new();
            for _ in 0..2 {
                brownout.at(
                    sim_hours(life_h * rng.range_f64(0.1, 0.5)),
                    0,
                    Fault::Pause {
                        for_time: sim_hours(life_h * 0.05),
                    },
                );
            }
            let mut kill = FaultPlan::new();
            kill.at(sim_hours(life_h * rng.range_f64(0.3, 0.7)), 0, Fault::Kill);
            for (name, plan) in [("brownout", brownout), ("kill", kill)] {
                jobs.push(SensorJob {
                    label: format!("run_faulted/{tech:?}/{name}"),
                    node: node(tech),
                    policy: NodePolicy::FilterThenSend,
                    horizon,
                    seed: rng.next_u64(),
                    kind: SensorKind::Faulted(plan),
                });
            }
        }
        // The e10 observed node: a small indoor-solar cell, 150 uW peak on
        // a 24 h cycle.
        let cfg = SensorNodeConfig::default();
        let epoch_s = cfg.epoch_samples as f64 / cfg.sample_hz;
        let day_epochs = (24.0 * 3600.0 / epoch_s) as u64;
        jobs.push(SensorJob {
            label: "run_observed/BleClass/solar".to_string(),
            node: node(RadioTech::BleClass),
            policy: NodePolicy::FilterThenSend,
            horizon: Seconds::from_hours(OBSERVED_HORIZON_H),
            seed: rng.next_u64(),
            kind: SensorKind::Observed(Harvester::new(
                HarvestProfile::Solar,
                Power::from_uw(150.0),
                day_epochs.max(1),
                rng.next_u64(),
            )),
        });
        SensorFleet { jobs }
    }

    fn run(&self, _exec: &dyn Parallelism, rec: &Recorder) -> Self::Out {
        let battery = || Battery::new(Energy(SENSOR_BATTERY_J));
        self.jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let (n, p, h, s) = (&j.node, j.policy, j.horizon, j.seed);
                match &j.kind {
                    SensorKind::Run => {
                        rec.call("SensorNode::run", "xxi-sensor", i as u32, 0.0, || {
                            SensorOut::Run(n.run(p, battery(), h, s))
                        })
                    }
                    SensorKind::Faulted(plan) => rec.call(
                        "SensorNode::run_faulted",
                        "xxi-sensor",
                        i as u32,
                        0.0,
                        || SensorOut::Faulted(n.run_faulted(p, battery(), h, s, plan)),
                    ),
                    SensorKind::Observed(harvester) => rec.call(
                        "SensorNode::run_observed",
                        "xxi-sensor",
                        i as u32,
                        0.0,
                        || {
                            let (o, obs) = n.run_observed(
                                p,
                                battery(),
                                Some(harvester.clone()),
                                h,
                                s,
                                Trace::disabled(),
                            );
                            SensorOut::Observed(o, obs)
                        },
                    ),
                }
            })
            .collect()
    }

    fn check(&self, out: &Self::Out) -> Pass {
        let mut counts = Counts::new();
        let mut samples = 0;
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for (j, o) in self.jobs.iter().zip(out) {
            let Some(o) = o else {
                jobs.push(JobOutcome::panicked(j.label.clone()));
                continue;
            };
            let mut d = Digest::new();
            let node_out = match o {
                SensorOut::Run(n) => n,
                SensorOut::Faulted(f) => {
                    d.u64(f.deferred_epochs)
                        .f64(f.probe_energy.value())
                        .metrics(&f.metrics);
                    &f.outcome
                }
                SensorOut::Observed(n, obs) => {
                    d.ledger(&obs.ledger).hist(&obs.epoch_energy);
                    n
                }
            };
            digest_node(&mut d, node_out);
            let mut job = JobOutcome::new(j.label.clone(), d.finish());
            let cfg = &j.node.cfg;
            let epoch_s = cfg.epoch_samples as f64 / cfg.sample_hz;
            // Epochs inside the lifetime; the lifetime is a whole number of
            // epochs, accumulated in f64.
            let epochs = (node_out.lifetime.value() / epoch_s).round() as u64;
            samples += epochs * cfg.epoch_samples as u64;
            job.require((0.0..=1.0).contains(&node_out.recall), || {
                format!("recall {} outside [0, 1]", node_out.recall)
            });
            job.require(node_out.lifetime.value() >= 0.0, || {
                format!("negative lifetime {}", node_out.lifetime.value())
            });
            if let SensorOut::Faulted(f) = o {
                job.require_fault_accounting(&f.metrics);
                add(
                    &mut counts,
                    "sensor.epochs",
                    f.metrics.counter("sensor.epochs"),
                );
                add(&mut counts, "sensor.deferred_epochs", f.deferred_epochs);
                for k in ["fault.scheduled", "fault.fired", "fault.cancelled"] {
                    add(&mut counts, k, f.metrics.counter(k));
                }
            } else {
                add(&mut counts, "sensor.epochs", epochs);
            }
            jobs.push(job);
        }
        add(&mut counts, "sensor.samples", samples);
        Pass {
            jobs,
            counts,
            work: samples,
        }
    }
}

// --- cluster-serving ------------------------------------------------------

/// Requests per cluster run.
const CLUSTER_REQUESTS: u32 = 1_000;
/// Kill rates (faults per replica over the run) of every sweep: nine
/// jobs per sweep, so each sweep's jobs spread over the threads running
/// them rather than one slow job setting its time alone.
const KILL_RATES: [f64; 9] = [
    0.0, 0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.0175, 0.02,
];

/// `cluster_sweep_on` over kill rates x the three routings x fixed and
/// adaptive-capped hedging, each sweep fanned out on the pool.
pub struct ClusterServing {
    sweeps: Vec<(String, ClusterConfig)>,
}

impl Workload for ClusterServing {
    const NAME: &'static str = "cluster-serving";
    const UNIT: &'static str = "requests";
    const USES_POOL: bool = true;
    type Out = Vec<Option<Vec<ClusterOutcome>>>;

    fn build(seed: u64) -> ClusterServing {
        let mut rng = Rng64::stream(seed, 2);
        let mut sweeps = Vec::new();
        for routing in [
            Routing::RoundRobin,
            Routing::LeastOutstanding,
            Routing::PowerOfTwo,
        ] {
            for (hname, hedging) in [
                ("fixed", Hedging::fixed(10.0)),
                ("adaptive-capped", Hedging::adaptive_capped(0.80)),
            ] {
                let cfg = ClusterConfig {
                    requests: CLUSTER_REQUESTS,
                    routing,
                    hedging,
                    seed: rng.next_u64(),
                    ..ClusterConfig::default()
                };
                sweeps.push((format!("{routing:?}/{hname}"), cfg));
            }
        }
        ClusterServing { sweeps }
    }

    fn run(&self, exec: &dyn Parallelism, rec: &Recorder) -> Self::Out {
        self.sweeps
            .iter()
            .enumerate()
            .map(|(i, (_, cfg))| {
                rec.call("cluster_sweep_on", "xxi-cloud", i as u32, 0.0, || {
                    cluster_sweep_on(cfg, &KILL_RATES, FaultMix::kills_only(), exec)
                })
            })
            .collect()
    }

    fn check(&self, out: &Self::Out) -> Pass {
        let mut counts = Counts::new();
        let mut jobs = Vec::new();
        for ((label, cfg), sweep) in self.sweeps.iter().zip(out) {
            for (k, rate) in KILL_RATES.iter().enumerate() {
                let label = format!("cluster/{label}/kill{rate}");
                let Some(o) = sweep.as_ref().and_then(|s| s.get(k)) else {
                    jobs.push(JobOutcome::panicked(label));
                    continue;
                };
                let mut d = Digest::new();
                d.u64(o.requests.into())
                    .u64(o.full.into())
                    .u64(o.partial.into())
                    .u64(o.failed.into())
                    .f64(o.p50)
                    .f64(o.p99)
                    .f64(o.p999)
                    .f64(o.mean)
                    .f64(o.goodput_rps)
                    .f64(o.retry_amplification)
                    .f64(o.partial_frac)
                    .metrics(&o.metrics);
                let mut job = JobOutcome::new(label, d.finish());
                job.require(o.full + o.partial + o.failed == o.requests, || {
                    format!(
                        "full {} + partial {} + failed {} != requests {}",
                        o.full, o.partial, o.failed, o.requests
                    )
                });
                let m = &o.metrics;
                let stale = m.counter("cluster.stale_fires");
                job.require(stale == 0, || format!("cloud.stale_fires {stale} != 0"));
                job.require_fault_accounting(m);
                jobs.push(job);

                add(&mut counts, "cloud.requests", o.requests.into());
                add(
                    &mut counts,
                    "cloud.shard_queries",
                    u64::from(o.requests) * u64::from(cfg.shards),
                );
                for (key, counter) in [
                    ("cloud.attempts", "cluster.attempts"),
                    ("cloud.retries", "cluster.retries"),
                    ("cloud.hedges", "cluster.hedges"),
                    ("cloud.timeouts", "cluster.timeouts"),
                    ("cloud.stale_fires", "cluster.stale_fires"),
                    ("des.events_fired", "des.events_fired"),
                    ("des.cancelled", "des.cancelled"),
                    ("des.boxed_events", "des.boxed_events"),
                    ("fault.scheduled", "fault.scheduled"),
                    ("fault.fired", "fault.fired"),
                    ("fault.cancelled", "fault.cancelled"),
                ] {
                    add(&mut counts, key, m.counter(counter));
                }
                let hw = counts.entry("des.arena_high_water").or_insert(0);
                *hw = (*hw).max(m.counter("des.arena_high_water"));
            }
        }
        let work = counts.get("cloud.requests").copied().unwrap_or(0);
        Pass { jobs, counts, work }
    }
}

// --- tail-montecarlo ------------------------------------------------------

const FANOUTS: [u32; 6] = [1, 10, 50, 100, 500, 1000];
const FANOUT_TRIALS: usize = 20_000;
const HEDGE_QUANTILES: [f64; 3] = [0.90, 0.95, 0.99];
const HEDGE_TRIALS: usize = 300_000;
const TIED_TRIALS: usize = 300_000;
/// Tied requests: mean queueing delay and cancellation delay (ms).
const TIED_QUEUE_MS: f64 = 4.0;
const TIED_CANCEL_MS: f64 = 1.0;
const MG1_RHOS: [f64; 6] = [0.3, 0.5, 0.7, 0.8, 0.9, 0.95];
const MG1_ARRIVALS: usize = 150_000;
/// Mean of `LatencyDist::typical_leaf()` (ms): 99% log-normal with median
/// 5 and sigma 0.3 (mean 5 e^0.045), 1% Pareto from 50 ms with alpha 1.5
/// (mean 150). Sets each queue's arrival rate for its nominal rho.
const LEAF_MEAN_MS: f64 = 0.99 * 5.230_113 + 0.01 * 150.0;

pub struct TailOut {
    fanout: Option<Vec<FanoutResult>>,
    hedges: Vec<Option<HedgeOutcome>>,
    tied: Option<(f64, f64, f64)>,
    mg1: Vec<Option<QueueResult>>,
}

/// `fanout_sweep_on`, `hedge_experiment_on`, `tied_experiment_on` and an
/// `MG1Queue::run` rho sweep, all on the pool.
pub struct TailMonteCarlo {
    leaf: LatencyDist,
    fanout_seed: u64,
    hedge_seeds: Vec<u64>,
    tied_seed: u64,
    queues: Vec<(MG1Queue, u64)>,
}

impl Workload for TailMonteCarlo {
    const NAME: &'static str = "tail-montecarlo";
    const UNIT: &'static str = "requests";
    const USES_POOL: bool = true;
    type Out = TailOut;

    fn build(seed: u64) -> TailMonteCarlo {
        let mut rng = Rng64::stream(seed, 3);
        let leaf = LatencyDist::typical_leaf();
        TailMonteCarlo {
            leaf,
            fanout_seed: rng.next_u64(),
            hedge_seeds: HEDGE_QUANTILES.iter().map(|_| rng.next_u64()).collect(),
            tied_seed: rng.next_u64(),
            queues: MG1_RHOS
                .iter()
                .map(|&rho| {
                    let q = MG1Queue {
                        lambda_per_ms: rho / LEAF_MEAN_MS,
                        service: leaf,
                    };
                    (q, rng.next_u64())
                })
                .collect(),
        }
    }

    fn run(&self, exec: &dyn Parallelism, rec: &Recorder) -> TailOut {
        let leaf = self.leaf;
        let fanout = rec.call("fanout_sweep_on", "xxi-cloud", 0, 0.0, || {
            fanout_sweep_on(leaf, &FANOUTS, FANOUT_TRIALS, self.fanout_seed, exec)
        });
        let hedges = HEDGE_QUANTILES
            .iter()
            .zip(&self.hedge_seeds)
            .enumerate()
            .map(|(i, (&q, &s))| {
                rec.call("hedge_experiment_on", "xxi-cloud", i as u32, q, || {
                    hedge_experiment_on(leaf, q, HEDGE_TRIALS, s, exec)
                })
            })
            .collect();
        let tied = rec.call("tied_experiment_on", "xxi-cloud", 0, 0.0, || {
            tied_experiment_on(
                leaf,
                TIED_QUEUE_MS,
                TIED_CANCEL_MS,
                TIED_TRIALS,
                self.tied_seed,
                exec,
            )
        });
        // The rho sweep fans out one `MG1Queue::run` per task, so each
        // run is its own span on the worker that ran it.
        let slots: Vec<Mutex<Option<QueueResult>>> =
            self.queues.iter().map(|_| Mutex::new(None)).collect();
        exec.for_tasks(self.queues.len(), &|i| {
            let (q, s) = &self.queues[i];
            let r = rec.call("MG1Queue::run", "xxi-cloud", i as u32, MG1_RHOS[i], || {
                q.run(MG1_ARRIVALS, *s)
            });
            *slots[i].lock().expect("result slot poisoned") = r;
        });
        let mg1 = slots
            .into_iter()
            .map(|m| m.into_inner().expect("result slot poisoned"))
            .collect();
        TailOut {
            fanout,
            hedges,
            tied,
            mg1,
        }
    }

    fn check(&self, out: &TailOut) -> Pass {
        let mut jobs = Vec::new();
        for (k, n) in FANOUTS.iter().enumerate() {
            let label = format!("fanout/{n}");
            match out.fanout.as_ref().and_then(|f| f.get(k)) {
                None => jobs.push(JobOutcome::panicked(label)),
                Some(r) => {
                    let mut d = Digest::new();
                    d.u64(r.fanout.into())
                        .f64(r.p50)
                        .f64(r.p99)
                        .f64(r.mean)
                        .f64(r.frac_hit_by_leaf_p99);
                    let mut job = JobOutcome::new(label, d.finish());
                    job.require(r.fanout == *n, || format!("fan-out {} != {n}", r.fanout));
                    job.require((0.0..=1.0).contains(&r.frac_hit_by_leaf_p99), || {
                        format!(
                            "straggler fraction {} outside [0, 1]",
                            r.frac_hit_by_leaf_p99
                        )
                    });
                    jobs.push(job);
                }
            }
        }
        for (q, h) in HEDGE_QUANTILES.iter().zip(&out.hedges) {
            let label = format!("hedge/p{}", q * 100.0);
            match h {
                None => jobs.push(JobOutcome::panicked(label)),
                Some(h) => {
                    let mut d = Digest::new();
                    d.f64(h.deadline_ms)
                        .f64(h.p50)
                        .f64(h.p99)
                        .f64(h.p999)
                        .f64(h.extra_load);
                    let mut job = JobOutcome::new(label, d.finish());
                    job.require((0.0..=1.0).contains(&h.extra_load), || {
                        format!("extra load {} outside [0, 1]", h.extra_load)
                    });
                    jobs.push(job);
                }
            }
        }
        match out.tied {
            None => jobs.push(JobOutcome::panicked("tied".to_string())),
            Some((p50, p99, p999)) => {
                let mut d = Digest::new();
                d.f64(p50).f64(p99).f64(p999);
                let mut job = JobOutcome::new("tied".to_string(), d.finish());
                job.require(p50 <= p99 && p99 <= p999, || {
                    format!("quantiles out of order: {p50} {p99} {p999}")
                });
                jobs.push(job);
            }
        }
        for (rho, r) in MG1_RHOS.iter().zip(&out.mg1) {
            let label = format!("mg1/rho{rho}");
            match r {
                None => jobs.push(JobOutcome::panicked(label)),
                Some(r) => {
                    let mut d = Digest::new();
                    d.f64(r.rho)
                        .f64(r.mean_ms)
                        .f64(r.p50)
                        .f64(r.p99)
                        .u64(r.completed as u64);
                    let mut job = JobOutcome::new(label, d.finish());
                    job.require(r.completed <= MG1_ARRIVALS, || {
                        format!("completed {} > arrivals {MG1_ARRIVALS}", r.completed)
                    });
                    jobs.push(job);
                }
            }
        }
        let mc_trials = (FANOUTS.len() * FANOUT_TRIALS
            + HEDGE_QUANTILES.len() * HEDGE_TRIALS
            + TIED_TRIALS) as u64;
        let arrivals = (MG1_RHOS.len() * MG1_ARRIVALS) as u64;
        let counts = Counts::from([
            ("cloud.mc_trials", mc_trials),
            ("cloud.mg1_arrivals", arrivals),
        ]);
        Pass {
            jobs,
            counts,
            work: mc_trials + arrivals,
        }
    }
}

// --- noc-mesh -------------------------------------------------------------

const NOC_WARMUP: u64 = 1_000;
const NOC_MEASURE: u64 = 4_000;
const NOC_RATES: [f64; 5] = [0.02, 0.1, 0.2, 0.3, 0.4];
/// Rate of the traffic-pattern runs (between the sweep's mid points).
const PATTERN_RATE: f64 = 0.25;

/// `NocSim::run` on the planar 8x8 and stacked 4x4x4 meshes from light
/// load to saturation, plus the non-uniform patterns on 8x8. Serial.
pub struct NocMesh {
    jobs: Vec<(String, NocConfig)>,
}

impl Workload for NocMesh {
    const NAME: &'static str = "noc-mesh";
    const UNIT: &'static str = "router-cycles";
    const USES_POOL: bool = false;
    type Out = Vec<Option<NocResult>>;

    fn build(seed: u64) -> NocMesh {
        let mut rng = Rng64::stream(seed, 4);
        let mut jobs = Vec::new();
        let mut job = |label: String, mesh: Mesh, pattern: Pattern, rate: f64| {
            let cfg = NocConfig {
                mesh,
                queue_depth: 4,
                pattern,
                injection_rate: rate,
                seed: rng.next_u64(),
            };
            jobs.push((label, cfg));
        };
        for (name, mesh) in [
            ("8x8", Mesh::new_2d(8, 8)),
            ("4x4x4", Mesh::new_3d(4, 4, 4)),
        ] {
            for rate in NOC_RATES {
                job(
                    format!("noc/{name}/uniform/{rate}"),
                    mesh,
                    Pattern::Uniform,
                    rate,
                );
            }
        }
        for (name, pattern) in [
            ("neighbor", Pattern::Neighbor),
            ("transpose", Pattern::Transpose),
            (
                "hotspot",
                Pattern::Hotspot {
                    node: 27,
                    permille: 200,
                },
            ),
        ] {
            let label = format!("noc/8x8/{name}/{PATTERN_RATE}");
            job(label, Mesh::new_2d(8, 8), pattern, PATTERN_RATE);
        }
        NocMesh { jobs }
    }

    fn run(&self, _exec: &dyn Parallelism, rec: &Recorder) -> Self::Out {
        self.jobs
            .iter()
            .enumerate()
            .map(|(i, (_, cfg))| {
                rec.call(
                    "NocSim::run",
                    "xxi-noc",
                    i as u32,
                    cfg.injection_rate,
                    || NocSim::new(*cfg).run(NOC_WARMUP, NOC_MEASURE),
                )
            })
            .collect()
    }

    fn check(&self, out: &Self::Out) -> Pass {
        let mut counts = Counts::new();
        let mut jobs = Vec::new();
        for ((label, cfg), r) in self.jobs.iter().zip(out) {
            let Some(r) = r else {
                jobs.push(JobOutcome::panicked(label.clone()));
                continue;
            };
            let mut d = Digest::new();
            d.u64(r.delivered)
                .u64(r.offered)
                .u64(r.throttled)
                .f64(r.mean_latency)
                .f64(r.p50_latency)
                .f64(r.p99_latency)
                .f64(r.p999_latency)
                .f64(r.max_latency)
                .f64(r.mean_hops)
                .f64(r.throughput)
                .u64(r.link_traversals);
            let mut job = JobOutcome::new(label.clone(), d.finish());
            // `delivered` counts every flit ejected during measurement, so it
            // includes flits injected in the warm-up that were still
            // buffered when measurement began — at most one full FIFO per
            // input port of every router.
            let buffered = cfg.mesh.nodes() as u64 * 7 * cfg.queue_depth as u64;
            job.require(r.delivered + r.throttled <= r.offered + buffered, || {
                format!(
                    "noc.delivered {} + noc.throttled {} > noc.offered {} + {buffered} buffered",
                    r.delivered, r.throttled, r.offered
                )
            });
            jobs.push(job);
            let cycles = cfg.mesh.nodes() as u64 * (NOC_WARMUP + NOC_MEASURE);
            add(&mut counts, "noc.router_cycles", cycles);
            add(&mut counts, "noc.delivered", r.delivered);
            add(&mut counts, "noc.offered", r.offered);
            add(&mut counts, "noc.link_traversals", r.link_traversals);
            add(&mut counts, "noc.throttled", r.throttled);
        }
        let work = counts.get("noc.router_cycles").copied().unwrap_or(0);
        Pass { jobs, counts, work }
    }
}
