//! Per-layer metrics of one traced pass, derived from its spans (self
//! time per call name), its exact counts, and the pool's own counters.

use std::collections::BTreeMap;

use xxi_stack::pool::PoolStats;

use crate::spans::{self_times, Span};
use crate::workloads::Counts;

/// Every per-layer metric: name, unit, and which way is better. Exact
/// counts are identities — a change to the simulators alone must leave
/// them as they are; their direction only says which way means less work.
pub const PER_LAYER: [(&str, &str, &str); 43] = [
    ("sensor.run_s", "s", "lower"),
    ("sensor.run_faulted_s", "s", "lower"),
    ("sensor.run_observed_s", "s", "lower"),
    ("sensor.samples_per_s", "1/s", "higher"),
    ("sensor.epochs", "count", "lower"),
    ("sensor.deferred_epochs", "count", "lower"),
    ("cloud.cluster_run_s", "s", "lower"),
    ("cloud.requests_per_busy_s", "1/s", "higher"),
    ("cloud.attempts", "count", "lower"),
    ("cloud.retries", "count", "lower"),
    ("cloud.hedges", "count", "lower"),
    ("cloud.timeouts", "count", "lower"),
    ("cloud.stale_fires", "count", "lower"),
    ("cloud.retry_amplification", "ratio", "lower"),
    ("cloud.mc_trials_per_s", "1/s", "higher"),
    ("cloud.mg1_run_s", "s", "lower"),
    ("cloud.mg1_ns_per_arrival", "ns", "lower"),
    ("des.events_fired", "count", "lower"),
    ("des.cancelled", "count", "lower"),
    ("des.arena_high_water", "count", "lower"),
    ("des.boxed_events", "count", "lower"),
    ("des.cancel_frac", "fraction", "lower"),
    ("des.ns_per_event", "ns", "lower"),
    ("fault.scheduled", "count", "lower"),
    ("fault.fired", "count", "lower"),
    ("fault.cancelled", "count", "lower"),
    ("pool.busy_frac", "fraction", "higher"),
    ("pool.idle_s", "s", "lower"),
    ("pool.steal_success", "fraction", "higher"),
    ("pool.executed", "count", "lower"),
    ("pool.parks", "count", "lower"),
    ("pool.wakeups", "count", "lower"),
    ("noc.run_s", "s", "lower"),
    ("noc.light_run_s", "s", "lower"),
    ("noc.saturated_run_s", "s", "lower"),
    ("noc.router_cycles_per_s", "1/s", "higher"),
    ("noc.delivered", "count", "higher"),
    ("noc.offered", "count", "higher"),
    ("noc.link_traversals", "count", "lower"),
    ("noc.throttled", "count", "lower"),
    ("noc.delivered_frac", "fraction", "higher"),
    ("host.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
];

/// Injection rates at or below this are light load, at or above
/// `SATURATED_RATE` saturated.
const LIGHT_RATE: f64 = 0.1;
const SATURATED_RATE: f64 = 0.3;

/// Everything one traced pass measured besides its spans and counts.
pub struct PassHost {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Threads that run pool tasks: the workers and the main thread,
    /// which helps while it waits.
    pub threads: usize,
    /// Σ of pool task times.
    pub busy_s: f64,
    /// Pool counters over the pass (`None` for a serial workload).
    pub pool: Option<PoolStats>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced pass (`trace.overhead_frac` is a
/// property of the whole run and is added by the caller).
pub fn pass_metrics(
    spans: &[Span],
    counts: &Counts,
    host: &PassHost,
) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let time = |keep: &dyn Fn(&Span) -> bool| -> f64 {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| keep(s))
            .fold(0.0, |acc, (_, &t)| acc + t as f64 * 1e-9)
    };
    let named = |name: &'static str| time(&|s: &Span| s.name == name);
    let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;

    let sensor = [
        named("SensorNode::run"),
        named("SensorNode::run_faulted"),
        named("SensorNode::run_observed"),
    ];
    let cluster_s = named("cluster_sweep_on");
    let mc_s =
        named("fanout_sweep_on") + named("hedge_experiment_on") + named("tied_experiment_on");
    let mg1_s = named("MG1Queue::run");
    let noc_s = named("NocSim::run");
    let des_events = count("des.events_fired") + count("des.cancelled");
    let pool = host.pool.unwrap_or_default();
    let threads = if host.pool.is_some() {
        host.threads as f64
    } else {
        0.0
    };
    let steal_probes = (pool.steals + pool.failed_steals) as f64;

    let mut m = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        m.insert(k, v);
    };
    put("sensor.run_s", sensor[0]);
    put("sensor.run_faulted_s", sensor[1]);
    put("sensor.run_observed_s", sensor[2]);
    put(
        "sensor.samples_per_s",
        ratio(count("sensor.samples"), sensor[0] + sensor[1] + sensor[2]),
    );
    put("cloud.cluster_run_s", cluster_s);
    put(
        "cloud.requests_per_busy_s",
        ratio(count("cloud.requests"), host.busy_s),
    );
    put(
        "cloud.retry_amplification",
        ratio(count("cloud.attempts"), count("cloud.shard_queries")),
    );
    put(
        "cloud.mc_trials_per_s",
        ratio(count("cloud.mc_trials"), mc_s),
    );
    put("cloud.mg1_run_s", mg1_s);
    put(
        "cloud.mg1_ns_per_arrival",
        ratio(mg1_s * 1e9, count("cloud.mg1_arrivals")),
    );
    put("des.cancel_frac", ratio(count("des.cancelled"), des_events));
    put("des.ns_per_event", ratio(cluster_s * 1e9, des_events));
    put("pool.busy_frac", ratio(host.busy_s, host.wall_s * threads));
    put("pool.idle_s", host.wall_s * threads - host.busy_s);
    put(
        "pool.steal_success",
        ratio(pool.steals as f64, steal_probes),
    );
    put("pool.executed", pool.executed as f64);
    put("pool.parks", pool.parks as f64);
    put("pool.wakeups", pool.wakeups as f64);
    put("noc.run_s", noc_s);
    put(
        "noc.light_run_s",
        time(&|s: &Span| s.name == "NocSim::run" && s.arg <= LIGHT_RATE),
    );
    put(
        "noc.saturated_run_s",
        time(&|s: &Span| s.name == "NocSim::run" && s.arg >= SATURATED_RATE),
    );
    put(
        "noc.router_cycles_per_s",
        ratio(count("noc.router_cycles"), noc_s),
    );
    put(
        "noc.delivered_frac",
        ratio(count("noc.delivered"), count("noc.offered")),
    );
    put("host.cpu_s", host.cpu_s);
    // The exact counts, under their own names; the rest read 0 on a
    // workload that never reaches their layer.
    for (name, _, _) in PER_LAYER {
        if !m.contains_key(name) {
            m.insert(name, count(name));
        }
    }
    m
}
