//! perfbench — the repository benchmark.
//!
//! Links the model crates and calls their public functions on seeded,
//! generated inputs. Every number is host time or an exact count; the
//! simulated statistics are outputs that the check digests and compares.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --self-test
//! perfbench --bless <first>-<last>
//! ```
//!
//! The last line of a run is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

// xxi-allow-file: determinism -- a benchmark times host execution

mod calib;
mod check;
mod host;
mod layers;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use xxi_core::par::{Parallelism, Serial};
use xxi_stack::pool::Pool;

use calib::Calib;
use check::Expected;
use layers::{PassHost, PER_LAYER};
use spans::Recorder;
use workloads::{ClusterServing, Exec, NocMesh, Pass, SensorFleet, TailMonteCarlo, Workload};

const USAGE: &str =
    "usage: perfbench --workload <sensor-fleet|cluster-serving|tail-montecarlo|noc-mesh|all>
                 [--seed N] [--seconds S] [--trace 0|1]
       perfbench --self-test
       perfbench --bless <first>-<last>";

const WORKLOADS: [&str; 4] = [
    SensorFleet::NAME,
    ClusterServing::NAME,
    TailMonteCarlo::NAME,
    NocMesh::NAME,
];

/// Set-ups before every pass; `setup_s` is the median over the run, so
/// it samples the same stretch of host time as the passes.
const SETUP_REPEATS: usize = 5;
/// Untraced passes per run at the least (and traced ones, when tracing),
/// however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// The self-test's canonical and held-out seeds.
const CANONICAL_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 1_000_003;
/// At most this many failure messages are printed per run.
const SHOWN_FAILURES: usize = 10;

/// The expected digests, built into the binary.
fn expected_text(workload: &str) -> &'static str {
    match workload {
        SensorFleet::NAME => include_str!("../expected/sensor-fleet.txt"),
        ClusterServing::NAME => include_str!("../expected/cluster-serving.txt"),
        TailMonteCarlo::NAME => include_str!("../expected/tail-montecarlo.txt"),
        _ => include_str!("../expected/noc-mesh.txt"),
    }
}

fn expected(workload: &str) -> Expected {
    Expected::parse(expected_text(workload)).unwrap_or_else(|e| {
        eprintln!("perfbench: {workload}: {e}");
        exit(2)
    })
}

/// The benchmark's own directory, where `out/` and `expected/` live.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Pool workers of the pool workloads.
    workers: usize,
}

enum Command {
    Run(Opts),
    SelfTest,
    Bless(u64, u64),
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pool workers: one fewer than the host's cores, because the main
/// thread helps run tasks while it waits in `run_scoped`. Together they
/// keep every core busy without an extra thread competing for them.
fn workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: CANONICAL_SEED,
        seconds: 10.0,
        trace: false,
        workers: workers(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return Ok(Command::SelfTest);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => o.workload = value.clone(),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--bless" => {
                let (a, b) = value.split_once('-').ok_or_else(bad)?;
                let (a, b) = (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?);
                if a > b {
                    return Err(bad());
                }
                return Ok(Command::Bless(a, b));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if o.workload != "all" && !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown or missing --workload '{}'", o.workload));
    }
    Ok(Command::Run(o))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = parse(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let code = match cmd {
        Command::Run(o) => run(&o),
        Command::SelfTest => self_test(),
        Command::Bless(a, b) => bless(a, b),
    };
    exit(code)
}

/// The result of one run of one workload.
struct Report {
    /// The workload's unit of work.
    unit: &'static str,
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Set-up: the job list from the seed and, for a pool workload, the pool.
/// Done `SETUP_REPEATS` times, each time appended to `times` at reference
/// speed (divided by the host's `slowdown`); returns the last.
fn set_up<W: Workload>(o: &Opts, slowdown: f64, times: &mut Vec<f64>) -> (W, Option<Pool>) {
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        let w = W::build(o.seed);
        let pool = W::USES_POOL.then(|| Pool::new(o.workers));
        times.push(t0.elapsed().as_secs_f64() / slowdown);
        built = Some((w, pool));
    }
    built.expect("at least one set-up")
}

/// One measured run of workload `W`: a reading of the host's speed,
/// set-up and a pass, again and again until `o.seconds` are spent, each
/// pass checked. With `o.trace`, untraced and traced passes alternate and
/// the per-layer metrics come from the traced ones.
fn measure<W: Workload>(o: &Opts) -> Report {
    let expected = expected(W::NAME);
    let mut setups = Vec::new();
    let busy = AtomicU64::new(0);
    let (off, on) = (Recorder::new(false), Recorder::new(true));
    let mut reference = expected.for_seed(o.seed).map(<[u64]>::to_vec);
    if reference.is_none() {
        println!(
            "note: no stored digests for seed {}; checking invariants and pass-to-pass identity",
            o.seed
        );
    }
    let mut first_counts = None;
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut work = 0u64;
    // Untraced pass times as measured, and every pass at reference speed.
    let mut plain = Vec::new();
    let (mut plain_at_ref, mut traced_at_ref) = (Vec::new(), Vec::new());
    let mut layer_passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();

    // Host-speed readings run on as many threads as the passes.
    let mut calib = Calib::new(if W::USES_POOL { o.workers + 1 } else { 1 });
    let start = Instant::now();
    for pass_no in 0u32.. {
        let slowdown = calib.host_slowdown();
        let (w, pool) = set_up::<W>(o, slowdown, &mut setups);
        let is_traced = o.trace && pass_no % 2 == 1;
        let rec = if is_traced { &on } else { &off };
        busy.store(0, Ordering::Relaxed);
        let exec: Box<dyn Parallelism> = match &pool {
            Some(pool) => Box::new(Exec {
                pool,
                busy_ns: is_traced.then_some(&busy),
            }),
            None => Box::new(Serial),
        };
        let stats0 = pool.as_ref().map(Pool::stats);
        let cpu0 = host::cpu_s().unwrap_or(0.0);

        let t0 = Instant::now();
        let mut out = None;
        let pass_spans = rec.pass(W::NAME, pass_no, || out = Some(w.run(&*exec, rec)));
        let wall = t0.elapsed().as_secs_f64();
        eprintln!(
            "{} pass {pass_no}{}: {wall:.6} s, host slowdown {slowdown:.4}",
            W::NAME,
            if is_traced { " (traced)" } else { "" }
        );

        let cpu_s = host::cpu_s().unwrap_or(0.0) - cpu0;
        let pool_stats = pool
            .as_ref()
            .zip(stats0)
            .map(|(p, s0)| p.stats().since(&s0));
        let Pass {
            jobs,
            counts,
            work: w_pass,
        } = w.check(&out.expect("pass ran"));
        attempted += jobs.len() as u64;
        let reference = reference.get_or_insert_with(|| check::digests(&jobs));
        let mut fails = check::failures(&jobs, Some(reference));
        if *first_counts.get_or_insert_with(|| counts.clone()) != counts {
            fails.push("exact counts differ from the first pass".to_string());
        }
        failures.extend(fails.into_iter().map(|f| format!("pass {pass_no}: {f}")));
        work = w_pass;

        if is_traced {
            traced_at_ref.push(wall / slowdown);
            let host = PassHost {
                wall_s: wall,
                cpu_s,
                threads: o.workers + 1,
                busy_s: busy.load(Ordering::Relaxed) as f64 * 1e-9,
                pool: pool_stats,
            };
            layer_passes.push(layers::pass_metrics(&pass_spans, &counts, &host));
        } else {
            plain.push(wall);
            plain_at_ref.push(wall / slowdown);
        }
        let enough =
            plain.len() >= MIN_PASSES && (!o.trace || traced_at_ref.len() >= MIN_PASSES);
        let typical = median(&plain);
        if enough && start.elapsed().as_secs_f64() + typical > o.seconds {
            break;
        }
    }

    // The median pass at reference speed. Other tenants of the host slow
    // whole stretches of passes, and the reference kernels run before each
    // pass slow with them, so the ratio holds where the raw time drifts.
    let wall_s = median(&plain_at_ref);
    let metrics = if o.trace {
        let path = package_dir().join(format!("out/trace-{}-seed{}.json", W::NAME, o.seed));
        match on.write_chrome(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        let overhead = median(&traced_at_ref) / wall_s - 1.0;
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let v = if name == "trace.overhead_frac" {
                    overhead
                } else {
                    let per_pass: Vec<f64> = layer_passes.iter().map(|m| m[name]).collect();
                    median(&per_pass)
                };
                (name, v, unit)
            })
            .collect()
    } else {
        vec![
            ("wall_s", wall_s, "s"),
            ("work_per_s", work as f64 / wall_s, "1/s"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MiB"),
        ]
    };
    println!(
        "{}: seed {}, {} worker(s), {} untraced + {} traced pass(es), {} {} per pass, \
         median untraced pass {} s as measured",
        W::NAME,
        o.seed,
        if W::USES_POOL { o.workers } else { 0 },
        plain.len(),
        traced_at_ref.len(),
        work,
        W::UNIT,
        median(&plain)
    );
    Report {
        unit: W::UNIT,
        attempted,
        failures,
        metrics,
    }
}

fn measure_named(name: &str, o: &Opts) -> Report {
    match name {
        SensorFleet::NAME => measure::<SensorFleet>(o),
        ClusterServing::NAME => measure::<ClusterServing>(o),
        TailMonteCarlo::NAME => measure::<TailMonteCarlo>(o),
        _ => measure::<NocMesh>(o),
    }
}

fn run(o: &Opts) -> i32 {
    let names: Vec<&str> = if o.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![o.workload.as_str()]
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut json_metrics = String::new();
    for name in &names {
        let r = measure_named(name, o);
        let n_failed = r.failures.len() as u64;
        for f in r.failures.iter().take(SHOWN_FAILURES) {
            println!("FAILED {f}");
        }
        for (metric, v, unit) in &r.metrics {
            let shown = if *metric == "work_per_s" {
                format!("{}/s", r.unit)
            } else {
                unit.to_string()
            };
            println!("  {name} {metric} = {v} {shown}");
        }
        println!(
            "  {name} error_rate = {} ({n_failed} of {} job(s) failed)",
            n_failed as f64 / r.attempted.max(1) as f64,
            r.attempted
        );
        for (metric, v, unit) in r.metrics {
            let key = if names.len() == 1 {
                metric.to_string()
            } else {
                format!("{name}/{metric}")
            };
            let v = if v.is_finite() { v } else { 0.0 };
            if !json_metrics.is_empty() {
                json_metrics.push_str(", ");
            }
            let _ = write!(
                json_metrics,
                "\"{key}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        attempted += r.attempted;
        failed += n_failed;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json_metrics}}}}}",
        failed == 0
    );
    0
}

/// One untimed pass of `W` at `seed` on a pool of `threads`.
fn one_pass<W: Workload>(seed: u64, threads: usize) -> Pass {
    let w = W::build(seed);
    let rec = Recorder::new(false);
    let out = if W::USES_POOL {
        let pool = Pool::new(threads);
        w.run(
            &Exec {
                pool: &pool,
                busy_ns: None,
            },
            &rec,
        )
    } else {
        w.run(&Serial, &rec)
    };
    w.check(&out)
}

fn one_pass_named(name: &str, seed: u64, threads: usize) -> Pass {
    match name {
        SensorFleet::NAME => one_pass::<SensorFleet>(seed, threads),
        ClusterServing::NAME => one_pass::<ClusterServing>(seed, threads),
        TailMonteCarlo::NAME => one_pass::<TailMonteCarlo>(seed, threads),
        _ => one_pass::<NocMesh>(seed, threads),
    }
}

/// Record the digests of `first..=last` for every workload in
/// `expected/<workload>.txt` (seeds outside the range are kept).
fn bless(first: u64, last: u64) -> i32 {
    for name in WORKLOADS {
        let mut e = expected(name);
        for seed in first..=last {
            let pass = one_pass_named(name, seed, workers());
            let broken = check::failures(&pass.jobs, None);
            if !broken.is_empty() {
                eprintln!("perfbench: {name} seed {seed} breaks invariants: {broken:?}");
                return 1;
            }
            e.set(seed, check::digests(&pass.jobs));
        }
        let header = format!(
            "Expected per-job digests of {name}, one line per seed, jobs in pass order.\n\
             Regenerate with `perfbench --bless <first>-<last>` only when a change\n\
             deliberately alters the model's outputs."
        );
        let path = package_dir().join(format!("expected/{name}.txt"));
        if let Err(err) = std::fs::write(&path, e.render(&header)) {
            eprintln!("perfbench: could not write {}: {err}", path.display());
            return 1;
        }
        println!(
            "blessed {name} seeds {first}..={last} -> {}",
            path.display()
        );
    }
    0
}

/// The benchmark's own checks: a planted wrong digest is caught; pool
/// size does not change any digest or count; a held-out seed changes
/// the digests and still passes every invariant.
fn self_test() -> i32 {
    let mut ok = true;
    let mut verdict = |pass: bool, what: String| {
        println!("{} {what}", if pass { "ok  " } else { "FAIL" });
        ok &= pass;
    };

    // 1. A planted wrong expected digest must raise error_rate above 0.
    let name = NocMesh::NAME;
    let mut e = expected(name);
    let pass = one_pass_named(name, CANONICAL_SEED, nproc());
    match e.for_seed(CANONICAL_SEED).map(<[u64]>::to_vec) {
        None => verdict(
            false,
            format!("{name}: no stored digests for seed {CANONICAL_SEED}"),
        ),
        Some(mut digests) => {
            let clean = check::failures(&pass.jobs, Some(&digests)).len();
            verdict(
                clean == 0,
                format!("{name}: stored digests match ({clean} failure(s))"),
            );
            digests[3] ^= 1;
            e.set(CANONICAL_SEED, digests);
            let planted = check::failures(&pass.jobs, e.for_seed(CANONICAL_SEED)).len();
            let rate = planted as f64 / pass.jobs.len() as f64;
            verdict(
                planted == 1,
                format!("{name}: planted wrong digest gives error_rate {rate} > 0"),
            );
        }
    }

    // 2. Thread invariance of the pool workloads.
    for name in [ClusterServing::NAME, TailMonteCarlo::NAME] {
        let one = one_pass_named(name, CANONICAL_SEED, 1);
        let many = one_pass_named(name, CANONICAL_SEED, nproc().max(2));
        let same = check::digests(&one.jobs) == check::digests(&many.jobs);
        verdict(
            same && one.counts == many.counts,
            format!(
                "{name}: digests and exact counts identical with 1 and {} worker(s)",
                nproc().max(2)
            ),
        );
    }

    // 3. The held-out seed reaches the inputs and passes every invariant.
    // Some jobs' outputs do not depend on their seed (a send-raw node
    // reports every anomaly whatever the signal), so the test asks for a
    // changed digest in every kind of call, not in every job.
    for name in WORKLOADS {
        let canonical = check::digests(&one_pass_named(name, CANONICAL_SEED, nproc()).jobs);
        let held = one_pass_named(name, HELD_OUT_SEED, nproc());
        let broken = check::failures(&held.jobs, None);
        let kind = |label: &str| label.split('/').next().unwrap_or("").to_string();
        let mut kinds: BTreeMap<String, bool> = BTreeMap::new();
        let mut changed = 0;
        for (job, before) in held.jobs.iter().zip(&canonical) {
            let differs = job.digest != Some(*before);
            changed += usize::from(differs);
            *kinds.entry(kind(&job.label)).or_default() |= differs;
        }
        let unchanged: Vec<&String> = kinds.iter().filter(|(_, &c)| !c).map(|(k, _)| k).collect();
        verdict(
            broken.is_empty() && unchanged.is_empty(),
            format!(
                "{name}: seed {HELD_OUT_SEED} changes {changed} of {} digest(s), \
                 in {} of {} kind(s) of call, {} invariant failure(s)",
                canonical.len(),
                kinds.len() - unchanged.len(),
                kinds.len(),
                broken.len()
            ),
        );
    }
    if ok {
        0
    } else {
        1
    }
}
