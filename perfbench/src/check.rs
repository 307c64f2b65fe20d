//! The output check: a digest of every deterministic result field of a
//! job, the per-job invariants, and the expected digests kept with the
//! benchmark in `expected/<workload>.txt`.
//!
//! Digests feed the exact bits of each field (f64 through `to_bits`), so a
//! change that only makes the simulators faster must leave every digest
//! identical. A job fails the check when it panicked, broke an invariant,
//! or produced a digest other than the expected one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use xxi_core::metrics::Metrics;
use xxi_core::obs::{EnergyLedger, LogHistogram};

/// Quantiles digested for every histogram (the buckets themselves are
/// private to `LogHistogram`).
const HIST_QUANTILES: [f64; 7] = [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0];

/// FNV-1a over the exact bytes of every field fed to it.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) -> &mut Digest {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, x: u64) -> &mut Digest {
        self.bytes(&x.to_le_bytes())
    }

    /// Bitwise: `0.0` and `-0.0` digest differently, as they should.
    pub fn f64(&mut self, x: f64) -> &mut Digest {
        self.u64(x.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Every counter, gauge and histogram, in the registry's stable order.
    pub fn metrics(&mut self, m: &Metrics) -> &mut Digest {
        for (k, v) in m.counters() {
            self.str(k).u64(v);
        }
        for (k, v) in m.gauges() {
            self.str(k).f64(v);
        }
        for (k, h) in m.hists() {
            self.str(k).hist(h);
        }
        self
    }

    pub fn hist(&mut self, h: &LogHistogram) -> &mut Digest {
        self.u64(h.count());
        if !h.is_empty() {
            self.f64(h.mean()).f64(h.min()).f64(h.max());
            for q in HIST_QUANTILES {
                self.f64(h.quantile(q));
            }
        }
        self
    }

    pub fn ledger(&mut self, l: &EnergyLedger) -> &mut Digest {
        for (name, layer, energy, events) in l.components() {
            self.str(name)
                .str(layer.name())
                .f64(energy.value())
                .u64(events);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What one job produced, as far as the check is concerned.
pub struct JobOutcome {
    pub label: String,
    /// `None` when the call panicked.
    pub digest: Option<u64>,
    /// Broken invariants, one message each.
    pub violations: Vec<String>,
}

impl JobOutcome {
    pub fn new(label: String, digest: u64) -> JobOutcome {
        JobOutcome {
            label,
            digest: Some(digest),
            violations: Vec::new(),
        }
    }

    pub fn panicked(label: String) -> JobOutcome {
        JobOutcome {
            label,
            digest: None,
            violations: vec!["panicked".to_string()],
        }
    }

    /// Record a violation unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// `fault.scheduled == fault.fired + fault.cancelled`.
    pub fn require_fault_accounting(&mut self, m: &Metrics) {
        let (s, f, c) = (
            m.counter("fault.scheduled"),
            m.counter("fault.fired"),
            m.counter("fault.cancelled"),
        );
        self.require(s == f + c, || {
            format!("fault.scheduled {s} != fault.fired {f} + fault.cancelled {c}")
        });
    }
}

/// Expected per-job digests of one workload, by seed.
pub struct Expected {
    by_seed: BTreeMap<u64, Vec<u64>>,
}

impl Expected {
    /// Parse the `expected/<workload>.txt` format: `#` comments, then one
    /// `seed <n>: <hex digest> ...` line per seed, jobs in pass order.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut by_seed = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("expected digests, line {}: malformed: {line}", i + 1);
            let rest = line.strip_prefix("seed ").ok_or_else(bad)?;
            let (seed, digests) = rest.split_once(':').ok_or_else(bad)?;
            let seed: u64 = seed.trim().parse().map_err(|_| bad())?;
            let digests = digests
                .split_whitespace()
                .map(|d| u64::from_str_radix(d, 16).map_err(|_| bad()))
                .collect::<Result<Vec<u64>, String>>()?;
            by_seed.insert(seed, digests);
        }
        Ok(Expected { by_seed })
    }

    pub fn for_seed(&self, seed: u64) -> Option<&[u64]> {
        self.by_seed.get(&seed).map(Vec::as_slice)
    }

    /// Replace the digests of `seed` (used to bless, and by the self-test
    /// to plant a wrong digest).
    pub fn set(&mut self, seed: u64, digests: Vec<u64>) {
        self.by_seed.insert(seed, digests);
    }

    pub fn render(&self, header: &str) -> String {
        let mut s = String::new();
        for line in header.lines() {
            let _ = writeln!(s, "# {line}");
        }
        for (seed, digests) in &self.by_seed {
            let _ = write!(s, "seed {seed}:");
            for d in digests {
                let _ = write!(s, " {d:016x}");
            }
            s.push('\n');
        }
        s
    }
}

/// Check one pass: every job must have its expected digest (or, for a
/// seed without stored digests, the digest the first pass produced) and
/// no violations. Returns one message per failed (or missing) job.
pub fn failures(jobs: &[JobOutcome], reference: Option<&[u64]>) -> Vec<String> {
    let mut out = Vec::new();
    for i in jobs.len()..reference.map_or(0, <[u64]>::len) {
        out.push(format!("job {i}: expected but not run"));
    }
    for (i, job) in jobs.iter().enumerate() {
        let mut why = job.violations.clone();
        if let (Some(d), Some(r)) = (job.digest, reference) {
            match r.get(i) {
                Some(&e) if e == d => {}
                Some(&e) => why.push(format!("digest {d:016x}, expected {e:016x}")),
                None => why.push(format!("digest {d:016x} has no expected value")),
            }
        }
        if !why.is_empty() {
            out.push(format!("{}: {}", job.label, why.join("; ")));
        }
    }
    out
}

/// The digests of a pass, in job order (a panicked job digests as 0).
pub fn digests(jobs: &[JobOutcome]) -> Vec<u64> {
    jobs.iter().map(|j| j.digest.unwrap_or(0)).collect()
}
