//! Cross-layer observability: tracing, histograms, and energy accounting.
//!
//! The paper argues for architectures judged across layers — sensor to
//! cloud — on latency *distributions* and *energy*, not single means.
//! This module is the measurement substrate that makes those judgments
//! from simulation output:
//!
//! * [`Trace`] — a typed span/instant recorder hooked into the DES engine
//!   ([`crate::des::Sim`]). Zero cost when disabled (one branch, no
//!   allocation); exports Chrome `trace_event` JSON for chrome://tracing
//!   / Perfetto and a plain-text timeline.
//! * [`LogHistogram`] — a fixed-memory (~16 KiB) log-bucketed latency /
//!   energy histogram with p50/p90/p99/p99.9 within 1/16 relative error,
//!   mergeable across shards. Replaces `Vec<f64>`-and-sort percentiles
//!   in long-running simulations.
//! * [`TailDigest`] — a 2 KiB streaming quantile digest for *online*
//!   policy decisions (e.g. adaptive hedging at a per-shard latency
//!   quantile): same log-bucketed nearest-rank scheme as the histogram,
//!   narrower range, insertion-order independent.
//! * [`EnergyLedger`] — joules attributed to named components and
//!   [`Layer`]s (compute / memory / network / idle / harvest), rendered
//!   as a paper-style attribution table.
//!
//! `xxi-cloud`, `xxi-mem`, `xxi-noc`, and `xxi-sensor` instrument their
//! models with these types; the `xxi` driver in `xxi-bench` exposes
//! traces via `xxi run <id> --trace <path>`.

mod digest;
mod hist;
mod ledger;
mod trace;

pub use digest::TailDigest;
pub use hist::LogHistogram;
pub use ledger::{fmt_energy, EnergyLedger, Layer};
pub use trace::{SpanId, Trace, DEFAULT_EVENT_LIMIT};
