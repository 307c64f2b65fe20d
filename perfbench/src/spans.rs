//! Host-time spans around the benchmark's calls into each layer.
//!
//! One span per public call (name, layer, job id, start and end in host
//! time, parent = the pass span) and one span per pass. Spans stay in
//! memory and are written out at the end as Chrome trace JSON through
//! `xxi_core::obs::Trace`, whose clock here carries host nanoseconds.
//! A disabled recorder runs the call and nothing else.

// xxi-allow-file: determinism -- spans measure host time by design

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use xxi_core::obs::Trace;
use xxi_core::time::SimTime;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub job: u32,
    /// One input parameter of the call (e.g. a NoC injection rate).
    pub arg: f64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, `NO_PARENT` for a pass span.
    pub parent: u32,
    /// Host thread the span ran on (0 = the main thread).
    pub track: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// Index of the open pass span.
    pass: AtomicU32,
}

fn track() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static TRACK: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TRACK.with(|t| *t)
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            pass: AtomicU32::new(NO_PARENT),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(span);
        (spans.len() - 1) as u32
    }

    /// One call into `layer`: runs `f`, catching a panic (`None`), and
    /// records its span when enabled.
    pub fn call<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        job: u32,
        arg: f64,
        f: impl FnOnce() -> R,
    ) -> Option<R> {
        if !self.enabled {
            return catch_unwind(AssertUnwindSafe(f)).ok();
        }
        let start_ns = self.now_ns();
        let out = catch_unwind(AssertUnwindSafe(f)).ok();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            layer,
            job,
            arg,
            start_ns,
            end_ns,
            // ORDERING: only the main thread writes `pass`, before it
            // starts the pass's calls and after they have all returned.
            parent: self.pass.load(Ordering::Relaxed),
            track: track(),
        });
        out
    }

    /// Run one pass of `workload` under a pass span; returns its spans
    /// (pass span first) when enabled.
    pub fn pass(&self, workload: &'static str, pass_no: u32, f: impl FnOnce()) -> Vec<Span> {
        if !self.enabled {
            f();
            return Vec::new();
        }
        let start_ns = self.now_ns();
        let idx = self.push(Span {
            name: workload,
            layer: "perfbench",
            job: pass_no,
            arg: 0.0,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
            track: track(),
        });
        // ORDERING: see `call`; the pool's own synchronisation orders this
        // store before every task of the pass.
        self.pass.store(idx, Ordering::Relaxed);
        f();
        // ORDERING: as above.
        self.pass.store(NO_PARENT, Ordering::Relaxed);
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans[idx as usize].end_ns = end_ns;
        spans[idx as usize..]
            .iter()
            .map(|s| Span {
                parent: if s.parent == NO_PARENT {
                    NO_PARENT
                } else {
                    s.parent - idx
                },
                ..*s
            })
            .collect()
    }

    /// Write every recorded span as Chrome trace JSON (`ts`/`dur` in host
    /// microseconds; `args.job`, `args.arg`, `args.parent`).
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut trace = Trace::with_limit(usize::MAX);
        let host = |ns: u64| SimTime::from_ps(ns.saturating_mul(1000));
        for s in self.spans.lock().expect("span list poisoned").iter() {
            let parent = if s.parent == NO_PARENT {
                -1.0
            } else {
                f64::from(s.parent)
            };
            trace.span_args(
                s.name,
                s.layer,
                s.track,
                host(s.start_ns),
                host(s.end_ns),
                &[
                    ("job", f64::from(s.job)),
                    ("arg", s.arg),
                    ("parent", parent),
                ],
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        trace.save_chrome_json(path)
    }
}

/// Self time of each span of one pass (as returned by [`Recorder::pass`]):
/// its duration minus the part of it that its child spans cover. Children
/// on pool workers may overlap each other, so the covered part is the
/// union of their intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    (0..spans.len())
        .map(|i| {
            let p = &spans[i];
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent as usize == i)
                .map(|c| (c.start_ns.max(p.start_ns), c.end_ns.min(p.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, p.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            p.dur_ns() - covered
        })
        .collect()
}
