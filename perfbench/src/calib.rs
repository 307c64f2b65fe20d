//! A fixed reference computation that reads the host's current speed.
//!
//! On a shared host, other tenants' work slows every pass by up to about
//! half, in stretches of seconds to minutes. The reference kernels below
//! are the benchmark's own code, so no change to the model can speed them
//! up or slow them down; timing them just before a pass, on as many threads
//! as the pass runs on, says how fast the host was at that moment. The end-to-end times are reported at a fixed
//! reference speed: host time ÷ `Calib::host_slowdown()`.

// xxi-allow-file: determinism -- the kernels exist to be timed on the host

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// One reference kernel: the sizes of its priority queue and lookup table,
/// and its time on the baseline host (README.md, a 2-vCPU Xeon at 2.1 GHz)
/// in a quiet stretch, which defines the reference speed.
struct Kernel {
    heap_entries: usize,
    table_entries: usize,
    nominal_s: f64,
}

/// Interference does not slow all code alike: a busy neighbour on the
/// same physical core slows code whose data fits in L1 cache less than
/// code that needs the core's L2. So there are two kernels, one of each,
/// and the reading is their geometric mean: the model's workloads range
/// from the sensor loop, which stays in L1, to event sets and meshes of a
/// few MiB.
const SMALL: Kernel = Kernel {
    heap_entries: 1 << 9,
    table_entries: 1 << 11,
    nominal_s: 0.0040,
};
const LARGE: Kernel = Kernel {
    heap_entries: 1 << 14,
    table_entries: 1 << 18,
    nominal_s: 0.0075,
};
/// Queue operations per timing of a kernel.
const STEPS: usize = 100_000;
/// Timings of each kernel per reading; the reading is their median, so
/// one interrupted timing does not move it.
const ROUNDS: usize = 3;

/// The two kernels, by the index the helper threads are sent.
const KERNELS: [Kernel; 2] = [SMALL, LARGE];
/// Sent to the helper threads to make them return.
const STOP: usize = usize::MAX;

/// Host-speed readings on `threads` threads: the calling thread and
/// helpers of the benchmark's own, which sleep between readings.
///
/// Nothing is allocated or freed after `new`. Freeing a large block would
/// raise the allocator's mmap threshold and change how the model's own
/// allocations are served, and with it `peak_rss_mb`; threads started
/// afresh for every reading would shift the pool workers' allocator
/// arenas.
pub struct Calib {
    own: Scratch,
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

struct Shared {
    /// Index into `KERNELS` of the next run, or `STOP`.
    next: AtomicUsize,
    start: Barrier,
    done: Barrier,
    /// Each helper's time for its last kernel run, in nanoseconds.
    helper_ns: Vec<AtomicU64>,
}

impl Calib {
    /// Buffers (about 2.1 MiB a thread) and `threads - 1` helpers.
    pub fn new(threads: usize) -> Calib {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            next: AtomicUsize::new(STOP),
            start: Barrier::new(threads),
            done: Barrier::new(threads),
            helper_ns: (1..threads).map(|_| AtomicU64::new(0)).collect(),
        });
        let helpers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let mut scratch = Scratch::new();
                std::thread::spawn(move || loop {
                    shared.start.wait();
                    // ORDERING: the barrier's lock orders this load after
                    // the caller's store.
                    let Some(k) = KERNELS.get(shared.next.load(Ordering::Relaxed)) else {
                        return;
                    };
                    let ns = timed_ns(|| scratch.kernel(k));
                    // ORDERING: read by the caller after `done`, whose lock
                    // orders this store before it.
                    shared.helper_ns[i].store(ns, Ordering::Relaxed);
                    shared.done.wait();
                })
            })
            .collect();
        Calib {
            own: Scratch::new(),
            shared,
            helpers,
        }
    }

    /// How many times slower the host runs the reference kernels now, one
    /// copy on each thread, than at the reference speed.
    pub fn host_slowdown(&mut self) -> f64 {
        let mut rounds = [0.0; ROUNDS];
        for r in &mut rounds {
            *r = (self.slowdown(0) * self.slowdown(1)).sqrt();
        }
        rounds.sort_by(f64::total_cmp);
        rounds[ROUNDS / 2]
    }

    /// Each thread times its own run, so the time a sleeping helper takes
    /// to wake is not counted. The threads' slowdowns are combined by their
    /// harmonic mean: the rate of a pool that balances work over them.
    fn slowdown(&mut self, kernel: usize) -> f64 {
        let k = &KERNELS[kernel];
        // ORDERING: published to the helpers by the barrier's lock.
        self.shared.next.store(kernel, Ordering::Relaxed);
        self.shared.start.wait();
        let own_ns = timed_ns(|| self.own.kernel(k));
        self.shared.done.wait();
        let times = std::iter::once(own_ns)
            .chain(self.shared.helper_ns.iter().map(|t| t.load(Ordering::Relaxed)));
        let (n, speed) = times.fold((0.0, 0.0), |(n, speed), ns| {
            (n + 1.0, speed + k.nominal_s / (ns as f64 * 1e-9))
        });
        n / speed
    }
}

impl Drop for Calib {
    fn drop(&mut self) {
        // ORDERING: published to the helpers by the barrier's lock.
        self.shared.next.store(STOP, Ordering::Relaxed);
        self.shared.start.wait();
        for h in self.helpers.drain(..) {
            let _ = h.join();
        }
    }
}

fn timed_ns(f: impl FnOnce() -> u64) -> u64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_nanos() as u64
}

/// One thread's kernel buffers, sized for the larger kernel.
struct Scratch {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            table: vec![0; LARGE.table_entries],
            heap: BinaryHeap::with_capacity(LARGE.heap_entries + 1),
        }
    }

    /// Pops the earliest key, mixes it with a random table entry and pushes
    /// a later key: the access pattern of a discrete-event scheduler.
    fn kernel(&mut self, k: &Kernel) -> u64 {
        let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Moved onto this thread's stack for the run: the buffers' headers
        // sit next to other threads' data, and a queue length written on
        // every step would share a cache line with them.
        let mut table = std::mem::take(&mut self.table);
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        table[..k.table_entries].iter_mut().for_each(|v| *v = next());
        keys.clear();
        keys.extend((0..k.heap_entries).map(|_| Reverse(next() >> 24)));
        // `BinaryHeap::from` heapifies in linear time and keeps the capacity.
        let mut heap = BinaryHeap::from(keys);
        let mask = k.table_entries - 1;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let Reverse(t) = heap.pop().unwrap_or(Reverse(0));
            let r = next();
            let slot = &mut table[(r as usize) & mask];
            *slot = slot.wrapping_add(t ^ r);
            acc = acc.wrapping_add(*slot);
            heap.push(Reverse(t + (r >> 44) + (*slot & 0xff)));
        }
        self.table = table;
        self.heap = heap;
        acc
    }
}
