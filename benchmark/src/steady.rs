//! A stopwatch that discounts the host's contention.
//!
//! The benchmark runs on a shared host whose speed switches, from one
//! fraction of a second to the next, between a quiet state and one about
//! 1.4× slower (a neighbour on the same core: CPU time tracks wall time, so
//! nothing in the guest can sleep through it). Wall time of a 5–10 s pass
//! therefore spreads 15–40 %, which no bound the benchmark may state can
//! cover.
//!
//! So time is measured against a *probe*. The process's allocator counts
//! allocations on the thread that called [`start`]; every `SLICE_NS` of
//! program time it pauses the program and times a fixed piece of work —
//! lookups in a `BTreeMap<String, f64>`, the data structure the program
//! itself spends its time in, so contention slows both alike. A slice of the
//! run that took `d` nanoseconds between two probes that read `p₀` and `p₁`
//! counts as `d × (REF_PROBE_NS ÷ ((p₀ + p₁) ÷ 2))^GAIN` steady nanoseconds;
//! the probes' own time is left out. Steady seconds are thus the seconds the
//! run would have taken on a host where the probe always reads
//! `REF_PROBE_NS`, which is what it reads on a quiet host of the kind the
//! benchmark was defined on.
//!
//! The probe is the benchmark's own code and never changes with the program,
//! so a faster program still shows as fewer seconds. A program that stops
//! allocating for long stretches gets long slices and a coarser correction,
//! nothing worse.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Program time between two probes.
const SLICE_NS: u64 = 10_000_000;
/// Allocations between two looks at the clock.
const CHECK_EVERY: u32 = 64;
/// Keys in the probe's map (≈ 250 KB: inside the L2 cache, outside the L1).
const PROBE_KEYS: usize = 3000;
/// Every `PROBE_STRIDE`-th key is looked up: 600 lookups, ≈ 0.1 ms.
const PROBE_STRIDE: usize = 5;
/// How much harder contention hits the program than the probe: a slice
/// whose probes read `r` times the reference counts as `r^GAIN` times
/// slower. Fitted once on this host, over 38–181 back-to-back passes per
/// workload: the spread of steady seconds is smallest at 1.25 (`chaos_tree`),
/// 1.5 (`paper_x3`, `wide_mesh`) and 1.75 (`vo_burst`); at 1.5 their standard
/// deviations are 2.2 %, 2.1 %, 2.5 % and 4.0 % where wall seconds have
/// 9.3 %, 12.8 %, 5.2 % and 16.0 %.
const GAIN: f64 = 1.5;
/// What the probe reads on a quiet host of the kind the benchmark was defined
/// on (its 2nd-percentile reading there is 75.0–75.3 µs in most processes).
/// A constant, not a per-process measurement: the host also has stretches
/// where the probe's best reading is 68 µs and the program is faster in
/// proportion, and a pass that never sees a quiet moment must still be judged
/// against the same yardstick as one that does.
const REF_PROBE_NS: f64 = 75_000.0;

thread_local! {
    static ALLOCS: Cell<u32> = const { Cell::new(0) };
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static WATCH: RefCell<Option<Watch>> = const { RefCell::new(None) };
}

/// The process's allocator: the system's, plus a look at the clock every
/// `CHECK_EVERY` allocations on a thread whose stopwatch is running.
pub struct SlicingAlloc;

#[global_allocator]
static ALLOCATOR: SlicingAlloc = SlicingAlloc;

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `on_alloc` runs before the call, allocates nothing
// and never unwinds (the probe looks up keys that are in the map).
unsafe impl GlobalAlloc for SlicingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[inline]
fn on_alloc() {
    let n = ALLOCS.get().wrapping_add(1);
    ALLOCS.set(n);
    if n.is_multiple_of(CHECK_EVERY) && ARMED.get() {
        slice_if_due();
    }
}

#[cold]
fn slice_if_due() {
    // Disarmed while inside, so nothing the watch does can re-enter it.
    ARMED.set(false);
    let _ = WATCH.try_with(|w| {
        if let Ok(mut w) = w.try_borrow_mut() {
            if let Some(w) = w.as_mut() {
                if w.now_ns() - w.slice_start_ns >= SLICE_NS {
                    w.close_slice();
                }
            }
        }
    });
    ARMED.set(true);
}

struct Watch {
    origin: Instant,
    map: BTreeMap<String, f64>,
    keys: Vec<String>,
    /// When the open slice began: the end of the probe before it.
    slice_start_ns: u64,
    /// That probe's reading.
    opening_probe_ns: f64,
    /// The open lap so far.
    lap: Lap,
}

impl Watch {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time the probe: one untimed round to pull its map back into the
    /// cache the program has just used, then the timed round.
    fn probe(&mut self) -> f64 {
        let (map, keys) = (&mut self.map, &self.keys);
        let mut round = || {
            let mut sum = 0.0;
            for key in keys {
                if let Some(v) = map.get_mut(key) {
                    *v += 1.0;
                    sum += *v;
                }
            }
            sum
        };
        let warm_up = round();
        let started = Instant::now();
        let timed = round();
        let ns = started.elapsed().as_nanos() as f64;
        std::hint::black_box(warm_up + timed);
        ns
    }

    fn close_slice(&mut self) {
        let ns = self.now_ns() - self.slice_start_ns;
        let closing = self.probe();
        let probe_ns = (self.opening_probe_ns + closing) / 2.0;
        self.lap.raw_s += ns as f64 * 1e-9;
        self.lap.steady_s += ns as f64 * 1e-9 * (REF_PROBE_NS / probe_ns).powf(GAIN);
        self.opening_probe_ns = closing;
        self.slice_start_ns = self.now_ns();
    }
}

/// A stretch of the run between two [`lap`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    /// Wall seconds, probes left out.
    pub raw_s: f64,
    /// The same stretch in steady seconds: each slice scaled by how the
    /// probe read around it.
    pub steady_s: f64,
}

/// Start this thread's stopwatch: build the probe, take the opening reading.
pub fn start() {
    let keys: Vec<String> = (0..PROBE_KEYS)
        .map(|i| format!("user{:05}", i * 7919 % 10_000))
        .collect();
    let mut watch = Watch {
        origin: Instant::now(),
        map: keys.iter().map(|k| (k.clone(), 0.0)).collect(),
        keys: keys.into_iter().step_by(PROBE_STRIDE).collect(),
        slice_start_ns: 0,
        opening_probe_ns: 0.0,
        lap: Lap::default(),
    };
    watch.opening_probe_ns = watch.probe();
    watch.slice_start_ns = watch.now_ns();
    WATCH.with(|w| *w.borrow_mut() = Some(watch));
    ARMED.set(true);
}

/// Close the open slice now and return the lap that ends here; the next lap
/// begins. All zeros on a thread whose stopwatch was never started.
pub fn lap() -> Lap {
    let armed = ARMED.replace(false);
    let lap = WATCH.with(|w| {
        w.borrow_mut().as_mut().map_or_else(Lap::default, |w| {
            w.close_slice();
            std::mem::take(&mut w.lap)
        })
    });
    ARMED.set(armed);
    lap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_cover_the_work_between_them_and_skip_the_probes() {
        assert_eq!(lap(), Lap::default(), "no stopwatch yet on this thread");
        start();
        let begun = Instant::now();
        let mut kept = Vec::new();
        // ≈ 60 ms of allocating work: several slices.
        while begun.elapsed().as_millis() < 60 {
            kept.push(vec![0u8; 4096]);
            if kept.len() > 1000 {
                kept.clear();
            }
        }
        let elapsed_s = begun.elapsed().as_secs_f64();
        let first = lap();
        let second = lap();
        assert!(first.raw_s > 0.04 && first.raw_s <= elapsed_s, "{first:?}");
        assert!(second.raw_s < 0.01, "an empty lap: {second:?}");
        // Steady seconds are raw seconds scaled by how this host's probe
        // compares with the reference: some factor, the same for both laps'
        // slices give or take contention, and never zero.
        let scale = first.steady_s / first.raw_s;
        assert!(scale > 0.05 && scale < 20.0, "{first:?}");
    }
}
