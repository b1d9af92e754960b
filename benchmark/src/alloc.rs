//! The process allocator: `System`, with counters that only run while
//! the last set-up and the single-client counted pass hold the gate
//! open.
//!
//! The timed and traced passes must not pay for allocation counting: a
//! counter every thread bumps on every allocation is a shared cache
//! line, and on this repository's two-client workloads it halves
//! throughput (see README, "Why the counter is gated"). With the gate
//! closed an allocation costs one relaxed load of a flag nobody writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

pub struct GatedAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since the gate opened. Signed:
/// blocks allocated before the gate opened may be freed while it is
/// open.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

fn live_delta(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are statistics and never influence what is allocated or freed.
unsafe impl GlobalAlloc for GatedAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            grew(layout.size());
            live_delta(layout.size() as i64);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            live_delta(-(layout.size() as i64));
        }
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            grew(new_size);
            live_delta(new_size as i64 - layout.size() as i64);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Counter readings while the gate is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    pub allocs: u64,
    pub bytes: u64,
    /// Highest level of bytes allocated minus bytes freed since the
    /// gate opened (or since [`Gate::restart_peak`]).
    pub peak_live_bytes: u64,
}

/// The open gate: allocation counting is on until it is dropped. One
/// gate exists at a time; the holder keeps other threads quiet if it
/// wants exact numbers.
pub struct Gate(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Gate {
    /// Zeroes the counters and starts counting.
    pub fn open() -> Gate {
        static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
        // A panic under an earlier gate leaves only statistics behind,
        // and they are zeroed here.
        let guard = ONE_AT_A_TIME
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ALLOCS.store(0, Ordering::Relaxed);
        BYTES.store(0, Ordering::Relaxed);
        LIVE.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::SeqCst);
        Gate(guard)
    }

    pub fn read(&self) -> Reading {
        Reading {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            peak_live_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
        }
    }

    /// Forgets peaks seen so far: the next reading's peak is the highest
    /// live level from now on.
    pub fn restart_peak(&self) {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        COUNTING.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_what_runs_while_the_gate_is_open() {
        // Other tests may allocate meanwhile, so the counts are lower
        // bounds here.
        let gate = Gate::open();
        let kept = std::hint::black_box(vec![0_u8; 1 << 20]);
        gate.restart_peak();
        let before = gate.read();
        drop(std::hint::black_box(vec![0_u8; 1 << 19]));
        let after = gate.read();
        assert!(after.allocs > before.allocs);
        assert!(after.bytes - before.bytes >= 1 << 19);
        // The peak stands on what was live when it was restarted.
        assert!(after.peak_live_bytes >= (1 << 20) + (1 << 19), "{after:?}");
        drop(kept);
        drop(gate);
    }
}
