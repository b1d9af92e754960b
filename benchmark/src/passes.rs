//! The counted pass (one client, allocation counting on) and the timed
//! pass (plain allocator path, no spans), plus the counters read around
//! the timed pass through the platform's public accessors.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use oprc_platform::embedded::EmbeddedPlatform;

use crate::alloc::Gate;
use crate::stats;
use crate::workloads::{Client, Ctx, Instance};

/// One repetition of the timed pass.
#[derive(Debug, Clone)]
pub struct Rep {
    pub calls: u64,
    pub wall_s: f64,
    pub p50_ns: u32,
    pub p99_ns: u32,
    /// Latency samples beyond the p99 rank; the benchmark wants ten.
    pub beyond_p99: usize,
}

/// One client's closed loop: call, wait for the reply, check it, call
/// again, until `secs` have passed or `max_calls` are made. Client 0
/// ticks the platform every `tick_every` of its own calls — outside any
/// latency sample, inside throughput.
fn closed_loop(
    client: &mut Client,
    ctx: Ctx<'_>,
    start_line: &Barrier,
    secs: f64,
    max_calls: u64,
    latencies: &mut Vec<u32>,
) -> (Instant, Instant, u64) {
    let tick_every = ctx.kind.tick_every();
    let mut calls = 0;
    start_line.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    loop {
        let (ns, t1) = client.timed_step(ctx);
        latencies.push(ns);
        calls += 1;
        if client.index == 0 && calls % tick_every == 0 {
            ctx.platform.tick();
        }
        if t1 >= deadline || calls >= max_calls {
            return (start, Instant::now(), calls);
        }
    }
}

/// Runs every client of `inst` for `secs` seconds (or `max_calls` calls
/// each, whichever ends first). `latencies` holds one reusable sample
/// buffer per client.
pub fn timed_rep(
    inst: &mut Instance,
    secs: f64,
    max_calls: u64,
    latencies: &mut [Vec<u32>],
) -> Rep {
    let (ctx, clients) = inst.split();
    let start_line = Barrier::new(clients.len());
    let ends: Vec<(Instant, Instant, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(latencies.iter_mut())
            .map(|(client, lat)| {
                lat.clear();
                let start_line = &start_line;
                scope.spawn(move || closed_loop(client, ctx, start_line, secs, max_calls, lat))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = ends.iter().map(|e| e.0).min().expect("a client ran");
    let end = ends.iter().map(|e| e.1).max().expect("a client ran");
    let mut all: Vec<u32> = latencies.iter().flatten().copied().collect();
    Rep {
        calls: ends.iter().map(|e| e.2).sum(),
        wall_s: (end - start).as_secs_f64(),
        p50_ns: stats::percentile(&mut all, 0.5),
        p99_ns: stats::percentile(&mut all, 0.99),
        beyond_p99: stats::samples_beyond(all.len(), 0.99),
    }
}

/// What the counted pass allocated.
#[derive(Debug, Clone, Copy)]
pub struct Counted {
    pub allocs: u64,
    pub bytes: u64,
    /// Peak live heap during the pass, the platform's standing state
    /// included: everything allocated and not freed since the set-up
    /// began.
    pub peak_live_bytes: u64,
}

/// Runs `calls` calls of client 0 on this thread, ticking as the timed
/// pass does, and reads the open `gate` around them.
pub fn counted_pass(inst: &mut Instance, calls: u64, gate: &Gate) -> Counted {
    let (ctx, clients) = inst.split();
    let client = &mut clients[0];
    let tick_every = ctx.kind.tick_every();
    gate.restart_peak();
    let before = gate.read();
    for call in 1..=calls {
        client.step(ctx);
        if call % tick_every == 0 {
            ctx.platform.tick();
        }
    }
    let after = gate.read();
    Counted {
        allocs: after.allocs - before.allocs,
        bytes: after.bytes - before.bytes,
        peak_live_bytes: after.peak_live_bytes,
    }
}

/// The platform's own counters, summed over shards and nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub acquisitions: u64,
    pub contended: u64,
    pub commits: u64,
    pub batched_ops: u64,
    pub batch_groups: u64,
    pub retries: u64,
    pub errors: u64,
    pub dht_puts: u64,
    pub wb_consolidated: u64,
    pub db_batches: u64,
    pub remote_invokes: u64,
}

impl Counters {
    pub fn read(p: &EmbeddedPlatform) -> Self {
        let shards = p.shard_stats();
        let (dht_puts, wb_consolidated, db_batches, _singles) = p.storage_stats();
        let m = p.metrics();
        Counters {
            acquisitions: shards.iter().map(|s| s.acquisitions).sum(),
            contended: shards.iter().map(|s| s.contended).sum(),
            commits: m.commits_total(),
            batched_ops: m.batched_ops_total(),
            batch_groups: m.batch_groups_total(),
            retries: m.retries_total(),
            errors: m.errors_total(),
            dht_puts,
            wb_consolidated,
            db_batches,
            remote_invokes: p.node_stats().iter().map(|n| n.remote_invokes).sum(),
        }
    }

    pub fn since(self, before: Counters) -> Counters {
        Counters {
            acquisitions: self.acquisitions - before.acquisitions,
            contended: self.contended - before.contended,
            commits: self.commits - before.commits,
            batched_ops: self.batched_ops - before.batched_ops,
            batch_groups: self.batch_groups - before.batch_groups,
            retries: self.retries - before.retries,
            errors: self.errors - before.errors,
            dht_puts: self.dht_puts - before.dht_puts,
            wb_consolidated: self.wb_consolidated - before.wb_consolidated,
            db_batches: self.db_batches - before.db_batches,
            remote_invokes: self.remote_invokes - before.remote_invokes,
        }
    }
}
