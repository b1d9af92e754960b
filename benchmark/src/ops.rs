//! Op traces: what each client will call, generated from the seed
//! before anything is timed. The platform sees only the generated calls.
//!
//! The generator and the Zipf table are the benchmark's own so that a
//! refactor of the repository's samplers cannot change its inputs.

use crate::workloads::Kind;

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // The modulo bias is below 2^-40 for every `n` used here.
        self.next_u64() % n
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1_u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf ranks `0..n` with exponent `s`, sampled by binary search over
/// the cumulative weights.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let target = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= target)
            .min(self.cumulative.len() - 1)
    }
}

/// What one op calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `incr` on a `Hot` object.
    Incr,
    /// `randomize {keys: 16, seed}` on a `JsonDoc`.
    Randomize { seed: u64 },
    /// `read` on a `JsonDoc`.
    Read,
    /// `pipe8 [1]` on a `Flow8` object.
    Pipe8,
}

/// One generated call: which of the workload's objects, and what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub object: u32,
    pub call: Call,
}

/// Ops per client trace. Clients cycle through their trace; a
/// `batch_64` call consumes 64 consecutive ops.
pub const TRACE_LEN: usize = 1 << 16;

/// Keys `randomize` writes per document.
pub const DOC_KEYS: u64 = 16;

/// Generates client `client`'s trace for `kind` from `seed`.
pub fn generate(kind: Kind, seed: u64, client: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ (kind as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    // One stream per client, drawn from the workload's stream.
    for _ in 0..client {
        rng.next_u64();
    }
    let mut rng = Rng::new(rng.next_u64());
    let objects = kind.objects() as u64;
    match kind {
        // Round-robin in a seeded order.
        Kind::HotCounter => {
            let mut order: Vec<u32> = (0..objects as u32).collect();
            rng.shuffle(&mut order);
            (0..TRACE_LEN)
                .map(|i| Op {
                    object: order[i % order.len()],
                    call: Call::Incr,
                })
                .collect()
        }
        Kind::JsonrandWrite => (0..TRACE_LEN)
            .map(|_| Op {
                object: rng.below(objects) as u32,
                call: Call::Randomize {
                    seed: rng.next_u64() >> 1,
                },
            })
            .collect(),
        // Rank r is object r, so the hot shards are the same for every
        // seed and only the sequence varies. Exactly one op in twenty
        // writes, at a seeded place in its block of twenty; a client
        // writes only ranks of its own parity, which makes the last
        // writer of every object known to the oracle.
        Kind::ReadMostlyZipf => {
            let zipf = Zipf::new(objects as usize, 1.0);
            let mut trace = Vec::with_capacity(TRACE_LEN);
            while trace.len() < TRACE_LEN {
                let write_at = rng.below(20);
                for slot in 0..20 {
                    let mut rank = zipf.sample(&mut rng);
                    let call = if slot == write_at {
                        while rank % 2 != client % 2 {
                            rank = zipf.sample(&mut rng);
                        }
                        Call::Randomize {
                            seed: rng.next_u64() >> 1,
                        }
                    } else {
                        Call::Read
                    };
                    trace.push(Op {
                        object: rank as u32,
                        call,
                    });
                }
            }
            trace.truncate(TRACE_LEN);
            trace
        }
        Kind::FlowFanout => (0..TRACE_LEN)
            .map(|_| Op {
                object: rng.below(objects) as u32,
                call: Call::Pipe8,
            })
            .collect(),
        // Every call of 64 items holds each of the 16 objects four
        // times, in a seeded order.
        Kind::Batch64 => {
            let mut slots: Vec<u32> = (0..64).map(|i| i % objects as u32).collect();
            let mut trace = Vec::with_capacity(TRACE_LEN);
            while trace.len() < TRACE_LEN {
                rng.shuffle(&mut slots);
                trace.extend(slots.iter().map(|&object| Op {
                    object,
                    call: Call::Incr,
                }));
            }
            trace
        }
        // Uniform over all objects. A fixed visiting order would lock
        // step with the platform's round-robin pick of the executing
        // node and pin every object to one node for the whole run.
        Kind::Ship4Node => (0..TRACE_LEN)
            .map(|_| Op {
                object: rng.below(objects) as u32,
                call: Call::Incr,
            })
            .collect(),
    }
}

/// FNV-1a over a trace: printed with the results so two runs can be
/// seen to have had the same inputs.
pub fn fingerprint(trace: &[Op]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for op in trace {
        eat(u64::from(op.object));
        match op.call {
            Call::Incr => eat(1),
            Call::Randomize { seed } => {
                eat(2);
                eat(seed);
            }
            Call::Read => eat(3),
            Call::Pipe8 => eat(4),
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_one_trace_two_seeds_two_traces() {
        for kind in Kind::ALL {
            for client in 0..kind.clients() {
                let a = generate(kind, 42, client);
                let b = generate(kind, 42, client);
                let c = generate(kind, 43, client);
                assert_eq!(a.len(), TRACE_LEN);
                assert_eq!(a, b, "{kind:?} is not a function of its seed");
                assert_eq!(fingerprint(&a), fingerprint(&b));
                assert_ne!(a, c, "{kind:?} ignores its seed");
                assert_ne!(fingerprint(&a), fingerprint(&c));
                assert!(a.iter().all(|op| (op.object as usize) < kind.objects()));
            }
        }
    }

    #[test]
    fn read_mostly_writes_one_in_twenty_on_its_own_parity() {
        for client in 0..2 {
            let trace = generate(Kind::ReadMostlyZipf, 42, client);
            let writes: Vec<&Op> = trace
                .iter()
                .filter(|op| matches!(op.call, Call::Randomize { .. }))
                .collect();
            assert_eq!(writes.len(), TRACE_LEN.div_ceil(20));
            assert!(writes.iter().all(|op| op.object as usize % 2 == client));
        }
    }

    #[test]
    fn batch_calls_hold_every_object_four_times() {
        let trace = generate(Kind::Batch64, 42, 0);
        for call in trace.chunks(64) {
            let mut per_object = [0_u32; 16];
            for op in call {
                per_object[op.object as usize] += 1;
            }
            assert_eq!(per_object, [4; 16]);
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1024, 1.0);
        let mut rng = Rng::new(1);
        let mut head = 0;
        for _ in 0..10_000 {
            let r = zipf.sample(&mut rng);
            assert!(r < 1024);
            if r < 8 {
                head += 1;
            }
        }
        // H(8)/H(1024) ≈ 0.36.
        assert!((3_000..4_300).contains(&head), "{head}");
    }
}
