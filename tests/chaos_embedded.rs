//! Property-based chaos test: arbitrary operation sequences against the
//! embedded platform never violate platform invariants — including
//! sequences that inject faults into the invocation plane, where the
//! retry layer must keep state commits exactly-once.

use oprc_chaos::{FaultKind, FaultPlan, InjectionSite};
use oprc_core::invocation::TaskResult;
use oprc_core::object::ObjectId;
use oprc_platform::embedded::{BatchItem, EmbeddedPlatform};
use oprc_simcore::SimDuration;
use oprc_value::{merge, vjson, Value};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Incr(u16),
    Put(u16, u16, i32),
    /// One `invoke_batch` of `incr` (`None`) and `put` items.
    Batch(Vec<(u16, Option<(u16, i32)>)>),
    Read(u16),
    Flush,
    MemoryLoss,
    Tick,
    Snapshot,
    /// Arm a one-shot fault at a site's next call (site pick, kind pick).
    InjectFault(u8, u8),
    /// Advance the virtual chaos clock (breaker cooldowns, deadlines).
    AdvanceDeadline(u16),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            any::<u8>().prop_map(Op::Create),
            any::<u16>().prop_map(Op::Incr),
            (any::<u16>(), any::<u16>(), any::<i32>()).prop_map(|(o, k, v)| Op::Put(o, k, v)),
            prop::collection::vec(
                (any::<u16>(), any::<bool>(), any::<u16>(), any::<i32>())
                    .prop_map(|(o, put, k, v)| (o, put.then_some((k, v)))),
                1..8,
            )
            .prop_map(Op::Batch),
            any::<u16>().prop_map(Op::Read),
            Just(Op::Flush),
            Just(Op::MemoryLoss),
            Just(Op::Tick),
            Just(Op::Snapshot),
            (any::<u8>(), any::<u8>()).prop_map(|(s, k)| Op::InjectFault(s, k)),
            any::<u16>().prop_map(Op::AdvanceDeadline),
        ],
        1..60,
    )
}

/// `chaos` arms the injector (with an empty plan: nothing fires until an
/// `Op::InjectFault` scripts a fault). Armed, batches take the pinned
/// sequential path; unarmed, they take the grouped path and its
/// per-item in-place merges, and scripted faults are inert.
fn platform(chaos: bool) -> EmbeddedPlatform {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/incr", |t| {
        let n = t.state_in["count"].as_i64().unwrap_or(0) + 1;
        Ok(TaskResult::output(n).with_patch(vjson!({"count": n})))
    });
    p.register_function("img/put", |t| {
        let key = t.args[0].as_str().unwrap_or("k").to_string();
        let val = t.args[1].clone();
        Ok(TaskResult::output(Value::Null).with_patch(Value::from_iter([(key, val)])))
    });
    p.register_function("img/read", |t| Ok(TaskResult::output(t.state_in.clone())));
    // The availability tier arms the retry layer (0.99 → 3 attempts),
    // so injected faults exercise retries, not just failures.
    p.deploy_yaml(
        "
classes:
  - name: Bag
    qos:
      availability: 0.99
    constraint:
      persistent: true
    keySpecs: [count]
    functions:
      - name: incr
        image: img/incr
      - name: put
        image: img/put
      - name: read
        image: img/read
        readonly: true
",
    )
    .unwrap();
    if chaos {
        p.enable_chaos(FaultPlan::new(0));
    }
    p
}

fn put_args(k: u16, v: i32) -> (String, Vec<Value>) {
    let key = format!("k{}", k % 6);
    let args = vec![Value::from(key.as_str()), Value::from(i64::from(v))];
    (key, args)
}

fn pick_site(s: u8) -> InjectionSite {
    InjectionSite::ALL[s as usize % InjectionSite::ALL.len()]
}

fn pick_kind(k: u8) -> FaultKind {
    match k % 3 {
        0 => FaultKind::Error,
        1 => FaultKind::Torn,
        _ => FaultKind::Latency(SimDuration::from_millis(u64::from(k))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A shadow model (plain map of expected state) stays consistent
    /// with the platform through creates, direct and batched writes,
    /// flushes, memory wipes, ticks, and snapshot round-trips — so a
    /// commit that mutated a record some other tier or version still
    /// relied on (the flushed durable copy, a re-warmed cold read)
    /// shows up as a divergence.
    #[test]
    fn platform_matches_shadow_model(chaos in any::<bool>(), ops in arb_ops()) {
        let mut p = platform(chaos);
        let mut shadow: Vec<(ObjectId, Value)> = Vec::new();
        for op in ops {
            match op {
                Op::Create(seed) => {
                    if shadow.len() < 12 {
                        let initial = vjson!({ "count": (seed as i64 % 5) });
                        let id = p.create_object("Bag", initial.clone()).unwrap();
                        shadow.push((id, initial));
                    }
                }
                Op::Incr(x) => {
                    if !shadow.is_empty() {
                        let idx = x as usize % shadow.len();
                        let (id, expect) = &mut shadow[idx];
                        let n = expect["count"].as_i64().unwrap_or(0) + 1;
                        // Injected faults may exhaust the retry budget
                        // or trip the breaker; the shadow advances only
                        // on success. An error must leave state
                        // untouched — the final audit enforces it.
                        if let Ok(out) = p.invoke(*id, "incr", vec![]) {
                            prop_assert_eq!(out.output.as_i64(), Some(n));
                            expect.insert("count", n);
                        }
                    }
                }
                Op::Put(x, k, v) => {
                    if !shadow.is_empty() {
                        let idx = x as usize % shadow.len();
                        let (id, expect) = &mut shadow[idx];
                        let (key, args) = put_args(k, v);
                        if p.invoke(*id, "put", args).is_ok() {
                            expect.insert(key, i64::from(v));
                        }
                    }
                }
                Op::Batch(calls) => {
                    if !shadow.is_empty() {
                        let items = calls
                            .iter()
                            .map(|&(x, put)| {
                                let id = shadow[x as usize % shadow.len()].0;
                                match put {
                                    None => BatchItem::new(id, "incr", vec![]),
                                    Some((k, v)) => BatchItem::new(id, "put", put_args(k, v).1),
                                }
                            })
                            .collect();
                        // Items apply in submission order; the shadow
                        // advances on each success.
                        for (&(x, put), out) in calls.iter().zip(p.invoke_batch(items)) {
                            let idx = x as usize % shadow.len();
                            let expect = &mut shadow[idx].1;
                            let Ok(out) = out else { continue };
                            match put {
                                None => {
                                    let n = expect["count"].as_i64().unwrap_or(0) + 1;
                                    prop_assert_eq!(out.output.as_i64(), Some(n));
                                    expect.insert("count", n);
                                }
                                Some((k, v)) => {
                                    expect.insert(put_args(k, v).0, i64::from(v));
                                }
                            }
                        }
                    }
                }
                Op::Read(x) => {
                    if !shadow.is_empty() {
                        let idx = x as usize % shadow.len();
                        let (id, expect) = &shadow[idx];
                        if let Ok(out) = p.invoke(*id, "read", vec![]) {
                            prop_assert_eq!(&out.output, expect);
                        }
                    }
                }
                Op::Flush => {
                    p.flush();
                    for (id, expect) in &shadow {
                        let mut want = expect.clone();
                        merge::normalize(&mut want);
                        prop_assert_eq!(p.durable_state(*id), Some(want), "durable {}", id);
                    }
                }
                Op::MemoryLoss => {
                    // Only safe (state-preserving) after a flush — do
                    // both, which is what an orderly restart does.
                    p.flush();
                    p.simulate_memory_loss();
                }
                Op::Tick => {
                    p.tick();
                }
                Op::Snapshot => {
                    // Export, rebuild a fresh platform, import, continue
                    // there (a migration mid-chaos). Armed faults and
                    // breaker state do not migrate.
                    let snap = p.export_snapshot(false);
                    let fresh = platform(chaos);
                    fresh.import_snapshot(&snap).unwrap();
                    p = fresh;
                }
                Op::InjectFault(s, k) => {
                    p.chaos().script_next(pick_site(s), pick_kind(k));
                }
                Op::AdvanceDeadline(ms) => {
                    p.advance_chaos_clock(SimDuration::from_millis(u64::from(ms)));
                }
            }
        }
        // Final audit: every object matches its shadow state.
        for (id, expect) in &shadow {
            let got = p.get_state(*id).unwrap();
            let mut want = expect.clone();
            merge::normalize(&mut want);
            prop_assert_eq!(got, want, "object {} diverged", id);
        }
    }

    /// Retried `img/incr`-style tasks never double-apply state: with an
    /// arbitrary fault armed before every call, the final counter always
    /// equals the number of successful invocations — a torn commit whose
    /// retry re-applied the patch would overshoot it.
    #[test]
    fn retried_incr_never_double_applies(faults in prop::collection::vec(
        (any::<u8>(), any::<u8>()), 1..40,
    )) {
        let p = platform(true);
        let id = p.create_object("Bag", vjson!({"count": 0})).unwrap();
        let mut succeeded = 0_i64;
        for (s, k) in faults {
            p.chaos().script_next(pick_site(s), pick_kind(k));
            if p.invoke(id, "incr", vec![]).is_ok() {
                succeeded += 1;
            }
            prop_assert_eq!(
                p.get_state(id).unwrap()["count"].as_i64(),
                Some(succeeded),
                "count must track successes exactly (no double-apply, no lost commit)"
            );
        }
    }
}
