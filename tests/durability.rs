//! Integration: durability semantics across the storage stack — the
//! persistent/non-persistent split that the paper's `nonpersist`
//! variant isolates.

use oprc_core::invocation::TaskResult;
use oprc_core::template::{ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog};
use oprc_platform::embedded::EmbeddedPlatform;
use oprc_tests::counter_platform;
use oprc_value::vjson;

#[test]
fn flushed_state_survives_memory_loss() {
    let p = counter_platform();
    let ids: Vec<_> = (0..20)
        .map(|i| {
            p.create_object("Counter", vjson!({ "count": (i as i64) }))
                .unwrap()
        })
        .collect();
    for &id in &ids {
        p.invoke(id, "incr", vec![]).unwrap();
    }
    p.flush();
    p.simulate_memory_loss();
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(
            p.get_state(id).unwrap()["count"].as_i64(),
            Some(i as i64 + 1),
            "object {id} lost its state"
        );
    }
}

#[test]
fn unflushed_state_lives_in_the_memory_tier() {
    let p = counter_platform();
    let id = p.create_object("Counter", vjson!({"count": 0})).unwrap();
    p.invoke(id, "incr", vec![]).unwrap();
    // Not flushed: durable tier may lag...
    // (write-behind delay is 50ms; no tick ran)
    // ...but reads are served from the in-memory hot tier.
    assert_eq!(p.get_state(id).unwrap()["count"].as_i64(), Some(1));
}

#[test]
fn nonpersistent_template_loses_state_by_design() {
    // A provider catalog whose only template is non-persistent — the
    // `oprc-bypass-nonpersist` configuration.
    let mut catalog = TemplateCatalog::new();
    catalog.add(ClassRuntimeTemplate::new(
        "volatile",
        0,
        RuntimeConfig {
            persistent: false,
            ..RuntimeConfig::default()
        },
    ));
    let mut p = EmbeddedPlatform::with_catalog(catalog);
    p.register_function("img/touch", |_task| {
        Ok(TaskResult::output(1).with_patch(vjson!({"touched": true})))
    });
    p.deploy_yaml(
        "classes:\n  - name: Cache\n    functions:\n      - name: touch\n        image: img/touch\n",
    )
    .unwrap();
    let id = p.create_object("Cache", vjson!({})).unwrap();
    p.invoke(id, "touch", vec![]).unwrap();
    assert_eq!(p.get_state(id).unwrap()["touched"].as_bool(), Some(true));
    p.flush(); // flush is a no-op for non-persistent runtimes
    p.simulate_memory_loss();
    assert!(
        p.get_state(id).unwrap().is_empty(),
        "non-persistent state must not survive"
    );
}

#[test]
fn consolidation_reduces_db_write_amplification() {
    let p = counter_platform();
    let hot = p.create_object("Counter", vjson!({"count": 0})).unwrap();
    for _ in 0..200 {
        p.invoke(hot, "incr", vec![]).unwrap();
    }
    p.flush();
    let (_, consolidated, batches, singles) = p.storage_stats();
    assert_eq!(singles, 0);
    assert!(
        consolidated >= 150,
        "hot-key updates should mostly consolidate: {consolidated}"
    );
    assert!(
        batches <= 30,
        "write amplification too high: {batches} batches"
    );
    // Yet the final durable value is exact.
    assert_eq!(p.durable_state(hot).unwrap()["count"].as_i64(), Some(200));
}

#[test]
fn state_at_rest_is_normalized_across_memory_loss() {
    // Explicit nulls are absent members (RFC 7396): every way state
    // reaches rest — create, import, commit — stores it normalized, and
    // a cold re-warm from the durable tier reads back the same value.
    let with_nulls =
        || vjson!({"count": 1, "gone": null, "nested": {"x": null, "y": 2}, "list": [null]});
    let normalized = vjson!({"count": 1, "nested": {"y": 2}, "list": [null]});
    let p = counter_platform();
    let created = p.create_object("Counter", with_nulls()).unwrap();
    let imported = 100;
    let snapshot = vjson!({
        "format": "oprc-snapshot/1",
        "objects": [{"id": imported, "class": "Counter", "revision": 0, "state": (with_nulls()), "files": {}}],
    });
    assert_eq!(p.import_snapshot(&snapshot).unwrap(), 1);
    let imported = oprc_core::object::ObjectId(imported);
    let committed = p.create_object("Counter", with_nulls()).unwrap();
    p.invoke(committed, "incr", vec![]).unwrap();
    let mut expected = vec![
        (created, normalized.clone()),
        (imported, normalized.clone()),
        (committed, normalized),
    ];
    expected[2].1.insert("count", 2);
    for (id, want) in &expected {
        assert_eq!(&p.get_state(*id).unwrap(), want, "{id} before memory loss");
    }
    p.flush();
    p.simulate_memory_loss();
    for (id, want) in &expected {
        assert_eq!(&p.get_state(*id).unwrap(), want, "{id} re-warmed cold");
        assert_eq!(&p.durable_state(*id).unwrap(), want, "{id} at rest");
    }
}

#[test]
fn durable_tier_reflects_latest_write_order() {
    let p = counter_platform();
    let id = p.create_object("Counter", vjson!({"count": 0})).unwrap();
    for _ in 0..5 {
        p.invoke(id, "incr", vec![]).unwrap();
        p.flush();
    }
    assert_eq!(p.durable_state(id).unwrap()["count"].as_i64(), Some(5));
}
