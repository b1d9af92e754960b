//! Copy-on-write state snapshots.
//!
//! [`Snapshot`] wraps a [`Value`] in an [`Arc`] so a state snapshot can
//! be shared — across retry attempts of an [`InvocationTask`], between
//! the DHT's replica partitions, through the write-behind buffer into
//! the durable tier, and into parallel dataflow stages — for the cost
//! of a refcount bump instead of a deep clone. Mutation goes through
//! [`Snapshot::make_mut`] (clone-on-write via [`Arc::make_mut`]), so
//! holders of other handles never observe the change: a snapshot is
//! observationally identical to a deep clone, just cheaper while nobody
//! writes — and a writer that first drops every handle it owns itself
//! writes in place, which is how the platform commits a patch at the
//! cost of the patch (DESIGN.md §11).
//!
//! [`InvocationTask`]: https://docs.rs/oprc-core
//!
//! # Examples
//!
//! ```
//! use oprc_value::{vjson, Snapshot, Value};
//!
//! let a = Snapshot::from(vjson!({"count": 1}));
//! let b = a.clone(); // refcount bump, no deep clone
//! assert!(Snapshot::ptr_eq(&a, &b));
//!
//! let mut c = b.clone();
//! c.make_mut().insert("count", 2); // detaches c; a and b untouched
//! assert_eq!(a["count"].as_i64(), Some(1));
//! assert_eq!(c["count"].as_i64(), Some(2));
//! ```

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, LazyLock};

use crate::Value;

/// A shared, copy-on-write handle to a [`Value`].
///
/// Cloning is a refcount bump. Reads go through [`Deref`], so indexing
/// and all `&self` methods of [`Value`] work directly on a snapshot.
/// Writes go through [`Snapshot::make_mut`], which clones the inner
/// value first if (and only if) other handles still share it.
#[derive(Clone)]
pub struct Snapshot(Arc<Value>);

impl Default for Snapshot {
    /// The shared `Null` snapshot: a refcount bump on one static
    /// allocation, never a new one — cheap enough to stand in for a
    /// handle that is being released on a hot path.
    fn default() -> Self {
        static NULL: LazyLock<Snapshot> = LazyLock::new(|| Snapshot::new(Value::Null));
        NULL.clone()
    }
}

impl Snapshot {
    /// Wraps a value in a new snapshot.
    #[must_use]
    pub fn new(value: Value) -> Self {
        Snapshot(Arc::new(value))
    }

    /// An empty-object snapshot, the initial state of a fresh object.
    #[must_use]
    pub fn object() -> Self {
        Snapshot::new(Value::object())
    }

    /// Mutable access to the inner value, cloning it first if other
    /// handles share it. This is the *only* write path: every other
    /// holder keeps observing the pre-mutation value.
    pub fn make_mut(&mut self) -> &mut Value {
        Arc::make_mut(&mut self.0)
    }

    /// Extracts the inner value — zero-copy when this is the last
    /// handle, a deep clone otherwise.
    #[must_use]
    pub fn into_value(self) -> Value {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Borrows the inner value explicitly (equivalent to deref).
    #[must_use]
    pub fn value(&self) -> &Value {
        &self.0
    }

    /// Whether two snapshots share the same allocation (i.e. cloning one
    /// from the other cost a refcount bump, not a deep clone).
    #[must_use]
    pub fn ptr_eq(a: &Snapshot, b: &Snapshot) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The number of live handles to this snapshot's allocation.
    #[must_use]
    pub fn ref_count(this: &Snapshot) -> usize {
        Arc::strong_count(&this.0)
    }
}

impl Deref for Snapshot {
    type Target = Value;

    fn deref(&self) -> &Value {
        &self.0
    }
}

impl From<Value> for Snapshot {
    fn from(value: Value) -> Self {
        Snapshot::new(value)
    }
}

impl From<Snapshot> for Value {
    fn from(snapshot: Snapshot) -> Self {
        snapshot.into_value()
    }
}

impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        Snapshot::ptr_eq(self, other) || *self.0 == *other.0
    }
}

impl Eq for Snapshot {}

impl PartialEq<Value> for Snapshot {
    fn eq(&self, other: &Value) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<Snapshot> for Value {
    fn eq(&self, other: &Snapshot) -> bool {
        *self == *other.0
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vjson;

    #[test]
    fn clone_is_shared_until_written() {
        let a = Snapshot::from(vjson!({"k": [1, 2, 3]}));
        let b = a.clone();
        assert!(Snapshot::ptr_eq(&a, &b));
        assert_eq!(Snapshot::ref_count(&a), 2);

        let mut c = b.clone();
        c.make_mut().insert("k", vjson!([4]));
        assert!(!Snapshot::ptr_eq(&a, &c));
        assert_eq!(a["k"][0].as_i64(), Some(1));
        assert_eq!(c["k"][0].as_i64(), Some(4));
        // a and b still share their allocation.
        assert!(Snapshot::ptr_eq(&a, &b));
    }

    #[test]
    fn make_mut_on_unique_handle_does_not_clone() {
        let mut a = Snapshot::from(vjson!({"n": 0}));
        let before = std::ptr::from_ref::<Value>(a.value());
        a.make_mut().insert("n", 1);
        assert!(std::ptr::eq(before, a.value()));
    }

    #[test]
    fn into_value_is_zero_copy_when_unique() {
        let v = vjson!({"deep": {"nested": true}});
        let snap = Snapshot::from(v.clone());
        assert_eq!(snap.into_value(), v);

        let shared = Snapshot::from(v.clone());
        let keep = shared.clone();
        assert_eq!(shared.into_value(), v); // forced clone; keep survives
        assert_eq!(keep, v);
    }

    #[test]
    fn equality_and_display_delegate_to_value() {
        let snap = Snapshot::from(vjson!({"a": 1}));
        assert_eq!(snap, vjson!({"a": 1}));
        assert_eq!(vjson!({"a": 1}), snap);
        assert_eq!(snap.to_string(), vjson!({"a": 1}).to_string());
        assert_eq!(Snapshot::default(), Value::Null);
    }

    #[test]
    fn default_is_one_shared_allocation() {
        assert!(Snapshot::ptr_eq(&Snapshot::default(), &Snapshot::default()));
        // Writing through a default handle detaches it like any other.
        let mut d = Snapshot::default();
        *d.make_mut() = vjson!(1);
        assert_eq!(Snapshot::default(), Value::Null);
    }
}
