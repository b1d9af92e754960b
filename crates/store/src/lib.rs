//! Storage substrates for the Oparaca reproduction.
//!
//! The paper's evaluation (§V) hinges on storage behaviour: the Knative
//! baseline writes object state straight to a database and **plateaus
//! when the database's write throughput saturates**, while Oparaca routes
//! writes through a **distributed in-memory hash table** that
//! consolidates them into **batch write operations**. §III-D adds
//! **unstructured data** via S3-protocol object storage with **presigned
//! URLs**. This crate implements all of those substrates:
//!
//! - [`PersistentDb`] — a durable KV store of state snapshots whose
//!   *write admission* is governed by a configurable write-ops budget
//!   (token bucket), the bottleneck resource in Fig. 3;
//! - [`HashRing`] — consistent hashing with virtual nodes;
//! - [`Dht`] — a partitioned, replicated in-memory hash table
//!   (Oparaca's Infinispan stand-in) with deterministic rebalancing;
//! - [`PartitionMap`] — epoch-stamped assignment of object partitions
//!   to cluster nodes, with [`MigrationPlan`] diffs driving live
//!   object migration on node join/leave;
//! - [`WriteBehindBuffer`] — per-key-deduplicating write-behind buffer
//!   that turns N object updates into ⌈N/B⌉ batched database writes;
//! - [`ObjectStore`] — S3-like bucket/key storage over [`bytes::Bytes`]
//!   with [`presign`]ed URLs (HMAC-SHA-256, implemented in [`sha`]) and
//!   [`multipart`] uploads for large payloads.
//!
//! # Examples
//!
//! ```
//! use oprc_simcore::SimTime;
//! use oprc_store::PersistentDb;
//! use oprc_value::vjson;
//!
//! let mut db = PersistentDb::default();
//! db.put(SimTime::ZERO, "obj/1", vjson!({"width": 100}));
//! assert_eq!(db.get("obj/1").unwrap()["width"].as_i64(), Some(100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dht;
mod error;
mod hashring;
mod objectstore;
mod partition;
mod persistent;
mod writebehind;

pub mod multipart;
pub mod presign;
pub mod sha;

pub use dht::{Dht, DhtConfig, DhtNodeId, OwnerSet, MAX_INLINE_OWNERS};
pub use error::StoreError;
pub use hashring::HashRing;
pub use objectstore::{ObjectMeta, ObjectStore, StoredObject};
pub use partition::{
    partition_of, MigrationPlan, PartitionAssignment, PartitionMap, PartitionMove,
    DEFAULT_PARTITION_COUNT,
};
pub use persistent::{DbStats, PersistentDb, PersistentDbConfig};
pub use writebehind::{FlushBatch, WriteBehindBuffer, WriteBehindConfig};
