//! The node-level partition plane.
//!
//! The paper evaluates Oparaca on clusters of worker VMs (§V): object
//! state is partitioned across nodes, invocations are routed to the
//! partition owner when locality routing is on, and adding or removing
//! a node rebalances partition ownership. This module models that plane
//! on top of the in-process platform:
//!
//! - a [`PartitionMap`] (from `oprc-store`) assigns the 64 object
//!   partitions to the simulated [`oprc_cluster::Cluster`] nodes and is
//!   published behind an atomically-swapped `Arc`, exactly like the
//!   dispatch-plan table — invokes read one consistent epoch;
//! - every invocation computes a [`NodeHop`]: with locality routing the
//!   executing node *is* the partition owner (state access is local);
//!   with locality off the executing node is picked round-robin and a
//!   non-owner execution must ship the object state across the node
//!   boundary — a deep copy of the state snapshot made while holding
//!   the owner's transport lock, which serializes all remote traffic
//!   into that owner (the contention the Fig. 3 gap comes from);
//! - [`EmbeddedPlatform::node_join`] / [`node_leave`] mutate the
//!   cluster, publish the next map epoch, and then *drain* each shard
//!   in turn (acquiring the shard lock waits for every in-flight
//!   invocation, which holds its shard lock across the whole retry
//!   loop) while counting the records whose partition moved. Because
//!   the state address space is shared, handoff never copies records;
//!   the drain guarantees no invocation straddles the epoch swap with a
//!   torn view, and the idempotency-key commit protocol is untouched —
//!   exactly-once survives migration by construction.
//!
//! Lock order (§DESIGN 17): `deploy_gate` (Control) → `cluster`
//! (Control) → `nodes` write (Control) → each shard lock, one at a
//! time (Shard acquired under Control is legal; two shards are never
//! held together). The per-node transport mutex is a Leaf, taken under
//! a shard lock on the remote execute path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oprc_cluster::{Cluster, NodeSpec, NodeStatus};
use oprc_core::object::ObjectId;
use oprc_store::{MigrationPlan, PartitionMap};
use oprc_value::vjson;

use crate::lockorder::{OrderedMutex, Tier};
use crate::PlatformError;

use super::EmbeddedPlatform;

/// Per-node runtime state: the transport lock remote invocations
/// serialize on, plus invocation/migration counters.
///
/// Shared via `Arc` between successive [`NodeTable`] epochs so counters
/// survive topology changes.
#[derive(Debug)]
pub(crate) struct NodeState {
    pub(crate) id: u64,
    /// Models the node's ingress channel for shipped state: every
    /// remote invocation against a partition this node owns holds this
    /// while copying state out and executing. Leaf tier — taken under a
    /// shard lock.
    pub(crate) transport: OrderedMutex<()>,
    pub(crate) local_invokes: AtomicU64,
    pub(crate) remote_invokes: AtomicU64,
    pub(crate) migrated_in: AtomicU64,
    pub(crate) migrated_out: AtomicU64,
}

impl NodeState {
    fn new(id: u64) -> Self {
        NodeState {
            id,
            transport: OrderedMutex::new(Tier::Leaf, ()),
            local_invokes: AtomicU64::new(0),
            remote_invokes: AtomicU64::new(0),
            migrated_in: AtomicU64::new(0),
            migrated_out: AtomicU64::new(0),
        }
    }
}

/// One published epoch of the node plane: the partition map plus the
/// node states it routes to. Swapped atomically behind
/// `EmbeddedPlatform::nodes`; invokes clone the `Arc` once and read a
/// consistent snapshot.
#[derive(Debug)]
pub(crate) struct NodeTable {
    pub(crate) map: Arc<PartitionMap>,
    /// Every node ever seen (departed nodes keep their counters).
    pub(crate) states: BTreeMap<u64, Arc<NodeState>>,
    /// Ready node ids in ascending order — the round-robin domain when
    /// locality routing is off.
    pub(crate) ready: Vec<u64>,
}

impl NodeTable {
    pub(crate) fn single(node: u64) -> Self {
        let mut states = BTreeMap::new();
        states.insert(node, Arc::new(NodeState::new(node)));
        NodeTable {
            map: Arc::new(PartitionMap::single(node)),
            states,
            ready: vec![node],
        }
    }
}

/// The node-level routing decision for one invocation, computed from
/// one `NodeTable` snapshot before the shard lock is taken.
#[derive(Debug)]
pub(crate) struct NodeHop {
    pub(crate) partition: usize,
    pub(crate) owner: u64,
    pub(crate) executing: u64,
    /// True when the executing node does not own the partition: state
    /// must ship across the node boundary under the owner's transport.
    pub(crate) remote: bool,
    /// False on a single-node plane — the hop is then a no-op and must
    /// add no telemetry (single-node replays stay byte-identical).
    pub(crate) multi: bool,
    pub(crate) owner_state: Arc<NodeState>,
    pub(crate) exec_state: Arc<NodeState>,
}

impl NodeHop {
    /// Accounts this hop on the executing node.
    pub(crate) fn count(&self) {
        if self.remote {
            self.exec_state
                .remote_invokes
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.exec_state
                .local_invokes
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A node's partition plane posture, from
/// [`EmbeddedPlatform::node_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// The cluster node id.
    pub node: u64,
    /// Health as reported by the cluster substrate.
    pub status: &'static str,
    /// Partitions this node owns (primary replica).
    pub primary_partitions: usize,
    /// Partitions this node holds a read replica for.
    pub replica_partitions: usize,
    /// Invocations executed here against locally-owned state.
    pub local_invokes: u64,
    /// Invocations executed here that shipped state from another node.
    pub remote_invokes: u64,
    /// Records whose ownership migrated *to* this node.
    pub migrated_in: u64,
    /// Records whose ownership migrated *away from* this node.
    pub migrated_out: u64,
}

/// The partition plane's aggregate posture, from
/// [`EmbeddedPlatform::partition_summary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSummary {
    /// Current map epoch (0 = the boot single-node map).
    pub epoch: u64,
    /// Number of partitions (fixed across epochs).
    pub partitions: usize,
    /// Ready nodes the map distributes over.
    pub nodes: usize,
    /// Records re-homed by all migrations so far.
    pub moved_records: u64,
}

/// Where one object lives, from
/// [`EmbeddedPlatform::object_placement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectPlacement {
    /// The object's partition.
    pub partition: usize,
    /// Node owning the primary replica.
    pub primary: u64,
    /// Node holding the read replica, when the plane has ≥ 2 nodes.
    pub replica: Option<u64>,
}

/// What a topology change did, from [`EmbeddedPlatform::node_join`] /
/// [`EmbeddedPlatform::node_leave`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// The epoch the change published.
    pub epoch: u64,
    /// The node that joined or left.
    pub node: u64,
    /// Partitions whose primary moved.
    pub partitions_moved: usize,
    /// Directory records whose owner changed (counted under each
    /// shard's drain).
    pub records_moved: u64,
}

impl EmbeddedPlatform {
    /// Boots the node plane: a one-node cluster owning every partition.
    pub(crate) fn boot_node_plane() -> (Cluster, NodeTable) {
        let mut cluster = Cluster::new();
        let id = cluster.add_node(NodeSpec::default());
        // The boot join is not a topology *change*; drain its event so
        // the first real join/leave reports only its own.
        cluster.take_node_events();
        (cluster, NodeTable::single(id.as_u64()))
    }

    /// Number of ready nodes in the partition plane.
    pub fn node_count(&self) -> usize {
        self.nodes.read().ready.len()
    }

    /// Adds a worker node and migrates partition ownership onto it.
    ///
    /// Publishes the next [`PartitionMap`] epoch, then drains every
    /// shard in turn: in-flight invocations hold their shard lock
    /// across the whole retry loop, so by the time each shard lock is
    /// acquired here, no invocation observes a torn epoch. Records
    /// never copy (shared address space); the report counts the ones
    /// whose owner changed.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; returns `Result` for symmetry
    /// with [`EmbeddedPlatform::node_leave`].
    pub fn node_join(&self) -> Result<MigrationReport, PlatformError> {
        let _gate = self.deploy_gate.lock();
        let node = {
            let mut cluster = self.cluster.lock();
            cluster.add_node(NodeSpec::default()).as_u64()
        };
        Ok(self.apply_topology(node))
    }

    /// Removes (fails) node `node` and migrates its partitions away.
    ///
    /// Same drain discipline as [`EmbeddedPlatform::node_join`]. The
    /// node's counters are retained and keep appearing in
    /// [`EmbeddedPlatform::node_stats`] with status `down`.
    ///
    /// # Errors
    ///
    /// [`PlatformError::ClusterTopology`] when `node` is unknown, not
    /// ready, or the last ready node.
    pub fn node_leave(&self, node: u64) -> Result<MigrationReport, PlatformError> {
        let _gate = self.deploy_gate.lock();
        {
            let mut cluster = self.cluster.lock();
            let Some(target) = cluster
                .nodes()
                .map(oprc_cluster::Node::id)
                .find(|n| n.as_u64() == node)
            else {
                return Err(PlatformError::ClusterTopology(format!(
                    "unknown node node-{node}"
                )));
            };
            let status = cluster.node(target).expect("just found").status();
            if status != NodeStatus::Ready {
                return Err(PlatformError::ClusterTopology(format!(
                    "node-{node} is not ready"
                )));
            }
            if cluster.ready_nodes() <= 1 {
                return Err(PlatformError::ClusterTopology(format!(
                    "node-{node} is the last ready node"
                )));
            }
            cluster
                .set_node_status(target, NodeStatus::Down)
                .expect("node exists");
        }
        Ok(self.apply_topology(node))
    }

    /// Publishes the next partition-map epoch for the current ready
    /// set, then drains each shard and accounts the migration. Caller
    /// holds the deploy gate.
    fn apply_topology(&self, changed_node: u64) -> MigrationReport {
        let (ready, events) = {
            let mut cluster = self.cluster.lock();
            let ready: Vec<u64> = cluster
                .nodes()
                .filter(|n| n.status() == NodeStatus::Ready)
                .map(|n| n.id().as_u64())
                .collect();
            let events: Vec<String> = cluster
                .take_node_events()
                .into_iter()
                .map(|e| format!("{e:?}"))
                .collect();
            (ready, events)
        };
        let old = Arc::clone(&self.nodes.read());
        let map = Arc::new(PartitionMap::assign(old.map.epoch() + 1, &ready));
        let plan = MigrationPlan::diff(&old.map, &map);
        let mut states = old.states.clone();
        for &n in &ready {
            states
                .entry(n)
                .or_insert_with(|| Arc::new(NodeState::new(n)));
        }
        let table = Arc::new(NodeTable {
            map: Arc::clone(&map),
            states: states.clone(),
            ready,
        });
        // Swap first: new invocations route by the new epoch while the
        // drain below settles the old ones shard by shard.
        *self.nodes.write() = table;
        let mut records = 0u64;
        if !plan.is_empty() {
            for handle in &self.shards {
                // Acquiring the lock *is* the drain: it waits out every
                // in-flight invocation on this shard (each holds the
                // lock across its whole retry loop and commit).
                let sh = handle.lock();
                for &id in sh.objects.keys() {
                    let p = map.partition_of_object(id.as_u64());
                    if let Some(mv) = plan.move_for(p) {
                        records += 1;
                        if let Some(from) = states.get(&mv.from) {
                            from.migrated_out.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Some(to) = states.get(&mv.to) {
                            to.migrated_in.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        self.moved_records.fetch_add(records, Ordering::Relaxed);
        if self.telemetry.is_enabled() {
            self.telemetry.instant(
                "partition.migrate",
                vjson!({
                    "epoch": (map.epoch()),
                    "node": changed_node,
                    "partitions_moved": (plan.moves.len() as u64),
                    "records_moved": records,
                    "events": (events.join(", ")),
                }),
                self.now(),
            );
        }
        MigrationReport {
            epoch: map.epoch(),
            node: changed_node,
            partitions_moved: plan.moves.len(),
            records_moved: records,
        }
    }

    /// Computes the node hop for an invocation on `id`, from one
    /// atomically-read table snapshot. `locality` is the class's
    /// locality-routing flag: on, the invocation executes at the
    /// partition owner (local state access); off, the executing node is
    /// picked round-robin and non-owners pay the shipping cost.
    pub(crate) fn node_hop(&self, id: ObjectId, locality: bool) -> NodeHop {
        let table = Arc::clone(&self.nodes.read());
        let partition = table.map.partition_of_object(id.as_u64());
        let owner = table.map.primary_of(partition);
        let multi = table.ready.len() > 1;
        let executing = if locality || !multi {
            owner
        } else {
            let slot = self.node_rr.fetch_add(1, Ordering::Relaxed);
            table.ready[slot % table.ready.len()]
        };
        NodeHop {
            partition,
            owner,
            executing,
            remote: executing != owner,
            multi,
            owner_state: Arc::clone(&table.states[&owner]),
            exec_state: Arc::clone(&table.states[&executing]),
        }
    }

    /// Per-node partition-plane counters, in node-id order. Departed
    /// nodes stay listed (status `down`) so migration accounting adds
    /// up.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        let table = Arc::clone(&self.nodes.read());
        let statuses: BTreeMap<u64, &'static str> = {
            let cluster = self.cluster.lock();
            cluster
                .nodes()
                .map(|n| {
                    let status = match n.status() {
                        NodeStatus::Ready => "ready",
                        NodeStatus::Cordoned => "cordoned",
                        NodeStatus::Down => "down",
                    };
                    (n.id().as_u64(), status)
                })
                .collect()
        };
        table
            .states
            .values()
            .map(|s| NodeStats {
                node: s.id,
                status: statuses.get(&s.id).copied().unwrap_or("unknown"),
                primary_partitions: table.map.primaries_of(s.id),
                replica_partitions: table.map.replicas_of(s.id),
                local_invokes: s.local_invokes.load(Ordering::Relaxed),
                remote_invokes: s.remote_invokes.load(Ordering::Relaxed),
                migrated_in: s.migrated_in.load(Ordering::Relaxed),
                migrated_out: s.migrated_out.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The partition plane's aggregate posture, read from one table
    /// snapshot without touching any shard lock.
    pub fn partition_summary(&self) -> PartitionSummary {
        let table = Arc::clone(&self.nodes.read());
        PartitionSummary {
            epoch: table.map.epoch(),
            partitions: table.map.partition_count(),
            nodes: table.ready.len(),
            moved_records: self.moved_records.load(Ordering::Relaxed),
        }
    }

    /// Where object `id` lives under the current map epoch.
    pub fn object_placement(&self, id: ObjectId) -> ObjectPlacement {
        let table = Arc::clone(&self.nodes.read());
        let partition = table.map.partition_of_object(id.as_u64());
        ObjectPlacement {
            partition,
            primary: table.map.primary_of(partition),
            replica: table.map.replica_of(partition),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oprc_core::invocation::TaskResult;
    use oprc_core::template::{ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog};
    use oprc_store::DEFAULT_PARTITION_COUNT;
    use oprc_value::vjson;

    fn counter_platform(locality: bool) -> EmbeddedPlatform {
        let mut catalog = TemplateCatalog::new();
        catalog.add(ClassRuntimeTemplate::new(
            "default",
            0,
            RuntimeConfig {
                locality_routing: locality,
                ..RuntimeConfig::default()
            },
        ));
        let mut p = EmbeddedPlatform::with_catalog(catalog);
        p.register_function("img/counter", |task| {
            let n = task.state_in["count"].as_i64().unwrap_or(0) + 1;
            Ok(TaskResult::output(n).with_patch(vjson!({"count": n})))
        });
        p.deploy_yaml(
            "
classes:
  - name: Counter
    keySpecs: [count]
    functions:
      - name: incr
        image: img/counter
",
        )
        .unwrap();
        p
    }

    #[test]
    fn boots_as_a_single_node_plane() {
        let p = counter_platform(true);
        assert_eq!(p.node_count(), 1);
        let summary = p.partition_summary();
        assert_eq!(summary.epoch, 0);
        assert_eq!(summary.partitions, DEFAULT_PARTITION_COUNT);
        assert_eq!(summary.nodes, 1);
        assert_eq!(summary.moved_records, 0);
        let id = p.create_object("Counter", vjson!({"count": 0})).unwrap();
        let placement = p.object_placement(id);
        assert_eq!(placement.primary, 0);
        assert_eq!(placement.replica, None);
        p.invoke(id, "incr", vec![]).unwrap();
        let stats = p.node_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].status, "ready");
        assert_eq!(stats[0].primary_partitions, DEFAULT_PARTITION_COUNT);
        assert_eq!(stats[0].local_invokes, 1);
        assert_eq!(stats[0].remote_invokes, 0);
    }

    #[test]
    fn node_join_rebalances_and_migrates_records() {
        let p = counter_platform(true);
        let ids: Vec<_> = (0..32)
            .map(|_| p.create_object("Counter", vjson!({"count": 0})).unwrap())
            .collect();
        for &id in &ids {
            p.invoke(id, "incr", vec![]).unwrap();
        }
        let report = p.node_join().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.node, 1);
        assert!(report.partitions_moved > 0, "join must take partitions");
        assert!(report.records_moved > 0, "32 objects must re-home some");
        assert_eq!(p.node_count(), 2);
        let summary = p.partition_summary();
        assert_eq!(summary.epoch, 1);
        assert_eq!(summary.moved_records, report.records_moved);
        // Migration accounting balances: out of node 0 == into node 1.
        let stats = p.node_stats();
        assert_eq!(stats[0].migrated_out, report.records_moved);
        assert_eq!(stats[1].migrated_in, report.records_moved);
        // Ownership is now split and every object keeps working.
        let owners: std::collections::BTreeSet<u64> = ids
            .iter()
            .map(|&id| p.object_placement(id).primary)
            .collect();
        assert_eq!(owners.len(), 2, "objects must spread over both nodes");
        for &id in &ids {
            let out = p.invoke(id, "incr", vec![]).unwrap();
            assert_eq!(out.output.as_i64(), Some(2));
        }
        // With two nodes every partition gains a replica.
        assert!(ids
            .iter()
            .all(|&id| p.object_placement(id).replica.is_some()));
    }

    #[test]
    fn node_leave_moves_ownership_back() {
        let p = counter_platform(true);
        let ids: Vec<_> = (0..16)
            .map(|_| p.create_object("Counter", vjson!({"count": 0})).unwrap())
            .collect();
        p.node_join().unwrap();
        let report = p.node_leave(1).unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(p.node_count(), 1);
        // Everything is owned by node 0 again; the departed node stays
        // in the stats with its counters.
        assert!(ids.iter().all(|&id| p.object_placement(id).primary == 0));
        let stats = p.node_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[1].status, "down");
        for &id in &ids {
            assert_eq!(
                p.invoke(id, "incr", vec![]).unwrap().output.as_i64(),
                Some(1)
            );
        }
    }

    #[test]
    fn node_leave_rejects_bad_topologies() {
        let p = counter_platform(true);
        // The last ready node may not leave.
        let err = p.node_leave(0).unwrap_err();
        assert!(matches!(err, PlatformError::ClusterTopology(_)), "{err}");
        // Unknown nodes are rejected.
        let err = p.node_leave(99).unwrap_err();
        assert!(matches!(err, PlatformError::ClusterTopology(_)), "{err}");
        // A node that already left is not ready.
        p.node_join().unwrap();
        p.node_leave(1).unwrap();
        let err = p.node_leave(1).unwrap_err();
        assert!(matches!(err, PlatformError::ClusterTopology(_)), "{err}");
    }

    #[test]
    fn locality_keeps_execution_at_the_owner() {
        let p = counter_platform(true);
        p.node_join().unwrap();
        p.node_join().unwrap();
        let ids: Vec<_> = (0..24)
            .map(|_| p.create_object("Counter", vjson!({"count": 0})).unwrap())
            .collect();
        for &id in &ids {
            p.invoke(id, "incr", vec![]).unwrap();
        }
        let stats = p.node_stats();
        assert_eq!(stats.iter().map(|s| s.remote_invokes).sum::<u64>(), 0);
        assert_eq!(stats.iter().map(|s| s.local_invokes).sum::<u64>(), 24);
        // More than one node actually executed something.
        assert!(stats.iter().filter(|s| s.local_invokes > 0).count() > 1);
    }

    #[test]
    fn locality_off_ships_state_across_nodes() {
        let p = counter_platform(false);
        p.node_join().unwrap();
        p.node_join().unwrap();
        p.node_join().unwrap();
        let ids: Vec<_> = (0..8)
            .map(|_| p.create_object("Counter", vjson!({"count": 0})).unwrap())
            .collect();
        for round in 1..=4i64 {
            for &id in &ids {
                let out = p.invoke(id, "incr", vec![]).unwrap();
                assert_eq!(
                    out.output.as_i64(),
                    Some(round),
                    "shipping must be lossless"
                );
            }
        }
        let stats = p.node_stats();
        let remote: u64 = stats.iter().map(|s| s.remote_invokes).sum();
        let local: u64 = stats.iter().map(|s| s.local_invokes).sum();
        assert_eq!(remote + local, 32);
        // Round-robin over 4 nodes lands off-owner ~3/4 of the time.
        assert!(remote >= 16, "expected mostly remote hops, got {remote}");
    }

    #[test]
    fn partition_map_epoch_is_read_atomically() {
        let p = counter_platform(true);
        let id = p.create_object("Counter", vjson!({"count": 0})).unwrap();
        // A join between two invokes is safe: the second invoke routes
        // by the new epoch.
        p.invoke(id, "incr", vec![]).unwrap();
        p.node_join().unwrap();
        p.invoke(id, "incr", vec![]).unwrap();
        assert_eq!(
            p.get_state(id).unwrap()["count"].as_i64(),
            Some(2),
            "state survives the epoch swap"
        );
    }
}
