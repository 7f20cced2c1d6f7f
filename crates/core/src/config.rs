//! Cluster configuration.

use zeus_proto::{NodeId, PolicyKind};

/// Number of directory replicas holding ownership metadata: the paper uses 3
/// regardless of deployment size (§4), clamped to the deployment size.
pub const DIRECTORY_REPLICAS: usize = 3;

/// Configuration of a Zeus deployment.
#[derive(Debug, Clone)]
pub struct ZeusConfig {
    /// Number of nodes in the deployment (the paper evaluates 3 and 6).
    pub nodes: usize,
    /// Number of replicas of the view service (`zeus-view`) agreeing on
    /// membership epochs by majority quorum — the embedded stand-in for the
    /// paper's external ZooKeeper-backed membership service. Three by
    /// default (clamped to the deployment size): membership keeps moving as
    /// long as any two of the first three nodes are alive.
    pub view_replicas: usize,
    /// Default replication degree of objects (owner + readers). The paper's
    /// evaluation uses 3-way replication (§8).
    pub replication_degree: usize,
    /// Lease duration (in ticks) for the membership failure detector.
    pub lease_ticks: u64,
    /// Maximum times a transaction retries ownership acquisition before
    /// aborting with back-off (§6.2 deadlock avoidance).
    pub max_ownership_retries: usize,
    /// Whether a heartbeat from a falsely-suspected (lease-expelled) node
    /// re-admits it through a view change. Always true in production
    /// configurations; the chaos harness flips it to false to re-create the
    /// pre-fix expulsion wedge and prove the explorer catches it.
    pub readmit_suspects: bool,
    /// Placement policy run by each node's locality engine. `Reactive` (the
    /// default) is the null policy — placements only ever move on the
    /// critical path of an access, byte-identical to the pre-engine
    /// behavior. `Predictive` tracks per-object access patterns and
    /// pre-provisions replicas (migrate ownership toward the trending
    /// writer, widen replication for read-hot objects, shrink cold ones)
    /// off the critical path.
    pub policy: PolicyKind,
    /// Ticks between locality-policy planning rounds (also the tracker's
    /// EWMA decay interval). 1 tick = 1 us in the threaded runtimes.
    pub policy_interval_ticks: u64,
    /// Placement actions each node may issue per policy interval (token
    /// bucket with 2x burst); surplus candidates are deferred.
    pub policy_budget: u32,
}

impl Default for ZeusConfig {
    fn default() -> Self {
        ZeusConfig {
            nodes: 3,
            view_replicas: 3,
            replication_degree: 3,
            // 1 tick = 1 us in the threaded runtime. The failure detector
            // must tolerate OS scheduling hiccups on loaded machines: with a
            // 10 ms lease a busy node loop missed the window and got falsely
            // expelled (the heartbeat re-admission path heals that, but each
            // false view change still pauses ownership for a recovery
            // round-trip). 200 ms lease + equal grace keeps detection fast
            // enough for the fault-injection tests while staying far above
            // scheduler noise.
            lease_ticks: 200_000,
            max_ownership_retries: 256,
            readmit_suspects: true,
            policy: PolicyKind::Reactive,
            // ~10 ms between planning rounds: long enough to smooth over
            // scheduling noise, short enough to track a migrating hotspot.
            policy_interval_ticks: 10_000,
            policy_budget: 8,
        }
    }
}

impl ZeusConfig {
    /// A configuration with `nodes` nodes and the paper's defaults otherwise.
    pub fn with_nodes(nodes: usize) -> Self {
        ZeusConfig {
            nodes,
            view_replicas: 3.min(nodes),
            replication_degree: 3.min(nodes),
            ..Default::default()
        }
    }

    /// Sets the replication degree (clamped to the deployment size).
    #[must_use]
    pub fn replication(mut self, degree: usize) -> Self {
        self.replication_degree = degree.clamp(1, self.nodes);
        self
    }

    /// Sets the placement policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// The directory replica set: the first [`DIRECTORY_REPLICAS`] nodes.
    pub fn directory(&self) -> Vec<NodeId> {
        (0..DIRECTORY_REPLICAS.min(self.nodes) as u16)
            .map(NodeId)
            .collect()
    }

    /// The view-replica set: the first `view_replicas` nodes. Static for
    /// the deployment's lifetime — view replicas keep participating in the
    /// agreement even while expelled from the data-plane view.
    pub fn view_replica_set(&self) -> Vec<NodeId> {
        (0..self.view_replicas.clamp(1, self.nodes) as u16)
            .map(NodeId)
            .collect()
    }

    /// All node ids of the deployment.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes as u16).map(NodeId).collect()
    }

    /// The default replica set for a fresh object whose owner is `owner`:
    /// the owner plus the next `replication_degree - 1` nodes in ring order.
    pub fn default_replicas(&self, owner: NodeId) -> zeus_proto::ReplicaSet {
        let readers =
            (1..self.replication_degree as u16).map(|i| NodeId((owner.0 + i) % self.nodes as u16));
        zeus_proto::ReplicaSet::new(owner, readers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = ZeusConfig::default();
        assert_eq!(c.nodes, 3);
        assert_eq!(c.directory(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(c.replication_degree, 3);
        // The locality engine defaults to the null policy: existing
        // deployments and recorded chaos runs are untouched.
        assert_eq!(c.policy, PolicyKind::Reactive);
        assert_eq!(
            c.with_policy(PolicyKind::Predictive).policy,
            PolicyKind::Predictive
        );
    }

    #[test]
    fn with_nodes_clamps_directory_and_replication() {
        let c = ZeusConfig::with_nodes(2);
        assert_eq!(c.directory(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(c.replication_degree, 2);
        assert_eq!(c.view_replica_set(), vec![NodeId(0), NodeId(1)]);
        let c6 = ZeusConfig::with_nodes(6);
        assert_eq!(c6.directory(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(c6.view_replica_set(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(c6.all_nodes().len(), 6);
    }

    #[test]
    fn replication_builder_clamps() {
        let c = ZeusConfig::with_nodes(3).replication(5);
        assert_eq!(c.replication_degree, 3);
        let c = ZeusConfig::with_nodes(3).replication(0);
        assert_eq!(c.replication_degree, 1);
    }

    #[test]
    fn default_replicas_wrap_around_ring() {
        let c = ZeusConfig::with_nodes(3);
        let rs = c.default_replicas(NodeId(2));
        assert_eq!(rs.owner, Some(NodeId(2)));
        assert_eq!(rs.readers.as_slice(), [NodeId(0), NodeId(1)]);
        assert_eq!(rs.replication_degree(), 3);
    }
}
