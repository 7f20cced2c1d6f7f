//! Phase-shifting locality: a rotating hotspot stresses the placement
//! machinery, A/B-comparing the reactive baseline against the predictive
//! locality engine (ROADMAP item 3).
//!
//! The workload models a mobility-style access pattern (§8's handover
//! story compressed into phases): in each phase one accessor node issues
//! Zipf-skewed reads over that phase's hot set while the home node keeps
//! writing the same objects. At every phase boundary the hotspot moves —
//! a different accessor, a fresh hot set — so locality must be re-earned.
//!
//! Both arms replay the identical access sequence on the deterministic
//! simulator:
//!
//! * **reactive** — the null policy. A read miss is served the only way a
//!   policy-less deployment can: migrate ownership to the accessor on the
//!   critical path. The home writer then steals ownership back on its next
//!   write, so every phase pays two handovers per hot object.
//! * **predictive** — the locality engine is live. A read miss is retried
//!   while the engine observes the remote-access streak and widens
//!   replication (`AcquireReader`) off the critical path; ownership never
//!   leaves the home writer, so handovers stay near zero and the home
//!   writes stay local.
//!
//! Reported per arm: handover count (ownership transfers, counted where
//! they occur), policy actions taken/deferred, and the access latency
//! percentiles in simulated microseconds.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use zeus_core::{
    ClusterDriver, LatencyHistogram, NodeId, Session, SimCluster, TxError, ZeusConfig,
};
use zeus_proto::{ObjectId, PolicyKind, PolicyStats};
use zeus_workloads::Zipf;

use crate::report::ScenarioResult;
use crate::scenario::{RunCtx, ScenarioOutcome, TableData};
use crate::scenarios::fill_percentiles;

/// The home node: owns every object initially and issues all writes.
const HOME: NodeId = NodeId(0);
/// Every `WRITE_EVERY`-th access is a home write instead of a remote read.
const WRITE_EVERY: u64 = 8;
/// Predictive-arm policy cadence, in simulated ticks (1 tick = 1 us).
const POLICY_INTERVAL_TICKS: u64 = 50;
/// Predictive-arm per-interval action budget.
const POLICY_BUDGET: u32 = 16;
/// How many policy intervals a predictive miss waits for a widen before
/// falling back to a critical-path migration.
const MISS_PATIENCE: u32 = 40;

/// Workload shape, scaled by mode (tests use a miniature of their own).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// Hotspot phases; the accessor node and the hot set change each phase.
    pub phases: u64,
    /// Hot objects per phase.
    pub hot: u64,
    /// Accesses per phase (reads + interleaved home writes).
    pub accesses: u64,
}

/// What one arm of the A/B run produced.
#[derive(Debug)]
pub(crate) struct ArmOutcome {
    /// Ownership transfers, counted at the point each occurred.
    pub handovers: u64,
    /// Aggregated policy counters over all nodes.
    pub policy: PolicyStats,
    /// Per-access latency in simulated microseconds.
    pub latency: LatencyHistogram,
    /// Total simulated time consumed, in ticks.
    pub sim_ticks: u64,
    /// Total accesses issued.
    pub accesses: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

/// Phase `p`'s hot set is disjoint from every other phase's.
fn object(phase: u64, slot: u64) -> ObjectId {
    ObjectId(1_000_000 + phase * 10_000 + slot)
}

/// Runs one arm: the full phase schedule under the given policy.
pub(crate) fn run_arm(shape: Shape, policy: PolicyKind, seed: u64) -> ArmOutcome {
    let wall = Instant::now();
    // Owner-only initial placement: locality must be earned, not seeded.
    let mut config = ZeusConfig::with_nodes(3).replication(1).with_policy(policy);
    config.policy_interval_ticks = POLICY_INTERVAL_TICKS;
    config.policy_budget = POLICY_BUDGET;
    let mut cluster = SimCluster::new(config);
    for phase in 0..shape.phases {
        for slot in 0..shape.hot {
            cluster.create_object(object(phase, slot), b"phase-shift".as_slice(), HOME);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(shape.hot, 0.9);
    let mut latency = LatencyHistogram::default();
    let mut handovers = 0u64;
    let mut accesses = 0u64;
    let start = cluster.now();
    for phase in 0..shape.phases {
        // The hotspot rotates over the non-home nodes: 1, 2, 1, 2, ...
        let accessor = NodeId(1 + (phase % 2) as u16);
        for a in 0..shape.accesses {
            accesses += 1;
            let obj = object(phase, zipf.sample(&mut rng));
            let t0 = cluster.now();
            if a % WRITE_EVERY == WRITE_EVERY - 1 {
                // The home writer updates the hot object. If a reactive
                // migration moved it away, this write hauls it back — a
                // handover on the write path.
                if !cluster.node(HOME).owns(obj) {
                    handovers += 1;
                }
                cluster
                    .handle(HOME)
                    .write_txn(move |tx| tx.write(obj, b"phase-shift'".as_slice()))
                    .expect("home write commits");
            } else {
                match cluster.handle(accessor).read_txn(move |tx| tx.read(obj)) {
                    Ok(_) => {}
                    Err(TxError::NotReplicated { .. }) => {
                        serve_miss(&mut cluster, accessor, obj, policy, &mut handovers);
                    }
                    Err(e) => panic!("read failed: {e:?}"),
                }
            }
            latency.record(cluster.now().saturating_sub(t0).max(1));
        }
    }
    let mut policy_stats = PolicyStats::default();
    for n in 0..cluster.nodes() as u16 {
        policy_stats.merge(&cluster.node(NodeId(n)).policy_stats());
    }
    // Policy pre-migrations are ownership transfers too; the A/B comparison
    // must not let the predictive arm hide handovers inside the engine.
    handovers += policy_stats.premigrations;
    ArmOutcome {
        handovers,
        policy: policy_stats,
        latency,
        sim_ticks: cluster.now().saturating_sub(start),
        accesses,
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

/// Serves a read that found no local replica at the accessor.
///
/// Reactive: the only move a policy-less deployment has is a critical-path
/// ownership migration. Predictive: keep retrying — each failed read feeds
/// the locality engine's remote streak, and within a few policy intervals
/// the engine widens replication to the accessor; only if the budget
/// starves the widen past the patience window does the arm fall back to a
/// migration (counted as a handover like any other).
fn serve_miss(
    cluster: &mut SimCluster,
    accessor: NodeId,
    obj: ObjectId,
    policy: PolicyKind,
    handovers: &mut u64,
) {
    if policy == PolicyKind::Predictive {
        for _ in 0..MISS_PATIENCE {
            cluster.advance_ticks(POLICY_INTERVAL_TICKS);
            match cluster.handle(accessor).read_txn(move |tx| tx.read(obj)) {
                Ok(_) => return,
                Err(TxError::NotReplicated { .. }) => continue,
                Err(e) => panic!("miss retry failed: {e:?}"),
            }
        }
    }
    *handovers += 1;
    cluster.migrate(obj, accessor).expect("migration succeeds");
    cluster
        .handle(accessor)
        .read_txn(move |tx| tx.read(obj))
        .expect("read after migration");
}

/// Runs the scenario.
pub fn run(ctx: &RunCtx) -> ScenarioOutcome {
    let shape = Shape {
        phases: 6,
        hot: ctx.pop(16, 8),
        accesses: ctx.pop(2_400, 1_200),
    };
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for policy in [PolicyKind::Reactive, PolicyKind::Predictive] {
        let arm = run_arm(shape, policy, ctx.seed);
        let throughput = arm.accesses as f64 / (arm.sim_ticks.max(1) as f64 / 1.0e6);
        rows.push(vec![
            policy.name().to_string(),
            arm.handovers.to_string(),
            arm.policy.actions_taken.to_string(),
            arm.policy.actions_deferred.to_string(),
            format!(
                "{}/{}/{}",
                arm.policy.premigrations, arm.policy.widens, arm.policy.shrinks
            ),
            arm.latency.percentile(50.0).to_string(),
            arm.latency.percentile(99.0).to_string(),
            format!("{:.0}", throughput),
            format!("{:.2}", arm.wall_s),
        ]);
        let mut result = ScenarioResult::new("phase_shift")
            .with_config("arm", policy.name())
            .with_config("phases", shape.phases)
            .with_config("hot_per_phase", shape.hot)
            .with_config("actions_taken", arm.policy.actions_taken)
            .with_config("actions_deferred", arm.policy.actions_deferred);
        result.throughput_ops = throughput;
        result.handover_count = arm.handovers;
        results.push(ctx.stamp(fill_percentiles(result, &arm.latency)));
    }
    ScenarioOutcome {
        tables: vec![TableData {
            title: format!(
                "Phase-shifting locality ({} phases x {} accesses, {} hot objects/phase, rotating accessor): reactive vs predictive placement",
                shape.phases, shape.accesses, shape.hot
            ),
            header: vec![
                "arm",
                "handovers",
                "actions taken",
                "deferred",
                "premigrate/widen/shrink",
                "p50 [us, sim]",
                "p99 [us, sim]",
                "accesses/s [sim]",
                "wall [s]",
            ],
            rows,
        }],
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sized so the predictive arm's first-miss waits stay under 1% of
    // accesses (p99 reads the fast path) while the reactive arm's
    // migrate + write-back pairs stay above it (p99 reads the handover).
    const MINI: Shape = Shape {
        phases: 4,
        hot: 6,
        accesses: 800,
    };

    #[test]
    fn predictive_beats_reactive_on_handovers_at_equal_or_better_p99() {
        let reactive = run_arm(MINI, PolicyKind::Reactive, 42);
        let predictive = run_arm(MINI, PolicyKind::Predictive, 42);
        assert!(
            predictive.handovers < reactive.handovers,
            "predictive {} !< reactive {}",
            predictive.handovers,
            reactive.handovers
        );
        assert!(
            predictive.latency.percentile(99.0) <= reactive.latency.percentile(99.0),
            "predictive p99 {} > reactive p99 {}",
            predictive.latency.percentile(99.0),
            reactive.latency.percentile(99.0)
        );
        // The win comes from the engine actually acting, not from workload
        // drift: the predictive arm widened replication toward the
        // accessors and the reactive arm did nothing.
        assert!(predictive.policy.widens > 0);
        assert_eq!(reactive.policy, PolicyStats::default());
    }

    #[test]
    fn arms_replay_deterministically_for_equal_seeds() {
        for policy in [PolicyKind::Reactive, PolicyKind::Predictive] {
            let a = run_arm(MINI, policy, 42);
            let b = run_arm(MINI, policy, 42);
            assert_eq!(a.handovers, b.handovers, "{policy:?} handovers differ");
            assert_eq!(a.policy, b.policy, "{policy:?} policy stats differ");
            assert_eq!(a.sim_ticks, b.sim_ticks, "{policy:?} sim time differs");
            for p in [50.0, 99.0, 99.9] {
                assert_eq!(
                    a.latency.percentile(p),
                    b.latency.percentile(p),
                    "{policy:?} p{p} differs"
                );
            }
        }
    }
}
