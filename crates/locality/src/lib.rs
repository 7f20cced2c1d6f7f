//! Adaptive locality engine: access-pattern tracking and predictive
//! replica placement (ROADMAP item 3, in the spirit of Lion, arXiv
//! 2403.11221).
//!
//! Zeus's ownership protocol is *reactive*: an object moves only when a
//! remote access pays the full 1.5-RTT handover. This crate adds the
//! machinery to move placements *ahead* of the accesses instead:
//!
//! * [`AccessTracker`] — a per-object, per-node view of local access rates
//!   (EWMA of reads and writes per decay interval, in integer fixed point)
//!   plus a remote-access streak: how many consecutive accesses could not
//!   be served from the local replica. Cheap enough for the hot path — a
//!   bounded map, no allocation per access, optional sampling for
//!   admission of new objects.
//! * [`PlacementPolicy`] — the decision rule. [`Reactive`] is the null
//!   policy (never emits an action, byte-identical to not running the
//!   engine). [`Predictive`] pre-migrates ownership toward the trending
//!   accessor, widens replication for read-hot objects this node cannot
//!   serve locally, and shrinks replication for objects that went cold.
//! * [`TokenBucket`] — the action budget. Policy traffic rides the same
//!   ownership protocol as foreground commits, so each node caps how many
//!   placement actions it issues per decay interval; what does not fit is
//!   counted as deferred and reconsidered next interval.
//! * [`LocalityEngine`] — the per-node assembly the runtimes embed: feed
//!   accesses in, tick it on (simulated or real) time, get back the
//!   placement actions to execute through the ordinary acquisition seam.
//!
//! Everything here is deterministic: rates are integer fixed point, decay
//! is tick-driven, candidate ordering is by explicit priority with a
//! seeded hash tie-break — so the chaos explorer can churn faults with the
//! policy active and replay byte-identically.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod budget;
mod policy;
mod tracker;

pub use budget::TokenBucket;
pub use policy::{PlacementAction, PlacementPolicy, PolicyConfig, Predictive, Reactive};
pub use tracker::{AccessKind, AccessTracker, ObjectStats, TrackedLevel, TrackerConfig, RATE_ONE};
pub use zeus_proto::{PolicyKind, PolicyStats};

use zeus_proto::{AccessLevel, ObjectId};

/// The per-node locality engine: tracker + policy + budget, driven by the
/// hosting runtime's clock.
///
/// The runtime feeds every transactional access through
/// [`LocalityEngine::record`], calls [`LocalityEngine::tick`] from its
/// periodic work, executes the returned actions through its acquisition
/// path, and reports each action's outcome back through
/// [`LocalityEngine::note_placement`] so the tracker's placement view stays
/// current without waiting for the next access.
#[derive(Debug)]
pub struct LocalityEngine {
    tracker: AccessTracker,
    policy: PolicyChoice,
    bucket: TokenBucket,
    stats: PolicyStats,
    interval_ticks: u64,
    last_interval: u64,
    plan_buf: Vec<PlacementAction>,
}

/// Static dispatch over the shipped policies (the trait stays open for
/// tests and external experiments).
#[derive(Debug)]
enum PolicyChoice {
    Reactive(Reactive),
    Predictive(Predictive),
}

impl LocalityEngine {
    /// Builds an engine for `kind` with the given decay/tick interval and
    /// per-interval action budget. `seed` feeds the predictive policy's
    /// tie-breaking so equal-priority candidates are ordered the same way
    /// on every run.
    pub fn new(kind: PolicyKind, interval_ticks: u64, budget_per_interval: u32, seed: u64) -> Self {
        let policy = match kind {
            PolicyKind::Reactive => PolicyChoice::Reactive(Reactive),
            PolicyKind::Predictive => {
                PolicyChoice::Predictive(Predictive::new(PolicyConfig::default(), seed))
            }
        };
        LocalityEngine {
            tracker: AccessTracker::new(TrackerConfig::default()),
            policy,
            // Burst capacity of two intervals' worth of refill.
            bucket: TokenBucket::new(budget_per_interval.saturating_mul(2), budget_per_interval),
            stats: PolicyStats::default(),
            interval_ticks: interval_ticks.max(1),
            last_interval: 0,
            plan_buf: Vec::new(),
        }
    }

    /// Records one transactional access. `served_locally` says whether the
    /// local replica satisfied it (owner for writes, valid replica for
    /// reads); `level` is the node's current access level for the object.
    pub fn record(
        &mut self,
        object: ObjectId,
        kind: AccessKind,
        level: AccessLevel,
        served_locally: bool,
    ) {
        self.tracker.record(object, kind, level, served_locally);
    }

    /// Reports the outcome of a placement change (a completed policy
    /// action, or any acquisition the runtime wants the tracker to see):
    /// updates the tracked level and clears the remote streak.
    pub fn note_placement(&mut self, object: ObjectId, level: AccessLevel) {
        self.tracker.note_placement(object, level);
    }

    /// Advances the engine to `now` and returns the placement actions to
    /// execute, at most as many as the budget allows (the rest are counted
    /// as deferred and reconsidered next interval). Returns an empty vec
    /// between interval boundaries.
    ///
    /// `admit` is the caller's veto: an action it rejects (already in
    /// flight, placement already moved) is skipped *before* it costs a
    /// budget token or a stats increment, so the counters describe what was
    /// actually issued.
    pub fn tick(
        &mut self,
        now: u64,
        mut admit: impl FnMut(&PlacementAction) -> bool,
    ) -> Vec<PlacementAction> {
        if now.saturating_sub(self.last_interval) < self.interval_ticks {
            return Vec::new();
        }
        // Catch up one interval per crossing; large jumps (the simulator's
        // settle phases) decay once per elapsed interval so idle time
        // genuinely cools objects down.
        let elapsed = now.saturating_sub(self.last_interval) / self.interval_ticks;
        self.last_interval += elapsed * self.interval_ticks;
        for _ in 0..elapsed.min(64) {
            self.tracker.on_interval();
            self.bucket.refill();
        }
        self.plan_buf.clear();
        match &mut self.policy {
            PolicyChoice::Reactive(p) => p.plan(&self.tracker, &mut self.plan_buf),
            PolicyChoice::Predictive(p) => p.plan(&self.tracker, &mut self.plan_buf),
        }
        let mut taken = Vec::new();
        for action in self.plan_buf.drain(..) {
            if !admit(&action) {
                continue;
            }
            if self.bucket.try_take() {
                self.stats.actions_taken += 1;
                match action {
                    PlacementAction::PreMigrate(_) => self.stats.premigrations += 1,
                    PlacementAction::Widen(_) => self.stats.widens += 1,
                    PlacementAction::Shrink(_) => self.stats.shrinks += 1,
                }
                taken.push(action);
            } else {
                self.stats.actions_deferred += 1;
            }
        }
        taken
    }

    /// The tick from which [`LocalityEngine::tick`] plans again; before it,
    /// a call returns nothing and changes nothing.
    pub fn next_interval(&self) -> u64 {
        self.last_interval.saturating_add(self.interval_ticks)
    }

    /// Counters of what the engine has done so far.
    pub fn stats(&self) -> &PolicyStats {
        &self.stats
    }

    /// Read access to the tracker (tests, introspection).
    pub fn tracker(&self) -> &AccessTracker {
        &self.tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_proto::AccessLevel;

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn reactive_engine_never_acts() {
        let mut eng = LocalityEngine::new(PolicyKind::Reactive, 10, 4, 7);
        for t in 0..50u64 {
            eng.record(obj(1), AccessKind::Write, AccessLevel::NonReplica, false);
            assert!(eng.tick(t, |_| true).is_empty());
        }
        assert_eq!(eng.stats().actions_taken, 0);
        assert_eq!(eng.stats().actions_deferred, 0);
    }

    #[test]
    fn predictive_engine_premigrates_a_write_hot_remote_object() {
        let mut eng = LocalityEngine::new(PolicyKind::Predictive, 10, 4, 7);
        for _ in 0..8 {
            eng.record(obj(3), AccessKind::Write, AccessLevel::NonReplica, false);
        }
        let actions = eng.tick(10, |_| true);
        assert_eq!(actions, vec![PlacementAction::PreMigrate(obj(3))]);
        assert_eq!(eng.stats().premigrations, 1);
    }

    #[test]
    fn budget_defers_surplus_actions() {
        let mut eng = LocalityEngine::new(PolicyKind::Predictive, 10, 2, 7);
        for o in 0..10u64 {
            for _ in 0..8 {
                eng.record(obj(o), AccessKind::Write, AccessLevel::NonReplica, false);
            }
        }
        // Burst capacity is 2x the per-interval refill.
        let actions = eng.tick(10, |_| true);
        assert_eq!(actions.len(), 4);
        assert_eq!(eng.stats().actions_taken, 4);
        assert_eq!(eng.stats().actions_deferred, 6);
    }

    #[test]
    fn converges_once_accesses_become_local() {
        let mut eng = LocalityEngine::new(PolicyKind::Predictive, 10, 8, 7);
        for _ in 0..8 {
            eng.record(obj(3), AccessKind::Write, AccessLevel::NonReplica, false);
        }
        assert_eq!(eng.tick(10, |_| true).len(), 1);
        eng.note_placement(obj(3), AccessLevel::Owner);
        // The same workload, now served locally: no further actions, ever.
        for t in 1..20u64 {
            for _ in 0..8 {
                eng.record(obj(3), AccessKind::Write, AccessLevel::Owner, true);
            }
            assert!(
                eng.tick(10 + t * 10, |_| true).is_empty(),
                "tick {t} re-acted"
            );
        }
    }
}
