//! Adaptive locality engine: access-pattern tracking and predictive
//! replica placement (ROADMAP item 3, in the spirit of Lion, arXiv
//! 2403.11221).
//!
//! Zeus's ownership protocol is *reactive*: an object moves only when a
//! remote access pays the full 1.5-RTT handover. This crate moves
//! placements *ahead* of the accesses instead. A deployment that stays
//! reactive ([`PolicyKind::Reactive`], the default) builds no engine at all.
//!
//! * [`AccessTracker`] — a per-object, per-node view of local access rates
//!   (EWMA of reads and writes per decay interval, in integer fixed point)
//!   plus a remote-access streak: how many consecutive accesses could not
//!   be served from the local replica. Cheap enough for the hot path — a
//!   bounded map, no allocation per access.
//! * The predictive policy — the decision rule: pre-migrate ownership toward
//!   this node when it keeps writing an object remotely, widen replication
//!   for read-hot objects it cannot serve locally, shrink replication for
//!   objects that went cold.
//! * [`LocalityEngine`] — the per-node assembly the runtimes embed: feed
//!   accesses in, tick it on (simulated or real) time, get back the
//!   placement actions to execute through the ordinary acquisition seam.
//!   Policy traffic rides the same ownership protocol as foreground
//!   commits, so the engine caps how many actions it issues per decay
//!   interval; what does not fit is counted as deferred and reconsidered
//!   next interval.
//!
//! Everything here is deterministic: rates are integer fixed point, decay
//! is tick-driven, candidate ordering is by explicit priority with a
//! seeded hash tie-break — so the chaos explorer can churn faults with the
//! policy active and replay byte-identically.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod policy;
mod tracker;

pub use policy::PlacementAction;
pub use tracker::{AccessKind, AccessTracker, ObjectStats, RATE_ONE};
pub use zeus_proto::{PolicyKind, PolicyStats};

use policy::Predictive;
use zeus_proto::{AccessLevel, ObjectId};

/// The per-node locality engine: tracker + predictive policy + action
/// budget, driven by the hosting runtime's clock.
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
    policy: Predictive,
    /// Actions issued per interval at a sustained rate.
    budget: u32,
    /// Actions that may still be issued: starts full, gains `budget` per
    /// interval, holds at most two intervals' worth.
    tokens: u32,
    stats: PolicyStats,
    interval_ticks: u64,
    last_interval: u64,
    plan_buf: Vec<PlacementAction>,
}

impl LocalityEngine {
    /// Builds an engine with the given decay/tick interval and
    /// per-interval action budget. `seed` feeds the predictive policy's
    /// tie-breaking so equal-priority candidates are ordered the same way
    /// on every run. `kind` must be [`PolicyKind::Predictive`]: the
    /// reactive policy is the absence of an engine.
    pub fn new(kind: PolicyKind, interval_ticks: u64, budget_per_interval: u32, seed: u64) -> Self {
        assert!(
            kind == PolicyKind::Predictive,
            "the reactive policy runs no locality engine"
        );
        LocalityEngine {
            tracker: AccessTracker::default(),
            policy: Predictive::new(seed),
            budget: budget_per_interval,
            tokens: budget_per_interval.saturating_mul(2),
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
            self.tokens = self
                .tokens
                .saturating_add(self.budget)
                .min(self.budget.saturating_mul(2));
        }
        self.plan_buf.clear();
        self.policy.plan(&self.tracker, &mut self.plan_buf);
        let mut taken = Vec::new();
        for action in self.plan_buf.drain(..) {
            if !admit(&action) {
                continue;
            }
            if self.tokens > 0 {
                self.tokens -= 1;
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

    fn obj(n: u64) -> ObjectId {
        ObjectId(n)
    }

    /// Records eight remote writes of each of `objects` objects, then
    /// ticks at `now`; returns how many actions were issued.
    fn write_hot_then_tick(eng: &mut LocalityEngine, objects: u64, now: u64) -> usize {
        for o in 0..objects {
            for _ in 0..8 {
                eng.record(obj(o), AccessKind::Write, AccessLevel::NonReplica, false);
            }
        }
        eng.tick(now, |_| true).len()
    }

    /// The reactive policy runs no engine at all, so it can never act:
    /// building one for it is refused.
    #[test]
    fn reactive_engine_never_acts() {
        let built =
            std::panic::catch_unwind(|| LocalityEngine::new(PolicyKind::Reactive, 10, 4, 7));
        let refusal = built.expect_err("a reactive engine was built");
        let message = refusal
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| refusal.downcast_ref::<String>().cloned());
        assert_eq!(
            message.as_deref(),
            Some("the reactive policy runs no locality engine")
        );
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
        // Burst capacity is 2x the per-interval refill.
        assert_eq!(write_hot_then_tick(&mut eng, 10, 10), 4);
        assert_eq!(eng.stats().actions_taken, 4);
        assert_eq!(eng.stats().actions_deferred, 6);
    }

    #[test]
    fn the_budget_refills_per_interval_and_saturates_at_twice_that() {
        let mut eng = LocalityEngine::new(PolicyKind::Predictive, 10, 2, 7);
        assert_eq!(write_hot_then_tick(&mut eng, 10, 10), 4, "starts full");
        assert_eq!(
            write_hot_then_tick(&mut eng, 10, 20),
            2,
            "one interval refills one budget"
        );
        assert_eq!(
            write_hot_then_tick(&mut eng, 10, 70),
            4,
            "five intervals refill no more than twice the budget"
        );
    }

    #[test]
    fn a_zero_budget_issues_nothing() {
        let mut eng = LocalityEngine::new(PolicyKind::Predictive, 10, 0, 7);
        assert_eq!(write_hot_then_tick(&mut eng, 1, 10), 0);
        assert_eq!(eng.stats().actions_taken, 0);
        assert_eq!(eng.stats().actions_deferred, 1);
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
