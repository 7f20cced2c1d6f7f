//! Replicated view service: majority-quorum membership agreement.
//!
//! Zeus (EuroSys '21, §4.1) assumes an external replicated membership
//! service (ZooKeeper in the paper) that owns view epochs: the data plane
//! never decides membership itself, it only reacts to committed views. This
//! crate is that service, embedded: a small static set of *view replicas*
//! (by default the first three nodes) runs a single-decree agreement
//! protocol per epoch, so membership keeps moving as long as a majority of
//! the set is alive — killing the lowest-id node, or any minority of view
//! replicas, no longer wedges expulsions, re-admissions or admin ops.
//!
//! # Protocol
//!
//! Each replica holds the latest *committed* view (epoch, live set,
//! admission epochs) plus *intents*: nodes it wants expelled (lease expiry,
//! admin removal) or admitted (heartbeat from a rejoiner, admin restore).
//! When it has intents and no proposal in flight, it proposes the next
//! epoch derived from its committed view and implicitly grants it itself.
//! The other replicas grant or reject under three rules:
//!
//! * **Sticky grant** — a replica holds at most one live grant. It grants a
//!   proposal iff it currently holds no grant, or already holds a grant for
//!   that same `(epoch, proposer)` (idempotent re-grant under retransmit).
//!   Any competing proposal is rejected. Grants die when a commit at or
//!   above their epoch arrives, or after `grant_ttl` ticks. Because two
//!   live grants for different proposals cannot coexist on one replica,
//!   two proposals can never both collect a majority: quorum intersection
//!   gives at-most-one committed view per epoch.
//! * **Base check** — a proposal names the committed epoch it was derived
//!   from. A replica whose committed epoch is higher rejects (carrying its
//!   epoch so the proposer can resync); one whose committed epoch is lower
//!   asks to be synced instead of voting. Every committed view therefore
//!   extends the latest committed one — a proposer with a stale view can
//!   never, say, resurrect an expelled-but-alive node without the admission
//!   epoch bump that forces its state reset.
//! * **TTL + rank stagger** — a proposal that cannot reach a majority
//!   (grants split between racing proposers) expires after `grant_ttl`,
//!   as do the grants themselves; each proposer then backs off by its rank
//!   in the replica set times the retry interval, so the lowest-ranked live
//!   proposer retries first into a clean slate. `grant_ttl` is the lease
//!   duration — orders of magnitude above any message delay — so expiring a
//!   grant while its proposal is still collecting votes is not a practical
//!   schedule, and even then the proposal also expires and restarts.
//!
//! A committed view is *disseminated* by the host through the existing
//! membership `ViewChange` broadcast (every node installs it, view replica
//! or not); the host feeds installs back via [`ViewReplica::observe_committed`]
//! so replicas that missed the agreement round catch up.
//!
//! The same service owns the directory placement metadata: the host
//! exchanges [`ViewMsg::DirPull`]/[`ViewMsg::DirPush`] among directory
//! replicas so a rejoiner re-learns placements before serving arbitration
//! (see `zeus-ownership`); those two variants never enter this engine.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};

use zeus_proto::{Epoch, NodeId, ViewMsg};

/// Outputs of the view-replica engine, drained by the host after every
/// [`ViewReplica::tick`] / [`ViewReplica::on_message`].
#[derive(Debug, Clone, PartialEq)]
pub enum ViewEvent {
    /// Send `msg` to view replica `to`.
    Send {
        /// Destination view replica.
        to: NodeId,
        /// The agreement message.
        msg: ViewMsg,
    },
    /// A proposal reached a majority: the host must disseminate this view
    /// (membership `ViewChange` broadcast) and install it locally.
    Committed {
        /// Epoch of the committed view.
        epoch: Epoch,
        /// Live nodes of the committed view (sorted).
        live: Vec<NodeId>,
        /// Parallel to `live`: admission epochs.
        admitted: Vec<Epoch>,
    },
    /// This replica discovered (via a reject, or a proposal based on a
    /// newer epoch) that `to` has committed views it is missing: the host
    /// should pull them (membership `ViewPull`).
    NeedsSync {
        /// The node holding newer committed views.
        to: NodeId,
    },
}

/// A proposal this replica has in flight.
#[derive(Debug, Clone)]
struct Proposal {
    epoch: Epoch,
    base: Epoch,
    live: Vec<NodeId>,
    admitted: Vec<Epoch>,
    grants: BTreeSet<NodeId>,
    last_sent: u64,
    expires_at: u64,
}

/// One replica of the view service. Every node constructs one, but only
/// members of the (static) view-replica set participate; on non-members the
/// engine is inert.
#[derive(Debug)]
pub struct ViewReplica {
    local: NodeId,
    /// The static view-replica set, sorted. Membership *in the data-plane
    /// view* does not affect participation: an expelled view replica keeps
    /// voting (its votes only matter once it can reach peers again, at
    /// which point the base check forces it to resync first).
    set: Vec<NodeId>,
    committed: Epoch,
    committed_live: Vec<NodeId>,
    committed_admitted: BTreeMap<NodeId, Epoch>,
    pending_expel: BTreeSet<NodeId>,
    pending_admit: BTreeSet<NodeId>,
    proposal: Option<Proposal>,
    /// The sticky grant: `(epoch, proposer, granted_at)`.
    granted: Option<(Epoch, NodeId, u64)>,
    /// Retry / retransmit cadence (the membership heartbeat interval).
    retry_interval: u64,
    /// Lifetime of grants and proposals (the lease duration).
    grant_ttl: u64,
    /// Earliest tick at which a new proposal may be built (rank-staggered
    /// backoff after an expiry or reject).
    next_propose_at: u64,
    /// Tick at which the current batch of intents first appeared, for the
    /// initial-proposal deferral (see [`ViewReplica::tick`]): replicas that
    /// have a live, unsuspected lower-ranked peer wait for it to propose
    /// first instead of racing it into a TTL stand-off.
    intent_since: Option<u64>,
}

impl ViewReplica {
    /// Creates a replica. `set` is the static view-replica set (sorted,
    /// deduplicated here), `initial_live` the epoch-zero membership.
    pub fn new(
        local: NodeId,
        set: Vec<NodeId>,
        initial_live: Vec<NodeId>,
        retry_interval: u64,
        grant_ttl: u64,
    ) -> Self {
        let mut set = set;
        set.sort_unstable();
        set.dedup();
        let mut live = initial_live;
        live.sort_unstable();
        live.dedup();
        let committed_admitted = live.iter().map(|&n| (n, Epoch::ZERO)).collect();
        ViewReplica {
            local,
            set,
            committed: Epoch::ZERO,
            committed_live: live,
            committed_admitted,
            pending_expel: BTreeSet::new(),
            pending_admit: BTreeSet::new(),
            proposal: None,
            granted: None,
            retry_interval: retry_interval.max(1),
            grant_ttl: grant_ttl.max(1),
            next_propose_at: 0,
            intent_since: None,
        }
    }

    /// Whether this node is a member of the view-replica set.
    pub fn is_member(&self) -> bool {
        self.set.binary_search(&self.local).is_ok()
    }

    /// The static view-replica set.
    pub fn set(&self) -> &[NodeId] {
        &self.set
    }

    /// The latest committed epoch this replica knows.
    pub fn committed_epoch(&self) -> Epoch {
        self.committed
    }

    /// Live set of the latest committed view this replica knows.
    pub fn committed_live(&self) -> &[NodeId] {
        &self.committed_live
    }

    /// Whether agreement work is still outstanding: a proposal in flight,
    /// or intents waiting to be proposed. Hosts fold this into their
    /// quiescence check so simulated time keeps advancing for retries.
    pub fn has_pending_work(&self) -> bool {
        self.is_member()
            && (self.proposal.is_some()
                || !self.pending_expel.is_empty()
                || !self.pending_admit.is_empty())
    }

    /// The earliest tick after `now` at which [`ViewReplica::tick`] does
    /// something by the clock alone, `None` with no agreement work
    /// outstanding: a live proposal is re-sent or expires; intents waiting
    /// to be proposed wait for the rank back-off, the initial deferral or a
    /// grant to another proposer to run out — the earliest of those still
    /// ahead, which may be early (the others then still hold the proposal
    /// back) but is never late.
    pub fn next_timer(&self, now: u64) -> Option<u64> {
        if !self.has_pending_work() {
            return None;
        }
        if let Some(p) = &self.proposal {
            return Some(p.expires_at.min(p.last_sent + self.retry_interval));
        }
        let gates = [
            Some(self.next_propose_at),
            self.intent_since
                .map(|since| since.saturating_add(self.initial_deferral())),
            self.granted
                .map(|(_, _, at)| at.saturating_add(self.grant_ttl)),
        ];
        // With every gate behind `now` the proposal is due: `tick` has not
        // run since the intent was registered.
        let ahead = gates.into_iter().flatten().filter(|&at| at > now).min();
        Some(ahead.unwrap_or(now + 1))
    }

    /// How long a fresh intent waits before this replica proposes it: one
    /// retry interval per live, unsuspected lower-ranked replica (see
    /// [`ViewReplica::tick`]).
    fn initial_deferral(&self) -> u64 {
        self.set
            .iter()
            .take_while(|&&n| n != self.local)
            .filter(|&&n| self.committed_live.contains(&n) && !self.pending_expel.contains(&n))
            .count() as u64
            * self.retry_interval
    }

    /// Registers the intent to expel `node` from the view (lease expiry or
    /// admin removal). Idempotent; cleared when a committed view satisfies
    /// it. No-op on non-members.
    pub fn propose_expel(&mut self, node: NodeId) {
        if self.is_member() {
            self.pending_admit.remove(&node);
            self.pending_expel.insert(node);
        }
    }

    /// Registers the intent to (re-)admit `node` (rejoin heartbeat or admin
    /// restore). Idempotent; cleared when a committed view satisfies it.
    /// No-op on non-members.
    pub fn propose_admit(&mut self, node: NodeId) {
        if self.is_member() {
            self.pending_expel.remove(&node);
            self.pending_admit.insert(node);
        }
    }

    /// Drops the intent to expel `node`, if any — used when the suspicion
    /// that raised it clears (e.g. a heartbeat arrives) before commit.
    pub fn retract_expel(&mut self, node: NodeId) {
        self.pending_expel.remove(&node);
    }

    /// Feeds a committed view back into the replica (from a local commit's
    /// install or a disseminated `ViewChange`). Clears satisfied intents,
    /// superseded proposals and covered grants.
    pub fn observe_committed(&mut self, epoch: Epoch, live: &[NodeId], admitted: &[Epoch]) {
        if epoch <= self.committed {
            return;
        }
        self.committed = epoch;
        self.committed_live = live.to_vec();
        self.committed_admitted = live.iter().copied().zip(admitted.iter().copied()).collect();
        // Any in-flight proposal is now based on a stale epoch; drop it and
        // rebuild from the remaining intents next tick.
        self.proposal = None;
        if let Some((granted_epoch, _, _)) = self.granted {
            if granted_epoch <= epoch {
                self.granted = None;
            }
        }
        self.pending_expel
            .retain(|n| self.committed_live.contains(n));
        self.pending_admit
            .retain(|n| !self.committed_live.contains(n));
        // Any intents that survived belong to a new agreement round: re-seed
        // the initial-proposal deferral against the new view.
        self.intent_since = None;
    }

    fn rank(&self) -> u64 {
        self.set
            .iter()
            .position(|&n| n == self.local)
            .unwrap_or(self.set.len()) as u64
    }

    fn granted_live(&self, now: u64) -> Option<(Epoch, NodeId)> {
        match self.granted {
            Some((epoch, proposer, at)) if now < at.saturating_add(self.grant_ttl) => {
                Some((epoch, proposer))
            }
            _ => None,
        }
    }

    fn majority(&self, grants: usize) -> bool {
        grants * 2 > self.set.len()
    }

    /// Drives retries, expiries and new proposals. Call once per host tick.
    pub fn tick(&mut self, now: u64, events: &mut Vec<ViewEvent>) {
        if !self.is_member() {
            return;
        }

        // Expire a proposal that could not reach a majority, then back off
        // by rank so racing proposers untangle deterministically.
        if let Some(p) = &self.proposal {
            if now >= p.expires_at {
                self.proposal = None;
                self.next_propose_at = now + self.rank() * self.retry_interval;
            }
        }

        // Retransmit the live proposal to replicas that have not granted.
        if let Some(p) = &mut self.proposal {
            if now >= p.last_sent + self.retry_interval {
                p.last_sent = now;
                for &peer in &self.set {
                    if peer != self.local && !p.grants.contains(&peer) {
                        events.push(ViewEvent::Send {
                            to: peer,
                            msg: ViewMsg::Propose {
                                epoch: p.epoch,
                                base: p.base,
                                live: p.live.clone(),
                                admitted: p.admitted.clone(),
                                from: self.local,
                            },
                        });
                    }
                }
            }
            return;
        }

        // Normalise intents against the committed view before proposing.
        self.pending_expel
            .retain(|n| self.committed_live.contains(n));
        self.pending_admit
            .retain(|n| !self.committed_live.contains(n));
        if self.pending_expel.is_empty() && self.pending_admit.is_empty() {
            self.intent_since = None;
            return;
        }
        if now < self.next_propose_at {
            return;
        }
        // Initial-proposal deferral: when several replicas detect the same
        // event on the same tick (lease expiry fires everywhere at once;
        // admin ops are routed to every replica), racing proposals would
        // split the grants and stall until the TTL. Instead, each replica
        // waits one retry interval per live, unsuspected lower-ranked peer —
        // the lowest such peer proposes immediately and the others grant it.
        // If that peer is dead (usually it is the one being expelled, so it
        // is suspected and not counted) the next rank takes over an interval
        // later.
        let since = *self.intent_since.get_or_insert(now);
        if now < since.saturating_add(self.initial_deferral()) {
            return;
        }
        // A live grant to another proposer blocks our own (the sticky-grant
        // rule applies to ourselves too); wait for it to commit or expire.
        if let Some((_, proposer)) = self.granted_live(now) {
            if proposer != self.local {
                return;
            }
        }

        let mut live: Vec<NodeId> = self
            .committed_live
            .iter()
            .copied()
            .filter(|n| !self.pending_expel.contains(n))
            .chain(self.pending_admit.iter().copied())
            .collect();
        live.sort_unstable();
        live.dedup();
        let epoch = self.committed.next();
        let admitted: Vec<Epoch> = live
            .iter()
            .map(|n| self.committed_admitted.get(n).copied().unwrap_or(epoch))
            .collect();
        let mut grants = BTreeSet::new();
        grants.insert(self.local);
        self.granted = Some((epoch, self.local, now));
        let proposal = Proposal {
            epoch,
            base: self.committed,
            live,
            admitted,
            grants,
            last_sent: now,
            expires_at: now.saturating_add(self.grant_ttl),
        };
        for &peer in &self.set {
            if peer != self.local {
                events.push(ViewEvent::Send {
                    to: peer,
                    msg: ViewMsg::Propose {
                        epoch: proposal.epoch,
                        base: proposal.base,
                        live: proposal.live.clone(),
                        admitted: proposal.admitted.clone(),
                        from: self.local,
                    },
                });
            }
        }
        self.proposal = Some(proposal);
        self.maybe_commit(events);
    }

    fn maybe_commit(&mut self, events: &mut Vec<ViewEvent>) {
        let ready = self
            .proposal
            .as_ref()
            .is_some_and(|p| self.majority(p.grants.len()));
        if !ready {
            return;
        }
        let p = self.proposal.take().expect("checked above");
        events.push(ViewEvent::Committed {
            epoch: p.epoch,
            live: p.live.clone(),
            admitted: p.admitted.clone(),
        });
        self.observe_committed(p.epoch, &p.live, &p.admitted);
    }

    /// Handles an agreement message (`Propose`/`Grant`/`Reject`). The
    /// directory-sync variants (`DirPull`/`DirPush`) belong to the host and
    /// are ignored here.
    pub fn on_message(&mut self, msg: ViewMsg, now: u64, events: &mut Vec<ViewEvent>) {
        if !self.is_member() {
            return;
        }
        match msg {
            ViewMsg::Propose {
                epoch,
                base,
                live,
                admitted,
                from,
            } => self.on_propose(epoch, base, live, admitted, from, now, events),
            ViewMsg::Grant { epoch, from } => self.on_grant(epoch, from, events),
            ViewMsg::Reject {
                epoch,
                committed,
                from,
            } => self.on_reject(epoch, committed, from, now, events),
            ViewMsg::DirPull { .. } | ViewMsg::DirPush { .. } => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_propose(
        &mut self,
        epoch: Epoch,
        base: Epoch,
        live: Vec<NodeId>,
        admitted: Vec<Epoch>,
        from: NodeId,
        now: u64,
        events: &mut Vec<ViewEvent>,
    ) {
        let _ = (&live, &admitted);
        if epoch <= self.committed {
            // Already superseded; the reject carries our epoch so the
            // proposer resyncs.
            events.push(ViewEvent::Send {
                to: from,
                msg: ViewMsg::Reject {
                    epoch,
                    committed: self.committed,
                    from: self.local,
                },
            });
            return;
        }
        if base > self.committed {
            // The proposer has committed views we missed: catch up before
            // voting (granting against an unknown base could endorse a view
            // we cannot validate).
            events.push(ViewEvent::NeedsSync { to: from });
            return;
        }
        if base < self.committed {
            events.push(ViewEvent::Send {
                to: from,
                msg: ViewMsg::Reject {
                    epoch,
                    committed: self.committed,
                    from: self.local,
                },
            });
            return;
        }
        match self.granted_live(now) {
            None => {
                self.granted = Some((epoch, from, now));
                events.push(ViewEvent::Send {
                    to: from,
                    msg: ViewMsg::Grant {
                        epoch,
                        from: self.local,
                    },
                });
            }
            Some((granted_epoch, proposer)) if granted_epoch == epoch && proposer == from => {
                // Idempotent re-grant under retransmit; refresh the stamp.
                self.granted = Some((epoch, from, now));
                events.push(ViewEvent::Send {
                    to: from,
                    msg: ViewMsg::Grant {
                        epoch,
                        from: self.local,
                    },
                });
            }
            Some(_) => {
                events.push(ViewEvent::Send {
                    to: from,
                    msg: ViewMsg::Reject {
                        epoch,
                        committed: self.committed,
                        from: self.local,
                    },
                });
            }
        }
    }

    fn on_grant(&mut self, epoch: Epoch, from: NodeId, events: &mut Vec<ViewEvent>) {
        let matches = self.proposal.as_ref().is_some_and(|p| p.epoch == epoch);
        if !matches {
            return;
        }
        if let Some(p) = &mut self.proposal {
            if self.set.binary_search(&from).is_ok() {
                p.grants.insert(from);
            }
        }
        self.maybe_commit(events);
    }

    fn on_reject(
        &mut self,
        epoch: Epoch,
        committed: Epoch,
        from: NodeId,
        now: u64,
        events: &mut Vec<ViewEvent>,
    ) {
        let matches = self.proposal.as_ref().is_some_and(|p| p.epoch == epoch);
        if !matches {
            return;
        }
        if committed > self.committed {
            // We proposed against a stale view: drop it, sync, re-derive.
            self.proposal = None;
            if let Some((granted_epoch, proposer, _)) = self.granted {
                if granted_epoch == epoch && proposer == self.local {
                    self.granted = None;
                }
            }
            self.next_propose_at = now + self.retry_interval;
            events.push(ViewEvent::NeedsSync { to: from });
        }
        // A competing-grant reject: keep the proposal; either a remaining
        // replica's grant commits us, or the TTL expires both sides and the
        // rank stagger picks a single retrier.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RETRY: u64 = 100;
    const TTL: u64 = 10_000;

    fn replica(local: u16) -> ViewReplica {
        ViewReplica::new(
            NodeId(local),
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![NodeId(0), NodeId(1), NodeId(2)],
            RETRY,
            TTL,
        )
    }

    fn sends(events: &[ViewEvent]) -> Vec<(NodeId, &ViewMsg)> {
        events
            .iter()
            .filter_map(|e| match e {
                ViewEvent::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    fn committed(events: &[ViewEvent]) -> Option<(Epoch, Vec<NodeId>, Vec<Epoch>)> {
        events.iter().find_map(|e| match e {
            ViewEvent::Committed {
                epoch,
                live,
                admitted,
            } => Some((*epoch, live.clone(), admitted.clone())),
            _ => None,
        })
    }

    /// One grant on top of the self-grant is a majority of three: the
    /// expulsion commits with the survivor's admissions retained.
    #[test]
    fn single_grant_commits_an_expulsion() {
        let mut a = replica(0);
        let mut events = Vec::new();
        a.propose_expel(NodeId(2));
        a.tick(0, &mut events);
        let proposals = sends(&events);
        assert_eq!(proposals.len(), 2, "proposal goes to both peers");
        assert!(committed(&events).is_none(), "no majority yet");
        events.clear();

        a.on_message(
            ViewMsg::Grant {
                epoch: Epoch(1),
                from: NodeId(1),
            },
            1,
            &mut events,
        );
        let (epoch, live, admitted) = committed(&events).expect("committed");
        assert_eq!(epoch, Epoch(1));
        assert_eq!(live, vec![NodeId(0), NodeId(1)]);
        assert_eq!(admitted, vec![Epoch::ZERO, Epoch::ZERO]);
        assert_eq!(a.committed_epoch(), Epoch(1));
        assert!(!a.has_pending_work(), "intent satisfied by the commit");
    }

    /// A peer grants the first proposal it sees and rejects a competing
    /// one; the same proposal re-sent is re-granted.
    #[test]
    fn grants_are_sticky_and_idempotent() {
        let mut b = replica(1);
        let mut events = Vec::new();
        let proposal = |from: u16| ViewMsg::Propose {
            epoch: Epoch(1),
            base: Epoch::ZERO,
            live: vec![NodeId(0), NodeId(1)],
            admitted: vec![Epoch::ZERO, Epoch::ZERO],
            from: NodeId(from),
        };
        b.on_message(proposal(0), 0, &mut events);
        assert!(matches!(
            sends(&events).as_slice(),
            [(
                NodeId(0),
                ViewMsg::Grant {
                    epoch: Epoch(1),
                    ..
                }
            )]
        ));
        events.clear();

        b.on_message(proposal(2), 1, &mut events);
        assert!(
            matches!(
                sends(&events).as_slice(),
                [(
                    NodeId(2),
                    ViewMsg::Reject {
                        epoch: Epoch(1),
                        ..
                    }
                )]
            ),
            "competing proposal rejected: {events:?}"
        );
        events.clear();

        b.on_message(proposal(0), 2, &mut events);
        assert!(
            matches!(
                sends(&events).as_slice(),
                [(
                    NodeId(0),
                    ViewMsg::Grant {
                        epoch: Epoch(1),
                        ..
                    }
                )]
            ),
            "retransmitted proposal re-granted: {events:?}"
        );
    }

    /// A proposal derived from a stale committed epoch is rejected with the
    /// rejecter's epoch; the proposer drops it and asks to sync.
    #[test]
    fn stale_base_is_rejected_and_proposer_resyncs() {
        let mut b = replica(1);
        b.observe_committed(
            Epoch(3),
            &[NodeId(0), NodeId(1)],
            &[Epoch::ZERO, Epoch::ZERO],
        );
        let mut events = Vec::new();
        b.on_message(
            ViewMsg::Propose {
                epoch: Epoch(4),
                base: Epoch(1),
                live: vec![NodeId(0), NodeId(1), NodeId(2)],
                admitted: vec![Epoch::ZERO; 3],
                from: NodeId(2),
            },
            0,
            &mut events,
        );
        assert!(matches!(
            sends(&events).as_slice(),
            [(
                NodeId(2),
                ViewMsg::Reject {
                    epoch: Epoch(4),
                    committed: Epoch(3),
                    ..
                }
            )]
        ));

        // The proposer side: in-flight proposal at epoch 4, reject arrives.
        let mut c = replica(2);
        c.observe_committed(
            Epoch(1),
            &[NodeId(0), NodeId(1), NodeId(2)],
            &[Epoch::ZERO; 3],
        );
        let mut ev = Vec::new();
        c.propose_expel(NodeId(0));
        c.tick(0, &mut ev); // seeds the initial-proposal deferral
        c.tick(RETRY, &mut ev); // deferral over: the proposal goes out
        ev.clear();
        c.on_message(
            ViewMsg::Reject {
                epoch: Epoch(2),
                committed: Epoch(3),
                from: NodeId(1),
            },
            1,
            &mut ev,
        );
        assert!(
            ev.contains(&ViewEvent::NeedsSync { to: NodeId(1) }),
            "proposer pulls the missed views: {ev:?}"
        );
        assert!(c.has_pending_work(), "intent survives to be re-proposed");
    }

    /// A proposal based on views the acker has not seen makes the acker
    /// sync instead of voting.
    #[test]
    fn acker_behind_the_base_asks_to_sync() {
        let mut b = replica(1);
        let mut events = Vec::new();
        b.on_message(
            ViewMsg::Propose {
                epoch: Epoch(5),
                base: Epoch(4),
                live: vec![NodeId(0), NodeId(1)],
                admitted: vec![Epoch::ZERO, Epoch::ZERO],
                from: NodeId(0),
            },
            0,
            &mut events,
        );
        assert_eq!(events, vec![ViewEvent::NeedsSync { to: NodeId(0) }]);
    }

    /// An expired grant no longer blocks a new proposal.
    #[test]
    fn grants_expire_after_ttl() {
        let mut b = replica(1);
        let mut events = Vec::new();
        let proposal = |from: u16| ViewMsg::Propose {
            epoch: Epoch(1),
            base: Epoch::ZERO,
            live: vec![NodeId(1), NodeId(2)],
            admitted: vec![Epoch::ZERO, Epoch::ZERO],
            from: NodeId(from),
        };
        b.on_message(proposal(0), 0, &mut events);
        events.clear();
        b.on_message(proposal(2), TTL + 1, &mut events);
        assert!(
            matches!(
                sends(&events).as_slice(),
                [(
                    NodeId(2),
                    ViewMsg::Grant {
                        epoch: Epoch(1),
                        ..
                    }
                )]
            ),
            "expired grant releases the slot: {events:?}"
        );
    }

    /// Two proposers race, splitting the third replica's grant; after the
    /// TTL both proposals expire and the lower-ranked proposer commits on
    /// retry while the higher-ranked one is still backing off.
    #[test]
    fn racing_proposals_resolve_by_ttl_and_rank() {
        let mut a = replica(0);
        let mut c = replica(2);
        let mut judge = replica(1);

        // Distinct victims make the committed outcome attributable. c (rank
        // 2) suspects node 0 first: its initial-proposal deferral — one
        // interval for the live, unsuspected replica 1 — passes without
        // replica 1 proposing, so c proposes. a (rank 0, deferral zero)
        // independently suspects node 2 and proposes at the same tick: a
        // genuine race.
        c.propose_expel(NodeId(0));
        let mut ec = Vec::new();
        c.tick(0, &mut ec);
        assert!(
            sends(&ec).is_empty(),
            "deferring to the lower-ranked live replica: {ec:?}"
        );
        c.tick(RETRY, &mut ec);
        a.propose_expel(NodeId(2));
        let mut ea = Vec::new();
        a.tick(RETRY, &mut ea);

        // The judge sees c's proposal first and grants it; a's is rejected.
        let mut ej = Vec::new();
        for (_, msg) in sends(&ec) {
            if matches!(msg, ViewMsg::Propose { .. }) {
                judge.on_message(msg.clone(), 1, &mut ej);
            }
        }
        for (_, msg) in sends(&ea) {
            if matches!(msg, ViewMsg::Propose { .. }) {
                judge.on_message(msg.clone(), 1, &mut ej);
            }
        }
        // a and c each rejected the other's proposal (sticky self-grant), so
        // deliver the judge's verdicts only: one grant to c, one reject to a.
        let mut committed_view = None;
        for (to, msg) in sends(&ej) {
            let mut ev = Vec::new();
            match to {
                NodeId(2) => c.on_message(msg.clone(), 2, &mut ev),
                NodeId(0) => a.on_message(msg.clone(), 2, &mut ev),
                _ => {}
            }
            if let Some(cv) = committed(&ev) {
                committed_view = Some(cv);
            }
        }
        let (epoch, live, _) = committed_view.expect("judge's grant commits one proposal");
        assert_eq!(epoch, Epoch(1));
        assert_eq!(
            live,
            vec![NodeId(1), NodeId(2)],
            "c's expulsion of node 0 won"
        );

        // a eventually observes the committed view (dissemination) and its
        // own conflicting intent—expel node 2—survives to a fresh proposal
        // based on the new epoch.
        a.observe_committed(
            Epoch(1),
            &[NodeId(1), NodeId(2)],
            &[Epoch::ZERO, Epoch::ZERO],
        );
        let mut ev = Vec::new();
        a.tick(TTL + 1, &mut ev);
        let props = sends(&ev);
        assert!(
            props
                .iter()
                .all(|(_, m)| matches!(m, ViewMsg::Propose { base: Epoch(1), .. })),
            "retry is based on the new committed epoch: {ev:?}"
        );
    }

    /// A node re-admitted after an expulsion carries the new epoch as its
    /// admission epoch; retained nodes keep theirs.
    #[test]
    fn readmission_bumps_the_admission_epoch() {
        let mut a = replica(0);
        a.observe_committed(
            Epoch(1),
            &[NodeId(0), NodeId(1)],
            &[Epoch::ZERO, Epoch::ZERO],
        );
        a.propose_admit(NodeId(2));
        let mut events = Vec::new();
        a.tick(0, &mut events);
        events.clear();
        a.on_message(
            ViewMsg::Grant {
                epoch: Epoch(2),
                from: NodeId(1),
            },
            1,
            &mut events,
        );
        let (epoch, live, admitted) = committed(&events).expect("committed");
        assert_eq!(epoch, Epoch(2));
        assert_eq!(live, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(
            admitted,
            vec![Epoch::ZERO, Epoch::ZERO, Epoch(2)],
            "rejoiner admitted at the new epoch, others keep theirs"
        );
    }

    /// Proposals retransmit to non-granting replicas at the retry cadence
    /// and expire after the TTL.
    #[test]
    fn proposals_retransmit_then_expire() {
        let mut a = replica(0);
        let mut events = Vec::new();
        a.propose_expel(NodeId(2));
        a.tick(0, &mut events);
        events.clear();

        a.tick(RETRY / 2, &mut events);
        assert!(events.is_empty(), "below the retry interval: no traffic");
        a.tick(RETRY, &mut events);
        assert_eq!(sends(&events).len(), 2, "retransmit to both non-granters");
        events.clear();

        // At the TTL the stuck proposal expires and — rank 0 backs off by
        // zero — is immediately rebuilt from the surviving intent.
        a.tick(TTL, &mut events);
        assert!(a.has_pending_work(), "intent survives the expiry");
        assert!(
            sends(&events)
                .iter()
                .all(|(_, m)| matches!(m, ViewMsg::Propose { .. })),
            "expired proposal is rebuilt: {events:?}"
        );
        assert_eq!(sends(&events).len(), 2);
    }

    /// A single-replica set (one-node cluster) commits its own proposals
    /// immediately.
    #[test]
    fn singleton_set_commits_alone() {
        let mut a = ViewReplica::new(
            NodeId(0),
            vec![NodeId(0)],
            vec![NodeId(0), NodeId(1)],
            RETRY,
            TTL,
        );
        a.propose_expel(NodeId(1));
        let mut events = Vec::new();
        a.tick(0, &mut events);
        let (epoch, live, _) = committed(&events).expect("self-majority");
        assert_eq!(epoch, Epoch(1));
        assert_eq!(live, vec![NodeId(0)]);
    }

    /// Non-members neither propose nor vote.
    #[test]
    fn non_members_are_inert() {
        let mut d = ViewReplica::new(
            NodeId(4),
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(4)],
            RETRY,
            TTL,
        );
        assert!(!d.is_member());
        d.propose_expel(NodeId(0));
        let mut events = Vec::new();
        d.tick(0, &mut events);
        d.on_message(
            ViewMsg::Propose {
                epoch: Epoch(1),
                base: Epoch::ZERO,
                live: vec![NodeId(0)],
                admitted: vec![Epoch::ZERO],
                from: NodeId(0),
            },
            0,
            &mut events,
        );
        assert!(events.is_empty());
        assert!(!d.has_pending_work());
    }

    /// observe_committed drops a superseded in-flight proposal and clears
    /// intents the new view satisfies.
    #[test]
    fn observe_committed_supersedes_proposal_and_intents() {
        let mut a = replica(0);
        a.propose_expel(NodeId(2));
        let mut events = Vec::new();
        a.tick(0, &mut events);
        events.clear();
        // Someone else committed the same expulsion at epoch 1.
        a.observe_committed(
            Epoch(1),
            &[NodeId(0), NodeId(1)],
            &[Epoch::ZERO, Epoch::ZERO],
        );
        assert!(!a.has_pending_work(), "proposal and intent both cleared");
        a.tick(RETRY * 2, &mut events);
        assert!(events.is_empty(), "nothing left to do");
    }
}
