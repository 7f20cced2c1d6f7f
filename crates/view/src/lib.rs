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
//! Each replica works from the latest *committed* view (epoch, live set,
//! admission epochs) and holds *intents*: nodes it wants expelled (lease
//! expiry, admin removal) or admitted (heartbeat from a rejoiner, admin
//! restore). When it has intents and no proposal in flight, it proposes the
//! next epoch derived from the committed view and implicitly grants it
//! itself.
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
//! or not). The replica keeps no copy of it: the host passes the view its
//! membership engine has installed to every call that reads it, and reports
//! each install through [`ViewReplica::on_installed`], so a replica that
//! missed the agreement round drops what the new view settled.
//!
//! The same service owns the directory placement metadata: the host
//! exchanges [`ViewMsg::DirPull`]/[`ViewMsg::DirPush`] among directory
//! replicas so a rejoiner re-learns placements before serving arbitration
//! (see `zeus-ownership`); those two variants never enter this engine.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeSet;

use zeus_proto::{Epoch, NodeId, View, ViewMsg};

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
    Committed(View),
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
    view: View,
    base: Epoch,
    grants: BTreeSet<NodeId>,
    last_sent: u64,
    expires_at: u64,
}

impl Proposal {
    /// The `Propose` message that carries this proposal.
    fn message(&self, from: NodeId) -> ViewMsg {
        ViewMsg::Propose {
            epoch: self.view.epoch,
            base: self.base,
            live: self.view.live.clone(),
            admitted: self.view.admitted.clone(),
            from,
        }
    }
}

/// One replica of the view service. Every node constructs one, but only
/// members of the (static) view-replica set participate; on non-members the
/// engine is inert. The committed view is the host's: every call that reads
/// it takes the view the host's membership engine has installed.
#[derive(Debug)]
pub struct ViewReplica {
    local: NodeId,
    /// The static view-replica set, sorted. Membership *in the data-plane
    /// view* does not affect participation: an expelled view replica keeps
    /// voting (its votes only matter once it can reach peers again, at
    /// which point the base check forces it to resync first).
    set: Vec<NodeId>,
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
    /// deduplicated here).
    pub fn new(local: NodeId, mut set: Vec<NodeId>, retry_interval: u64, grant_ttl: u64) -> Self {
        set.sort_unstable();
        set.dedup();
        ViewReplica {
            local,
            set,
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

    /// Whether agreement work is still outstanding: a proposal in flight,
    /// or intents waiting to be proposed. Hosts fold this into their
    /// quiescence check so simulated time keeps advancing for retries.
    pub fn has_pending_work(&self) -> bool {
        self.is_member()
            && (self.proposal.is_some()
                || !self.pending_expel.is_empty()
                || !self.pending_admit.is_empty())
    }

    /// The earliest tick after `now` at which [`ViewReplica::tick`] changes
    /// anything, given that it ran at `now` against the committed `view` and
    /// nothing was handled or installed since; `None` with nothing to agree
    /// on. A live proposal is re-sent or expires. Without one, the next tick
    /// is due at once when it has bookkeeping to do: drop intents the
    /// committed view already satisfies, or the stamp of intents that are
    /// gone. Unstamped intents
    /// are stamped by the first tick past the rank back-off; stamped ones
    /// wait for the back-off, the initial deferral or a grant to another
    /// proposer to run out — the earliest of those still ahead, which may be
    /// early (the others then still hold the proposal back) but is never
    /// late.
    pub fn next_timer(&self, view: &View, now: u64) -> Option<u64> {
        if !self.is_member() {
            return None;
        }
        if let Some(p) = &self.proposal {
            return Some(p.expires_at.min(p.last_sent + self.retry_interval));
        }
        let satisfied = self.pending_expel.iter().any(|&n| !view.is_live(n))
            || self.pending_admit.iter().any(|&n| view.is_live(n));
        let intents = !self.pending_expel.is_empty() || !self.pending_admit.is_empty();
        if satisfied || (!intents && self.intent_since.is_some()) {
            return Some(now + 1);
        }
        if !intents {
            return None;
        }
        let Some(since) = self.intent_since else {
            return Some(self.next_propose_at.max(now + 1));
        };
        let gates = [
            Some(self.next_propose_at),
            Some(since.saturating_add(self.initial_deferral(view))),
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
    fn initial_deferral(&self, view: &View) -> u64 {
        self.set
            .iter()
            .take_while(|&&n| n != self.local)
            .filter(|&&n| view.is_live(n) && !self.pending_expel.contains(&n))
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

    /// Reports that the host installed `view` (from a local commit or a
    /// disseminated `ViewChange`): drops the superseded proposal, the grant
    /// the view covers and the intents it satisfies.
    pub fn on_installed(&mut self, view: &View) {
        // Any in-flight proposal is now based on a stale epoch; drop it and
        // rebuild from the remaining intents next tick.
        self.proposal = None;
        if let Some((granted_epoch, _, _)) = self.granted {
            if granted_epoch <= view.epoch {
                self.granted = None;
            }
        }
        self.forget_satisfied(view);
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

    /// Drops the intents the committed `view` already satisfies.
    fn forget_satisfied(&mut self, view: &View) {
        self.pending_expel.retain(|&n| view.is_live(n));
        self.pending_admit.retain(|&n| !view.is_live(n));
    }

    /// Drives retries, expiries and new proposals against the committed
    /// `view`. Call once per host tick.
    pub fn tick(&mut self, view: &View, now: u64, events: &mut Vec<ViewEvent>) {
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
                            msg: p.message(self.local),
                        });
                    }
                }
            }
            return;
        }

        // Normalise intents against the committed view before proposing.
        self.forget_satisfied(view);
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
        if now < since.saturating_add(self.initial_deferral(view)) {
            return;
        }
        // A live grant to another proposer blocks our own (the sticky-grant
        // rule applies to ourselves too); wait for it to commit or expire.
        if let Some((_, proposer)) = self.granted_live(now) {
            if proposer != self.local {
                return;
            }
        }

        // Retained nodes keep their admission epoch; admitted ones enter at
        // the proposed epoch. The intents were normalised above, so the two
        // lists are disjoint.
        let epoch = view.epoch.next();
        let (mut live, mut admitted): (Vec<NodeId>, Vec<Epoch>) = view
            .live
            .iter()
            .zip(&view.admitted)
            .filter(|&(n, _)| !self.pending_expel.contains(n))
            .unzip();
        live.extend(&self.pending_admit);
        admitted.resize(live.len(), epoch);
        let mut grants = BTreeSet::new();
        grants.insert(self.local);
        self.granted = Some((epoch, self.local, now));
        let proposal = Proposal {
            view: View::new(epoch, live, admitted),
            base: view.epoch,
            grants,
            last_sent: now,
            expires_at: now.saturating_add(self.grant_ttl),
        };
        for &peer in &self.set {
            if peer != self.local {
                events.push(ViewEvent::Send {
                    to: peer,
                    msg: proposal.message(self.local),
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
        let view = self.proposal.take().expect("checked above").view;
        self.on_installed(&view);
        events.push(ViewEvent::Committed(view));
    }

    /// Handles an agreement message (`Propose`/`Grant`/`Reject`) against the
    /// committed `view`. The directory-sync variants (`DirPull`/`DirPush`)
    /// belong to the host and are ignored here.
    pub fn on_message(&mut self, view: &View, msg: ViewMsg, now: u64, events: &mut Vec<ViewEvent>) {
        if !self.is_member() {
            return;
        }
        let committed = view.epoch;
        match msg {
            ViewMsg::Propose {
                epoch, base, from, ..
            } => self.on_propose(committed, epoch, base, from, now, events),
            ViewMsg::Grant { epoch, from } => self.on_grant(epoch, from, events),
            ViewMsg::Reject {
                epoch,
                committed: theirs,
                from,
            } if theirs > committed => self.on_reject(epoch, from, now, events),
            // A competing-grant reject keeps the proposal: either a
            // remaining replica's grant commits us, or the TTL expires both
            // sides and the rank stagger picks a single retrier.
            ViewMsg::Reject { .. } | ViewMsg::DirPull { .. } | ViewMsg::DirPush { .. } => {}
        }
    }

    /// Votes on a proposal for `epoch` derived from `base`, this replica's
    /// committed epoch being `committed`. The proposed live set is not
    /// checked: the base check is what keeps it an extension of the
    /// committed view.
    fn on_propose(
        &mut self,
        committed: Epoch,
        epoch: Epoch,
        base: Epoch,
        from: NodeId,
        now: u64,
        events: &mut Vec<ViewEvent>,
    ) {
        if epoch > committed && base > committed {
            // The proposer has committed views we missed: catch up before
            // voting (granting against an unknown base could endorse a view
            // we cannot validate).
            return events.push(ViewEvent::NeedsSync { to: from });
        }
        // Rejected: a superseded proposal or one derived from a stale base
        // (the reject carries our epoch so the proposer resyncs), and one
        // competing with our live grant. A retransmit of the proposal we
        // granted is granted again, refreshing the stamp.
        let grant = epoch > committed
            && base == committed
            && self
                .granted_live(now)
                .is_none_or(|granted| granted == (epoch, from));
        let msg = if grant {
            self.granted = Some((epoch, from, now));
            ViewMsg::Grant {
                epoch,
                from: self.local,
            }
        } else {
            ViewMsg::Reject {
                epoch,
                committed,
                from: self.local,
            }
        };
        events.push(ViewEvent::Send { to: from, msg });
    }

    fn on_grant(&mut self, epoch: Epoch, from: NodeId, events: &mut Vec<ViewEvent>) {
        let Some(p) = &mut self.proposal else { return };
        if p.view.epoch != epoch {
            return;
        }
        if self.set.binary_search(&from).is_ok() {
            p.grants.insert(from);
        }
        self.maybe_commit(events);
    }

    /// `from` has committed views past the base of our proposal for
    /// `epoch`: we proposed against a stale view, so drop it, sync and
    /// re-derive.
    fn on_reject(&mut self, epoch: Epoch, from: NodeId, now: u64, events: &mut Vec<ViewEvent>) {
        if self.proposal.as_ref().is_none_or(|p| p.view.epoch != epoch) {
            return;
        }
        self.proposal = None;
        if self
            .granted
            .is_some_and(|(e, proposer, _)| e == epoch && proposer == self.local)
        {
            self.granted = None;
        }
        self.next_propose_at = now + self.retry_interval;
        events.push(ViewEvent::NeedsSync { to: from });
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
            RETRY,
            TTL,
        )
    }

    /// A view of nodes `0..n` at `epoch`, every one of them an initial
    /// member.
    fn view(epoch: u64, n: u16) -> View {
        View::new(
            Epoch(epoch),
            (0..n).map(NodeId).collect(),
            vec![Epoch::ZERO; n as usize],
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

    fn committed(events: &[ViewEvent]) -> Option<View> {
        events.iter().find_map(|e| match e {
            ViewEvent::Committed(view) => Some(view.clone()),
            _ => None,
        })
    }

    /// One grant on top of the self-grant is a majority of three: the
    /// expulsion commits with the survivor's admissions retained.
    #[test]
    fn single_grant_commits_an_expulsion() {
        let v0 = view(0, 3);
        let mut a = replica(0);
        let mut events = Vec::new();
        a.propose_expel(NodeId(2));
        a.tick(&v0, 0, &mut events);
        let proposals = sends(&events);
        assert_eq!(proposals.len(), 2, "proposal goes to both peers");
        assert!(committed(&events).is_none(), "no majority yet");
        events.clear();

        a.on_message(
            &v0,
            ViewMsg::Grant {
                epoch: Epoch(1),
                from: NodeId(1),
            },
            1,
            &mut events,
        );
        assert_eq!(committed(&events), Some(view(1, 2)));
        assert!(!a.has_pending_work(), "intent satisfied by the commit");
    }

    /// A peer grants the first proposal it sees and rejects a competing
    /// one; the same proposal re-sent is re-granted.
    #[test]
    fn grants_are_sticky_and_idempotent() {
        let v0 = view(0, 3);
        let mut b = replica(1);
        let mut events = Vec::new();
        let proposal = |from: u16| ViewMsg::Propose {
            epoch: Epoch(1),
            base: Epoch::ZERO,
            live: vec![NodeId(0), NodeId(1)],
            admitted: vec![Epoch::ZERO, Epoch::ZERO],
            from: NodeId(from),
        };
        b.on_message(&v0, proposal(0), 0, &mut events);
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

        b.on_message(&v0, proposal(2), 1, &mut events);
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

        b.on_message(&v0, proposal(0), 2, &mut events);
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
        let v3 = view(3, 2);
        b.on_installed(&v3);
        let mut events = Vec::new();
        b.on_message(
            &v3,
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
        let v1 = view(1, 3);
        c.on_installed(&v1);
        let mut ev = Vec::new();
        c.propose_expel(NodeId(0));
        c.tick(&v1, 0, &mut ev); // seeds the initial-proposal deferral
        c.tick(&v1, RETRY, &mut ev); // deferral over: the proposal goes out
        ev.clear();
        c.on_message(
            &v1,
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
        let v0 = view(0, 3);
        let mut b = replica(1);
        let mut events = Vec::new();
        b.on_message(
            &v0,
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
        let v0 = view(0, 3);
        let mut b = replica(1);
        let mut events = Vec::new();
        let proposal = |from: u16| ViewMsg::Propose {
            epoch: Epoch(1),
            base: Epoch::ZERO,
            live: vec![NodeId(1), NodeId(2)],
            admitted: vec![Epoch::ZERO, Epoch::ZERO],
            from: NodeId(from),
        };
        b.on_message(&v0, proposal(0), 0, &mut events);
        events.clear();
        b.on_message(&v0, proposal(2), TTL + 1, &mut events);
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
        let v0 = view(0, 3);
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
        c.tick(&v0, 0, &mut ec);
        assert!(
            sends(&ec).is_empty(),
            "deferring to the lower-ranked live replica: {ec:?}"
        );
        c.tick(&v0, RETRY, &mut ec);
        a.propose_expel(NodeId(2));
        let mut ea = Vec::new();
        a.tick(&v0, RETRY, &mut ea);

        // The judge sees c's proposal first and grants it; a's is rejected.
        let mut ej = Vec::new();
        for (_, msg) in sends(&ec) {
            if matches!(msg, ViewMsg::Propose { .. }) {
                judge.on_message(&v0, msg.clone(), 1, &mut ej);
            }
        }
        for (_, msg) in sends(&ea) {
            if matches!(msg, ViewMsg::Propose { .. }) {
                judge.on_message(&v0, msg.clone(), 1, &mut ej);
            }
        }
        // a and c each rejected the other's proposal (sticky self-grant), so
        // deliver the judge's verdicts only: one grant to c, one reject to a.
        let mut committed_view = None;
        for (to, msg) in sends(&ej) {
            let mut ev = Vec::new();
            match to {
                NodeId(2) => c.on_message(&v0, msg.clone(), 2, &mut ev),
                NodeId(0) => a.on_message(&v0, msg.clone(), 2, &mut ev),
                _ => {}
            }
            if let Some(cv) = committed(&ev) {
                committed_view = Some(cv);
            }
        }
        let v1 = committed_view.expect("judge's grant commits one proposal");
        assert_eq!(v1.epoch, Epoch(1));
        assert_eq!(
            v1.live,
            vec![NodeId(1), NodeId(2)],
            "c's expulsion of node 0 won"
        );

        // a's host eventually installs the committed view (dissemination)
        // and a's own conflicting intent—expel node 2—survives to a fresh
        // proposal based on the new epoch.
        a.on_installed(&v1);
        let mut ev = Vec::new();
        a.tick(&v1, TTL + 1, &mut ev);
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
        let v1 = view(1, 2);
        a.on_installed(&v1);
        a.propose_admit(NodeId(2));
        let mut events = Vec::new();
        a.tick(&v1, 0, &mut events);
        events.clear();
        a.on_message(
            &v1,
            ViewMsg::Grant {
                epoch: Epoch(2),
                from: NodeId(1),
            },
            1,
            &mut events,
        );
        let v2 = committed(&events).expect("committed");
        assert_eq!(v2.epoch, Epoch(2));
        assert_eq!(v2.live, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(
            v2.admitted,
            vec![Epoch::ZERO, Epoch::ZERO, Epoch(2)],
            "rejoiner admitted at the new epoch, others keep theirs"
        );
    }

    /// Proposals retransmit to non-granting replicas at the retry cadence
    /// and expire after the TTL.
    #[test]
    fn proposals_retransmit_then_expire() {
        let v0 = view(0, 3);
        let mut a = replica(0);
        let mut events = Vec::new();
        a.propose_expel(NodeId(2));
        a.tick(&v0, 0, &mut events);
        events.clear();

        a.tick(&v0, RETRY / 2, &mut events);
        assert!(events.is_empty(), "below the retry interval: no traffic");
        a.tick(&v0, RETRY, &mut events);
        assert_eq!(sends(&events).len(), 2, "retransmit to both non-granters");
        events.clear();

        // At the TTL the stuck proposal expires and — rank 0 backs off by
        // zero — is immediately rebuilt from the surviving intent.
        a.tick(&v0, TTL, &mut events);
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
        let mut a = ViewReplica::new(NodeId(0), vec![NodeId(0)], RETRY, TTL);
        a.propose_expel(NodeId(1));
        let mut events = Vec::new();
        a.tick(&view(0, 2), 0, &mut events);
        assert_eq!(committed(&events), Some(view(1, 1)), "self-majority");
    }

    /// Non-members neither propose nor vote.
    #[test]
    fn non_members_are_inert() {
        let v0 = view(0, 5);
        let mut d = ViewReplica::new(NodeId(4), vec![NodeId(0), NodeId(1), NodeId(2)], RETRY, TTL);
        assert!(!d.is_member());
        d.propose_expel(NodeId(0));
        let mut events = Vec::new();
        d.tick(&v0, 0, &mut events);
        d.on_message(
            &v0,
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
        assert_eq!(d.next_timer(&v0, 0), None);
    }

    /// An install drops a superseded in-flight proposal and clears
    /// intents the new view satisfies.
    #[test]
    fn an_install_supersedes_proposal_and_intents() {
        let mut a = replica(0);
        a.propose_expel(NodeId(2));
        let mut events = Vec::new();
        a.tick(&view(0, 3), 0, &mut events);
        events.clear();
        // Someone else committed the same expulsion at epoch 1.
        let v1 = view(1, 2);
        a.on_installed(&v1);
        assert!(!a.has_pending_work(), "proposal and intent both cleared");
        assert_eq!(a.next_timer(&v1, 1), None);
        a.tick(&v1, RETRY * 2, &mut events);
        assert!(events.is_empty(), "nothing left to do");
    }

    /// Besides its timers, the tick keeps the books of the intents: it
    /// stamps fresh ones with its own clock, drops those a committed view
    /// already satisfies, and clears the stamp once none is left.
    /// `next_timer` names each of those ticks. A skipped clearing tick shows
    /// later, when the next intent is proposed on the stale stamp.
    #[test]
    fn next_timer_names_the_ticks_that_keep_the_books_of_intents() {
        let v0 = view(0, 3);
        let (mut ticked, mut skipped) = (replica(1), replica(1));
        assert_eq!(ticked.next_timer(&v0, 0), None, "nothing to agree on");
        let mut events = Vec::new();
        for r in [&mut ticked, &mut skipped] {
            r.propose_expel(NodeId(2));
            assert_eq!(r.next_timer(&v0, 5), Some(6), "the next tick stamps it");
            r.tick(&v0, 10, &mut events);
            assert_eq!(r.next_timer(&v0, 10), Some(10 + RETRY), "behind node 0");
            r.retract_expel(NodeId(2));
        }
        assert!(events.is_empty());
        assert_eq!(ticked.next_timer(&v0, 10), Some(11), "a stale stamp");
        ticked.tick(&v0, 11, &mut events);
        assert_eq!(ticked.next_timer(&v0, 11), None, "nothing left");

        for r in [&mut ticked, &mut skipped] {
            r.propose_expel(NodeId(2));
        }
        ticked.tick(&v0, 150, &mut events);
        assert!(events.is_empty(), "deferred for a retry interval from 150");
        skipped.tick(&v0, 150, &mut events);
        assert_eq!(
            sends(&events).len(),
            2,
            "proposed at once, deferred from 10"
        );

        // An intent the committed view already satisfies, next to one it
        // does not: the next tick drops the first.
        let mut r = replica(1);
        r.propose_expel(NodeId(2));
        r.tick(&v0, 10, &mut events);
        r.propose_admit(NodeId(0));
        assert_eq!(r.next_timer(&v0, 20), Some(21), "node 0 is live already");
        r.tick(&v0, 21, &mut events);
        assert_eq!(r.next_timer(&v0, 21), Some(10 + RETRY));

        // A grant to another proposer does not hold back the stamp.
        let mut r = replica(1);
        r.on_message(
            &v0,
            ViewMsg::Propose {
                epoch: Epoch(1),
                base: Epoch::ZERO,
                live: vec![NodeId(0), NodeId(1)],
                admitted: vec![Epoch::ZERO, Epoch::ZERO],
                from: NodeId(0),
            },
            0,
            &mut events,
        );
        r.propose_expel(NodeId(2));
        assert_eq!(r.next_timer(&v0, 5), Some(6), "granted until {TTL}");
    }
}
