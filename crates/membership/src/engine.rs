//! Per-node membership state machine.

use std::collections::{HashMap, HashSet};

use zeus_proto::{Epoch, MembershipMsg, NodeId};

use crate::lease::LeaseTable;
use crate::view::View;

/// Outputs of the membership engine, applied by the hosting runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum MembershipEvent {
    /// Broadcast this membership message to all live peers.
    Broadcast(MembershipMsg),
    /// Send this membership message to one specific node (view refresh for a
    /// peer whose heartbeat revealed a stale epoch).
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: MembershipMsg,
    },
    /// A new view has been installed locally. The hosting node must notify
    /// the ownership and commit protocols (epoch bump, replay, recovery).
    /// `rejoined` lists the nodes entering this view that were absent from
    /// the previous one; a host that finds *itself* in the list was expelled
    /// at some point and must discard its (arbitrarily stale) replica state
    /// before serving again.
    ViewInstalled {
        /// The newly installed view.
        view: View,
        /// Nodes re-admitted by this view change.
        rejoined: Vec<NodeId>,
    },
    /// All live nodes (including this one) have finished replaying pending
    /// reliable commits for the current epoch; the ownership protocol may
    /// resume accepting requests (§5.1).
    RecoveryComplete(Epoch),
    /// The leases of these live peers have been expired past the grace
    /// period (sorted). The engine no longer expels anyone itself: the host
    /// forwards the suspicion to its view replica (`zeus-view`), which
    /// proposes the expulsion — nothing changes until a quorum of the view
    /// service commits it. Re-emitted every tick while the leases stay
    /// expired, so view-service intents survive proposal races and drops.
    SuspectsExpired(Vec<NodeId>),
    /// A heartbeat arrived from a non-live node that is not
    /// administratively banned: the failure detector was wrong, or the node
    /// restarted. The host forwards the re-admission request to its view
    /// replica; the node rejoins when a quorum commits the admission.
    RejoinRequested(NodeId),
}

/// Per-node membership state: leases, heartbeats, recovery barriers and
/// view installation. Membership *decisions* live elsewhere: this engine
/// detects (expired leases, heartbeats from expelled nodes) and reports via
/// [`MembershipEvent::SuspectsExpired`] / [`MembershipEvent::RejoinRequested`];
/// the replicated view service (`zeus-view`) agrees on the next view by
/// majority quorum, and the host feeds the committed result back through
/// [`MembershipEngine::install_committed`], which disseminates it as a
/// `ViewChange` broadcast. Nodes only ever adopt views with a strictly
/// larger epoch.
#[derive(Debug)]
pub struct MembershipEngine {
    local: NodeId,
    view: View,
    leases: LeaseTable,
    heartbeat_interval: u64,
    grace: u64,
    last_heartbeat_at: Option<u64>,
    /// Nodes that announced recovery completion for the current epoch.
    recovered: HashSet<NodeId>,
    /// Whether recovery for the current epoch has already been reported.
    recovery_announced: bool,
    /// Whether the ownership protocol is currently allowed to make progress.
    ownership_enabled: bool,
    /// Nodes removed administratively (scale-in / crash injection). Unlike a
    /// lease expiry these must NOT be re-admitted when a heartbeat arrives:
    /// the operator said they are gone.
    removed_by_admin: HashSet<NodeId>,
    /// Whether a heartbeat from a falsely-suspected (lease-expelled) node
    /// re-admits it through a view change. Always true in production; the
    /// chaos harness disables it to re-create the pre-fix expulsion wedge
    /// and verify the explorer catches it.
    readmit_suspects: bool,
    /// Epoch at which each live node last (re)entered the view
    /// (`Epoch::ZERO` for initial members). Authoritatively carried by
    /// every ViewChange: a receiver whose previous epoch predates a node's
    /// admission missed that node's re-admission and must treat it as
    /// having wiped state — even across dropped or reordered view changes.
    admitted_at: HashMap<NodeId, Epoch>,
    /// Whether the last tick found this node isolated (drives the
    /// unfencing lease renewal above the manager's expiry check).
    was_isolated: bool,
}

impl MembershipEngine {
    /// Creates the engine for `local` in a cluster of `n` nodes.
    ///
    /// `lease_ticks` is the lease duration; heartbeats are sent every
    /// `lease_ticks / 4`; views are installed after the lease plus an equal
    /// grace period has elapsed without a heartbeat.
    pub fn new(local: NodeId, n: usize, lease_ticks: u64) -> Self {
        let view = View::initial(n);
        let peers = view.live.iter().copied().filter(|&p| p != local);
        MembershipEngine {
            local,
            leases: LeaseTable::new(lease_ticks, peers),
            view,
            heartbeat_interval: (lease_ticks / 4).max(1),
            grace: lease_ticks,
            last_heartbeat_at: None,
            recovered: HashSet::new(),
            recovery_announced: false,
            ownership_enabled: true,
            removed_by_admin: HashSet::new(),
            readmit_suspects: true,
            admitted_at: HashMap::new(),
            was_isolated: false,
        }
    }

    /// Enables / disables heartbeat re-admission of falsely-suspected nodes
    /// (fault-injection knob for the chaos harness; leave enabled otherwise).
    pub fn set_readmit_suspects(&mut self, readmit: bool) {
        self.readmit_suspects = readmit;
    }

    /// Whether this node is currently isolated from every peer of its view:
    /// it has peers but none of their leases is fresh. An isolated node must
    /// fence itself — stop serving transactions — because the rest of the
    /// cluster may expel it and move on, making anything it serves stale
    /// (the node-side half of the paper's lease contract, §3.1). The lease
    /// (without the manager's extra grace period) is used as the threshold,
    /// so a node fences itself a full lease period *before* the manager can
    /// expel it.
    pub fn is_isolated(&self, now: u64) -> bool {
        now >= self.isolation_deadline()
    }

    /// The tick from which [`MembershipEngine::is_isolated`] holds unless a
    /// heartbeat renews a lease first: the latest lease expiry among the
    /// live peers. `0` once the installed view excludes this node (operator
    /// scale-in: stop serving immediately), `u64::MAX` for a node with no
    /// peers, which is never isolated. A runtime publishes it so threads
    /// other than the node's can honour the lease against their own clock.
    pub fn isolation_deadline(&self) -> u64 {
        if !self.view.is_live(self.local) {
            return 0;
        }
        self.view
            .live
            .iter()
            .filter(|&&p| p != self.local)
            .map(|&peer| self.leases.expires_at(peer))
            .max()
            .unwrap_or(u64::MAX)
    }

    /// The node this engine belongs to.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// The currently installed view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.view.epoch
    }

    /// Whether the ownership protocol may accept new requests (it is paused
    /// between a view change and the completion of commit recovery, §5.1).
    pub fn ownership_enabled(&self) -> bool {
        self.ownership_enabled
    }

    /// Whether `node` is live in the current view.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.view.is_live(node)
    }

    /// Called by the hosting node when *its own* commit recovery for the
    /// current epoch has finished. Returns events to broadcast/apply.
    pub fn local_recovery_done(&mut self) -> Vec<MembershipEvent> {
        self.recovered.insert(self.local);
        let mut events = vec![MembershipEvent::Broadcast(MembershipMsg::RecoveryDone {
            from: self.local,
            epoch: self.view.epoch,
            seen: self.recovered_sorted(),
        })];
        events.extend(self.maybe_complete_recovery());
        events
    }

    /// The completions recorded for the current epoch, sorted (deterministic
    /// message contents).
    fn recovered_sorted(&self) -> Vec<NodeId> {
        let mut seen: Vec<NodeId> = self.recovered.iter().copied().collect();
        seen.sort_unstable();
        seen
    }

    /// Periodic driver: renews our own liveness by broadcasting heartbeats
    /// and, if we are the manager, checks lease expirations.
    pub fn tick(&mut self, now: u64) -> Vec<MembershipEvent> {
        let mut events = Vec::new();
        let due = match self.last_heartbeat_at {
            None => true,
            Some(t) => now.saturating_sub(t) >= self.heartbeat_interval,
        };
        if due {
            self.last_heartbeat_at = Some(now);
            events.push(MembershipEvent::Broadcast(MembershipMsg::Heartbeat {
                from: self.local,
                epoch: self.view.epoch,
            }));
            // While the epoch's recovery barrier is still open, keep
            // re-announcing our own completion: a peer may have missed the
            // first announcement if it arrived before the peer installed the
            // view (or was lost), and without it the peer would never
            // re-enable the ownership protocol. The announcement carries
            // which completions we have seen, so exactly the peers we are
            // missing answer back.
            if !self.ownership_enabled && self.recovered.contains(&self.local) {
                events.push(MembershipEvent::Broadcast(MembershipMsg::RecoveryDone {
                    from: self.local,
                    epoch: self.view.epoch,
                    seen: self.recovered_sorted(),
                }));
            }
        }
        // An isolated node must not suspect anyone: every peer's lease
        // looks expired from inside a partition, and an isolated minority
        // proposing the expulsion of the healthy majority would invert
        // authority when the partition heals. It fences instead (see
        // `is_isolated`) and the cluster waits the partition out. Coming
        // *out* of isolation, the lease table reflects the partition, not
        // the peers: renew everyone and give them a full lease to check in
        // before judging them again. (Renewing cannot make a node isolated,
        // so one look at `is_isolated` decides both.)
        if self.is_isolated(now) {
            self.was_isolated = true;
            return events;
        }
        if self.was_isolated {
            self.was_isolated = false;
            for &peer in &self.view.live {
                if peer != self.local {
                    self.leases.renew(peer, now);
                }
            }
        }
        let dead: Vec<NodeId> = self
            .leases
            .expired(now, self.grace)
            .into_iter()
            .filter(|n| self.view.is_live(*n) && *n != self.local)
            .collect();
        if !dead.is_empty() {
            events.push(MembershipEvent::SuspectsExpired(dead));
        }
        events
    }

    /// The earliest tick after `now` at which [`MembershipEngine::tick`] does
    /// something it did not do at `now`: the next heartbeat, the tick from
    /// which this node counts as isolated, or a live peer's lease running
    /// out past the grace period. Deadlines at or before `now` have had
    /// their effect; heartbeats never stop, so there is always a next one.
    pub fn next_timer(&self, now: u64) -> u64 {
        let heartbeat = self
            .last_heartbeat_at
            .map_or(now, |at| at.saturating_add(self.heartbeat_interval));
        let suspicions = self
            .view
            .live
            .iter()
            .filter(|&&peer| peer != self.local)
            .map(|&peer| self.leases.expires_at(peer).saturating_add(self.grace));
        suspicions
            .chain([self.isolation_deadline()])
            .filter(|&at| at > now)
            .fold(heartbeat, u64::min)
    }

    /// Admission epochs parallel to `view.live`.
    fn admitted_for(&self, view: &View) -> Vec<Epoch> {
        view.live
            .iter()
            .map(|n| self.admitted_at.get(n).copied().unwrap_or(Epoch::ZERO))
            .collect()
    }

    /// Admission epochs parallel to the current view's live set — what the
    /// view service needs to seed its committed state after an install.
    pub fn admissions(&self) -> Vec<Epoch> {
        self.admitted_for(&self.view)
    }

    /// Handles an incoming membership message.
    pub fn on_message(&mut self, msg: MembershipMsg, now: u64) -> Vec<MembershipEvent> {
        match msg {
            MembershipMsg::Heartbeat { from, epoch } => {
                self.leases.renew(from, now);
                // View refresh ("anti-entropy"): a live peer heartbeating
                // with an older epoch missed at least one ViewChange (view
                // broadcasts are fire-once and the network may drop them).
                // Without a refresh it would drop all current-epoch traffic
                // forever. The admission epochs carried by the refresh tell
                // it everything it missed — including, possibly, its own
                // re-admission and the state reset that orders.
                if epoch < self.view.epoch && self.view.is_live(from) {
                    return vec![MembershipEvent::Send {
                        to: from,
                        msg: MembershipMsg::ViewChange {
                            epoch: self.view.epoch,
                            live: self.view.live.clone(),
                            admitted: self.admitted_for(&self.view),
                        },
                    }];
                }
                // The reverse direction: the *sender* has a newer view than
                // we do — pull it. Without this, a view installed while its
                // proposer was cut off (or whose broadcast was dropped)
                // would never reach us: the proposer has no reason to
                // re-broadcast, and we would keep dropping all of its
                // current-epoch traffic.
                if epoch > self.view.epoch {
                    return vec![MembershipEvent::Send {
                        to: from,
                        msg: MembershipMsg::ViewPull { from: self.local },
                    }];
                }
                // A heartbeat from a node outside the view means the failure
                // detector was wrong: the node is alive but its lease lapsed
                // (e.g. its heartbeats sat unprocessed in an overloaded
                // peer's inbox). Without re-admission the cluster wedges:
                // the expelled node keeps (re)issuing requests with its
                // stale epoch and every peer silently drops them. Ask the
                // view service to re-admit it; the recovery barrier then
                // resynchronises its epoch and protocol state. Nodes removed
                // *administratively* stay out.
                if !self.view.is_live(from)
                    && !self.removed_by_admin.contains(&from)
                    && self.readmit_suspects
                {
                    return vec![MembershipEvent::RejoinRequested(from)];
                }
                Vec::new()
            }
            MembershipMsg::ViewChange {
                epoch,
                live,
                admitted,
            } => {
                if epoch > self.view.epoch {
                    // Pair admissions with nodes *before* View::new sorts
                    // and dedups the live list; missing entries (malformed
                    // or trimmed messages) default to ZERO, which at worst
                    // skips a reset the next refresh re-asserts.
                    let pairs: Vec<(NodeId, Epoch)> = live
                        .iter()
                        .copied()
                        .zip(admitted.into_iter().chain(std::iter::repeat(Epoch::ZERO)))
                        .collect();
                    self.install_view(View::new(epoch, live), pairs, now)
                } else {
                    Vec::new()
                }
            }
            MembershipMsg::ViewPull { from } => {
                vec![MembershipEvent::Send {
                    to: from,
                    msg: MembershipMsg::ViewChange {
                        epoch: self.view.epoch,
                        live: self.view.live.clone(),
                        admitted: self.admitted_for(&self.view),
                    },
                }]
            }
            MembershipMsg::RecoveryDone { from, epoch, seen } => {
                if epoch == self.view.epoch {
                    self.recovered.insert(from);
                    let mut events = self.maybe_complete_recovery();
                    // The sender has not recorded our completion (we are
                    // missing from its `seen` set): answer it directly. This
                    // makes the barrier survive arbitrary message loss — a
                    // stuck node keeps re-announcing from its heartbeat tick
                    // and exactly the peers it is missing reply — while a
                    // completed-to-completed exchange terminates: once the
                    // sender records us, its announcements list us and we
                    // stay silent.
                    if self.recovered.contains(&self.local) && !seen.contains(&self.local) {
                        events.push(MembershipEvent::Send {
                            to: from,
                            msg: MembershipMsg::RecoveryDone {
                                from: self.local,
                                epoch: self.view.epoch,
                                seen: self.recovered_sorted(),
                            },
                        });
                    }
                    events
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Administratively bans `node` (operator scale-in / crash injection):
    /// heartbeats from it no longer request re-admission. Returns whether
    /// the node is still live in the current view — i.e. whether the caller
    /// must also route an expulsion proposal through the view service.
    pub fn admin_remove(&mut self, node: NodeId) -> bool {
        self.removed_by_admin.insert(node);
        self.view.is_live(node)
    }

    /// Lifts an administrative ban (scale-out / restart). Returns whether
    /// the node is currently absent from the view — i.e. whether the caller
    /// must route an admission proposal through the view service (its later
    /// heartbeats would also re-admit it, this is just faster).
    pub fn admin_restore(&mut self, node: NodeId) -> bool {
        self.removed_by_admin.remove(&node);
        !self.view.is_live(node)
    }

    /// Installs a view committed by the view service and disseminates it:
    /// the `ViewChange` broadcast (which must precede the local install —
    /// processing `ViewInstalled` triggers recovery traffic tagged with the
    /// new epoch, which peers would ignore if they had not yet learnt of
    /// the view) is how *every* node, view replica or not, learns new
    /// views. Commit echoes — epochs at or below the installed one — are
    /// ignored.
    pub fn install_committed(
        &mut self,
        epoch: Epoch,
        live: Vec<NodeId>,
        admitted: Vec<Epoch>,
        now: u64,
    ) -> Vec<MembershipEvent> {
        if epoch <= self.view.epoch {
            return Vec::new();
        }
        let mut events = vec![MembershipEvent::Broadcast(MembershipMsg::ViewChange {
            epoch,
            live: live.clone(),
            admitted: admitted.clone(),
        })];
        let pairs: Vec<(NodeId, Epoch)> = live.iter().copied().zip(admitted).collect();
        events.extend(self.install_view(View::new(epoch, live), pairs, now));
        events
    }

    fn install_view(
        &mut self,
        view: View,
        admitted: Vec<(NodeId, Epoch)>,
        now: u64,
    ) -> Vec<MembershipEvent> {
        debug_assert!(view.epoch > self.view.epoch);
        // Nodes admitted after our previous epoch re-entered with wiped
        // state somewhere between the views we saw: relative to *us* they
        // are rejoined, regardless of how many view changes we missed.
        let previous_epoch = self.view.epoch;
        let mut rejoined: Vec<NodeId> = admitted
            .iter()
            .filter(|(_, at)| *at > previous_epoch)
            .map(|(n, _)| *n)
            .collect();
        rejoined.sort_unstable();
        for dead in self
            .view
            .live
            .iter()
            .filter(|n| !view.is_live(**n))
            .copied()
            .collect::<Vec<_>>()
        {
            self.leases.remove(dead);
            self.admitted_at.remove(&dead);
        }
        // Track joiners with a fresh lease. Followers also run this for
        // joiners the manager admitted: without a tracked lease their later
        // heartbeats would be ignored, breaking both isolation detection and
        // failover of the manager role.
        for &joined in view.live.iter().filter(|&&n| !self.view.is_live(n)) {
            if joined != self.local {
                self.leases.insert(joined, now);
            }
        }
        // Adopt the authoritative admission epochs.
        for (n, at) in admitted {
            self.admitted_at.insert(n, at);
        }
        self.view = view.clone();
        self.recovered.clear();
        self.recovery_announced = false;
        self.ownership_enabled = false;
        vec![MembershipEvent::ViewInstalled { view, rejoined }]
    }

    fn maybe_complete_recovery(&mut self) -> Vec<MembershipEvent> {
        if self.recovery_announced {
            return Vec::new();
        }
        let all = self.view.live.iter().all(|n| self.recovered.contains(n));
        if all && !self.view.is_empty() {
            self.recovery_announced = true;
            self.ownership_enabled = true;
            vec![MembershipEvent::RecoveryComplete(self.view.epoch)]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heartbeat_from(events: &[MembershipEvent]) -> bool {
        events.iter().any(|e| {
            matches!(
                e,
                MembershipEvent::Broadcast(MembershipMsg::Heartbeat { .. })
            )
        })
    }

    fn suspects(events: &[MembershipEvent]) -> Option<Vec<NodeId>> {
        events.iter().find_map(|e| match e {
            MembershipEvent::SuspectsExpired(dead) => Some(dead.clone()),
            _ => None,
        })
    }

    /// Emulates the view service committing the next view with the given
    /// live set: retained nodes keep their admission epoch, new nodes are
    /// admitted at the committed epoch — exactly what `zeus-view` proposes.
    fn commit_view(m: &mut MembershipEngine, live: &[NodeId], now: u64) -> Vec<MembershipEvent> {
        let epoch = m.epoch().next();
        let current: Vec<(NodeId, Epoch)> =
            m.view().live.iter().copied().zip(m.admissions()).collect();
        let admitted = live
            .iter()
            .map(|n| {
                current
                    .iter()
                    .find(|(c, _)| c == n)
                    .map(|(_, e)| *e)
                    .unwrap_or(epoch)
            })
            .collect();
        m.install_committed(epoch, live.to_vec(), admitted, now)
    }

    #[test]
    fn heartbeats_are_emitted_periodically() {
        let mut m = MembershipEngine::new(NodeId(1), 3, 100);
        assert!(heartbeat_from(&m.tick(0)));
        assert!(!heartbeat_from(&m.tick(10)));
        assert!(heartbeat_from(&m.tick(25)));
    }

    #[test]
    fn expired_leases_raise_suspicion_without_installing_a_view() {
        let mut m = MembershipEngine::new(NodeId(0), 3, 100);
        // Node 2 heartbeats, node 1 stays silent.
        for t in (0..400).step_by(20) {
            m.on_message(
                MembershipMsg::Heartbeat {
                    from: NodeId(2),
                    epoch: Epoch::ZERO,
                },
                t,
            );
        }
        let events = m.tick(400);
        assert_eq!(
            suspects(&events),
            Some(vec![NodeId(1)]),
            "expired lease is reported, not acted on"
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, MembershipEvent::ViewInstalled { .. })),
            "no node installs a view on its own authority"
        );
        assert!(
            m.is_live(NodeId(1)),
            "view untouched until a quorum commits"
        );
        // The suspicion is re-asserted while the lease stays expired, so
        // the view service's intent survives dropped proposals.
        assert_eq!(suspects(&m.tick(430)), Some(vec![NodeId(1)]));

        // The view service commits the expulsion: now the view moves.
        let events = commit_view(&mut m, &[NodeId(0), NodeId(2)], 430);
        let installed = events
            .iter()
            .find_map(|e| match e {
                MembershipEvent::ViewInstalled { view, .. } => Some(view.clone()),
                _ => None,
            })
            .expect("view installed");
        assert_eq!(installed.epoch, Epoch(1));
        assert!(!installed.is_live(NodeId(1)));
        assert!(installed.is_live(NodeId(2)));
        assert!(!m.ownership_enabled(), "ownership paused until recovery");
        assert!(
            events.iter().any(|e| matches!(
                e,
                MembershipEvent::Broadcast(MembershipMsg::ViewChange { .. })
            )),
            "the committed view must be broadcast"
        );
    }

    #[test]
    fn isolated_node_suspects_nobody() {
        // From inside a partition every peer looks dead; the node fences
        // instead of flooding the view service with expulsion intents.
        let mut m = MembershipEngine::new(NodeId(1), 3, 100);
        let events = m.tick(10_000);
        assert!(m.is_isolated(10_000));
        assert_eq!(suspects(&events), None);
        assert!(!events
            .iter()
            .any(|e| matches!(e, MembershipEvent::ViewInstalled { .. })));
    }

    #[test]
    fn the_tick_that_ends_an_isolation_renews_every_peer_and_suspects_nobody() {
        let mut m = MembershipEngine::new(NodeId(0), 3, 100);
        assert_eq!(suspects(&m.tick(150)), None);
        assert!(m.is_isolated(150), "no heartbeat for a whole lease");
        // Node 1 gets through; node 2 last renewed at 0, long past its
        // lease and grace, but the table reflects the partition, not node 2.
        m.on_message(
            MembershipMsg::Heartbeat {
                from: NodeId(1),
                epoch: Epoch::ZERO,
            },
            450,
        );
        let events = m.tick(450);
        assert_eq!(suspects(&events), None, "no judgement on leaving isolation");
        assert_eq!(m.leases.expires_at(NodeId(2)), 550, "node 2 renewed");
        assert_eq!(m.leases.expires_at(NodeId(1)), 550);
        // Given its full lease and grace, a still silent node 2 is suspected.
        m.on_message(
            MembershipMsg::Heartbeat {
                from: NodeId(1),
                epoch: Epoch::ZERO,
            },
            600,
        );
        assert_eq!(suspects(&m.tick(649)), None);
        assert_eq!(suspects(&m.tick(650)), Some(vec![NodeId(2)]));
    }

    #[test]
    fn follower_adopts_view_change_with_higher_epoch_only() {
        let mut m = MembershipEngine::new(NodeId(2), 3, 100);
        let events = m.on_message(
            MembershipMsg::ViewChange {
                epoch: Epoch(2),
                live: vec![NodeId(0), NodeId(2)],
                admitted: vec![Epoch(0), Epoch(0)],
            },
            50,
        );
        assert!(matches!(events[0], MembershipEvent::ViewInstalled { .. }));
        assert_eq!(m.epoch(), Epoch(2));
        // A stale (equal-epoch) view is ignored.
        let events = m.on_message(
            MembershipMsg::ViewChange {
                epoch: Epoch(2),
                live: vec![NodeId(2)],
                admitted: vec![Epoch(0)],
            },
            60,
        );
        assert!(events.is_empty());
        assert_eq!(m.view().len(), 2);
    }

    #[test]
    fn recovery_barrier_requires_all_live_nodes() {
        let mut m = MembershipEngine::new(NodeId(0), 3, 100);
        let events = commit_view(&mut m, &[NodeId(0), NodeId(2)], 0);
        assert!(events
            .iter()
            .any(|e| matches!(e, MembershipEvent::ViewInstalled { .. })));
        assert!(!m.ownership_enabled());

        let events = m.local_recovery_done();
        assert!(events.iter().any(|e| matches!(
            e,
            MembershipEvent::Broadcast(MembershipMsg::RecoveryDone { .. })
        )));
        assert!(!m.ownership_enabled(), "node 2 not recovered yet");

        let events = m.on_message(
            MembershipMsg::RecoveryDone {
                from: NodeId(2),
                epoch: m.epoch(),
                seen: vec![NodeId(0), NodeId(2)],
            },
            10,
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, MembershipEvent::RecoveryComplete(_))));
        assert!(m.ownership_enabled());
    }

    #[test]
    fn stale_recovery_done_is_ignored() {
        let mut m = MembershipEngine::new(NodeId(0), 2, 100);
        commit_view(&mut m, &[NodeId(0)], 0);
        let events = m.on_message(
            MembershipMsg::RecoveryDone {
                from: NodeId(1),
                epoch: Epoch::ZERO,
                seen: vec![NodeId(1)],
            },
            10,
        );
        assert!(events.is_empty());
    }

    #[test]
    fn falsely_suspected_node_requests_rejoin_on_heartbeat() {
        let mut m = MembershipEngine::new(NodeId(0), 3, 100);
        // Node 1 misses its lease (e.g. its heartbeats sat unprocessed in
        // an overloaded peer's inbox) and the view service expels it...
        commit_view(&mut m, &[NodeId(0), NodeId(2)], 400);
        assert!(!m.is_live(NodeId(1)));
        let expelled_epoch = m.epoch();
        // ...but it is actually alive: its next heartbeat must raise a
        // re-admission request, otherwise the cluster wedges (the expelled
        // node keeps issuing requests with a stale epoch that everyone
        // silently drops).
        let events = m.on_message(
            MembershipMsg::Heartbeat {
                from: NodeId(1),
                epoch: Epoch::ZERO,
            },
            450,
        );
        assert_eq!(
            events,
            vec![MembershipEvent::RejoinRequested(NodeId(1))],
            "heartbeat from an expelled node asks the view service"
        );
        assert!(!m.is_live(NodeId(1)), "nothing rejoins until a commit");
        // The view service commits the re-admission.
        let events = commit_view(&mut m, &[NodeId(0), NodeId(1), NodeId(2)], 460);
        assert!(m.is_live(NodeId(1)));
        assert!(m.epoch() > expelled_epoch);
        assert!(
            events.iter().any(|e| matches!(
                e,
                MembershipEvent::Broadcast(MembershipMsg::ViewChange { .. })
            )),
            "the re-admitting view change must be broadcast"
        );
    }

    #[test]
    fn admin_removed_node_stays_out_despite_heartbeats() {
        let mut m = MembershipEngine::new(NodeId(0), 3, 100);
        assert!(m.admin_remove(NodeId(1)), "live node needs a quorum expel");
        commit_view(&mut m, &[NodeId(0), NodeId(2)], 0);
        let epoch = m.epoch();
        let events = m.on_message(
            MembershipMsg::Heartbeat {
                from: NodeId(1),
                epoch: Epoch::ZERO,
            },
            50,
        );
        assert!(
            events.is_empty(),
            "scale-in must not be undone by heartbeats"
        );
        assert!(!m.is_live(NodeId(1)));
        assert_eq!(m.epoch(), epoch);
        // An explicit restore lifts the ban; the quorum admit follows.
        assert!(
            m.admin_restore(NodeId(1)),
            "absent node needs a quorum admit"
        );
        commit_view(&mut m, &[NodeId(0), NodeId(1), NodeId(2)], 100);
        assert!(m.is_live(NodeId(1)));
    }

    #[test]
    fn admin_remove_of_absent_node_needs_no_expulsion() {
        let mut m = MembershipEngine::new(NodeId(0), 2, 100);
        commit_view(&mut m, &[NodeId(0)], 0);
        assert!(!m.admin_remove(NodeId(1)), "already out: ban only");
        assert!(!m.admin_restore(NodeId(0)), "already live: unban only");
    }

    #[test]
    fn readmission_can_be_disabled_for_fault_injection() {
        let mut m = MembershipEngine::new(NodeId(0), 3, 100);
        m.set_readmit_suspects(false);
        commit_view(&mut m, &[NodeId(0), NodeId(2)], 400);
        assert!(!m.is_live(NodeId(1)), "node 1 expelled by lease expiry");
        let events = m.on_message(
            MembershipMsg::Heartbeat {
                from: NodeId(1),
                epoch: Epoch::ZERO,
            },
            450,
        );
        assert!(events.is_empty(), "re-admission disabled");
        assert!(!m.is_live(NodeId(1)));
    }

    #[test]
    fn rejoin_view_change_names_the_rejoined_node() {
        let mut m = MembershipEngine::new(NodeId(0), 3, 100);
        commit_view(&mut m, &[NodeId(0), NodeId(2)], 400);
        assert!(!m.is_live(NodeId(1)));
        let events = commit_view(&mut m, &[NodeId(0), NodeId(1), NodeId(2)], 450);
        let broadcast_admitted = events.iter().find_map(|e| match e {
            MembershipEvent::Broadcast(MembershipMsg::ViewChange { live, admitted, .. }) => {
                Some((live.clone(), admitted.clone()))
            }
            _ => None,
        });
        let (live, admitted) = broadcast_admitted.expect("view change broadcast");
        let idx = live.iter().position(|&n| n == NodeId(1)).unwrap();
        assert!(
            admitted[idx] > Epoch::ZERO,
            "the broadcast must carry node 1's admission epoch"
        );
        let installed_rejoined = events.iter().find_map(|e| match e {
            MembershipEvent::ViewInstalled { rejoined, .. } => Some(rejoined.clone()),
            _ => None,
        });
        assert_eq!(installed_rejoined, Some(vec![NodeId(1)]));
    }

    #[test]
    fn follower_learns_it_rejoined_from_the_view_change() {
        // The expelled node itself never saw a view without it; the
        // `rejoined` field in the manager's ViewChange is how it learns it
        // must reset its replica state.
        let mut m = MembershipEngine::new(NodeId(1), 3, 100);
        let events = m.on_message(
            MembershipMsg::ViewChange {
                epoch: Epoch(2),
                live: vec![NodeId(0), NodeId(1), NodeId(2)],
                admitted: vec![Epoch(0), Epoch(2), Epoch(0)],
            },
            500,
        );
        let installed_rejoined = events.iter().find_map(|e| match e {
            MembershipEvent::ViewInstalled { rejoined, .. } => Some(rejoined.clone()),
            _ => None,
        });
        assert_eq!(installed_rejoined, Some(vec![NodeId(1)]));
    }

    #[test]
    fn isolated_node_detects_silence_before_expulsion_threshold() {
        let mut m = MembershipEngine::new(NodeId(2), 3, 100);
        // Fresh leases at time 0: not isolated.
        assert!(!m.is_isolated(50));
        assert_eq!(m.isolation_deadline(), 100);
        // Silence past one lease (but before lease + grace): isolated.
        assert!(m.is_isolated(100));
        // One peer heartbeating is enough to stay unfenced.
        m.on_message(
            MembershipMsg::Heartbeat {
                from: NodeId(0),
                epoch: Epoch::ZERO,
            },
            150,
        );
        assert!(!m.is_isolated(200));
        assert_eq!(m.isolation_deadline(), 250, "the freshest lease decides");
        assert!(m.is_isolated(250));
    }

    #[test]
    fn single_node_view_is_never_isolated() {
        let mut m = MembershipEngine::new(NodeId(0), 2, 100);
        commit_view(&mut m, &[NodeId(0)], 0);
        assert!(!m.is_isolated(1_000_000));
        assert_eq!(m.isolation_deadline(), u64::MAX);
    }

    #[test]
    fn follower_tracks_leases_of_nodes_added_by_the_manager() {
        // A follower that later becomes the manager must have lease entries
        // for nodes the old manager admitted, and must not instantly expel
        // them.
        let mut m = MembershipEngine::new(NodeId(1), 2, 100);
        m.on_message(
            MembershipMsg::ViewChange {
                epoch: Epoch(1),
                live: vec![NodeId(0), NodeId(1), NodeId(5)],
                admitted: vec![Epoch(0), Epoch(0), Epoch(1)],
            },
            1_000,
        );
        assert!(m.is_live(NodeId(5)));
        // Node 5's heartbeats now renew a tracked lease.
        m.on_message(
            MembershipMsg::Heartbeat {
                from: NodeId(5),
                epoch: Epoch(1),
            },
            1_050,
        );
        assert!(!m.is_isolated(1_100));
    }

    #[test]
    fn stale_heartbeat_triggers_view_refresh() {
        let mut m = MembershipEngine::new(NodeId(0), 3, 100);
        // Move the epoch forward while keeping everyone live: expel node 2
        // at epoch 1, re-admit it at epoch 2.
        commit_view(&mut m, &[NodeId(0), NodeId(1)], 0);
        commit_view(&mut m, &[NodeId(0), NodeId(1), NodeId(2)], 10);
        assert_eq!(m.epoch(), Epoch(2));
        // Node 1 heartbeats with epoch 0: it missed both view changes and
        // must be refreshed (it was never expelled, so no rejoin order).
        let events = m.on_message(
            MembershipMsg::Heartbeat {
                from: NodeId(1),
                epoch: Epoch::ZERO,
            },
            20,
        );
        match events.as_slice() {
            [MembershipEvent::Send {
                to,
                msg:
                    MembershipMsg::ViewChange {
                        epoch,
                        live,
                        admitted,
                    },
            }] => {
                assert_eq!(*to, NodeId(1));
                assert_eq!(*epoch, Epoch(2));
                let idx = live.iter().position(|&n| n == NodeId(1)).unwrap();
                assert_eq!(admitted[idx], Epoch::ZERO, "node 1 was never expelled");
            }
            other => panic!("expected a targeted view refresh, got {other:?}"),
        }
        // Node 2 *was* re-admitted at epoch 2: a stale heartbeat from it
        // must carry the rejoin order so it resets its replica state.
        let events = m.on_message(
            MembershipMsg::Heartbeat {
                from: NodeId(2),
                epoch: Epoch::ZERO,
            },
            30,
        );
        match events.as_slice() {
            [MembershipEvent::Send {
                msg: MembershipMsg::ViewChange { live, admitted, .. },
                ..
            }] => {
                let idx = live.iter().position(|&n| n == NodeId(2)).unwrap();
                assert_eq!(
                    admitted[idx],
                    Epoch(2),
                    "the refresh must carry node 2's admission epoch so it resets"
                );
            }
            other => panic!("expected an admission-carrying refresh, got {other:?}"),
        }
        // An up-to-date heartbeat triggers nothing.
        let events = m.on_message(
            MembershipMsg::Heartbeat {
                from: NodeId(1),
                epoch: Epoch(2),
            },
            40,
        );
        assert!(events.is_empty());
    }

    #[test]
    fn heartbeats_keep_all_nodes_live_forever() {
        let mut m = MembershipEngine::new(NodeId(0), 3, 100);
        for t in (0..10_000u64).step_by(25) {
            for peer in [NodeId(1), NodeId(2)] {
                m.on_message(
                    MembershipMsg::Heartbeat {
                        from: peer,
                        epoch: Epoch::ZERO,
                    },
                    t,
                );
            }
            let events = m.tick(t);
            assert!(!events
                .iter()
                .any(|e| matches!(e, MembershipEvent::ViewInstalled { .. })));
            assert_eq!(suspects(&events), None, "no suspicion at t={t}");
        }
        assert_eq!(m.epoch(), Epoch::ZERO);
    }
}
