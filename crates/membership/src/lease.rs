//! Per-node lease tracking driven by heartbeats.

use zeus_proto::NodeId;

/// Tracks, for every peer, when its lease was last renewed (by a heartbeat)
/// and reports which peers' leases have expired.
///
/// A peer whose lease expired is *suspected*; the membership engine installs
/// a new view only after the suspicion has persisted for a full additional
/// lease period, modelling the paper's "membership update ... performed
/// across the deployment only after all node leases have expired" (§3.1).
#[derive(Debug, Clone)]
pub struct LeaseTable {
    lease_ticks: u64,
    /// Last renewal per peer, indexed by [`NodeId::index`]; `None` for a
    /// peer that is not tracked.
    last_renewal: Vec<Option<u64>>,
}

impl LeaseTable {
    /// Creates a table with the given lease duration (in ticks) covering the
    /// given peers, all leases freshly renewed at time 0.
    pub fn new(lease_ticks: u64, peers: impl IntoIterator<Item = NodeId>) -> Self {
        let mut table = LeaseTable {
            lease_ticks,
            last_renewal: Vec::new(),
        };
        for peer in peers {
            table.insert(peer, 0);
        }
        table
    }

    /// Lease duration in ticks.
    pub fn lease_ticks(&self) -> u64 {
        self.lease_ticks
    }

    /// Renews the lease of `peer` at time `now` (heartbeat received).
    pub fn renew(&mut self, peer: NodeId, now: u64) {
        if let Some(Some(last)) = self.last_renewal.get_mut(peer.index()) {
            *last = (*last).max(now);
        }
    }

    /// Stops tracking `peer` (it has been declared dead in a new view).
    pub fn remove(&mut self, peer: NodeId) {
        if let Some(entry) = self.last_renewal.get_mut(peer.index()) {
            *entry = None;
        }
    }

    /// Starts tracking `peer` (it joined in a new view), lease renewed `now`.
    pub fn insert(&mut self, peer: NodeId, now: u64) {
        let i = peer.index();
        if i >= self.last_renewal.len() {
            self.last_renewal.resize(i + 1, None);
        }
        self.last_renewal[i] = Some(now);
    }

    /// Peers whose lease has been expired for at least `grace` additional
    /// ticks at time `now`, sorted by id.
    pub fn expired(&self, now: u64, grace: u64) -> Vec<NodeId> {
        self.last_renewal
            .iter()
            .enumerate()
            .filter(|(_, last)| {
                last.is_some_and(|last| now.saturating_sub(last) >= self.lease_ticks + grace)
            })
            .map(|(i, _)| NodeId(i as u16))
            .collect()
    }

    /// The first tick at which `peer`'s lease is no longer fresh; `0` for an
    /// untracked peer.
    pub fn expires_at(&self, peer: NodeId) -> u64 {
        self.last_renewal
            .get(peer.index())
            .copied()
            .flatten()
            .map_or(0, |last| last.saturating_add(self.lease_ticks))
    }

    /// Whether `peer` currently holds an unexpired lease.
    pub fn is_fresh(&self, peer: NodeId, now: u64) -> bool {
        now < self.expires_at(peer)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn fresh_until_lease_expires() {
        let mut t = LeaseTable::new(100, [NodeId(1), NodeId(2)]);
        assert!(t.is_fresh(NodeId(1), 50));
        assert!(!t.is_fresh(NodeId(1), 100));
        t.renew(NodeId(1), 80);
        assert!(t.is_fresh(NodeId(1), 150));
        assert!(!t.is_fresh(NodeId(2), 150));
    }

    #[test]
    fn renew_never_moves_backwards() {
        let mut t = LeaseTable::new(100, [NodeId(1)]);
        t.renew(NodeId(1), 80);
        t.renew(NodeId(1), 40);
        assert!(t.is_fresh(NodeId(1), 150));
    }

    #[test]
    fn expired_respects_grace_period() {
        let mut t = LeaseTable::new(100, [NodeId(1), NodeId(2)]);
        t.renew(NodeId(2), 50);
        assert!(t.expired(100, 50).is_empty());
        assert_eq!(t.expired(150, 50), vec![NodeId(1)]);
        assert_eq!(t.expired(200, 50), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn removed_peer_never_expires() {
        let mut t = LeaseTable::new(100, [NodeId(1)]);
        t.remove(NodeId(1));
        assert!(t.expired(10_000, 0).is_empty());
        assert!(!t.is_fresh(NodeId(1), 0));
        t.insert(NodeId(1), 10_000);
        assert!(t.is_fresh(NodeId(1), 10_050));
    }

    #[test]
    fn unknown_peer_renew_is_ignored() {
        let mut t = LeaseTable::new(100, [NodeId(1)]);
        t.renew(NodeId(9), 50);
        assert!(!t.is_fresh(NodeId(9), 60));
    }

    #[test]
    fn expiry_boundary_is_exact() {
        // A lease is fresh strictly below `lease_ticks` since renewal and
        // expired (for `expired()`, with zero grace) exactly at the boundary.
        let mut t = LeaseTable::new(100, [NodeId(1)]);
        t.renew(NodeId(1), 1_000);
        assert!(t.is_fresh(NodeId(1), 1_099));
        assert!(!t.is_fresh(NodeId(1), 1_100));
        assert!(t.expired(1_099, 0).is_empty());
        assert_eq!(t.expired(1_100, 0), vec![NodeId(1)]);
    }

    #[test]
    fn renewal_during_grace_rescues_the_peer() {
        // A heartbeat that arrives after the lease lapsed but before the
        // grace period ran out must cancel the suspicion.
        let mut t = LeaseTable::new(100, [NodeId(1)]);
        assert!(t.expired(150, 100).is_empty(), "still in grace");
        t.renew(NodeId(1), 150);
        assert!(t.expired(200, 100).is_empty(), "renewal reset the clock");
        assert!(t.is_fresh(NodeId(1), 240));
        assert_eq!(t.expired(350, 100), vec![NodeId(1)]);
    }

    #[test]
    fn now_before_renewal_never_underflows() {
        // `now` earlier than the last renewal (clock skew between callers)
        // must saturate, not wrap.
        let mut t = LeaseTable::new(100, [NodeId(1)]);
        t.renew(NodeId(1), 5_000);
        assert!(t.is_fresh(NodeId(1), 10));
        assert!(t.expired(10, 0).is_empty());
    }

    #[test]
    fn reinsert_after_removal_starts_a_fresh_lease() {
        let mut t = LeaseTable::new(100, [NodeId(1)]);
        t.remove(NodeId(1));
        t.insert(NodeId(1), 500);
        assert!(t.is_fresh(NodeId(1), 599));
        assert!(!t.is_fresh(NodeId(1), 600));
        // Re-insert of an existing peer overwrites (jump forward only via
        // insert, which models a node re-joining in a new view).
        t.insert(NodeId(1), 700);
        assert!(t.is_fresh(NodeId(1), 790));
    }

    #[test]
    fn expired_reports_multiple_peers_sorted() {
        let mut t = LeaseTable::new(50, [NodeId(3), NodeId(1), NodeId(2)]);
        t.renew(NodeId(2), 400);
        let e = t.expired(300, 0);
        assert_eq!(e, vec![NodeId(1), NodeId(3)], "sorted by id");
    }

    #[test]
    fn answers_like_a_map_over_a_seeded_random_sequence() {
        // Ids up to 70 — past `NodeSet`'s 8 inline entries and past the
        // initial peers — inserted, renewed (sometimes with a stale clock),
        // removed and queried in a seeded random order; every answer must be
        // the one a `BTreeMap` of last renewals gives.
        const LEASE: u64 = 100;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let initial = [NodeId(1), NodeId(3), NodeId(4)];
        let mut table = LeaseTable::new(LEASE, initial);
        let mut model: BTreeMap<NodeId, u64> = initial.iter().map(|&p| (p, 0)).collect();
        let (mut now, mut fresh, mut expired) = (0u64, 0, 0);
        for _ in 0..20_000 {
            now += next(5);
            let peer = NodeId(next(71) as u16);
            let at = now.saturating_sub(next(50));
            match next(6) {
                0 => {
                    table.insert(peer, at);
                    model.insert(peer, at);
                }
                1 => {
                    table.renew(peer, at);
                    if let Some(last) = model.get_mut(&peer) {
                        *last = (*last).max(at);
                    }
                }
                2 => {
                    table.remove(peer);
                    model.remove(&peer);
                }
                3 => {
                    let grace = next(100);
                    let want: Vec<NodeId> = model
                        .iter()
                        .filter(|(_, &last)| now.saturating_sub(last) >= LEASE + grace)
                        .map(|(&p, _)| p)
                        .collect();
                    expired += want.len();
                    assert_eq!(table.expired(now, grace), want, "expired at {now}");
                }
                4 => {
                    let want = model.get(&peer).map_or(0, |&last| last + LEASE);
                    assert_eq!(table.expires_at(peer), want, "expires_at({peer})");
                }
                _ => {
                    let want = model.get(&peer).is_some_and(|&last| now < last + LEASE);
                    fresh += usize::from(want);
                    assert_eq!(table.is_fresh(peer, now), want, "is_fresh({peer}, {now})");
                }
            }
        }
        assert!(fresh > 0 && expired > 0, "both answers were exercised");
    }
}
