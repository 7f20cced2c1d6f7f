//! Deterministic discrete-time network simulator with fault injection.
//!
//! The simulator keeps in-flight messages in buckets, one per delivery time
//! (in abstract "ticks"; the Zeus harness interprets one tick as one
//! microsecond), each bucket in send order. Latency, loss, duplication and
//! reordering are drawn from a seeded RNG, so every faulty execution is
//! reproducible.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zeus_proto::NodeId;

use crate::envelope::Envelope;
use crate::stats::NetStats;

/// Static per-link parameter override (see [`NetConfig::link_overrides`]).
///
/// Overrides model heterogeneous topologies (a slow or flaky WAN link between
/// two specific nodes) and are consulted for the `from → to` direction only;
/// configure both directions for a symmetric link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkOverride {
    /// Source node of the directed link.
    pub from: NodeId,
    /// Destination node of the directed link.
    pub to: NodeId,
    /// Minimum one-way latency in ticks for this link.
    pub min_delay: u64,
    /// Maximum one-way latency in ticks for this link.
    pub max_delay: u64,
    /// Drop probability for this link (replaces the global probability).
    pub drop_probability: f64,
}

/// Network behaviour configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Minimum one-way latency in ticks.
    pub min_delay: u64,
    /// Maximum one-way latency in ticks. With `max_delay > min_delay` the
    /// network naturally reorders messages.
    pub max_delay: u64,
    /// Probability that a message is silently dropped.
    pub drop_probability: f64,
    /// Probability that a message is duplicated (delivered twice).
    pub duplicate_probability: f64,
    /// RNG seed; identical seeds give identical executions.
    pub seed: u64,
    /// Per-link parameter overrides. Links without an override use the
    /// global `min_delay`/`max_delay`/`drop_probability`. An empty list (the
    /// default) leaves the simulator's behaviour — including its RNG stream —
    /// byte-identical to configurations predating this field, so existing
    /// seeds replay unchanged.
    pub link_overrides: Vec<LinkOverride>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            min_delay: 2,
            max_delay: 5,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            seed: 0x5EED,
            link_overrides: Vec::new(),
        }
    }
}

impl NetConfig {
    /// A perfectly reliable, fixed-latency network (useful for protocol unit
    /// tests where faults are injected explicitly).
    pub fn reliable(delay: u64) -> Self {
        NetConfig {
            min_delay: delay,
            max_delay: delay,
            seed: 7,
            ..NetConfig::default()
        }
    }

    /// A lossy, reordering network used by fault-injection tests.
    pub fn lossy(seed: u64, drop_probability: f64, duplicate_probability: f64) -> Self {
        NetConfig {
            min_delay: 1,
            max_delay: 10,
            drop_probability,
            duplicate_probability,
            seed,
            link_overrides: Vec::new(),
        }
    }

    /// Adds a per-link override (builder style).
    #[must_use]
    pub fn with_link_override(mut self, link: LinkOverride) -> Self {
        self.link_overrides.push(link);
        self
    }

    /// The override configured for `from → to`, if any.
    pub fn link_override(&self, from: NodeId, to: NodeId) -> Option<&LinkOverride> {
        self.link_overrides
            .iter()
            .find(|l| l.from == from && l.to == to)
    }
}

/// Additional, deterministic fault plan applied on top of probabilistic
/// faults: crashed nodes, (directed) link partitions, per-link latency
/// spikes and bounded per-link drop bursts.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Nodes that have crashed: all traffic to and from them is dropped.
    pub crashed: HashSet<NodeId>,
    /// Directed links that are cut (`(from, to)` pairs).
    pub cut_links: HashSet<(NodeId, NodeId)>,
    /// Extra one-way latency (ticks) currently added per directed link.
    pub link_extra_delay: HashMap<(NodeId, NodeId), u64>,
    /// Remaining messages to drop per directed link (drop bursts). The entry
    /// is removed once the count reaches zero.
    pub link_drop_burst: HashMap<(NodeId, NodeId), u64>,
}

impl FaultPlan {
    /// Returns `true` if a message from `from` to `to` must be dropped.
    pub fn blocks(&self, from: NodeId, to: NodeId) -> bool {
        self.crashed.contains(&from)
            || self.crashed.contains(&to)
            || self.cut_links.contains(&(from, to))
    }

    /// Marks a node as crashed.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Revives a crashed node (e.g. after it rejoins in a later epoch).
    pub fn revive(&mut self, node: NodeId) {
        self.crashed.remove(&node);
    }

    /// Cuts the directed link `from → to`.
    pub fn cut(&mut self, from: NodeId, to: NodeId) {
        self.cut_links.insert((from, to));
    }

    /// Cuts both directions between two nodes.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.cut_links.insert((a, b));
        self.cut_links.insert((b, a));
    }

    /// Heals the directed link `from → to` (cut and latency spike).
    pub fn heal_link(&mut self, from: NodeId, to: NodeId) {
        self.cut_links.remove(&(from, to));
        self.link_extra_delay.remove(&(from, to));
    }

    /// Heals both directions between two nodes.
    pub fn heal_partition(&mut self, a: NodeId, b: NodeId) {
        self.heal_link(a, b);
        self.heal_link(b, a);
    }

    /// Heals every cut link.
    pub fn heal_links(&mut self) {
        self.cut_links.clear();
    }

    /// Adds `extra` ticks of one-way latency on `from → to` until cleared.
    pub fn spike(&mut self, from: NodeId, to: NodeId, extra: u64) {
        self.link_extra_delay.insert((from, to), extra);
    }

    /// Removes the latency spike on `from → to`.
    pub fn clear_spike(&mut self, from: NodeId, to: NodeId) {
        self.link_extra_delay.remove(&(from, to));
    }

    /// Removes every latency spike.
    pub fn clear_spikes(&mut self) {
        self.link_extra_delay.clear();
    }

    /// Drops the next `count` messages sent on `from → to`.
    pub fn drop_burst(&mut self, from: NodeId, to: NodeId, count: u64) {
        if count > 0 {
            *self.link_drop_burst.entry((from, to)).or_insert(0) += count;
        }
    }

    /// Cancels every pending drop burst.
    pub fn clear_drop_bursts(&mut self) {
        self.link_drop_burst.clear();
    }

    /// Heals every injected link fault (cuts, spikes and drop bursts) at
    /// once. Crashed nodes are unaffected.
    pub fn heal_all(&mut self) {
        self.heal_links();
        self.clear_spikes();
        self.clear_drop_bursts();
    }

    /// Extra latency currently applied to `from → to`.
    fn extra_delay(&self, from: NodeId, to: NodeId) -> u64 {
        self.link_extra_delay.get(&(from, to)).copied().unwrap_or(0)
    }

    /// Consumes one message from the drop burst on `from → to`, returning
    /// `true` if the message must be dropped.
    fn take_burst_drop(&mut self, from: NodeId, to: NodeId) -> bool {
        match self.link_drop_burst.get_mut(&(from, to)) {
            Some(remaining) => {
                *remaining -= 1;
                if *remaining == 0 {
                    self.link_drop_burst.remove(&(from, to));
                }
                true
            }
            None => false,
        }
    }
}

/// Deterministic discrete-time network simulator.
///
/// # Determinism contract
///
/// Every faulty execution is reproducible from `NetConfig::seed`: the RNG is
/// consumed only by [`SimNetwork::send`], in a fixed order per message
/// (drop draw, then duplicate draw, then one latency draw per copy), and a
/// draw is skipped entirely when its probability is zero or the latency
/// range is a single value. Deterministic faults — [`FaultPlan`] cuts,
/// crashes, latency spikes and drop bursts, and [`NetConfig::link_overrides`]
/// — never consume randomness beyond that fixed order: a link override
/// substitutes the *parameters* of the existing draws, a spike adds a
/// constant after the latency draw, and cuts/bursts drop the message before
/// any draw happens. Consequently a config with no overrides behaves
/// byte-identically to one predating these fields, and replaying the same
/// seed with the same fault injections yields the same delivery schedule.
/// A message is moved into flight, and cloned only for the second copy of a
/// duplicate: neither draws anything. Messages are delivered in order of
/// delivery time and, at equal times, in the order they were sent.
#[derive(Debug)]
pub struct SimNetwork<M> {
    config: NetConfig,
    faults: FaultPlan,
    now: u64,
    /// One bucket per delivery time, ascending; each bucket in send order.
    in_flight: VecDeque<(u64, Vec<Envelope<M>>)>,
    in_flight_len: usize,
    /// Emptied buckets, kept for reuse.
    spare: Vec<Vec<Envelope<M>>>,
    rng: StdRng,
    stats: NetStats,
}

impl<M> SimNetwork<M> {
    /// Creates a simulator with the given configuration.
    pub fn new(config: NetConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        SimNetwork {
            config,
            faults: FaultPlan::default(),
            now: 0,
            in_flight: VecDeque::new(),
            in_flight_len: 0,
            spare: Vec::new(),
            rng,
            stats: NetStats::default(),
        }
    }

    /// Current simulated time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of messages currently in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight_len
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Mutable access to the deterministic fault plan.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Read access to the fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Submits a message for delivery.
    ///
    /// The message may be dropped or duplicated according to the configured
    /// probabilities, and is always dropped if the fault plan blocks the
    /// link or either endpoint crashed.
    pub fn send(&mut self, envelope: Envelope<M>)
    where
        M: Clone,
    {
        self.stats.record_send(envelope.wire_bytes);
        if self.faults.blocks(envelope.from, envelope.to)
            || self.faults.take_burst_drop(envelope.from, envelope.to)
        {
            self.stats.record_drop();
            return;
        }
        // Per-link overrides substitute the parameters of the draws below;
        // the draw structure itself is fixed (see the determinism contract).
        let (min_delay, max_delay, drop_probability) =
            match self.config.link_override(envelope.from, envelope.to) {
                Some(l) => (l.min_delay, l.max_delay, l.drop_probability),
                None => (
                    self.config.min_delay,
                    self.config.max_delay,
                    self.config.drop_probability,
                ),
            };
        if drop_probability > 0.0 && self.rng.gen_bool(drop_probability.min(1.0)) {
            self.stats.record_drop();
            return;
        }
        let duplicated = self.config.duplicate_probability > 0.0
            && self
                .rng
                .gen_bool(self.config.duplicate_probability.min(1.0));
        if duplicated {
            self.stats.record_duplicate();
        }
        let extra = self.faults.extra_delay(envelope.from, envelope.to);
        let duplicate = duplicated.then(|| envelope.clone());
        self.put_in_flight(envelope, min_delay, max_delay, extra);
        if let Some(copy) = duplicate {
            self.put_in_flight(copy, min_delay, max_delay, extra);
        }
    }

    /// Draws one copy's delay and queues it in the bucket of its delivery
    /// time, behind what that bucket already holds.
    fn put_in_flight(&mut self, envelope: Envelope<M>, min_delay: u64, max_delay: u64, extra: u64) {
        let delay = if max_delay > min_delay {
            self.rng.gen_range(min_delay..=max_delay)
        } else {
            min_delay
        };
        let deliver_at = self.now + delay.max(1) + extra;
        let i = self.in_flight.partition_point(|(at, _)| *at < deliver_at);
        if self
            .in_flight
            .get(i)
            .is_none_or(|(at, _)| *at != deliver_at)
        {
            let bucket = self.spare.pop().unwrap_or_default();
            self.in_flight.insert(i, (deliver_at, bucket));
        }
        self.in_flight[i].1.push(envelope);
        self.in_flight_len += 1;
    }

    /// Delivery time of the earliest in-flight message, if any.
    pub fn next_delivery_time(&self) -> Option<u64> {
        self.in_flight.front().map(|(at, _)| *at)
    }

    /// Advances time to the next delivery and returns every message due at
    /// that instant. Returns an empty vector when nothing is in flight.
    ///
    /// Messages addressed to nodes that crashed while the message was in
    /// flight are discarded at delivery time.
    pub fn step(&mut self) -> Vec<Envelope<M>> {
        let Some(t) = self.next_delivery_time() else {
            return Vec::new();
        };
        self.advance_to(t)
    }

    /// Advances time to `t` (if later than now) and returns all messages due
    /// at or before `t`, in delivery order.
    pub fn advance_to(&mut self, t: u64) -> Vec<Envelope<M>> {
        let mut delivered = Vec::new();
        self.deliver_due(t, |envelope| delivered.push(envelope));
        delivered
    }

    /// [`SimNetwork::advance_to`], handing each message to `deliver` as it
    /// falls due instead of collecting the batch.
    pub fn deliver_due(&mut self, t: u64, mut deliver: impl FnMut(Envelope<M>)) {
        if t > self.now {
            self.now = t;
        }
        while self
            .in_flight
            .front()
            .is_some_and(|(at, _)| *at <= self.now)
        {
            let (_, mut bucket) = self.in_flight.pop_front().expect("a due bucket");
            self.in_flight_len -= bucket.len();
            for envelope in bucket.drain(..) {
                if self.faults.blocks(envelope.from, envelope.to) {
                    self.stats.record_drop();
                    continue;
                }
                self.stats.record_delivery(envelope.wire_bytes);
                deliver(envelope);
            }
            self.spare.push(bucket);
        }
    }

    /// Advances time by `dt` ticks and returns everything due.
    pub fn advance_by(&mut self, dt: u64) -> Vec<Envelope<M>> {
        self.advance_to(self.now + dt)
    }

    /// Drops every in-flight message (used to model a full network blip).
    pub fn drop_all_in_flight(&mut self) {
        self.stats.messages_dropped += self.in_flight_len as u64;
        self.in_flight_len = 0;
        for (_, mut bucket) in self.in_flight.drain(..) {
            bucket.clear();
            self.spare.push(bucket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(from: u16, to: u16, msg: u32) -> Envelope<u32> {
        Envelope::with_payload_bytes(NodeId(from), NodeId(to), msg, 8)
    }

    #[test]
    fn reliable_network_delivers_in_order() {
        let mut net = SimNetwork::new(NetConfig::reliable(3));
        net.send(env(0, 1, 1));
        net.send(env(0, 1, 2));
        net.send(env(0, 1, 3));
        let delivered = net.step();
        assert_eq!(delivered.len(), 3);
        assert_eq!(
            delivered.iter().map(|e| e.msg).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(net.now(), 3);
        assert_eq!(net.stats().messages_delivered, 3);
    }

    #[test]
    fn step_on_empty_network_returns_nothing() {
        let mut net: SimNetwork<u32> = SimNetwork::new(NetConfig::reliable(1));
        assert!(net.step().is_empty());
        assert_eq!(net.next_delivery_time(), None);
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let mut net = SimNetwork::new(NetConfig::lossy(1, 1.0, 0.0));
        for i in 0..10 {
            net.send(env(0, 1, i));
        }
        assert_eq!(net.in_flight_len(), 0);
        assert_eq!(net.stats().messages_dropped, 10);
    }

    #[test]
    fn duplicate_probability_one_duplicates_everything() {
        let mut net = SimNetwork::new(NetConfig::lossy(1, 0.0, 1.0));
        net.send(env(0, 1, 7));
        let mut total = 0;
        while net.in_flight_len() > 0 {
            total += net.step().len();
        }
        assert_eq!(total, 2);
        assert_eq!(net.stats().messages_duplicated, 1);
    }

    #[test]
    fn variable_latency_reorders_messages() {
        let config = NetConfig {
            min_delay: 1,
            max_delay: 50,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            seed: 42,
            link_overrides: Vec::new(),
        };
        let mut net = SimNetwork::new(config);
        for i in 0..100u32 {
            net.send(env(0, 1, i));
        }
        let mut order = Vec::new();
        loop {
            let batch = net.step();
            if batch.is_empty() {
                break;
            }
            order.extend(batch.into_iter().map(|e| e.msg));
        }
        assert_eq!(order.len(), 100);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_ne!(order, sorted, "expected at least one reordering");
    }

    #[test]
    fn crashed_node_receives_and_sends_nothing() {
        let mut net = SimNetwork::new(NetConfig::reliable(1));
        net.faults_mut().crash(NodeId(1));
        net.send(env(0, 1, 1));
        net.send(env(1, 0, 2));
        assert_eq!(net.in_flight_len(), 0);
        net.faults_mut().revive(NodeId(1));
        net.send(env(0, 1, 3));
        assert_eq!(net.step().len(), 1);
    }

    #[test]
    fn crash_after_send_drops_at_delivery() {
        let mut net = SimNetwork::new(NetConfig::reliable(5));
        net.send(env(0, 1, 1));
        net.faults_mut().crash(NodeId(1));
        assert!(net.step().is_empty());
        assert_eq!(net.stats().messages_dropped, 1);
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut net = SimNetwork::new(NetConfig::reliable(1));
        net.faults_mut().partition(NodeId(0), NodeId(1));
        net.send(env(0, 1, 1));
        net.send(env(1, 0, 2));
        net.send(env(0, 2, 3));
        let delivered = net.step();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].msg, 3);
        net.faults_mut().heal_links();
        net.send(env(0, 1, 4));
        assert_eq!(net.step().len(), 1);
    }

    #[test]
    fn same_seed_same_execution() {
        let run = |seed| {
            let mut net = SimNetwork::new(NetConfig::lossy(seed, 0.3, 0.2));
            for i in 0..200u32 {
                net.send(env(0, 1, i));
            }
            let mut order = Vec::new();
            loop {
                let batch = net.step();
                if batch.is_empty() {
                    break;
                }
                order.extend(batch.into_iter().map(|e| e.msg));
            }
            order
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn default_config_rng_stream_is_unchanged_by_empty_overrides() {
        // The determinism contract: an empty `link_overrides` list must not
        // perturb the RNG stream, so executions recorded before the field
        // existed replay identically.
        let run = |config: NetConfig| {
            let mut net = SimNetwork::new(config);
            for i in 0..100u32 {
                net.send(env(0, 1, i));
            }
            let mut order = Vec::new();
            loop {
                let batch = net.step();
                if batch.is_empty() {
                    break;
                }
                order.extend(batch.into_iter().map(|e| (e.msg, net.now())));
            }
            order
        };
        let base = NetConfig::lossy(99, 0.2, 0.1);
        let mut with_unrelated_override = base.clone();
        // An override on a link the trace never uses must not matter either.
        with_unrelated_override.link_overrides.push(LinkOverride {
            from: NodeId(5),
            to: NodeId(6),
            min_delay: 100,
            max_delay: 200,
            drop_probability: 0.9,
        });
        assert_eq!(run(base), run(with_unrelated_override));
    }

    #[test]
    fn link_override_substitutes_latency_and_drop() {
        let config = NetConfig::reliable(2).with_link_override(LinkOverride {
            from: NodeId(0),
            to: NodeId(1),
            min_delay: 50,
            max_delay: 50,
            drop_probability: 0.0,
        });
        let mut net = SimNetwork::new(config);
        net.send(env(0, 1, 1)); // overridden: slow link
        net.send(env(0, 2, 2)); // default: fast link
        let first = net.step();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].msg, 2);
        assert_eq!(net.now(), 2);
        let second = net.step();
        assert_eq!(second[0].msg, 1);
        assert_eq!(net.now(), 50);

        // A lossy override drops deterministically with p = 1.
        let config = NetConfig::reliable(2).with_link_override(LinkOverride {
            from: NodeId(0),
            to: NodeId(1),
            min_delay: 1,
            max_delay: 1,
            drop_probability: 1.0,
        });
        let mut net = SimNetwork::new(config);
        net.send(env(0, 1, 1));
        net.send(env(1, 0, 2)); // reverse direction is not overridden
        assert_eq!(net.in_flight_len(), 1);
        assert_eq!(net.stats().messages_dropped, 1);
    }

    #[test]
    fn latency_spike_adds_constant_delay_until_cleared() {
        let mut net = SimNetwork::new(NetConfig::reliable(2));
        net.faults_mut().spike(NodeId(0), NodeId(1), 100);
        net.send(env(0, 1, 1));
        net.send(env(1, 0, 2));
        let batch = net.step();
        assert_eq!(batch[0].msg, 2, "reverse link unaffected");
        assert_eq!(net.now(), 2);
        let batch = net.step();
        assert_eq!(batch[0].msg, 1);
        assert_eq!(net.now(), 102);
        net.faults_mut().clear_spike(NodeId(0), NodeId(1));
        net.send(env(0, 1, 3));
        net.step();
        assert_eq!(net.now(), 104);
    }

    #[test]
    fn drop_burst_drops_exactly_count_messages() {
        let mut net = SimNetwork::new(NetConfig::reliable(1));
        net.faults_mut().drop_burst(NodeId(0), NodeId(1), 3);
        for i in 0..5u32 {
            net.send(env(0, 1, i));
        }
        net.send(env(1, 0, 9)); // other direction unaffected
        assert_eq!(net.stats().messages_dropped, 3);
        let mut delivered = Vec::new();
        loop {
            let batch = net.step();
            if batch.is_empty() {
                break;
            }
            delivered.extend(batch.into_iter().map(|e| e.msg));
        }
        assert_eq!(delivered, vec![3, 4, 9]);
        assert!(net.faults().link_drop_burst.is_empty(), "burst consumed");
    }

    #[test]
    fn heal_partition_and_heal_all_restore_traffic() {
        let mut net = SimNetwork::new(NetConfig::reliable(1));
        net.faults_mut().partition(NodeId(0), NodeId(1));
        net.faults_mut().cut(NodeId(0), NodeId(2));
        net.faults_mut().spike(NodeId(2), NodeId(0), 7);
        net.faults_mut().drop_burst(NodeId(2), NodeId(1), 2);
        net.faults_mut().heal_partition(NodeId(0), NodeId(1));
        net.send(env(0, 1, 1));
        net.send(env(1, 0, 2));
        net.send(env(0, 2, 3)); // still cut
        assert_eq!(net.step().len(), 2);
        assert_eq!(net.stats().messages_dropped, 1);
        net.faults_mut().heal_all();
        assert!(net.faults().cut_links.is_empty());
        assert!(net.faults().link_extra_delay.is_empty());
        assert!(net.faults().link_drop_burst.is_empty());
        net.send(env(0, 2, 4));
        assert_eq!(net.step().len(), 1);
    }

    #[test]
    fn advance_by_moves_time_without_messages() {
        let mut net: SimNetwork<u32> = SimNetwork::new(NetConfig::reliable(1));
        net.advance_by(100);
        assert_eq!(net.now(), 100);
    }

    #[test]
    fn delivery_order_under_drops_duplicates_spikes_and_bursts_is_pinned() {
        // 500 sends over three directed links of a lossy, reordering network
        // (delays 1–10), a 25-tick latency spike on one link for 100 sends
        // and a 5-message drop burst on another, interleaved with deliveries
        // at uneven intervals. The exact `(msg, now)` sequence is pinned: the
        // in-flight queue may change shape, the schedule may not.
        let mut net = SimNetwork::new(NetConfig::lossy(99, 0.2, 0.1));
        let mut trace: Vec<(u32, u64)> = Vec::new();
        for i in 0..500u32 {
            match i {
                100 => net.faults_mut().spike(NodeId(0), NodeId(1), 25),
                200 => {
                    net.faults_mut().clear_spike(NodeId(0), NodeId(1));
                    net.faults_mut().drop_burst(NodeId(1), NodeId(2), 5);
                }
                _ => {}
            }
            net.send(env((i % 3) as u16, ((i + 1) % 3) as u16, i));
            if i % 4 == 3 {
                let t = net.now() + 1 + u64::from(i % 5);
                net.deliver_due(t, |e| trace.push((e.msg, t)));
            }
        }
        while net.in_flight_len() > 0 {
            for e in net.step() {
                trace.push((e.msg, net.now()));
            }
        }
        // FNV-1a over the sequence.
        let digest = trace
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &(msg, at)| {
                [u64::from(msg), at]
                    .iter()
                    .fold(h, |h, &x| (h ^ x).wrapping_mul(0x0100_0000_01b3))
            });
        assert_eq!(
            (
                trace.len(),
                net.stats().messages_dropped,
                net.stats().messages_duplicated
            ),
            (443, 99, 42)
        );
        assert_eq!(digest, 18_382_612_975_365_191_029);
    }

    #[test]
    fn drop_all_in_flight_clears_queue() {
        let mut net = SimNetwork::new(NetConfig::reliable(10));
        net.send(env(0, 1, 1));
        net.send(env(0, 1, 2));
        net.drop_all_in_flight();
        assert_eq!(net.in_flight_len(), 0);
        assert!(net.step().is_empty());
        assert_eq!(net.stats().messages_dropped, 2);
    }
}
