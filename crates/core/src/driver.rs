//! The transaction driver: what happens to a session's command between its
//! submission and its reply.
//!
//! Zeus runs a transaction by acquiring every object it touches and then
//! executing it as single-node code (§3.2), so a command that cannot finish
//! at once waits — for ownership to arrive, for a back-off to lapse (§6.2),
//! for an in-flight reliable commit to settle (§5.3). [`TxDriver`] is that
//! waiting room and the one place that decides what a wait costs and how it
//! ends. Every runtime runs it, and calls it from the same place: the
//! node's cell (`NodeCell` in [`crate::runtime`]), whose iteration the node
//! threads of the threaded, UDP and process deployments and the
//! deterministic simulator ([`crate::sim`]) all run — so the chaos oracles
//! watch the code, and the schedule, that serve real traffic.
//!
//! The driver owns no clock and no transport. Its caller hands it the node
//! and the node's tick count (1 tick = 1 µs on the wall-clock runtimes,
//! simulated time in the simulator) and ships whatever the node's outbox
//! holds afterwards. A command is [submitted](TxDriver::submit) by
//! `NodeCell::run` — on the session's own thread when it finds the node
//! free, in the loop's iteration otherwise, and always by a simulator
//! session — and what parks here is [polled](TxDriver::poll) by the
//! iteration (`NodeCell::step`).

use zeus_proto::messages::NackReason;
use zeus_proto::{ObjectId, OwnershipRequestKind, RequestId};

use crate::client::{ReplySlot, RetryPolicy, TxValue};
use crate::node::{RequestState, ZeusNode};
use crate::txn::{ReadOutcome, TxCtx, TxError, WriteOutcome};

/// A transaction closure as a node executes it. Its value is boxed
/// ([`TxValue`]) so that commands of every result type are one type; the
/// [`TxTicket`](crate::TxTicket) that returns it knows the type and unboxes
/// it.
pub(crate) type TxFn = Box<dyn FnMut(&mut TxCtx<'_>) -> Result<TxValue, TxError> + Send>;

/// Boxes a typed closure into the form commands carry.
pub(crate) fn erase<T, F>(mut f: F) -> TxFn
where
    T: Send + 'static,
    F: FnMut(&mut TxCtx<'_>) -> Result<T, TxError> + Send + 'static,
{
    Box::new(move |ctx| f(ctx).map(|value| Box::new(value) as TxValue))
}

/// What a session asks of its node.
pub(crate) enum Work {
    /// A write transaction ([`crate::Session::write_txn`] / `submit_write`).
    Write(TxFn),
    /// A read-only transaction ([`crate::Session::read_txn`]).
    Read(TxFn),
    /// An explicit acquisition ([`crate::Session::acquire`]); replies `()`.
    Acquire {
        /// The object to acquire.
        object: ObjectId,
        /// The level to acquire it at.
        kind: OwnershipRequestKind,
    },
}

/// One command of a session, resolved through `reply` exactly once.
pub(crate) struct TxCommand {
    pub(crate) work: Work,
    pub(crate) policy: RetryPolicy,
    pub(crate) reply: ReplySlot,
}

/// A command that could not finish when it last ran.
struct Waiter {
    command: TxCommand,
    /// The ownership requests its current round waits on; empty while it
    /// only sits out a back-off.
    requests: Vec<RequestId>,
    /// Attempts charged so far.
    attempts: usize,
    /// Whether a round of this command has been granted already, so that
    /// the next round it needs is a steal-back, not its first acquisition.
    granted: bool,
    /// The tick before which it does not run again.
    not_before: u64,
    /// Set when it lost to an in-flight commit, which only a message can
    /// settle: the node's message count at that moment. It runs again as
    /// soon as the count has moved, back-off or not.
    conflict_at: Option<u64>,
}

/// One node's parked writes, parked reads and explicit acquisitions.
///
/// # What an attempt is
///
/// A command runs when it is submitted. If it needs ownership it waits for
/// its requests, and the *first* grant is free: running again once ownership
/// arrived continues the same attempt, so a remote write commits even under
/// [`RetryPolicy::no_retry`]. Everything else that makes it run again costs
/// one attempt: a failed acquisition round (lost arbitration, recovery in
/// progress), a round it needs because its objects were stolen back after a
/// grant, a transient local abort. A charged command does not run before
/// the policy's back-off for that attempt has lapsed ([`RetryPolicy::backoff`],
/// in ticks); a failed round is re-issued only then, which is what stops
/// contending coordinators from ping-ponging ownership (§6.2). When a charge
/// spends the budget the command resolves to [`TxError::RetriesExhausted`]
/// — or, under a budget of one, to the error itself. Errors that are not
/// [retryable](TxError::is_retryable) resolve at once and cost nothing.
///
/// # Why reads park
///
/// A read-only transaction that meets an invalidated object
/// ([`TxError::ReadConflict`]) can only succeed after the R-VAL of the
/// commit in flight has arrived. Waiting for it inside the command would
/// hold up every other session of the node, so the read is charged, parked
/// like a write, and run again once the node has handled another message or
/// its back-off has lapsed.
///
/// # Requests
///
/// The driver [releases](ZeusNode::release_request) every ownership request
/// it has finished with — read its outcome, or given up on it — so the
/// node's request table holds entries only for rounds still being waited on.
#[derive(Default)]
pub(crate) struct TxDriver {
    waiters: Vec<Waiter>,
}

impl std::fmt::Debug for TxDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Commands hold closures; their number is what there is to show.
        f.debug_struct("TxDriver")
            .field("waiters", &self.waiters.len())
            .finish()
    }
}

impl TxDriver {
    /// Runs `command` on `node`; if it cannot finish now, parks it for
    /// [`TxDriver::poll`].
    pub(crate) fn submit(&mut self, node: &mut ZeusNode, now: u64, command: TxCommand) {
        let mut waiter = Waiter {
            command,
            requests: Vec::new(),
            attempts: 0,
            granted: false,
            not_before: 0,
            conflict_at: None,
        };
        match waiter.run(node, now) {
            Some(result) => waiter.command.reply.send(result),
            None => self.waiters.push(waiter),
        }
    }

    /// Advances every parked command as far as it goes at tick `now`,
    /// resolving those that finish. Returns whether any of them ran.
    pub(crate) fn poll(&mut self, node: &mut ZeusNode, now: u64) -> bool {
        if self.waiters.is_empty() {
            return false;
        }
        // A fenced node must not leave clients wedged: its requests cannot
        // decide while it is cut off from every peer (and the cluster may
        // already have expelled it and moved on), so whatever is parked
        // resolves now and its requests stop retransmitting into the
        // partition.
        if node.is_fenced() {
            self.fail_all(node, &TxError::Fenced);
            return true;
        }
        let mut ran = false;
        let mut i = 0;
        while i < self.waiters.len() {
            match self.waiters[i].advance(node, now, &mut ran) {
                Some(result) => self.waiters.remove(i).command.reply.send(result),
                None => i += 1,
            }
        }
        ran
    }

    /// Resolves every parked command to `error` and releases its requests.
    pub(crate) fn fail_all(&mut self, node: &mut ZeusNode, error: &TxError) {
        for mut waiter in self.waiters.drain(..) {
            waiter.release_requests(node);
            waiter.command.reply.send(Err(error.clone()));
        }
    }

    /// Whether a parked command's requests have all been granted and it is
    /// free to run: the moment to poll before handling further messages,
    /// one of which may be a competitor's request for the same objects.
    pub(crate) fn grant_landed(&self, node: &ZeusNode, now: u64) -> bool {
        self.waiters.iter().any(|w| {
            !w.requests.is_empty()
                && now >= w.not_before
                && matches!(requests_outcome(node, &w.requests), Some(Ok(())))
        })
    }

    /// The earliest back-off deadline after `now`, if any command sits one
    /// out: the tick an idle caller should advance its clock to.
    pub(crate) fn next_deadline(&self, now: u64) -> Option<u64> {
        self.waiters
            .iter()
            .map(|w| w.not_before)
            .filter(|&deadline| deadline > now)
            .min()
    }

    /// Whether any command is parked.
    pub(crate) fn has_waiters(&self) -> bool {
        !self.waiters.is_empty()
    }
}

impl Waiter {
    /// Advances a parked command: `Some` is its final result, `None` leaves
    /// it parked. Sets `ran` if it got as far as looking at its requests'
    /// outcome or running.
    fn advance(
        &mut self,
        node: &mut ZeusNode,
        now: u64,
        ran: &mut bool,
    ) -> Option<Result<TxValue, TxError>> {
        let settled = self
            .conflict_at
            .is_some_and(|at| at != node.messages_handled());
        if now < self.not_before && !settled {
            return None;
        }
        if !self.requests.is_empty() {
            let outcome = requests_outcome(node, &self.requests)?;
            *ran = true;
            self.release_requests(node);
            match outcome {
                Ok(()) => self.granted = true,
                Err(error) => return self.charge(error, node, now).err().map(Err),
            }
        }
        *ran = true;
        self.run(node, now)
    }

    /// Runs the command once.
    fn run(&mut self, node: &mut ZeusNode, now: u64) -> Option<Result<TxValue, TxError>> {
        self.conflict_at = None;
        let error = match &mut self.command.work {
            Work::Write(tx) => match node.execute_write(0, |ctx| tx(ctx)) {
                WriteOutcome::Committed { value, .. } => return Some(Ok(value)),
                WriteOutcome::Aborted { error } => error,
                WriteOutcome::OwnershipPending { requests } => {
                    self.requests = requests;
                    if !self.granted {
                        return None;
                    }
                    // Stolen back between the grant and this run: a fresh
                    // round, which execution already issued.
                    return match self.charge_attempt(now) {
                        true => None,
                        false => {
                            self.release_requests(node);
                            Some(Err(TxError::RetriesExhausted))
                        }
                    };
                }
            },
            Work::Read(tx) => match node.execute_read(|ctx| tx(ctx)) {
                ReadOutcome::Committed { value } => return Some(Ok(value)),
                ReadOutcome::Aborted { error } => error,
            },
            Work::Acquire { object, kind } => {
                let held = *kind == OwnershipRequestKind::AcquireOwner && node.owns(*object);
                if !(self.granted || held) {
                    self.requests = vec![node.acquire(*object, *kind)];
                    return None;
                }
                // A zero-sized box: no allocation.
                return Some(Ok(Box::new(())));
            }
        };
        self.charge(error, node, now).err().map(Err)
    }

    /// Decides what `error` costs: `Ok` if the command runs again after a
    /// back-off, `Err` with what it resolves to otherwise.
    fn charge(&mut self, error: TxError, node: &ZeusNode, now: u64) -> Result<(), TxError> {
        if !error.is_retryable() {
            return Err(error);
        }
        if !self.charge_attempt(now) {
            return Err(if self.command.policy.max_attempts > 1 {
                TxError::RetriesExhausted
            } else {
                error
            });
        }
        if !matches!(error, TxError::OwnershipFailed { .. }) {
            self.conflict_at = Some(node.messages_handled());
        }
        Ok(())
    }

    /// Charges one attempt and starts its back-off; `false` once the budget
    /// is spent.
    fn charge_attempt(&mut self, now: u64) -> bool {
        self.attempts += 1;
        let backoff = self.command.policy.backoff(self.attempts);
        self.not_before = now.saturating_add(backoff.as_micros() as u64);
        self.attempts < self.command.policy.max_attempts
    }

    /// Releases the round's requests: the granted and failed ones were read,
    /// the pending ones are given up on.
    fn release_requests(&mut self, node: &mut ZeusNode) {
        for request in self.requests.drain(..) {
            node.release_request(request);
        }
    }
}

/// The joint outcome of a round of requests: `None` while one is pending and
/// none has failed.
fn requests_outcome(node: &ZeusNode, requests: &[RequestId]) -> Option<Result<(), TxError>> {
    let mut pending = false;
    for &request in requests {
        match node.request_state(request) {
            RequestState::Completed => {}
            RequestState::Pending => pending = true,
            RequestState::Failed(NackReason::DataLoss) => return Some(Err(TxError::DataLoss)),
            RequestState::Failed(reason) => {
                return Some(Err(TxError::OwnershipFailed {
                    object: node
                        .request_object(request)
                        .expect("a failed request has its object on record"),
                    reason,
                }))
            }
        }
    }
    (!pending).then_some(Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use zeus_proto::{Epoch, NodeId, OwnershipMsg};

    use crate::client::TxTicket;
    use crate::config::ZeusConfig;
    use crate::message::Message;
    use crate::stats::NodeStats;

    const LOST: NackReason = NackReason::LostArbitration;

    /// Three hand-driven nodes, each with a driver, and a clock that moves
    /// only when a test moves it. Nothing ticks: messages go where the test
    /// sends them and no timer fires.
    struct Trio {
        nodes: Vec<ZeusNode>,
        drivers: Vec<TxDriver>,
        now: u64,
    }

    impl Trio {
        /// Objects `1..=3`, object `i` owned by node `i - 1`, replicated
        /// everywhere.
        fn new() -> Self {
            Self::with_config(ZeusConfig::with_nodes(3))
        }

        fn with_config(config: ZeusConfig) -> Self {
            let mut nodes: Vec<ZeusNode> = (0..3)
                .map(|n| ZeusNode::new(NodeId(n), config.clone()))
                .collect();
            for object in 1..=3u64 {
                let replicas = config.default_replicas(NodeId(object as u16 - 1));
                for node in &mut nodes {
                    node.create_object(
                        ObjectId(object),
                        Bytes::from_static(b"0"),
                        replicas.clone(),
                    );
                }
            }
            Trio {
                nodes,
                drivers: (0..3).map(|_| TxDriver::default()).collect(),
                now: 1_000,
            }
        }

        fn submit<T: Send + 'static>(
            &mut self,
            node: usize,
            work: Work,
            policy: &RetryPolicy,
        ) -> TxTicket<T> {
            let (reply, rx) = ReplySlot::new(None);
            let command = TxCommand {
                work,
                policy: policy.clone(),
                reply,
            };
            self.drivers[node].submit(&mut self.nodes[node], self.now, command);
            TxTicket::pending(rx)
        }

        fn write(&mut self, node: usize, object: u64, policy: &RetryPolicy) -> TxTicket<()> {
            let work = Work::Write(erase(move |tx: &mut TxCtx<'_>| {
                tx.write(ObjectId(object), Bytes::from_static(b"w"))
            }));
            self.submit(node, work, policy)
        }

        fn poll(&mut self, node: usize) -> bool {
            self.drivers[node].poll(&mut self.nodes[node], self.now)
        }

        /// Delivers every queued message and whatever those set off.
        fn deliver_all(&mut self) {
            loop {
                let mut moved = false;
                for from in 0..self.nodes.len() {
                    for (to, msg) in self.nodes[from].drain_outbox() {
                        self.nodes[to.index()].handle_message(NodeId(from as u16), msg);
                        moved = true;
                    }
                }
                if !moved {
                    return;
                }
            }
        }

        /// Takes the one ownership REQ `node` has queued off the wire.
        fn take_request(&mut self, node: usize) -> RequestId {
            let sent = self.nodes[node].drain_outbox();
            match sent.as_slice() {
                [(_, Message::Ownership(OwnershipMsg::Req { req_id, .. }))] => *req_id,
                other => panic!("expected one REQ, found {other:?}"),
            }
        }

        /// Answers `request` of `node` (for object 1) with a NACK.
        fn nack(&mut self, node: usize, request: RequestId, reason: NackReason) {
            let nack = OwnershipMsg::Nack {
                req_id: request,
                object: ObjectId(1),
                reason,
                epoch: Epoch::ZERO,
                from: NodeId(0),
            };
            self.nodes[node].handle_message(NodeId(0), Message::Ownership(nack));
        }
    }

    #[test]
    fn a_failed_round_costs_one_attempt_and_is_reissued_when_its_back_off_lapses() {
        let mut t = Trio::new();
        let policy = RetryPolicy::with_budget(2);
        let back_off = policy.backoff(1).as_micros() as u64;
        let mut ticket = t.write(2, 1, &policy);
        let first = t.take_request(2);
        t.nack(2, first, LOST);

        t.now += 10;
        assert!(t.poll(2), "the outcome is read");
        assert!(
            t.nodes[2].drain_outbox().is_empty(),
            "and nothing re-issued"
        );
        assert_eq!(
            t.nodes[2].tracked_requests(),
            0,
            "the failed round is released"
        );
        let deadline = t.now + back_off;
        assert_eq!(t.drivers[2].next_deadline(t.now), Some(deadline));
        t.now = deadline - 1;
        assert!(!t.poll(2));
        assert!(t.nodes[2].drain_outbox().is_empty(), "one tick early");
        t.now = deadline;
        assert!(t.poll(2));
        let second = t.take_request(2);
        assert_ne!(first, second, "a fresh round");
        assert_eq!(ticket.try_poll(), None);

        // A budget of two is one retry: the second failure ends it.
        t.nack(2, second, LOST);
        assert!(t.poll(2));
        assert_eq!(ticket.try_poll(), Some(Err(TxError::RetriesExhausted)));
        assert!(!t.drivers[2].has_waiters());
        assert_eq!(t.nodes[2].tracked_requests(), 0);
    }

    #[test]
    fn without_a_budget_a_failed_round_surfaces_with_its_object() {
        let mut t = Trio::new();
        let mut ticket = t.write(2, 1, &RetryPolicy::no_retry());
        let request = t.take_request(2);
        t.nack(2, request, LOST);
        assert!(t.poll(2));
        let error = TxError::OwnershipFailed {
            object: ObjectId(1),
            reason: LOST,
        };
        assert_eq!(ticket.try_poll(), Some(Err(error)));
    }

    #[test]
    fn a_parked_read_does_not_delay_a_write_submitted_after_it() {
        let mut t = Trio::new();
        let policy = RetryPolicy::default();
        // Node 0 commits a write of object 1; the R-INVs reach both readers
        // and their R-ACKs stay on the wire.
        assert!(t.nodes[0]
            .execute_write(0, |tx| tx.write(ObjectId(1), Bytes::from_static(b"1")))
            .is_committed());
        for (to, msg) in t.nodes[0].drain_outbox() {
            t.nodes[to.index()].handle_message(NodeId(0), msg);
        }

        let read = Work::Read(erase(|tx: &mut TxCtx<'_>| tx.read(ObjectId(1))));
        let mut read: TxTicket<Bytes> = t.submit(1, read, &policy);
        let mut write = t.write(1, 2, &policy);
        assert_eq!(write.try_poll(), Some(Ok(())), "the write went past it");
        assert_eq!(read.try_poll(), None, "the read waits for the R-VAL");
        assert!(
            !t.poll(1),
            "which has not come, nor has its back-off lapsed"
        );

        t.deliver_all();
        assert!(t.poll(1), "a message was handled: worth another try");
        assert_eq!(read.try_poll(), Some(Ok(Bytes::from_static(b"1"))));
        assert_eq!(
            t.nodes[1].stats().txs_aborted,
            1,
            "one conflict, one attempt"
        );
    }

    #[test]
    fn a_read_conflict_is_charged_and_retried_when_its_back_off_lapses() {
        let mut t = Trio::new();
        assert!(t.nodes[0]
            .execute_write(0, |tx| tx.write(ObjectId(1), Bytes::from_static(b"1")))
            .is_committed());
        for (to, msg) in t.nodes[0].drain_outbox() {
            t.nodes[to.index()].handle_message(NodeId(0), msg);
        }
        let read = || Work::Read(erase(|tx: &mut TxCtx<'_>| tx.read(ObjectId(1))));
        let mut once: TxTicket<Bytes> = t.submit(1, read(), &RetryPolicy::no_retry());
        assert_eq!(once.try_poll(), Some(Err(TxError::ReadConflict)));

        // No message ever comes: each lapsed back-off is one more attempt.
        let policy = RetryPolicy::with_budget(3);
        let mut ticket: TxTicket<Bytes> = t.submit(1, read(), &policy);
        t.now += policy.backoff(1).as_micros() as u64;
        assert!(t.poll(1));
        assert_eq!(ticket.try_poll(), None, "two of three spent");
        t.now += policy.backoff(2).as_micros() as u64;
        assert!(t.poll(1));
        assert_eq!(ticket.try_poll(), Some(Err(TxError::RetriesExhausted)));
    }

    #[test]
    fn a_stolen_back_grant_charges_one_attempt() {
        let mut t = Trio::new();
        let policy = RetryPolicy::with_budget(2);
        let mut ticket = t.write(2, 1, &policy);
        t.deliver_all();
        assert!(t.drivers[2].grant_landed(&t.nodes[2], t.now));
        // Before node 2 gets to run, node 0 takes the object back.
        let back = t.nodes[0].acquire(ObjectId(1), OwnershipRequestKind::AcquireOwner);
        t.deliver_all();
        assert!(t.nodes[0].owns(ObjectId(1)));

        assert!(
            t.poll(2),
            "the grant is read and the write runs, to find it gone"
        );
        assert_eq!(ticket.try_poll(), None);
        let deadline = t.now + policy.backoff(1).as_micros() as u64;
        assert_eq!(t.drivers[2].next_deadline(t.now), Some(deadline));
        t.deliver_all();
        assert!(t.nodes[2].owns(ObjectId(1)), "the second round is granted");
        assert!(!t.poll(2), "but the charged write sits out its back-off");
        assert!(!t.drivers[2].grant_landed(&t.nodes[2], t.now));
        t.now = deadline;
        assert!(t.poll(2));
        assert_eq!(ticket.try_poll(), Some(Ok(())));

        t.nodes[0].release_request(back);
        assert_eq!(t.nodes[0].tracked_requests(), 0);
        assert_eq!(t.nodes[2].tracked_requests(), 0);
    }

    #[test]
    fn a_steal_with_the_budget_spent_gives_up_the_round_it_started() {
        let mut t = Trio::new();
        let mut ticket = t.write(2, 1, &RetryPolicy::no_retry());
        t.deliver_all();
        let back = t.nodes[0].acquire(ObjectId(1), OwnershipRequestKind::AcquireOwner);
        t.deliver_all();
        assert!(t.poll(2));
        assert_eq!(ticket.try_poll(), Some(Err(TxError::RetriesExhausted)));
        t.nodes[0].release_request(back);
        assert_eq!(t.nodes[2].tracked_requests(), 0);
    }

    /// Ticks `node` at `now`, then at every tick before the timer it names,
    /// and requires each of those to send nothing and count nothing.
    /// Returns the timer.
    fn quiet_until_next_timer(node: &mut ZeusNode, now: u64) -> u64 {
        node.tick(now);
        node.drain_outbox();
        quiet_before_next_timer(node, now)
    }

    /// [`quiet_until_next_timer`] for a node that was not ticked at `now`.
    fn quiet_before_next_timer(node: &mut ZeusNode, now: u64) -> u64 {
        let counters = |node: &ZeusNode| {
            let re_sent = (
                node.commit_stats().rinvs_retransmitted,
                node.ownership_stats().requests_retransmitted,
            );
            // Everything but the count of the ticks themselves.
            let stats = NodeStats {
                ticks: 0,
                quiet_ticks: 0,
                ..node.stats()
            };
            format!("{stats:?} {re_sent:?}")
        };
        let next = node.next_timer(now);
        assert!(next > now, "a timer at or before `now` would spin the loop");
        let before = counters(node);
        for t in now + 1..next {
            node.tick(t);
            let sent = node.drain_outbox();
            assert!(
                sent.is_empty(),
                "next_timer({now}) = {next}, yet tick({t}) sent {sent:?}"
            );
        }
        assert_eq!(counters(node), before, "counted something before {next}");
        next
    }

    #[test]
    fn next_timer_is_never_late() {
        let lease = ZeusConfig::default().lease_ticks;
        let retransmit = crate::node::RETRANSMIT_TICKS;

        // Idle: nothing before the heartbeat cadence.
        let mut t = Trio::new();
        let next = quiet_until_next_timer(&mut t.nodes[0], t.now);
        assert!(next <= t.now + lease / 4, "heartbeats bound every sleep");

        // A commit outstanding: quiet until its R-INVs have waited a whole
        // interval, and re-sent right then.
        let mut t = Trio::new();
        t.nodes[0].tick(t.now);
        assert!(t.nodes[0]
            .execute_write(0, |tx| tx.write(ObjectId(1), Bytes::from_static(b"1")))
            .is_committed());
        let next = quiet_until_next_timer(&mut t.nodes[0], t.now);
        assert_eq!(next, t.now + retransmit);
        t.nodes[0].tick(next);
        assert_eq!(t.nodes[0].commit_stats().rinvs_retransmitted, 2);

        // Work that arrives from outside the loop: the runtime ticked the
        // node and went to sleep until the heartbeat; half-way there a
        // caller moves the clock and commits, and nothing ticks. The timer
        // the node names then is the commit's, earlier than what the
        // runtime sleeps until — which is why the caller has to tell it.
        let mut t = Trio::new();
        t.nodes[0].tick(t.now);
        t.nodes[0].drain_outbox();
        let asleep_until = t.nodes[0].next_timer(t.now);
        let arrived = t.now + (asleep_until - t.now) / 2;
        t.nodes[0].advance_clock(arrived);
        assert!(t.nodes[0]
            .execute_write(0, |tx| tx.write(ObjectId(1), Bytes::from_static(b"1")))
            .is_committed());
        t.nodes[0].drain_outbox();
        let next = quiet_before_next_timer(&mut t.nodes[0], arrived);
        assert_eq!(next, arrived + retransmit);
        assert!(next < asleep_until);
        t.nodes[0].tick(next);
        assert_eq!(t.nodes[0].commit_stats().rinvs_retransmitted, 2);

        // A request pending, its REQ lost.
        let mut t = Trio::new();
        t.nodes[2].tick(t.now);
        t.nodes[2].drain_outbox();
        let _ticket = t.write(2, 1, &RetryPolicy::default());
        let request = t.take_request(2);
        let next = quiet_until_next_timer(&mut t.nodes[2], t.now);
        t.nodes[2].tick(next);
        assert_eq!(t.take_request(2), request, "re-sent when its timer said");

        // The same request NACKed retryably: it waits in the retry queue.
        t.nack(2, request, NackReason::PendingCommit);
        let next = quiet_until_next_timer(&mut t.nodes[2], next);
        t.nodes[2].tick(next);
        assert_eq!(t.take_request(2), request, "re-issued when its timer said");

        // A suspected peer: node 1 keeps its lease at node 0 alive, node 2
        // never speaks, so node 0 proposes its expulsion and retries that.
        let mut t = Trio::new();
        t.now = 2 * lease + lease / 2;
        t.nodes[1].tick(t.now);
        t.nodes[0].advance_clock(t.now);
        for (to, msg) in t.nodes[1].drain_outbox() {
            if to == NodeId(0) {
                t.nodes[0].handle_message(NodeId(1), msg);
            }
        }
        t.nodes[0].tick(t.now);
        assert!(!t.nodes[0].is_fenced(), "it still hears node 1");
        let proposals = t.nodes[0].drain_outbox();
        assert!(
            proposals
                .iter()
                .any(|(_, msg)| matches!(msg, Message::View(_))),
            "node 0 suspects node 2: {proposals:?}"
        );
        let next = quiet_until_next_timer(&mut t.nodes[0], t.now);
        quiet_until_next_timer(&mut t.nodes[0], next);

        // The policy engine on, with a read for it to think about.
        let predictive = ZeusConfig::with_nodes(3).with_policy(zeus_proto::PolicyKind::Predictive);
        let interval = predictive.policy_interval_ticks;
        let mut t = Trio::with_config(predictive);
        t.nodes[1].tick(t.now);
        assert!(matches!(
            t.nodes[1].execute_read(|tx| tx.read(ObjectId(1))),
            ReadOutcome::Committed { .. }
        ));
        let next = quiet_until_next_timer(&mut t.nodes[1], t.now);
        assert!(
            next <= t.now + interval,
            "the next planning round is a timer"
        );
        quiet_until_next_timer(&mut t.nodes[1], next);
    }

    #[test]
    fn cancelling_leaves_no_request_behind() {
        let mut t = Trio::new();
        let policy = RetryPolicy::default();
        let mut write = t.write(2, 1, &policy);
        // The acquisition wants what the write wants: one request, shared.
        let acquire = Work::Acquire {
            object: ObjectId(1),
            kind: OwnershipRequestKind::AcquireOwner,
        };
        let mut acquire: TxTicket<()> = t.submit(2, acquire, &policy);
        assert_eq!(t.nodes[2].stats().ownership_requests, 1);
        assert!(t.drivers[2].has_waiters());

        t.drivers[2].fail_all(&mut t.nodes[2], &TxError::RetriesExhausted);
        assert_eq!(write.try_poll(), Some(Err(TxError::RetriesExhausted)));
        assert_eq!(acquire.try_poll(), Some(Err(TxError::RetriesExhausted)));
        assert!(!t.drivers[2].has_waiters());
        assert_eq!(t.nodes[2].tracked_requests(), 0);
        t.nodes[2].drain_outbox();
        assert!(
            t.nodes[2].is_quiescent(),
            "the engine forgot the request too"
        );
    }
}
