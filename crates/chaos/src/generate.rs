//! Seeded fault-schedule generation.
//!
//! [`generate_schedule`] derives one [`Schedule`] from a `(seed, index)`
//! pair — identical inputs yield identical schedules, so an exploration run
//! is fully described by its base seed and schedule count.
//!
//! The generator composes the fault vocabulary into *scenarios*, not just
//! random steps: an `Isolate` is usually followed by an `Advance` long
//! enough to blow the lease (false suspicion → expulsion → heal →
//! re-admission), hot bursts create contended ownership handovers while
//! faults are active, and crash/restart cycles exercise the rejoin reset.
//! It respects the deployment's safety envelope: at most a minority of
//! nodes is ever down (crashed or isolated) at once, at most a minority of
//! the *view-replica set* is ever down at once (a view quorum must stay
//! live to commit membership changes), and rejoin cycles per schedule are
//! bounded — beyond that envelope the protocols make no guarantees (a
//! majority of amnesiac directory replicas can lose data by design, as in
//! the paper's f+1 fault model).
//!
//! [`Profile::ViewChurn`] is the same generator with the fault victims
//! biased toward the view-replica set: it deliberately crashes and
//! isolates a minority of the nodes that *run the membership service
//! itself* while the workload churns, which is exactly the regime the old
//! single-acting-manager design could not survive.
//!
//! [`Profile::PolicyChurn`] keeps the default fault mix but leans the
//! workload toward reads, and the runner enables the predictive locality
//! engine — so policy-driven placement actions (widen, shrink,
//! pre-migrate) race crashes, partitions and expulsions instead of running
//! on a quiet cluster.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::schedule::{ChaosStep, LinkParams, NetParams, Schedule};

/// Which fault mix [`generate_schedule_with`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// The general mix: any live node is a fault victim.
    #[default]
    Default,
    /// Bias crash/isolate victims toward the view-replica set, so most
    /// schedules kill or partition a minority of the membership service's
    /// own replicas while ownership churns.
    ViewChurn,
    /// The default fault mix over a read-leaning workload; the runner
    /// turns the predictive locality engine on, so placement actions race
    /// the injected faults.
    PolicyChurn,
}

impl Profile {
    /// Parses the `--profile` CLI spelling.
    pub fn parse(s: &str) -> Result<Profile, String> {
        match s {
            "default" => Ok(Profile::Default),
            "view-churn" => Ok(Profile::ViewChurn),
            "policy-churn" => Ok(Profile::PolicyChurn),
            other => Err(format!(
                "unknown profile '{other}' (known: default, view-churn, policy-churn)"
            )),
        }
    }
}

/// Mixes the base seed and schedule index into an RNG stream.
fn rng_for(seed: u64, index: u64) -> StdRng {
    // SplitMix-style mix so consecutive indices land far apart.
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Tracks the generator's view of injected faults so schedules stay inside
/// the safety envelope.
struct FaultState {
    nodes: u16,
    /// Size of the view-replica set (the first N node ids) in the cluster
    /// the runner will build — mirrors `ZeusConfig::with_nodes`.
    view_replicas: u16,
    crashed: Vec<u16>,
    isolated: Vec<u16>,
    rejoin_cycles: u32,
}

impl FaultState {
    fn down(&self) -> usize {
        self.crashed.len() + self.isolated.len()
    }

    fn down_view(&self) -> usize {
        self.crashed
            .iter()
            .chain(self.isolated.iter())
            .filter(|&&n| n < self.view_replicas)
            .count()
    }

    /// The safety envelope, per candidate victim: at most a minority of
    /// the cluster down at once, and at most a minority of the
    /// view-replica set down at once (a live view quorum must remain to
    /// commit the very expulsions the fault provokes).
    fn may_take_down(&self, n: u16) -> bool {
        if (self.down() + 1) * 2 > self.nodes as usize {
            return false;
        }
        n >= self.view_replicas || (self.down_view() + 1) * 2 < self.view_replicas as usize + 1
    }

    /// Picks a fault victim inside the envelope, or `None` if every live
    /// node is envelope-protected. `ViewChurn` prefers view replicas.
    fn victim(&self, rng: &mut StdRng, profile: Profile) -> Option<u16> {
        let eligible: Vec<u16> = (0..self.nodes)
            .filter(|n| !self.crashed.contains(n) && !self.isolated.contains(n))
            .filter(|&n| self.may_take_down(n))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        if profile == Profile::ViewChurn {
            let view: Vec<u16> = eligible
                .iter()
                .copied()
                .filter(|&n| n < self.view_replicas)
                .collect();
            if !view.is_empty() && rng.gen_bool(0.8) {
                return Some(view[rng.gen_range(0..view.len())]);
            }
        }
        Some(eligible[rng.gen_range(0..eligible.len())])
    }

    fn up_nodes(&self, rng: &mut StdRng) -> u16 {
        loop {
            let n = rng.gen_range(0..self.nodes);
            if !self.crashed.contains(&n) && !self.isolated.contains(&n) {
                return n;
            }
        }
    }
}

/// Generates the `index`-th schedule of an exploration run based at `seed`,
/// with the [`Profile::Default`] fault mix.
pub fn generate_schedule(seed: u64, index: u64) -> Schedule {
    generate_schedule_with(seed, index, Profile::Default)
}

/// Generates the `index`-th schedule of an exploration run based at `seed`.
pub fn generate_schedule_with(seed: u64, index: u64, profile: Profile) -> Schedule {
    let mut rng = rng_for(seed, index);
    let nodes: u16 = if rng.gen_bool(0.75) { 3 } else { 5 };
    let objects: u64 = rng.gen_range(2..=5);
    let lease_ticks: u64 = *pick(&mut rng, &[1_500, 2_000, 3_000]);
    let drop_probability = *pick(&mut rng, &[0.0, 0.0, 0.0, 0.01, 0.03]);
    let duplicate_probability = *pick(&mut rng, &[0.0, 0.0, 0.01]);
    let mut net = NetParams {
        min_delay: 1,
        max_delay: *pick(&mut rng, &[4, 8, 16]),
        drop_probability,
        duplicate_probability,
        // Keep the seed within f64-exact range: the corpus format stores
        // numbers as JSON doubles.
        seed: rng.gen::<u64>() & ((1 << 53) - 1),
        links: Vec::new(),
    };
    // Occasionally add a heterogeneous (slow / flaky) link.
    if rng.gen_bool(0.2) {
        let from = rng.gen_range(0..nodes);
        let mut to = rng.gen_range(0..nodes);
        if to == from {
            to = (to + 1) % nodes;
        }
        net.links.push(LinkParams {
            from,
            to,
            min_delay: 4,
            max_delay: 32,
            drop_probability: *pick(&mut rng, &[0.0, 0.02]),
        });
    }

    let mut state = FaultState {
        nodes,
        view_replicas: 3u16.min(nodes),
        crashed: Vec::new(),
        isolated: Vec::new(),
        rejoin_cycles: 0,
    };
    let mut steps = Vec::new();
    let len = rng.gen_range(14..=36);
    while steps.len() < len {
        let roll: u32 = rng.gen_range(0..100);
        match roll {
            // Plain workload.
            0..=29 => {
                let node = state.up_nodes(&mut rng);
                let object = rng.gen_range(0..objects);
                // Policy churn leans the workload toward reads: remote
                // read streaks are what the predictive engine widens on,
                // so a write-heavy mix would leave it idle. The extra
                // draw happens only under this profile, keeping the other
                // profiles' RNG streams (and their schedules) unchanged.
                if profile == Profile::PolicyChurn && rng.gen_bool(0.5) {
                    steps.push(ChaosStep::Read { node, object });
                } else {
                    steps.push(ChaosStep::Write { node, object });
                }
            }
            30..=47 => steps.push(ChaosStep::Read {
                node: state.up_nodes(&mut rng),
                object: rng.gen_range(0..objects),
            }),
            48..=54 => steps.push(ChaosStep::Migrate {
                node: state.up_nodes(&mut rng),
                object: rng.gen_range(0..objects),
            }),
            // Contended handover burst across 2-3 live writers.
            55..=61 => {
                let mut writers = Vec::new();
                for _ in 0..rng.gen_range(2..=3usize) {
                    let w = state.up_nodes(&mut rng);
                    if !writers.contains(&w) {
                        writers.push(w);
                    }
                }
                steps.push(ChaosStep::HotBurst {
                    object: rng.gen_range(0..objects),
                    writers,
                    rounds: rng.gen_range(2..=4),
                });
            }
            // Time.
            62..=72 => steps.push(ChaosStep::Advance {
                ticks: rng.gen_range(lease_ticks / 8..=lease_ticks),
            }),
            73..=77 => steps.push(ChaosStep::Settle { steps: 30_000 }),
            // Crash / restart (operator-handled crash-stop).
            78..=82 => {
                if let Some(n) = state.victim(&mut rng, profile) {
                    state.crashed.push(n);
                    steps.push(ChaosStep::Crash { node: n });
                }
            }
            83..=85 => {
                if let Some(&n) = state.crashed.first() {
                    if state.rejoin_cycles < 2 {
                        state.crashed.retain(|&c| c != n);
                        state.rejoin_cycles += 1;
                        steps.push(ChaosStep::Restart { node: n });
                        steps.push(ChaosStep::Advance {
                            ticks: lease_ticks * 2,
                        });
                    }
                }
            }
            // False suspicion: isolate, blow the lease, heal, re-admit.
            86..=90 => {
                if state.rejoin_cycles < 2 {
                    let Some(n) = state.victim(&mut rng, profile) else {
                        continue;
                    };
                    state.isolated.push(n);
                    steps.push(ChaosStep::Isolate { node: n });
                    if rng.gen_bool(0.7) {
                        // Long enough for expulsion (lease + grace = 2x).
                        steps.push(ChaosStep::Advance {
                            ticks: lease_ticks * 3,
                        });
                    } else {
                        // Benign blip: heals before the lease runs out.
                        steps.push(ChaosStep::Advance {
                            ticks: lease_ticks / 2,
                        });
                    }
                    if rng.gen_bool(0.8) {
                        state.isolated.retain(|&i| i != n);
                        state.rejoin_cycles += 1;
                        steps.push(ChaosStep::HealNode { node: n });
                        steps.push(ChaosStep::Advance {
                            ticks: lease_ticks * 2,
                        });
                    }
                }
            }
            // Asymmetric partition between two live nodes.
            91..=93 => {
                let a = state.up_nodes(&mut rng);
                let b = state.up_nodes(&mut rng);
                if a != b {
                    steps.push(ChaosStep::PartitionPair { a, b });
                    steps.push(ChaosStep::Advance {
                        ticks: rng.gen_range(lease_ticks / 8..=lease_ticks / 2),
                    });
                    steps.push(ChaosStep::HealAll);
                }
            }
            // Link-level noise.
            94..=96 => steps.push(ChaosStep::Spike {
                from: rng.gen_range(0..nodes),
                to: rng.gen_range(0..nodes),
                extra: rng.gen_range(20..=200),
            }),
            _ => steps.push(ChaosStep::DropBurst {
                from: rng.gen_range(0..nodes),
                to: rng.gen_range(0..nodes),
                count: rng.gen_range(1..=12),
            }),
        }
    }
    // Close the schedule: heal everything, give re-admissions a window,
    // then settle. The runner's oracle settle re-checks all of this.
    steps.push(ChaosStep::HealAll);
    for &n in state.isolated.iter() {
        steps.push(ChaosStep::HealNode { node: n });
    }
    steps.push(ChaosStep::Advance {
        ticks: lease_ticks * 2,
    });
    steps.push(ChaosStep::Settle { steps: 60_000 });

    Schedule {
        name: format!("seed{seed}-{index:04}"),
        seed,
        nodes,
        objects,
        lease_ticks,
        net,
        steps,
    }
}

fn pick<'a, T>(rng: &mut StdRng, options: &'a [T]) -> &'a T {
    &options[rng.gen_range(0..options.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for index in 0..20 {
            assert_eq!(generate_schedule(42, index), generate_schedule(42, index));
        }
        assert_ne!(generate_schedule(42, 0), generate_schedule(43, 0));
        assert_ne!(generate_schedule(42, 0), generate_schedule(42, 1));
    }

    #[test]
    fn schedules_round_trip_through_the_corpus_format() {
        for index in 0..50 {
            let s = generate_schedule(7, index);
            let parsed = crate::schedule::Schedule::parse(&s.to_corpus_string()).unwrap();
            assert_eq!(parsed, s, "index {index}");
        }
    }

    #[test]
    fn schedules_respect_the_safety_envelope() {
        for profile in [Profile::Default, Profile::ViewChurn, Profile::PolicyChurn] {
            for index in 0..100 {
                let s = generate_schedule_with(99, index, profile);
                let view_replicas = 3u16.min(s.nodes);
                let mut down = 0usize;
                let mut max_down = 0usize;
                let mut down_view = 0usize;
                let mut max_down_view = 0usize;
                for step in &s.steps {
                    match step {
                        ChaosStep::Crash { node } | ChaosStep::Isolate { node } => {
                            down += 1;
                            max_down = max_down.max(down);
                            if *node < view_replicas {
                                down_view += 1;
                                max_down_view = max_down_view.max(down_view);
                            }
                        }
                        ChaosStep::Restart { node } | ChaosStep::HealNode { node } => {
                            down = down.saturating_sub(1);
                            if *node < view_replicas {
                                down_view = down_view.saturating_sub(1);
                            }
                        }
                        _ => {}
                    }
                }
                assert!(
                    max_down * 2 < s.nodes as usize + 1,
                    "{profile:?} index {index}: {max_down} of {} nodes down at once",
                    s.nodes
                );
                assert!(
                    max_down_view * 2 < view_replicas as usize + 1,
                    "{profile:?} index {index}: {max_down_view} of {view_replicas} view replicas down at once"
                );
            }
        }
    }

    #[test]
    fn view_churn_profile_crashes_view_replicas_during_churn() {
        // Across a modest batch, most view-churn schedules must take down
        // at least one view replica, and some must do so with workload
        // steps still to run afterwards (churn while the membership
        // service itself is degraded).
        let mut faulted_view = 0usize;
        let mut churned_after = 0usize;
        for index in 0..40 {
            let s = generate_schedule_with(7, index, Profile::ViewChurn);
            let view_replicas = 3u16.min(s.nodes);
            let fault_at = s.steps.iter().position(|step| {
                matches!(step, ChaosStep::Crash { node } | ChaosStep::Isolate { node }
                         if *node < view_replicas)
            });
            if let Some(at) = fault_at {
                faulted_view += 1;
                if s.steps[at + 1..].iter().any(|step| {
                    matches!(
                        step,
                        ChaosStep::Write { .. }
                            | ChaosStep::HotBurst { .. }
                            | ChaosStep::Migrate { .. }
                    )
                }) {
                    churned_after += 1;
                }
            }
        }
        assert!(
            faulted_view >= 25,
            "only {faulted_view}/40 view-churn schedules fault a view replica"
        );
        assert!(
            churned_after >= 15,
            "only {churned_after}/40 keep churning after the view-replica fault"
        );
    }

    #[test]
    fn profile_parsing() {
        assert_eq!(Profile::parse("default").unwrap(), Profile::Default);
        assert_eq!(Profile::parse("view-churn").unwrap(), Profile::ViewChurn);
        assert_eq!(
            Profile::parse("policy-churn").unwrap(),
            Profile::PolicyChurn
        );
        assert!(Profile::parse("bogus").is_err());
    }

    #[test]
    fn policy_churn_profile_leans_toward_reads() {
        // The default mix is write-heavy (30% writes vs 18% reads); the
        // policy-churn rebalance must flip that so the predictive engine
        // sees the remote read streaks it widens on. Faults must survive
        // the rebalance — a quiet-cluster policy sweep would test nothing.
        let mut reads = 0usize;
        let mut writes = 0usize;
        let mut faulted = 0usize;
        for index in 0..40 {
            let s = generate_schedule_with(7, index, Profile::PolicyChurn);
            for step in &s.steps {
                match step {
                    ChaosStep::Read { .. } => reads += 1,
                    ChaosStep::Write { .. } => writes += 1,
                    ChaosStep::Crash { .. }
                    | ChaosStep::Isolate { .. }
                    | ChaosStep::PartitionPair { .. } => faulted += 1,
                    _ => {}
                }
            }
        }
        assert!(
            reads > writes,
            "policy-churn schedules must be read-leaning ({reads} reads vs {writes} writes)"
        );
        assert!(
            faulted >= 40,
            "policy-churn schedules must keep injecting faults ({faulted} across 40 schedules)"
        );
    }
}
