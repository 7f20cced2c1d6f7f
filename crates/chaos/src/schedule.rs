//! Fault schedules as data: the step vocabulary and the replayable JSON
//! corpus format.
//!
//! A [`Schedule`] is a complete, self-contained experiment: cluster shape,
//! network parameters and a timed list of [`ChaosStep`]s. Schedules are
//! plain data so they can be generated from a seed, shrunk to a minimal
//! repro, serialised into `tests/chaos_corpus/` and replayed on every
//! `cargo test`.
//!
//! # Corpus format
//!
//! Format history: **v1** (PR 3) carried bare `t_version` counters in the
//! engine it replayed against; **v2** (current) marks schedules recorded
//! against the owner-qualified [`DataTs`](zeus_proto::DataTs) engine —
//! replicas order committed data by `<t_version, o_ts>`, the oracles key
//! on `DataTs`, and acquisitions can abort with `DataLoss`. The schedule
//! *fields* are unchanged, but v1-era runs are not comparable (the same
//! steps exercise different semantics), so v1 files are rejected rather
//! than silently replayed; migrate by re-validating the repro under the
//! current engine and bumping `version` to 2.
//!
//! A corpus file is `{"version": 2, …}` followed by [`Schedule`]'s fields,
//! each step an object led by its `"op"`. The `json_struct!` / `json_enum!`
//! field lists below are the schema: they generate both the writer and the
//! reader, so a field is declared once. `tests/chaos_corpus/` holds real
//! files, and `crates/chaos/tests/json_golden.rs` pins the layout of every
//! step.

use zeus_bench::json::{Json, JsonField};
use zeus_bench::{json_enum, json_struct};

json_struct! {
    /// Simulated-network parameters of a schedule (a serialisable subset of
    /// [`zeus_net::NetConfig`], plus optional per-link overrides).
    #[derive(Debug, Clone, PartialEq)]
    pub struct NetParams {
        /// Minimum one-way latency in ticks.
        pub min_delay: u64,
        /// Maximum one-way latency in ticks.
        pub max_delay: u64,
        /// Global drop probability.
        pub drop_probability: f64,
        /// Global duplication probability.
        pub duplicate_probability: f64,
        /// RNG seed of the simulated network.
        pub seed: u64,
        /// Per-link overrides; may be absent from a corpus file.
        pub links: Vec<LinkParams> = Vec::new(),
    }
}

json_struct! {
    /// One directed link's own latency and loss (a serialisable
    /// [`zeus_net::LinkOverride`]).
    #[derive(Debug, Clone, PartialEq)]
    pub struct LinkParams {
        /// Source node.
        pub from: u16,
        /// Destination node.
        pub to: u16,
        /// Minimum one-way latency in ticks.
        pub min_delay: u64,
        /// Maximum one-way latency in ticks.
        pub max_delay: u64,
        /// Drop probability of the link.
        pub drop_probability: f64,
    }
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            min_delay: 1,
            max_delay: 8,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            seed: 7,
            links: Vec::new(),
        }
    }
}

json_enum! {
    /// One step of a fault schedule.
    ///
    /// Workload steps (`Write`/`Read`/`Migrate`/`HotBurst`) drive transactions;
    /// fault steps mutate the fault plan; timing steps (`Advance`/`Settle`) are
    /// what turns faults into *scenarios* — e.g. `Isolate` followed by a long
    /// `Advance` opens a lease-expiry window, a short one stays benign.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ChaosStep {
        /// Run a write transaction on `node` against `object`.
        "write" => Write {
            /// Coordinator node.
            node: u16,
            /// Object id.
            object: u64,
        },
        /// Run a read-only transaction on `node` against `object`.
        "read" => Read {
            /// Serving node.
            node: u16,
            /// Object id.
            object: u64,
        },
        /// Explicitly migrate `object`'s ownership to `node`.
        "migrate" => Migrate {
            /// Destination node.
            node: u16,
            /// Object id.
            object: u64,
        },
        /// Contended ownership-handover burst: `rounds` rounds of writes to the
        /// same hot object, round-robin across `writers`.
        "hot_burst" => HotBurst {
            /// The hot object.
            object: u64,
            /// Competing coordinator nodes.
            writers: Vec<u16>,
            /// Rounds of the burst.
            rounds: u32,
        },
        /// Crash-stop `node` (the operator also proposes its expulsion through
        /// the view service, as `Admin::crash` does).
        "crash" => Crash {
            /// Crashed node.
            node: u16,
        },
        /// Restart a crashed node; the operator re-admits it and the rejoin
        /// path wipes its stale state.
        "restart" => Restart {
            /// Restarted node.
            node: u16,
        },
        /// Cut every link between `node` and the rest of the cluster (the node
        /// stays alive — lease-expiry pressure / false-suspicion fault).
        "isolate" => Isolate {
            /// Isolated node.
            node: u16,
        },
        /// Cut both directions between two nodes.
        "partition_pair" => PartitionPair {
            /// First node.
            a: u16,
            /// Second node.
            b: u16,
        },
        /// Heal every link of `node`.
        "heal_node" => HealNode {
            /// Healed node.
            node: u16,
        },
        /// Heal every injected link fault (cuts, spikes, drop bursts).
        "heal_all" => HealAll,
        /// Add `extra` ticks of one-way latency on `from → to` until healed.
        "spike" => Spike {
            /// Source node.
            from: u16,
            /// Destination node.
            to: u16,
            /// Extra latency in ticks.
            extra: u64,
        },
        /// Drop the next `count` messages sent on `from → to`.
        "drop_burst" => DropBurst {
            /// Source node.
            from: u16,
            /// Destination node.
            to: u16,
            /// Messages to drop.
            count: u64,
        },
        /// Advance simulated time by `ticks`, delivering and ticking along the
        /// way (opens lease/retransmission windows).
        "advance" => Advance {
            /// Ticks to advance.
            ticks: u64,
        },
        /// Let the cluster settle for up to `steps` simulation steps (does not
        /// require quiescence — the final oracle settle does).
        "settle" => Settle {
            /// Step budget.
            steps: u64,
        },
    }
}

json_struct! {
    /// A complete, replayable chaos experiment.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Schedule {
        /// Human-readable name (`seed<seed>-<index>` for generated schedules,
        /// free-form for corpus repros); may be absent from a corpus file.
        pub name: String = "unnamed".into(),
        /// Generator seed this schedule derives from (provenance; replay does
        /// not re-generate).
        pub seed: u64,
        /// Cluster size.
        pub nodes: u16,
        /// Number of pre-created objects (ids `0..objects`, object `o` homed on
        /// node `o % nodes`).
        pub objects: u64,
        /// Membership lease duration in ticks.
        pub lease_ticks: u64,
        /// Simulated-network parameters.
        pub net: NetParams,
        /// The timed steps.
        pub steps: Vec<ChaosStep>,
    }
}

/// Corpus format version this build writes and accepts (see the module
/// docs for the v1 → v2 migration note).
pub const CORPUS_VERSION: u64 = 2;

impl Schedule {
    /// Renders the schedule as pretty-printed corpus JSON: the format
    /// version, then the schedule's fields.
    pub fn to_corpus_string(&self) -> String {
        let Json::Obj(fields) = self.to_json() else {
            unreachable!("a schedule renders as an object")
        };
        let version = ("version".to_string(), CORPUS_VERSION.to_json());
        Json::Obj([version].into_iter().chain(fields).collect()).pretty()
    }

    /// Parses a schedule from corpus JSON text: the version gate first, then
    /// the fields, then the rules across them.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let version: u64 = zeus_bench::json::field(&v, "version", None)?;
        if version != CORPUS_VERSION {
            return Err(format!(
                "unsupported corpus version {version} (this build reads {CORPUS_VERSION})"
            ));
        }
        let mut schedule = Schedule::from_json(&v)?;
        let net = &schedule.net;
        let probabilities = [
            ("net.drop_probability", net.drop_probability),
            ("net.duplicate_probability", net.duplicate_probability),
        ]
        .into_iter()
        .chain(
            net.links
                .iter()
                .map(|l| ("net.links.drop_probability", l.drop_probability)),
        );
        for (name, p) in probabilities {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("field '{name}': {p} is not a probability"));
            }
        }
        if schedule.nodes == 0 {
            return Err("field 'nodes' must be positive".into());
        }
        schedule.lease_ticks = schedule.lease_ticks.max(1);
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            name: "sample".into(),
            seed: 42,
            nodes: 3,
            objects: 4,
            lease_ticks: 2_000,
            net: NetParams {
                drop_probability: 0.01,
                links: vec![LinkParams {
                    from: 0,
                    to: 2,
                    min_delay: 8,
                    max_delay: 24,
                    drop_probability: 0.05,
                }],
                ..NetParams::default()
            },
            steps: vec![
                ChaosStep::Write { node: 0, object: 1 },
                ChaosStep::HotBurst {
                    object: 2,
                    writers: vec![0, 1, 2],
                    rounds: 3,
                },
                ChaosStep::Isolate { node: 2 },
                ChaosStep::Advance { ticks: 6_000 },
                ChaosStep::Spike {
                    from: 0,
                    to: 1,
                    extra: 40,
                },
                ChaosStep::DropBurst {
                    from: 1,
                    to: 0,
                    count: 5,
                },
                ChaosStep::HealNode { node: 2 },
                ChaosStep::Crash { node: 1 },
                ChaosStep::Restart { node: 1 },
                ChaosStep::PartitionPair { a: 0, b: 1 },
                ChaosStep::HealAll,
                ChaosStep::Read { node: 1, object: 1 },
                ChaosStep::Migrate { node: 2, object: 0 },
                ChaosStep::Settle { steps: 50_000 },
            ],
        }
    }

    #[test]
    fn schedule_round_trips_through_corpus_json() {
        let s = sample();
        let text = s.to_corpus_string();
        let parsed = Schedule::parse(&text).unwrap();
        assert_eq!(parsed, s);
        // And the rendering is stable (replay of a replay is identical).
        assert_eq!(parsed.to_corpus_string(), text);
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(Schedule::parse("{}").is_err());
        assert!(Schedule::parse("not json").is_err());
        let wrong_version = sample()
            .to_corpus_string()
            .replace("\"version\": 2", "\"version\": 99");
        let err = Schedule::parse(&wrong_version).unwrap_err();
        assert!(err.contains("version"), "unexpected error: {err}");
        // Unknown ops are rejected, not ignored: a corpus file from a newer
        // build must not silently replay as a weaker schedule.
        let doc = sample().to_corpus_string().replace("hot_burst", "warp");
        assert!(Schedule::parse(&doc).is_err());
    }

    #[test]
    fn name_and_links_may_be_absent() {
        let doc = r#"{"version": 2, "seed": 1, "nodes": 1, "objects": 1, "lease_ticks": 0,
            "net": {"min_delay": 1, "max_delay": 1, "drop_probability": 0,
                    "duplicate_probability": 0, "seed": 7},
            "steps": []}"#;
        let parsed = Schedule::parse(doc).unwrap();
        assert_eq!(parsed.name, "unnamed");
        assert!(parsed.net.links.is_empty());
        // A zero lease reads as one tick.
        assert_eq!(parsed.lease_ticks, 1);
    }
}
