//! TATP: the read-intensive telecom benchmark (Table 2, Figure 9).
//!
//! Four tables (subscriber, access-info, special-facility, call-forwarding),
//! seven transaction types, 80 % reads. As in the paper's Figure 9, the
//! interesting knob is the fraction of *write* transactions that touch a
//! subscriber homed on a different node (forcing an ownership change).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zeus_proto::ObjectId;

use crate::{InitialObject, Operation, Workload};

/// Subscriber table tag.
pub const TABLE_SUBSCRIBER: u8 = 10;
/// Access-info table tag.
pub const TABLE_ACCESS_INFO: u8 = 11;
/// Special-facility table tag.
pub const TABLE_SPECIAL_FACILITY: u8 = 12;
/// Call-forwarding table tag.
pub const TABLE_CALL_FORWARDING: u8 = 13;

/// Size of a subscriber row (33 columns in the spec, ~100 B packed).
pub const SUBSCRIBER_BYTES: usize = 100;
/// Size of the auxiliary rows.
pub const AUX_BYTES: usize = 48;

/// The TATP workload generator.
#[derive(Debug)]
pub struct TatpWorkload {
    subscribers: u64,
    groups: u64,
    remote_write_fraction: f64,
    rng: StdRng,
}

impl TatpWorkload {
    /// Creates a TATP workload with `subscribers` subscribers spread over
    /// `groups` affinity groups; `remote_write_fraction` of write
    /// transactions target a subscriber homed in another group.
    pub fn new(subscribers: u64, groups: u64, remote_write_fraction: f64, seed: u64) -> Self {
        assert!(subscribers >= 1 && groups >= 1);
        TatpWorkload {
            subscribers,
            groups,
            remote_write_fraction,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Subscriber row object.
    pub fn subscriber(s: u64) -> ObjectId {
        ObjectId::from_table_row(TABLE_SUBSCRIBER, s)
    }
    /// Access-info row object.
    pub fn access_info(s: u64) -> ObjectId {
        ObjectId::from_table_row(TABLE_ACCESS_INFO, s)
    }
    /// Special-facility row object.
    pub fn special_facility(s: u64) -> ObjectId {
        ObjectId::from_table_row(TABLE_SPECIAL_FACILITY, s)
    }
    /// Call-forwarding row object.
    pub fn call_forwarding(s: u64) -> ObjectId {
        ObjectId::from_table_row(TABLE_CALL_FORWARDING, s)
    }

    fn group_of(&self, s: u64) -> u64 {
        s % self.groups
    }

    fn pick_subscriber(&mut self, force_remote_from: Option<u64>) -> u64 {
        match force_remote_from {
            None => self.rng.gen_range(0..self.subscribers),
            Some(local_group) => {
                if self.groups == 1 {
                    return self.rng.gen_range(0..self.subscribers);
                }
                loop {
                    let s = self.rng.gen_range(0..self.subscribers);
                    if self.group_of(s) != local_group {
                        return s;
                    }
                }
            }
        }
    }
}

impl Workload for TatpWorkload {
    fn initial_objects(&self) -> Vec<InitialObject> {
        let mut out = Vec::with_capacity(self.subscribers as usize * 4);
        for s in 0..self.subscribers {
            let home_key = self.group_of(s);
            out.push(InitialObject {
                id: Self::subscriber(s),
                size: SUBSCRIBER_BYTES,
                home_key,
            });
            out.push(InitialObject {
                id: Self::access_info(s),
                size: AUX_BYTES,
                home_key,
            });
            out.push(InitialObject {
                id: Self::special_facility(s),
                size: AUX_BYTES,
                home_key,
            });
            out.push(InitialObject {
                id: Self::call_forwarding(s),
                size: AUX_BYTES,
                home_key,
            });
        }
        out
    }

    fn next_operation(&mut self) -> Operation {
        let s = self.rng.gen_range(0..self.subscribers);
        let key = self.group_of(s);
        let dice: f64 = self.rng.gen();
        // The standard TATP mix: 80 % reads (get-subscriber-data 35 %,
        // get-new-destination 10 %, get-access-data 35 %), 20 % writes
        // (update-subscriber-data 2 %, update-location 14 %,
        // insert/delete-call-forwarding 2 % each).
        if dice < 0.35 {
            Operation::read("get-subscriber-data", key, vec![Self::subscriber(s)])
        } else if dice < 0.45 {
            Operation::read(
                "get-new-destination",
                key,
                vec![Self::special_facility(s), Self::call_forwarding(s)],
            )
        } else if dice < 0.80 {
            Operation::read("get-access-data", key, vec![Self::access_info(s)])
        } else {
            // Write transaction: maybe redirected to a remote subscriber.
            let remote = self.rng.gen_bool(self.remote_write_fraction);
            let target = if remote {
                self.pick_subscriber(Some(key))
            } else {
                s
            };
            let tkey = self.group_of(if remote { s } else { target });
            if dice < 0.82 {
                Operation::write(
                    "update-subscriber-data",
                    tkey,
                    vec![],
                    vec![
                        (Self::subscriber(target), SUBSCRIBER_BYTES),
                        (Self::special_facility(target), AUX_BYTES),
                    ],
                )
            } else if dice < 0.96 {
                Operation::write(
                    "update-location",
                    tkey,
                    vec![],
                    vec![(Self::subscriber(target), SUBSCRIBER_BYTES)],
                )
            } else if dice < 0.98 {
                Operation::write(
                    "insert-call-forwarding",
                    tkey,
                    vec![Self::special_facility(target)],
                    vec![(Self::call_forwarding(target), AUX_BYTES)],
                )
            } else {
                Operation::write(
                    "delete-call-forwarding",
                    tkey,
                    vec![],
                    vec![(Self::call_forwarding(target), AUX_BYTES)],
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_objects_per_subscriber() {
        let w = TatpWorkload::new(50, 5, 0.0, 1);
        assert_eq!(w.initial_objects().len(), 200);
    }

    #[test]
    fn mix_is_roughly_80_percent_reads() {
        let mut w = TatpWorkload::new(10_000, 10, 0.0, 2);
        let total = 20_000;
        let reads = (0..total).filter(|_| w.next_operation().read_only).count();
        let frac = reads as f64 / total as f64;
        assert!((frac - 0.80).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn remote_fraction_moves_write_targets_across_groups() {
        let mut w = TatpWorkload::new(10_000, 10, 1.0, 3);
        for _ in 0..5_000 {
            let op = w.next_operation();
            if !op.read_only {
                // All written objects belong to one subscriber whose group
                // differs from the routing key's group.
                let target_group = op.writes[0].0.row() % 10;
                assert_ne!(target_group, op.routing_key % 10);
            }
        }
    }
}
