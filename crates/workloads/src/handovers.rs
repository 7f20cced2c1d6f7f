//! Cellular handovers: the benchmark introduced by the paper (§2, §8.1,
//! Figure 7), driven by a simple mobility model.
//!
//! Objects are phone contexts (large, ~400 B of modified state per
//! transaction) and base-station contexts. Stationary users only issue
//! *service request* and *release* transactions against their current base
//! station; mobile users additionally perform *handovers* (modelled as two
//! transactions: handover-start at the old station, handover-finish at the
//! new one), and a handover is *remote* when the two base stations are homed
//! on different nodes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zeus_proto::ObjectId;

use crate::{InitialObject, Operation, Workload};

/// Phone-context table tag.
pub const TABLE_PHONE: u8 = 30;
/// Base-station-context table tag.
pub const TABLE_STATION: u8 = 31;

/// Bytes of phone context modified per transaction (§8.1: "about 400 B").
pub const PHONE_BYTES: usize = 400;
/// Bytes of base-station context modified per transaction.
pub const STATION_BYTES: usize = 128;

/// The Handovers workload generator.
#[derive(Debug)]
pub struct HandoverWorkload {
    users: u64,
    mobile_users: u64,
    stations: u64,
    handover_fraction: f64,
    /// Current base station of each mobile user (stationary users stay on
    /// `user % stations` forever).
    attachment: Vec<u64>,
    rng: StdRng,
}

impl HandoverWorkload {
    /// Creates a handovers workload: `users` subscribers of which
    /// `mobile_users` move, `stations` base stations, and
    /// `handover_fraction` of all transactions being handovers (2.5 % in a
    /// typical network, 5 % for doubled mobility, §8.1).
    pub fn new(
        users: u64,
        mobile_users: u64,
        stations: u64,
        handover_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(users >= 1 && stations >= 1 && mobile_users <= users);
        let attachment = (0..users).map(|u| u % stations).collect();
        HandoverWorkload {
            users,
            mobile_users,
            stations,
            handover_fraction,
            attachment,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Phone-context object of user `u`.
    pub fn phone(u: u64) -> ObjectId {
        ObjectId::from_table_row(TABLE_PHONE, u)
    }

    /// Base-station-context object of station `s`.
    pub fn station(s: u64) -> ObjectId {
        ObjectId::from_table_row(TABLE_STATION, s)
    }

    /// Number of base stations.
    pub fn stations(&self) -> u64 {
        self.stations
    }
}

impl Workload for HandoverWorkload {
    fn initial_objects(&self) -> Vec<InitialObject> {
        let mut out = Vec::with_capacity((self.users + self.stations) as usize);
        for s in 0..self.stations {
            out.push(InitialObject {
                id: Self::station(s),
                size: STATION_BYTES,
                home_key: s,
            });
        }
        for u in 0..self.users {
            out.push(InitialObject {
                id: Self::phone(u),
                size: PHONE_BYTES,
                // A phone is co-located with the base station it is attached
                // to, which is what the load balancer enforces.
                home_key: self.attachment[u as usize],
            });
        }
        out
    }

    fn next_operation(&mut self) -> Operation {
        let is_handover =
            self.mobile_users > 0 && self.rng.gen_bool(self.handover_fraction.min(1.0));
        if is_handover {
            // Pick a mobile user and move it to a geographically adjacent
            // station (stations are laid out on a line of 1 km cells; a
            // commute crosses neighbouring cells one at a time).
            let u = self.rng.gen_range(0..self.mobile_users);
            let old = self.attachment[u as usize];
            let step = if self.rng.gen_bool(0.5) {
                1
            } else {
                self.stations - 1
            };
            let new = (old + step) % self.stations;
            self.attachment[u as usize] = new;
            // A handover consists of two transactions (start + finish); we
            // emit the start here and model the finish as the next service
            // request, as both touch phone + new station. The start touches
            // the phone, the old and the new station contexts.
            Operation::write(
                "handover",
                new,
                vec![],
                vec![
                    (Self::phone(u), PHONE_BYTES),
                    (Self::station(old), STATION_BYTES),
                    (Self::station(new), STATION_BYTES),
                ],
            )
        } else {
            let u = self.rng.gen_range(0..self.users);
            let station = self.attachment[u as usize];
            let kind = if self.rng.gen_bool(0.5) {
                "service-request"
            } else {
                "release"
            };
            Operation::write(
                kind,
                station,
                vec![],
                vec![
                    (Self::phone(u), PHONE_BYTES),
                    (Self::station(station), STATION_BYTES),
                ],
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_objects_cover_phones_and_stations() {
        let w = HandoverWorkload::new(1_000, 100, 50, 0.025, 1);
        assert_eq!(w.initial_objects().len(), 1_050);
    }

    #[test]
    fn handover_fraction_is_respected() {
        let mut w = HandoverWorkload::new(10_000, 2_000, 100, 0.05, 2);
        let total = 40_000;
        let handovers = (0..total)
            .filter(|_| w.next_operation().kind == "handover")
            .count();
        let frac = handovers as f64 / total as f64;
        assert!((frac - 0.05).abs() < 0.01, "handover fraction {frac}");
    }

    #[test]
    fn stationary_users_always_hit_the_same_station() {
        let mut w = HandoverWorkload::new(100, 0, 10, 0.0, 3);
        let mut seen: std::collections::HashMap<u64, u64> = Default::default();
        for _ in 0..5_000 {
            let op = w.next_operation();
            let phone = op.writes[0].0.row();
            let station = op.writes[1].0.row();
            let prev = seen.entry(phone).or_insert(station);
            assert_eq!(*prev, station, "stationary user moved");
        }
    }

    #[test]
    fn handovers_move_to_adjacent_stations() {
        let mut w = HandoverWorkload::new(100, 100, 10, 1.0, 4);
        for _ in 0..1_000 {
            let op = w.next_operation();
            assert_eq!(op.kind, "handover");
            let old = op.writes[1].0.row();
            let new = op.writes[2].0.row();
            let dist = (old as i64 - new as i64).rem_euclid(10);
            assert!(dist == 1 || dist == 9, "non-adjacent handover {old}->{new}");
        }
    }
}
