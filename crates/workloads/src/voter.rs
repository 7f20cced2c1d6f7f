//! Voter: the phone-voting benchmark with popularity skew (Figures 10–12).
//!
//! Every vote updates two objects: the contestant's running total and the
//! voter's history row. Contestant popularity is skewed, which is what the
//! paper exploits to demonstrate moving a *hot* object (the popular
//! contestant) between nodes while the rest of the system keeps voting.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zeus_proto::ObjectId;

use crate::zipf::Zipf;
use crate::{InitialObject, Operation, Workload};

/// Contestant table tag.
pub const TABLE_CONTESTANT: u8 = 20;
/// Voter (phone number) table tag.
pub const TABLE_VOTER: u8 = 21;

/// Size of a contestant row.
pub const CONTESTANT_BYTES: usize = 32;
/// Size of a voter-history row.
pub const VOTER_BYTES: usize = 24;

/// The Voter workload generator.
#[derive(Debug)]
pub struct VoterWorkload {
    voters: u64,
    contestants: u64,
    zipf: Zipf,
    rng: StdRng,
}

impl VoterWorkload {
    /// Creates a Voter workload (`contestants` is 20 and `voters` 1 M in the
    /// paper's experiments).
    pub fn new(voters: u64, contestants: u64, seed: u64) -> Self {
        assert!(voters >= 1 && contestants >= 1);
        VoterWorkload {
            voters,
            contestants,
            zipf: Zipf::new(contestants, 0.95),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Object of contestant `c`.
    pub fn contestant(c: u64) -> ObjectId {
        ObjectId::from_table_row(TABLE_CONTESTANT, c)
    }

    /// Object of voter `v`.
    pub fn voter(v: u64) -> ObjectId {
        ObjectId::from_table_row(TABLE_VOTER, v)
    }

    /// Number of voter objects.
    pub fn voters(&self) -> u64 {
        self.voters
    }

    /// The hottest contestant (index 0 under the Zipf skew).
    pub fn hot_contestant(&self) -> ObjectId {
        Self::contestant(0)
    }
}

impl Workload for VoterWorkload {
    fn initial_objects(&self) -> Vec<InitialObject> {
        let mut out = Vec::with_capacity((self.voters + self.contestants) as usize);
        for c in 0..self.contestants {
            out.push(InitialObject {
                id: Self::contestant(c),
                size: CONTESTANT_BYTES,
                home_key: c,
            });
        }
        for v in 0..self.voters {
            out.push(InitialObject {
                id: Self::voter(v),
                size: VOTER_BYTES,
                // A voter's requests are routed by the contestant they vote
                // for most; approximating with a per-voter favourite keeps
                // the vote transaction single-node most of the time.
                home_key: v % self.contestants,
            });
        }
        out
    }

    fn next_operation(&mut self) -> Operation {
        let contestant = self.zipf.sample(&mut self.rng);
        let voter = self.rng.gen_range(0..self.voters);
        Operation::write(
            "vote",
            contestant,
            vec![],
            vec![
                (Self::contestant(contestant), CONTESTANT_BYTES),
                (Self::voter(voter), VOTER_BYTES),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_objects_cover_contestants_and_voters() {
        let w = VoterWorkload::new(1_000, 20, 1);
        assert_eq!(w.initial_objects().len(), 1_020);
    }

    #[test]
    fn every_vote_touches_exactly_two_objects() {
        let mut w = VoterWorkload::new(1_000, 20, 2);
        for _ in 0..1_000 {
            let op = w.next_operation();
            assert!(!op.read_only);
            assert_eq!(op.writes.len(), 2);
            assert_eq!(op.writes[0].0.table(), TABLE_CONTESTANT);
            assert_eq!(op.writes[1].0.table(), TABLE_VOTER);
        }
    }

    #[test]
    fn popularity_is_skewed_towards_the_hot_contestant() {
        let mut w = VoterWorkload::new(10_000, 20, 3);
        let total = 20_000;
        let hot = (0..total)
            .filter(|_| {
                let op = w.next_operation();
                op.writes[0].0 == VoterWorkload::contestant(0)
            })
            .count();
        assert!(
            hot as f64 / total as f64 > 0.2,
            "hot contestant share too small: {hot}"
        );
    }
}
