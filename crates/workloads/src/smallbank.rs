//! Smallbank: write-intensive banking transactions (Table 2, Figure 8).
//!
//! Each customer has a checking and a savings account object. The mix is the
//! standard one (85 % write transactions); accounts are drawn with a
//! FaSST-style Zipf skew, and with probability `remote_fraction` the second
//! party of a multi-party transaction is drawn from a *different* customer
//! group — which is what forces an ownership migration (or, for the
//! baselines, a distributed transaction).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zeus_proto::ObjectId;

use crate::zipf::Zipf;
use crate::{InitialObject, Operation, Workload};

/// Table tags for the smallbank objects.
pub const TABLE_CHECKING: u8 = 1;
/// Savings accounts table tag.
pub const TABLE_SAVINGS: u8 = 2;

/// Size in bytes of an account object (balance plus customer fields).
pub const ACCOUNT_BYTES: usize = 64;

/// The Smallbank workload generator.
#[derive(Debug)]
pub struct SmallbankWorkload {
    customers: u64,
    groups: u64,
    remote_fraction: f64,
    zipf: Zipf,
    rng: StdRng,
}

impl SmallbankWorkload {
    /// Creates a Smallbank workload over `customers` customers spread across
    /// `groups` affinity groups (one group maps to one load-balancer key).
    /// `remote_fraction` is the probability that a two-party transaction
    /// crosses groups.
    pub fn new(customers: u64, groups: u64, remote_fraction: f64, seed: u64) -> Self {
        assert!(customers >= 2 && groups >= 1);
        SmallbankWorkload {
            customers,
            groups,
            remote_fraction,
            zipf: Zipf::new(customers, 0.9),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Object holding customer `c`'s checking account.
    pub fn checking(c: u64) -> ObjectId {
        ObjectId::from_table_row(TABLE_CHECKING, c)
    }

    /// Object holding customer `c`'s savings account.
    pub fn savings(c: u64) -> ObjectId {
        ObjectId::from_table_row(TABLE_SAVINGS, c)
    }

    fn group_of(&self, customer: u64) -> u64 {
        customer % self.groups
    }

    fn pick_customer(&mut self) -> u64 {
        self.zipf.sample(&mut self.rng)
    }

    /// Picks a counter-party for `customer`: same group unless the remote
    /// coin flips.
    fn pick_partner(&mut self, customer: u64) -> u64 {
        let cross_group = self.rng.gen_bool(self.remote_fraction);
        for _ in 0..64 {
            let candidate = self.zipf.sample(&mut self.rng);
            if candidate == customer {
                continue;
            }
            let same = self.group_of(candidate) == self.group_of(customer);
            if same != cross_group {
                return candidate;
            }
        }
        (customer + self.groups) % self.customers
    }
}

impl Workload for SmallbankWorkload {
    fn initial_objects(&self) -> Vec<InitialObject> {
        let mut out = Vec::with_capacity(self.customers as usize * 2);
        for c in 0..self.customers {
            let home_key = self.group_of(c);
            out.push(InitialObject {
                id: Self::checking(c),
                size: ACCOUNT_BYTES,
                home_key,
            });
            out.push(InitialObject {
                id: Self::savings(c),
                size: ACCOUNT_BYTES,
                home_key,
            });
        }
        out
    }

    fn next_operation(&mut self) -> Operation {
        let c = self.pick_customer();
        let key = self.group_of(c);
        // Standard Smallbank mix: 15 % balance (read-only), 85 % writes split
        // across deposit-checking, transact-savings, write-check (single
        // customer, 2 objects) and amalgamate / send-payment (two customers,
        // 3+ objects), matching the paper's description (§8.2).
        let dice: f64 = self.rng.gen();
        if dice < 0.15 {
            Operation::read("balance", key, vec![Self::checking(c), Self::savings(c)])
        } else if dice < 0.40 {
            Operation::write(
                "deposit-checking",
                key,
                vec![],
                vec![(Self::checking(c), ACCOUNT_BYTES)],
            )
        } else if dice < 0.55 {
            Operation::write(
                "transact-savings",
                key,
                vec![],
                vec![(Self::savings(c), ACCOUNT_BYTES)],
            )
        } else if dice < 0.70 {
            Operation::write(
                "write-check",
                key,
                vec![Self::savings(c)],
                vec![(Self::checking(c), ACCOUNT_BYTES)],
            )
        } else if dice < 0.85 {
            let p = self.pick_partner(c);
            Operation::write(
                "amalgamate",
                key,
                vec![],
                vec![
                    (Self::checking(c), ACCOUNT_BYTES),
                    (Self::savings(c), ACCOUNT_BYTES),
                    (Self::checking(p), ACCOUNT_BYTES),
                ],
            )
        } else {
            let p = self.pick_partner(c);
            Operation::write(
                "send-payment",
                key,
                vec![],
                vec![
                    (Self::checking(c), ACCOUNT_BYTES),
                    (Self::checking(p), ACCOUNT_BYTES),
                ],
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_objects_cover_all_accounts() {
        let w = SmallbankWorkload::new(100, 10, 0.0, 1);
        let objs = w.initial_objects();
        assert_eq!(objs.len(), 200);
        assert!(objs.iter().all(|o| o.size == ACCOUNT_BYTES));
    }

    #[test]
    fn mix_is_roughly_85_percent_writes() {
        let mut w = SmallbankWorkload::new(1_000, 10, 0.0, 2);
        let mut writes = 0;
        let total = 20_000;
        for _ in 0..total {
            if !w.next_operation().read_only {
                writes += 1;
            }
        }
        let frac = writes as f64 / total as f64;
        assert!((frac - 0.85).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn zero_remote_fraction_keeps_parties_in_same_group() {
        let mut w = SmallbankWorkload::new(1_000, 10, 0.0, 3);
        for _ in 0..5_000 {
            let op = w.next_operation();
            if op.kind == "send-payment" || op.kind == "amalgamate" {
                let groups: std::collections::HashSet<u64> =
                    op.objects().map(|o| o.row() % 10).collect();
                assert_eq!(groups.len(), 1, "cross-group op with remote=0: {op:?}");
            }
        }
    }

    #[test]
    fn remote_fraction_produces_cross_group_transactions() {
        let mut w = SmallbankWorkload::new(1_000, 10, 0.5, 4);
        let mut cross = 0;
        let mut multi = 0;
        for _ in 0..20_000 {
            let op = w.next_operation();
            if op.kind == "send-payment" || op.kind == "amalgamate" {
                multi += 1;
                let groups: std::collections::HashSet<u64> =
                    op.objects().map(|o| o.row() % 10).collect();
                if groups.len() > 1 {
                    cross += 1;
                }
            }
        }
        let frac = cross as f64 / multi as f64;
        assert!((frac - 0.5).abs() < 0.1, "cross-group fraction {frac}");
    }
}
