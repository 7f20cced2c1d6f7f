//! Placement-policy identifiers and counters.
//!
//! The locality engine (`zeus-locality`) periodically inspects each node's
//! access pattern and may reshape object placements — pre-migrating
//! ownership toward a trending accessor, widening replication for read-hot
//! objects, shrinking it for cold ones. Which policy runs is part of the
//! deployment configuration, so the identifier lives here next to the other
//! cross-crate protocol vocabulary; the counters travel with node stats so
//! benchmarks can report policy traffic alongside protocol traffic.

/// Which placement policy a deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// The null policy: objects move only when an access pays the handover
    /// (the paper's baseline behavior). The policy engine never runs.
    #[default]
    Reactive,
    /// The Lion-style predictive policy: track per-object access rates and
    /// pre-provision placements off the critical path.
    Predictive,
}

impl PolicyKind {
    /// The CLI/config spelling.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Reactive => "reactive",
            PolicyKind::Predictive => "predictive",
        }
    }
}

crate::counters! {
    /// Counters describing what a node's policy engine did.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PolicyStats {
        /// Placement actions issued (pre-migrations, widens, shrinks).
        pub actions_taken: u64,
        /// Actions the policy wanted but deferred for lack of budget tokens.
        pub actions_deferred: u64,
        /// Pre-migrations of ownership toward this node.
        pub premigrations: u64,
        /// Replication widenings (this node added itself as a reader).
        pub widens: u64,
        /// Replication shrinks (this node removed itself as a reader).
        pub shrinks: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_both_spellings() {
        assert_eq!(PolicyKind::Reactive.name(), "reactive");
        assert_eq!(PolicyKind::Predictive.name(), "predictive");
    }
}
