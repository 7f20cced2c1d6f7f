//! A set of node ids that lives inline.
//!
//! A placement, an arbiter set and the acknowledgements collected for one
//! request are all sets of a handful of nodes (the replication degree, or
//! the directory replicas plus an owner), and the ownership protocol builds,
//! copies, compares and drops several of them per message. [`NodeSet`] keeps
//! up to [`INLINE_NODES`] ids in the value itself, so none of that touches
//! the allocator; a larger set spills to a vector, so cluster size is not
//! capped.
//!
//! The set is kept sorted: iteration is in ascending id order, equality is
//! set equality, and the wire encoding (a `u32` count, then each id) is what
//! a sorted `Vec<NodeId>` encodes.

use core::fmt;
use core::hash::{Hash, Hasher};

use crate::ids::NodeId;

/// How many nodes a [`NodeSet`] holds without a heap allocation.
pub const INLINE_NODES: usize = 8;

#[derive(Clone)]
enum Repr {
    /// The first `len` entries of `nodes`, ascending.
    Inline {
        len: u8,
        nodes: [NodeId; INLINE_NODES],
    },
    /// Ascending and duplicate-free; a set that has spilled stays spilled.
    /// Boxed so that the set is no larger than the `Vec<NodeId>` it took the
    /// place of in every placement and message: a spilled set is rare, a
    /// moved message is not.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<NodeId>>),
}

/// A sorted set of [`NodeId`]s; see the [module docs](self).
#[derive(Clone)]
pub struct NodeSet(Repr);

impl NodeSet {
    /// The empty set.
    pub const fn new() -> Self {
        NodeSet(Repr::Inline {
            len: 0,
            nodes: [NodeId(0); INLINE_NODES],
        })
    }

    /// The members, ascending.
    pub fn as_slice(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, nodes } => &nodes[..*len as usize],
            Repr::Spilled(nodes) => nodes,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set has no member.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The members, ascending.
    pub fn iter(&self) -> core::iter::Copied<core::slice::Iter<'_, NodeId>> {
        self.as_slice().iter().copied()
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.as_slice().binary_search(&node).is_ok()
    }

    /// Adds `node`; `false` if it already was a member.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let Err(at) = self.as_slice().binary_search(&node) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, nodes } if (*len as usize) < INLINE_NODES => {
                nodes.copy_within(at..*len as usize, at + 1);
                nodes[at] = node;
                *len += 1;
            }
            Repr::Inline { nodes, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_NODES);
                spilled.extend_from_slice(nodes);
                spilled.insert(at, node);
                self.0 = Repr::Spilled(Box::new(spilled));
            }
            Repr::Spilled(nodes) => nodes.insert(at, node),
        }
        true
    }

    /// Removes `node`; `false` if it was not a member.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let Ok(at) = self.as_slice().binary_search(&node) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, nodes } => {
                nodes.copy_within(at + 1..*len as usize, at);
                *len -= 1;
            }
            Repr::Spilled(nodes) => {
                nodes.remove(at);
            }
        }
        true
    }

    /// Keeps the members `keep` approves of.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, nodes } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if keep(nodes[i]) {
                        nodes[kept] = nodes[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Spilled(nodes) => nodes.retain(|&node| keep(node)),
        }
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Spilled(nodes) => nodes.clear(),
        }
    }
}

impl Default for NodeSet {
    fn default() -> Self {
        NodeSet::new()
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for NodeSet {}

impl Hash for NodeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, nodes: I) {
        for node in nodes {
            self.insert(node);
        }
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut set = NodeSet::new();
        set.extend(nodes);
        set
    }
}

/// Sorts and deduplicates in place — `O(n log n)` whatever the order of
/// `nodes`, which is what decoding a long list off the wire needs — and keeps
/// the allocation when the result does not fit inline.
impl From<Vec<NodeId>> for NodeSet {
    fn from(mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.len() > INLINE_NODES {
            return NodeSet(Repr::Spilled(Box::new(nodes)));
        }
        let mut inline = [NodeId(0); INLINE_NODES];
        inline[..nodes.len()].copy_from_slice(&nodes);
        NodeSet(Repr::Inline {
            len: nodes.len() as u8,
            nodes: inline,
        })
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = core::iter::Copied<core::slice::Iter<'a, NodeId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: impl IntoIterator<Item = u16>) -> NodeSet {
        ids.into_iter().map(NodeId).collect()
    }

    #[test]
    fn members_are_sorted_and_unique_whatever_the_insertion_order() {
        let mut s = set([5, 1, 3, 1, 5]);
        assert_eq!(s.as_slice(), [NodeId(1), NodeId(3), NodeId(5)]);
        assert!(!s.insert(NodeId(3)));
        assert!(s.insert(NodeId(0)));
        assert!(s.remove(NodeId(3)) && !s.remove(NodeId(3)));
        assert_eq!(s.iter().map(|n| n.0).collect::<Vec<_>>(), [0, 1, 5]);
        assert!(s.contains(NodeId(5)) && !s.contains(NodeId(3)));
        s.retain(|n| n.0 != 1);
        assert_eq!(s, set([5, 0]));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s, NodeSet::default());
    }

    #[test]
    fn a_ninth_node_spills_and_the_set_still_behaves() {
        let mut s = set(0..INLINE_NODES as u16);
        assert!(matches!(s.0, Repr::Inline { .. }));
        assert!(s.insert(NodeId(100)));
        assert!(matches!(s.0, Repr::Spilled(_)));
        assert!(s.insert(NodeId(50)));
        assert_eq!(s.len(), 10);
        assert_eq!(s.as_slice()[8..], [NodeId(50), NodeId(100)]);
        // Equality, hashing and printing are by content, not representation.
        s.retain(|n| n.0 < 3);
        assert_eq!(s, set(0..3));
        assert_eq!(format!("{s:?}"), format!("{:?}", set(0..3)));
        assert_eq!(format!("{s:?}"), "[NodeId(0), NodeId(1), NodeId(2)]");
    }

    #[test]
    fn the_set_is_no_larger_than_the_vector_it_replaces() {
        assert_eq!(
            std::mem::size_of::<NodeSet>(),
            std::mem::size_of::<Vec<NodeId>>()
        );
    }

    #[test]
    fn from_vec_sorts_dedups_and_picks_the_representation_by_size() {
        let small: NodeSet = vec![NodeId(2), NodeId(0), NodeId(2)].into();
        assert!(matches!(small.0, Repr::Inline { len: 2, .. }));
        assert_eq!(small, set([0, 2]));
        let large: NodeSet = (0..20u16).rev().map(NodeId).collect::<Vec<_>>().into();
        assert!(matches!(large.0, Repr::Spilled(_)));
        assert_eq!(large, set(0..20));
    }
}
