//! FPSS protocol messages.
//!
//! # Wire-size contract
//!
//! Every message type's [`Payload::size_bytes`] is a **frozen** formula:
//! the network models in `specfaith-netsim` turn these byte counts into
//! serialization delays, fair-share contention, and per-run byte totals,
//! and those totals are pinned by the byte-identical golden tests in
//! `tests/network_models.rs`. Changing any formula below is a
//! reproducibility break, not a refactor — it must come with refreshed
//! goldens and a changelog entry. The formulas count 4 bytes per node id,
//! 8 per money amount / table key, plus a fixed header per enum variant:
//!
//! | Message | Bytes |
//! |---|---|
//! | `RouteRow` | `4 + 4·path.len()` |
//! | `PriceRow` | `4 + 4 + 8 + 4·tags.len()` |
//! | `Packet` | `12` |
//! | `CostAnnounce` | `12` |
//! | `CostUpdate` | `20` |
//! | `RoutingUpdate` | `8 + Σ rows` |
//! | `PricingUpdate` | `8 + Σ rows + 8·retractions.len()` |
//! | `Data` | inner `Packet` |
//!
//! The formulas count *content*, not the in-memory representation:
//! update messages share their row lists (`Arc<[_]>`) between the copies
//! sent to each neighbor and checker, and a [`TagSet`] keeps small tag
//! sets inline, yet every copy still counts its full rows and every tag.

use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_netsim::Payload;
use std::fmt;
use std::sync::Arc;

/// Tags a [`TagSet`] holds without a heap allocation. Pricing ties are
/// rare and small, so almost every DATA3* entry fits.
const INLINE_TAGS: usize = 4;

/// The DATA3* identity tags of one pricing entry: a sorted,
/// duplicate-free set of node ids.
///
/// Up to four ids live inline; a fifth moves the set to the heap. The
/// representation never shows: equality compares contents, and iteration
/// is always in increasing id order — the order the table digests hash
/// and the wire size counts.
#[derive(Clone)]
pub struct TagSet(Tags);

#[derive(Clone)]
enum Tags {
    Inline { len: u8, ids: [NodeId; INLINE_TAGS] },
    Heap(Vec<NodeId>),
}

impl TagSet {
    /// An empty set.
    pub fn new() -> Self {
        TagSet(Tags::Inline {
            len: 0,
            ids: [NodeId::new(0); INLINE_TAGS],
        })
    }

    /// The set `{id}`.
    pub fn single(id: NodeId) -> Self {
        let mut set = Self::new();
        set.insert(id);
        set
    }

    /// The ids in increasing order.
    pub fn as_slice(&self) -> &[NodeId] {
        match &self.0 {
            Tags::Inline { len, ids } => &ids[..usize::from(*len)],
            Tags::Heap(ids) => ids,
        }
    }

    /// Iterates the ids in increasing order.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeId> {
        self.as_slice().iter()
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Adds `id`, keeping the order. Returns whether it was new.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let Err(at) = self.as_slice().binary_search(&id) else {
            return false;
        };
        match &mut self.0 {
            Tags::Inline { len, ids } if usize::from(*len) < INLINE_TAGS => {
                ids.copy_within(at..usize::from(*len), at + 1);
                ids[at] = id;
                *len += 1;
            }
            Tags::Inline { ids, .. } => {
                let mut heap = Vec::with_capacity(2 * INLINE_TAGS);
                heap.extend_from_slice(ids);
                heap.insert(at, id);
                self.0 = Tags::Heap(heap);
            }
            Tags::Heap(ids) => ids.insert(at, id),
        }
        true
    }
}

impl Default for TagSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for TagSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TagSet {}

impl fmt::Debug for TagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for TagSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = Self::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl<'a> IntoIterator for &'a TagSet {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One row of a routing announcement: "my current lowest-cost path to
/// `dst` is `path`".
///
/// Rows deliberately carry **no cost field**: receivers recompute the cost
/// from their transit-cost list (DATA1) over the path's nodes, which is the
/// \[CHECK1\] verification built into the update rule itself. A node can
/// still lie about the *path* (claiming adjacency it does not have —
/// semi-private information), which is exactly manipulation 2 of §4.3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteRow {
    /// Destination this row routes toward.
    pub dst: NodeId,
    /// Claimed path, starting at the announcing node and ending at `dst`.
    pub path: Vec<NodeId>,
}

impl Payload for RouteRow {
    fn size_bytes(&self) -> usize {
        4 + 4 * self.path.len()
    }
}

/// One row of a pricing announcement: "the per-packet payment I would owe
/// transit `transit` for traffic to `dst` is `price`", plus the DATA3*
/// identity tags naming the neighbor(s) whose information produced the
/// entry (union on ties).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PriceRow {
    /// Traffic destination.
    pub dst: NodeId,
    /// The transit node being priced.
    pub transit: NodeId,
    /// VCG per-packet payment.
    pub price: Money,
    /// Identity tags: the neighbors that triggered/support this entry.
    pub tags: TagSet,
}

impl Payload for PriceRow {
    fn size_bytes(&self) -> usize {
        4 + 4 + 8 + 4 * self.tags.len()
    }
}

/// A routed data packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Originating node.
    pub src: NodeId,
    /// Final destination.
    pub dst: NodeId,
    /// Hop counter (TTL-style safety against forwarding loops).
    pub hops: u32,
}

impl Payload for Packet {
    fn size_bytes(&self) -> usize {
        12
    }
}

/// Messages of the plain FPSS protocol.
#[derive(Clone, Debug)]
pub enum FpssMsg {
    /// Construction phase 1: flooded declaration of a node's transit cost.
    CostAnnounce {
        /// The node whose cost is declared.
        origin: NodeId,
        /// The declared (not necessarily true) cost.
        declared: Cost,
    },
    /// Streaming mode: flooded *re*-declaration of a node's transit cost.
    /// Unlike [`FpssMsg::CostAnnounce`] (first-write-wins, assumes a static
    /// network), receivers overwrite on a strictly newer `epoch` and
    /// re-flood; stale or duplicate epochs are dropped, which terminates
    /// the flood exactly like the duplicate suppression of phase 1.
    CostUpdate {
        /// The node whose cost is re-declared.
        origin: NodeId,
        /// The new declared cost.
        declared: Cost,
        /// Per-origin monotone epoch (starts at 1 for the first update).
        epoch: u64,
    },
    /// Construction phase 2: changed routing rows.
    RoutingUpdate {
        /// The changed rows, shared by every copy of the announcement.
        rows: Arc<[RouteRow]>,
    },
    /// Construction phase 2: changed pricing rows, plus retractions of
    /// `(dst, transit)` entries that left the table (a transit node drops
    /// off a route when a better path is found mid-convergence).
    PricingUpdate {
        /// The changed rows, shared by every copy of the announcement.
        rows: Arc<[PriceRow]>,
        /// Entries removed from the announcer's table.
        retractions: Arc<[(NodeId, NodeId)]>,
    },
    /// Execution phase: a routed packet.
    Data(Packet),
}

impl Payload for FpssMsg {
    fn size_bytes(&self) -> usize {
        match self {
            FpssMsg::CostAnnounce { .. } => 12,
            FpssMsg::CostUpdate { .. } => 20,
            FpssMsg::RoutingUpdate { rows } => {
                8 + rows.iter().map(Payload::size_bytes).sum::<usize>()
            }
            FpssMsg::PricingUpdate { rows, retractions } => {
                8 + rows.iter().map(Payload::size_bytes).sum::<usize>() + 8 * retractions.len()
            }
            FpssMsg::Data(p) => p.size_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn spilled(tags: &TagSet) -> bool {
        matches!(tags.0, Tags::Heap(_))
    }

    #[test]
    fn sizes_scale_with_content() {
        let row = RouteRow {
            dst: n(1),
            path: vec![n(0), n(2), n(1)],
        };
        assert_eq!(row.size_bytes(), 16);
        let msg = FpssMsg::RoutingUpdate {
            rows: vec![row.clone(), row].into(),
        };
        assert_eq!(msg.size_bytes(), 8 + 32);
    }

    #[test]
    fn price_row_counts_tags() {
        let row = PriceRow {
            dst: n(1),
            transit: n(2),
            price: Money::new(5),
            tags: [n(0), n(3)].into_iter().collect(),
        };
        assert_eq!(row.size_bytes(), 16 + 8);
    }

    #[test]
    fn tag_set_spills_to_the_heap_past_four() {
        let mut tags = TagSet::new();
        for i in [7, 1, 5, 3] {
            assert!(tags.insert(n(i)));
        }
        assert!(!spilled(&tags));
        assert!(!tags.insert(n(5)), "duplicates are ignored");
        assert!(tags.insert(n(4)));
        assert!(spilled(&tags));
        assert_eq!(tags.as_slice(), &[n(1), n(3), n(4), n(5), n(7)]);
        assert!(!tags.insert(n(3)), "duplicates are ignored on the heap too");
        assert!(tags.insert(n(0)));
        assert_eq!(tags.as_slice(), &[n(0), n(1), n(3), n(4), n(5), n(7)]);
    }

    #[test]
    fn tag_set_equality_ignores_representation() {
        // Equality compares ids, not layout: a heap set holding the same
        // ids as an inline one is equal to it.
        let heap = TagSet(Tags::Heap(vec![n(2), n(9)]));
        let inline: TagSet = [n(9), n(2)].into_iter().collect();
        assert!(spilled(&heap) && !spilled(&inline));
        assert_eq!(heap, inline);
        let collected: TagSet = (0..5).map(n).collect();
        let mut grown = TagSet::new();
        for i in (0..5).rev() {
            grown.insert(n(i));
        }
        assert_eq!(collected, grown);
        assert_ne!(collected, inline);
        assert_eq!(format!("{inline:?}"), "{n2, n9}");
    }

    #[test]
    fn tag_set_collect_sorts_and_dedups() {
        let tags: TagSet = [n(4), n(2), n(4), n(9), n(2), n(0)].into_iter().collect();
        assert_eq!(tags.as_slice(), &[n(0), n(2), n(4), n(9)]);
        let ids: Vec<NodeId> = tags.iter().copied().collect();
        assert_eq!(ids, vec![n(0), n(2), n(4), n(9)]);
        assert!(TagSet::default().is_empty());
        let row = PriceRow {
            dst: n(1),
            transit: n(2),
            price: Money::new(0),
            tags: (0..6).map(n).chain((0..6).map(n)).collect(),
        };
        assert_eq!(row.size_bytes(), 16 + 4 * 6, "every distinct tag counts");
    }

    #[test]
    fn packet_is_fixed_size() {
        let p = Packet {
            src: n(0),
            dst: n(1),
            hops: 3,
        };
        assert_eq!(FpssMsg::Data(p).size_bytes(), 12);
    }

    /// Pins every variant's wire-size formula (see the module docs): the
    /// network models convert these into delays and contention, and the
    /// golden byte totals in `tests/network_models.rs` depend on them.
    #[test]
    fn wire_sizes_are_frozen() {
        assert_eq!(
            FpssMsg::CostAnnounce {
                origin: n(3),
                declared: Cost::new(7),
            }
            .size_bytes(),
            12
        );
        assert_eq!(
            FpssMsg::CostUpdate {
                origin: n(3),
                declared: Cost::new(7),
                epoch: 1,
            }
            .size_bytes(),
            20
        );
        let empty_path = RouteRow {
            dst: n(1),
            path: Vec::new(),
        };
        assert_eq!(empty_path.size_bytes(), 4);
        assert_eq!(
            FpssMsg::RoutingUpdate {
                rows: Vec::new().into()
            }
            .size_bytes(),
            8
        );
        let bare_price = PriceRow {
            dst: n(1),
            transit: n(2),
            price: Money::new(0),
            tags: TagSet::new(),
        };
        assert_eq!(bare_price.size_bytes(), 16);
        assert_eq!(
            FpssMsg::PricingUpdate {
                rows: vec![bare_price].into(),
                retractions: vec![(n(1), n(2)), (n(3), n(4))].into(),
            }
            .size_bytes(),
            8 + 16 + 16
        );
    }
}
