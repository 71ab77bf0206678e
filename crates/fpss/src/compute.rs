//! Pure FPSS recomputation functions.
//!
//! Everything a node computes in construction phase 2 — its routing table
//! from neighbors' advertised paths, and its pricing table from neighbors'
//! advertised prices — is implemented here as **pure functions of the
//! node's inputs**. Three callers share them:
//!
//! * the plain FPSS node ([`crate::node`]),
//! * the faithful principal, and
//! * every checker mirror (which recomputes what *its principal* should
//!   have computed from the forwarded inputs).
//!
//! Purity is not a style choice: the bank compares table hashes across
//! principal and checkers, so the recomputation must be a deterministic
//! function of the inputs and nothing else.

use crate::msg::{PriceRow, RouteRow, TagSet};
use crate::state::{PriceEntry, PricingTable, RoutingTable, TransitCostList};
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_graph::path::PathMetric;
use std::collections::{BTreeMap, BTreeSet};

/// Dense-slot ceiling for the per-neighbor destination records. Honest
/// destination ids are dense `0..n` and sit far below this; advertised
/// rows naming larger ids (only forgeable — see the deviation hooks) fall
/// back to the sparse map so a hostile row cannot force a giant
/// allocation.
pub const DENSE_ROUTE_SLOTS: usize = 4096;

/// What one neighbor advertised toward one destination: its path and its
/// `(transit, price)` rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Advert {
    /// The advertised path (starting at the neighbor, ending at the
    /// destination); empty where nothing was advertised.
    path: Vec<NodeId>,
    /// The advertised per-packet prices, sorted by transit.
    prices: Vec<(NodeId, i64)>,
}

impl Advert {
    fn is_empty(&self) -> bool {
        self.path.is_empty() && self.prices.is_empty()
    }
}

/// One neighbor's records for the destinations below
/// [`DENSE_ROUTE_SLOTS`], by destination index.
#[derive(Clone, Debug)]
struct DenseAdverts {
    neighbor: NodeId,
    /// `adverts[dst.index()]`: what `neighbor` advertised toward `dst`.
    adverts: Vec<Advert>,
    /// `path_bits[dst.index()]`: a 64-bit Bloom summary of that record's
    /// path, the union of [`path_bits`] over the nodes on it. Kept in a
    /// column of its own, so a scan for one node reads eight bytes per
    /// record and opens a path only when both of the node's bits are set.
    path_bits: Vec<u64>,
}

/// `node`'s two bits in [`DenseAdverts::path_bits`]: its id modulo 64
/// and the top six bits of a multiplicative hash of it.
fn path_bits(node: NodeId) -> u64 {
    let id = u64::from(node.raw());
    (1 << (id % 64)) | (1 << (id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58))
}

/// The price for `transit` in `(transit, price)` rows sorted by transit.
fn price_of(prices: &[(NodeId, i64)], transit: NodeId) -> Option<i64> {
    let at = prices.binary_search_by_key(&transit, |(k, _)| *k).ok()?;
    Some(prices[at].1)
}

/// A node's record of what its neighbors have advertised: routes and
/// prices, exactly as received (the inputs to recomputation).
///
/// One record per neighbor, dense by destination index, holds both the
/// advertised path and that neighbor's `(transit, price)` rows sorted by
/// transit: the recompute functions read both on their innermost loops, so
/// a lookup is a short linear probe over the (few) neighbors, an array
/// read and a binary search in a slice of a few prices — never a tree
/// walk. Destinations at or beyond [`DENSE_ROUTE_SLOTS`] (forged ids) take
/// the sparse fallback, for prices as well as routes.
///
/// There is no reverse index from path nodes to destinations. The one
/// query that needs one, [`NeighborView::dsts_through`], runs only when a
/// declared cost is learned or changed, far less often than routes are
/// learned, so it scans the records instead of every `learn_route` paying
/// for an index. A 64-bit Bloom summary of each dense record's path, kept
/// in a column beside the records, lets the scan pass over most records
/// without reading their paths.
#[derive(Clone, Debug, Default)]
pub struct NeighborView {
    /// Per neighbor, its records by destination index.
    dense: Vec<DenseAdverts>,
    /// Records whose destination index does not fit the dense table.
    sparse: BTreeMap<(NodeId, NodeId), Advert>,
}

impl NeighborView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// The record `neighbor` holds for `dst`, if any.
    fn advert(&self, neighbor: NodeId, dst: NodeId) -> Option<&Advert> {
        if dst.index() >= DENSE_ROUTE_SLOTS {
            return self.sparse.get(&(neighbor, dst));
        }
        let records = self.dense.iter().find(|r| r.neighbor == neighbor)?;
        records.adverts.get(dst.index())
    }

    /// `neighbor`'s dense records, created if missing and grown to hold
    /// `slot`.
    fn dense_mut(&mut self, neighbor: NodeId, slot: usize) -> &mut DenseAdverts {
        let at = match self.dense.iter().position(|r| r.neighbor == neighbor) {
            Some(at) => at,
            None => {
                self.dense.push(DenseAdverts {
                    neighbor,
                    adverts: Vec::new(),
                    path_bits: Vec::new(),
                });
                self.dense.len() - 1
            }
        };
        let records = &mut self.dense[at];
        if slot >= records.adverts.len() {
            records.adverts.resize_with(slot + 1, Advert::default);
            records.path_bits.resize(slot + 1, 0);
        }
        records
    }

    /// The record `neighbor` holds for `dst`, created empty if missing.
    fn advert_mut(&mut self, neighbor: NodeId, dst: NodeId) -> &mut Advert {
        if dst.index() >= DENSE_ROUTE_SLOTS {
            return self.sparse.entry((neighbor, dst)).or_default();
        }
        &mut self.dense_mut(neighbor, dst.index()).adverts[dst.index()]
    }

    /// Records a route advertisement from `neighbor`. Returns `true` if
    /// the stored row changed. Rows whose path does not start at the
    /// neighbor or end at the row's destination are rejected (malformed).
    pub fn learn_route(&mut self, neighbor: NodeId, row: &RouteRow) -> bool {
        if row.path.first() != Some(&neighbor) || row.path.last() != Some(&row.dst) {
            return false;
        }
        let slot = row.dst.index();
        let (path, bits) = if slot >= DENSE_ROUTE_SLOTS {
            let advert = self.sparse.entry((neighbor, row.dst)).or_default();
            (&mut advert.path, None)
        } else {
            let records = self.dense_mut(neighbor, slot);
            (
                &mut records.adverts[slot].path,
                Some(&mut records.path_bits[slot]),
            )
        };
        if *path == row.path {
            return false;
        }
        path.clone_from(&row.path);
        if let Some(bits) = bits {
            *bits = row.path.iter().fold(0, |bits, &v| bits | path_bits(v));
        }
        true
    }

    /// The destinations with at least one stored route whose path visits
    /// `node` (as transit, origin, or the destination itself) — the
    /// invalidation set of a newly learned declared cost for `node` —
    /// sorted and duplicate-free.
    ///
    /// A scan of every stored record, dense and sparse. Each dense record
    /// carries a 64-bit Bloom summary of its path, which rules most
    /// records out without reading the path. Stored paths change only
    /// through [`NeighborView::learn_route`], so the scan sees exactly the
    /// routes the node holds at the time of the query.
    pub fn dsts_through(&self, node: NodeId) -> Vec<NodeId> {
        let mask = path_bits(node);
        let dense = self.dense.iter().flat_map(|records| {
            let paths = records.path_bits.iter().zip(&records.adverts);
            paths
                .enumerate()
                .filter(move |(_, (&bits, advert))| {
                    bits & mask == mask && advert.path.contains(&node)
                })
                .map(|(slot, _)| NodeId::from_index(slot))
        });
        let sparse = self
            .sparse
            .iter()
            .filter(|(_, advert)| advert.path.contains(&node))
            .map(|(&(_, dst), _)| dst);
        let mut dsts: Vec<NodeId> = dense.chain(sparse).collect();
        dsts.sort_unstable();
        dsts.dedup();
        dsts
    }

    /// Records a price advertisement from `neighbor`. Returns `true` if
    /// the stored value changed.
    pub fn learn_price(&mut self, neighbor: NodeId, row: &PriceRow) -> bool {
        let value = row.price.value();
        let prices = &mut self.advert_mut(neighbor, row.dst).prices;
        match prices.binary_search_by_key(&row.transit, |(k, _)| *k) {
            Ok(at) if prices[at].1 == value => false,
            Ok(at) => {
                prices[at].1 = value;
                true
            }
            Err(at) => {
                prices.insert(at, (row.transit, value));
                true
            }
        }
    }

    /// Removes a previously advertised price (the neighbor retracted it).
    /// Returns `true` if the view changed.
    pub fn retract_price(&mut self, neighbor: NodeId, dst: NodeId, transit: NodeId) -> bool {
        let Some(advert) = self.advert(neighbor, dst) else {
            return false;
        };
        let Ok(at) = advert.prices.binary_search_by_key(&transit, |(k, _)| *k) else {
            return false;
        };
        let advert = self.advert_mut(neighbor, dst);
        advert.prices.remove(at);
        if dst.index() >= DENSE_ROUTE_SLOTS && advert.is_empty() {
            self.sparse.remove(&(neighbor, dst));
        }
        true
    }

    /// The path `neighbor` advertised toward `dst`, if any.
    pub fn route(&self, neighbor: NodeId, dst: NodeId) -> Option<&[NodeId]> {
        let path = &self.advert(neighbor, dst)?.path;
        (!path.is_empty()).then_some(path.as_slice())
    }

    /// The advertised records as sorted `(neighbor, dst) → record` content
    /// (normalizes away storage artifacts like empty dense slots).
    fn content(&self) -> BTreeMap<(NodeId, NodeId), &Advert> {
        let dense = self.dense.iter().flat_map(|records| {
            let neighbor = records.neighbor;
            records
                .adverts
                .iter()
                .enumerate()
                .map(move |(slot, advert)| ((neighbor, NodeId::from_index(slot)), advert))
        });
        dense
            .chain(self.sparse.iter().map(|(&key, advert)| (key, advert)))
            .filter(|(_, advert)| !advert.is_empty())
            .collect()
    }
}

impl PartialEq for NeighborView {
    fn eq(&self, other: &Self) -> bool {
        self.content() == other.content()
    }
}

impl Eq for NeighborView {}

/// Recomputes the routing table of `me` from its transit-cost list and
/// neighbor advertisements.
///
/// For each destination, the candidate via neighbor `b` is `[me] ++
/// path_b(dst)`, **costed locally from DATA1** (advertised costs are never
/// trusted — this is the \[CHECK1\] verification built into the update rule).
/// Candidates are compared under the [`PathMetric`] total order, so every
/// honest node resolves ties identically.
pub fn recompute_routes(
    me: NodeId,
    neighbors: &[NodeId],
    data1: &TransitCostList,
    view: &NeighborView,
) -> RoutingTable {
    // Destinations: every node we have ever heard of.
    let mut dsts: BTreeSet<NodeId> = data1.iter().map(|(n, _)| n).collect();
    for &b in neighbors {
        dsts.insert(b);
    }
    let mut table = RoutingTable::new();
    table.install(me, vec![me]);
    for dst in dsts {
        if dst == me {
            continue;
        }
        if let Some(path) = best_route_to(me, neighbors, data1, view, dst) {
            table.install(dst, path);
        }
    }
    table
}

/// The update rule for one destination: the best candidate `[me] ++
/// path_b` over all neighbors `b`, costed locally from DATA1. Exactly the
/// `dst` row a full [`recompute_routes`] would produce — the row is a pure
/// function of `dst`'s advertised routes and DATA1, which is what makes
/// destination-scoped incremental recomputation sound.
pub fn best_route_to(
    me: NodeId,
    neighbors: &[NodeId],
    data1: &TransitCostList,
    view: &NeighborView,
    dst: NodeId,
) -> Option<Vec<NodeId>> {
    // Candidates are compared without materializing them: every candidate
    // is `[me] ++ path_b`, so the shared `[me]` prefix drops out of the
    // PathMetric order and `(cost, path_b.len(), path_b)` ranks candidates
    // identically. Only the winner is allocated (and still passes through
    // `PathMetric::new`, which guards the simple-path invariant for the
    // installed route).
    let direct = [dst];
    let mut best: Option<(Cost, &[NodeId])> = None;
    for &b in neighbors {
        let path_b: &[NodeId] = if b == dst {
            &direct
        } else {
            let Some(path_b) = view.route(b, dst) else {
                continue;
            };
            if path_b.contains(&me) {
                continue; // would loop
            }
            path_b
        };
        // Candidate intermediates are every path_b node but the last.
        let Some(cost) = data1.extension_cost(path_b) else {
            continue; // some intermediate's declared cost unknown yet
        };
        let improves = match &best {
            None => true,
            Some((best_cost, best_path)) => {
                (cost, path_b.len(), path_b) < (*best_cost, best_path.len(), best_path)
            }
        };
        if improves {
            best = Some((cost, path_b));
        }
    }
    let (cost, path_b) = best?;
    let mut nodes = Vec::with_capacity(1 + path_b.len());
    nodes.push(me);
    nodes.extend_from_slice(path_b);
    Some(PathMetric::new(nodes, cost).into_nodes())
}

/// Recomputes the pricing table \[DATA3*\] of `me`.
///
/// For each destination `j` on the routing table and each transit `k` on
/// the chosen path, the per-packet VCG payment is
/// `pᵏ = ĉ_k + d_{G−k}(me,j) − d(me,j)`, where the `k`-avoiding distance is
/// estimated by the FPSS iterative rule over neighbors `b ≠ k`:
///
/// * if `k` is **not** on `b`'s advertised path to `j`, the detour through
///   `b` costs `ĉ_b + d_b(j)` (the advertised path itself avoids `k`);
/// * if `k` **is** on it, `b`'s own advertised price for `k` encodes `b`'s
///   `k`-avoiding distance: `d_{G−k}(b,j) = pᵏ_b − ĉ_k + d_b(j)`.
///
/// The DATA3* identity tags record which neighbor(s) attained the minimum
/// (union on ties), which is what lets checkers detect spoofed pricing
/// messages (\[CHECK2\], \[BANK2\]).
pub fn recompute_prices(
    me: NodeId,
    neighbors: &[NodeId],
    data1: &TransitCostList,
    routes: &RoutingTable,
    view: &NeighborView,
) -> PricingTable {
    let mut table = PricingTable::new();
    for (dst, path) in routes.iter() {
        if dst == me {
            continue;
        }
        table.push_dst(dst, price_entries_to(neighbors, data1, path, view, dst));
    }
    table
}

/// The pricing rows of one destination — `(transit, entry)` per transit
/// on `path` (this node's route to `dst`), sorted by transit. Exactly the
/// `dst` rows a full [`recompute_prices`] would produce: pricing for a
/// destination is a pure function of that destination's route, its
/// advertised routes/prices, and DATA1, which is what makes
/// destination-scoped incremental recomputation sound.
pub fn price_entries_to(
    neighbors: &[NodeId],
    data1: &TransitCostList,
    path: &[NodeId],
    view: &NeighborView,
    dst: NodeId,
) -> Vec<(NodeId, PriceEntry)> {
    let transits = transits(path);
    if transits.is_empty() {
        return Vec::new();
    }
    let Some(pricing) = DstPricing::new(neighbors, data1, path, view, dst) else {
        return Vec::new();
    };
    let mut rows: Vec<(NodeId, PriceEntry)> = transits
        .iter()
        .filter_map(|&k| Some((k, pricing.entry(k)?)))
        .collect();
    // Paths visit transits in route order; announcements and diffs expect
    // transit order (the order a full-table rebuild iterates in).
    rows.sort_by_key(|(k, _)| *k);
    rows
}

/// The transits of `path`: every node but its two endpoints.
pub(crate) fn transits(path: &[NodeId]) -> &[NodeId] {
    if path.len() <= 2 {
        &[]
    } else {
        &path[1..path.len() - 1]
    }
}

/// The inputs to pricing the transits of one destination: this node's
/// locally-costed distance along its route and each neighbor's witness.
/// Building it once serves any number of [`DstPricing::entry`] calls —
/// every transit of a full destination recompute, or only the changed
/// keys of a row-scoped one.
pub(crate) struct DstPricing<'a> {
    data1: &'a TransitCostList,
    /// `d(me, dst)`: the cost of this node's installed route.
    d_me: i64,
    /// Every neighbor that contributes a candidate toward `dst`.
    witnesses: Vec<Witness<'a>>,
}

impl<'a> DstPricing<'a> {
    /// The pricing inputs of `dst` for a node whose route to it is `path`;
    /// `None` when the route's cost is not known yet (no entry can be
    /// priced).
    pub(crate) fn new(
        neighbors: &[NodeId],
        data1: &'a TransitCostList,
        path: &[NodeId],
        view: &'a NeighborView,
        dst: NodeId,
    ) -> Option<Self> {
        let d_me = data1.path_cost(path)?.value() as i64;
        // Per-neighbor inputs — advertised path and prices, the path's
        // locally-costed distance, the neighbor's declared cost — are pure
        // functions of `(b, dst)`, so they are read once here rather than
        // once per transit. Neighbors that contribute no candidate are left
        // out.
        let witnesses = neighbors
            .iter()
            .filter_map(|&b| {
                if b == dst {
                    return Some(Witness {
                        b,
                        path: &[],
                        prices: &[],
                        d_b: 0,
                        c_b: 0,
                    });
                }
                let advert = view.advert(b, dst)?;
                if advert.path.is_empty() {
                    return None;
                }
                Some(Witness {
                    b,
                    path: &advert.path,
                    prices: &advert.prices,
                    d_b: data1.path_cost(&advert.path)?.value() as i64,
                    c_b: data1.declared(b)?.value() as i64,
                })
            })
            .collect();
        Some(DstPricing {
            data1,
            d_me,
            witnesses,
        })
    }

    /// The DATA3* entry for transit `k` (one of the route's transits): the
    /// VCG detour and candidate rule of [`recompute_prices`], the one place
    /// it is written down. `None` when `k`'s declared cost is unknown or
    /// no neighbor offers a `k`-avoiding candidate.
    pub(crate) fn entry(&self, k: NodeId) -> Option<PriceEntry> {
        let c_k = self.data1.declared(k)?.value() as i64;
        let mut best: Option<i64> = None;
        let mut tags = TagSet::new();
        for w in &self.witnesses {
            if w.b == k {
                // Problem partitioning (FPSS footnote 8): the priced
                // node's own advertisements are never used to price it.
                continue;
            }
            let detour = if w.path.contains(&k) {
                let Some(p_bk) = price_of(w.prices, k) else {
                    continue;
                };
                p_bk - c_k + w.d_b
            } else {
                w.d_b
            };
            let candidate = c_k + w.c_b + detour - self.d_me;
            match best {
                Some(cur) if candidate > cur => {}
                Some(cur) if candidate == cur => {
                    tags.insert(w.b);
                }
                _ => {
                    best = Some(candidate);
                    tags = TagSet::single(w.b);
                }
            }
        }
        Some(PriceEntry {
            price: Money::new(best?),
            tags,
        })
    }
}

/// One neighbor's inputs to the pricing of one destination.
struct Witness<'a> {
    b: NodeId,
    /// `b`'s advertised path (empty when `b` is the destination).
    path: &'a [NodeId],
    /// `b`'s advertised `(transit, price)` rows, sorted by transit.
    prices: &'a [(NodeId, i64)],
    /// The locally-costed distance of `path`.
    d_b: i64,
    /// `b`'s declared cost (zero when `b` is the destination).
    c_b: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn data1(costs: &[(u32, u64)]) -> TransitCostList {
        let mut d = TransitCostList::new();
        for &(id, c) in costs {
            d.learn(n(id), Cost::new(c));
        }
        d
    }

    #[test]
    fn learn_route_rejects_malformed_rows() {
        let mut view = NeighborView::new();
        // Path does not start at the claimed neighbor.
        assert!(!view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(0), n(2)],
            }
        ));
        // Path does not end at dst.
        assert!(!view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(3)],
            }
        ));
        assert!(view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(2)],
            }
        ));
    }

    #[test]
    fn forged_huge_destination_ids_stay_sparse() {
        // A deviant can advertise any destination id; a forged id far
        // beyond the dense range must not force a giant allocation, and
        // must still round-trip through the view.
        let mut view = NeighborView::new();
        let forged = NodeId::new(1_000_000_000);
        let row = RouteRow {
            dst: forged,
            path: vec![n(1), forged],
        };
        assert!(view.learn_route(n(1), &row));
        assert!(!view.learn_route(n(1), &row), "idempotent");
        assert_eq!(view.route(n(1), forged), Some(&[n(1), forged][..]));
        assert_eq!(view.route(n(1), n(2)), None);
        let mut same = NeighborView::new();
        same.learn_route(n(1), &row);
        assert_eq!(view, same, "equality covers sparse rows");

        // Prices toward a forged destination take the same fallback.
        let advertised = |view: &NeighborView, neighbor: NodeId, transit: NodeId| {
            price_of(&view.advert(neighbor, forged)?.prices, transit)
        };
        let price = |transit: NodeId, value: i64| PriceRow {
            dst: forged,
            transit,
            price: Money::new(value),
            tags: TagSet::new(),
        };
        assert!(view.learn_price(n(1), &price(n(3), 7)));
        assert!(!view.learn_price(n(1), &price(n(3), 7)), "idempotent");
        assert!(view.learn_price(n(1), &price(n(2), 4)));
        assert!(view.learn_price(n(1), &price(n(3), 8)), "overwrite");
        assert_eq!(advertised(&view, n(1), n(3)), Some(8));
        assert_eq!(advertised(&view, n(1), n(2)), Some(4));
        assert_eq!(advertised(&view, n(4), n(3)), None);
        assert_ne!(view, same, "equality covers sparse prices");
        // A price-only record for another forged id, and its retraction.
        let other = NodeId::new(u32::MAX);
        let lone = PriceRow {
            dst: other,
            ..price(n(3), 1)
        };
        assert!(view.learn_price(n(1), &lone));
        assert_eq!(view.route(n(1), other), None);
        assert!(view.retract_price(n(1), other, n(3)));
        assert!(!view.retract_price(n(1), other, n(3)), "already gone");
        assert!(
            !view.sparse.contains_key(&(n(1), other)),
            "empty records drop"
        );
        assert!(view.retract_price(n(1), forged, n(2)));
        assert!(view.retract_price(n(1), forged, n(3)));
        assert_eq!(advertised(&view, n(1), n(3)), None);
        assert_eq!(view, same, "retractions restore the route-only view");
        assert!(view.dense.is_empty(), "no dense slots for forged ids");
    }

    #[test]
    fn dsts_through_scans_current_paths() {
        let mut view = NeighborView::new();
        let forged = NodeId::new(DENSE_ROUTE_SLOTS as u32 + 7);
        let route = |dst: NodeId, path: &[u32]| RouteRow {
            dst,
            path: path.iter().map(|&i| n(i)).chain([dst]).collect(),
        };
        view.learn_route(n(1), &route(n(5), &[1, 3]));
        view.learn_route(n(2), &route(n(5), &[2, 3]));
        view.learn_route(n(2), &route(n(4), &[2]));
        view.learn_route(n(1), &route(forged, &[1, 3]));
        view.learn_route(n(2), &route(n(9), &[2, 6]));
        // 67 and 70 share the low path bits of 3 and 6.
        view.learn_route(n(2), &route(n(70), &[2, 67]));
        // Duplicates across neighbors are reported once; forged ids last.
        assert_eq!(view.dsts_through(n(3)), vec![n(5), forged]);
        assert_eq!(view.dsts_through(n(2)), vec![n(4), n(5), n(9), n(70)]);
        // A destination is on its own paths; unknown nodes are on none.
        assert_eq!(view.dsts_through(forged), vec![forged]);
        assert!(view.dsts_through(n(8)).is_empty());
        // An overwritten path no longer counts.
        view.learn_route(n(2), &route(n(9), &[2]));
        assert_eq!(view.dsts_through(n(6)), Vec::<NodeId>::new());
        view.learn_route(n(1), &route(forged, &[1]));
        assert_eq!(view.dsts_through(n(3)), vec![n(5)]);
    }

    #[test]
    fn learn_is_idempotent() {
        let mut view = NeighborView::new();
        let row = RouteRow {
            dst: n(2),
            path: vec![n(1), n(2)],
        };
        assert!(view.learn_route(n(1), &row));
        assert!(!view.learn_route(n(1), &row));
        let price = PriceRow {
            dst: n(2),
            transit: n(3),
            price: Money::new(5),
            tags: TagSet::new(),
        };
        assert!(view.learn_price(n(1), &price));
        assert!(!view.learn_price(n(1), &price));
    }

    #[test]
    fn routes_prefer_cheaper_advertised_paths() {
        // me = 0, neighbors 1 (cost 10) and 2 (cost 1); both claim a route
        // to 3. Via 2 is cheaper.
        let d1 = data1(&[(0, 0), (1, 10), (2, 1), (3, 0)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(3),
                path: vec![n(1), n(3)],
            },
        );
        view.learn_route(
            n(2),
            &RouteRow {
                dst: n(3),
                path: vec![n(2), n(3)],
            },
        );
        let table = recompute_routes(n(0), &[n(1), n(2)], &d1, &view);
        assert_eq!(table.path(n(3)), Some(&[n(0), n(2), n(3)][..]));
    }

    #[test]
    fn routes_never_trust_advertised_costs() {
        // A neighbor advertising a path through an expensive node cannot
        // make it look cheap: costs come from DATA1.
        let d1 = data1(&[(0, 0), (1, 1), (2, 1000), (3, 0)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(3),
                path: vec![n(1), n(2), n(3)], // through expensive 2
            },
        );
        let table = recompute_routes(n(0), &[n(1)], &d1, &view);
        let path = table.path(n(3)).expect("route exists");
        // Cost is recomputed locally: 1 (node 1) + 1000 (node 2).
        assert_eq!(d1.path_cost(path), Some(Cost::new(1001)));
    }

    #[test]
    fn routes_skip_candidates_looping_through_me() {
        let d1 = data1(&[(0, 0), (1, 1), (2, 1)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(0), n(2)], // loops through me
            },
        );
        let table = recompute_routes(n(0), &[n(1)], &d1, &view);
        // No valid candidate survives except... none (1 is not dst 2's
        // neighbor relation is unknown). Only the adjacency candidate for
        // dst=1 itself exists.
        assert_eq!(table.path(n(2)), None);
        assert_eq!(table.path(n(1)), Some(&[n(0), n(1)][..]));
    }

    #[test]
    fn routes_wait_for_unknown_costs() {
        let d1 = data1(&[(0, 0), (1, 1)]); // node 2's cost unknown
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(3),
                path: vec![n(1), n(2), n(3)],
            },
        );
        let table = recompute_routes(n(0), &[n(1)], &d1, &view);
        assert_eq!(table.path(n(3)), None, "intermediate cost unknown");
    }

    #[test]
    fn prices_direct_detour() {
        // Line-ish graph known directly: me=0 routes to 2 via transit 1
        // (cost 5); neighbor 3 (cost 8) advertises a k-free route to 2.
        // p¹ = c₁ + d_{G−1}(0,2) − d(0,2) = 5 + 8 − 5 = 8.
        let d1 = data1(&[(0, 0), (1, 5), (2, 0), (3, 8)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(2)],
            },
        );
        view.learn_route(
            n(3),
            &RouteRow {
                dst: n(2),
                path: vec![n(3), n(2)],
            },
        );
        let routes = recompute_routes(n(0), &[n(1), n(3)], &d1, &view);
        assert_eq!(routes.path(n(2)), Some(&[n(0), n(1), n(2)][..]));
        let prices = recompute_prices(n(0), &[n(1), n(3)], &d1, &routes, &view);
        let entry = prices.entry(n(2), n(1)).expect("transit 1 priced");
        assert_eq!(entry.price, Money::new(8));
        assert_eq!(entry.tags, [n(3)].into_iter().collect());
    }

    #[test]
    fn prices_never_use_the_priced_node_as_witness() {
        // Only neighbor is k itself: no candidate may be produced.
        let d1 = data1(&[(0, 0), (1, 5), (2, 0)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(2)],
            },
        );
        let routes = recompute_routes(n(0), &[n(1)], &d1, &view);
        let prices = recompute_prices(n(0), &[n(1)], &d1, &routes, &view);
        assert!(prices.entry(n(2), n(1)).is_none());
    }

    #[test]
    fn prices_tie_produces_tag_union() {
        // Two equal detours through neighbors 3 and 4.
        let d1 = data1(&[(0, 0), (1, 5), (2, 0), (3, 8), (4, 8)]);
        let mut view = NeighborView::new();
        for b in [1u32, 3, 4] {
            view.learn_route(
                n(b),
                &RouteRow {
                    dst: n(2),
                    path: vec![n(b), n(2)],
                },
            );
        }
        let routes = recompute_routes(n(0), &[n(1), n(3), n(4)], &d1, &view);
        let prices = recompute_prices(n(0), &[n(1), n(3), n(4)], &d1, &routes, &view);
        let entry = prices.entry(n(2), n(1)).expect("priced");
        assert_eq!(entry.tags, [n(3), n(4)].into_iter().collect());
    }

    #[test]
    fn prices_use_neighbor_price_when_detour_also_crosses_k() {
        // b's path to dst also goes through k; b's advertised price for k
        // encodes its k-avoiding distance.
        // Geometry: 0 -1- 2, and neighbor 3 whose path is 3-1-2 with an
        // advertised price p¹₃ = 9 (so d_{G−1}(3,2) = 9 − 5 + 5 = 9).
        let d1 = data1(&[(0, 0), (1, 5), (2, 0), (3, 2)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(2)],
            },
        );
        view.learn_route(
            n(3),
            &RouteRow {
                dst: n(2),
                path: vec![n(3), n(1), n(2)],
            },
        );
        view.learn_price(
            n(3),
            &PriceRow {
                dst: n(2),
                transit: n(1),
                price: Money::new(9),
                tags: TagSet::new(),
            },
        );
        let routes = recompute_routes(n(0), &[n(1), n(3)], &d1, &view);
        // Route 0→2: via 1 costs 5; via 3 costs 2+5=7 → via 1.
        assert_eq!(routes.path(n(2)), Some(&[n(0), n(1), n(2)][..]));
        let prices = recompute_prices(n(0), &[n(1), n(3)], &d1, &routes, &view);
        let entry = prices.entry(n(2), n(1)).expect("priced");
        // p¹₀ = c₁ + [c₃ + (p¹₃ − c₁ + d₃)] − d₀ = 5 + [2 + (9−5+5)] − 5 = 11.
        assert_eq!(entry.price, Money::new(11));
    }

    #[test]
    fn prices_skip_when_neighbor_price_missing() {
        let d1 = data1(&[(0, 0), (1, 5), (2, 0), (3, 2)]);
        let mut view = NeighborView::new();
        view.learn_route(
            n(1),
            &RouteRow {
                dst: n(2),
                path: vec![n(1), n(2)],
            },
        );
        view.learn_route(
            n(3),
            &RouteRow {
                dst: n(2),
                path: vec![n(3), n(1), n(2)],
            },
        );
        // No price advertised by 3 yet → no entry (the iteration will
        // produce it once 3's price arrives).
        let routes = recompute_routes(n(0), &[n(1), n(3)], &d1, &view);
        let prices = recompute_prices(n(0), &[n(1), n(3)], &d1, &routes, &view);
        assert!(prices.entry(n(2), n(1)).is_none());
    }
}
