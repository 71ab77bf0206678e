//! The per-node data of FPSS §4.1: DATA1–DATA4, with canonical bank hashes.

use crate::msg::{PriceRow, RouteRow, TagSet};
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_crypto::sha256::Digest;
use specfaith_crypto::tablehash::TableHasher;
use std::collections::BTreeMap;
use std::fmt;

/// \[DATA1\] Transit-cost list: this node's knowledge of declared transit
/// costs across the network, filled by the phase-1 flood.
///
/// Stored densely by node index: the list sits on the innermost loops of
/// every routing/pricing recomputation (once per candidate path node), so
/// lookups must be array reads, not tree walks. Node ids are dense
/// (`0..n`) by construction, making the representation exact.
#[derive(Clone, Debug, Default)]
pub struct TransitCostList {
    /// `costs[node.index()]`; `None` = not yet learned. May carry trailing
    /// `None`s, which never affect equality or iteration.
    costs: Vec<Option<Cost>>,
    known: usize,
}

impl TransitCostList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `origin`'s declared cost. Returns `true` when this is new
    /// information (first declaration wins; FPSS assumes a static network,
    /// so re-declarations are duplicates from the flood).
    pub fn learn(&mut self, origin: NodeId, declared: Cost) -> bool {
        let at = origin.index();
        if at >= self.costs.len() {
            self.costs.resize(at + 1, None);
        }
        if self.costs[at].is_some() {
            return false;
        }
        self.costs[at] = Some(declared);
        self.known += 1;
        true
    }

    /// Overwrites `origin`'s declared cost (the streaming-mode complement
    /// of [`TransitCostList::learn`]: re-declarations are *changes*, not
    /// flood duplicates). Returns `true` when the stored value changed.
    pub fn update(&mut self, origin: NodeId, declared: Cost) -> bool {
        let at = origin.index();
        if at >= self.costs.len() {
            self.costs.resize(at + 1, None);
        }
        if self.costs[at] == Some(declared) {
            return false;
        }
        if self.costs[at].is_none() {
            self.known += 1;
        }
        self.costs[at] = Some(declared);
        true
    }

    /// Forgets `origin`'s declared cost (node churn: a departed node's
    /// cost must become unknown again so a later [`TransitCostList::learn`]
    /// from its re-flood wins). Returns whether a cost was present.
    pub fn forget(&mut self, origin: NodeId) -> bool {
        let at = origin.index();
        match self.costs.get_mut(at) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.known -= 1;
                true
            }
            _ => false,
        }
    }

    /// The declared cost of `node`, if known.
    pub fn declared(&self, node: NodeId) -> Option<Cost> {
        self.costs.get(node.index()).copied().flatten()
    }

    /// Number of nodes with known costs.
    pub fn len(&self) -> usize {
        self.known
    }

    /// Whether no costs are known yet.
    pub fn is_empty(&self) -> bool {
        self.known == 0
    }

    /// Iterates `(node, declared cost)` in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Cost)> + '_ {
        self.costs
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (NodeId::from_index(i), c)))
    }

    /// Sum of declared costs of the *intermediate* nodes of `path`.
    /// Returns `None` if any intermediate's cost is unknown.
    pub fn path_cost(&self, path: &[NodeId]) -> Option<Cost> {
        if path.len() <= 2 {
            return Some(Cost::ZERO);
        }
        path[1..path.len() - 1]
            .iter()
            .try_fold(Cost::ZERO, |acc, v| self.declared(*v).map(|c| acc + c))
    }

    /// The cost of the candidate route `[owner] ++ path`, whose
    /// intermediates are every `path` node except the last: what the
    /// routing update rule charges a neighbor-advertised path, costed
    /// locally (\[CHECK1\]). Returns `None` if any such cost is unknown.
    pub fn extension_cost(&self, path: &[NodeId]) -> Option<Cost> {
        if path.len() <= 1 {
            return Some(Cost::ZERO);
        }
        path[..path.len() - 1]
            .iter()
            .try_fold(Cost::ZERO, |acc, v| self.declared(*v).map(|c| acc + c))
    }

    /// Canonical hash (for completeness; the bank compares DATA2/DATA3*).
    pub fn digest(&self) -> Digest {
        let mut h = TableHasher::new("fpss/data1");
        for (node, cost) in self.iter() {
            h.put_u32(node.raw()).put_u64(cost.value()).row_boundary();
        }
        h.finish()
    }
}

impl PartialEq for TransitCostList {
    fn eq(&self, other: &Self) -> bool {
        // Trailing unlearned slots are representation, not content.
        self.known == other.known && self.iter().eq(other.iter())
    }
}

impl Eq for TransitCostList {}

/// \[DATA2\] Routing table: this node's current lowest-cost path per
/// destination.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingTable {
    routes: BTreeMap<NodeId, Vec<NodeId>>,
}

impl RoutingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current path to `dst`, if any (starts at the owner, ends at
    /// `dst`).
    pub fn path(&self, dst: NodeId) -> Option<&[NodeId]> {
        self.routes.get(&dst).map(Vec::as_slice)
    }

    /// The next hop toward `dst`, if a route exists.
    pub fn next_hop(&self, dst: NodeId) -> Option<NodeId> {
        self.routes.get(&dst).and_then(|p| p.get(1)).copied()
    }

    /// Installs a route, returning `true` if the entry changed.
    pub fn install(&mut self, dst: NodeId, path: Vec<NodeId>) -> bool {
        if self.routes.get(&dst).map(Vec::as_slice) == Some(path.as_slice()) {
            return false;
        }
        self.routes.insert(dst, path);
        true
    }

    /// Removes the route to `dst`, returning whether one was present.
    pub fn remove(&mut self, dst: NodeId) -> bool {
        self.routes.remove(&dst).is_some()
    }

    /// Number of destinations with routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterates `(dst, path)` in destination order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> + '_ {
        self.routes.iter().map(|(&d, p)| (d, p.as_slice()))
    }

    /// The table as announcement rows.
    pub fn to_rows(&self) -> Vec<RouteRow> {
        self.iter()
            .map(|(dst, path)| RouteRow {
                dst,
                path: path.to_vec(),
            })
            .collect()
    }

    /// Canonical hash compared by \[BANK1\].
    pub fn digest(&self) -> Digest {
        let mut h = TableHasher::new("fpss/data2");
        for (dst, path) in &self.routes {
            h.put_u32(dst.raw());
            for v in path {
                h.put_u32(v.raw());
            }
            h.row_boundary();
        }
        h.finish()
    }
}

/// One entry of the extended pricing table \[DATA3*\]: the per-packet price
/// of a transit node plus the identity tags of §4.2.
///
/// Tags are a [`TagSet`]: the common one-to-four-tag entry carries them
/// inline, so building, comparing and announcing an entry allocates
/// nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PriceEntry {
    /// Per-packet VCG payment.
    pub price: Money,
    /// The neighbor(s) whose information produced this entry (union on
    /// pricing ties) — the spoof-detection extension of the paper.
    pub tags: TagSet,
}

/// \[DATA3*\] Pricing table: per `(destination, transit)` pair, the
/// per-packet payment this node owes that transit, with identity tags.
///
/// Stored per destination: each destination maps to its `(transit,
/// entry)` rows sorted by transit, and no destination maps to an empty
/// list. A destination's rows are what one destination-scoped recompute
/// produces, so [`PricingTable::replace_dst`] swaps them in with one merge
/// diff, and a single-row lookup is one tree step plus a binary search in
/// a slice of a few rows. Iteration, digests and announced rows follow
/// `(dst, transit)` key order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PricingTable {
    rows: BTreeMap<NodeId, Vec<(NodeId, PriceEntry)>>,
}

/// Appends the announcement of `dst`'s move from rows `old` to rows `new`
/// (both sorted by transit): every new row that differs from its old
/// counterpart to `changed`, every old transit absent from `new` to
/// `retracted` — each in transit order.
fn diff_rows(
    dst: NodeId,
    old: &[(NodeId, PriceEntry)],
    new: &[(NodeId, PriceEntry)],
    changed: &mut Vec<PriceRow>,
    retracted: &mut Vec<(NodeId, NodeId)>,
) {
    let mut old = old.iter().peekable();
    for (transit, entry) in new {
        while let Some((gone, _)) = old.next_if(|(k, _)| k < transit) {
            retracted.push((dst, *gone));
        }
        if old.next_if(|(k, _)| k == transit).map(|(_, e)| e) != Some(entry) {
            changed.push(PriceRow {
                dst,
                transit: *transit,
                price: entry.price,
                tags: entry.tags.clone(),
            });
        }
    }
    retracted.extend(old.map(|(gone, _)| (dst, *gone)));
}

impl PricingTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for traffic to `dst` transiting `transit`.
    pub fn entry(&self, dst: NodeId, transit: NodeId) -> Option<&PriceEntry> {
        let rows = self.rows.get(&dst)?;
        let at = rows.binary_search_by_key(&transit, |(k, _)| *k).ok()?;
        Some(&rows[at].1)
    }

    /// The price for `(dst, transit)`, if present.
    pub fn price(&self, dst: NodeId, transit: NodeId) -> Option<Money> {
        self.entry(dst, transit).map(|e| e.price)
    }

    /// Replaces `dst`'s rows with `rows` (sorted by transit, as
    /// [`crate::compute::price_entries_to`] returns them), appending what
    /// must be announced: new or changed rows to `changed`, transits that
    /// left the table to `retracted`, each in transit order.
    pub fn replace_dst(
        &mut self,
        dst: NodeId,
        rows: Vec<(NodeId, PriceEntry)>,
        changed: &mut Vec<PriceRow>,
        retracted: &mut Vec<(NodeId, NodeId)>,
    ) {
        let old = self.rows.get(&dst).map_or(&[][..], Vec::as_slice);
        diff_rows(dst, old, &rows, changed, retracted);
        if rows.is_empty() {
            self.rows.remove(&dst);
        } else {
            self.rows.insert(dst, rows);
        }
    }

    /// Writes (`Some`) or removes (`None`) the one entry for `(dst,
    /// transit)` — the row-scoped counterpart of
    /// [`PricingTable::replace_dst`] — appending what must be announced:
    /// the row to `changed` if it differs from the stored entry, the key to
    /// `retracted` if a stored entry was removed.
    pub fn set_entry(
        &mut self,
        dst: NodeId,
        transit: NodeId,
        entry: Option<PriceEntry>,
        changed: &mut Vec<PriceRow>,
        retracted: &mut Vec<(NodeId, NodeId)>,
    ) {
        let Some(entry) = entry else {
            if self.remove(dst, transit) {
                retracted.push((dst, transit));
            }
            return;
        };
        let rows = self.rows.entry(dst).or_default();
        let found = rows.binary_search_by_key(&transit, |(k, _)| *k);
        if matches!(found, Ok(at) if rows[at].1 == entry) {
            return;
        }
        changed.push(PriceRow {
            dst,
            transit,
            price: entry.price,
            tags: entry.tags.clone(),
        });
        match found {
            Ok(at) => rows[at].1 = entry,
            Err(at) => rows.insert(at, (transit, entry)),
        }
    }

    /// Replaces the whole table (the recompute functions build fresh
    /// tables). Returns `(changed rows, retracted keys)` — exactly what
    /// must be announced to neighbors, in key order: the
    /// [`PricingTable::replace_dst`] diff of every destination either
    /// table holds. Retractions matter for the checker protocol: the
    /// announced table accumulated by checkers must track removals, or the
    /// \[BANK2\] hash comparison would flag honest nodes.
    pub fn replace(&mut self, new: PricingTable) -> (Vec<PriceRow>, Vec<(NodeId, NodeId)>) {
        let mut changed = Vec::new();
        let mut retracted = Vec::new();
        let mut old = std::mem::take(&mut self.rows).into_iter().peekable();
        for (&dst, rows) in &new.rows {
            while let Some((gone, old_rows)) = old.next_if(|(d, _)| *d < dst) {
                diff_rows(gone, &old_rows, &[], &mut changed, &mut retracted);
            }
            let old_rows = old.next_if(|(d, _)| *d == dst).map(|(_, r)| r);
            diff_rows(
                dst,
                old_rows.as_deref().unwrap_or_default(),
                rows,
                &mut changed,
                &mut retracted,
            );
        }
        for (gone, old_rows) in old {
            diff_rows(gone, &old_rows, &[], &mut changed, &mut retracted);
        }
        self.rows = new.rows;
        (changed, retracted)
    }

    /// Removes an entry, returning whether it was present.
    pub fn remove(&mut self, dst: NodeId, transit: NodeId) -> bool {
        let Some(rows) = self.rows.get_mut(&dst) else {
            return false;
        };
        let Ok(at) = rows.binary_search_by_key(&transit, |(k, _)| *k) else {
            return false;
        };
        rows.remove(at);
        if rows.is_empty() {
            self.rows.remove(&dst);
        }
        true
    }

    /// Inserts a single entry (used by mirrors and tests).
    pub fn insert(&mut self, dst: NodeId, transit: NodeId, entry: PriceEntry) {
        let rows = self.rows.entry(dst).or_default();
        match rows.binary_search_by_key(&transit, |(k, _)| *k) {
            Ok(at) => rows[at].1 = entry,
            Err(at) => rows.insert(at, (transit, entry)),
        }
    }

    /// Installs the rows of a destination this table does not hold yet
    /// (sorted by transit; empty lists are skipped). The full recompute
    /// builds its fresh table this way.
    pub(crate) fn push_dst(&mut self, dst: NodeId, rows: Vec<(NodeId, PriceEntry)>) {
        if !rows.is_empty() {
            self.rows.insert(dst, rows);
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rows.values().map(Vec::len).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates `((dst, transit), entry)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = ((NodeId, NodeId), &PriceEntry)> + '_ {
        self.rows
            .iter()
            .flat_map(|(&dst, rows)| rows.iter().map(move |(k, e)| ((dst, *k), e)))
    }

    /// The table as announcement rows.
    pub fn to_rows(&self) -> Vec<PriceRow> {
        self.iter()
            .map(|((dst, transit), e)| PriceRow {
                dst,
                transit,
                price: e.price,
                tags: e.tags.clone(),
            })
            .collect()
    }

    /// Canonical hash compared by \[BANK2\]. Includes the identity tags —
    /// that inclusion is what catches spoofed pricing messages (§4.3).
    pub fn digest(&self) -> Digest {
        let mut h = TableHasher::new("fpss/data3*");
        for ((dst, transit), entry) in self.iter() {
            h.put_u32(dst.raw())
                .put_u32(transit.raw())
                .put_i64(entry.price.value());
            for tag in &entry.tags {
                h.put_u32(tag.raw());
            }
            h.row_boundary();
        }
        h.finish()
    }

    /// Ablation of the paper's DATA3* extension: the hash the *original*
    /// FPSS \[DATA3\] would give — prices only, no identity tags. Exists to
    /// demonstrate (in tests and EXPERIMENTS.md) that without tags in the
    /// hash, a pure tag forgery passes \[BANK2\] undetected.
    pub fn digest_without_tags(&self) -> Digest {
        let mut h = TableHasher::new("fpss/data3");
        for ((dst, transit), entry) in self.iter() {
            h.put_u32(dst.raw())
                .put_u32(transit.raw())
                .put_i64(entry.price.value());
            h.row_boundary();
        }
        h.finish()
    }
}

/// \[DATA4\] Payment ledger: amounts this node owes each transit node for
/// traffic it originated.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PaymentLedger {
    owed: BTreeMap<NodeId, Money>,
}

impl PaymentLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accrues `amount` owed to `transit`.
    pub fn accrue(&mut self, transit: NodeId, amount: Money) {
        let slot = self.owed.entry(transit).or_insert(Money::ZERO);
        *slot += amount;
    }

    /// The amount owed to `transit`.
    pub fn owed_to(&self, transit: NodeId) -> Money {
        self.owed.get(&transit).copied().unwrap_or(Money::ZERO)
    }

    /// Total owed across all transits.
    pub fn total_owed(&self) -> Money {
        self.owed.values().copied().sum()
    }

    /// Iterates `(transit, amount)` in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Money)> + '_ {
        self.owed.iter().map(|(&k, &v)| (k, v))
    }

    /// The ledger as a vector of `(transit, amount)` pairs.
    pub fn to_entries(&self) -> Vec<(NodeId, Money)> {
        self.iter().collect()
    }
}

impl fmt::Display for PaymentLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "owes ")?;
        let mut first = true;
        for (node, amount) in &self.owed {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{node}:{amount}")?;
            first = false;
        }
        if first {
            write!(f, "nothing")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn data1_first_declaration_wins() {
        let mut list = TransitCostList::new();
        assert!(list.learn(n(1), Cost::new(5)));
        assert!(!list.learn(n(1), Cost::new(9)));
        assert_eq!(list.declared(n(1)), Some(Cost::new(5)));
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn data1_update_overwrites_and_forget_unlearns() {
        let mut list = TransitCostList::new();
        assert!(list.learn(n(1), Cost::new(5)));
        // Overwrite: changes win, identical values report no change.
        assert!(list.update(n(1), Cost::new(9)));
        assert!(!list.update(n(1), Cost::new(9)));
        assert_eq!(list.declared(n(1)), Some(Cost::new(9)));
        assert_eq!(list.len(), 1);
        // Update on an unknown node learns it.
        assert!(list.update(n(3), Cost::new(2)));
        assert_eq!(list.len(), 2);
        // Forget makes the slot unknown and re-opens first-write-wins.
        assert!(list.forget(n(1)));
        assert!(!list.forget(n(1)));
        assert_eq!(list.declared(n(1)), None);
        assert_eq!(list.len(), 1);
        assert!(list.learn(n(1), Cost::new(4)));
        assert_eq!(list.declared(n(1)), Some(Cost::new(4)));
    }

    #[test]
    fn data1_path_cost_counts_intermediates_only() {
        let mut list = TransitCostList::new();
        for (id, c) in [(0, 10), (1, 2), (2, 3), (3, 10)] {
            list.learn(n(id), Cost::new(c));
        }
        assert_eq!(
            list.path_cost(&[n(0), n(1), n(2), n(3)]),
            Some(Cost::new(5))
        );
        assert_eq!(list.path_cost(&[n(0), n(3)]), Some(Cost::ZERO));
        assert_eq!(list.path_cost(&[n(0)]), Some(Cost::ZERO));
    }

    #[test]
    fn data1_path_cost_requires_known_costs() {
        let mut list = TransitCostList::new();
        list.learn(n(0), Cost::new(1));
        assert_eq!(list.path_cost(&[n(0), n(9), n(1)]), None);
    }

    #[test]
    fn data2_install_reports_changes() {
        let mut table = RoutingTable::new();
        assert!(table.install(n(1), vec![n(0), n(1)]));
        assert!(!table.install(n(1), vec![n(0), n(1)]));
        assert!(table.install(n(1), vec![n(0), n(2), n(1)]));
        assert_eq!(table.next_hop(n(1)), Some(n(2)));
    }

    #[test]
    fn data2_digest_changes_with_contents() {
        let mut a = RoutingTable::new();
        a.install(n(1), vec![n(0), n(1)]);
        let mut b = RoutingTable::new();
        b.install(n(1), vec![n(0), n(2), n(1)]);
        assert_ne!(a.digest(), b.digest());
        let mut c = RoutingTable::new();
        c.install(n(1), vec![n(0), n(1)]);
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn data3_replace_returns_changed_rows() {
        let mut table = PricingTable::new();
        let mut next = PricingTable::new();
        next.insert(
            n(1),
            n(2),
            PriceEntry {
                price: Money::new(4),
                tags: [n(3)].into_iter().collect(),
            },
        );
        let (changed, retracted) = table.replace(next.clone());
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].price, Money::new(4));
        assert!(retracted.is_empty());
        // Replacing with identical contents reports nothing.
        let (changed, retracted) = table.replace(next);
        assert!(changed.is_empty() && retracted.is_empty());
        // Replacing with an empty table retracts the entry.
        let (changed, retracted) = table.replace(PricingTable::new());
        assert!(changed.is_empty());
        assert_eq!(retracted, vec![(n(1), n(2))]);
    }

    #[test]
    fn data3_digest_covers_tags() {
        let entry = |tags: &[u32]| PriceEntry {
            price: Money::new(4),
            tags: tags.iter().map(|&t| n(t)).collect(),
        };
        let mut a = PricingTable::new();
        a.insert(n(1), n(2), entry(&[3]));
        let mut b = PricingTable::new();
        b.insert(n(1), n(2), entry(&[4]));
        assert_ne!(a.digest(), b.digest(), "tags are part of the hash");
    }

    /// A three-entry table whose entries all carry the ids of `tags`
    /// (shifted per destination, so unsorted and duplicated input
    /// exercises the set's sorting and deduplication).
    fn pinned_table(tags: &[u32]) -> PricingTable {
        let mut table = PricingTable::new();
        for (dst, transit, price) in [(3, 7, 11), (1, 2, -4), (3, 2, 0)] {
            table.insert(
                n(dst),
                n(transit),
                PriceEntry {
                    price: Money::new(price + tags.len() as i64),
                    tags: tags.iter().map(|&t| n(t + dst)).collect(),
                },
            );
        }
        table
    }

    /// Pins the DATA3* hash bytes for entries carrying 0, 1, 4 (inline at
    /// capacity) and 5 (spilled to the heap) tags. The bank compares these
    /// digests across principal and checkers, so neither the table's
    /// storage layout nor the tag representation may reach the hash. The
    /// constants were computed with the earlier `BTreeMap<(dst, transit),
    /// _>` table and `BTreeSet` tags.
    #[test]
    fn data3_digests_are_pinned() {
        let cases: [(&[u32], usize, &str, &str); 4] = [
            (
                &[],
                0,
                "a28e1da180c8e5d15b85f6a5b5d9a6a16d393658235a497f9e3151f6c64d38e8",
                "f39ba6d19e7379db452a0abe544f919319ea1a015ada936a3f09574545763b29",
            ),
            (
                &[5],
                1,
                "7f6418f63b3efdfe4d133ae454989ce3fd434ef02cf23a3b10321c385983e444",
                "cbe988f78a3b2bf4f46e4f41b4c24f59630427ce6a3c6434e669fb20b66e48b1",
            ),
            (
                &[9, 4, 4, 6, 1],
                4,
                "ed9ae3755c16ce05419a24a56c405c5507ff63f6085814f196b808272658a757",
                "f7fde4124f59b67e73312db3503c4e48961279f2a2c3231ead4fc60bf9bdd637",
            ),
            (
                &[8, 3, 12, 0, 5, 3],
                5,
                "7c3ef38279a08d2e7d28d679dc034c17a699204ea59f613e5d773475b4eef2ee",
                "221e8e721b98eeb8ead64aabe1652285bd02d8baadf61e6fcea027f819f6d1eb",
            ),
        ];
        for (tags, len, digest, without_tags) in cases {
            let table = pinned_table(tags);
            assert!(table.iter().all(|(_, e)| e.tags.len() == len), "{tags:?}");
            assert_eq!(table.digest().to_hex(), digest, "{tags:?}");
            assert_eq!(
                table.digest_without_tags().to_hex(),
                without_tags,
                "{tags:?}"
            );
        }
    }

    #[test]
    fn data3_replace_dst_diffs_in_transit_order() {
        let entry = |price: i64, tag: u32| PriceEntry {
            price: Money::new(price),
            tags: TagSet::single(n(tag)),
        };
        let mut table = PricingTable::new();
        let (mut changed, mut retracted) = (Vec::new(), Vec::new());
        table.replace_dst(
            n(9),
            vec![
                (n(1), entry(1, 5)),
                (n(3), entry(3, 5)),
                (n(5), entry(5, 5)),
            ],
            &mut changed,
            &mut retracted,
        );
        assert_eq!(changed.len(), 3);
        assert!(retracted.is_empty());
        let (mut changed, mut retracted) = (Vec::new(), Vec::new());
        // Keep 3, retag 5, drop 1, add 2 and 7.
        table.replace_dst(
            n(9),
            vec![
                (n(2), entry(2, 5)),
                (n(3), entry(3, 5)),
                (n(5), entry(5, 6)),
                (n(7), entry(7, 5)),
            ],
            &mut changed,
            &mut retracted,
        );
        let keys: Vec<(NodeId, NodeId)> = changed.iter().map(|r| (r.dst, r.transit)).collect();
        assert_eq!(keys, vec![(n(9), n(2)), (n(9), n(5)), (n(9), n(7))]);
        assert_eq!(retracted, vec![(n(9), n(1))]);
        assert_eq!(table.len(), 4);
        // An empty row list retracts everything and leaves no empty list.
        let (mut changed, mut retracted) = (Vec::new(), Vec::new());
        table.replace_dst(n(9), Vec::new(), &mut changed, &mut retracted);
        assert!(changed.is_empty());
        assert_eq!(retracted.len(), 4);
        assert!(table.is_empty());
        assert_eq!(table, PricingTable::new());
    }

    #[test]
    fn data3_set_entry_announces_only_changes() {
        let entry = |price: i64| PriceEntry {
            price: Money::new(price),
            tags: TagSet::single(n(5)),
        };
        let mut table = PricingTable::new();
        let (mut changed, mut retracted) = (Vec::new(), Vec::new());
        table.set_entry(n(9), n(3), Some(entry(3)), &mut changed, &mut retracted);
        table.set_entry(n(9), n(1), Some(entry(1)), &mut changed, &mut retracted);
        table.set_entry(n(9), n(3), Some(entry(3)), &mut changed, &mut retracted);
        table.set_entry(n(9), n(3), Some(entry(4)), &mut changed, &mut retracted);
        let keys: Vec<_> = changed.iter().map(|r| (r.transit, r.price)).collect();
        let expected = [(n(3), 3), (n(1), 1), (n(3), 4)].map(|(k, p)| (k, Money::new(p)));
        assert_eq!(keys, expected);
        assert!(retracted.is_empty());
        assert_eq!(table.price(n(9), n(3)), Some(Money::new(4)));
        // Removing an absent entry announces nothing; removing the last
        // entry of a destination leaves no empty list.
        changed.clear();
        table.set_entry(n(9), n(2), None, &mut changed, &mut retracted);
        assert!(retracted.is_empty());
        table.set_entry(n(9), n(1), None, &mut changed, &mut retracted);
        table.set_entry(n(9), n(3), None, &mut changed, &mut retracted);
        assert!(changed.is_empty());
        assert_eq!(retracted, vec![(n(9), n(1)), (n(9), n(3))]);
        assert_eq!(table, PricingTable::new());
    }

    #[test]
    fn data4_accrues() {
        let mut ledger = PaymentLedger::new();
        ledger.accrue(n(1), Money::new(3));
        ledger.accrue(n(1), Money::new(4));
        ledger.accrue(n(2), Money::new(1));
        assert_eq!(ledger.owed_to(n(1)), Money::new(7));
        assert_eq!(ledger.total_owed(), Money::new(8));
        assert_eq!(ledger.to_entries().len(), 2);
    }

    #[test]
    fn data4_display() {
        let mut ledger = PaymentLedger::new();
        assert_eq!(ledger.to_string(), "owes nothing");
        ledger.accrue(n(1), Money::new(3));
        assert_eq!(ledger.to_string(), "owes n1:3");
    }
}
