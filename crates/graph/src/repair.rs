//! Incremental LCP-tree repair: recompute `d_{G−k}` and one-node cost
//! changes from an existing base tree instead of running a fresh Dijkstra
//! over the whole graph.
//!
//! Both entry points are **exact**: the repaired tree is element-for-element
//! equal — costs, hop counts, and lexicographic tie-breaks included — to the
//! tree a fresh [`lcp_tree_avoiding`](crate::lcp::lcp_tree_avoiding) /
//! [`lcp_tree`](crate::lcp::lcp_tree) run would produce. The equivalence is
//! what lets [`RouteCache`](crate::cache::RouteCache) substitute repair for
//! fresh computation without perturbing a single byte of any downstream
//! result (VCG payments, sweep reports, fingerprints).
//!
//! # The invariant: only the detached subtree re-relaxes
//!
//! Removing a node `k` from the graph can only *remove* paths, and the
//! [`PathMetric`] order makes every per-destination minimum unique. So for
//! any destination `v` whose base path does not traverse `k`, that path is
//! still present in `G − k` and still beats every competitor: the entry is
//! **exactly unchanged**. The only entries that can change are the ones in
//! the subtree hanging below `k` in the base shortest-path tree — the
//! *detached region*. Repair therefore:
//!
//! 1. copies every unaffected entry verbatim,
//! 2. seeds a heap with the frontier extensions `base[u] + (u → x)` for
//!    every unaffected `u` adjacent to a detached `x`, and
//! 3. runs Dijkstra restricted to the detached region only.
//!
//! Correctness of the frontier seeding rests on the *prefix property* of
//! the unique-minimum tree: walking the true `G − k` optimum of a detached
//! destination backwards, every node up to and including the last
//! unaffected node `u` on it is itself unaffected and its prefix equals
//! `base[u]` (prefixes of unique optima are unique optima, and `base[u]`
//! remains optimal in the subgraph); every node after `u` is detached. The
//! restricted Dijkstra explores exactly these suffixes, so it finds every
//! detached optimum — and the shared total order reproduces the fresh
//! computation's tie-breaks bit-for-bit.
//!
//! The same idea repairs a **one-node cost change** (the deviation-sweep
//! workload, where a deviant's declared vector differs from the honest one
//! at a single node `d`):
//!
//! * an **increase** invalidates exactly the entries routing *through* `d`
//!   (cost counts intermediate nodes only, so entries ending at `d`, and
//!   entries not using `d`, keep both their path and their cost) — the
//!   detached region is `{v : d ∈ interior(base[v])}` and repair proceeds
//!   as above with the new charges;
//! * a **decrease** by `δ` keeps every through-`d` path optimal (any
//!   competitor's cost falls by at most `δ`, and ties still break the same
//!   way), so those entries are *adjusted in place* (cost − `δ`), and the
//!   improvement is then propagated outward: a Dijkstra pass seeded from
//!   the adjusted region, with every other base entry standing as an upper
//!   bound that only a strictly better through-`d` path may displace.
//!
//! Per-tree cost drops from `O(m log n)` on the whole graph to work
//! proportional to the affected region — tiny for most `k` on scale-free
//! topologies, where the vast majority of nodes hang off hubs and detach
//! nothing.

use crate::costs::CostVector;
use crate::path::PathMetric;
use crate::topology::Topology;
use specfaith_core::id::NodeId;
use specfaith_core::money::Cost;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Repairs `base` — the LCP tree rooted at `src` under `(topo, costs)` —
/// into the `d_{G−avoid}` tree, re-relaxing only the subtree detached by
/// removing `avoid` (see the [module docs](self)).
///
/// Exactly equivalent to
/// [`lcp_tree_avoiding(topo, costs, src, Some(avoid))`](crate::lcp::lcp_tree_avoiding).
///
/// # Panics
///
/// Panics if `avoid == src`, if the cost vector's arity does not match the
/// topology, or if `base` is not sized to the topology.
pub fn repair_avoiding(
    topo: &Topology,
    costs: &CostVector,
    base: &[Option<PathMetric>],
    src: NodeId,
    avoid: NodeId,
) -> Vec<Option<PathMetric>> {
    assert_eq!(
        topo.num_nodes(),
        costs.len(),
        "cost vector arity must match topology"
    );
    assert_eq!(
        base.len(),
        topo.num_nodes(),
        "base tree arity must match topology"
    );
    assert!(avoid != src, "cannot avoid the source of the LCP query");
    let n = topo.num_nodes();
    // Detached region: every destination whose base path traverses `avoid`
    // (including `avoid` itself — its entry ends there). Unreachable
    // destinations (`None`) stay unreachable in the smaller graph.
    let mut detached = vec![false; n];
    let mut repaired: Vec<Option<PathMetric>> = Vec::with_capacity(n);
    let mut any = false;
    for (i, entry) in base.iter().enumerate() {
        let hit = entry.as_ref().is_some_and(|p| p.contains(avoid));
        detached[i] = hit;
        any |= hit;
        repaired.push(if hit { None } else { entry.clone() });
    }
    if !any {
        // `avoid` is off every base path (e.g. unreachable): nothing to do.
        return repaired;
    }
    rebuild_region(topo, costs, &mut repaired, &detached, Some(avoid));
    repaired
}

/// The costs of [`repair_avoiding`]'s tree without its paths: entry
/// `dst.index()` is `d_{G−avoid}(src, dst)`, or `None` where `dst` is
/// unreachable without `avoid` (and at `avoid` itself).
///
/// A VCG price needs only this distance, so the detached-region rebuild
/// of [`repair_avoiding`] runs here on bare costs: no path is cloned or
/// extended. A minimum cost does not depend on how ties between paths
/// break, so every entry equals the cost of the matching
/// [`repair_avoiding`] (and fresh
/// [`lcp_tree_avoiding`](crate::lcp::lcp_tree_avoiding)) entry.
///
/// # Panics
///
/// Panics if `avoid == src`, if the cost vector's arity does not match the
/// topology, or if `base` is not sized to the topology.
pub fn repair_avoiding_costs(
    topo: &Topology,
    costs: &CostVector,
    base: &[Option<PathMetric>],
    src: NodeId,
    avoid: NodeId,
) -> Vec<Option<Cost>> {
    assert_eq!(
        topo.num_nodes(),
        costs.len(),
        "cost vector arity must match topology"
    );
    assert_eq!(
        base.len(),
        topo.num_nodes(),
        "base tree arity must match topology"
    );
    assert!(avoid != src, "cannot avoid the source of the LCP query");
    let n = topo.num_nodes();
    let mut detached = vec![false; n];
    let mut dist: Vec<Option<Cost>> = Vec::with_capacity(n);
    let mut region = Vec::new();
    for (i, entry) in base.iter().enumerate() {
        let hit = entry.as_ref().is_some_and(|p| p.contains(avoid));
        detached[i] = hit;
        if hit {
            region.push(i);
        }
        dist.push(entry.as_ref().filter(|_| !hit).map(PathMetric::cost));
    }
    // Seed every detached node (but `avoid`) from its intact neighbors,
    // each charging its transit cost. The source, which would charge
    // nothing, seeds no one: a neighbor's unique LCP is the direct edge,
    // which detaches only when the neighbor is `avoid`.
    let mut heap: BinaryHeap<Reverse<(Cost, usize)>> = BinaryHeap::new();
    for &x_idx in &region {
        let x = NodeId::from_index(x_idx);
        if x == avoid {
            continue;
        }
        for &u in topo.neighbors(x) {
            if detached[u.index()] {
                continue;
            }
            if let Some(d) = dist[u.index()] {
                let candidate = d + costs.cost(u);
                if dist[x_idx].is_none_or(|cur| candidate < cur) {
                    dist[x_idx] = Some(candidate);
                }
            }
        }
        if let Some(d) = dist[x_idx] {
            heap.push(Reverse((d, x_idx)));
        }
    }
    // Dijkstra restricted to the detached region, never entering `avoid`.
    let mut settled = vec![false; n];
    while let Some(Reverse((d, at))) = heap.pop() {
        if settled[at] || dist[at] != Some(d) {
            continue;
        }
        settled[at] = true;
        let candidate = d + costs.cost(NodeId::from_index(at));
        for &next in topo.neighbors(NodeId::from_index(at)) {
            let i = next.index();
            if !detached[i] || settled[i] || next == avoid {
                continue;
            }
            if dist[i].is_none_or(|cur| candidate < cur) {
                dist[i] = Some(candidate);
                heap.push(Reverse((candidate, i)));
            }
        }
    }
    dist
}

/// Repairs `base` — the LCP tree rooted at `src` under `old_costs` — into
/// the tree under `new_costs`, where the two vectors differ at exactly the
/// node `changed` (see the [module docs](self) for the increase/decrease
/// split).
///
/// Exactly equivalent to
/// [`lcp_tree(topo, new_costs, src)`](crate::lcp::lcp_tree).
///
/// # Panics
///
/// Panics if the arities disagree, or if the vectors differ anywhere other
/// than `changed`.
pub fn repair_cost_change(
    topo: &Topology,
    new_costs: &CostVector,
    base: &[Option<PathMetric>],
    src: NodeId,
    changed: NodeId,
    old_cost: Cost,
) -> Vec<Option<PathMetric>> {
    assert_eq!(
        topo.num_nodes(),
        new_costs.len(),
        "cost vector arity must match topology"
    );
    assert_eq!(
        base.len(),
        topo.num_nodes(),
        "base tree arity must match topology"
    );
    let new_cost = new_costs.cost(changed);
    // A source is never charged for its own traffic, and a cost touches a
    // path only through interior membership — so a tree rooted at the
    // changed node, or an unchanged cost, repairs to an identical copy.
    if src == changed || new_cost == old_cost {
        return base.to_vec();
    }
    if new_cost > old_cost {
        repair_cost_increase(topo, new_costs, base, changed)
    } else {
        repair_cost_decrease(topo, new_costs, base, changed, old_cost)
    }
}

/// The increase direction: entries routing *through* `changed` detach and
/// rebuild; every other entry (including the one ending at `changed`) is
/// verbatim — its path's cost does not mention `changed`, and competitors
/// only got weakly worse.
fn repair_cost_increase(
    topo: &Topology,
    new_costs: &CostVector,
    base: &[Option<PathMetric>],
    changed: NodeId,
) -> Vec<Option<PathMetric>> {
    let n = topo.num_nodes();
    let mut detached = vec![false; n];
    let mut repaired: Vec<Option<PathMetric>> = Vec::with_capacity(n);
    let mut any = false;
    for (i, entry) in base.iter().enumerate() {
        let hit = entry
            .as_ref()
            .is_some_and(|p| p.transit_nodes().contains(&changed));
        detached[i] = hit;
        any |= hit;
        repaired.push(if hit { None } else { entry.clone() });
    }
    if !any {
        return repaired;
    }
    rebuild_region(topo, new_costs, &mut repaired, &detached, None);
    repaired
}

/// The decrease direction: through-`changed` entries stay optimal (their
/// cost just falls by `δ`, and no competitor can fall further), so they are
/// adjusted in place; the cheapened region is then a possible shortcut for
/// everyone else, so a propagation pass relaxes outward from it against the
/// standing base entries as upper bounds.
fn repair_cost_decrease(
    topo: &Topology,
    new_costs: &CostVector,
    base: &[Option<PathMetric>],
    changed: NodeId,
    old_cost: Cost,
) -> Vec<Option<PathMetric>> {
    let n = topo.num_nodes();
    let delta = old_cost.value() - new_costs.cost(changed).value();
    // The exactly-known region: `changed` itself (paths to a destination
    // never charge it) plus every through-`changed` entry, adjusted −δ.
    // Ties still break identically — hop counts and node sequences are
    // untouched, and every equal-cost competitor either also contains
    // `changed` (same −δ) or lost by at least δ before the change.
    let mut adjusted = vec![false; n];
    adjusted[changed.index()] = true;
    let mut repaired: Vec<Option<PathMetric>> = base.to_vec();
    for (i, entry) in base.iter().enumerate() {
        let Some(p) = entry else { continue };
        if p.transit_nodes().contains(&changed) {
            adjusted[i] = true;
            repaired[i] = Some(PathMetric::new(
                p.nodes().to_vec(),
                Cost::new(p.cost().value() - delta),
            ));
        }
    }
    // Improvement propagation: seed from the adjusted region's frontier;
    // outside it, base entries stand as upper bounds that only a strictly
    // better (necessarily through-`changed`) path may displace. On the
    // walk back along any improved optimum, every node past the last
    // adjusted one is itself strictly improved, so committed-node
    // relaxation reaches every improvement.
    let mut heap: BinaryHeap<Reverse<PathMetric>> = BinaryHeap::new();
    for w_idx in 0..n {
        if !adjusted[w_idx] {
            continue;
        }
        let Some(w_path) = repaired[w_idx].clone() else {
            continue;
        };
        let w = NodeId::from_index(w_idx);
        let charge = new_costs.cost(w);
        for &x in topo.neighbors(w) {
            if adjusted[x.index()] {
                continue;
            }
            if let Some(candidate) = w_path.extended(x, charge) {
                let slot = &mut repaired[x.index()];
                if slot.as_ref().is_none_or(|cur| candidate < *cur) {
                    *slot = Some(candidate.clone());
                    heap.push(Reverse(candidate));
                }
            }
        }
    }
    let mut settled = vec![false; n];
    while let Some(Reverse(path)) = heap.pop() {
        let at = path.destination();
        if settled[at.index()] {
            continue;
        }
        // Unlike a from-scratch Dijkstra, slots here start at base values
        // that were never pushed — a popped candidate is committed only if
        // it *is* the slot's current best (lazy deletion of outrun pushes).
        if repaired[at.index()].as_ref() != Some(&path) {
            continue;
        }
        settled[at.index()] = true;
        let charge = new_costs.cost(at);
        for &next in topo.neighbors(at) {
            if settled[next.index()] || adjusted[next.index()] {
                continue;
            }
            if let Some(candidate) = path.extended(next, charge) {
                let slot = &mut repaired[next.index()];
                if slot.as_ref().is_none_or(|cur| candidate < *cur) {
                    *slot = Some(candidate.clone());
                    heap.push(Reverse(candidate));
                }
            }
        }
    }
    repaired
}

/// The shared rebuild pass: Dijkstra restricted to the region marked in
/// `region`, seeded with every frontier extension from an intact entry
/// into the region, never entering `skip`. Entries outside the region are
/// read as seeds and never written; entries inside start empty (`None`)
/// and receive their unique optima in pop order, exactly as the fresh
/// computation would assign them.
fn rebuild_region(
    topo: &Topology,
    costs: &CostVector,
    repaired: &mut [Option<PathMetric>],
    region: &[bool],
    skip: Option<NodeId>,
) {
    let n = topo.num_nodes();
    let mut heap: BinaryHeap<Reverse<PathMetric>> = BinaryHeap::new();
    for u_idx in 0..n {
        if region[u_idx] {
            continue;
        }
        let Some(u_path) = repaired[u_idx].clone() else {
            continue;
        };
        let u = NodeId::from_index(u_idx);
        let charge = costs.cost(u);
        for &x in topo.neighbors(u) {
            if !region[x.index()] || Some(x) == skip {
                continue;
            }
            if let Some(candidate) = u_path.extended(x, charge) {
                let slot = &mut repaired[x.index()];
                if slot.as_ref().is_none_or(|cur| candidate < *cur) {
                    *slot = Some(candidate.clone());
                    heap.push(Reverse(candidate));
                }
            }
        }
    }
    let mut settled = vec![false; n];
    while let Some(Reverse(path)) = heap.pop() {
        let at = path.destination();
        if settled[at.index()] {
            continue;
        }
        settled[at.index()] = true;
        let charge = costs.cost(at);
        for &next in topo.neighbors(at) {
            if settled[next.index()] || !region[next.index()] || Some(next) == skip {
                continue;
            }
            if let Some(candidate) = path.extended(next, charge) {
                let slot = &mut repaired[next.index()];
                if slot.as_ref().is_none_or(|cur| candidate < *cur) {
                    *slot = Some(candidate.clone());
                    heap.push(Reverse(candidate));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{figure1, grid, random_biconnected, scale_free, star};
    use crate::lcp::{lcp_tree, lcp_tree_avoiding};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn removal_repair_matches_fresh_on_figure1() {
        let net = figure1();
        for src in net.topology.nodes() {
            let base = lcp_tree(&net.topology, &net.costs, src);
            for avoid in net.topology.nodes() {
                if avoid == src {
                    continue;
                }
                assert_eq!(
                    repair_avoiding(&net.topology, &net.costs, &base, src, avoid),
                    lcp_tree_avoiding(&net.topology, &net.costs, src, Some(avoid)),
                    "repair({src}, avoid {avoid})"
                );
            }
        }
    }

    #[test]
    fn cost_change_repair_matches_fresh_on_figure1_both_directions() {
        let net = figure1();
        for changed in net.topology.nodes() {
            let old = net.costs.cost(changed);
            for new in [0, 1, 3, 7, 50] {
                let lied = net.costs.with_cost(changed, Cost::new(new));
                for src in net.topology.nodes() {
                    let base = lcp_tree(&net.topology, &net.costs, src);
                    assert_eq!(
                        repair_cost_change(&net.topology, &lied, &base, src, changed, old),
                        lcp_tree(&net.topology, &lied, src),
                        "repair({src}, {changed}: {old} -> {new})"
                    );
                }
            }
        }
    }

    #[test]
    fn unchanged_cost_returns_the_base_verbatim() {
        let net = figure1();
        let base = lcp_tree(&net.topology, &net.costs, net.x);
        let same = repair_cost_change(
            &net.topology,
            &net.costs,
            &base,
            net.x,
            net.c,
            net.costs.cost(net.c),
        );
        assert_eq!(same, base);
    }

    #[test]
    fn source_cost_change_returns_the_base_verbatim() {
        // The source transits its own traffic for free, so its declared
        // cost never appears in its own tree.
        let net = figure1();
        let base = lcp_tree(&net.topology, &net.costs, net.x);
        let lied = net.costs.with_cost(net.x, Cost::new(99));
        let repaired = repair_cost_change(
            &net.topology,
            &lied,
            &base,
            net.x,
            net.x,
            net.costs.cost(net.x),
        );
        assert_eq!(repaired, base);
        assert_eq!(repaired, lcp_tree(&net.topology, &lied, net.x));
    }

    #[test]
    fn removal_repair_handles_disconnection() {
        // Star: removing the hub strands every other leaf.
        let topo = crate::generators::star(6);
        let costs = CostVector::uniform(6, 2);
        let hub = NodeId::new(5);
        let leaf = NodeId::new(1);
        let base = lcp_tree(&topo, &costs, leaf);
        let repaired = repair_avoiding(&topo, &costs, &base, leaf, hub);
        assert_eq!(repaired, lcp_tree_avoiding(&topo, &costs, leaf, Some(hub)));
        let reachable = repaired.iter().flatten().count();
        assert_eq!(reachable, 1, "only the source survives losing the hub");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Detour costs repaired on bare costs equal the costs of the
        /// fresh avoid tree for every `(src, avoid)` pair, across every
        /// generator family — the star's hub is a cut vertex, so
        /// unreachable entries are covered too.
        #[test]
        fn avoiding_costs_equal_fresh_avoid_tree_costs(
            seed in 0u64..400,
            n in 6usize..16,
            family in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = match family {
                0 => star(n),
                1 => grid(3, n / 3),
                2 => scale_free(n, 2, &mut rng),
                _ => random_biconnected(n, n / 2, &mut rng),
            };
            let costs = CostVector::random(topo.num_nodes(), 0, 15, &mut rng);
            for src in topo.nodes() {
                let base = lcp_tree(&topo, &costs, src);
                for avoid in topo.nodes().filter(|&v| v != src) {
                    let fresh: Vec<Option<Cost>> =
                        lcp_tree_avoiding(&topo, &costs, src, Some(avoid))
                            .iter()
                            .map(|p| p.as_ref().map(PathMetric::cost))
                            .collect();
                    prop_assert_eq!(
                        repair_avoiding_costs(&topo, &costs, &base, src, avoid),
                        fresh
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot avoid the source")]
    fn avoid_source_rejected() {
        let net = figure1();
        let base = lcp_tree(&net.topology, &net.costs, net.x);
        let _ = repair_avoiding(&net.topology, &net.costs, &base, net.x, net.x);
    }
}
