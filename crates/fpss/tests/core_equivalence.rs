//! Node-level equivalence of the scoped recompute (CI's named "Node
//! recompute equivalence" gate).
//!
//! Two clones of one [`FpssCore`] receive the same random interleaving of
//! declared costs, routing updates, pricing updates and price
//! retractions. One clone takes each step through the handler entry
//! points a faithful node calls — [`FpssCore::apply_cost_change`],
//! [`FpssCore::apply_routing_update`] and
//! [`FpssCore::apply_pricing_update`] under [`Faithful`] — which recompute
//! only what the step invalidated: the affected destinations, or for a
//! pricing update the changed `(dst, transit)` entries. The other clone
//! learns the same inputs and recomputes everything
//! ([`FpssCore::recompute`]). Their tables, digests and announcements —
//! changed routing rows, changed pricing rows and retractions, in order —
//! must be identical.
//!
//! The inputs are shaped to reach the representation edges: seven
//! neighbors with near-equal costs, so pricing ties of five or more tags
//! spill [`TagSet`](specfaith_fpss::msg::TagSet) to the heap, and
//! destination ids at or above [`DENSE_ROUTE_SLOTS`], which the neighbor
//! view keeps in its sparse fallback. A fixed-seed test asserts that these
//! edges are reached, and that the row-scoped pricing path meets changed
//! keys whose transit is off this node's route and retractions that
//! remove a priced entry.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use specfaith_core::id::NodeId;
use specfaith_core::money::{Cost, Money};
use specfaith_fpss::compute::DENSE_ROUTE_SLOTS;
use specfaith_fpss::deviation::Faithful;
use specfaith_fpss::msg::{PriceRow, RouteRow};
use specfaith_fpss::node::{FpssCore, TableDelta};

const ME: NodeId = NodeId::new(0);
/// Steps per case.
const STEPS: usize = 160;

fn neighbors() -> Vec<NodeId> {
    (1..=7).map(NodeId::new).collect()
}

/// Every id a step may name: this node, its neighbors, three remote
/// nodes and two forged ids beyond the dense range.
fn universe() -> Vec<NodeId> {
    let forged = DENSE_ROUTE_SLOTS as u32;
    (0..=10)
        .map(NodeId::new)
        .chain([NodeId::new(forged), NodeId::new(forged + 3)])
        .collect()
}

/// A remote destination every neighbor reaches only through [`RELAY`], so
/// the entry pricing `RELAY` toward it rests on advertised prices alone:
/// retracting the last of them removes the entry.
const FUNNEL: NodeId = NodeId::new(10);
const RELAY: NodeId = NodeId::new(9);

/// Destinations, weighted toward the remote and forged ids whose routes
/// carry transits (and therefore prices).
fn pick_dst(rng: &mut StdRng, universe: &[NodeId]) -> NodeId {
    if rng.gen_bool(0.8) {
        universe[rng.gen_range(8..universe.len())]
    } else {
        universe[rng.gen_range(0..8)]
    }
}

/// A route row from `from` toward `dst`: mostly direct or one hop, with
/// distinct nodes, sometimes looping through this node or malformed;
/// always through [`RELAY`] toward [`FUNNEL`].
fn route_row(rng: &mut StdRng, universe: &[NodeId], from: NodeId, dst: NodeId) -> RouteRow {
    let mut path = vec![from];
    if dst == FUNNEL {
        path.extend([RELAY, FUNNEL]);
    } else if from != dst {
        let hops = [0, 0, 0, 0, 1, 2][rng.gen_range(0..6)];
        for _ in 0..hops {
            let v = *universe.choose(rng).expect("non-empty universe");
            if !path.contains(&v) && v != dst {
                path.push(v);
            }
        }
        path.push(dst);
    }
    if rng.gen_bool(0.03) {
        path.reverse(); // malformed: must be rejected by both clones
    }
    RouteRow { dst, path }
}

/// A price row from `from`: a weighted-random destination, any transit
/// (often [`RELAY`] toward [`FUNNEL`]).
fn price_row(rng: &mut StdRng, universe: &[NodeId], from: NodeId) -> PriceRow {
    let dst = pick_dst(rng, universe);
    let transit = if dst == FUNNEL && rng.gen_bool(0.5) {
        RELAY
    } else {
        *universe.choose(rng).expect("universe")
    };
    PriceRow {
        dst,
        transit,
        price: Money::new(rng.gen_range(-2..6)),
        tags: [from].into_iter().collect(),
    }
}

/// What the reference coverage test counts.
#[derive(Default)]
struct Coverage {
    spilled_entries: usize,
    forged_price_rows: usize,
    sparse_retractions: usize,
    /// Changed view keys whose transit is off this node's route.
    off_route_keys: usize,
    /// Pricing updates whose retractions removed a priced entry.
    removing_retractions: usize,
}

/// Drives both clones through `STEPS` random steps from `seed`, checking
/// the equivalence after each one.
fn run_case(seed: u64) -> Result<Coverage, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let universe = universe();
    let neighbors = neighbors();
    let mut scoped = FpssCore::new(ME, neighbors.clone());
    scoped.learn_cost(ME, Cost::new(1));
    let _ = scoped.recompute();
    let mut full = scoped.clone();
    let mut coverage = Coverage::default();
    // Advertised prices so far, so retractions mostly hit stored rows.
    let mut advertised: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
    for step in 0..STEPS {
        let from = *neighbors.choose(&mut rng).expect("neighbors");
        let kind = rng.gen_range(0..10);
        // Counts the pricing keys `full` saw change whose transit is off
        // the route (pricing updates leave routes as they were).
        let mut off_route = |full: &FpssCore, dst: NodeId, transit: NodeId| {
            let path = full.routes().path(dst).unwrap_or_default();
            let on_route = path.len() > 2 && path[1..path.len() - 1].contains(&transit);
            coverage.off_route_keys += usize::from(!on_route);
        };
        let delta: TableDelta = match kind {
            // Declared costs: first-write-wins learns, and occasionally
            // a streaming overwrite, over near-equal values.
            0 | 1 => {
                let origin = *universe.choose(&mut rng).expect("universe");
                let cost = Cost::new([1, 1, 1, 2][rng.gen_range(0..4)]);
                let overwrite = rng.gen_bool(0.2);
                let changed = if overwrite {
                    full.update_cost(origin, cost);
                    scoped.update_cost(origin, cost)
                } else {
                    full.learn_cost(origin, cost);
                    scoped.learn_cost(origin, cost)
                };
                if changed {
                    scoped.apply_cost_change(origin, &mut Faithful)
                } else {
                    TableDelta::default()
                }
            }
            // Routing updates of one to three rows.
            2..=5 => {
                let rows: Vec<RouteRow> = (0..rng.gen_range(1..=3))
                    .map(|_| {
                        let dst = pick_dst(&mut rng, &universe);
                        route_row(&mut rng, &universe, from, dst)
                    })
                    .collect();
                for row in &rows {
                    full.learn_route(from, row);
                }
                scoped
                    .apply_routing_update(from, &rows, &mut Faithful)
                    .unwrap_or_default()
            }
            // Pricing updates of one to three rows, sometimes with a
            // retraction of a stored row riding along.
            6..=8 => {
                let rows: Vec<PriceRow> = (0..rng.gen_range(1..=3))
                    .map(|_| price_row(&mut rng, &universe, from))
                    .collect();
                let retractions: Vec<(NodeId, NodeId)> = advertised
                    .iter()
                    .filter(|&&(b, _, _)| b == from)
                    .map(|&(_, dst, transit)| (dst, transit))
                    .take(usize::from(rng.gen_bool(0.3)))
                    .collect();
                for row in &rows {
                    advertised.push((from, row.dst, row.transit));
                    if full.learn_price(from, row) {
                        off_route(&full, row.dst, row.transit);
                    }
                }
                for &(dst, transit) in &retractions {
                    if full.learn_price_retraction(from, dst, transit) {
                        off_route(&full, dst, transit);
                    }
                }
                let delta = scoped
                    .apply_pricing_update(from, &rows, &retractions, &mut Faithful)
                    .unwrap_or_default();
                coverage.removing_retractions += usize::from(!delta.2.is_empty());
                delta
            }
            _ => {
                // Half the time a stored price for RELAY toward FUNNEL,
                // whose retraction may leave that entry unsupported.
                let funnel: Vec<_> = advertised
                    .iter()
                    .filter(|&&(_, dst, transit)| (dst, transit) == (FUNNEL, RELAY))
                    .collect();
                let stored = if rng.gen_bool(0.5) && !funnel.is_empty() {
                    funnel.choose(&mut rng).copied()
                } else {
                    advertised.choose(&mut rng)
                };
                let (from, dst, transit) = match stored {
                    Some(&stored) if rng.gen_bool(0.8) => stored,
                    _ => {
                        let dst = pick_dst(&mut rng, &universe);
                        (from, dst, *universe.choose(&mut rng).expect("universe"))
                    }
                };
                if full.learn_price_retraction(from, dst, transit) {
                    off_route(&full, dst, transit);
                    if dst.index() >= DENSE_ROUTE_SLOTS {
                        coverage.sparse_retractions += 1;
                    }
                }
                let delta = scoped
                    .apply_pricing_update(from, &[], &[(dst, transit)], &mut Faithful)
                    .unwrap_or_default();
                coverage.removing_retractions += usize::from(!delta.2.is_empty());
                delta
            }
        };
        let expected = full.recompute();
        let checks = [
            ("announcements", delta == expected),
            ("routes", scoped.routes() == full.routes()),
            ("prices", scoped.prices() == full.prices()),
            (
                "digests",
                scoped.routes().digest() == full.routes().digest()
                    && scoped.prices().digest() == full.prices().digest(),
            ),
        ];
        for (what, same) in checks {
            prop_assert!(
                same,
                "{what} differ at seed {seed}, step {step}, kind {kind}:\n scoped {delta:?}\n   full {expected:?}"
            );
        }
        for ((dst, _), entry) in full.prices().iter() {
            coverage.spilled_entries += usize::from(entry.tags.len() >= 5);
            coverage.forged_price_rows += usize::from(dst.index() >= DENSE_ROUTE_SLOTS);
        }
    }
    Ok(coverage)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings: the scoped handlers announce and install
    /// exactly what the full recompute does.
    #[test]
    fn scoped_recompute_matches_full_recompute(seed in any::<u64>()) {
        run_case(seed)?;
    }
}

/// Fixed seeds, so the generator's reach is pinned: both clones agree, and
/// the steps do reach spilled tag sets, forged destinations in the
/// pricing table, price retractions on the sparse fallback, changed
/// pricing keys off the route and retractions that remove an entry.
#[test]
fn equivalence_reaches_spilled_tags_and_forged_destinations() {
    let mut total = Coverage::default();
    for seed in 0..24 {
        let coverage = run_case(seed).unwrap_or_else(|e| panic!("{e}"));
        total.spilled_entries += coverage.spilled_entries;
        total.forged_price_rows += coverage.forged_price_rows;
        total.sparse_retractions += coverage.sparse_retractions;
        total.off_route_keys += coverage.off_route_keys;
        total.removing_retractions += coverage.removing_retractions;
    }
    assert!(total.spilled_entries > 0, "no tie of five or more tags");
    assert!(total.forged_price_rows > 0, "no priced forged destination");
    assert!(total.sparse_retractions > 0, "no sparse retraction");
    assert!(total.off_route_keys > 0, "no changed key off the route");
    assert!(
        total.removing_retractions > 0,
        "no retraction removed an entry"
    );
}
