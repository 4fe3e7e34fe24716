//! Adaptive planning is an optimization, not a semantics change: for
//! random databases, condition shapes, and update transactions, the
//! statistics-driven planner (cardinality-aware literal ordering, plan
//! cache with fingerprint-drift re-optimization, Δ-set index probes)
//! produces condition Δ-sets identical to the static activation-time
//! plans — under every §7.2 check level.

use std::sync::Arc;

use amos_core::adaptive::AdaptivePlanner;
use amos_core::differ::DiffScope;
use amos_core::network::PropagationNetwork;
use amos_core::propagate::{propagate, recompute_delta, CheckLevel};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{ClauseBuilder, Term};
use amos_objectlog::eval::EvalShared;
use amos_storage::{RelId, Storage};
use amos_types::{tuple, ArithOp, CmpOp, Tuple, TypeId};
use proptest::prelude::*;

fn sig(n: usize) -> Vec<TypeId> {
    vec![TypeId(0); n]
}

struct World {
    storage: Storage,
    catalog: Catalog,
    rq: RelId,
    rr: RelId,
    cond: PredId,
}

/// Same shape zoo as `proptest_equivalence`: join, selection+arith,
/// negation, disjunction, bushy, self-join over q/2 and r/2.
fn build_world(shape: u8, q0: &[Tuple], r0: &[Tuple]) -> World {
    let mut storage = Storage::new();
    let rq = storage.create_relation("q", 2).unwrap();
    let rr = storage.create_relation("r", 2).unwrap();
    let mut catalog = Catalog::new();
    let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
    let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();

    let cond = match shape % 6 {
        0 => catalog
            .define_derived(
                "cond",
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(r, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap(),
        1 => catalog
            .define_derived(
                "cond",
                sig(1),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .arith(Term::var(2), Term::var(1), ArithOp::Mul, Term::val(2))
                    .cmp(Term::var(2), CmpOp::Lt, Term::val(6))
                    .build()],
            )
            .unwrap(),
        2 => catalog
            .define_derived(
                "cond",
                sig(2),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .not_pred(r, [Term::var(0), Term::var(1)])
                    .build()],
            )
            .unwrap(),
        3 => catalog
            .define_derived(
                "cond",
                sig(1),
                vec![
                    ClauseBuilder::new(2)
                        .head([Term::var(0)])
                        .pred(q, [Term::var(0), Term::var(1)])
                        .build(),
                    ClauseBuilder::new(2)
                        .head([Term::var(0)])
                        .pred(r, [Term::var(1), Term::var(0)])
                        .build(),
                ],
            )
            .unwrap(),
        4 => {
            let mid = catalog
                .define_derived(
                    "mid",
                    sig(2),
                    vec![ClauseBuilder::new(3)
                        .head([Term::var(0), Term::var(2)])
                        .pred(q, [Term::var(0), Term::var(1)])
                        .pred(r, [Term::var(1), Term::var(2)])
                        .build()],
                )
                .unwrap();
            catalog
                .define_derived(
                    "cond",
                    sig(1),
                    vec![ClauseBuilder::new(2)
                        .head([Term::var(0)])
                        .pred(mid, [Term::var(0), Term::var(1)])
                        .cmp(Term::var(1), CmpOp::Lt, Term::val(4))
                        .build()],
                )
                .unwrap()
        }
        _ => catalog
            .define_derived(
                "cond",
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap(),
    };

    for t in q0 {
        storage.insert(rq, t.clone()).unwrap();
    }
    for t in r0 {
        storage.insert(rr, t.clone()).unwrap();
    }
    storage.monitor(rq);
    storage.monitor(rr);
    World {
        storage,
        catalog,
        rq,
        rr,
        cond,
    }
}

fn small_tuple() -> impl Strategy<Value = Tuple> {
    (0i64..5, 0i64..5).prop_map(|(a, b)| tuple![a, b])
}

fn tuples() -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(small_tuple(), 0..10)
}

fn updates() -> impl Strategy<Value = Vec<(bool, bool, Tuple)>> {
    prop::collection::vec((any::<bool>(), any::<bool>(), small_tuple()), 0..15)
}

fn apply(w: &mut World, ups: &[(bool, bool, Tuple)]) {
    for (on_q, is_insert, t) in ups {
        let rel = if *on_q { w.rq } else { w.rr };
        if *is_insert {
            w.storage.insert(rel, t.clone()).unwrap();
        } else {
            w.storage.delete(rel, t).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adaptive ≡ static condition Δ-sets for every shape and every
    /// check level — with one long-lived planner across all three
    /// levels, so later levels run against a warm (possibly drifted)
    /// plan cache.
    #[test]
    fn adaptive_equals_static_under_all_checks(
        shape in 0u8..6,
        q0 in tuples(),
        r0 in tuples(),
        ups in updates(),
    ) {
        let mut w = build_world(shape, &q0, &r0);
        let net = PropagationNetwork::build(
            &w.catalog, &mut w.storage, &[w.cond], DiffScope::Full,
        ).unwrap();
        w.storage.begin().unwrap();
        apply(&mut w, &ups);

        let planner = AdaptivePlanner::new();
        for check in [CheckLevel::Raw, CheckLevel::Nervous, CheckLevel::Strict] {
            let fixed = propagate(
                &net, &w.catalog, &w.storage, check,
                &Arc::new(EvalShared::default()), None,
            ).unwrap();
            let adaptive = propagate(
                &net, &w.catalog, &w.storage, check,
                &Arc::new(EvalShared::default()), Some(&planner),
            ).unwrap();
            prop_assert_eq!(
                &fixed.condition_deltas, &adaptive.condition_deltas,
                "adaptive diverged from static (shape {}, check {:?})",
                shape, check
            );
            prop_assert_eq!(
                fixed.candidates, adaptive.candidates,
                "candidate counts diverged (shape {}, check {:?})",
                shape, check
            );
        }
    }

    /// Multi-pass adaptive monitoring stays exact while the data (and
    /// therefore the statistics fingerprints) drift across committed
    /// transactions: each pass's strict adaptive Δ equals the naive
    /// recomputation diff, with one planner reused throughout.
    #[test]
    fn adaptive_stays_exact_across_drifting_passes(
        shape in 0u8..6,
        q0 in tuples(),
        r0 in tuples(),
        batches in prop::collection::vec(updates(), 1..4),
    ) {
        let mut w = build_world(shape, &q0, &r0);
        let net = PropagationNetwork::build(
            &w.catalog, &mut w.storage, &[w.cond], DiffScope::Full,
        ).unwrap();
        let planner = AdaptivePlanner::new();
        let shared = Arc::new(EvalShared::default());

        for ups in &batches {
            w.storage.begin().unwrap();
            apply(&mut w, ups);
            shared.reset_pass();
            let result = propagate(
                &net, &w.catalog, &w.storage, CheckLevel::Strict,
                &shared, Some(&planner),
            ).unwrap();
            let truth = recompute_delta(&w.catalog, &w.storage, w.cond).unwrap();
            prop_assert_eq!(
                &result.condition_deltas[&w.cond], &truth,
                "adaptive pass diverged from naive diff (shape {})", shape
            );
            w.storage.commit().unwrap();
        }
    }
}
