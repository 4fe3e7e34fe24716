//! Integration tests for the abstract-interpretation layer: the
//! L006–L009 passes surfacing through `lint_script` (snapshot-style
//! rendered output), soundness of semantic (L007) differential pruning
//! across check levels, the activation-time conformance gate, and the
//! `monitor rule … naive|incremental|auto` strategy pin.

use std::collections::HashSet;

use amos_core::differ::{generate_differentials, Differential};
use amos_core::hybrid::Strategy;
use amos_db::engine::NetworkPrep;
use amos_db::{Amos, CheckLevel, EngineOptions, LintCode, LintConfig, MonitorMode, Severity};
use amos_objectlog::catalog::{PredId, PredKind};
use amos_objectlog::eval::{DeltaMap, EvalContext};
use amos_storage::{DeltaSet, StateEpoch};
use proptest::prelude::*;

fn quiet(db: &mut Amos) {
    db.register_procedure("print", |_ctx, _args| Ok(()));
    db.register_procedure("order", |_ctx, _args| Ok(()));
}

/// A schema whose rule condition has one live clause and one clause
/// that only the *semantic* (cross-predicate interval) analysis can
/// prove empty: `band(i)` is bounded above by 5 by its own body, so
/// `band(i) > 100` never holds — but no single clause is syntactically
/// contradictory, keeping L005 out of the picture. Bushy preparation
/// keeps `band` as a network sub-node instead of inlining it (inlined,
/// the contradiction becomes syntactic).
const BANDED: &str = r#"
    create type item;
    create function quantity(item i) -> integer;
    create function band(item i) -> integer
        as select quantity(i) where quantity(i) < 5;
    create rule watch() as
        when for each item i
        where band(i) > 100 or quantity(i) > 50
        do print(i);
"#;

fn banded_db() -> Amos {
    let mut db = Amos::with_options(EngineOptions {
        network_prep: NetworkPrep::Bushy,
        ..EngineOptions::default()
    });
    quiet(&mut db);
    db.execute(BANDED).unwrap();
    db
}

// ---------------------------------------------------------------------
// Semantic pruning prunes — and is sound
// ---------------------------------------------------------------------

#[test]
fn semantic_pruning_drops_provably_empty_differentials() {
    let mut db = banded_db();
    db.execute("create item instances :a; activate watch();")
        .unwrap();
    let net = db.rules().network();
    assert!(
        net.pruned().iter().any(|name| name.contains("/Δ+band")),
        "expected Δwatch/Δ+band to be pruned, pruned {:?}, network:\n{}",
        net.pruned(),
        net.render(db.catalog())
    );
    let pruned = net.pruned_count();
    assert_eq!(pruned_differentials(&mut db).len(), pruned);
}

/// The differentials the calculus calls for but the builder pruned:
/// the full set from [`generate_differentials`] minus the network's.
fn pruned_differentials(db: &mut Amos) -> Vec<Differential> {
    let net = db.rules().network().clone();
    let catalog = db.catalog().clone();
    let scope = db.rules().scope;
    let key = |d: &Differential| {
        (
            d.affected,
            d.influent,
            d.seed,
            d.clause_index,
            d.literal_index,
        )
    };
    let kept: HashSet<_> = net.differentials().iter().map(key).collect();
    let node_preds: HashSet<PredId> = net.nodes().iter().map(|n| n.pred).collect();
    let mut pruned = Vec::new();
    for node in net.nodes() {
        if !matches!(catalog.def(node.pred).kind, PredKind::Derived(_)) {
            continue;
        }
        let all = generate_differentials(&catalog, db.storage_mut(), node.pred, &node_preds, scope)
            .unwrap();
        pruned.extend(all.into_iter().filter(|d| !kept.contains(&key(d))));
    }
    pruned
}

/// Tuples the `pruned` differentials produce when evaluated directly
/// against the open transaction's exact Δ-sets: new minus old state of
/// every node predicate, derived nodes included.
fn pruned_output(db: &Amos, pruned: &[Differential]) -> usize {
    let (catalog, storage) = (db.catalog(), db.storage());
    let no_deltas = DeltaMap::new();
    let states = EvalContext::new(storage, catalog, &no_deltas);
    let mut deltas = DeltaMap::new();
    for node in db.rules().network().nodes() {
        let all = vec![None; catalog.def(node.pred).arity];
        let new = states.eval_pred(node.pred, &all, StateEpoch::New).unwrap();
        let old = states.eval_pred(node.pred, &all, StateEpoch::Old).unwrap();
        let delta = DeltaSet::from_parts(
            new.difference(&old).cloned().collect(),
            old.difference(&new).cloned().collect(),
        );
        deltas.insert(node.pred, delta);
    }
    let ctx = EvalContext::new(storage, catalog, &deltas);
    let mut produced = 0;
    for d in pruned {
        let bindings = vec![None; d.plan.n_vars as usize];
        ctx.run_plan(&d.plan, bindings, StateEpoch::New, 0, &mut |_, _| {
            produced += 1;
            Ok(())
        })
        .unwrap();
    }
    produced
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// L007 pruning is sound, judged by two oracles that need no
    /// unpruned network: (a) at Nervous and Strict every commit's
    /// `CheckSummary` equals the naive monitor's on the same workload;
    /// (b) at every check level, every pruned differential yields zero
    /// tuples against each transaction's exact Δ-sets.
    #[test]
    fn semantic_pruning_preserves_semantics(
        updates in proptest::collection::vec((0usize..3, -20i64..120), 1..8),
    ) {
        let run = |mode: MonitorMode, check: CheckLevel| {
            let mut db = banded_db();
            db.set_monitor_mode(mode);
            db.set_check_level(check);
            db.execute("create item instances :a, :b, :c; activate watch();")
                .unwrap();
            let pruned = pruned_differentials(&mut db);
            assert!(!pruned.is_empty(), "BANDED must prune");
            let mut summaries = Vec::new();
            for (slot, value) in &updates {
                let var = ["a", "b", "c"][*slot];
                db.execute(&format!("begin; set quantity(:{var}) = {value};"))
                    .unwrap();
                assert_eq!(
                    pruned_output(&db, &pruned),
                    0,
                    "a pruned differential produced tuples ({mode:?}, {check:?})"
                );
                for r in db.execute("commit;").unwrap() {
                    if let amos_db::ExecResult::Committed(s) = r {
                        summaries.push(s);
                    }
                }
            }
            summaries
        };
        // Raw skips the §7.2 checks and may misreport, so it has no naive
        // oracle; the run still applies oracle (b).
        run(MonitorMode::Incremental, CheckLevel::Raw);
        for check in [CheckLevel::Nervous, CheckLevel::Strict] {
            let naive = run(MonitorMode::Naive, check);
            let incremental = run(MonitorMode::Incremental, check);
            prop_assert_eq!(&naive, &incremental, "summaries diverged at {:?}", check);
        }
    }
}

// ---------------------------------------------------------------------
// The activation-time conformance gate
// ---------------------------------------------------------------------

/// A conforming network activates cleanly (the gate runs on every
/// `activate`), and the paper's inventory schema passes it.
#[test]
fn inventory_schema_passes_the_conformance_gate() {
    let mut db = Amos::new();
    quiet(&mut db);
    db.execute(include_str!("../../../examples/osql/inventory.osql"))
        .unwrap();
    db.execute("activate monitor_items();").unwrap();
    let violations = amos_core::verify::verify_network(
        db.catalog(),
        db.storage(),
        db.rules().network(),
        db.rules().scope,
    );
    assert!(violations.is_empty(), "{violations:?}");
}

/// A network build that loses one differential (an injected builder
/// fault): the gate must report it as missing, refuse the activation,
/// and roll it back. The fault is one-shot, so once it is spent the
/// same rule activates fine.
#[cfg(feature = "fault-injection")]
#[test]
fn conformance_gate_rolls_back_a_refused_activation() {
    use amos_db::DbError;
    use amos_storage::fault::FaultPlan;

    let mut db = banded_db();
    db.set_fault_plan(std::sync::Arc::new(FaultPlan::drop_differential()));
    db.execute("create item instances :a;").unwrap();
    let err = db.execute("activate watch();").unwrap_err();
    let DbError::Conformance(violations) = err else {
        panic!("expected conformance refusal, got {err:?}");
    };
    assert!(
        violations.iter().any(|v| v.contains("was not emitted")),
        "{violations:?}"
    );
    let id = db.rules().rule_id("watch").unwrap();
    assert!(
        !db.rules().rule(id).is_active(),
        "refused activation must be rolled back"
    );
    db.execute("activate watch();").unwrap();
    assert!(db.rules().rule(id).is_active());
}

// ---------------------------------------------------------------------
// `monitor rule` strategy pins
// ---------------------------------------------------------------------

#[test]
fn monitor_rule_pins_override_the_hybrid_cost_model() {
    let mut db = Amos::new();
    quiet(&mut db);
    db.set_monitor_mode(MonitorMode::Hybrid);
    db.execute(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create rule low() as
            when for each item i where quantity(i) < 10 do print(i);
        create item instances :a;
        activate low();
    "#,
    )
    .unwrap();
    let id = db.rules().rule_id("low").unwrap();

    db.execute("monitor rule low naive;").unwrap();
    let text = explain(&mut db, "explain rule low;");
    assert!(text.contains("monitor strategy: naive"), "{text}");
    db.execute("begin; set quantity(:a) = 5; commit;").unwrap();
    assert_eq!(db.rules().last_strategies()[&id], Strategy::Naive);
    assert!(db.rules().stats().naive_recomputations > 0);

    db.execute("monitor rule low incremental;").unwrap();
    let text = explain(&mut db, "explain rule low;");
    assert!(text.contains("monitor strategy: incremental"), "{text}");
    db.execute("begin; set quantity(:a) = 50; commit;").unwrap();
    assert_eq!(db.rules().last_strategies()[&id], Strategy::Incremental);

    db.execute("monitor rule low auto;").unwrap();
    let text = explain(&mut db, "explain rule low;");
    assert!(text.contains("monitor strategy: auto"), "{text}");

    let err = db.execute("monitor rule missing naive;").unwrap_err();
    assert!(err.to_string().contains("missing"), "{err}");
}

// ---------------------------------------------------------------------
// L006–L009 through the script driver (rendered-output snapshots)
// ---------------------------------------------------------------------

fn rendered(src: &str) -> Vec<String> {
    amos_db::lint_script(src, &LintConfig::default())
        .unwrap()
        .iter()
        .map(|d| d.render("f.osql"))
        .collect()
}

#[test]
fn l006_type_mismatch_is_deny_and_rendered_with_span() {
    let out = rendered(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create function label(item i) -> charstring;
        create rule bad() as
            when for each item i where quantity(i) < label(i)
            do print(i);
    "#,
    );
    let l006: Vec<_> = out.iter().filter(|l| l.contains("[L006]")).collect();
    assert!(!l006.is_empty(), "no L006 in {out:#?}");
    assert!(
        l006.iter().any(|l| l.starts_with("f.osql:")
            && l.contains("deny[L006]")
            && l.contains("incompatible types")),
        "{l006:#?}"
    );
    // Deny severity: the script driver reports it as gate-refusing.
    let diags = amos_db::lint_script(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create function label(item i) -> charstring;
        create rule bad() as
            when for each item i where quantity(i) < label(i)
            do print(i);
    "#,
        &LintConfig::default(),
    )
    .unwrap();
    assert!(diags
        .iter()
        .any(|d| d.code == LintCode::L006 && d.severity == Severity::Deny));
}

#[test]
fn l007_provably_empty_condition_is_reported_with_rule() {
    let out = rendered(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create function band(item i) -> integer
            as select quantity(i) where quantity(i) < 5;
        create rule never() as
            when for each item i where band(i) > 100
            do print(i);
    "#,
    );
    assert!(
        out.iter().any(|l| l.contains("warn[L007]")
            && l.contains("can never fire")
            && l.contains("[never]")),
        "{out:#?}"
    );
}

#[test]
fn l008_subsumed_condition_names_both_rules() {
    let out = rendered(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create rule tight() as
            when for each item i where quantity(i) < 5 do print(i);
        create rule loose() as
            when for each item i where quantity(i) < 10 do print(i);
    "#,
    );
    assert!(
        out.iter()
            .any(|l| l.contains("warn[L008]") && l.contains("tight") && l.contains("loose")),
        "{out:#?}"
    );
}

#[test]
fn l009_foldable_subcondition_shows_residual() {
    let out = rendered(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create function small(item i) -> integer
            as select quantity(i) where quantity(i) < 5;
        create rule low() as
            when for each item i where small(i) < 10
            do print(i);
    "#,
    );
    assert!(
        out.iter().any(|l| l.contains("warn[L009]")
            && l.contains("folded away")
            && l.contains("residual")),
        "{out:#?}"
    );
}

#[test]
fn clean_inventory_schema_has_no_absint_findings() {
    let mut strict = LintConfig::default();
    strict.deny_warnings();
    let diags = amos_db::lint_script(
        include_str!("../../../examples/osql/inventory.osql"),
        &strict,
    )
    .unwrap();
    assert!(diags.is_empty(), "unexpected findings: {diags:#?}");
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

fn explain(db: &mut Amos, stmt: &str) -> String {
    let results = db.execute(stmt).unwrap();
    for r in results {
        if let amos_db::ExecResult::Text(t) = r {
            return t;
        }
    }
    panic!("statement produced no text output");
}
