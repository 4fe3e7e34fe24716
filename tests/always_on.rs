//! Derived-call tabling, adaptive differential planning and semantic
//! (L007) pruning have no switch on the engine: a default `Amos` runs
//! all three. Each test drives one of them through AMOSQL and checks
//! the propagation metrics that prove it ran.

use amos_db::engine::NetworkPrep;
use amos_db::{Amos, EngineOptions};

const INVENTORY: &str = r#"
    create type item;
    create type supplier;
    create function quantity(item i) -> integer;
    create function min_stock(item i) -> integer;
    create function consume_freq(item i) -> integer;
    create function supplies(supplier s) -> item;
    create function delivery_time(item i, supplier s) -> integer;
    create function threshold(item i) -> integer
        as
        select consume_freq(i) * delivery_time(i, s) + min_stock(i)
        for each supplier s where supplies(s) = i;
    create rule low() as
        when for each item i where quantity(i) < threshold(i)
        do order(i);
    create rule very_low() as
        when for each item i where quantity(i) < threshold(i) - 50
        do order(i);
"#;

fn inventory(prep: NetworkPrep, items: usize) -> Amos {
    let mut db = Amos::with_options(EngineOptions {
        network_prep: prep,
        ..EngineOptions::default()
    });
    db.register_procedure("order", |_ctx, _args| Ok(()));
    db.execute(INVENTORY).unwrap();
    let mut script = String::new();
    for k in 0..items {
        script.push_str(&format!(
            "create item instances :i{k}; create supplier instances :s{k};
             set supplies(:s{k}) = :i{k}; set consume_freq(:i{k}) = 20;
             set delivery_time(:i{k}, :s{k}) = 2; set min_stock(:i{k}) = 100;
             set quantity(:i{k}) = 10000;"
        ));
    }
    script.push_str("activate low(); activate very_low();");
    db.execute(&script).unwrap();
    db
}

/// Both rules of the bushy network call the shared `threshold` node for
/// the updated item: the second call is served from the per-pass table.
#[test]
fn bushy_shared_call_records_tabling_hits() {
    let mut db = inventory(NetworkPrep::Bushy, 3);
    db.execute("begin; set quantity(:i1) = 9000; commit;")
        .unwrap();
    let m = db.last_pass_metrics().expect("a propagation pass ran");
    assert!(m.tabling_hits > 0, "no tabling hits: {m:?}");
}

/// A bulk update goes through the adaptive planner: the differential
/// plans are re-planned against live statistics or served from its
/// plan cache.
#[test]
fn bulk_update_goes_through_the_adaptive_planner() {
    let mut db = inventory(NetworkPrep::Flat, 40);
    for round in 0..2 {
        let mut tx = String::from("begin;");
        for k in 0..40 {
            tx.push_str(&format!(
                "set quantity(:i{k}) = {};",
                9000 - round - k as i64
            ));
        }
        tx.push_str("commit;");
        db.execute(&tx).unwrap();
    }
    let m = db.last_pass_metrics().expect("a propagation pass ran");
    assert!(
        m.replans + m.plan_cache_hits > 0,
        "adaptive planner unused: {m:?}"
    );
}

/// `band(i)` is bounded below 5 by its own body, so the `band(i) > 100`
/// branch of the condition is provably empty and its differentials are
/// pruned from the default engine's network.
#[test]
fn banded_schema_reports_pruned_differentials() {
    let mut db = Amos::with_options(EngineOptions {
        network_prep: NetworkPrep::Bushy,
        ..EngineOptions::default()
    });
    db.register_procedure("print", |_ctx, _args| Ok(()));
    db.execute(
        r#"
        create type item;
        create function quantity(item i) -> integer;
        create function band(item i) -> integer
            as select quantity(i) where quantity(i) < 5;
        create rule watch() as
            when for each item i
            where band(i) > 100 or quantity(i) > 50
            do print(i);
        create item instances :a;
        activate watch();
        begin; set quantity(:a) = 60; commit;
    "#,
    )
    .unwrap();
    assert!(db.rules().network().pruned_count() > 0);
    let m = db.last_pass_metrics().expect("a propagation pass ran");
    assert!(m.pruned_differentials > 0, "{m:?}");
}
