//! Self-tests of the benchmark's generators and checks at small sizes:
//! the streams must produce the same fired instances under incremental
//! and naive monitoring, and a serial replay of the server-ledger's
//! acknowledged operations must reproduce the concurrent run's totals.

use std::path::PathBuf;

use amos_db::MonitorMode;
use perfbench::inventory::{bulk_txn, point_txn, BulkStream, Firing, Inventory, PointStream};
use perfbench::ledger::{
    acked_in_order, add_logs, initial_balances, run_clients, Ledger, Served, LIMIT, PAIRS_PER_TRIP,
};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{bulk_commit_sized, point_commit_sized, server_ledger_sized, Args};

fn tmp_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

fn point_run(mode: MonitorMode, n: usize, txns: usize, seed: u64) -> (Vec<Firing>, Vec<Firing>) {
    let (mut stream, init) = PointStream::new(seed, n);
    let mut world = Inventory::build(&init, mode).unwrap();
    let mut expected = Vec::new();
    for _ in 0..txns {
        let u = stream.next_update();
        point_txn(&mut world, u).unwrap();
        expected.extend(u.fires);
    }
    (world.firings(), expected)
}

#[test]
fn point_stream_fires_the_same_under_incremental_and_naive() {
    for seed in [1, 2, 3] {
        let (inc, expected) = point_run(MonitorMode::Incremental, 20, 1_500, seed);
        let (naive, _) = point_run(MonitorMode::Naive, 20, 1_500, seed);
        assert!(
            !expected.is_empty(),
            "the stream must drop items below threshold"
        );
        assert_eq!(inc, naive, "seed {seed}");
        assert_eq!(inc, expected, "seed {seed}");
    }
}

fn bulk_run(mode: MonitorMode, n: usize, rounds: usize, seed: u64) -> (Vec<Firing>, bool) {
    let (mut stream, init) = BulkStream::new(seed, n);
    let mut world = Inventory::build(&init, mode).unwrap();
    for _ in 0..rounds {
        let round = stream.next_round();
        let before = world.firing_count();
        bulk_txn(&mut world, &round).unwrap();
        let mut got = world.firings()[before..].to_vec();
        got.sort_unstable();
        assert_eq!(got, round.fires, "{mode:?}: firings of one round");
    }
    let below_ok = world.below_threshold().unwrap() == stream.below_threshold();
    (world.firings(), below_ok)
}

#[test]
fn bulk_stream_fires_the_same_under_incremental_and_naive() {
    for seed in [1, 2] {
        let (inc, inc_below) = bulk_run(MonitorMode::Incremental, 300, 6, seed);
        let (naive, naive_below) = bulk_run(MonitorMode::Naive, 300, 6, seed);
        assert!(!inc.is_empty());
        assert_eq!(inc, naive, "seed {seed}");
        assert!(inc_below && naive_below, "final below-threshold set");
    }
}

#[test]
fn serial_replay_of_the_ledger_stream_matches_the_concurrent_run() {
    let n = 40;
    let balances = initial_balances(5, n);
    let mut served = Served::start(&balances, &tmp_dir("ledger-wire")).unwrap();
    // Traced, so the clients keep their acknowledged operations.
    let (logs, _, _, _) = run_clients(&served, 5, 2, None, 100, &balances, true).unwrap();
    served.shutdown();
    assert!(
        logs.iter().all(|l| l.failed == 0),
        "{:?}",
        logs[0].first_error
    );
    let acked = acked_in_order(&logs);
    assert_eq!(acked.len(), 2 * 100 * PAIRS_PER_TRIP * 2);
    let expected = add_logs(&balances, &logs);
    assert_eq!(served.ledger.totals().unwrap(), expected);
    let crossed = expected.iter().filter(|&&t| t > LIMIT).count() as u64;
    assert!(crossed > 0, "the hot account must cross the limit");
    assert_eq!(served.ledger.alerts(), crossed);

    let replay = Ledger::build(&balances, &tmp_dir("ledger-replay")).unwrap();
    let mut session = replay.engine.session();
    for op in &acked {
        session.execute(&op.script()).unwrap();
    }
    drop(session);
    assert_eq!(replay.totals().unwrap(), expected);
    assert_eq!(replay.alerts(), crossed);
}

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 9,
        seconds: 0.4,
        trace,
        out_dir: tmp_dir("runs"),
    }
}

#[test]
fn small_runs_pass_their_checks_and_report_every_metric() {
    for trace in [false, true] {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        let outcomes = [
            point_commit_sized(&args("point-commit", trace), 200, MonitorMode::Incremental),
            bulk_commit_sized(&args("bulk-commit", trace), 200, MonitorMode::Incremental),
            server_ledger_sized(&args("server-ledger", trace), 100),
        ];
        for out in outcomes {
            let out = out.unwrap();
            assert!(out.correct && out.failed == 0, "{:?}", out.notes);
            assert!(out.attempted > 0);
            // Panics if a catalog metric is missing.
            out.result_json(catalog);
        }
    }
}

#[test]
fn traced_split_adds_up_to_the_transaction() {
    let out =
        point_commit_sized(&args("point-commit", true), 200, MonitorMode::Incremental).unwrap();
    let m = |k: &str| out.metrics[k];
    let parts = m("storage.begin_us")
        + m("storage.apply_txn_us")
        + m("rules.check_us")
        + m("storage.commit_us")
        + m("engine.residual_us");
    assert!((parts - m("engine.txn_us")).abs() < 1e-6);
    assert!(m("propagate.pass_us") > 0.0 && m("amosql.parse_us") > 0.0);
    assert_eq!(m("rules.passes"), 1.0);
}
