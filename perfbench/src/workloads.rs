//! The three workloads: set-up, the closed-loop measured phase, the
//! correctness checks, and (with `--trace 1`) the traced split.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use amos_db::{DbError, MonitorMode, Value};

use crate::inventory::{
    bulk_txn, point_txn, BulkRound, BulkStream, Firing, Inventory, PointStream, PointUpdate,
    N_ITEMS,
};
use crate::layers::{engine_metrics, traced_txn, EngineSplit};
use crate::ledger::{
    acked_in_order, add_logs, initial_balances, run_clients, Client, ClientLog, Ledger, LedgerOp,
    OpStream, Served, Stop, CLIENTS, GROUP_COMMIT, LIMIT, N_ACCOUNTS, PAIRS_PER_TRIP, REQUEST,
    WARMUP_OPS,
};
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, percentile, ratio, summarize};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Point transactions run at set-up, before timing.
pub const POINT_WARMUP: usize = 2_000;
/// Spans written to the trace file at most.
pub const SPAN_FILE_LIMIT: usize = 50_000;
/// Span name of one parse.
pub const PARSE: &str = "amosql.parse";
/// Point transactions whose scripts a traced run parses.
pub const PARSE_SAMPLE: usize = 20_000;
/// Span name of one in-process session statement.
pub const SESSION: &str = "session.execute";

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Directory for WAL files and the span file.
    pub out_dir: PathBuf,
}

impl Args {
    fn spans_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("spans-{}-seed{}.json", self.workload, self.seed))
    }

    fn wal_dir(&self, tag: &str) -> PathBuf {
        self.out_dir
            .join(format!("wal-{}-{tag}", std::process::id()))
    }
}

/// What set-up cost: the median set-up time and the process's peak RSS
/// once set-up has finished.
#[derive(Debug, Clone, Copy)]
struct SetupCost {
    seconds: f64,
    rss_mb: f64,
}

/// Run `setup` [`SETUPS`] times (dropping each result before the next)
/// and keep the last; returns it with what set-up cost.
fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, SetupCost), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let cost = SetupCost {
        seconds: median(&times),
        rss_mb: peak_rss_mb(),
    };
    Ok((last.expect("SETUPS > 0"), cost))
}

/// The closed loop: call `op` until `seconds` have passed, and
/// `after` (untimed) once each op has returned; both get `state`.
/// Returns the per-op (completion time s, latency µs) samples and the
/// wall time.
fn closed_loop<S, T>(
    seconds: f64,
    failed: &mut u64,
    first_error: &mut Option<String>,
    state: &mut S,
    mut op: impl FnMut(&mut S, u64) -> (T, Result<(), DbError>),
    mut after: impl FnMut(&mut S, T, bool),
) -> (Vec<(f64, f64)>, f64) {
    let mut lat = Vec::new();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut k = 0;
    while k == 0 || start.elapsed() < deadline {
        let t0 = Instant::now();
        let (input, r) = op(state, k);
        lat.push((
            start.elapsed().as_secs_f64(),
            t0.elapsed().as_nanos() as f64 / 1e3,
        ));
        after(state, input, r.is_ok());
        if let Err(e) = r {
            *failed += 1;
            first_error.get_or_insert(e.to_string());
        }
        k += 1;
    }
    (lat, start.elapsed().as_secs_f64())
}

/// Length of the windows the end-to-end figures are taken over.
pub const WINDOW_S: f64 = 0.1;

fn latency_metrics(out: &mut Outcome, samples: &[(f64, f64)], wall: f64, setup: SetupCost) {
    let s = summarize(samples, wall, WINDOW_S);
    out.set("setup_s", setup.seconds);
    out.set("latency_p50_us", s.p50_us);
    out.set("throughput_ops_s", s.ops_per_s);
    let lat: Vec<f64> = samples.iter().map(|s| s.1).collect();
    out.note(format!(
        "# whole phase: {} operations in {wall:.2} s, {:.2} ops/s, p50 {:.1} us, p99 {:.1} us ({} samples beyond p99)",
        lat.len(),
        lat.len() as f64 / wall,
        median(&lat),
        percentile(&lat, 99.0),
        lat.len() / 100
    ));
    let taken_over = if s.windows > 1 {
        format!("best decile of {} windows of {WINDOW_S} s", s.windows)
    } else {
        "whole phase (too few operations for windows)".to_string()
    };
    out.note(format!(
        "# reported: {taken_over}: p50 {:.1} us, {:.2} ops/s; setup_s is the median of {SETUPS} set-ups; peak_rss_mb is read when set-up ends",
        s.p50_us, s.ops_per_s
    ));
    out.set("peak_rss_mb", setup.rss_mb);
}

/// Time `amos_amosql::parse_spanned` on a generated script. A script
/// that does not parse is a failure.
fn parse_script(out: &mut Outcome, tracer: &mut Tracer, request: u64, script: &str) {
    let t0 = tracer.now();
    let parsed = amos_amosql::parse_spanned(script);
    let t1 = tracer.now();
    tracer.record(PARSE, 0, request, t0, t1);
    if let Err(e) = parsed {
        out.failed += 1;
        out.correct = false;
        out.note(format!("# parse error: {e}"));
    }
}

/// The metrics every traced run ends with: parse time, the traced
/// throughput (compare with `throughput_ops_s` for the tracing
/// overhead), and the span file.
fn trace_metrics(
    out: &mut Outcome,
    args: &Args,
    tracer: &Tracer,
    samples: &[(f64, f64)],
    wall: f64,
) {
    out.set("amosql.parse_us", mean_us(tracer, PARSE));
    out.set(
        "trace.throughput_ops_s",
        summarize(samples, wall, WINDOW_S).ops_per_s,
    );
    write_spans(out, args, tracer);
}

fn mean_us(tracer: &Tracer, name: &str) -> f64 {
    let d = tracer.durations_us(name);
    ratio(d.iter().sum(), d.len() as f64)
}

fn write_spans(out: &mut Outcome, args: &Args, tracer: &Tracer) {
    let path = args.spans_path();
    match tracer.write_json(&path, &args.workload, args.seed, SPAN_FILE_LIMIT) {
        Ok(()) => out.note(format!(
            "# spans: {} recorded, written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => out.note(format!("# spans: could not write {}: {e}", path.display())),
    }
}

const SERVER_ONLY: &[&str] = &[
    "session.execute_us",
    "session.conflict_ratio",
    "session.lock_hold_us",
    "server.wire_us",
    "wal.fsyncs_per_commit",
    "wal.group_size_mean",
];

// ----------------------------------------------------------------------
// point-commit and bulk-commit
// ----------------------------------------------------------------------

/// State of an inventory run: the world, its input stream, and the
/// firing check, made after every transaction in constant memory.
struct InventoryRun<S> {
    world: Inventory,
    stream: S,
    /// Firings checked so far.
    seen: usize,
    /// Transactions committed so far.
    txns: u64,
    /// The first transaction whose firings differed from the expected.
    mismatch: Option<String>,
}

impl<S> InventoryRun<S> {
    fn new(world: Inventory, stream: S) -> Self {
        InventoryRun {
            world,
            stream,
            seen: 0,
            txns: 0,
            mismatch: None,
        }
    }

    /// Check the firings of the transaction just committed against
    /// `fires` (sorted by item).
    fn committed(&mut self, fires: &[Firing]) {
        let now = self.world.firing_count();
        if self.mismatch.is_none() && (now - self.seen != fires.len() || !fires.is_empty()) {
            let mut got = self.world.firings_since(self.seen);
            got.sort_unstable();
            if got != fires {
                self.mismatch = Some(format!(
                    "# MISMATCH: transaction {} fired {got:?}, expected {fires:?}",
                    self.txns
                ));
            }
        }
        self.seen = now;
        self.txns += 1;
    }

    /// Report the check; true when every transaction fired as expected.
    fn firings_ok(&self, out: &mut Outcome) -> bool {
        if let Some(m) = &self.mismatch {
            out.note(m.clone());
        }
        self.mismatch.is_none()
    }
}

/// **point-commit**: Fig. 6 at 10k items, one `quantity` change per
/// transaction, single driver thread, in-memory.
pub fn point_commit(args: &Args) -> Result<Outcome, String> {
    point_commit_sized(args, N_ITEMS, MonitorMode::Incremental)
}

/// point-commit over `n` items in the given monitor mode.
pub fn point_commit_sized(args: &Args, n: usize, mode: MonitorMode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setup = || -> Result<InventoryRun<PointStream>, String> {
        let (stream, init) = PointStream::new(args.seed, n);
        let world = Inventory::build(&init, mode).map_err(|e| e.to_string())?;
        let mut run = InventoryRun::new(world, stream);
        for _ in 0..POINT_WARMUP {
            let u = run.stream.next_update();
            point_txn(&mut run.world, u).map_err(|e| e.to_string())?;
            run.committed(u.fires.as_slice());
        }
        Ok(run)
    };
    let (mut run, setup) = repeat_setup(setup)?;
    let actions_before = run.world.db.rules().stats().actions_executed;
    let mut tracer = Tracer::new(Instant::now());
    let mut split = EngineSplit::default();
    let mut traced: Vec<PointUpdate> = Vec::new();
    let mut first_error = None;
    let (lat, wall) = closed_loop(
        args.seconds,
        &mut out.failed,
        &mut first_error,
        &mut run,
        |run, k| {
            let u = run.stream.next_update();
            let r = if args.trace {
                let h = &run.world.h;
                traced_txn(&mut run.world.db, &mut tracer, &mut split, k, |db| {
                    h.set_quantity(db, u.item, u.value)
                })
            } else {
                point_txn(&mut run.world, u)
            };
            (u, r)
        },
        |run, u, ok| {
            if ok {
                run.committed(u.fires.as_slice());
                if args.trace && traced.len() < PARSE_SAMPLE {
                    traced.push(u);
                }
            } else if run.world.db.storage().in_transaction() {
                let _ = run.world.db.rollback();
            }
        },
    );
    out.attempted = lat.len() as u64;
    let firings_ok = run.firings_ok(&mut out);
    out.correct = firings_ok && out.failed == 0;
    out.note(format!(
        "# point-commit: {n} items, {} transactions timed; `order` fired {} times, every transaction as expected: {firings_ok}",
        lat.len(),
        run.seen
    ));
    if args.trace {
        split.actions = (run.world.db.rules().stats().actions_executed - actions_before) as u64;
        engine_metrics(&mut out, &tracer, &split);
        for (k, u) in traced.iter().enumerate() {
            let script = Inventory::point_script(u.item, u.value);
            parse_script(&mut out, &mut tracer, k as u64, &script);
        }
        trace_metrics(&mut out, args, &tracer, &lat, wall);
        out.absent(SERVER_ONLY);
    } else {
        latency_metrics(&mut out, &lat, wall, setup);
    }
    if let Some(e) = first_error {
        out.note(format!("# first error: {e}"));
    }
    Ok(out)
}

/// **bulk-commit**: Fig. 7 at 10k items, every item's `quantity`,
/// `delivery_time` and `consume_freq` changed per transaction,
/// in-memory.
pub fn bulk_commit(args: &Args) -> Result<Outcome, String> {
    bulk_commit_sized(args, N_ITEMS, MonitorMode::Incremental)
}

/// bulk-commit over `n` items in the given monitor mode.
pub fn bulk_commit_sized(args: &Args, n: usize, mode: MonitorMode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setup = || -> Result<InventoryRun<BulkStream>, String> {
        let (stream, init) = BulkStream::new(args.seed, n);
        let world = Inventory::build(&init, mode).map_err(|e| e.to_string())?;
        let mut run = InventoryRun::new(world, stream);
        let round = run.stream.next_round();
        bulk_txn(&mut run.world, &round).map_err(|e| e.to_string())?;
        run.committed(&round.fires);
        Ok(run)
    };
    let (mut run, setup) = repeat_setup(setup)?;
    let actions_before = run.world.db.rules().stats().actions_executed;
    let mut tracer = Tracer::new(Instant::now());
    let mut split = EngineSplit::default();
    let mut last_round: Option<BulkRound> = None;
    let mut first_error = None;
    let (lat, wall) = closed_loop(
        args.seconds,
        &mut out.failed,
        &mut first_error,
        &mut run,
        |run, k| {
            let round = run.stream.next_round();
            let r = if args.trace {
                let h = &run.world.h;
                traced_txn(&mut run.world.db, &mut tracer, &mut split, k, |db| {
                    h.apply_round(db, &round)
                })
            } else {
                bulk_txn(&mut run.world, &round)
            };
            (round, r)
        },
        |run, round, ok| {
            if ok {
                run.committed(&round.fires);
            } else if run.world.db.storage().in_transaction() {
                let _ = run.world.db.rollback();
            }
            last_round = Some(round);
        },
    );
    out.attempted = lat.len() as u64;
    let firings_ok = run.firings_ok(&mut out);
    let expected_below = run.stream.below_threshold();
    let below = run.world.below_threshold().map_err(|e| e.to_string())?;
    let below_ok = below == expected_below;
    if !below_ok {
        out.note(format!(
            "# MISMATCH: {} items below threshold, expected {}",
            below.len(),
            expected_below.len()
        ));
    }
    out.correct = firings_ok && below_ok && out.failed == 0;
    out.note(format!(
        "# bulk-commit: {n} items, {} transactions of {} updates timed; final below-threshold set ({} items) as expected: {below_ok}; every transaction fired as expected: {firings_ok}",
        lat.len(),
        3 * n,
        below.len()
    ));
    if args.trace {
        split.actions = (run.world.db.rules().stats().actions_executed - actions_before) as u64;
        engine_metrics(&mut out, &tracer, &split);
        if let Some(round) = &last_round {
            parse_script(&mut out, &mut tracer, 0, &BulkStream::script(round));
        }
        trace_metrics(&mut out, args, &tracer, &lat, wall);
        out.absent(SERVER_ONLY);
    } else {
        latency_metrics(&mut out, &lat, wall, setup);
    }
    if let Some(e) = first_error {
        out.note(format!("# first error: {e}"));
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// server-ledger
// ----------------------------------------------------------------------

/// Stream index of the set-up warm-up client (its transfer ids differ
/// from every measured client's).
const WARMUP_STREAM: usize = 1_000;

/// Check the engine's totals and rule firings against the expected
/// totals.
fn check_ledger(out: &mut Outcome, ledger: &Ledger, expected: &[i64]) -> Result<bool, String> {
    let actual = ledger.totals().map_err(|e| e.to_string())?;
    let wrong = expected.iter().zip(&actual).filter(|(e, a)| e != a).count();
    let crossed = expected.iter().filter(|&&t| t > LIMIT).count() as u64;
    let alerts = ledger.alerts();
    out.note(format!(
        "# server-ledger: {} accounts; totals wrong: {wrong}; accounts over the limit: {crossed}, rule firings: {alerts}",
        expected.len()
    ));
    Ok(wrong == 0 && alerts == crossed)
}

/// **server-ledger**: the TCP server with WAL and group commit, two
/// closed-loop clients, over the ledger schema.
pub fn server_ledger(args: &Args) -> Result<Outcome, String> {
    server_ledger_sized(args, N_ACCOUNTS)
}

/// server-ledger over `n` accounts.
pub fn server_ledger_sized(args: &Args, n: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let balances = initial_balances(args.seed, n);
    let wal = args.wal_dir("wire");
    let setup = || -> Result<(Served, ClientLog), String> {
        let served = Served::start(&balances, &wal)?;
        let warm = Client::connect(served.server.addr())
            .and_then(|c| {
                c.run(
                    Instant::now(),
                    OpStream::new(args.seed, WARMUP_STREAM, n),
                    Stop::Count(WARMUP_OPS),
                    balances.clone(),
                    args.trace.then(|| Tracer::new(Instant::now())),
                    WARMUP_STREAM,
                )
            })
            .map_err(|e| format!("warm-up client: {e}"))?;
        if warm.failed > 0 {
            return Err(format!("warm-up failed: {:?}", warm.first_error));
        }
        Ok((served, warm))
    };
    let ((mut served, warm), setup) = repeat_setup(setup)?;
    let floors = add_logs(&balances, [&warm]);
    let (logs, wall, before, after) = run_clients(
        &served,
        args.seed,
        CLIENTS,
        Some(args.seconds),
        0,
        &floors,
        args.trace,
    )?;
    served.shutdown();
    let expected = add_logs(&floors, &logs);
    let lat: Vec<(f64, f64)> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    out.attempted = logs.iter().map(|l| l.attempted).sum();
    out.failed = logs.iter().map(|l| l.failed).sum();
    let ledger_ok = check_ledger(&mut out, &served.ledger, &expected)?;
    out.correct = ledger_ok && out.failed == 0;
    let conflicts: u64 = logs.iter().map(|l| l.conflicts).sum();
    let txn_attempts: u64 = logs.iter().map(|l| l.txn_attempts).sum();
    let adds: u64 = logs.iter().map(|l| l.adds).sum();
    out.note(format!(
        "# flush policy: WAL group commit {GROUP_COMMIT} (no leader delay), commit pipeline on, statement pipelining on; {CLIENTS} closed-loop TCP clients, {PAIRS_PER_TRIP} read/write pairs per round trip"
    ));
    out.note(format!(
        "# conflict aborts retried: {conflicts} of {txn_attempts} transaction attempts"
    ));
    for e in logs.iter().filter_map(|l| l.first_error.as_ref()) {
        out.note(format!("# first error: {e}"));
    }
    if !args.trace {
        latency_metrics(&mut out, &lat, wall, setup);
        return Ok(out);
    }
    drop(served);
    let acked = acked_in_order([&warm].into_iter().chain(&logs));
    let mut tracer = Tracer::new(Instant::now());
    for l in logs {
        tracer.absorb(l.tracer);
    }
    let wire_p50 = median(&tracer.durations_us(REQUEST));
    let fsyncs = delta(&after, &before, |w| w.fsyncs);
    let batches = delta(&after, &before, |w| w.batches);
    out.set(
        "session.conflict_ratio",
        ratio(conflicts as f64, txn_attempts as f64),
    );
    out.set(
        "session.lock_hold_us",
        ratio(
            (after.lock_hold_ns - before.lock_hold_ns) as f64 / 1e3,
            (after.commits - before.commits) as f64,
        ),
    );
    out.set("wal.fsyncs_per_commit", ratio(fsyncs as f64, adds as f64));
    out.set("wal.group_size_mean", ratio(batches as f64, fsyncs as f64));

    // Replay 1: the acknowledged stream, serially, through one
    // in-process `Session` — the session layer without the wire.
    let budget = Duration::from_secs_f64(args.seconds / 4.0);
    let replay = Ledger::build(&balances, &args.wal_dir("session")).map_err(|e| e.to_string())?;
    let mut session = replay.engine.session();
    let started = Instant::now();
    let mut replayed = 0;
    // Statement times by kind (reads, write transactions).
    let mut by_kind = [Vec::new(), Vec::new()];
    for (k, op) in acked.iter().enumerate() {
        if started.elapsed() > budget {
            break;
        }
        let script = op.script();
        let t0 = tracer.now();
        let r = session.execute(&script);
        let t1 = tracer.now();
        tracer.record(SESSION, 0, k as u64, t0, t1);
        by_kind[matches!(op, LedgerOp::Add { .. }) as usize].push((t1 - t0) as f64 / 1e3);
        if let Err(e) = r {
            out.failed += 1;
            out.correct = false;
            out.note(format!("# session replay error: {script}: {e}"));
            break;
        }
        replayed += 1;
    }
    drop(session);
    if replayed == acked.len() {
        let same = replay.totals().map_err(|e| e.to_string())? == expected;
        out.correct &= same;
        out.note(format!(
            "# serial session replay of all {replayed} acknowledged ops gives the same totals: {same}"
        ));
    } else {
        out.note(format!(
            "# serial session replay stopped after {replayed} of {} ops (time budget)",
            acked.len()
        ));
    }
    drop(replay);
    out.set("session.execute_us", median(&tracer.durations_us(SESSION)));
    // A round trip carries PAIRS_PER_TRIP reads and write transactions.
    let in_session = PAIRS_PER_TRIP as f64 * (median(&by_kind[0]) + median(&by_kind[1]));
    out.set("server.wire_us", wire_p50 - in_session);

    // Replay 2: the acknowledged adds through the engine's layer calls
    // (parse, begin, apply, check, commit), same WAL configuration.
    let direct = Ledger::build(&balances, &args.wal_dir("direct")).map_err(|e| e.to_string())?;
    let mut split = EngineSplit::default();
    let actions_before = direct
        .engine
        .with_read(|db| db.rules().stats().actions_executed);
    let started = Instant::now();
    let result = direct.engine.with_write(|db| -> Result<(), DbError> {
        for (k, op) in acked.iter().enumerate() {
            if started.elapsed() > budget {
                break;
            }
            parse_script(&mut out, &mut tracer, k as u64, &op.script());
            if let LedgerOp::Add {
                account,
                xfer,
                value,
            } = *op
            {
                let key = [Value::Oid(direct.accounts[account]), Value::Int(xfer)];
                traced_txn(db, &mut tracer, &mut split, k as u64, |db| {
                    db.storage_mut().add_functional(
                        direct.amount_rel,
                        &key,
                        &[Value::Int(value)],
                    )?;
                    Ok(1)
                })?;
            }
        }
        Ok(())
    });
    if let Err(e) = result {
        out.failed += 1;
        out.correct = false;
        out.note(format!("# direct replay error: {e}"));
    }
    split.actions = (direct
        .engine
        .with_read(|db| db.rules().stats().actions_executed)
        - actions_before) as u64;
    engine_metrics(&mut out, &tracer, &split);
    trace_metrics(&mut out, args, &tracer, &lat, wall);
    Ok(out)
}

fn delta(
    after: &amos_db::CommitMetrics,
    before: &amos_db::CommitMetrics,
    f: impl Fn(&amos_db::WalMetrics) -> u64,
) -> u64 {
    after.wal.as_ref().map_or(0, &f) - before.wal.as_ref().map_or(0, &f)
}
