//! The traced engine split shared by every workload: one transaction
//! driven through the layers' public calls — `Amos::begin`, storage
//! updates, `Amos::check_now`, `Storage::commit` (together exactly what
//! `Amos::commit` does) — plus the counters the program already exports
//! (`PassMetrics`, `MonitorStats`).

use amos_db::Amos;
use amos_metrics::PassMetrics;
use amos_storage::RelId;

use crate::report::Outcome;
use crate::stats::ratio;
use crate::trace::Tracer;

/// Root span of one engine transaction.
pub const TXN: &str = "engine.txn";
/// `Amos::begin`.
pub const BEGIN: &str = "storage.begin";
/// The transaction's storage updates (`set_functional` / `add`).
pub const APPLY: &str = "storage.apply";
/// `Amos::check_now`: view maintenance, propagation, rule actions.
pub const CHECK: &str = "rules.check";
/// `Storage::commit`.
pub const COMMIT: &str = "storage.commit";

/// The relation behind stored function `name` of the schema the
/// workload just created.
pub fn stored_rel(db: &Amos, name: &str) -> RelId {
    let c = db.catalog();
    c.def(c.lookup(name).expect("schema function"))
        .stored_rel()
        .expect("stored function")
}

/// Sums of `PassMetrics` over the propagation passes of a run.
#[derive(Debug, Default, Clone)]
pub struct PassTally {
    /// Passes read.
    pub passes: u64,
    /// Σ pass wall time.
    pub pass_ns: u64,
    /// Σ per-differential time (`DiffTiming::nanos`).
    pub diff_ns: u64,
    /// Σ network levels visited.
    pub levels: u64,
    /// Σ levels that ran on the threaded path.
    pub threaded_levels: u64,
    /// Σ candidate tuples.
    pub candidates: u64,
    /// Σ candidates rejected by the §7.2 checks.
    pub rejected: u64,
    /// Σ derived-call memo hits.
    pub tabling_hits: u64,
    /// Σ derived-call memo misses.
    pub tabling_misses: u64,
    /// Σ stored-relation index probes.
    pub probes: u64,
    /// Σ stored-relation full scans.
    pub scans: u64,
    /// Σ probes that fell back to a scan.
    pub fallback_scans: u64,
    /// Σ adaptive replans.
    pub replans: u64,
    /// Σ adaptive plan-cache hits.
    pub plan_cache_hits: u64,
}

impl PassTally {
    /// Add one pass.
    pub fn add(&mut self, m: &PassMetrics) {
        self.passes += 1;
        self.pass_ns += m.nanos;
        self.diff_ns += m.differentials.iter().map(|d| d.nanos).sum::<u64>();
        self.levels += m.levels.len() as u64;
        self.threaded_levels += m.levels.iter().filter(|l| l.parallel).count() as u64;
        self.candidates += m.candidates as u64;
        self.rejected += m.rejected as u64;
        self.tabling_hits += m.tabling_hits;
        self.tabling_misses += m.tabling_misses;
        self.probes += m.probes;
        self.scans += m.scans;
        self.fallback_scans += m.fallback_scans;
        self.replans += m.replans;
        self.plan_cache_hits += m.plan_cache_hits;
    }
}

/// Counts gathered alongside the spans of a traced run.
#[derive(Debug, Default, Clone)]
pub struct EngineSplit {
    /// Transactions traced.
    pub txns: u64,
    /// Storage update calls inside them.
    pub apply_calls: u64,
    /// Σ `CheckSummary::passes`.
    pub passes: u64,
    /// Rule actions executed (`MonitorStats` delta).
    pub actions: u64,
    /// The passes whose `PassMetrics` were read.
    pub tally: PassTally,
}

/// One traced transaction: `apply` performs the storage updates and
/// returns how many it made. Records the spans and reads the pass
/// metrics of the check phase.
pub fn traced_txn(
    db: &mut Amos,
    tracer: &mut Tracer,
    split: &mut EngineSplit,
    request: u64,
    apply: impl FnOnce(&mut Amos) -> Result<u64, amos_db::DbError>,
) -> Result<(), amos_db::DbError> {
    // Every call is bracketed by its own timestamps, so the glue between
    // calls shows up as `engine.residual_us` instead of in a layer.
    let t0 = tracer.now();
    let b0 = tracer.now();
    db.begin()?;
    let b1 = tracer.now();
    let a0 = tracer.now();
    let calls = apply(db)?;
    let a1 = tracer.now();
    let c0 = tracer.now();
    let summary = db.check_now()?;
    let c1 = tracer.now();
    let s0 = tracer.now();
    db.storage_mut().commit()?;
    let s1 = tracer.now();
    let t1 = tracer.now();
    let root = tracer.record(TXN, 0, request, t0, t1);
    tracer.record(BEGIN, root, request, b0, b1);
    tracer.record(APPLY, root, request, a0, a1);
    tracer.record(CHECK, root, request, c0, c1);
    tracer.record(COMMIT, root, request, s0, s1);
    split.txns += 1;
    split.apply_calls += calls;
    split.passes += summary.passes as u64;
    if summary.passes > 0 {
        if let Some(m) = db.last_pass_metrics() {
            split.tally.add(m);
        }
    }
    Ok(())
}

/// Fill the engine, storage, rules, propagate and objectlog metrics
/// from a traced run. Per-transaction times are means over
/// `split.txns`; they add up exactly:
/// `engine.txn_us = storage.begin_us + storage.apply_txn_us +
/// rules.check_us + storage.commit_us + engine.residual_us`.
pub fn engine_metrics(out: &mut Outcome, tracer: &Tracer, split: &EngineSplit) {
    let txns = split.txns as f64;
    let per_txn = |ns: u64| ratio(ns as f64 / 1e3, txns);
    let t = tracer.totals();
    let total = |name: &str| t.get(name).map_or(0, |&(_, ns)| ns);
    let (txn, begin, apply, check, commit) = (
        total(TXN),
        total(BEGIN),
        total(APPLY),
        total(CHECK),
        total(COMMIT),
    );
    let p = &split.tally;
    out.set("engine.txn_us", per_txn(txn));
    out.set(
        "engine.residual_us",
        per_txn(txn) - per_txn(begin) - per_txn(apply) - per_txn(check) - per_txn(commit),
    );
    out.set("storage.begin_us", per_txn(begin));
    out.set(
        "storage.apply_us",
        ratio(apply as f64 / 1e3, split.apply_calls as f64),
    );
    out.set("storage.apply_txn_us", per_txn(apply));
    out.set("storage.apply_share", ratio(apply as f64, txn as f64));
    out.set("storage.commit_us", per_txn(commit));
    out.set("rules.check_us", per_txn(check));
    out.set("rules.other_us", per_txn(check) - per_txn(p.pass_ns));
    out.set("rules.actions_executed", ratio(split.actions as f64, txns));
    out.set("rules.passes", ratio(split.passes as f64, txns));
    let passes = p.passes as f64;
    out.set("propagate.pass_us", per_txn(p.pass_ns));
    out.set("propagate.diff_us", per_txn(p.diff_ns));
    out.set(
        "propagate.dispatch_us",
        per_txn(p.pass_ns) - per_txn(p.diff_ns),
    );
    out.set("propagate.levels", ratio(p.levels as f64, passes));
    out.set(
        "propagate.threaded_levels",
        ratio(p.threaded_levels as f64, passes),
    );
    out.set(
        "propagate.candidates_per_pass",
        ratio(p.candidates as f64, passes),
    );
    out.set(
        "propagate.reject_ratio",
        ratio(p.rejected as f64, p.candidates as f64),
    );
    out.set(
        "objectlog.tabling_hit_ratio",
        ratio(
            p.tabling_hits as f64,
            (p.tabling_hits + p.tabling_misses) as f64,
        ),
    );
    out.set("objectlog.probes_per_pass", ratio(p.probes as f64, passes));
    out.set("objectlog.scans_per_pass", ratio(p.scans as f64, passes));
    out.set(
        "objectlog.fallback_scans",
        ratio(p.fallback_scans as f64, passes),
    );
    out.set("objectlog.replans", ratio(p.replans as f64, passes));
    out.set(
        "objectlog.plan_cache_hit_ratio",
        ratio(
            p.plan_cache_hits as f64,
            (p.plan_cache_hits + p.replans) as f64,
        ),
    );
    if split.tally.passes < split.passes {
        out.note(format!(
            "# note: {} check phases ran more than one pass; PassMetrics covers the last pass of each",
            split.passes - split.tally.passes
        ));
    }
}
