//! The **server-ledger** workload: an in-process `amos_server::serve`
//! instance with a WAL (group commit of 8, commit pipeline and statement
//! pipelining on) over a ledger of accounts whose `total` is an
//! incrementally maintained Sum aggregate watched by a rule. Closed-loop
//! TCP clients send, per round trip, one pipelined burst of
//! [`PAIRS_PER_TRIP`] read/write pairs: `select total(:aJ);` and
//! `begin; select total(:aK); add amount(:aK, <unique>) = v; commit;`,
//! with a fifth of the keys on one hot account. Pairing the two keeps
//! the mix at exactly half reads and makes the round-trip latency
//! unimodal: with independently drawn single requests, the median would
//! fall in the gap between the read and the write latencies and move
//! with every percent of mix drift. Several pairs per round trip keep
//! the thread hand-offs between client and server a small part of the
//! round trip, and with them the host's scheduling noise.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use amos_core::aggregate::AggFn;
use amos_db::{Amos, CommitMetrics, DbError, Oid, SharedEngine, Value, WalConfig};
use amos_server::{serve, ServerConfig, ServerHandle};
use amos_storage::RelId;
use amos_types::Tuple;

use crate::layers::stored_rel;
use crate::rng::Rng;
use crate::trace::Tracer;

/// Accounts in the ledger.
pub const N_ACCOUNTS: usize = 10_000;
/// Closed-loop TCP clients.
pub const CLIENTS: usize = 2;
/// Share of operations (percent) on the hot account `:a0`.
pub const HOT_PERCENT: u64 = 20;
/// The rule fires when an account's total exceeds this.
pub const LIMIT: i64 = 1_000;
/// Group-commit target of the WAL (batches per fsync).
pub const GROUP_COMMIT: usize = 8;
/// Read/write pairs a client sends in one pipelined round trip.
pub const PAIRS_PER_TRIP: usize = 4;
/// Warm-up round trips run at set-up, through the wire.
pub const WARMUP_OPS: u64 = 25;
/// Span name of one wire round trip (client side).
pub const REQUEST: &str = "server.request";

const SCHEMA: &str = "create type account; \
                      create function amount(account a, integer xfer) -> integer;";

/// Initial balances, all below [`LIMIT`].
pub fn initial_balances(seed: u64, n: usize) -> Vec<i64> {
    let mut r = Rng::new(seed, 10);
    (0..n).map(|_| r.range(0, LIMIT)).collect()
}

/// A ledger engine (WAL attached, rule active).
pub struct Ledger {
    /// The shared engine.
    pub engine: Arc<SharedEngine>,
    /// Account oids, by index (`:a<index>` on the wire).
    pub accounts: Vec<Oid>,
    /// `amount` relation.
    pub amount_rel: RelId,
    alerts: Arc<AtomicU64>,
    wal_dir: PathBuf,
}

impl Ledger {
    /// Build a ledger with the given balances in a fresh WAL directory.
    pub fn build(balances: &[i64], wal_dir: &Path) -> Result<Ledger, DbError> {
        let _ = std::fs::remove_dir_all(wal_dir);
        let mut db = Amos::new();
        let alerts = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&alerts);
        db.register_procedure("alert", move |_ctx, _args| {
            sink.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        db.attach_wal(wal_dir, WalConfig::grouped(GROUP_COMMIT))?;
        db.execute(SCHEMA)?;
        let extent = stored_rel(&db, "account_extent");
        let amount_rel = stored_rel(&db, "amount");
        let mut accounts = Vec::with_capacity(balances.len());
        db.begin()?;
        for (k, &b) in balances.iter().enumerate() {
            let s = db.storage_mut();
            let a = s.fresh_oid();
            s.insert(extent, Tuple::new(vec![Value::Oid(a)]))?;
            s.add_functional(
                amount_rel,
                &[Value::Oid(a), Value::Int(0)],
                &[Value::Int(b)],
            )?;
            db.bind_iface(&format!("a{k}"), Value::Oid(a));
            accounts.push(a);
        }
        db.commit()?;
        db.register_aggregate("total", "amount", vec![0], 2, AggFn::Sum)?;
        db.execute(&format!(
            "create rule over_limit() as \
             when for each account a where total(a) > {LIMIT} do alert(a); \
             activate over_limit();"
        ))?;
        Ok(Ledger {
            engine: SharedEngine::new(db),
            accounts,
            amount_rel,
            alerts,
            wal_dir: wal_dir.to_path_buf(),
        })
    }

    /// `alert` invocations so far.
    pub fn alerts(&self) -> u64 {
        self.alerts.load(Ordering::Relaxed)
    }

    /// `total(a)` of every account, read from the engine.
    pub fn totals(&self) -> Result<Vec<i64>, DbError> {
        self.engine.with_read(|db| {
            self.accounts
                .iter()
                .map(|&a| match db.call_function("total", &[Value::Oid(a)])? {
                    Value::Int(v) => Ok(v),
                    other => Err(DbError::Other(format!("total is not an integer: {other}"))),
                })
                .collect()
        })
    }

    /// Wait (bounded) until no session holds the engine any more, i.e.
    /// every server connection thread has finished.
    pub fn await_sessions(&self) {
        let until = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&self.engine) > 1 && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Ledger {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerOp {
    /// `select total(:aK);`
    Read {
        /// Account index.
        account: usize,
    },
    /// `begin; select total(:aK); add amount(:aK, xfer) = value; commit;`
    Add {
        /// Account index.
        account: usize,
        /// Unique transfer id (so every add is an insert).
        xfer: i64,
        /// Amount added.
        value: i64,
    },
}

impl LedgerOp {
    /// The op's wire line (without the newline).
    pub fn script(&self) -> String {
        match *self {
            LedgerOp::Read { account } => format!("select total(:a{account});"),
            LedgerOp::Add {
                account,
                xfer,
                value,
            } => format!(
                "begin; select total(:a{account}); add amount(:a{account}, {xfer}) = {value}; commit;"
            ),
        }
    }

    /// The account the op touches.
    pub fn account(&self) -> usize {
        match *self {
            LedgerOp::Read { account } | LedgerOp::Add { account, .. } => account,
        }
    }
}

/// A client's seeded op stream. Stream `client` draws its own
/// sequence and its own range of transfer ids.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    n: usize,
    xfer: i64,
}

impl OpStream {
    /// Stream `client` over `n` accounts.
    pub fn new(seed: u64, client: usize, n: usize) -> OpStream {
        OpStream {
            rng: Rng::new(seed, 100 + client as u64),
            n,
            xfer: (client as i64 + 1) * 1_000_000_000_000,
        }
    }

    /// The next pair: a read of one account and a write transaction on
    /// another.
    pub fn next_pair(&mut self) -> [LedgerOp; 2] {
        let read = LedgerOp::Read {
            account: self.account(),
        };
        let account = self.account();
        self.xfer += 1;
        let add = LedgerOp::Add {
            account,
            xfer: self.xfer,
            value: self.rng.range(1, 101),
        };
        [read, add]
    }

    fn account(&mut self) -> usize {
        if self.rng.percent(HOT_PERCENT) {
            0
        } else {
            self.rng.below(self.n as u64) as usize
        }
    }
}

/// When a client stops issuing round trips.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many round trips.
    Count(u64),
    /// At this instant (the op in flight completes).
    At(Instant),
}

/// What one client did.
#[derive(Debug)]
pub struct ClientLog {
    /// Per round trip: (completion time in s since `started`, latency
    /// µs), retries included.
    pub samples: Vec<(f64, f64)>,
    /// Per account, the sum of the client's acknowledged `add`s.
    pub added: Vec<i64>,
    /// Acknowledged `add`s.
    pub adds: u64,
    /// Acknowledged operations with their acknowledgement time (ns
    /// since the tracer's origin), in order; kept by traced runs only.
    pub acked: Vec<(u64, LedgerOp)>,
    /// Round trips attempted.
    pub attempted: u64,
    /// Round trips with a failed request (non-retryable `ERR` or a
    /// wrong result).
    pub failed: u64,
    /// Transaction attempts (first tries and retries).
    pub txn_attempts: u64,
    /// Attempts aborted by a commit-time conflict and retried.
    pub conflicts: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
    /// Request spans (traced runs only).
    pub tracer: Tracer,
}

enum Reply {
    Total(i64),
    Conflict,
    Error(String),
}

fn read_reply(reader: &mut impl BufRead, op: &LedgerOp) -> std::io::Result<Reply> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let line = line.trim_end().to_string();
        if line == "READY" {
            break;
        }
        lines.push(line);
    }
    if lines.iter().any(|l| l.starts_with("ERR retryable")) {
        return Ok(Reply::Conflict);
    }
    let shape: &[&str] = match op {
        LedgerOp::Read { .. } => &["ROW ", "END 1"],
        LedgerOp::Add { .. } => &["OK", "ROW ", "END 1", "OK", "COMMITTED rules="],
    };
    let well_formed = lines.len() == shape.len()
        && lines.iter().zip(shape).all(|(l, p)| l.starts_with(p))
        && !lines
            .last()
            .is_some_and(|l| l.starts_with("COMMITTED") && !l.ends_with(" failed=0"));
    let total = lines
        .iter()
        .find_map(|l| l.strip_prefix("ROW "))
        .and_then(|v| v.trim().parse::<i64>().ok());
    Ok(match (well_formed, total) {
        (true, Some(t)) => Reply::Total(t),
        _ => Reply::Error(lines.join(" | ")),
    })
}

/// A connected client (greeting consumed).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to the server and read its greeting.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        let mut reader = BufReader::new(sock.try_clone()?);
        let mut greeting = String::new();
        while greeting.trim_end() != "READY" {
            greeting.clear();
            if reader.read_line(&mut greeting)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
        }
        Ok(Client {
            reader,
            writer: sock,
        })
    }

    /// Run the closed loop from `started`: send the next round trip
    /// once the previous one is answered, retrying conflict aborts.
    /// `floors[k]` is the least total the client may read for account
    /// `k` (its balance before the run); reads must never go below what
    /// the client has already seen or written, since snapshots are
    /// monotone and include the client's own commits. With a `tracer`
    /// the client also records a span per round trip (request id
    /// `client << 40 | round-trip index`) and keeps the acknowledged
    /// operations.
    pub fn run(
        mut self,
        started: Instant,
        mut ops: OpStream,
        stop: Stop,
        mut floors: Vec<i64>,
        tracer: Option<Tracer>,
        client: usize,
    ) -> std::io::Result<ClientLog> {
        let trace = tracer.is_some();
        let mut log = ClientLog {
            samples: Vec::new(),
            added: vec![0; floors.len()],
            adds: 0,
            acked: Vec::new(),
            attempted: 0,
            failed: 0,
            txn_attempts: 0,
            conflicts: 0,
            first_error: None,
            tracer: tracer.unwrap_or_else(|| Tracer::new(started)),
        };
        loop {
            let done = match stop {
                Stop::Count(n) => log.attempted >= n,
                Stop::At(t) => Instant::now() >= t,
            };
            if done {
                break;
            }
            let burst: Vec<LedgerOp> = (0..PAIRS_PER_TRIP).flat_map(|_| ops.next_pair()).collect();
            let scripts: Vec<String> = burst.iter().map(|op| op.script() + "\n").collect();
            let t0 = Instant::now();
            let start_ns = log.tracer.now();
            self.writer.write_all(scripts.concat().as_bytes())?;
            // Replies in the order the server executed the requests: the
            // burst first, then each conflict-aborted write retried on
            // its own.
            let mut executed = Vec::with_capacity(burst.len());
            let mut aborted = Vec::new();
            for (op, line) in burst.iter().zip(&scripts) {
                let reply = read_reply(&mut self.reader, op)?;
                if matches!(op, LedgerOp::Add { .. }) {
                    log.txn_attempts += 1;
                }
                match reply {
                    Reply::Conflict => aborted.push((*op, line)),
                    reply => executed.push((*op, reply)),
                }
            }
            for (op, line) in aborted {
                let mut reply = Reply::Conflict;
                while matches!(reply, Reply::Conflict) {
                    log.conflicts += 1;
                    log.txn_attempts += 1;
                    self.writer.write_all(line.as_bytes())?;
                    reply = read_reply(&mut self.reader, &op)?;
                }
                executed.push((op, reply));
            }
            log.samples.push((
                started.elapsed().as_secs_f64(),
                t0.elapsed().as_nanos() as f64 / 1e3,
            ));
            let end_ns = log.tracer.now();
            if trace {
                let request = ((client as u64) << 40) | log.attempted;
                log.tracer.record(REQUEST, 0, request, start_ns, end_ns);
            }
            log.attempted += 1;
            let mut error = None;
            for (op, reply) in executed {
                let k = op.account();
                match reply {
                    Reply::Total(t) if t < floors[k] => {
                        error.get_or_insert(format!(
                            "{}: read total {t} below {} already observed",
                            op.script(),
                            floors[k]
                        ));
                    }
                    Reply::Total(t) => {
                        floors[k] = t;
                        if let LedgerOp::Add { value, .. } = op {
                            floors[k] = t + value;
                            log.added[k] += value;
                            log.adds += 1;
                        }
                        if trace {
                            log.acked.push((end_ns, op));
                        }
                    }
                    Reply::Error(e) => {
                        error.get_or_insert(format!("{}: {e}", op.script()));
                    }
                    Reply::Conflict => unreachable!("conflicts are retried"),
                }
            }
            if let Some(e) = error {
                log.failed += 1;
                log.first_error.get_or_insert(e);
            }
        }
        Ok(log)
    }
}

/// `base` plus every log's acknowledged `add`s, per account.
pub fn add_logs<'a>(base: &[i64], logs: impl IntoIterator<Item = &'a ClientLog>) -> Vec<i64> {
    let mut totals = base.to_vec();
    for log in logs {
        for (t, a) in totals.iter_mut().zip(&log.added) {
            *t += a;
        }
    }
    totals
}

/// Acknowledged operations of the (traced) logs, in acknowledgement
/// order.
pub fn acked_in_order<'a>(logs: impl IntoIterator<Item = &'a ClientLog>) -> Vec<LedgerOp> {
    let mut all: Vec<(u64, LedgerOp)> = logs
        .into_iter()
        .flat_map(|l| l.acked.iter().copied())
        .collect();
    all.sort_by_key(|&(t, _)| t);
    all.into_iter().map(|(_, op)| op).collect()
}

/// A ledger served over TCP.
pub struct Served {
    /// The running server.
    pub server: ServerHandle,
    /// The engine.
    pub ledger: Ledger,
}

impl Served {
    /// Build a ledger and serve it on an ephemeral localhost port.
    pub fn start(balances: &[i64], wal_dir: &Path) -> Result<Served, String> {
        let ledger = Ledger::build(balances, wal_dir).map_err(|e| e.to_string())?;
        let server = serve(
            "127.0.0.1:0",
            Arc::clone(&ledger.engine),
            ServerConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        Ok(Served { ledger, server })
    }

    /// Stop the server and wait for its connection threads to finish.
    pub fn shutdown(&mut self) {
        self.server.stop();
        self.ledger.await_sessions();
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run `clients` closed-loop clients (streams `0..clients`, all
/// connected before the clock starts) for `seconds`, or for `count`
/// round trips each when `seconds` is `None`. Returns their logs, the
/// measured wall time, and the commit metrics at the start and end of
/// the measured window.
pub fn run_clients(
    served: &Served,
    seed: u64,
    clients: usize,
    seconds: Option<f64>,
    count: u64,
    floors: &[i64],
    trace: bool,
) -> Result<(Vec<ClientLog>, f64, CommitMetrics, CommitMetrics), String> {
    let addr = served.server.addr();
    let n = served.ledger.accounts.len();
    let origin = Instant::now();
    let barrier = Barrier::new(clients + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let conn = Client::connect(addr);
                    barrier.wait();
                    let started = Instant::now();
                    let stop = match seconds {
                        Some(s) => Stop::At(started + Duration::from_secs_f64(s)),
                        None => Stop::Count(count),
                    };
                    let ops = OpStream::new(seed, c, n);
                    let tracer = trace.then(|| Tracer::new(origin));
                    conn?.run(started, ops, stop, floors.to_vec(), tracer, c)
                })
            })
            .collect();
        barrier.wait();
        let before = served.ledger.engine.commit_metrics();
        let t0 = Instant::now();
        let logs: Result<Vec<ClientLog>, String> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "client thread panicked".to_string())?
                    .map_err(|e| format!("client I/O: {e}"))
            })
            .collect();
        let wall = t0.elapsed().as_secs_f64();
        let after = served.ledger.engine.commit_metrics();
        Ok((logs?, wall, before, after))
    })
}
