//! The paper's inventory world (§3.1) and the two in-memory workloads
//! over it: **point-commit** (Fig. 6: one `quantity` change per
//! transaction) and **bulk-commit** (Fig. 7: `quantity`,
//! `delivery_time` and `consume_freq` of every item per transaction).

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

use amos_db::{Amos, DbError, MonitorMode, Oid, Value};
use amos_storage::RelId;
use amos_types::Tuple;

use crate::layers::stored_rel;
use crate::rng::Rng;

/// Database size of both workloads: the paper's largest.
pub const N_ITEMS: usize = 10_000;

/// The §3.1 schema and `monitor_items` rule.
pub const SCHEMA: &str = r#"
    create type item;
    create type supplier;
    create function quantity(item i) -> integer;
    create function max_stock(item i) -> integer;
    create function min_stock(item i) -> integer;
    create function consume_freq(item i) -> integer;
    create function supplies(supplier s) -> item;
    create function delivery_time(item i, supplier s) -> integer;
    create function threshold(item i) -> integer
        as
        select consume_freq(i) * delivery_time(i, s) + min_stock(i)
        for each supplier s where supplies(s) = i;

    create rule monitor_items() as
        when for each item i
        where quantity(i) < threshold(i)
        do order(i, max_stock(i) - quantity(i));
"#;

/// Population constants: `threshold = CONSUME * DELIVERY + MIN_STOCK`.
pub const MAX_STOCK: i64 = 20_000;
/// `min_stock` of every item.
pub const MIN_STOCK: i64 = 100;
/// Initial `consume_freq`.
pub const CONSUME: i64 = 20;
/// Initial `delivery_time`.
pub const DELIVERY: i64 = 2;
/// Quantities drawn for items that stay stocked.
const STOCKED: (i64, i64) = (1_000, MAX_STOCK);

/// The lowest threshold any round can produce; a quantity below it is
/// below threshold in every round.
pub const LOW_THRESHOLD: i64 = CONSUME * DELIVERY + MIN_STOCK;

/// One `order(i, amount)` action invocation: (item index, amount).
pub type Firing = (usize, i64);

/// Relation ids and oids of a populated inventory database: what the
/// workloads need to update it through the storage API.
#[derive(Debug, Clone)]
pub struct Handles {
    /// Item oids, by index.
    pub items: Vec<Oid>,
    /// One supplier per item, by index.
    pub suppliers: Vec<Oid>,
    /// `quantity` relation.
    pub quantity_rel: RelId,
    /// `delivery_time` relation.
    pub delivery_rel: RelId,
    /// `consume_freq` relation.
    pub consume_rel: RelId,
}

impl Handles {
    /// Point update: `set quantity(item) = value`; returns the number
    /// of storage calls (1).
    pub fn set_quantity(&self, db: &mut Amos, item: usize, value: i64) -> Result<u64, DbError> {
        let key = [Value::Oid(self.items[item])];
        db.storage_mut()
            .set_functional(self.quantity_rel, &key, &[Value::Int(value)])?;
        Ok(1)
    }

    /// Bulk update of every item; returns the number of storage calls.
    pub fn apply_round(&self, db: &mut Amos, round: &BulkRound) -> Result<u64, DbError> {
        let s = db.storage_mut();
        for (idx, &q) in round.quantities.iter().enumerate() {
            let item = Value::Oid(self.items[idx]);
            let sup = Value::Oid(self.suppliers[idx]);
            let key = std::slice::from_ref(&item);
            s.set_functional(self.quantity_rel, key, &[Value::Int(q)])?;
            s.set_functional(
                self.delivery_rel,
                &[item.clone(), sup],
                &[Value::Int(round.delivery)],
            )?;
            s.set_functional(self.consume_rel, key, &[Value::Int(round.consume)])?;
        }
        Ok(3 * round.quantities.len() as u64)
    }
}

/// A populated inventory database with `monitor_items` active.
pub struct Inventory {
    /// The engine.
    pub db: Amos,
    /// Relation ids and oids.
    pub h: Handles,
    /// Every `order` invocation, in execution order (item oids).
    fired: Arc<Mutex<Vec<(Oid, i64)>>>,
    /// Item oid → index.
    index: HashMap<Oid, usize>,
}

impl Inventory {
    /// Build the world with the given initial quantities (one per item),
    /// populate it through the storage API, and activate the rule.
    pub fn build(quantities: &[i64], mode: MonitorMode) -> Result<Inventory, DbError> {
        let mut db = Amos::new();
        db.set_monitor_mode(mode);
        let fired = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&fired);
        db.register_procedure("order", move |_ctx, args| {
            match args {
                [Value::Oid(i), Value::Int(amount)] => sink.lock().unwrap().push((*i, *amount)),
                other => return Err(format!("order: unexpected arguments {other:?}")),
            }
            Ok(())
        });
        db.execute(SCHEMA)?;
        let item_extent = stored_rel(&db, "item_extent");
        let supplier_extent = stored_rel(&db, "supplier_extent");
        let quantity_rel = stored_rel(&db, "quantity");
        let max_rel = stored_rel(&db, "max_stock");
        let min_rel = stored_rel(&db, "min_stock");
        let consume_rel = stored_rel(&db, "consume_freq");
        let supplies_rel = stored_rel(&db, "supplies");
        let delivery_rel = stored_rel(&db, "delivery_time");
        let mut items = Vec::with_capacity(quantities.len());
        let mut suppliers = Vec::with_capacity(quantities.len());
        let s = db.storage_mut();
        for &q in quantities {
            let (item, sup) = (s.fresh_oid(), s.fresh_oid());
            items.push(item);
            suppliers.push(sup);
            let (iv, sv) = (Value::Oid(item), Value::Oid(sup));
            s.insert(item_extent, Tuple::new(vec![iv.clone()]))?;
            s.insert(supplier_extent, Tuple::new(vec![sv.clone()]))?;
            let key = std::slice::from_ref(&iv);
            s.set_functional(quantity_rel, key, &[Value::Int(q)])?;
            s.set_functional(max_rel, key, &[Value::Int(MAX_STOCK)])?;
            s.set_functional(min_rel, key, &[Value::Int(MIN_STOCK)])?;
            s.set_functional(consume_rel, key, &[Value::Int(CONSUME)])?;
            s.set_functional(supplies_rel, std::slice::from_ref(&sv), key)?;
            s.set_functional(delivery_rel, &[iv, sv], &[Value::Int(DELIVERY)])?;
        }
        db.execute("activate monitor_items();")?;
        let index = items.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        Ok(Inventory {
            db,
            h: Handles {
                items,
                suppliers,
                quantity_rel,
                delivery_rel,
                consume_rel,
            },
            fired,
            index,
        })
    }

    fn item_index(&self, v: &Value) -> usize {
        match v {
            Value::Oid(o) => self.index.get(o).copied().unwrap_or(usize::MAX),
            _ => usize::MAX,
        }
    }

    /// The `order` invocations from the `from`-th on, as (item index,
    /// amount).
    pub fn firings_since(&self, from: usize) -> Vec<Firing> {
        self.fired.lock().unwrap()[from..]
            .iter()
            .map(|(o, a)| (self.item_index(&Value::Oid(*o)), *a))
            .collect()
    }

    /// Every `order` invocation so far.
    pub fn firings(&self) -> Vec<Firing> {
        self.firings_since(0)
    }

    /// Number of `order` invocations so far.
    pub fn firing_count(&self) -> usize {
        self.fired.lock().unwrap().len()
    }

    /// Indexes of the items whose quantity is below threshold, by query.
    pub fn below_threshold(&mut self) -> Result<BTreeSet<usize>, DbError> {
        let rows = self
            .db
            .query("select i for each item i where quantity(i) < threshold(i);")?;
        Ok(rows.iter().map(|t| self.item_index(&t[0])).collect())
    }

    /// The AMOSQL text of one point transaction (for parse timing).
    pub fn point_script(item: usize, value: i64) -> String {
        format!("begin; set quantity(:i{item}) = {value}; commit;")
    }
}

// ----------------------------------------------------------------------
// point-commit
// ----------------------------------------------------------------------

/// One point transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointUpdate {
    /// Item index.
    pub item: usize,
    /// New quantity (always a net change).
    pub value: i64,
    /// The `order` firing this update must cause, if any.
    pub fires: Option<Firing>,
}

/// The seeded point-commit stream. About 1 update in 100 drops an item
/// below threshold (firing `order` once); the next update restores it.
#[derive(Debug, Clone)]
pub struct PointStream {
    rng: Rng,
    quantities: Vec<i64>,
    restore: Option<usize>,
}

impl PointStream {
    /// A stream over `n` items; also returns the initial quantities.
    pub fn new(seed: u64, n: usize) -> (PointStream, Vec<i64>) {
        let mut init = Rng::new(seed, 0);
        let quantities: Vec<i64> = (0..n).map(|_| init.range(STOCKED.0, STOCKED.1)).collect();
        let stream = PointStream {
            rng: Rng::new(seed, 1),
            quantities: quantities.clone(),
            restore: None,
        };
        (stream, quantities)
    }

    /// The next transaction.
    pub fn next_update(&mut self) -> PointUpdate {
        let r = &mut self.rng;
        let n = self.quantities.len() as u64;
        let (item, value, fires) = if let Some(item) = self.restore.take() {
            (item, r.range(STOCKED.0, STOCKED.1), None)
        } else if r.percent(1) {
            let item = r.below(n) as usize;
            let value = r.range(0, LOW_THRESHOLD);
            self.restore = Some(item);
            (item, value, Some((item, MAX_STOCK - value)))
        } else {
            let item = r.below(n) as usize;
            let mut value = r.range(STOCKED.0, STOCKED.1);
            if value == self.quantities[item] {
                value += 1;
            }
            (item, value, None)
        };
        self.quantities[item] = value;
        PointUpdate { item, value, fires }
    }
}

/// Run one untimed point transaction through `Amos::commit`.
pub fn point_txn(world: &mut Inventory, u: PointUpdate) -> Result<(), DbError> {
    world.db.begin()?;
    world.h.set_quantity(&mut world.db, u.item, u.value)?;
    world.db.commit()?;
    Ok(())
}

// ----------------------------------------------------------------------
// bulk-commit
// ----------------------------------------------------------------------

/// One bulk transaction: new values for every item.
#[derive(Debug, Clone)]
pub struct BulkRound {
    /// New quantity per item (each a net change).
    pub quantities: Vec<i64>,
    /// `delivery_time` of every item this round.
    pub delivery: i64,
    /// `consume_freq` of every item this round.
    pub consume: i64,
    /// Firings this round must cause (items newly below threshold),
    /// sorted by item.
    pub fires: Vec<Firing>,
}

/// The seeded bulk-commit stream. `delivery_time` and `consume_freq`
/// alternate between two values every round (so every update is a net
/// change); about 1 quantity in 100 is drawn below threshold.
#[derive(Debug, Clone)]
pub struct BulkStream {
    rng: Rng,
    round: u64,
    quantities: Vec<i64>,
    below: Vec<bool>,
}

impl BulkStream {
    /// A stream over `n` items; also returns the initial quantities.
    pub fn new(seed: u64, n: usize) -> (BulkStream, Vec<i64>) {
        let mut init = Rng::new(seed, 0);
        let quantities: Vec<i64> = (0..n).map(|_| init.range(STOCKED.0, STOCKED.1)).collect();
        let stream = BulkStream {
            rng: Rng::new(seed, 2),
            round: 0,
            below: vec![false; n],
            quantities: quantities.clone(),
        };
        (stream, quantities)
    }

    /// The next round.
    pub fn next_round(&mut self) -> BulkRound {
        // Round 0 moves away from the population's (DELIVERY, CONSUME).
        let odd = self.round % 2 == 1;
        let delivery = if odd { DELIVERY } else { DELIVERY + 1 };
        let consume = if odd { CONSUME } else { CONSUME + 1 };
        let threshold = consume * delivery + MIN_STOCK;
        self.round += 1;
        let mut fires = Vec::new();
        for i in 0..self.quantities.len() {
            let low = self.rng.percent(1);
            let mut q = if low {
                self.rng.range(0, LOW_THRESHOLD)
            } else {
                self.rng.range(STOCKED.0, STOCKED.1)
            };
            if q == self.quantities[i] {
                q = if low { (q + 1) % LOW_THRESHOLD } else { q + 1 };
            }
            self.quantities[i] = q;
            let below = q < threshold;
            if below && !self.below[i] {
                fires.push((i, MAX_STOCK - q));
            }
            self.below[i] = below;
        }
        BulkRound {
            quantities: self.quantities.clone(),
            delivery,
            consume,
            fires,
        }
    }

    /// Items below threshold after the rounds drawn so far.
    pub fn below_threshold(&self) -> BTreeSet<usize> {
        (0..self.below.len()).filter(|&i| self.below[i]).collect()
    }

    /// The AMOSQL text of one bulk transaction (for parse timing).
    pub fn script(round: &BulkRound) -> String {
        let mut s = String::with_capacity(round.quantities.len() * 110);
        s.push_str("begin;\n");
        for (i, q) in round.quantities.iter().enumerate() {
            use std::fmt::Write as _;
            let _ = writeln!(
                s,
                "set quantity(:i{i}) = {q}; set delivery_time(:i{i}, :s{i}) = {}; set consume_freq(:i{i}) = {};",
                round.delivery, round.consume
            );
        }
        s.push_str("commit;\n");
        s
    }
}

/// Run one untimed bulk transaction through `Amos::commit`.
pub fn bulk_txn(world: &mut Inventory, round: &BulkRound) -> Result<(), DbError> {
    world.db.begin()?;
    world.h.apply_round(&mut world.db, round)?;
    world.db.commit()?;
    Ok(())
}
