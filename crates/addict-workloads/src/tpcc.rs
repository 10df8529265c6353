//! TPC-C: the order-entry benchmark, five transaction types at the
//! standard mix (NewOrder 45%, Payment 43%, OrderStatus 4%, Delivery 4%,
//! StockLevel 4% — the 45/43 split is the "88% of the mix" the paper
//! attributes to NewOrder + Payment).
//!
//! Faithful structure, scaled-down sizes:
//!
//! * nine tables; History has **no index** (why Payment's insert stream
//!   lacks `create index entry`, Section 2.2.1), Order has a secondary
//!   index by customer;
//! * NewOrder inserts into indexed tables (Order, NewOrder, OrderLine) —
//!   the `create index entry` + `structural modification` paths;
//! * Delivery consumes NewOrder rows with real `delete tuple` operations.
//!
//! Simplification: Delivery reads order lines
//! and credits the customer but does not rewrite each order line's
//! delivery date; the per-line updates would quintuple the transaction
//! with no new code paths.

use std::collections::HashMap;

use addict_storage::{Engine, EngineConfig, IndexId, StorageResult, TableId};
use addict_trace::XctTypeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::rows::{encode_row, get_field, get_field_i64, set_field, set_field_i64};
use crate::table::Table;
use crate::{pick_mix, WorkloadRunner};

/// Transaction type ids, in mix order.
pub const NEW_ORDER: XctTypeId = XctTypeId(0);
/// Payment.
pub const PAYMENT: XctTypeId = XctTypeId(1);
/// OrderStatus.
pub const ORDER_STATUS: XctTypeId = XctTypeId(2);
/// Delivery.
pub const DELIVERY: XctTypeId = XctTypeId(3);
/// StockLevel.
pub const STOCK_LEVEL: XctTypeId = XctTypeId(4);

/// TPC-C scale configuration.
#[derive(Debug, Clone)]
pub struct TpcCConfig {
    /// Warehouses (the TPC-C scale factor).
    pub warehouses: u64,
    /// Districts per warehouse (spec: 10).
    pub districts: u64,
    /// Customers per district (spec: 3000; scaled down).
    pub customers: u64,
    /// Item catalog size (spec: 100 000; scaled down).
    pub items: u64,
    /// Orders pre-loaded per district.
    pub initial_orders: u64,
}

impl Default for TpcCConfig {
    fn default() -> Self {
        TpcCConfig {
            warehouses: 4,
            districts: 10,
            customers: 600,
            items: 2_000,
            initial_orders: 120,
        }
    }
}

impl TpcCConfig {
    /// Tiny scale for unit tests.
    pub fn small() -> Self {
        TpcCConfig {
            warehouses: 1,
            districts: 2,
            customers: 30,
            items: 50,
            initial_orders: 10,
        }
    }
}

// --- key packing -------------------------------------------------------

/// District key: warehouse in the high bits.
fn k_district(w: u64, d: u64) -> u64 {
    (w << 8) | d
}

/// Customer key.
fn k_customer(w: u64, d: u64, c: u64) -> u64 {
    (w << 28) | (d << 20) | c
}

/// Stock key.
fn k_stock(w: u64, i: u64) -> u64 {
    (w << 24) | i
}

/// Order / NewOrder key.
fn k_order(w: u64, d: u64, o: u64) -> u64 {
    debug_assert!(o < 1 << 32);
    (w << 44) | (d << 36) | o
}

/// Order-by-customer secondary key.
fn k_order_by_customer(w: u64, d: u64, c: u64, o: u64) -> u64 {
    debug_assert!(c < 1 << 20 && o < 1 << 20);
    (w << 48) | (d << 40) | (c << 20) | o
}

/// OrderLine key.
fn k_orderline(w: u64, d: u64, o: u64, ol: u64) -> u64 {
    debug_assert!(o < 1 << 28 && ol < 1 << 8);
    (w << 44) | (d << 36) | (o << 8) | ol
}

// --- row layouts (field indexes) ---------------------------------------

const W_ROW: usize = 100;
const W_YTD: usize = 1;
const D_ROW: usize = 100;
const D_YTD: usize = 1;
const D_NEXT_O: usize = 2;
const C_ROW: usize = 250;
const C_BALANCE: usize = 1;
const C_YTD: usize = 2;
const C_PAYMENTS: usize = 3;
const H_ROW: usize = 50;
const O_ROW: usize = 60;
const O_CARRIER: usize = 3;
const O_OL_CNT: usize = 2;
const NO_ROW: usize = 16;
const OL_ROW: usize = 70;
const OL_ITEM: usize = 2;
const OL_AMOUNT: usize = 4;
const I_ROW: usize = 100;
const S_ROW: usize = 120;
const S_QTY: usize = 1;

/// Table/index handles plus run state.
#[derive(Debug)]
pub struct TpcC {
    cfg: TpcCConfig,
    warehouse: Table,
    district: Table,
    customer: Table,
    history: TableId,
    order: Table,
    order_by_cust: IndexId,
    new_order: Table,
    order_line: Table,
    item: Table,
    stock: Table,
    /// Oldest possibly-undelivered order per (warehouse, district).
    delivery_cursor: HashMap<(u64, u64), u64>,
    mix: [(u32, XctTypeId); 5],
}

impl TpcC {
    /// Create the schema and populate (untraced).
    pub fn setup(cfg: TpcCConfig) -> (Engine, TpcC) {
        let mut e = Engine::new(EngineConfig::default());
        let warehouse = Table::create(&mut e, "warehouse");
        let district = Table::create(&mut e, "district");
        let customer = Table::create(&mut e, "customer");
        let history = e.create_table("history"); // no index (spec)
        let order = Table::create(&mut e, "order");
        let order_by_cust = e
            .create_index(order.id, "order_by_customer")
            .expect("exists");
        let new_order = Table::create(&mut e, "new_order");
        let order_line = Table::create(&mut e, "order_line");
        let item = Table::create(&mut e, "item");
        let stock = Table::create(&mut e, "stock");

        let mut w = TpcC {
            cfg,
            warehouse,
            district,
            customer,
            history,
            order,
            order_by_cust,
            new_order,
            order_line,
            item,
            stock,
            delivery_cursor: HashMap::new(),
            mix: [
                (45, NEW_ORDER),
                (88, PAYMENT),
                (92, ORDER_STATUS),
                (96, DELIVERY),
                (100, STOCK_LEVEL),
            ],
        };
        w.populate(&mut e);
        (e, w)
    }

    fn populate(&mut self, e: &mut Engine) {
        e.set_tracing(false);
        let mut rng: StdRng = rand::SeedableRng::seed_from_u64(0xC0FFEE);
        let x = e.begin(NEW_ORDER);
        for i in 0..self.cfg.items {
            self.item
                .populate(e, x, i, &encode_row(I_ROW, &[i, 100 + i % 900]));
        }
        for w in 0..self.cfg.warehouses {
            self.warehouse
                .populate(e, x, w, &encode_row(W_ROW, &[w, 0]));
            for i in 0..self.cfg.items {
                self.stock.populate(
                    e,
                    x,
                    k_stock(w, i),
                    &encode_row(S_ROW, &[i, 50 + (i * 7) % 50, 0]),
                );
            }
            for d in 0..self.cfg.districts {
                let next_o = self.cfg.initial_orders + 1;
                self.district
                    .populate(e, x, k_district(w, d), &encode_row(D_ROW, &[d, 0, next_o]));
                for c in 0..self.cfg.customers {
                    self.customer.populate(
                        e,
                        x,
                        k_customer(w, d, c),
                        &encode_row(C_ROW, &[c, 0, 0, 0]),
                    );
                }
                // Pre-loaded orders; the newest third remain "new".
                for o in 1..=self.cfg.initial_orders {
                    let c = rng.gen_range(0..self.cfg.customers);
                    let ol_cnt = rng.gen_range(5..=15u64);
                    e.insert_tuple(
                        x,
                        self.order.id,
                        &[
                            (self.order.pk, k_order(w, d, o)),
                            (self.order_by_cust, k_order_by_customer(w, d, c, o)),
                        ],
                        &encode_row(O_ROW, &[o, c, ol_cnt, 0]),
                    )
                    .expect("populate order");
                    for ol in 0..ol_cnt {
                        let i = rng.gen_range(0..self.cfg.items);
                        self.order_line.populate(
                            e,
                            x,
                            k_orderline(w, d, o, ol),
                            &encode_row(OL_ROW, &[o, ol, i, rng.gen_range(1..=10), 500]),
                        );
                    }
                    if o > self.cfg.initial_orders * 2 / 3 {
                        self.new_order
                            .populate(e, x, k_order(w, d, o), &encode_row(NO_ROW, &[o]));
                    }
                }
                self.delivery_cursor
                    .insert((w, d), self.cfg.initial_orders * 2 / 3 + 1);
            }
        }
        e.commit(x).expect("populate commit");
        e.set_tracing(true);
    }

    /// The NewOrder transaction.
    pub fn new_order(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let d = rng.gen_range(0..self.cfg.districts);
        let c = rng.gen_range(0..self.cfg.customers);
        let ol_cnt = rng.gen_range(5..=15u64);

        let x = e.begin(NEW_ORDER);
        e.index_probe(x, self.warehouse.pk, w)?
            .expect("warehouse exists");

        // District: read and bump next_o_id.
        let d_key = k_district(w, d);
        let d_rid = e
            .index_probe_rid(x, self.district.pk, d_key)?
            .expect("district exists");
        let mut d_row = e.peek(self.district.id, d_rid)?;
        let o = get_field(&d_row, D_NEXT_O);
        set_field(&mut d_row, D_NEXT_O, o + 1);
        e.update_tuple(x, self.district.id, d_rid, &d_row)?;

        e.index_probe(x, self.customer.pk, k_customer(w, d, c))?
            .expect("customer exists");

        e.insert_tuple(
            x,
            self.order.id,
            &[
                (self.order.pk, k_order(w, d, o)),
                (self.order_by_cust, k_order_by_customer(w, d, c, o)),
            ],
            &encode_row(O_ROW, &[o, c, ol_cnt, 0]),
        )?;
        e.insert_tuple(
            x,
            self.new_order.id,
            &[(self.new_order.pk, k_order(w, d, o))],
            &encode_row(NO_ROW, &[o]),
        )?;

        for ol in 0..ol_cnt {
            let i = rng.gen_range(0..self.cfg.items);
            let qty = rng.gen_range(1..=10i64);
            e.index_probe(x, self.item.pk, i)?.expect("item exists");
            let stock = self.stock.add_to_field(e, x, k_stock(w, i), S_QTY, -qty)?;
            assert!(stock, "populated stock {i} missing");
            e.insert_tuple(
                x,
                self.order_line.id,
                &[(self.order_line.pk, k_orderline(w, d, o, ol))],
                &encode_row(OL_ROW, &[o, ol, i, qty as u64, 500]),
            )?;
        }
        e.commit(x)
    }

    /// The Payment transaction.
    pub fn payment(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let d = rng.gen_range(0..self.cfg.districts);
        let c = rng.gen_range(0..self.cfg.customers);
        let amount = rng.gen_range(100..=500_000i64);

        let x = e.begin(PAYMENT);
        let warehouse = self.warehouse.add_to_field(e, x, w, W_YTD, amount)?;
        assert!(warehouse, "populated warehouse {w} missing");
        let district = self
            .district
            .add_to_field(e, x, k_district(w, d), D_YTD, amount)?;
        assert!(district, "populated district {w}/{d} missing");
        let c_key = k_customer(w, d, c);
        let c_rid = e
            .index_probe_rid(x, self.customer.pk, c_key)?
            .expect("customer exists");
        let mut c_row = e.peek(self.customer.id, c_rid)?;
        let new_val = get_field_i64(&c_row, C_BALANCE) - amount;
        set_field_i64(&mut c_row, C_BALANCE, new_val);
        let new_val = get_field_i64(&c_row, C_YTD) + amount;
        set_field_i64(&mut c_row, C_YTD, new_val);
        let new_val = get_field(&c_row, C_PAYMENTS) + 1;
        set_field(&mut c_row, C_PAYMENTS, new_val);
        e.update_tuple(x, self.customer.id, c_rid, &c_row)?;
        // History has no index: the paper's index-less insert.
        e.insert_tuple(
            x,
            self.history,
            &[],
            &encode_row(H_ROW, &[w, d, c, amount as u64]),
        )?;
        e.commit(x)
    }

    /// The OrderStatus transaction (read-only).
    pub fn order_status(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let d = rng.gen_range(0..self.cfg.districts);
        let c = rng.gen_range(0..self.cfg.customers);

        let x = e.begin(ORDER_STATUS);
        e.index_probe(x, self.customer.pk, k_customer(w, d, c))?
            .expect("customer exists");
        // Most recent order of this customer.
        let lo = k_order_by_customer(w, d, c, 0);
        let hi = k_order_by_customer(w, d, c, (1 << 20) - 1);
        let orders = e.index_scan(x, self.order_by_cust, lo, true, hi, true)?;
        if let Some((_, o_row)) = orders.last() {
            let o = get_field(o_row, 0);
            let ol_cnt = get_field(o_row, O_OL_CNT);
            let lo = k_orderline(w, d, o, 0);
            let hi = k_orderline(w, d, o, ol_cnt.max(1) - 1);
            e.index_scan(x, self.order_line.pk, lo, true, hi, true)?;
        }
        e.commit(x)
    }

    /// The Delivery transaction: per district, deliver the oldest new
    /// order (a real `delete tuple` on NewOrder).
    pub fn delivery(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let x = e.begin(DELIVERY);
        for d in 0..self.cfg.districts {
            let cursor = *self.delivery_cursor.get(&(w, d)).expect("cursor populated");
            // Find the oldest undelivered order in a bounded window.
            let lo = k_order(w, d, cursor);
            let hi = k_order(w, d, cursor + 32);
            let pending = e.index_scan(x, self.new_order.pk, lo, true, hi, true)?;
            let Some((no_key, _)) = pending.first() else {
                continue;
            };
            let no_key = *no_key;
            let o = no_key & 0xF_FFFF_FFFF; // low 36 bits: the order number
                                            // Consume the NewOrder row.
            e.delete_tuple(x, self.new_order.id, &[(self.new_order.pk, no_key)])?;
            self.delivery_cursor.insert((w, d), o + 1);
            // Mark the order delivered.
            let o_rid = e
                .index_probe_rid(x, self.order.pk, k_order(w, d, o))?
                .expect("order exists");
            let mut o_row = e.peek(self.order.id, o_rid)?;
            set_field(&mut o_row, O_CARRIER, rng.gen_range(1..=10));
            e.update_tuple(x, self.order.id, o_rid, &o_row)?;
            // Total the order lines and credit the customer.
            let ol_cnt = get_field(&o_row, O_OL_CNT);
            let lines = e.index_scan(
                x,
                self.order_line.pk,
                k_orderline(w, d, o, 0),
                true,
                k_orderline(w, d, o, ol_cnt.max(1) - 1),
                true,
            )?;
            let total: i64 = lines.iter().map(|(_, r)| get_field_i64(r, OL_AMOUNT)).sum();
            let c = get_field(&o_row, 1);
            let customer =
                self.customer
                    .add_to_field(e, x, k_customer(w, d, c), C_BALANCE, total)?;
            assert!(customer, "populated customer {w}/{d}/{c} missing");
        }
        e.commit(x)
    }

    /// The StockLevel transaction (read-only).
    pub fn stock_level(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let w = rng.gen_range(0..self.cfg.warehouses);
        let d = rng.gen_range(0..self.cfg.districts);
        let threshold = rng.gen_range(10..=20i64);

        let x = e.begin(STOCK_LEVEL);
        let d_rid = e
            .index_probe_rid(x, self.district.pk, k_district(w, d))?
            .expect("district exists");
        let next_o = get_field(&e.peek(self.district.id, d_rid)?, D_NEXT_O);
        let first = next_o.saturating_sub(10).max(1);
        let lines = e.index_scan(
            x,
            self.order_line.pk,
            k_orderline(w, d, first, 0),
            true,
            k_orderline(w, d, next_o.max(1) - 1, 255),
            true,
        )?;
        // Distinct items, bounded.
        let mut items: Vec<u64> = lines.iter().map(|(_, r)| get_field(r, OL_ITEM)).collect();
        items.sort_unstable();
        items.dedup();
        let mut low_stock = 0;
        for &i in items.iter().take(20) {
            if let Some(s_row) = e.index_probe(x, self.stock.pk, k_stock(w, i))? {
                if get_field_i64(&s_row, S_QTY) < threshold {
                    low_stock += 1;
                }
            }
        }
        let _ = low_stock;
        e.commit(x)
    }

    /// The configured scale.
    pub fn config(&self) -> &TpcCConfig {
        &self.cfg
    }
}

impl WorkloadRunner for TpcC {
    fn name(&self) -> &'static str {
        "TPC-C"
    }

    fn xct_type_names(&self) -> Vec<String> {
        [
            "NewOrder",
            "Payment",
            "OrderStatus",
            "Delivery",
            "StockLevel",
        ]
        .map(str::to_owned)
        .to_vec()
    }

    fn run_one(&mut self, engine: &mut Engine, rng: &mut StdRng) -> StorageResult<XctTypeId> {
        let ty = pick_mix(rng, &self.mix);
        match ty {
            NEW_ORDER => self.new_order(engine, rng)?,
            PAYMENT => self.payment(engine, rng)?,
            ORDER_STATUS => self.order_status(engine, rng)?,
            DELIVERY => self.delivery(engine, rng)?,
            _ => self.stock_level(engine, rng)?,
        }
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_trace::OpKind;
    use rand::SeedableRng;

    fn small() -> (Engine, TpcC) {
        TpcC::setup(TpcCConfig::small())
    }

    #[test]
    fn populate_counts() {
        let (e, w) = small();
        let c = e.catalog();
        let cfg = w.config();
        assert_eq!(
            c.table(w.warehouse.id).unwrap().heap.n_records() as u64,
            cfg.warehouses
        );
        assert_eq!(
            c.table(w.district.id).unwrap().heap.n_records() as u64,
            cfg.warehouses * cfg.districts
        );
        assert_eq!(
            c.table(w.customer.id).unwrap().heap.n_records() as u64,
            cfg.warehouses * cfg.districts * cfg.customers
        );
        assert_eq!(
            c.table(w.item.id).unwrap().heap.n_records() as u64,
            cfg.items
        );
        assert_eq!(
            c.table(w.stock.id).unwrap().heap.n_records() as u64,
            cfg.warehouses * cfg.items
        );
        assert_eq!(
            c.table(w.order.id).unwrap().heap.n_records() as u64,
            cfg.warehouses * cfg.districts * cfg.initial_orders
        );
        // A third of the orders are new.
        let new_orders = c.table(w.new_order.id).unwrap().heap.n_records() as u64;
        assert!(new_orders > 0);
        assert!(new_orders < cfg.warehouses * cfg.districts * cfg.initial_orders / 2);
    }

    #[test]
    fn new_order_creates_rows_and_ops() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(1);
        let orders_before = e.catalog().table(w.order.id).unwrap().heap.n_records();
        w.new_order(&mut e, &mut rng).unwrap();
        let orders_after = e.catalog().table(w.order.id).unwrap().heap.n_records();
        assert_eq!(orders_after, orders_before + 1);
        let traces = e.take_traces();
        let ops = traces[0].op_slices();
        let probes = ops.iter().filter(|(k, _)| *k == OpKind::Probe).count();
        let updates = ops.iter().filter(|(k, _)| *k == OpKind::Update).count();
        let inserts = ops.iter().filter(|(k, _)| *k == OpKind::Insert).count();
        // warehouse + district + customer + per-line item & stock probes.
        assert!(probes >= 3 + 2 * 5, "probes = {probes}");
        assert!((1 + 5..=1 + 15).contains(&updates), "updates = {updates}");
        assert!((2 + 5..=2 + 15).contains(&inserts), "inserts = {inserts}");
    }

    #[test]
    fn payment_is_insert_into_indexless_history() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(2);
        let hist_before = e.catalog().table(w.history).unwrap().heap.n_records();
        w.payment(&mut e, &mut rng).unwrap();
        assert_eq!(
            e.catalog().table(w.history).unwrap().heap.n_records(),
            hist_before + 1
        );
        let traces = e.take_traces();
        let ops = traces[0].op_slices();
        assert_eq!(ops.iter().filter(|(k, _)| *k == OpKind::Insert).count(), 1);
        assert_eq!(ops.iter().filter(|(k, _)| *k == OpKind::Update).count(), 3);
    }

    #[test]
    fn delivery_deletes_new_orders() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(3);
        let no_before = e.catalog().table(w.new_order.id).unwrap().heap.n_records();
        w.delivery(&mut e, &mut rng).unwrap();
        let no_after = e.catalog().table(w.new_order.id).unwrap().heap.n_records();
        assert!(no_after < no_before, "delivery must consume new orders");
        let traces = e.take_traces();
        let deletes = traces[0]
            .op_slices()
            .iter()
            .filter(|(k, _)| *k == OpKind::Delete)
            .count();
        assert_eq!(deletes, no_before - no_after);
    }

    #[test]
    fn order_status_and_stock_level_are_read_only() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(4);
        w.order_status(&mut e, &mut rng).unwrap();
        w.stock_level(&mut e, &mut rng).unwrap();
        let traces = e.take_traces();
        for t in &traces {
            for (op, _) in t.op_slices() {
                assert!(
                    matches!(op, OpKind::Probe | OpKind::Scan),
                    "read-only transaction ran {op:?}"
                );
            }
        }
        // Both exercised the scan operation.
        assert!(traces
            .iter()
            .any(|t| t.op_slices().iter().any(|(k, _)| *k == OpKind::Scan)));
    }

    #[test]
    fn mix_run_is_stable_and_complete() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 5];
        for _ in 0..60 {
            let ty = w.run_one(&mut e, &mut rng).unwrap();
            counts[ty.0 as usize] += 1;
        }
        let traces = e.take_traces();
        assert_eq!(traces.len(), 60);
        // NewOrder and Payment dominate.
        assert!(counts[0] + counts[1] > 40, "{counts:?}");
    }

    #[test]
    fn district_next_o_id_monotone() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(6);
        let key = k_district(0, 0);
        let rid = e.peek_index(w.district.pk, key).unwrap().unwrap();
        let before = get_field(&e.peek(w.district.id, rid).unwrap(), D_NEXT_O);
        for _ in 0..30 {
            w.new_order(&mut e, &mut rng).unwrap();
        }
        let after = get_field(&e.peek(w.district.id, rid).unwrap(), D_NEXT_O);
        assert!(after >= before);
        assert!(after <= before + 30);
    }
}
