//! TPC-E: the brokerage benchmark, simplified to a ten-type mix over nine
//! tables.
//!
//! The paper's relevant properties are preserved (Section 2.2.1):
//!
//! * ten transaction types at the spec's mix percentages — twice TPC-C's
//!   type count, which is why whole-mix instruction overlap is lower for
//!   TPC-E than for the other benchmarks;
//! * ~77% of the mix is read-only;
//! * `TradeStatus` is the most frequent type at 19% of the mix.
//!
//! Each transaction is reduced to its probe/scan/update/insert skeleton on
//! our engine; business logic that adds no new storage-manager code paths
//! (pricing math, date arithmetic) is elided.

use std::collections::VecDeque;

use addict_storage::{Engine, EngineConfig, IndexId, StorageResult, XctId};
use addict_trace::XctTypeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::rows::{encode_row, get_field, get_field_i64, set_field, set_field_i64};
use crate::table::Table;
use crate::{pick_mix, WorkloadRunner};

/// BrokerVolume (read-only).
pub const BROKER_VOLUME: XctTypeId = XctTypeId(0);
/// CustomerPosition (read-only).
pub const CUSTOMER_POSITION: XctTypeId = XctTypeId(1);
/// MarketFeed (read-write).
pub const MARKET_FEED: XctTypeId = XctTypeId(2);
/// MarketWatch (read-only).
pub const MARKET_WATCH: XctTypeId = XctTypeId(3);
/// SecurityDetail (read-only).
pub const SECURITY_DETAIL: XctTypeId = XctTypeId(4);
/// TradeLookup (read-only).
pub const TRADE_LOOKUP: XctTypeId = XctTypeId(5);
/// TradeOrder (read-write).
pub const TRADE_ORDER: XctTypeId = XctTypeId(6);
/// TradeResult (read-write).
pub const TRADE_RESULT: XctTypeId = XctTypeId(7);
/// TradeStatus (read-only, most frequent: 19%).
pub const TRADE_STATUS: XctTypeId = XctTypeId(8);
/// TradeUpdate (read-write).
pub const TRADE_UPDATE: XctTypeId = XctTypeId(9);

/// TPC-E scale configuration.
#[derive(Debug, Clone)]
pub struct TpcEConfig {
    /// Customers.
    pub customers: u64,
    /// Accounts per customer.
    pub accounts_per_customer: u64,
    /// Brokers.
    pub brokers: u64,
    /// Companies.
    pub companies: u64,
    /// Securities.
    pub securities: u64,
    /// Watch-list entries per customer.
    pub watch_per_customer: u64,
    /// Holdings per account.
    pub holdings_per_account: u64,
    /// Initial trades per account.
    pub trades_per_account: u64,
}

impl Default for TpcEConfig {
    fn default() -> Self {
        TpcEConfig {
            customers: 3_000,
            accounts_per_customer: 2,
            brokers: 50,
            companies: 300,
            securities: 1_000,
            watch_per_customer: 8,
            holdings_per_account: 4,
            trades_per_account: 8,
        }
    }
}

impl TpcEConfig {
    /// Tiny scale for unit tests.
    pub fn small() -> Self {
        TpcEConfig {
            customers: 40,
            accounts_per_customer: 2,
            brokers: 5,
            companies: 10,
            securities: 20,
            watch_per_customer: 4,
            holdings_per_account: 3,
            trades_per_account: 4,
        }
    }
}

// --- key packing -------------------------------------------------------

fn k_account_by_customer(c: u64, a: u64) -> u64 {
    (c << 20) | a
}

fn k_trade_by_account(a: u64, t: u64) -> u64 {
    debug_assert!(t < 1 << 28);
    (a << 28) | t
}

fn k_trade_history(t: u64, seq: u64) -> u64 {
    (t << 4) | seq
}

fn k_holding(a: u64, s: u64) -> u64 {
    (a << 16) | s
}

fn k_watch(c: u64, seq: u64) -> u64 {
    (c << 8) | seq
}

// --- row layouts -------------------------------------------------------

const CUST_ROW: usize = 200;
const ACCT_ROW: usize = 100;
const ACCT_BALANCE: usize = 3;
const BROKER_ROW: usize = 100;
const BROKER_TRADES: usize = 1;
const BROKER_COMMISSION: usize = 2;
const SEC_ROW: usize = 150;
const SEC_COMPANY: usize = 1;
const COMPANY_ROW: usize = 200;
const LT_ROW: usize = 50;
const LT_PRICE: usize = 1;
const LT_VOLUME: usize = 2;
const TRADE_ROW: usize = 120;
const TRADE_ACCT: usize = 1;
const TRADE_SEC: usize = 2;
const TRADE_STATUS_F: usize = 5;
const TH_ROW: usize = 50;
const HOLD_ROW: usize = 60;
const HOLD_QTY: usize = 2;
const WATCH_ROW: usize = 30;
const WATCH_SEC: usize = 2;

/// Table/index handles plus run state.
#[derive(Debug)]
pub struct TpcE {
    cfg: TpcEConfig,
    customer: Table,
    account: Table,
    account_by_cust: IndexId,
    broker: Table,
    security: Table,
    company: Table,
    last_trade: Table,
    trade: Table,
    trade_by_acct: IndexId,
    trade_history: Table,
    holding: Table,
    watch_list: Table,
    next_trade: u64,
    /// Trades submitted by TradeOrder awaiting TradeResult: `(t, a, s)`.
    pending: VecDeque<(u64, u64, u64)>,
    mix: [(u32, XctTypeId); 10],
}

impl TpcE {
    /// Create the schema and populate (untraced).
    pub fn setup(cfg: TpcEConfig) -> (Engine, TpcE) {
        let mut e = Engine::new(EngineConfig::default());
        let customer = Table::create(&mut e, "customer");
        let account = Table::create(&mut e, "account");
        let account_by_cust = e
            .create_index(account.id, "account_by_customer")
            .expect("exists");
        let broker = Table::create(&mut e, "broker");
        let security = Table::create(&mut e, "security");
        let company = Table::create(&mut e, "company");
        let last_trade = Table::create(&mut e, "last_trade");
        let trade = Table::create(&mut e, "trade");
        let trade_by_acct = e
            .create_index(trade.id, "trade_by_account")
            .expect("exists");
        let trade_history = Table::create(&mut e, "trade_history");
        let holding = Table::create(&mut e, "holding");
        let watch_list = Table::create(&mut e, "watch_list");

        let mut w = TpcE {
            cfg,
            customer,
            account,
            account_by_cust,
            broker,
            security,
            company,
            last_trade,
            trade,
            trade_by_acct,
            trade_history,
            holding,
            watch_list,
            next_trade: 1,
            pending: VecDeque::new(),
            mix: [
                (5, BROKER_VOLUME),      // 4.9%
                (18, CUSTOMER_POSITION), // 13%
                (19, MARKET_FEED),       // 1%
                (37, MARKET_WATCH),      // 18%
                (51, SECURITY_DETAIL),   // 14%
                (59, TRADE_LOOKUP),      // 8%
                (69, TRADE_ORDER),       // 10.1%
                (79, TRADE_RESULT),      // 10%
                (98, TRADE_STATUS),      // 19%
                (100, TRADE_UPDATE),     // 2%
            ],
        };
        w.populate(&mut e);
        (e, w)
    }

    fn n_accounts(&self) -> u64 {
        self.cfg.customers * self.cfg.accounts_per_customer
    }

    fn populate(&mut self, e: &mut Engine) {
        e.set_tracing(false);
        let mut rng: StdRng = rand::SeedableRng::seed_from_u64(0xE);
        let x = e.begin(TRADE_STATUS);
        for co in 0..self.cfg.companies {
            self.company
                .populate(e, x, co, &encode_row(COMPANY_ROW, &[co]));
        }
        for s in 0..self.cfg.securities {
            let co = s % self.cfg.companies;
            self.security
                .populate(e, x, s, &encode_row(SEC_ROW, &[s, co]));
            self.last_trade
                .populate(e, x, s, &encode_row(LT_ROW, &[s, 1_000 + s % 500, 0]));
        }
        for b in 0..self.cfg.brokers {
            self.broker
                .populate(e, x, b, &encode_row(BROKER_ROW, &[b, 0, 0]));
        }
        for c in 0..self.cfg.customers {
            self.customer
                .populate(e, x, c, &encode_row(CUST_ROW, &[c, c % 3]));
            for seq in 0..self.cfg.watch_per_customer {
                let s = rng.gen_range(0..self.cfg.securities);
                self.watch_list.populate(
                    e,
                    x,
                    k_watch(c, seq),
                    &encode_row(WATCH_ROW, &[c, seq, s]),
                );
            }
            for a_local in 0..self.cfg.accounts_per_customer {
                let a = c * self.cfg.accounts_per_customer + a_local;
                let b = rng.gen_range(0..self.cfg.brokers);
                e.insert_tuple(
                    x,
                    self.account.id,
                    &[
                        (self.account.pk, a),
                        (self.account_by_cust, k_account_by_customer(c, a)),
                    ],
                    &encode_row(ACCT_ROW, &[a, c, b, 100_000]),
                )
                .expect("populate account");
                // Holdings over distinct securities.
                let mut held = Vec::new();
                while held.len() < self.cfg.holdings_per_account as usize {
                    let s = rng.gen_range(0..self.cfg.securities);
                    if !held.contains(&s) {
                        held.push(s);
                        self.holding.populate(
                            e,
                            x,
                            k_holding(a, s),
                            &encode_row(HOLD_ROW, &[a, s, rng.gen_range(10..500), 1_000]),
                        );
                    }
                }
                for _ in 0..self.cfg.trades_per_account {
                    let t = self.next_trade;
                    self.next_trade += 1;
                    let s = rng.gen_range(0..self.cfg.securities);
                    e.insert_tuple(
                        x,
                        self.trade.id,
                        &[
                            (self.trade.pk, t),
                            (self.trade_by_acct, k_trade_by_account(a, t)),
                        ],
                        &encode_row(TRADE_ROW, &[t, a, s, rng.gen_range(1..100), 1_000, 1]),
                    )
                    .expect("populate trade");
                    self.trade_history.populate(
                        e,
                        x,
                        k_trade_history(t, 0),
                        &encode_row(TH_ROW, &[t, 0, 1]),
                    );
                }
            }
        }
        e.commit(x).expect("populate commit");
        e.set_tracing(true);
    }

    /// All trades of one account (helper used by several transactions).
    fn scan_account_trades(
        &self,
        e: &mut Engine,
        x: XctId,
        a: u64,
    ) -> StorageResult<Vec<(u64, Vec<u8>)>> {
        let lo = k_trade_by_account(a, 0);
        let hi = k_trade_by_account(a, (1 << 28) - 1);
        e.index_scan(x, self.trade_by_acct, lo, true, hi, true)
    }

    /// TradeStatus: the most frequent type — account header + the last
    /// trades with their securities.
    pub fn trade_status(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let a = rng.gen_range(0..self.n_accounts());
        let x = e.begin(TRADE_STATUS);
        let acct = e
            .index_probe(x, self.account.pk, a)?
            .expect("account exists");
        let c = get_field(&acct, 1);
        let b = get_field(&acct, 2);
        e.index_probe(x, self.customer.pk, c)?
            .expect("customer exists");
        e.index_probe(x, self.broker.pk, b)?.expect("broker exists");
        let trades = self.scan_account_trades(e, x, a)?;
        for (_, t_row) in trades.iter().rev().take(10) {
            let s = get_field(t_row, TRADE_SEC);
            e.index_probe(x, self.security.pk, s)?
                .expect("security exists");
        }
        e.commit(x)
    }

    /// TradeOrder: submit a new trade.
    pub fn trade_order(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let a = rng.gen_range(0..self.n_accounts());
        let s = rng.gen_range(0..self.cfg.securities);
        let x = e.begin(TRADE_ORDER);
        let acct = e
            .index_probe(x, self.account.pk, a)?
            .expect("account exists");
        let c = get_field(&acct, 1);
        let b = get_field(&acct, 2);
        e.index_probe(x, self.customer.pk, c)?
            .expect("customer exists");
        e.index_probe(x, self.broker.pk, b)?.expect("broker exists");
        e.index_probe(x, self.security.pk, s)?
            .expect("security exists");
        let lt = e
            .index_probe(x, self.last_trade.pk, s)?
            .expect("last trade exists");
        let price = get_field(&lt, LT_PRICE);

        let t = self.next_trade;
        self.next_trade += 1;
        e.insert_tuple(
            x,
            self.trade.id,
            &[
                (self.trade.pk, t),
                (self.trade_by_acct, k_trade_by_account(a, t)),
            ],
            &encode_row(TRADE_ROW, &[t, a, s, rng.gen_range(1..100), price, 0]),
        )?;
        e.insert_tuple(
            x,
            self.trade_history.id,
            &[(self.trade_history.pk, k_trade_history(t, 0))],
            &encode_row(TH_ROW, &[t, 0, 0]),
        )?;
        self.pending.push_back((t, a, s));
        e.commit(x)
    }

    /// TradeResult: complete a pending trade.
    pub fn trade_result(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        // Complete a submitted trade if one exists, else re-settle a random
        // historical trade (keeps the mix runnable from a cold start).
        let (t, a, s) = match self.pending.pop_front() {
            Some(p) => p,
            None => {
                let a = rng.gen_range(0..self.n_accounts());
                let t = rng.gen_range(1..self.next_trade);
                let s = rng.gen_range(0..self.cfg.securities);
                (t, a, s)
            }
        };
        let x = e.begin(TRADE_RESULT);
        // Settle the trade row (it may not belong to `a` in the fallback
        // path; the row knows its own account).
        let Some(t_rid) = e.index_probe_rid(x, self.trade.pk, t)? else {
            return e.commit(x);
        };
        let mut t_row = e.peek(self.trade.id, t_rid)?;
        let a = if get_field(&t_row, TRADE_ACCT) != a {
            get_field(&t_row, TRADE_ACCT)
        } else {
            a
        };
        let s = if get_field(&t_row, TRADE_SEC) != s {
            get_field(&t_row, TRADE_SEC)
        } else {
            s
        };
        set_field(&mut t_row, TRADE_STATUS_F, 1);
        e.update_tuple(x, self.trade.id, t_rid, &t_row)?;
        e.insert_tuple(
            x,
            self.trade_history.id,
            &[(
                self.trade_history.pk,
                k_trade_history(t, rng.gen_range(1..16)),
            )],
            &encode_row(TH_ROW, &[t, 1, 1]),
        )?;
        // Adjust the holding (update if present, else create).
        let hold_key = k_holding(a, s);
        if !self.holding.add_to_field(e, x, hold_key, HOLD_QTY, 10)? {
            e.insert_tuple(
                x,
                self.holding.id,
                &[(self.holding.pk, hold_key)],
                &encode_row(HOLD_ROW, &[a, s, 10, 1_000]),
            )?;
        }
        // Account balance and broker commission.
        let a_rid = e
            .index_probe_rid(x, self.account.pk, a)?
            .expect("account exists");
        let mut a_row = e.peek(self.account.id, a_rid)?;
        let new_val = get_field_i64(&a_row, ACCT_BALANCE) - 500;
        set_field_i64(&mut a_row, ACCT_BALANCE, new_val);
        let b = get_field(&a_row, 2);
        e.update_tuple(x, self.account.id, a_rid, &a_row)?;
        let b_rid = e
            .index_probe_rid(x, self.broker.pk, b)?
            .expect("broker exists");
        let mut b_row = e.peek(self.broker.id, b_rid)?;
        let new_val = get_field(&b_row, BROKER_TRADES) + 1;
        set_field(&mut b_row, BROKER_TRADES, new_val);
        let new_val = get_field(&b_row, BROKER_COMMISSION) + 5;
        set_field(&mut b_row, BROKER_COMMISSION, new_val);
        e.update_tuple(x, self.broker.id, b_rid, &b_row)?;
        e.commit(x)
    }

    /// MarketFeed: tick a handful of securities.
    pub fn market_feed(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let x = e.begin(MARKET_FEED);
        for _ in 0..5 {
            let s = rng.gen_range(0..self.cfg.securities);
            let rid = e
                .index_probe_rid(x, self.last_trade.pk, s)?
                .expect("last trade exists");
            let mut row = e.peek(self.last_trade.id, rid)?;
            let new_price = (get_field(&row, LT_PRICE) as i64 + rng.gen_range(-50i64..=50)).max(1);
            set_field(&mut row, LT_PRICE, new_price as u64);
            let new_val = get_field(&row, LT_VOLUME) + 100;
            set_field(&mut row, LT_VOLUME, new_val);
            e.update_tuple(x, self.last_trade.id, rid, &row)?;
        }
        e.commit(x)
    }

    /// MarketWatch: price-check a customer's watch list.
    pub fn market_watch(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let c = rng.gen_range(0..self.cfg.customers);
        let x = e.begin(MARKET_WATCH);
        let entries = e.index_scan(
            x,
            self.watch_list.pk,
            k_watch(c, 0),
            true,
            k_watch(c, 255),
            true,
        )?;
        for (_, row) in entries.iter().take(10) {
            let s = get_field(row, WATCH_SEC);
            e.index_probe(x, self.last_trade.pk, s)?
                .expect("last trade exists");
        }
        e.commit(x)
    }

    /// SecurityDetail: a security, its company, its price, and peers.
    pub fn security_detail(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let s = rng.gen_range(0..self.cfg.securities);
        let x = e.begin(SECURITY_DETAIL);
        let sec = e
            .index_probe(x, self.security.pk, s)?
            .expect("security exists");
        let co = get_field(&sec, SEC_COMPANY);
        e.index_probe(x, self.company.pk, co)?
            .expect("company exists");
        e.index_probe(x, self.last_trade.pk, s)?
            .expect("last trade exists");
        for _ in 0..5 {
            let peer = rng.gen_range(0..self.cfg.securities);
            e.index_probe(x, self.last_trade.pk, peer)?
                .expect("last trade exists");
        }
        e.commit(x)
    }

    /// TradeLookup: history of a few trades of one account.
    pub fn trade_lookup(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let a = rng.gen_range(0..self.n_accounts());
        let x = e.begin(TRADE_LOOKUP);
        let trades = self.scan_account_trades(e, x, a)?;
        for (_, t_row) in trades.iter().take(3) {
            let t = get_field(t_row, 0);
            e.index_probe(x, self.trade.pk, t)?.expect("trade exists");
            e.index_scan(
                x,
                self.trade_history.pk,
                k_trade_history(t, 0),
                true,
                k_trade_history(t, 15),
                true,
            )?;
        }
        e.commit(x)
    }

    /// TradeUpdate: patch a few trades of one account.
    pub fn trade_update(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let a = rng.gen_range(0..self.n_accounts());
        let x = e.begin(TRADE_UPDATE);
        let trades = self.scan_account_trades(e, x, a)?;
        for (_, t_row) in trades.iter().take(3) {
            let t = get_field(t_row, 0);
            if let Some(rid) = e.index_probe_rid(x, self.trade.pk, t)? {
                let mut row = e.peek(self.trade.id, rid)?;
                set_field(&mut row, TRADE_STATUS_F, 2);
                e.update_tuple(x, self.trade.id, rid, &row)?;
            }
        }
        e.commit(x)
    }

    /// CustomerPosition: a customer's accounts, holdings, and prices.
    pub fn customer_position(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let c = rng.gen_range(0..self.cfg.customers);
        let x = e.begin(CUSTOMER_POSITION);
        e.index_probe(x, self.customer.pk, c)?
            .expect("customer exists");
        let accounts = e.index_scan(
            x,
            self.account_by_cust,
            k_account_by_customer(c, 0),
            true,
            k_account_by_customer(c, (1 << 20) - 1),
            true,
        )?;
        for (_, a_row) in accounts.iter().take(4) {
            let a = get_field(a_row, 0);
            let holdings = e.index_scan(
                x,
                self.holding.pk,
                k_holding(a, 0),
                true,
                k_holding(a, (1 << 16) - 1),
                true,
            )?;
            for (_, h_row) in holdings.iter().take(8) {
                let s = get_field(h_row, 1);
                e.index_probe(x, self.last_trade.pk, s)?
                    .expect("last trade exists");
            }
        }
        e.commit(x)
    }

    /// BrokerVolume: broker headers plus market prices.
    pub fn broker_volume(&mut self, e: &mut Engine, rng: &mut StdRng) -> StorageResult<()> {
        let x = e.begin(BROKER_VOLUME);
        for _ in 0..5 {
            let b = rng.gen_range(0..self.cfg.brokers);
            e.index_probe(x, self.broker.pk, b)?.expect("broker exists");
            let s = rng.gen_range(0..self.cfg.securities);
            e.index_probe(x, self.last_trade.pk, s)?
                .expect("last trade exists");
        }
        e.commit(x)
    }

    /// The configured scale.
    pub fn config(&self) -> &TpcEConfig {
        &self.cfg
    }
}

impl WorkloadRunner for TpcE {
    fn name(&self) -> &'static str {
        "TPC-E"
    }

    fn xct_type_names(&self) -> Vec<String> {
        [
            "BrokerVolume",
            "CustomerPosition",
            "MarketFeed",
            "MarketWatch",
            "SecurityDetail",
            "TradeLookup",
            "TradeOrder",
            "TradeResult",
            "TradeStatus",
            "TradeUpdate",
        ]
        .map(str::to_owned)
        .to_vec()
    }

    fn run_one(&mut self, engine: &mut Engine, rng: &mut StdRng) -> StorageResult<XctTypeId> {
        let ty = pick_mix(rng, &self.mix);
        match ty {
            BROKER_VOLUME => self.broker_volume(engine, rng)?,
            CUSTOMER_POSITION => self.customer_position(engine, rng)?,
            MARKET_FEED => self.market_feed(engine, rng)?,
            MARKET_WATCH => self.market_watch(engine, rng)?,
            SECURITY_DETAIL => self.security_detail(engine, rng)?,
            TRADE_LOOKUP => self.trade_lookup(engine, rng)?,
            TRADE_ORDER => self.trade_order(engine, rng)?,
            TRADE_RESULT => self.trade_result(engine, rng)?,
            TRADE_STATUS => self.trade_status(engine, rng)?,
            _ => self.trade_update(engine, rng)?,
        }
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use addict_trace::OpKind;
    use rand::SeedableRng;

    fn small() -> (Engine, TpcE) {
        TpcE::setup(TpcEConfig::small())
    }

    #[test]
    fn populate_counts() {
        let (e, w) = small();
        let c = e.catalog();
        let cfg = w.config();
        assert_eq!(
            c.table(w.customer.id).unwrap().heap.n_records() as u64,
            cfg.customers
        );
        assert_eq!(
            c.table(w.account.id).unwrap().heap.n_records() as u64,
            cfg.customers * cfg.accounts_per_customer
        );
        assert_eq!(
            c.table(w.security.id).unwrap().heap.n_records() as u64,
            cfg.securities
        );
        assert_eq!(
            c.table(w.trade.id).unwrap().heap.n_records() as u64,
            w.n_accounts() * cfg.trades_per_account
        );
    }

    #[test]
    fn trade_status_is_read_only_with_scan() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(1);
        w.trade_status(&mut e, &mut rng).unwrap();
        let traces = e.take_traces();
        let ops = traces[0].op_slices();
        assert!(ops
            .iter()
            .all(|(k, _)| matches!(k, OpKind::Probe | OpKind::Scan)));
        assert!(ops.iter().any(|(k, _)| *k == OpKind::Scan));
        assert!(ops.iter().filter(|(k, _)| *k == OpKind::Probe).count() >= 3);
    }

    #[test]
    fn trade_order_then_result_settles() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(2);
        let trades_before = e.catalog().table(w.trade.id).unwrap().heap.n_records();
        w.trade_order(&mut e, &mut rng).unwrap();
        assert_eq!(
            e.catalog().table(w.trade.id).unwrap().heap.n_records(),
            trades_before + 1
        );
        assert_eq!(w.pending.len(), 1);
        w.trade_result(&mut e, &mut rng).unwrap();
        assert!(w.pending.is_empty());
        // TradeResult with no pending trades still works (fallback path).
        w.trade_result(&mut e, &mut rng).unwrap();
    }

    #[test]
    fn market_feed_updates_prices() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(3);
        w.market_feed(&mut e, &mut rng).unwrap();
        let traces = e.take_traces();
        let updates = traces[0]
            .op_slices()
            .iter()
            .filter(|(k, _)| *k == OpKind::Update)
            .count();
        assert_eq!(updates, 5);
    }

    #[test]
    fn full_mix_runs_clean() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 10];
        for _ in 0..500 {
            let ty = w.run_one(&mut e, &mut rng).unwrap();
            counts[ty.0 as usize] += 1;
        }
        let traces = e.take_traces();
        assert_eq!(traces.len(), 500);
        // TradeStatus (19%) clearly beats the rare types.
        assert!(counts[TRADE_STATUS.0 as usize] > 60, "{counts:?}");
        assert!(
            counts[TRADE_STATUS.0 as usize] > counts[MARKET_FEED.0 as usize],
            "{counts:?}"
        );
        // Read-only share roughly 77%.
        let ro = counts[0] + counts[1] + counts[3] + counts[4] + counts[5] + counts[8];
        assert!((330..460).contains(&ro), "read-only count {ro} of 500");
    }

    #[test]
    fn customer_position_scans_accounts_and_holdings() {
        let (mut e, mut w) = small();
        let mut rng = StdRng::seed_from_u64(5);
        w.customer_position(&mut e, &mut rng).unwrap();
        let traces = e.take_traces();
        let scans = traces[0]
            .op_slices()
            .iter()
            .filter(|(k, _)| *k == OpKind::Scan)
            .count();
        assert!(scans >= 2, "accounts scan + at least one holdings scan");
    }
}
