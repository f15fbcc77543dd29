//! The resource cost model — eqs. 8–15 of the paper.
//!
//! The estimator converts a query + plan shape into `(time, money)` using
//! the paper's formulas:
//!
//! * **eq. 8** (cache execution):
//!   `Ce_C = l_cpu · f_cpu · q_tot · c  +  f_io · io · io_tot`
//!   where `q_tot` is optimizer work units (we derive them analytically
//!   from catalog statistics — rows processed per `rows_per_unit`) and
//!   `io_tot` is logical page reads.
//! * **eq. 9** (backend + network):
//!   `Ce_N = Ce_B + f_n · (l + S(Q)/t) · c + S(Q) · c_b`.
//! * **eq. 10/11** (CPU node): `Build_N = b · u`, `Maint_N = c`/s.
//! * **eq. 12/13** (column): `Build_T = f_n · (l + size/t) · c + size · c_b`,
//!   `Maint_T = size · c_d`/s.
//! * **eq. 14/15** (index): `Build_I = Ce(sort plan) + Σ Build_T(missing)`,
//!   `Maint_I = size · c_d`/s.
//!
//! Wall-clock time is CPU time plus a disk-scan term (`bytes /
//! disk bandwidth`); multi-node plans scale by [`ParallelModel`].
//!
//! **Build quotes are compiled once per estimator.** The eq. 12 column
//! quote is a pure function of the column's bytes, and eq. 14's sort term
//! a pure function of the index's row count and bytes. Planning prices
//! them on every query, so the estimator keeps each in a lazily filled,
//! lock-free table ([`Estimator::column_quote`],
//! [`Estimator::index_sort_quote`], [`Estimator::index_quote`]). Every
//! entry records the inputs it was computed from, and a lookup with other
//! inputs (a second schema through the same estimator) computes afresh,
//! so a table read always equals the oracle ([`Estimator::build_column`],
//! [`Estimator::build_index`]) bit for bit.

use std::fmt;
use std::sync::OnceLock;

use cache::{CachedStructure, IndexDef, ROW_LOCATOR_BYTES};
use catalog::{ColumnId, Schema};
use metrics::{CostBreakdown, Resource};
use pricing::{Money, PriceCatalog};
use serde::{Deserialize, Serialize};
use simcore::{NetworkModel, SimDuration};
use workload::{Query, TableAccess};

use crate::scaling::ParallelModel;
use crate::shapes::QueryShape;

/// Calibration constants of the cost model. Defaults reproduce the
/// experimental setup of Section VII-A.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostParams {
    /// CPU-node overload factor (`l_cpu`); the paper assumes nodes are
    /// never overloaded, i.e. 1.0.
    pub l_cpu: f64,
    /// Optimizer-units → CPU-seconds factor (`f_cpu`); the paper emulates
    /// SDSS response times with 0.014.
    pub f_cpu: f64,
    /// Fraction of a CPU consumed while a transfer is in flight (`f_n`);
    /// the paper uses 1.0.
    pub f_n: f64,
    /// Optimizer I/O units → physical I/O operations factor (`f_io`).
    pub f_io: f64,
    /// Rows of processing per optimizer work unit (`q_tot` denominator).
    pub rows_per_unit: f64,
    /// Average I/O unit for `io_tot` (bytes). 64 KiB reflects the mostly
    /// sequential large reads of a column scan; charging per 8 KiB random
    /// page would price scans an order of magnitude above what EBS-era
    /// clouds billed for sequential access.
    pub page_bytes: u64,
    /// Per-node sequential scan bandwidth (bytes/s) for the disk term of
    /// wall-clock time.
    pub disk_bytes_per_sec: f64,
    /// A full scan reads `min(1, sel × scan_cluster_factor)` of the
    /// driving columns (models clustering + block skipping); indexes read
    /// `sel` exactly.
    pub scan_cluster_factor: f64,
    /// Floor on the scanned fraction (even a perfectly clustered scan
    /// touches some data).
    pub min_scan_fraction: f64,
    /// CPU multiplier for sorting during index builds (eq. 14's sort plan).
    pub sort_cpu_factor: f64,
    /// Wall-clock and CPU slowdown of the shared back-end database
    /// relative to a dedicated cache node.
    pub backend_slowdown: f64,
    /// Multi-node scaling law.
    pub parallel: ParallelModel,
    /// Node counts the enumerator considers for parallel plans.
    pub node_options: Vec<u32>,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            l_cpu: 1.0,
            f_cpu: 0.014,
            f_n: 1.0,
            f_io: 1.0,
            rows_per_unit: 200_000.0,
            page_bytes: 65_536,
            disk_bytes_per_sec: 200e6,
            scan_cluster_factor: 20.0,
            min_scan_fraction: 1e-4,
            sort_cpu_factor: 2.0,
            backend_slowdown: 3.0,
            parallel: ParallelModel::paper_sdss(),
            node_options: vec![1, 3, 5],
        }
    }
}

impl CostParams {
    /// Validates all constants.
    ///
    /// # Errors
    /// Returns the offending field name.
    pub fn validate(&self) -> Result<(), &'static str> {
        let positive = [
            (self.l_cpu, "l_cpu"),
            (self.f_cpu, "f_cpu"),
            (self.f_io, "f_io"),
            (self.rows_per_unit, "rows_per_unit"),
            (self.disk_bytes_per_sec, "disk_bytes_per_sec"),
            (self.scan_cluster_factor, "scan_cluster_factor"),
            (self.sort_cpu_factor, "sort_cpu_factor"),
            (self.backend_slowdown, "backend_slowdown"),
        ];
        for (v, name) in positive {
            if !v.is_finite() || v <= 0.0 {
                return Err(name);
            }
        }
        if !self.f_n.is_finite() || self.f_n < 0.0 {
            return Err("f_n");
        }
        if self.page_bytes == 0 {
            return Err("page_bytes");
        }
        if !(0.0..=1.0).contains(&self.min_scan_fraction) {
            return Err("min_scan_fraction");
        }
        if self.node_options.is_empty() || self.node_options.contains(&0) {
            return Err("node_options");
        }
        Ok(())
    }
}

/// The node-count-independent part of a cache execution estimate (see
/// [`Estimator::cache_execution_base`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheExecBase {
    /// Single-node CPU seconds.
    pub cpu_1: f64,
    /// Logical I/O operations (node-count invariant: the same data is read).
    pub io_ops: f64,
    /// Single-node sequential-scan seconds.
    pub disk_secs: f64,
}

/// Resource usage of one execution, before pricing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecEstimate {
    /// Wall-clock execution time.
    pub time: SimDuration,
    /// Total CPU-seconds consumed (across all nodes involved).
    pub cpu_secs: f64,
    /// Logical I/O operations.
    pub io_ops: f64,
    /// Bytes moved over the WAN (backend plans only).
    pub wan_bytes: u64,
}

/// A build quote: (cost, build time).
type BuildQuote = (Money, SimDuration);

/// A lazily filled table of pure build quotes, one slot per dense id.
///
/// Nothing is allocated until the first lookup, which sizes the table
/// once: one slot per column of the first schema, or per candidate of the
/// first registry, it serves. A slot holds the quote and the inputs it is
/// a pure function of. A lookup with equal inputs reads the slot; a
/// lookup with other inputs, or an id beyond the table, computes afresh
/// and leaves the slot to its first writer. Racing first writers of equal
/// inputs compute equal quotes, so keeping either is correct. Reads take
/// no lock.
#[derive(Clone, Default)]
struct QuoteTable<K> {
    slots: OnceLock<Box<[QuoteSlot<K>]>>,
}

/// One slot: the inputs, and the quote computed from them as its cost in
/// nano-dollars and its time. Holding the cost as `i64` keeps a slot at
/// 32 or 40 bytes instead of 64; a quote beyond `i64` nano-dollars
/// (about $9.2 × 10⁹) is never stored, only computed.
type QuoteSlot<K> = OnceLock<(K, i64, SimDuration)>;

impl<K: Copy + PartialEq> QuoteTable<K> {
    /// The quote of slot `id` for `inputs`, computed by `quote` on a miss;
    /// the first lookup sizes the table to `len` slots.
    #[inline]
    fn get(
        &self,
        len: impl FnOnce() -> usize,
        id: usize,
        inputs: K,
        quote: impl FnOnce() -> BuildQuote,
    ) -> BuildQuote {
        let slots = self
            .slots
            .get_or_init(|| (0..len()).map(|_| OnceLock::new()).collect());
        let Some(slot) = slots.get(id) else {
            return quote();
        };
        match slot.get() {
            Some(&(k, nanos, time)) if k == inputs => (Money::from_nanos(nanos.into()), time),
            Some(_) => quote(),
            None => {
                let q = quote();
                if let Ok(nanos) = i64::try_from(q.0.as_nanos()) {
                    let _ = slot.set((inputs, nanos, q.1));
                }
                q
            }
        }
    }
}

impl<K> fmt::Debug for QuoteTable<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slots = self.slots.get().map_or(&[][..], |s| &s[..]);
        let filled = slots.iter().filter(|s| s.get().is_some()).count();
        write!(f, "QuoteTable({filled} of {} filled)", slots.len())
    }
}

/// The cost model, bound to a schema, price catalog and network.
#[derive(Debug, Clone)]
pub struct Estimator {
    params: CostParams,
    prices: PriceCatalog,
    network: NetworkModel,
    /// Eq. 12 per column id, validated by the column's bytes.
    columns: QuoteTable<u64>,
    /// Eq. 14's sort term per candidate position, validated by the
    /// index's `(rows, bytes)`.
    sorts: QuoteTable<(u64, u64)>,
}

impl Estimator {
    /// Creates an estimator.
    ///
    /// # Panics
    /// Panics if `params` fail validation.
    #[must_use]
    pub fn new(params: CostParams, prices: PriceCatalog, network: NetworkModel) -> Self {
        if let Err(field) = params.validate() {
            panic!("invalid cost parameter `{field}`");
        }
        Estimator {
            params,
            prices,
            network,
            columns: QuoteTable::default(),
            sorts: QuoteTable::default(),
        }
    }

    /// The calibration constants.
    #[must_use]
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// The price catalog.
    #[must_use]
    pub fn prices(&self) -> &PriceCatalog {
        &self.prices
    }

    /// The WAN model.
    #[must_use]
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Rows and bytes one table access reads under the given access path.
    ///
    /// With an index the access reads exactly `sel × rows` rows of its
    /// columns plus the index probe; a scan reads the clustered fraction.
    fn access_volume(
        &self,
        schema: &Schema,
        access: &TableAccess,
        selectivity: f64,
        index: Option<&IndexDef>,
    ) -> (f64, f64) {
        let rows = schema.table(access.table).row_count as f64;
        let width: u64 = access
            .columns
            .iter()
            .map(|&c| schema.column(c).byte_width())
            .sum();
        let index_width = index.map(|idx| {
            debug_assert_eq!(idx.table, access.table, "index on wrong table");
            let entry = idx
                .key_columns
                .iter()
                .map(|&c| schema.column(c).byte_width())
                .sum::<u64>()
                + ROW_LOCATOR_BYTES;
            // Probe reads the matching slice of the index, then fetches
            // the picked rows from the cached columns (index-covered
            // columns need no base fetch).
            let uncovered: u64 = access
                .columns
                .iter()
                .filter(|c| !idx.key_columns.contains(c))
                .map(|&c| schema.column(c).byte_width())
                .sum();
            entry as f64 + uncovered as f64
        });
        self.volume(rows, selectivity, index_width, width as f64)
    }

    /// The per-access volume kernel shared by [`Self::access_volume`] and
    /// the compiled-shape path: `index_width` is the bytes read per
    /// picked row through the assigned index (entry + uncovered columns),
    /// `scan_width` the accessed columns' bytes per row.
    fn volume(
        &self,
        rows: f64,
        selectivity: f64,
        index_width: Option<f64>,
        scan_width: f64,
    ) -> (f64, f64) {
        match index_width {
            Some(width) => {
                let picked = rows * selectivity;
                (picked, picked * width)
            }
            None => {
                let fraction = (selectivity * self.params.scan_cluster_factor)
                    .max(self.params.min_scan_fraction)
                    .min(1.0);
                let scanned = rows * fraction;
                (scanned, scanned * scan_width)
            }
        }
    }

    /// Eq. 8: execution in the cache with per-access index assignment on
    /// `nodes` CPU nodes.
    ///
    /// # Panics
    /// Panics if `indexes.len() != query.accesses().len()` or `nodes == 0`.
    #[must_use]
    pub fn cache_execution(
        &self,
        schema: &Schema,
        query: &Query,
        indexes: &[Option<&IndexDef>],
        nodes: u32,
    ) -> ExecEstimate {
        let base = self.cache_execution_base(schema, query, indexes);
        self.scale_cache_execution(&base, nodes)
    }

    /// The node-count-independent half of eq. 8: data volumes, single-node
    /// CPU seconds, I/O operations and the disk-scan term. Enumeration
    /// computes this once per index assignment and derives the estimate at
    /// each node count via [`Self::scale_cache_execution`] — the per-node
    /// results are bit-identical to calling [`Self::cache_execution`]
    /// directly (same operations in the same order).
    ///
    /// # Panics
    /// Panics if `indexes.len() != query.accesses().len()`.
    #[must_use]
    pub fn cache_execution_base(
        &self,
        schema: &Schema,
        query: &Query,
        indexes: &[Option<&IndexDef>],
    ) -> CacheExecBase {
        assert_eq!(
            indexes.len(),
            query.accesses().len(),
            "one index slot per access"
        );
        let mut rows_total = 0.0;
        let mut bytes_total = 0.0;
        for ((access, selectivity), idx) in query.accesses().zip(indexes) {
            let (r, b) = self.access_volume(schema, access, selectivity, *idx);
            rows_total += r;
            bytes_total += b;
        }
        self.cache_base_from_volume(rows_total, bytes_total)
    }

    /// [`Self::cache_execution_base`] from a compiled shape: the scan
    /// variant when `indexed` is false, else the shape's best-index
    /// variant. Same operations in the same order as the oracle.
    pub(crate) fn cache_execution_base_shaped(
        &self,
        shape: &QueryShape,
        query: &Query,
        indexed: bool,
    ) -> CacheExecBase {
        let mut rows_total = 0.0;
        let mut bytes_total = 0.0;
        for (a, &selectivity) in shape.accesses.iter().zip(query.selectivities.iter()) {
            let index_width = a.pick.filter(|_| indexed).map(|p| f64::from(p.width));
            let scan_width = f64::from(a.scan_width);
            let (r, b) = self.volume(a.rows, selectivity, index_width, scan_width);
            rows_total += r;
            bytes_total += b;
        }
        self.cache_base_from_volume(rows_total, bytes_total)
    }

    /// Eq. 8's volume → estimate tail, shared by the oracle and the
    /// compiled path.
    fn cache_base_from_volume(&self, rows_total: f64, bytes_total: f64) -> CacheExecBase {
        let q_tot = rows_total / self.params.rows_per_unit;
        let cpu_1 = self.params.l_cpu * self.params.f_cpu * q_tot;
        let io_ops = self.params.f_io * bytes_total / self.params.page_bytes as f64;
        let disk_secs = bytes_total / self.params.disk_bytes_per_sec;
        CacheExecBase {
            cpu_1,
            io_ops,
            disk_secs,
        }
    }

    /// Applies the multi-node scaling law to a precomputed base.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    #[must_use]
    pub fn scale_cache_execution(&self, base: &CacheExecBase, nodes: u32) -> ExecEstimate {
        assert!(nodes >= 1, "need at least one node");
        let time_1 = base.cpu_1 + base.disk_secs;
        let time = time_1 * self.params.parallel.time_factor(nodes);
        let cpu_secs = base.cpu_1 * self.params.parallel.work_factor(nodes);
        ExecEstimate {
            time: SimDuration::from_secs(time),
            cpu_secs,
            io_ops: base.io_ops,
            wan_bytes: 0,
        }
    }

    /// Eq. 9: execution on the back-end plus result transfer.
    ///
    /// The back-end is a conventional *row store* owning the full schema
    /// with indexes: it locates `sel × rows` per access through an index
    /// but then reads entire rows (every column of the table), and both
    /// its wall-clock and its CPU are slowed by `backend_slowdown` (it is
    /// a shared, remote resource). The row-store / column-cache asymmetry
    /// is what makes column caching profitable — the same asymmetry
    /// bypass-yield exploits in the paper's baseline.
    #[must_use]
    pub fn backend_execution(&self, schema: &Schema, query: &Query) -> ExecEstimate {
        let mut rows_total = 0.0;
        let mut bytes_total = 0.0;
        for (access, selectivity) in query.accesses() {
            let table = schema.table(access.table);
            let rows = table.row_count as f64;
            // Full row width: the row store reads whole tuples.
            let width: u64 = table
                .columns
                .iter()
                .map(|&c| schema.column(c).byte_width())
                .sum();
            let picked = rows * selectivity;
            rows_total += picked;
            bytes_total += picked * (width as f64 + ROW_LOCATOR_BYTES as f64);
        }
        self.backend_from_volume(rows_total, bytes_total, query.result_bytes)
    }

    /// [`Self::backend_execution`] from a compiled shape. Same operations
    /// in the same order as the oracle.
    pub(crate) fn backend_execution_shaped(
        &self,
        shape: &QueryShape,
        query: &Query,
    ) -> ExecEstimate {
        let mut rows_total = 0.0;
        let mut bytes_total = 0.0;
        for (a, &selectivity) in shape.accesses.iter().zip(query.selectivities.iter()) {
            let picked = a.rows * selectivity;
            rows_total += picked;
            bytes_total += picked * f64::from(a.backend_width);
        }
        self.backend_from_volume(rows_total, bytes_total, query.result_bytes)
    }

    /// Eq. 9's volume → estimate tail, shared by the oracle and the
    /// compiled path.
    fn backend_from_volume(
        &self,
        rows_total: f64,
        bytes_total: f64,
        result_bytes: u64,
    ) -> ExecEstimate {
        let q_tot = rows_total / self.params.rows_per_unit;
        let cpu = self.params.l_cpu * self.params.f_cpu * q_tot * self.params.backend_slowdown;
        let io_ops = self.params.f_io * bytes_total / self.params.page_bytes as f64;
        let disk_secs = bytes_total / self.params.disk_bytes_per_sec * self.params.backend_slowdown;
        let transfer = self.network.transfer_time(result_bytes);
        // f_n of a CPU is busy for the duration of the transfer.
        let transfer_cpu = self.params.f_n * transfer.as_secs();
        ExecEstimate {
            time: SimDuration::from_secs(cpu + disk_secs + transfer.as_secs()),
            cpu_secs: cpu + transfer_cpu,
            io_ops,
            wan_bytes: result_bytes,
        }
    }

    /// Prices an execution estimate: money and per-resource breakdown.
    #[must_use]
    #[inline]
    pub fn price_execution(&self, est: &ExecEstimate) -> (Money, CostBreakdown) {
        let rates = &self.prices.rates;
        let mut breakdown = CostBreakdown::ZERO;
        breakdown.add_to(Resource::Cpu, rates.cpu_cost(est.cpu_secs));
        breakdown.add_to(Resource::Io, rates.io_cost(est.io_ops));
        breakdown.add_to(Resource::Network, rates.transfer_cost(est.wan_bytes));
        (breakdown.total(), breakdown)
    }

    /// Eq. 10: `Build_N = b · u`. Returns (cost, boot time).
    #[must_use]
    pub fn build_node(&self) -> (Money, SimDuration) {
        let boot = self.prices.node_boot_secs;
        (
            self.prices.rates.cpu_cost(boot),
            SimDuration::from_secs(boot),
        )
    }

    /// Eq. 12: column build — transfer from the back-end. Returns
    /// (cost, transfer time).
    ///
    /// The uncompiled oracle: planning reads the same quote from
    /// [`Self::column_quote`].
    #[must_use]
    pub fn build_column(&self, schema: &Schema, column: ColumnId) -> (Money, SimDuration) {
        self.column_build(schema.column_bytes(column))
    }

    /// Eq. 12 from the estimator's compiled table; equal to
    /// [`Self::build_column`] bit for bit.
    #[must_use]
    pub fn column_quote(&self, schema: &Schema, column: ColumnId) -> (Money, SimDuration) {
        let size = schema.column_bytes(column);
        self.columns.get(
            || schema.column_count(),
            column.index(),
            size,
            || self.column_build(size),
        )
    }

    /// Eq. 12 for a column of `size` bytes.
    fn column_build(&self, size: u64) -> BuildQuote {
        let transfer = self.network.transfer_time(size);
        let cpu = self.params.f_n * transfer.as_secs();
        let cost = self.prices.rates.cpu_cost(cpu) + self.prices.rates.transfer_cost(size);
        (cost, transfer)
    }

    /// Eq. 14: index build — sort of the keyed data plus any key columns
    /// that must first be fetched. `column_cached` reports whether each
    /// key column is already in the cache. Returns (cost, build time).
    ///
    /// The uncompiled oracle: planning reads the same quote from
    /// [`Self::index_quote`].
    #[must_use]
    pub fn build_index<F>(
        &self,
        schema: &Schema,
        index: &IndexDef,
        column_cached: F,
    ) -> (Money, SimDuration)
    where
        F: Fn(ColumnId) -> bool,
    {
        let rows = schema.table(index.table).row_count;
        let sort = self.sort_plan(rows, index.size_bytes(schema));
        fold_fetches(sort, index, column_cached, |c| self.build_column(schema, c))
    }

    /// Eq. 14 for the candidate at `pos` of `candidates`, from the
    /// estimator's compiled sort and column quotes; equal to
    /// `build_index(schema, &candidates[pos], column_cached)` bit for bit.
    ///
    /// # Panics
    /// Panics if `pos` is out of bounds.
    #[must_use]
    pub fn index_quote<F>(
        &self,
        schema: &Schema,
        candidates: &[IndexDef],
        pos: usize,
        column_cached: F,
    ) -> (Money, SimDuration)
    where
        F: Fn(ColumnId) -> bool,
    {
        let sort = self.index_sort_quote(schema, candidates, pos);
        fold_fetches(sort, &candidates[pos], column_cached, |c| {
            self.column_quote(schema, c)
        })
    }

    /// Eq. 14's sort term alone (every key column cached) for the
    /// candidate at `pos` of `candidates`, from the estimator's compiled
    /// table; equal to `build_index(schema, &candidates[pos], |_| true)`
    /// bit for bit.
    ///
    /// # Panics
    /// Panics if `pos` is out of bounds.
    #[must_use]
    pub fn index_sort_quote(
        &self,
        schema: &Schema,
        candidates: &[IndexDef],
        pos: usize,
    ) -> (Money, SimDuration) {
        let index = &candidates[pos];
        let inputs = (
            schema.table(index.table).row_count,
            index.size_bytes(schema),
        );
        self.sorts.get(
            || candidates.len(),
            pos,
            inputs,
            || self.sort_plan(inputs.0, inputs.1),
        )
    }

    /// Eq. 14's sort plan over `rows` rows of `bytes` index bytes: read
    /// the keyed data, sort it (CPU-heavy), write the index. Modeled as
    /// eq. 8 with the sort CPU multiplier.
    fn sort_plan(&self, rows: u64, bytes: u64) -> BuildQuote {
        let rows = rows as f64;
        let entry_bytes = bytes as f64;
        let q_tot = rows / self.params.rows_per_unit * self.params.sort_cpu_factor;
        let cpu = self.params.l_cpu * self.params.f_cpu * q_tot;
        let io_ops = self.params.f_io * 2.0 * entry_bytes / self.params.page_bytes as f64;
        let sort_secs = cpu + 2.0 * entry_bytes / self.params.disk_bytes_per_sec;
        let cost = self.prices.rates.cpu_cost(cpu) + self.prices.rates.io_cost(io_ops);
        (cost, SimDuration::from_secs(sort_secs))
    }

    /// Eq. 11 / 13 / 15: maintenance accrued by a structure over `span`.
    ///
    /// Nodes cost `c` per unit time; columns and indexes cost
    /// `size · c_d` per unit time.
    #[must_use]
    #[inline]
    pub fn maintenance(&self, s: &CachedStructure, span: SimDuration) -> Money {
        if s.key.occupies_disk() {
            self.prices.rates.disk_cost(s.size_bytes, span.as_secs())
        } else {
            self.prices.rates.cpu_cost(span.as_secs())
        }
    }
}

/// Eq. 14's tail: the sort term plus a fetch of every key column not
/// cached. Fetches overlap each other but precede the sort.
fn fold_fetches(
    (mut cost, sort_time): BuildQuote,
    index: &IndexDef,
    column_cached: impl Fn(ColumnId) -> bool,
    fetch: impl Fn(ColumnId) -> BuildQuote,
) -> BuildQuote {
    let mut fetch_time = SimDuration::ZERO;
    for &col in &index.key_columns {
        if !column_cached(col) {
            let (c, t) = fetch(col);
            cost += c;
            if t > fetch_time {
                fetch_time = t;
            }
        }
    }
    (cost, fetch_time + sort_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::tpch::{tpch_schema, ScaleFactor};
    use std::sync::Arc;
    use workload::{Selectivities, WorkloadConfig, WorkloadGenerator};

    fn setup() -> (Arc<Schema>, Estimator, Query) {
        let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
        let est = Estimator::new(
            CostParams::default(),
            PriceCatalog::ec2_2009(),
            NetworkModel::paper_sdss(),
        );
        let mut gen = WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 42);
        let q = gen.next_query();
        (schema, est, q)
    }

    /// `q` cut down to its driving access, at selectivity `sel`.
    fn driving_only(q: &Query, sel: f64) -> Query {
        let mut lists = (*q.lists).clone();
        lists.accesses.truncate(1);
        Query {
            lists: Arc::new(lists),
            selectivities: Selectivities::from_slice(&[sel]),
            ..q.clone()
        }
    }

    fn first_index(_schema: &Schema, q: &Query) -> IndexDef {
        let pred = q.driving().predicate_columns[0];
        IndexDef {
            id: cache::IndexId(0),
            table: q.driving().table,
            key_columns: vec![pred],
        }
    }

    #[test]
    fn index_plans_beat_scans() {
        let (schema, est, q) = setup();
        // Force a selective query so the comparison is meaningful.
        let q = driving_only(&q, 1e-4);
        let idx = first_index(&schema, &q);
        let scan = est.cache_execution(&schema, &q, &[None], 1);
        let indexed = est.cache_execution(&schema, &q, &[Some(&idx)], 1);
        assert!(
            indexed.time < scan.time,
            "indexed {} !< scan {}",
            indexed.time,
            scan.time
        );
        assert!(indexed.io_ops < scan.io_ops);
    }

    #[test]
    fn parallelism_cuts_time_but_raises_cpu() {
        let (schema, est, q) = setup();
        let one = est.cache_execution(&schema, &q, &vec![None; q.accesses().len()], 1);
        let three = est.cache_execution(&schema, &q, &vec![None; q.accesses().len()], 3);
        assert!((three.time.as_secs() - one.time.as_secs() * 0.5).abs() < 1e-9);
        assert!((three.cpu_secs - one.cpu_secs * 1.25).abs() < 1e-9);
        assert_eq!(one.io_ops, three.io_ops, "same data is read");
    }

    #[test]
    fn backend_includes_result_transfer() {
        let (schema, est, mut q) = setup();
        q.result_bytes = 25_000_000 / 8; // exactly 1 second at 25 Mbps
        let b = est.backend_execution(&schema, &q);
        assert!(b.time.as_secs() > 1.0, "transfer included");
        assert_eq!(b.wan_bytes, q.result_bytes);
        // f_n = 1: a full CPU is busy during that 1s of transfer.
        let no_transfer = {
            let mut q2 = q.clone();
            q2.result_bytes = 0;
            est.backend_execution(&schema, &q2)
        };
        assert!((b.cpu_secs - no_transfer.cpu_secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pricing_books_each_resource() {
        let (schema, est, q) = setup();
        let b = est.backend_execution(&schema, &q);
        let (total, breakdown) = est.price_execution(&b);
        assert_eq!(total, breakdown.total());
        assert!(breakdown.cpu.is_positive());
        assert!(breakdown.io.is_positive());
        assert!(breakdown.network.is_positive());
        assert!(breakdown.disk.is_zero(), "execution does not rent disk");
    }

    #[test]
    fn node_build_matches_eq10() {
        let (_, est, _) = setup();
        let (cost, boot) = est.build_node();
        // b = 60 s at $0.10/h.
        assert_eq!(boot.as_secs(), 60.0);
        assert_eq!(cost, Money::from_dollars(0.10 / 60.0));
    }

    #[test]
    fn column_build_matches_eq12() {
        let (schema, est, _) = setup();
        let col = schema.column_by_name("lineitem.l_shipdate").unwrap().id;
        let size = schema.column_bytes(col);
        let (cost, time) = est.build_column(&schema, col);
        let expected_time = size as f64 / (25e6 / 8.0);
        assert!((time.as_secs() - expected_time).abs() < 1e-6);
        let expected_cost =
            est.prices().rates.transfer_cost(size) + est.prices().rates.cpu_cost(expected_time);
        assert_eq!(cost, expected_cost);
    }

    #[test]
    fn index_build_charges_missing_columns() {
        let (schema, est, q) = setup();
        let idx = first_index(&schema, &q);
        let (cost_cached, t_cached) = est.build_index(&schema, &idx, |_| true);
        let (cost_missing, t_missing) = est.build_index(&schema, &idx, |_| false);
        assert!(cost_missing > cost_cached, "fetch adds cost");
        assert!(t_missing > t_cached, "fetch adds time");
    }

    #[test]
    fn maintenance_rates_by_structure_kind() {
        let (_, est, _) = setup();
        let disk_s = CachedStructure {
            key: cache::StructureKey::Column(catalog::ColumnId(0)),
            size_bytes: 1_000_000_000,
            built_at: simcore::SimTime::ZERO,
            available_at: simcore::SimTime::ZERO,
            last_used: simcore::SimTime::ZERO,
            maint_paid_until: simcore::SimTime::ZERO,
            build_cost: Money::ZERO,
            per_use_charge: Money::ZERO,
            unamortized: Money::ZERO,
            maint_forgiven: Money::ZERO,
        };
        let month = SimDuration::from_days(30.0);
        let m = est.maintenance(&disk_s, month);
        assert!((m.as_dollars() - 0.15).abs() < 1e-6, "1 GB-month = $0.15");
        let node_s = CachedStructure {
            key: cache::StructureKey::Node(0),
            size_bytes: 0,
            ..disk_s
        };
        let hour = SimDuration::from_hours(1.0);
        assert_eq!(est.maintenance(&node_s, hour), Money::from_dollars(0.10));
    }

    #[test]
    fn scan_fraction_floor_applies() {
        let (schema, est, q) = setup();
        let q = driving_only(&q, 1e-12); // below the floor
        let e = est.cache_execution(&schema, &q, &[None], 1);
        let rows = schema.table(q.driving().table).row_count as f64;
        let min_rows = rows * est.params().min_scan_fraction;
        // io_ops implies bytes >= floor fraction.
        let width: u64 = q
            .driving()
            .columns
            .iter()
            .map(|&c| schema.column(c).byte_width())
            .sum();
        let min_io = min_rows * width as f64 / est.params().page_bytes as f64;
        assert!(e.io_ops >= min_io * 0.999);
    }

    #[test]
    #[should_panic(expected = "invalid cost parameter")]
    fn invalid_params_rejected() {
        let p = CostParams {
            f_cpu: -1.0,
            ..CostParams::default()
        };
        let _ = Estimator::new(p, PriceCatalog::ec2_2009(), NetworkModel::paper_sdss());
    }

    #[test]
    fn params_validation_field_coverage() {
        let ok = CostParams::default();
        assert!(ok.validate().is_ok());
        let p = CostParams {
            node_options: vec![],
            ..CostParams::default()
        };
        assert_eq!(p.validate(), Err("node_options"));
        let p = CostParams {
            node_options: vec![0],
            ..CostParams::default()
        };
        assert_eq!(p.validate(), Err("node_options"));
        let p = CostParams {
            page_bytes: 0,
            ..CostParams::default()
        };
        assert_eq!(p.validate(), Err("page_bytes"));
        let p = CostParams {
            min_scan_fraction: 2.0,
            ..CostParams::default()
        };
        assert_eq!(p.validate(), Err("min_scan_fraction"));
        let p = CostParams {
            f_n: -0.1,
            ..CostParams::default()
        };
        assert_eq!(p.validate(), Err("f_n"));
    }
}
