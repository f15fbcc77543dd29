//! The economy manager — Section IV's control loop, one query at a time.
//!
//! For each incoming query the manager:
//!
//! 1. accrues disk occupancy and evicts *failed* structures (footnote 3);
//! 2. enumerates `P_Q = P_exist ∪ P_pos` by binding the query's execution
//!    rows to its cache, and reduces it to the skyline (footnote 2);
//! 3. forms the user's budget function from the backend plan (users
//!    "accept query execution in the back-end", so their willingness is a
//!    multiple of the backend price and their deadline a multiple of the
//!    backend time);
//! 4. runs the case analysis (Section IV-C), charges the user, credits
//!    profit, and settles maintenance + amortisation installments on the
//!    used structures;
//! 5. distributes the rejected-plan regret over structures (eqs. 1–2);
//! 6. applies the investment rule (eq. 3) and builds what it triggers,
//!    paying from the account.

use std::cell::RefCell;

use cache::{CacheState, CachedStructure, StructureKey};
use planner::enumerate::EnumerationOptions;
use planner::{
    bind_plans_into, skyline_partition_hot, Estimator, ExecRows, PlanRows, PlannerContext,
};
use pricing::Money;
use simcore::{SimDuration, SimTime};
use workload::Query;

use crate::account::CloudAccount;
use crate::budget::{BudgetFunction, BudgetShape};
use crate::config::EconConfig;
use crate::outcome::{QueryOutcome, SelectionCase};
use crate::regret::RegretLedger;
use crate::selection::{decide_hot, for_each_regret, select_payment_hot};

/// The paper's self-tuned economy, owning the cloud account, the cache
/// state and the regret ledger.
#[derive(Debug)]
pub struct EconomyManager {
    config: EconConfig,
    account: CloudAccount,
    cache: CacheState,
    /// The regret ledger (interior mutability: the serving selection
    /// distributes regret straight from the plan rows it reads, while
    /// the scratch holding those rows is borrowed).
    regret: RefCell<RegretLedger>,
    queries_seen: u64,
    first_arrival: Option<SimTime>,
    last_arrival: SimTime,
    /// Scratch rows every serve and per-node bid plans into.
    rows: RefCell<PlanRows>,
    /// Scratch for the skyline index partition.
    sky_scratch: RefCell<SkyScratch>,
    /// The structures the last served query's plan used (see
    /// [`Self::used_structures`]).
    used: Vec<StructureKey>,
    /// Scratch for the investment scan's over-threshold candidates.
    candidates: Vec<(StructureKey, Money)>,
    /// The balance whose threshold the regret ledger's candidate index
    /// was last asked for; `None` before the first investment scan.
    candidates_at: Option<Money>,
    /// Lower bound (seconds) on the earliest instant any structure can
    /// fail; the per-query failure scan is skipped while `now` is below
    /// it. See [`Self::refresh_failure_bound`].
    next_failure_check: f64,
}

#[derive(Debug, Default)]
struct SkyScratch {
    order: Vec<usize>,
    sky: Vec<usize>,
}

/// Kept only because the repository benchmark names it; inert; removed
/// by ROADMAP item 5. [`EconomyManager::plan_cache_stats`] returns it
/// all zeros: there is no plan memo, and every serve binds its query's
/// execution rows to the cache afresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub refreshes: u64,
    /// Always 0.
    pub completions: u64,
    /// Always 0.
    pub victim_hits: u64,
}

/// What a budget-decided bid depends on besides the query and its rows
/// ([`EconomyManager::budget_key`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetKey {
    shape: BudgetShape,
    patience: f64,
}

/// The outcome of planning one query: the case analysis plus the row of
/// the plan the control loop runs, in the manager's scratch rows.
struct Planned {
    opts: EnumerationOptions,
    case: SelectionCase,
    payment: Money,
    profit: Money,
    row: usize,
}

impl EconomyManager {
    /// Creates a manager with an empty cache.
    ///
    /// # Panics
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn new(config: EconConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid economy config: {msg}");
        }
        let account = CloudAccount::new(config.initial_credit);
        let pool = config.regret_pool_capacity;
        EconomyManager {
            config,
            account,
            cache: CacheState::new(),
            regret: RefCell::new(RegretLedger::new(pool)),
            queries_seen: 0,
            first_arrival: None,
            last_arrival: SimTime::ZERO,
            rows: RefCell::new(PlanRows::new()),
            sky_scratch: RefCell::new(SkyScratch::default()),
            used: Vec::new(),
            candidates: Vec::new(),
            candidates_at: None,
            next_failure_check: f64::NEG_INFINITY,
        }
    }

    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. Always the default (all zeros):
    /// every serve plans its query fresh.
    #[must_use]
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats::default()
    }

    /// The cloud account (`CR` lives here).
    #[must_use]
    pub fn account(&self) -> &CloudAccount {
        &self.account
    }

    /// The cache state.
    #[must_use]
    pub fn cache(&self) -> &CacheState {
        &self.cache
    }

    /// The structures the plan of the last query served used, in
    /// [`planner::QueryPlan::uses`] order (data structures, then extra
    /// CPU nodes); empty after a backend run. A fleet's traced
    /// settlement record reads them here: the attribution trail "which
    /// tenants paid for structure S" settles through.
    #[must_use]
    pub fn used_structures(&self) -> &[StructureKey] {
        &self.used
    }

    /// The regret ledger (diagnostics).
    #[must_use]
    pub fn regret(&self) -> std::cell::Ref<'_, RegretLedger> {
        self.regret.borrow()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EconConfig {
        &self.config
    }

    /// Accrues the cache's time-based integrals (disk occupancy) up to
    /// `now` without processing a query — used by the simulator to close
    /// out a run horizon.
    pub fn advance_to(&mut self, now: SimTime) {
        self.cache.advance(now);
    }

    /// Re-bases the disk-occupancy integral at `now`, keeping the cached
    /// structures but writing off the byte-seconds accrued so far.
    ///
    /// Crash-recovery replay drives a fresh manager through the crashed
    /// node's served-query journal at the *original* timestamps; the disk
    /// rent of that span was already settled when the crashed node's
    /// books closed at the crash instant (eq. 13), so the recovered
    /// manager must only accrue rent from its recovery instant forward.
    pub fn rebase_occupancy(&mut self, now: SimTime) {
        self.cache.rebase_occupancy(now);
    }

    /// Observed arrival rate (queries/second); 0 before two arrivals.
    #[must_use]
    pub fn arrival_rate(&self) -> f64 {
        match self.first_arrival {
            Some(first) if self.queries_seen >= 2 => {
                let span = (self.last_arrival - first).as_secs();
                if span > 0.0 {
                    (self.queries_seen - 1) as f64 / span
                } else {
                    0.0
                }
            }
            _ => 0.0,
        }
    }

    /// True when, at `now`, every cached structure's unreimbursed
    /// maintenance has crossed its failure threshold (footnote 3's
    /// `fail_factor × build cost`) — the cache as a whole "can no longer
    /// pay maintenance". Trivially true when the cache is empty.
    ///
    /// Structures whose upkeep never accrues (zero threshold or free
    /// maintenance) are treated as insolvent too: they cost nothing to
    /// keep and must not block a drain forever.
    ///
    /// Read-only — the elastic fleet control plane polls this on its
    /// review cadence before retiring a drained node.
    #[must_use]
    pub fn structures_insolvent(&self, estimator: &Estimator, now: SimTime) -> bool {
        let fail_factor = self.config.failure.fail_factor;
        self.cache.iter().all(|s| {
            let threshold = s.build_cost.scale(fail_factor);
            if threshold.is_zero() {
                return true;
            }
            let span = now.saturating_since(s.maint_paid_until);
            let unpaid = s.maint_forgiven + estimator.maintenance(s, span);
            unpaid > threshold
        })
    }

    /// Processes one query at its arrival instant over `exec`, the
    /// query's execution rows, filled by the caller. The single-cache
    /// simulator fills them per query; a fleet fills them once per
    /// arrival and shares them between the quote round and the winner's
    /// serve. The rows do not read `budget_scale`, so a retry's
    /// budget-decayed copy of the query serves over them too.
    ///
    /// After the failure scan the rows are bound to the cache as it then
    /// stands ([`planner::bind_plans_into`]): every cache-dependent term
    /// is planned fresh, whatever bids came before.
    ///
    /// # Panics
    /// Panics if `now` precedes a previous arrival, or if `exec` was
    /// never filled. `exec` must have been filled from `query` (or a
    /// copy of it differing only in `budget_scale`) through `ctx`.
    pub fn process_query(
        &mut self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
    ) -> QueryOutcome {
        self.queries_seen += 1;
        if self.first_arrival.is_none() {
            self.first_arrival = Some(now);
        }
        assert!(
            now >= self.last_arrival,
            "queries must arrive in time order"
        );
        self.last_arrival = now;

        // (1) Accrue occupancy; fail structures whose unpaid maintenance
        // exceeded the threshold. The full scan runs only when the
        // failure-time lower bound says a failure is possible — on skipped
        // queries a fresh scan would provably find nothing.
        self.cache.advance(now);
        let estimator = ctx.estimator;
        let failed = if now.as_secs() >= self.next_failure_check {
            let failed =
                self.cache
                    .failed_structures(now, self.config.failure.fail_factor, |s, span| {
                        estimator.maintenance(s, span)
                    });
            for &key in &failed {
                self.cache.evict(key, now);
                self.regret.get_mut().reset(key);
            }
            self.refresh_failure_bound(estimator);
            failed
        } else {
            debug_assert!(
                self.cache
                    .failed_structures(now, self.config.failure.fail_factor, |s, span| {
                        estimator.maintenance(s, span)
                    })
                    .is_empty(),
                "failure bound must be conservative"
            );
            Vec::new()
        };

        // (2)+(3)+(4a)+(5) Enumerate, skyline, form the user budget, run
        // the case analysis and distribute the rejected-plan regret
        // (eqs. 1–2).
        let planned = self.plan_query(ctx, query, exec, now);
        let rows = self.rows.get_mut();
        debug_assert!(
            rows.hot().existing[planned.row],
            "only existing plans execute"
        );
        let chosen = rows.row(planned.row, exec);

        // (4b) Settlement: LRU refresh, amortisation installment and
        // maintenance checkpoint in one pass per used structure, each
        // collecting the maintenance its plan quoted.
        self.used.clear();
        self.used.extend(chosen.uses());
        let (amortization_collected, maintenance_collected) = self.cache.settle_quoted(
            chosen.quoted_uses(),
            now,
            planned.opts.maint_window,
            |s, span| estimator.maintenance(s, span),
        );
        debug_assert_eq!(
            amortization_collected, chosen.amortized_cost,
            "quoted amortisation must match collected"
        );
        debug_assert_eq!(
            maintenance_collected, chosen.maintenance_cost,
            "quoted maintenance must match collected"
        );
        let (response_time, exec_cost, exec_breakdown) =
            (chosen.exec_time, chosen.exec_cost, chosen.exec_breakdown);
        let ran_in_cache = !chosen.backend;
        self.account.deposit_payment(planned.payment);

        // (6) Investment (eq. 3 + conservative gate).
        let investments = self.consider_investments(ctx, now, planned.opts.amortize_n);

        QueryOutcome {
            case: planned.case,
            response_time,
            payment: planned.payment,
            profit: planned.profit,
            exec_cost,
            exec_breakdown,
            ran_in_cache,
            investments,
            evictions: failed,
            maintenance_collected,
            amortization_collected,
        }
    }

    /// Steps (2)–(5) of the control loop: bind the query's execution rows
    /// to the cache into the manager's scratch, reduce them to the two-tier
    /// skyline, form the user's budget, run the case analysis and
    /// distribute the regret of the rejected possible plans.
    ///
    /// Existing plans are skylined among themselves (they are the
    /// executable menu — a *possible* plan may dominate them on paper but
    /// cannot run yet), while possible plans must survive the skyline of
    /// the full set to be worth regretting. The budget is the configured
    /// shape at `budget_scale × backend price` with deadline
    /// `patience × backend time`.
    fn plan_query(
        &self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
    ) -> Planned {
        let opts = self.config.enumeration(self.arrival_rate());
        let mut rows = self.rows.borrow_mut();
        bind_plans_into(ctx, exec, &self.cache, now, opts, &mut rows);
        self.serve_from(query, exec, &rows, opts)
    }

    /// Skyline partition + budget + case analysis straight over the plan
    /// rows (backend row first), distributing each rejected possible
    /// plan's regret from its row's missing list as the case analysis
    /// visits it, and returning the chosen plan's row.
    ///
    /// The paper distributes regret over "every physical structure used
    /// by the plan"; we concentrate the share on the plan's *missing*
    /// structures — the only ones an investment can act on
    /// (already-built structures would have their regret immediately
    /// discarded by the investment scan anyway). Among the missing, extra
    /// CPU nodes only receive regret once the plan's data (columns and
    /// indexes) is all present: booting a node cannot help a plan that
    /// still lacks its columns, and letting it accumulate regret would
    /// churn capital on idle nodes. Both refinements are recorded in
    /// PAPER.md's "Deviations from the paper".
    fn serve_from(
        &self,
        query: &Query,
        exec: &ExecRows,
        rows: &PlanRows,
        opts: EnumerationOptions,
    ) -> Planned {
        let hot = rows.hot();
        let budget = self.budget(query, hot.time[0], hot.price[0]);
        let mut scratch = self.sky_scratch.borrow_mut();
        let SkyScratch { order, sky } = &mut *scratch;
        let _existing = skyline_partition_hot(hot, order, sky);
        let decision = decide_hot(hot, sky, &budget, self.config.objective);
        let attribution = self.config.regret_attribution;
        let mut regret = self.regret.borrow_mut();
        for_each_regret(hot, sky, &budget, &decision, |i, amount| {
            let row = sky[i];
            let data = rows.missing_data(row);
            if data.is_empty() {
                regret.distribute(rows.missing_nodes(row, exec), amount, attribution);
            } else {
                regret.distribute(data, amount, attribution);
            }
        });
        Planned {
            opts,
            case: decision.case,
            payment: decision.payment,
            profit: decision.profit,
            row: sky[decision.selected],
        }
    }

    /// Payment-only [`Self::serve_from`]: the same budget formation,
    /// skyline partition and case analysis, but returning just the bid.
    /// Quotes never act on the chosen plan or the regret list, so
    /// they materialize no plan and touch no ledger.
    fn select_payment_from(&self, query: &Query, rows: &PlanRows) -> Money {
        let hot = rows.hot();
        let budget = self.budget(query, hot.time[0], hot.price[0]);
        let mut scratch = self.sky_scratch.borrow_mut();
        let SkyScratch { order, sky } = &mut *scratch;
        let _existing = skyline_partition_hot(hot, order, sky);
        select_payment_hot(hot, sky, &budget, self.config.objective)
    }

    /// The user's budget for `query`, formed from its backend plan: the
    /// configured shape at `budget_scale × backend price` with deadline
    /// `patience × backend time`.
    fn budget(
        &self,
        query: &Query,
        backend_time: SimDuration,
        backend_price: Money,
    ) -> BudgetFunction {
        BudgetFunction::of_shape(
            self.config.budget_shape,
            backend_price.scale(query.budget_scale),
            backend_time * self.config.patience,
        )
    }

    /// The bid this manager's budget alone fixes for `query`, whatever
    /// its cache holds: `Some(B_Q)` exactly when
    ///
    /// * the budget shape is [`BudgetShape::Step`],
    /// * the backend row is affordable, and
    /// * no execution row (backend or cache) past the deadline has a
    ///   non-positive execution cost.
    ///
    /// Then [`Self::quote_query`] bids exactly this amount at any cache
    /// state, clock and objective. A plan's price is its row's execution
    /// cost plus installments and maintenance, neither negative, so
    /// every affordable plan runs within the deadline, where the step
    /// pays its full amount. The existing-tier skyline holds a plan at
    /// least as fast and as cheap as the backend, hence affordable too,
    /// so the case analysis lands in case B or C and charges that full
    /// amount. The third condition
    /// is not idle: under zero CPU and I/O rates
    /// ([`pricing::PriceCatalog::network_only`]) cache rows cost nothing,
    /// and a free cached plan past the deadline would be affordable at a
    /// budget of zero.
    ///
    /// `rows` are the query's filled [`ExecRows`], read only once the
    /// shape check passes. `None` says nothing about the bid: the quote
    /// must run.
    #[must_use]
    pub fn budget_decided_bid(&self, query: &Query, rows: &ExecRows) -> Option<Money> {
        if self.config.budget_shape != BudgetShape::Step {
            return None;
        }
        let budget = self.budget(query, rows.backend_time, rows.backend_cost);
        if !budget.affords(rows.backend_time, rows.backend_cost) {
            return None;
        }
        let t_max = budget.t_max();
        if rows
            .rows()
            .any(|(time, cost)| time > t_max && !cost.is_positive())
        {
            return None;
        }
        Some(budget.value_at(rows.backend_time))
    }

    /// All [`Self::budget_decided_bid`] reads of this manager: its budget
    /// shape and patience. Managers with equal keys decide equal bids for
    /// the same query and rows, so a round over many of them evaluates
    /// each distinct key once.
    #[must_use]
    pub fn budget_key(&self) -> BudgetKey {
        BudgetKey {
            shape: self.config.budget_shape,
            patience: self.config.patience,
        }
    }

    /// Recomputes the lower bound on the earliest instant any cached
    /// structure's unpaid maintenance can cross its failure threshold.
    ///
    /// Maintenance accrual is linear in the span (eqs. 11/13/15), so per
    /// structure the crossing time has the closed form
    /// `maint_paid_until + (threshold − forgiven)/rate`; the bound backs
    /// the rate off by a safety margin dominating both float error and
    /// nano-dollar rounding, so skipping the scan below the bound can
    /// never delay an eviction. Settlements only push crossings later
    /// (the capped window forgives less than the span it clears), and
    /// installs feed the bound directly, so it stays conservative between
    /// refreshes.
    fn refresh_failure_bound(&mut self, estimator: &Estimator) {
        let fail_factor = self.config.failure.fail_factor;
        let mut bound = f64::INFINITY;
        for s in self.cache.iter() {
            bound = bound.min(failure_bound_for(s, estimator, fail_factor));
        }
        self.next_failure_check = bound;
    }

    /// Quotes the price `B_Q(t)` this cloud would charge for `query` at
    /// `now` without serving it — the read-only bid of one quote round,
    /// over `exec`, the query's execution rows.
    ///
    /// The quote binds the rows to the cache into the manager's scratch
    /// rows and runs the same skyline and case analysis as
    /// [`process_query`](Self::process_query), but skips its
    /// side effects, so the realized price can differ from the quote in
    /// two ways: serving the query first evicts structures whose
    /// maintenance failed, and it updates the observed arrival statistics
    /// that the enumeration options (amortisation horizon, maintenance
    /// window) derive from. Routers treat quotes as bids, not contracts.
    /// The winner's serve binds the same rows afresh to its cache.
    ///
    /// # Panics
    /// Panics if `exec` was never filled.
    #[must_use]
    pub fn quote_query(
        &self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
    ) -> Money {
        let opts = self.config.enumeration(self.arrival_rate());
        let mut rows = self.rows.borrow_mut();
        bind_plans_into(ctx, exec, &self.cache, now, opts, &mut rows);
        self.select_payment_from(query, &rows)
    }

    /// Builds every structure the investment rule triggers, most regretted
    /// first, re-checking funds as the balance drains.
    fn consider_investments(
        &mut self,
        ctx: &PlannerContext<'_>,
        now: SimTime,
        amortize_n: u64,
    ) -> Vec<(StructureKey, Money)> {
        let mut built = Vec::new();
        // The threshold never falls as the balance grows, so at a balance
        // no lower than the last scan's, a ledger that listed no
        // candidate at that scan's threshold has none at this one.
        let balance = self.account.balance();
        if self.candidates_at.is_some_and(|at| balance >= at)
            && self.regret.get_mut().listed_candidates() == 0
        {
            return built;
        }
        self.candidates_at = Some(balance);
        let threshold = self.config.investment.threshold(balance);
        let mut candidates = std::mem::take(&mut self.candidates);
        self.regret
            .get_mut()
            .candidates_into(threshold, &mut candidates);
        for &(key, regret_value) in &candidates {
            if self.cache.contains(key) {
                // Already built (regret accrued on an existing structure —
                // the "commonly used" signal); clear it.
                self.regret.get_mut().reset(key);
                continue;
            }
            // The balance only falls in this loop, and the threshold with
            // it, so every candidate still clears the threshold: of
            // `should_build`, only the conservative gate can refuse.
            let (cost, time) = self.quote_build(ctx, key);
            let rule = &self.config.investment;
            let funded = rule.funds(self.account.balance(), cost);
            debug_assert_eq!(
                funded,
                rule.should_build(regret_value, self.account.balance(), cost),
                "a candidate clears the threshold at every balance of the loop"
            );
            if !funded {
                continue;
            }
            if self.account.withdraw_investment(cost).is_err() {
                continue;
            }
            let size = match key {
                StructureKey::Column(c) => ctx.schema.column_bytes(c),
                StructureKey::Index(id) => ctx.candidates[id.index()].size_bytes(ctx.schema),
                StructureKey::Node(_) => 0,
            };
            self.cache.install(key, size, now, time, cost, amortize_n);
            self.regret.get_mut().reset(key);
            // The new structure can be the next to fail; fold its crossing
            // time into the failure bound without a full rescan.
            if let Some(s) = self.cache.get(key) {
                let bound = failure_bound_for(s, ctx.estimator, self.config.failure.fail_factor);
                self.next_failure_check = self.next_failure_check.min(bound);
            }
            built.push((key, cost));
        }
        self.candidates = candidates;
        built
    }

    /// Build quote for a structure: (cost, build time).
    fn quote_build(&self, ctx: &PlannerContext<'_>, key: StructureKey) -> (Money, SimDuration) {
        match key {
            StructureKey::Column(c) => ctx.estimator.column_quote(ctx.schema, c),
            StructureKey::Index(id) => {
                let cache = &self.cache;
                ctx.estimator
                    .index_quote(ctx.schema, ctx.candidates, id.index(), |c| {
                        cache.contains(StructureKey::Column(c))
                    })
            }
            StructureKey::Node(_) => ctx.estimator.build_node(),
        }
    }
}

/// Earliest instant (seconds) at which `s`'s unpaid maintenance can
/// exceed `fail_factor × build_cost` — a conservative lower bound on its
/// failure time (see [`EconomyManager::refresh_failure_bound`]).
fn failure_bound_for(s: &CachedStructure, estimator: &Estimator, fail_factor: f64) -> f64 {
    let threshold = s.build_cost.scale(fail_factor);
    if threshold.is_zero() {
        return f64::INFINITY; // zero-threshold structures never fail
    }
    let headroom_nanos = (threshold - s.maint_forgiven).as_nanos();
    if headroom_nanos <= 0 {
        // Already written off past the threshold: any positive accrual
        // fails it. (`> threshold` is strict, so it has not failed *yet*.)
        return s.maint_paid_until.as_secs();
    }
    // Per-second rate sampled over a span long enough that nano-dollar
    // rounding is negligible (|error| ≤ 0.5e-9 $ / 1e9 s).
    const BIG_SPAN_SECS: f64 = 1e9;
    let rate = estimator
        .maintenance(s, SimDuration::from_secs(BIG_SPAN_SECS))
        .as_dollars()
        / BIG_SPAN_SECS;
    if rate <= 0.0 {
        return f64::INFINITY; // free maintenance never accrues debt
    }
    // Back the rate off so the bound under-estimates the crossing even
    // under rounding (+1e-18 dominates the sampling error, the relative
    // margin dominates float arithmetic error), and leave one nano-dollar
    // of headroom for the final charge's round-to-nearest.
    let rate_upper = rate * (1.0 + 1e-9) + 1e-18;
    let safe_span = (headroom_nanos - 1) as f64 / 1e9 / rate_upper;
    s.maint_paid_until.as_secs() + safe_span
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetShape;
    use crate::selection::SelectionObjective;
    use catalog::tpch::{tpch_schema, ScaleFactor};
    use catalog::Schema;
    use planner::{generate_candidates, CostParams, Estimator};
    use pricing::PriceCatalog;
    use simcore::NetworkModel;
    use std::sync::Arc;
    use workload::{paper_templates, WorkloadConfig, WorkloadGenerator};

    struct Fixture {
        schema: Arc<Schema>,
        candidates: Vec<cache::IndexDef>,
        cand_index: planner::CandidateIndex,
        estimator: Estimator,
    }

    impl Fixture {
        fn new(sf: f64) -> Self {
            let schema = Arc::new(tpch_schema(ScaleFactor(sf)));
            let templates = paper_templates(&schema);
            let candidates = generate_candidates(&schema, &templates, 65);
            let cand_index = planner::CandidateIndex::build(&schema, &candidates);
            let estimator = Estimator::new(
                CostParams::default(),
                PriceCatalog::ec2_2009(),
                NetworkModel::paper_sdss(),
            );
            Fixture {
                schema,
                candidates,
                cand_index,
                estimator,
            }
        }

        fn ctx(&self) -> PlannerContext<'_> {
            PlannerContext {
                schema: &self.schema,
                candidates: &self.candidates,
                cand_index: &self.cand_index,
                estimator: &self.estimator,
            }
        }

        fn generator(&self, seed: u64) -> WorkloadGenerator {
            WorkloadGenerator::new(Arc::clone(&self.schema), WorkloadConfig::default(), seed)
        }
    }

    /// A config whose economics bite within a few hundred queries at
    /// SF 10 (the defaults are tuned for the paper's 2.5 TB / 10^6-query
    /// scale, where per-query sums are larger).
    fn fast_config() -> EconConfig {
        EconConfig {
            initial_credit: Money::from_dollars(0.02),
            investment: crate::invest::InvestmentRule {
                min_regret: Money::from_dollars(1e-5),
                ..crate::invest::InvestmentRule::default()
            },
            ..EconConfig::default()
        }
    }

    fn drive(
        fixture: &Fixture,
        manager: &mut EconomyManager,
        seed: u64,
        n: usize,
        gap_secs: f64,
    ) -> Vec<QueryOutcome> {
        let mut gen = fixture.generator(seed);
        let ctx = fixture.ctx();
        (0..n)
            .map(|i| {
                let q = gen.next_query();
                let now = SimTime::from_secs((i + 1) as f64 * gap_secs);
                manager.process_query(&ctx, &q, &ExecRows::build(&ctx, &q), now)
            })
            .collect()
    }

    #[test]
    fn step_budgets_decide_the_bid_before_planning() {
        let f = Fixture::new(10.0);
        let ctx = f.ctx();
        let mut m = EconomyManager::new(fast_config());
        let _ = drive(&f, &mut m, 4, 300, 1.0);
        assert!(!m.cache().is_empty(), "the economy invested");
        let mut gen = f.generator(5);
        for i in 0..20 {
            let q = gen.next_query();
            let rows = ExecRows::build(&ctx, &q);
            let now = SimTime::from_secs(400.0 + f64::from(i));
            let decided = m.budget_decided_bid(&q, &rows);
            assert_eq!(
                decided,
                Some(m.quote_query(&ctx, &q, &rows, now)),
                "query {i}"
            );
            // Below the backend price nothing fixes the bid.
            let mut poor = q.clone();
            poor.budget_scale = 0.5;
            assert_eq!(m.budget_decided_bid(&poor, &rows), None);
        }
        let convex = EconomyManager::new(EconConfig {
            budget_shape: BudgetShape::Convex,
            ..fast_config()
        });
        let q = gen.next_query();
        // Unfilled: only step budgets read the rows.
        assert_eq!(convex.budget_decided_bid(&q, &ExecRows::new()), None);
    }

    #[test]
    fn cold_start_answers_at_the_backend() {
        let f = Fixture::new(1.0);
        let mut m = EconomyManager::new(EconConfig::default());
        let outcomes = drive(&f, &mut m, 1, 1, 1.0);
        assert!(!outcomes[0].ran_in_cache, "nothing cached yet");
        assert!(outcomes[0].payment.is_positive());
    }

    #[test]
    fn economy_invests_and_moves_queries_into_the_cache() {
        let f = Fixture::new(10.0);
        let mut m = EconomyManager::new(fast_config());
        let outcomes = drive(&f, &mut m, 2, 2500, 1.0);
        let invested: usize = outcomes.iter().map(|o| o.investments.len()).sum();
        assert!(invested > 0, "regret should trigger investments");
        let late_cache_hits = outcomes[1500..].iter().filter(|o| o.ran_in_cache).count();
        assert!(
            late_cache_hits > 50,
            "late queries should run in the cache, saw {late_cache_hits}"
        );
    }

    #[test]
    fn ledger_balances_exactly_throughout() {
        let f = Fixture::new(1.0);
        let mut m = EconomyManager::new(EconConfig::default());
        let _ = drive(&f, &mut m, 3, 200, 1.0);
        assert!(m.account().balances_exactly());
        assert_eq!(m.account().payment_count(), 200);
    }

    #[test]
    fn profits_are_never_negative() {
        let f = Fixture::new(1.0);
        let mut m = EconomyManager::new(EconConfig::default());
        for o in drive(&f, &mut m, 4, 200, 1.0) {
            assert!(!o.profit.is_negative(), "profit {:?}", o.profit);
            assert!(o.payment >= o.profit);
        }
    }

    #[test]
    fn economy_beats_a_no_investment_baseline() {
        // The honest form of "self-tuning helps": the same workload run
        // through (a) the economy and (b) a cloud that never invests must
        // show lower mean response time and lower mean user charge for (a).
        // (Early-vs-late windows within one run are confounded by the
        // workload's template-popularity drift.)
        let f = Fixture::new(10.0);
        let mut tuned = EconomyManager::new(fast_config());
        let frozen_cfg = EconConfig {
            initial_credit: Money::ZERO,
            investment: crate::invest::InvestmentRule {
                min_regret: Money::from_dollars(1e12),
                ..crate::invest::InvestmentRule::default()
            },
            ..EconConfig::default()
        };
        let mut frozen = EconomyManager::new(frozen_cfg);
        let a = drive(&f, &mut tuned, 5, 2500, 1.0);
        let b = drive(&f, &mut frozen, 5, 2500, 1.0);
        let mean = |os: &[QueryOutcome]| {
            os.iter().map(|o| o.response_time.as_secs()).sum::<f64>() / os.len() as f64
        };
        let profit = |os: &[QueryOutcome]| os.iter().map(|o| o.profit).sum::<Money>();
        assert!(
            b.iter().all(|o| !o.ran_in_cache),
            "frozen cloud never caches"
        );
        assert!(
            mean(&a) < mean(&b),
            "tuned {:.3}s should beat frozen {:.3}s",
            mean(&a),
            mean(&b)
        );
        // With step budgets the user payment is pinned to the backend
        // price, so the economy's gain shows up as cloud profit (payment −
        // falling plan price), exactly the self-tuning loop of Section IV-A.
        assert!(
            profit(&a) > profit(&b),
            "tuned profit {} should exceed frozen {}",
            profit(&a),
            profit(&b)
        );
    }

    #[test]
    fn column_only_config_never_builds_indexes_or_nodes() {
        let f = Fixture::new(10.0);
        let config = EconConfig {
            allow_indexes: false,
            allow_extra_nodes: false,
            ..fast_config()
        };
        let mut m = EconomyManager::new(config);
        let outcomes = drive(&f, &mut m, 6, 300, 1.0);
        for o in &outcomes {
            for (key, _) in &o.investments {
                assert!(
                    matches!(key, StructureKey::Column(_)),
                    "econ-col built {key}"
                );
            }
        }
    }

    #[test]
    fn conservative_cloud_with_no_credit_builds_nothing() {
        let f = Fixture::new(1.0);
        let config = EconConfig {
            initial_credit: Money::ZERO,
            ..EconConfig::default()
        };
        let mut m = EconomyManager::new(config);
        // Profit trickles in, so eventually it can invest — but in the
        // first handful of queries the balance cannot cover a column build.
        let outcomes = drive(&f, &mut m, 7, 5, 1.0);
        let early_builds: usize = outcomes.iter().map(|o| o.investments.len()).sum();
        assert_eq!(early_builds, 0, "no capital, no builds");
    }

    #[test]
    fn arrival_rate_is_observed() {
        let f = Fixture::new(1.0);
        let mut m = EconomyManager::new(EconConfig::default());
        assert_eq!(m.arrival_rate(), 0.0);
        let _ = drive(&f, &mut m, 8, 11, 2.0);
        assert!(
            (m.arrival_rate() - 0.5).abs() < 1e-9,
            "{}",
            m.arrival_rate()
        );
    }

    #[test]
    fn budget_shape_is_respected() {
        // A concave budget pays more than price for fast plans; the run
        // should still satisfy all invariants.
        let f = Fixture::new(1.0);
        let config = EconConfig {
            budget_shape: BudgetShape::Concave,
            objective: SelectionObjective::MinProfit,
            ..EconConfig::default()
        };
        let mut m = EconomyManager::new(config);
        let outcomes = drive(&f, &mut m, 9, 50, 1.0);
        assert!(outcomes.iter().all(|o| !o.profit.is_negative()));
        assert!(m.account().balances_exactly());
    }

    #[test]
    fn evictions_eventually_happen_when_disk_is_expensive() {
        let f = Fixture::new(10.0);
        // Make disk brutally expensive so built structures fail quickly at
        // long inter-arrival gaps.
        let pricey = PriceCatalog::custom(
            "disk-heavy",
            pricing::ResourceRates {
                disk_byte_per_sec: 1e-11,
                ..PriceCatalog::ec2_2009().rates
            },
            60.0,
        );
        let estimator = Estimator::new(CostParams::default(), pricey, NetworkModel::paper_sdss());
        let fx = Fixture {
            schema: Arc::clone(&f.schema),
            candidates: f.candidates.clone(),
            cand_index: f.cand_index.clone(),
            estimator,
        };
        let mut m = EconomyManager::new(fast_config());
        let outcomes = drive(&fx, &mut m, 10, 400, 60.0);
        let evictions: usize = outcomes.iter().map(|o| o.evictions.len()).sum();
        let builds: usize = outcomes.iter().map(|o| o.investments.len()).sum();
        assert!(builds > 0, "should still build something");
        assert!(
            evictions > 0,
            "expensive disk at long gaps must cause structure failure"
        );
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_queries_rejected() {
        let f = Fixture::new(1.0);
        let mut m = EconomyManager::new(EconConfig::default());
        let mut gen = f.generator(11);
        let ctx = f.ctx();
        let q1 = gen.next_query();
        let q2 = gen.next_query();
        m.process_query(
            &ctx,
            &q1,
            &ExecRows::build(&ctx, &q1),
            SimTime::from_secs(10.0),
        );
        m.process_query(
            &ctx,
            &q2,
            &ExecRows::build(&ctx, &q2),
            SimTime::from_secs(5.0),
        );
    }

    #[test]
    #[should_panic(expected = "invalid economy config")]
    fn bad_config_rejected() {
        let config = EconConfig {
            patience: 0.0,
            ..EconConfig::default()
        };
        let _ = EconomyManager::new(config);
    }
}
