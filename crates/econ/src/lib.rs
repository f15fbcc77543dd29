//! # econ — the paper's economic model (the primary contribution)
//!
//! This crate implements Section IV of *"An Economic Model for Self-Tuned
//! Cloud Caching"* end to end:
//!
//! * [`budget`] — user budget functions `B_Q(t)`: step, convex (linear),
//!   concave and tabulated shapes (Fig. 1), all non-increasing on
//!   `(0, t_max]`.
//! * [`selection`] — the three-way case analysis of Section IV-C
//!   (Fig. 2): Case A (budget below every plan), Case B (budget covers
//!   every plan — pick the plan minimising cloud profit, credit the
//!   profit), Case C (mixed — Case B over the affordable subset), plus the
//!   regret formulas eq. 1 and eq. 2.
//! * [`regret`] — the `regretS` array: rejected-plan regret distributed
//!   uniformly over the plan's structures, LRU-bounded as Section IV-B
//!   prescribes.
//! * [`invest`] — the investment rule eq. 3
//!   (`InvestIn(S) = round(regret_S / (a · CR))`) with the conservative
//!   gate of Section VII-A ("builds structures only when her profit
//!   exceeds the cost of building them").
//! * [`amortize`] — eq. 7 amortisation (`Build/n`) with a fixed horizon or
//!   an arrival-rate-adaptive horizon (the "challenging problem" the paper
//!   defers to future work).
//! * [`account`] — the cloud account: an exactly-balancing ledger of
//!   deposits (query payments) and withdrawals (investments).
//! * [`maintenance`] — structure-failure policy (footnote 3).
//! * [`economy`] — [`economy::EconomyManager`], the per-query control loop
//!   gluing all of the above to the planner and the cache. A fleet's
//!   routers ask competing managers for bids
//!   ([`economy::EconomyManager::quote_query`]). A query's
//!   cache-independent execution rows (`planner::ExecRows`) are filled
//!   once and shared by its bids and its serve; every cache-dependent
//!   term is planned fresh by each.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod account;
pub mod amortize;
pub mod budget;
pub mod config;
pub mod economy;
pub mod invest;
pub mod maintenance;
pub mod outcome;
pub mod regret;
pub mod selection;

pub use account::CloudAccount;
pub use amortize::AmortizationPolicy;
pub use budget::{BudgetFunction, BudgetShape};
pub use config::EconConfig;
pub use economy::{BudgetKey, EconomyManager, PlanCacheStats};
pub use invest::InvestmentRule;
pub use outcome::{QueryOutcome, SelectionCase};
pub use regret::{RegretAttribution, RegretLedger};
pub use selection::{select_plan, select_plan_hot, SelectionObjective};
