//! The seven TPC-H query templates of the paper's workload.
//!
//! The paper reuses the workload of Malik et al. (SMDB 2008) — "7 TPCH
//! query templates". The concrete seven are not listed, so we pick the
//! seven whose access patterns span the interesting regimes for a column
//! cache (heavy scan, selective range, multi-way join, large result):
//! Q1, Q3, Q5, Q6, Q10, Q14 and Q18 — a standard choice for cache studies.
//!
//! A template records *which columns* each table contributes, *which
//! predicates* are sargable (indexable), how instance selectivity is drawn,
//! and how result size is derived. Selectivity ranges are tuned so result
//! sizes land in the multi-megabyte "result heavy" regime the paper's
//! Section VI calls out for SDSS-like workloads.

use catalog::{ColumnId, Schema};

use crate::query::{QueryLists, TableAccess};
use serde::Serialize;

/// Index of a template within the workload's template set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct TemplateId(pub usize);

/// Declarative table access of a template (column names are qualified).
#[derive(Debug, Clone)]
pub struct AccessSpec {
    /// Table name.
    pub table: &'static str,
    /// Columns always read.
    pub required: &'static [&'static str],
    /// Columns read by some instances only (projection variability keeps
    /// column-caching decisions non-trivial).
    pub optional: &'static [&'static str],
    /// Columns carrying sargable predicates.
    pub predicates: &'static [&'static str],
    /// Local selectivity = driving selectivity × this factor (min 1.0 cap).
    pub selectivity_factor: f64,
}

/// Declarative template.
#[derive(Debug, Clone)]
pub struct TemplateSpec {
    /// Template name, e.g. `"q6_forecast_revenue"`.
    pub name: &'static str,
    /// Table accesses; first is the driving table.
    pub accesses: &'static [AccessSpec],
    /// ORDER BY / GROUP BY columns (qualified).
    pub sort_columns: &'static [&'static str],
    /// Driving-table selectivity is drawn log-uniform from
    /// `10^lo ..= 10^hi`.
    pub sel_log10_range: (f64, f64),
    /// Result rows = driving rows × selectivity × fanout, capped below.
    pub result_fanout: f64,
    /// Hard cap on result rows (aggregation templates return few rows).
    pub result_rows_cap: u64,
    /// Bytes per result row.
    pub result_row_width: u64,
}

/// A template with its column names resolved against a schema.
#[derive(Debug, Clone)]
pub struct ResolvedTemplate {
    /// Position in the template set.
    pub id: TemplateId,
    /// Template name.
    pub name: String,
    /// Resolved accesses: (table id, required cols, optional cols,
    /// predicate cols, selectivity factor).
    pub accesses: Vec<ResolvedAccess>,
    /// Resolved sort columns.
    pub sort_columns: Vec<ColumnId>,
    /// Log-uniform selectivity exponent range.
    pub sel_log10_range: (f64, f64),
    /// Result-size model.
    pub result_fanout: f64,
    /// Cap on result rows.
    pub result_rows_cap: u64,
    /// Bytes per result row.
    pub result_row_width: u64,
}

impl ResolvedTemplate {
    /// The lists of this template's queries that drew the optional columns
    /// named by `mask` (see [`crate::Query::mask`]): each access reads its
    /// required columns, then its drawn optional ones in declaration order.
    #[must_use]
    pub fn lists(&self, mask: u32) -> QueryLists {
        let mut bit = 0;
        let accesses = self
            .accesses
            .iter()
            .map(|a| {
                let mut columns = a.required.clone();
                for &opt in &a.optional {
                    if mask & (1 << bit) != 0 {
                        columns.push(opt);
                    }
                    bit += 1;
                }
                TableAccess {
                    table: a.table,
                    columns,
                    predicate_columns: a.predicates.clone(),
                }
            })
            .collect();
        QueryLists {
            accesses,
            sort_columns: self.sort_columns.clone(),
        }
    }
}

/// Resolved per-table access.
#[derive(Debug, Clone)]
pub struct ResolvedAccess {
    /// Table id.
    pub table: catalog::TableId,
    /// Always-read columns.
    pub required: Vec<ColumnId>,
    /// Sometimes-read columns.
    pub optional: Vec<ColumnId>,
    /// Sargable predicate columns.
    pub predicates: Vec<ColumnId>,
    /// Local selectivity factor relative to driving selectivity.
    pub selectivity_factor: f64,
}

/// The seven specs (TPC-H Q1, Q3, Q5, Q6, Q10, Q14, Q18).
#[must_use]
pub fn paper_template_specs() -> Vec<TemplateSpec> {
    vec![
        TemplateSpec {
            // Q1: pricing summary report — wide lineitem scan, tiny result.
            name: "q1_pricing_summary",
            accesses: &[AccessSpec {
                table: "lineitem",
                required: &[
                    "lineitem.l_returnflag",
                    "lineitem.l_linestatus",
                    "lineitem.l_quantity",
                    "lineitem.l_extendedprice",
                    "lineitem.l_discount",
                    "lineitem.l_shipdate",
                ],
                optional: &["lineitem.l_tax"],
                predicates: &["lineitem.l_shipdate"],
                selectivity_factor: 1.0,
            }],
            sort_columns: &["lineitem.l_returnflag", "lineitem.l_linestatus"],
            sel_log10_range: (-4.2, -3.2),
            result_fanout: 1.0,
            result_rows_cap: 6,
            result_row_width: 200,
        },
        TemplateSpec {
            // Q3: shipping priority — customer ⋈ orders ⋈ lineitem.
            name: "q3_shipping_priority",
            accesses: &[
                AccessSpec {
                    table: "lineitem",
                    required: &[
                        "lineitem.l_orderkey",
                        "lineitem.l_extendedprice",
                        "lineitem.l_discount",
                        "lineitem.l_shipdate",
                    ],
                    optional: &[],
                    predicates: &["lineitem.l_shipdate"],
                    selectivity_factor: 1.0,
                },
                AccessSpec {
                    table: "orders",
                    required: &[
                        "orders.o_orderkey",
                        "orders.o_orderdate",
                        "orders.o_shippriority",
                    ],
                    optional: &["orders.o_custkey"],
                    predicates: &["orders.o_orderdate"],
                    selectivity_factor: 2.0,
                },
                AccessSpec {
                    table: "customer",
                    required: &["customer.c_custkey", "customer.c_mktsegment"],
                    optional: &[],
                    predicates: &["customer.c_mktsegment"],
                    selectivity_factor: 20.0,
                },
            ],
            sort_columns: &["orders.o_orderdate"],
            sel_log10_range: (-5.0, -3.8),
            result_fanout: 4.0,
            result_rows_cap: 500_000,
            result_row_width: 44,
        },
        TemplateSpec {
            // Q5: local supplier volume — 6-way join, grouped result.
            name: "q5_local_supplier",
            accesses: &[
                AccessSpec {
                    table: "lineitem",
                    required: &[
                        "lineitem.l_orderkey",
                        "lineitem.l_suppkey",
                        "lineitem.l_extendedprice",
                        "lineitem.l_discount",
                    ],
                    optional: &[],
                    predicates: &[],
                    selectivity_factor: 1.0,
                },
                AccessSpec {
                    table: "orders",
                    required: &["orders.o_orderkey", "orders.o_orderdate"],
                    optional: &["orders.o_custkey"],
                    predicates: &["orders.o_orderdate"],
                    selectivity_factor: 1.0,
                },
                AccessSpec {
                    table: "supplier",
                    required: &["supplier.s_suppkey", "supplier.s_nationkey"],
                    optional: &[],
                    predicates: &[],
                    selectivity_factor: 200.0,
                },
                AccessSpec {
                    table: "nation",
                    required: &["nation.n_nationkey", "nation.n_name", "nation.n_regionkey"],
                    optional: &[],
                    predicates: &["nation.n_regionkey"],
                    selectivity_factor: 1e9, // tiny table: effectively 20%
                },
            ],
            sort_columns: &["nation.n_name"],
            sel_log10_range: (-4.5, -3.5),
            result_fanout: 1.0,
            result_rows_cap: 25,
            result_row_width: 60,
        },
        TemplateSpec {
            // Q6: forecasting revenue change — selective scan, 1-row result.
            name: "q6_forecast_revenue",
            accesses: &[AccessSpec {
                table: "lineitem",
                required: &[
                    "lineitem.l_extendedprice",
                    "lineitem.l_discount",
                    "lineitem.l_quantity",
                    "lineitem.l_shipdate",
                ],
                optional: &[],
                predicates: &["lineitem.l_shipdate", "lineitem.l_discount"],
                selectivity_factor: 1.0,
            }],
            sort_columns: &[],
            sel_log10_range: (-4.5, -3.5),
            result_fanout: 1.0,
            result_rows_cap: 1,
            result_row_width: 16,
        },
        TemplateSpec {
            // Q10: returned item reporting — big join, result-heavy.
            name: "q10_returned_items",
            accesses: &[
                AccessSpec {
                    table: "lineitem",
                    required: &[
                        "lineitem.l_orderkey",
                        "lineitem.l_returnflag",
                        "lineitem.l_extendedprice",
                        "lineitem.l_discount",
                    ],
                    optional: &[],
                    predicates: &["lineitem.l_returnflag"],
                    selectivity_factor: 1.0,
                },
                AccessSpec {
                    table: "orders",
                    required: &[
                        "orders.o_orderkey",
                        "orders.o_custkey",
                        "orders.o_orderdate",
                    ],
                    optional: &[],
                    predicates: &["orders.o_orderdate"],
                    selectivity_factor: 3.0,
                },
                AccessSpec {
                    table: "customer",
                    required: &[
                        "customer.c_custkey",
                        "customer.c_name",
                        "customer.c_acctbal",
                        "customer.c_nationkey",
                    ],
                    optional: &[
                        "customer.c_phone",
                        "customer.c_address",
                        "customer.c_comment",
                    ],
                    predicates: &[],
                    selectivity_factor: 50.0,
                },
            ],
            sort_columns: &["customer.c_acctbal"],
            sel_log10_range: (-4.8, -3.6),
            result_fanout: 8.0,
            result_rows_cap: 300_000,
            result_row_width: 175,
        },
        TemplateSpec {
            // Q14: promotion effect — lineitem ⋈ part over one month.
            name: "q14_promotion_effect",
            accesses: &[
                AccessSpec {
                    table: "lineitem",
                    required: &[
                        "lineitem.l_partkey",
                        "lineitem.l_extendedprice",
                        "lineitem.l_discount",
                        "lineitem.l_shipdate",
                    ],
                    optional: &[],
                    predicates: &["lineitem.l_shipdate"],
                    selectivity_factor: 1.0,
                },
                AccessSpec {
                    table: "part",
                    required: &["part.p_partkey", "part.p_type"],
                    optional: &[],
                    predicates: &[],
                    selectivity_factor: 30.0,
                },
            ],
            sort_columns: &[],
            sel_log10_range: (-4.2, -3.4),
            result_fanout: 1.0,
            result_rows_cap: 1,
            result_row_width: 16,
        },
        TemplateSpec {
            // Q18: large-volume customers — join + HAVING, sizable result.
            name: "q18_large_customers",
            accesses: &[
                AccessSpec {
                    table: "lineitem",
                    required: &["lineitem.l_orderkey", "lineitem.l_quantity"],
                    optional: &[],
                    predicates: &["lineitem.l_quantity"],
                    selectivity_factor: 1.0,
                },
                AccessSpec {
                    table: "orders",
                    required: &[
                        "orders.o_orderkey",
                        "orders.o_custkey",
                        "orders.o_orderdate",
                        "orders.o_totalprice",
                    ],
                    optional: &[],
                    predicates: &[],
                    selectivity_factor: 2.0,
                },
                AccessSpec {
                    table: "customer",
                    required: &["customer.c_custkey", "customer.c_name"],
                    optional: &[],
                    predicates: &[],
                    selectivity_factor: 40.0,
                },
            ],
            sort_columns: &["orders.o_totalprice", "orders.o_orderdate"],
            sel_log10_range: (-5.2, -4.0),
            result_fanout: 6.0,
            result_rows_cap: 200_000,
            result_row_width: 70,
        },
    ]
}

/// Resolves the seven specs against a schema.
///
/// # Panics
/// Panics if the schema is missing any referenced table or column (i.e. it
/// is not a TPC-H schema from [`catalog::tpch`]).
#[must_use]
pub fn paper_templates(schema: &Schema) -> Vec<ResolvedTemplate> {
    paper_template_specs()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| resolve(schema, TemplateId(i), &spec))
        .collect()
}

fn resolve_cols(schema: &Schema, names: &[&str]) -> Vec<ColumnId> {
    names
        .iter()
        .map(|q| {
            schema
                .column_by_name(q)
                .unwrap_or_else(|| panic!("schema is missing column `{q}`"))
                .id
        })
        .collect()
}

fn resolve(schema: &Schema, id: TemplateId, spec: &TemplateSpec) -> ResolvedTemplate {
    let accesses = spec
        .accesses
        .iter()
        .map(|a| ResolvedAccess {
            table: schema
                .table_by_name(a.table)
                .unwrap_or_else(|| panic!("schema is missing table `{}`", a.table))
                .id,
            required: resolve_cols(schema, a.required),
            optional: resolve_cols(schema, a.optional),
            predicates: resolve_cols(schema, a.predicates),
            selectivity_factor: a.selectivity_factor,
        })
        .collect();
    ResolvedTemplate {
        id,
        name: spec.name.to_owned(),
        accesses,
        sort_columns: resolve_cols(schema, spec.sort_columns),
        sel_log10_range: spec.sel_log10_range,
        result_fanout: spec.result_fanout,
        result_rows_cap: spec.result_rows_cap,
        result_row_width: spec.result_row_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::tpch::{tpch_schema, ScaleFactor};

    #[test]
    fn seven_templates_resolve_against_tpch() {
        let schema = tpch_schema(ScaleFactor(1.0));
        let ts = paper_templates(&schema);
        assert_eq!(ts.len(), 7);
        for t in &ts {
            assert!(!t.accesses.is_empty(), "{} has no accesses", t.name);
            assert!(
                t.sel_log10_range.0 <= t.sel_log10_range.1,
                "{} has inverted selectivity range",
                t.name
            );
        }
    }

    #[test]
    fn driving_table_is_lineitem_for_scan_templates() {
        let schema = tpch_schema(ScaleFactor(1.0));
        let ts = paper_templates(&schema);
        let lineitem = schema.table_by_name("lineitem").unwrap().id;
        for t in &ts {
            assert_eq!(
                t.accesses[0].table, lineitem,
                "{} should drive from lineitem",
                t.name
            );
        }
    }

    #[test]
    fn every_predicate_column_is_also_required() {
        // An index plan must be able to find its key among the accessed
        // columns; the specs keep predicates ⊆ required.
        let schema = tpch_schema(ScaleFactor(1.0));
        for t in paper_templates(&schema) {
            for a in &t.accesses {
                for p in &a.predicates {
                    assert!(
                        a.required.contains(p) || a.optional.contains(p),
                        "{}: predicate column {p} not accessed",
                        t.name
                    );
                }
            }
        }
    }

    #[test]
    fn template_names_are_unique() {
        let specs = paper_template_specs();
        let mut names: Vec<_> = specs.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn templates_cover_result_heavy_and_aggregate_regimes() {
        let specs = paper_template_specs();
        assert!(specs.iter().any(|s| s.result_rows_cap <= 10));
        assert!(specs.iter().any(|s| s.result_rows_cap >= 200_000));
    }
}
