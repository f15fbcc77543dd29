//! The paper-claim tests: the qualitative *shape* of Figures 4 and 5 must
//! reproduce (see "Deviations from the paper" in PAPER.md for what
//! "reproduced" means — absolute dollars and seconds depend on the
//! authors' unpublished trace).
//!
//! All assertions run against one shared grid (SF 2500 ≈ the paper's
//! 2.5 TB backend, 400 k queries per cell) computed once.

use std::sync::OnceLock;

use cloudcache::simulator::{run_simulation, RunResult, Scheme, SimConfig};

const SF: f64 = 2500.0;
const QUERIES: u64 = 400_000;

struct Grid {
    /// `[interval][scheme]` with schemes in paper order:
    /// bypass, econ-col, econ-cheap, econ-fast.
    at_1s: Vec<RunResult>,
    at_60s: Vec<RunResult>,
}

fn grid() -> &'static Grid {
    static GRID: OnceLock<Grid> = OnceLock::new();
    GRID.get_or_init(|| {
        let run_interval = |interval: f64| -> Vec<RunResult> {
            std::thread::scope(|scope| {
                let handles: Vec<_> = Scheme::paper_schemes()
                    .into_iter()
                    .map(|scheme| {
                        let cfg = SimConfig::paper_cell(scheme, interval, SF, QUERIES);
                        scope.spawn(move || run_simulation(cfg))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        Grid {
            at_1s: run_interval(1.0),
            at_60s: run_interval(60.0),
        }
    })
}

fn cost(r: &RunResult) -> f64 {
    r.total_operating_cost().as_dollars()
}

const BYPASS: usize = 0;
const ECON_COL: usize = 1;
const ECON_CHEAP: usize = 2;
const ECON_FAST: usize = 3;

#[test]
fn claim_1_operating_cost_is_viable_for_all_schemes() {
    // Fig. 4: "the cost of operating a cache is reasonable for all caching
    // schemes" — no scheme blows up (all within 3x of the cheapest).
    for cells in [&grid().at_1s, &grid().at_60s] {
        let min = cells.iter().map(cost).fold(f64::INFINITY, f64::min);
        for r in cells.iter() {
            assert!(
                cost(r) < 3.0 * min,
                "{} cost ${:.0} vs cheapest ${:.0}",
                r.scheme,
                cost(r),
                min
            );
        }
    }
}

#[test]
fn claim_2_econ_col_tracks_bypass_response_but_costs_less() {
    // Fig. 5: "the response time of net-only and econ-col are similar";
    // Fig. 4: "the cost for using these structures, however, is lower for
    // econ-col" (≈7% at 1 s in the paper).
    let g = &grid().at_1s;
    let ratio = g[ECON_COL].mean_response_secs() / g[BYPASS].mean_response_secs();
    assert!(
        (0.75..=1.15).contains(&ratio),
        "econ-col/bypass response ratio {ratio:.2} not 'similar'"
    );
    assert!(
        cost(&g[ECON_COL]) < cost(&g[BYPASS]),
        "econ-col ${:.0} must undercut bypass ${:.0}",
        cost(&g[ECON_COL]),
        cost(&g[BYPASS])
    );
}

#[test]
fn claim_3_econ_cheap_is_faster_and_cheaper_than_the_baselines() {
    // Fig. 4/5 at 1 s: econ-cheap responds faster than econ-col (indexes)
    // and is the cheap scheme overall ("about 45% cheaper than net-only"
    // in the paper's run; the direction is the claim).
    let g = &grid().at_1s;
    assert!(
        g[ECON_CHEAP].mean_response_secs() < g[ECON_COL].mean_response_secs(),
        "econ-cheap {:.2}s !< econ-col {:.2}s",
        g[ECON_CHEAP].mean_response_secs(),
        g[ECON_COL].mean_response_secs()
    );
    assert!(
        cost(&g[ECON_CHEAP]) < cost(&g[BYPASS]),
        "econ-cheap ${:.0} !< bypass ${:.0}",
        cost(&g[ECON_CHEAP]),
        cost(&g[BYPASS])
    );
    assert!(
        cost(&g[ECON_CHEAP]) < cost(&g[ECON_COL]),
        "econ-cheap ${:.0} !< econ-col ${:.0}",
        cost(&g[ECON_CHEAP]),
        cost(&g[ECON_COL])
    );
}

#[test]
fn claim_4_econ_fast_trades_money_for_speed() {
    // Fig. 5: "econ-fast further reduces the response time"; Fig. 4: "the
    // coordinator pays the overhead for the initialization of the extra
    // CPU nodes".
    let g = &grid().at_1s;
    assert!(
        g[ECON_FAST].mean_response_secs() <= g[ECON_CHEAP].mean_response_secs() * 1.01,
        "econ-fast {:.3}s should not lag econ-cheap {:.3}s",
        g[ECON_FAST].mean_response_secs(),
        g[ECON_CHEAP].mean_response_secs()
    );
    assert!(
        g[ECON_FAST].mean_response_secs() < g[ECON_COL].mean_response_secs(),
        "econ-fast must beat the index-less scheme"
    );
    assert!(
        cost(&g[ECON_FAST]) >= cost(&g[ECON_CHEAP]),
        "econ-fast ${:.0} should not be cheaper than econ-cheap ${:.0}",
        cost(&g[ECON_FAST]),
        cost(&g[ECON_CHEAP])
    );
}

#[test]
fn claim_5_cost_grows_with_the_interarrival_interval() {
    // Fig. 4: "As the time interval increases, the cost increases, too,
    // because of the extra cost of disk storage" (and per-use backend
    // spending spread over a longer horizon).
    let (g1, g60) = (&grid().at_1s, &grid().at_60s);
    for (a, b) in g1.iter().zip(g60.iter()) {
        assert!(
            cost(b) > cost(a),
            "{}: cost at 60s (${:.0}) must exceed cost at 1s (${:.0})",
            a.scheme,
            cost(b),
            cost(a)
        );
    }
}

#[test]
fn claim_6_econ_col_undercuts_econ_cheap_at_60s() {
    // Fig. 4: "The cost of econ-col is lower than that of econ-cheap for
    // the 60-seconds interval, because the first uses less disk space".
    let g = &grid().at_60s;
    assert!(
        cost(&g[ECON_COL]) < cost(&g[ECON_CHEAP]),
        "econ-col ${:.0} !< econ-cheap ${:.0} at 60s",
        cost(&g[ECON_COL]),
        cost(&g[ECON_CHEAP])
    );
}

#[test]
fn claim_7_adaptive_schemes_lose_ground_at_long_intervals() {
    // Fig. 5: "The response times for econ-cheap and econ-fast increase
    // with the increment of the inter-query interval", while bypass stays
    // flat (its yield rule ignores disk rent entirely).
    let (g1, g60) = (&grid().at_1s, &grid().at_60s);
    for idx in [ECON_CHEAP, ECON_FAST] {
        assert!(
            g60[idx].mean_response_secs() > g1[idx].mean_response_secs(),
            "{} response must degrade from 1s to 60s",
            g1[idx].scheme
        );
    }
    let bypass_drift =
        (g60[BYPASS].mean_response_secs() / g1[BYPASS].mean_response_secs() - 1.0).abs();
    assert!(
        bypass_drift < 0.10,
        "bypass response should stay ≈ flat, drifted {:.1}%",
        bypass_drift * 100.0
    );
}

#[test]
fn claim_8_the_economy_actually_caches_at_short_intervals() {
    // The self-tuning loop must be visibly on: investments happen and a
    // sizeable share of queries run in the cache at the 1 s point.
    let g = &grid().at_1s;
    for idx in [ECON_COL, ECON_CHEAP, ECON_FAST] {
        assert!(g[idx].investments > 0, "{} never invested", g[idx].scheme);
        assert!(
            g[idx].hit_rate() > 0.10,
            "{} hit rate {:.1}% too low",
            g[idx].scheme,
            g[idx].hit_rate() * 100.0
        );
    }
    // And the disk-cost story of Section VII-B: at 1 s the disk share of
    // the econ schemes is small.
    let disk_share = g[ECON_CHEAP].operating.disk.as_dollars() / cost(&g[ECON_CHEAP]);
    assert!(
        disk_share < 0.25,
        "disk share at 1s should be minor, got {:.1}%",
        disk_share * 100.0
    );
}
