//! Workload-trace record → replay roundtrip: a JSONL trace written to
//! disk and read back pins a byte-identical query sequence — the property
//! that makes traces shareable comparison artifacts.

use std::sync::Arc;

use cloudcache::cache::CacheState;
use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::planner::{
    enumerate_plans, generate_candidates, CandidateIndex, CostParams, EnumerationOptions,
    Estimator, PlannerContext,
};
use cloudcache::pricing::PriceCatalog;
use cloudcache::simcore::arrival::PoissonProcess;
use cloudcache::simcore::{NetworkModel, SimDuration, SimRng};
use cloudcache::workload::{paper_templates, Trace, WorkloadConfig, WorkloadGenerator};

fn capture(n: usize, seed: u64) -> Trace {
    let schema = Arc::new(tpch_schema(ScaleFactor(1.0)));
    let mut generator = WorkloadGenerator::new(schema, WorkloadConfig::default(), seed);
    let mut arrivals = PoissonProcess::new(SimDuration::from_secs(1.5));
    let mut rng = SimRng::new(seed ^ 0xA11);
    Trace::capture(&mut generator, &mut arrivals, &mut rng, n)
}

#[test]
fn jsonl_file_roundtrip_is_byte_identical() {
    let trace = capture(200, 11);
    let text = trace.to_jsonl().expect("serializable");

    // Write → read through a real file, as sharing a trace would.
    let path = std::env::temp_dir().join(format!(
        "cloudcache_trace_roundtrip_{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, &text).expect("trace written");
    let read_back = std::fs::read_to_string(&path).expect("trace read");
    std::fs::remove_file(&path).ok();
    assert_eq!(read_back, text, "file transport must be transparent");

    // Parse → reserialize is byte-identical: the format is canonical, so
    // a replayed trace re-recorded produces the same artifact.
    let parsed = Trace::from_jsonl(&read_back).expect("parseable");
    assert_eq!(parsed, trace, "value-level equality");
    let reserialized = parsed.to_jsonl().expect("serializable");
    assert_eq!(reserialized, text, "byte-level equality after roundtrip");
}

/// The JSONL format did not change when queries began sharing their
/// lists: the bytes hash as they did when each query owned its lists.
#[test]
fn jsonl_format_is_unchanged() {
    let text = capture(200, 11).to_jsonl().expect("serializable");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!((text.len(), hash), (83_278, 0xc3d8_15b8_0b21_5ba7));
    assert!(text.starts_with(
        "{\"at_secs\":1.4574556062374506,\"query\":{\"id\":0,\"template\":1,\"mask\":1,\
         \"accesses\":[{\"table\":7,\"columns\":[45,50,51,55],\"predicate_columns\":[55],\
         \"selectivity\":0.000012656172064652777},"
    ));
}

#[test]
fn parsed_queries_hold_equal_lists_of_their_own() {
    let trace = capture(100, 13);
    let parsed = Trace::from_jsonl(&trace.to_jsonl().expect("serializable")).expect("parseable");
    for (live, replayed) in trace.records().iter().zip(parsed.records()) {
        assert_eq!(live.query.lists, replayed.query.lists);
        assert_eq!(live.query.selectivities, replayed.query.selectivities);
        assert!(!Arc::ptr_eq(&live.query.lists, &replayed.query.lists));
    }
}

#[test]
fn replay_preserves_the_exact_query_sequence() {
    let trace = capture(100, 23);
    let text = trace.to_jsonl().expect("serializable");
    let parsed = Trace::from_jsonl(&text).expect("parseable");

    let original: Vec<_> = trace.replay().collect();
    let replayed: Vec<_> = parsed.replay().collect();
    assert_eq!(original.len(), replayed.len());
    for ((at_a, q_a), (at_b, q_b)) in original.iter().zip(&replayed) {
        assert_eq!(at_a.as_secs().to_bits(), at_b.as_secs().to_bits());
        assert_eq!(q_a, q_b);
    }
}

#[test]
fn recording_is_deterministic_per_seed() {
    let a = capture(50, 7).to_jsonl().unwrap();
    let b = capture(50, 7).to_jsonl().unwrap();
    let c = capture(50, 8).to_jsonl().unwrap();
    assert_eq!(a, b, "same seed, same bytes");
    assert_ne!(a, c, "different seed, different trace");
}

#[test]
fn mask_survives_the_jsonl_roundtrip() {
    let trace = capture(300, 31);
    let text = trace.to_jsonl().expect("serializable");
    assert!(
        text.lines().all(|line| line.contains("\"mask\":")),
        "every record carries its mask"
    );
    let parsed = Trace::from_jsonl(&text).expect("parseable");
    let masks = |t: &Trace| {
        t.records()
            .iter()
            .map(|r| r.query.mask)
            .collect::<Vec<u32>>()
    };
    assert_eq!(masks(&parsed), masks(&trace));
    assert!(
        masks(&trace).iter().any(|&m| m != 0),
        "some query drew an optional column"
    );
}

#[test]
fn replayed_trace_enumerates_the_live_rows() {
    let schema = Arc::new(tpch_schema(ScaleFactor(1.0)));
    let candidates = generate_candidates(&schema, &paper_templates(&schema), 65);
    let cand_index = CandidateIndex::build(&schema, &candidates);
    let estimator = Estimator::new(
        CostParams::default(),
        PriceCatalog::ec2_2009(),
        NetworkModel::paper_sdss(),
    );
    let ctx = PlannerContext {
        schema: &schema,
        candidates: &candidates,
        cand_index: &cand_index,
        estimator: &estimator,
    };
    let trace = capture(200, 41);
    let parsed = Trace::from_jsonl(&trace.to_jsonl().expect("serializable")).expect("parseable");
    let cache = CacheState::new();
    let opts = EnumerationOptions::default();
    for ((at, live), (_, replayed)) in trace.replay().zip(parsed.replay()) {
        assert_eq!(
            enumerate_plans(&ctx, live, &cache, at, opts),
            enumerate_plans(&ctx, replayed, &cache, at, opts),
            "query {:?}",
            live.id
        );
    }
}
