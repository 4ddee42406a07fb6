//! Self-tests of the benchmark's own machinery: input determinism, the
//! percentile sample rule, the METRICS diff parser, the span arithmetic,
//! and the catalog `BENCHMARK.json` publishes.

use graphgen_common::metrics::escape_exposition;
use graphgen_perfbench::expo;
use graphgen_perfbench::report::{END_TO_END, PER_LAYER};
use graphgen_perfbench::stats::{percentile, MIN_BEYOND};
use graphgen_perfbench::stream::{imdb_db, ChurnStream, Population, ReadMix};
use graphgen_perfbench::trace::{self_time_by_layer, Span};
use graphgen_perfbench::WORKLOADS;
use graphgen_serve::protocol::{execute, parse_command};
use graphgen_serve::testutil::fig1_db;
use graphgen_serve::GraphService;

fn stream_text(seed: u64, conn: u64, n: usize) -> String {
    let mut mix = ReadMix::new(seed, conn);
    let mut text = String::new();
    for (a, p) in mix.prefill() {
        text.push_str(&format!("prefill {a},{p}\n"));
    }
    for _ in 0..n {
        text.push_str(&mix.next_request().line());
        text.push('\n');
    }
    text
}

#[test]
fn same_seed_gives_a_byte_identical_request_stream() {
    for conn in 0..2 {
        assert_eq!(stream_text(42, conn, 3000), stream_text(42, conn, 3000));
    }
    assert_ne!(stream_text(42, 0, 3000), stream_text(43, 0, 3000));
    assert_ne!(stream_text(42, 0, 3000), stream_text(42, 1, 3000));
    let mix = stream_text(42, 0, 3000);
    for verb in [
        "NEIGHBORS g ",
        "DEGREE g ",
        "APPLY AuthorPub ",
        "ANALYZE g degree",
    ] {
        assert!(mix.contains(verb), "the mix never sends {verb:?}");
    }
}

#[test]
fn same_seed_gives_the_same_database() {
    let rows = |seed| {
        let db = imdb_db(seed, 300);
        let t = db.table("cast_info").unwrap();
        t.iter_rows().collect::<Vec<_>>()
    };
    assert_eq!(rows(5), rows(5));
    assert_ne!(rows(5), rows(6));
    // The seed moves memberships, never the row count.
    assert_eq!(rows(5).len(), rows(6).len());
}

#[test]
fn churn_deletes_only_what_it_inserted_and_keeps_size() {
    let mut churn = ChurnStream::new(9, 0, Population::new(9, 1000, 0.8), 4);
    let prefill = churn.prefill();
    let mut previous = prefill.clone();
    for _ in 0..50 {
        let batch = churn.next_batch();
        assert_eq!(batch.inserts.len(), 8);
        assert_eq!(batch.deletes, previous, "deletes the previous batch's rows");
        assert_eq!(churn.live_rows(), batch.inserts);
        previous = batch.inserts;
    }
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let upto = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(percentile(&upto(19), 0.5), None);
    assert_eq!(percentile(&upto(20), 0.5), Some(10.0));
    assert_eq!(percentile(&upto(99), 0.9), None);
    assert_eq!(percentile(&upto(100), 0.9), Some(90.0));
    assert_eq!(percentile(&upto(999), 0.99), None);
    assert_eq!(percentile(&upto(1000), 0.99), Some(990.0));
    assert_eq!(percentile(&[], 0.5), None);
    // Order of the input does not matter.
    let mut shuffled = upto(100);
    shuffled.reverse();
    assert_eq!(percentile(&shuffled, 0.9), Some(90.0));
}

#[test]
fn metrics_parser_round_trips_a_real_exposition() {
    let service = GraphService::in_memory(fig1_db());
    let run = |line: &str| execute(&service, &parse_command(line).unwrap().unwrap());
    let dsl = "Nodes(ID, Name) :- Author(ID, Name). \
               Edges(A, B) :- AuthorPub(A, P), AuthorPub(B, P).";
    assert!(run(&format!("EXTRACT g {dsl}")).starts_with("OK"));
    let first = run("METRICS");
    assert!(run("NEIGHBORS g 4").starts_with("OK"));
    assert!(run("APPLY AuthorPub +2,3").starts_with("OK"));
    assert!(run("DEGREE g 999").starts_with("ERR"));
    let second = run("METRICS");

    let a = expo::parse_response(&first).unwrap();
    let b = expo::parse_response(&second).unwrap();
    // The wire form decodes to exactly what the service renders.
    let canonical = service.metrics_text();
    let direct = expo::parse(&canonical).unwrap();
    let rewired = expo::parse_response(&format!("OK {}", escape_exposition(&canonical))).unwrap();
    assert_eq!(direct, rewired);
    assert!(direct.len() > 50, "a real exposition has many series");

    let d = b.since(&a);
    // METRICS(first) counts itself after rendering; then NEIGHBORS, APPLY
    // and one ERR line.
    assert_eq!(d.value("graphgen_requests_total").unwrap(), 4.0);
    assert_eq!(d.value("graphgen_request_errors_total").unwrap(), 1.0);
    assert_eq!(d.value("graphgen_applies_total").unwrap(), 1.0);
    assert_eq!(d.value("graphgen_apply_rows_total").unwrap(), 1.0);
    assert_eq!(
        d.value("graphgen_request_ns_count{verb=\"neighbors\"}")
            .unwrap(),
        1.0
    );
    assert!(d.hist_mean("graphgen_apply_ns", "") > 0.0);
    assert!(expo::parse_response("ERR nope").is_err());
}

#[test]
fn self_time_subtracts_covered_child_time() {
    let span = |name: &str, start_ns, end_ns, parent| Span {
        name: name.to_string(),
        start_ns,
        end_ns,
        parent,
    };
    let spans = vec![
        span("client.iteration", 0, 100, None),
        span("core.extract", 10, 70, Some(0)),
        span("reldb.scan", 10, 30, Some(1)),
        span("reldb.join", 25, 50, Some(1)),
        span("algo.pagerank", 80, 95, Some(0)),
    ];
    let by_layer = self_time_by_layer(&spans);
    assert_eq!(by_layer["client"], 100 - 60 - 15);
    assert_eq!(by_layer["core"], 60 - 40);
    assert_eq!(by_layer["reldb"], 20 + 25);
    assert_eq!(by_layer["algo"], 15);
}

/// `"key": "value"` occurrences in document order (the manifest is flat
/// enough that no JSON parser is needed).
fn string_values(text: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            rest[..rest.find('"').unwrap()].to_string()
        })
        .collect()
}

#[test]
fn benchmark_manifest_matches_the_catalog() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let mut expected: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    expected.extend(END_TO_END.iter().map(|d| d.name.to_string()));
    expected.extend(PER_LAYER.iter().map(|d| d.name.to_string()));
    assert_eq!(string_values(&manifest, "name"), expected);
    let units: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| d.unit.to_string())
        .collect();
    assert_eq!(string_values(&manifest, "unit"), units);
}
