//! Property-based tests (proptest) over the core engine:
//!
//! * the engine agrees with the brute-force oracle (`tests/oracle`) on
//!   arbitrary streams, for plain and negated patterns, and `INTO`
//!   composition replays identically on every deployment — scenarios of
//!   the differential harness (`tests/scenarios`),
//! * the canonical printer and parser round-trip,
//! * structural invariants of emitted matches and runtime counters.

mod oracle;
mod scenarios;

use proptest::prelude::*;

use oracle::harness::{arb_stream, materialize};
use sase::core::functions::FunctionRegistry;
use sase::core::lang::parse_query;
use sase::core::plan::Planner;
use sase::core::runtime::QueryRuntime;
use scenarios::{property, Draw, Shape, Step};

// ---------------------------------------------------------------------------
// The engine against the oracle
// ---------------------------------------------------------------------------

/// Arbitrary soups under one template of the harness's `RETAIL`, with a
/// random window and literal, on the reference engine alone: over the
/// whole stream, every match it emits and only those must be the oracle's.
fn engine_matches_oracle(name: &str, cases: u32, template: &'static [usize; 1]) {
    let draw = Draw {
        shape: Some(Shape::Soup),
        templates: Some(template),
        ..Draw::default()
    };
    let tally = property(name, cases, draw, |_, s| {
        s.columns.clear();
        // The query stays registered, and no stale event cuts a batch.
        s.script.retain(|step| !matches!(step, Step::Unregister(_)));
        for step in &mut s.script {
            if let Step::Batch(_, events) = step {
                events.retain(|e| e.timestamp() > 0);
            }
        }
    });
    let judged = tally.judged_by.get("q0").copied().unwrap_or(0);
    assert!(judged > 0, "the oracle judged no match of the query");
}

/// `SEQ(SHELF_READING x, EXIT_READING z)` on equal tags.
#[test]
fn ssc_matches_brute_force_seq2() {
    engine_matches_oracle("ssc_matches_brute_force_seq2", 64, &[0]);
}

/// Q1 of the paper: a shelf reading, no counter reading, an exit reading.
#[test]
fn ssc_matches_brute_force_q1_negation() {
    engine_matches_oracle("ssc_matches_brute_force_q1_negation", 64, &[1]);
}

/// Three steps under the `[TagId]` equivalence shorthand.
#[test]
fn ssc_matches_brute_force_seq3() {
    engine_matches_oracle("ssc_matches_brute_force_seq3", 48, &[2]);
}

/// The derived-stream path is deterministic: the `pairs` and `moves`
/// producers and a `moves` consumer, re-ingesting their `INTO` events,
/// replay byte for byte on every column each scenario draws.
#[test]
fn into_composition_deterministic() {
    let draw = Draw {
        shape: Some(Shape::Soup),
        templates: Some(&[24, 17, 18]),
        ..Draw::default()
    };
    let tally = property("into_composition_deterministic", 48, draw, |_, _| {});
    assert!(tally.columns.len() >= 48);
}

const Q1: &str = "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) \
                  WHERE x.TagId = y.TagId AND x.TagId = z.TagId WITHIN 10";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_are_well_formed(raw in arb_stream(60)) {
        let registry = sase::core::event::retail_registry();
        let events = materialize(&registry, &raw);
        let planner = Planner::new(registry.clone(), FunctionRegistry::with_stdlib());
        let q = parse_query(Q1).unwrap();
        let plan = planner.plan(&q).unwrap();
        let mut rt = QueryRuntime::new("prop", plan);
        let mut out = Vec::new();
        for e in &events {
            rt.process(e, &mut out).unwrap();
        }
        for ce in &out {
            prop_assert_eq!(ce.events.len(), 2);
            prop_assert_eq!(ce.events[0].type_name(), "SHELF_READING");
            prop_assert_eq!(ce.events[1].type_name(), "EXIT_READING");
            prop_assert!(ce.events[0].timestamp() < ce.events[1].timestamp());
            prop_assert!(ce.events[1].timestamp() - ce.events[0].timestamp() <= 10);
            prop_assert_eq!(
                ce.events[0].attr("TagId"),
                ce.events[1].attr("TagId")
            );
            prop_assert_eq!(ce.detected_at, ce.events[1].timestamp());
        }
    }

    #[test]
    fn parser_round_trips_generated_queries(
        window in 1u64..5000,
        area in 0i64..10,
        use_neg in any::<bool>(),
        use_equiv in any::<bool>(),
        use_return in any::<bool>(),
    ) {
        let pattern = if use_neg {
            "SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z)"
        } else {
            "SEQ(SHELF_READING x, EXIT_READING z)"
        };
        let where_clause = if use_equiv {
            format!("WHERE [TagId] AND x.AreaId = {area}")
        } else {
            format!("WHERE x.TagId = z.TagId AND x.AreaId != {area}")
        };
        let ret = if use_return {
            "\nRETURN x.TagId, z.AreaId AS exit_area, count(*)"
        } else {
            ""
        };
        let src = format!("EVENT {pattern}\n{where_clause}\nWITHIN {window}{ret}");
        let q1 = parse_query(&src).unwrap();
        let q2 = parse_query(&q1.to_string()).unwrap();
        prop_assert_eq!(q1, q2);
    }

    #[test]
    fn stats_invariants(raw in arb_stream(60)) {
        let registry = sase::core::event::retail_registry();
        let events = materialize(&registry, &raw);
        let planner = Planner::new(registry.clone(), FunctionRegistry::with_stdlib());
        let q = parse_query(Q1).unwrap();
        let plan = planner.plan(&q).unwrap();
        let mut rt = QueryRuntime::new("prop", plan);
        let mut out = Vec::new();
        for e in &events {
            rt.process(e, &mut out).unwrap();
        }
        let s = rt.stats();
        prop_assert_eq!(s.events_processed as usize, events.len());
        prop_assert_eq!(s.matches_emitted as usize, out.len());
        prop_assert_eq!(
            s.sequences_constructed,
            s.matches_emitted + s.dropped_by_negation
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The event database holds SELECT/INSERT consistency under random rows.
    #[test]
    fn sql_insert_select_consistency(rows in prop::collection::vec((0i64..20, 1i64..5), 1..60)) {
        let db = sase::db::Database::new();
        db.execute("CREATE TABLE t (item int, area int)").unwrap();
        db.execute("CREATE INDEX ON t (item)").unwrap();
        for (item, area) in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({item}, {area})")).unwrap();
        }
        let total = db.query("SELECT count(*) FROM t").unwrap();
        prop_assert_eq!(total.rows[0][0].as_int().unwrap() as usize, rows.len());
        // Per-item counts via the index path match the naive count.
        for probe in 0..20i64 {
            let rs = db
                .query(&format!("SELECT count(*) FROM t WHERE item = {probe}"))
                .unwrap();
            let want = rows.iter().filter(|(i, _)| *i == probe).count();
            prop_assert_eq!(rs.rows[0][0].as_int().unwrap() as usize, want);
        }
    }

    /// Location-store invariant: at most one open stay per item; history
    /// intervals are contiguous and ordered.
    #[test]
    fn location_history_invariants(moves in prop::collection::vec((0i64..5, 1i64..6), 1..40)) {
        let store = sase::db::LocationStore::open(sase::db::Database::new()).unwrap();
        let mut ts = 0i64;
        for (item, area) in &moves {
            ts += 1;
            store.update_location(*item, *area, ts).unwrap();
        }
        for item in 0..5i64 {
            let hist = store.history(item).unwrap();
            let open = hist.iter().filter(|s| s.time_out == sase::db::OPEN).count();
            prop_assert!(open <= 1);
            for w in hist.windows(2) {
                prop_assert_eq!(w[0].time_out, w[1].time_in, "contiguous stays");
                prop_assert!(w[0].time_in < w[1].time_in);
                prop_assert!(w[0].area != w[1].area, "no-op moves are skipped");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Language round-trip: parse -> AST -> pretty-print -> reparse == same AST
// ---------------------------------------------------------------------------

/// Deterministic generator of syntactically valid (if semantically wild)
/// SASE query strings, driven by a proptest-supplied seed. Covers every
/// printable construct: FROM/INTO, multi-component SEQ with ANY and
/// negation, all binary/unary operators with nested parentheses, the
/// equivalence shorthand, function calls, literals, WITHIN units, and
/// RETURN scalars/aggregates with aliases.
mod query_gen {
    use rand::rngs::StdRng;
    use rand::Rng;

    const ATTRS: [&str; 3] = ["TagId", "ProductName", "AreaId"];
    const TYPES: [&str; 4] = [
        "SHELF_READING",
        "COUNTER_READING",
        "EXIT_READING",
        "BACKROOM_READING",
    ];
    const UNITS: [&str; 5] = ["units", "seconds", "minutes", "hours", "days"];
    const CMPS: [&str; 6] = ["=", "!=", "<", "<=", ">", ">="];
    const ARITH: [&str; 5] = ["+", "-", "*", "/", "%"];

    fn attr(rng: &mut StdRng) -> &'static str {
        ATTRS[rng.gen_range(0..ATTRS.len())]
    }

    /// A scalar (non-boolean) expression over the bound variables.
    fn scalar(rng: &mut StdRng, vars: &[String], depth: u32) -> String {
        match rng.gen_range(0..if depth == 0 { 4u32 } else { 7 }) {
            0 => format!("{}", rng.gen_range(0i64..1000)),
            1 => format!("'{}'", ["soap", "milk", "tea"][rng.gen_range(0..3usize)]),
            2 | 3 => format!("{}.{}", vars[rng.gen_range(0..vars.len())], attr(rng)),
            4 => format!("-({})", scalar(rng, vars, depth - 1)),
            5 => {
                let op = ARITH[rng.gen_range(0..ARITH.len())];
                format!(
                    "({} {} {})",
                    scalar(rng, vars, depth - 1),
                    op,
                    scalar(rng, vars, depth - 1)
                )
            }
            _ => {
                let args = (0..rng.gen_range(0..3u32))
                    .map(|_| scalar(rng, vars, depth - 1))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("_f{}({args})", rng.gen_range(0..3u32))
            }
        }
    }

    /// A boolean expression over the bound variables.
    fn boolean(rng: &mut StdRng, vars: &[String], depth: u32) -> String {
        match rng.gen_range(0..if depth == 0 { 2u32 } else { 5 }) {
            0 => {
                let op = CMPS[rng.gen_range(0..CMPS.len())];
                format!(
                    "{} {} {}",
                    scalar(rng, vars, depth.saturating_sub(1)),
                    op,
                    scalar(rng, vars, depth.saturating_sub(1))
                )
            }
            1 => format!("[{}]", attr(rng)),
            2 => format!("NOT ({})", boolean(rng, vars, depth - 1)),
            _ => {
                let op = if rng.gen_bool(0.5) { "AND" } else { "OR" };
                format!(
                    "({}) {} ({})",
                    boolean(rng, vars, depth - 1),
                    op,
                    boolean(rng, vars, depth - 1)
                )
            }
        }
    }

    /// One RETURN item, possibly aliased.
    fn return_item(rng: &mut StdRng, vars: &[String], idx: usize) -> String {
        let body = match rng.gen_range(0..4u32) {
            0 => scalar(rng, vars, 2),
            1 => "count(*)".to_string(),
            2 => {
                let agg = ["sum", "avg", "min", "max"][rng.gen_range(0..4usize)];
                format!("{agg}({})", attr(rng))
            }
            _ => {
                let agg = ["sum", "avg", "min", "max"][rng.gen_range(0..4usize)];
                format!(
                    "{agg}({}.{})",
                    vars[rng.gen_range(0..vars.len())],
                    attr(rng)
                )
            }
        };
        if rng.gen_bool(0.5) {
            format!("{body} AS out{idx}")
        } else {
            body
        }
    }

    /// A complete random query string.
    pub fn query(rng: &mut StdRng) -> String {
        let mut src = String::new();
        if rng.gen_bool(0.3) {
            src.push_str(&format!("FROM stream{} ", rng.gen_range(0..5u32)));
        }

        // Pattern: 1-4 positive components, optional interior negation,
        // each component either a plain type or ANY(...).
        let positive = rng.gen_range(1..=4usize);
        let negate_after = if positive >= 2 && rng.gen_bool(0.4) {
            Some(rng.gen_range(1..positive))
        } else {
            None
        };
        let mut elems = Vec::new();
        let mut vars: Vec<String> = Vec::new();
        for i in 0..positive {
            let var = format!("v{i}");
            let component = if rng.gen_bool(0.25) {
                let n = rng.gen_range(2..=3usize);
                let mut picks: Vec<&str> = Vec::new();
                for k in 0..n {
                    picks.push(TYPES[(i + k) % TYPES.len()]);
                }
                format!("ANY({}) {var}", picks.join(", "))
            } else {
                format!("{} {var}", TYPES[rng.gen_range(0..TYPES.len())])
            };
            elems.push(component);
            vars.push(var);
            if negate_after == Some(i + 1) && i + 1 < positive {
                let nvar = "neg".to_string();
                elems.push(format!(
                    "!({} {nvar})",
                    TYPES[rng.gen_range(0..TYPES.len())]
                ));
                vars.push(nvar);
            }
        }
        src.push_str(&format!("EVENT SEQ({})", elems.join(", ")));

        if rng.gen_bool(0.8) {
            src.push_str(&format!(" WHERE {}", boolean(rng, &vars, 3)));
        }
        if rng.gen_bool(0.8) {
            let amount = rng.gen_range(1u64..100_000);
            if rng.gen_bool(0.5) {
                src.push_str(&format!(" WITHIN {amount}"));
            } else {
                src.push_str(&format!(
                    " WITHIN {amount} {}",
                    UNITS[rng.gen_range(0..UNITS.len())]
                ));
            }
        }
        if rng.gen_bool(0.7) {
            let items = (0..rng.gen_range(1..=4usize))
                .map(|i| return_item(rng, &vars, i))
                .collect::<Vec<_>>()
                .join(", ");
            src.push_str(&format!(" RETURN {items}"));
            if rng.gen_bool(0.3) {
                src.push_str(&format!(" INTO derived{}", rng.gen_range(0..5u32)));
            }
        }
        src
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse -> AST -> canonical print -> reparse is the identity on ASTs,
    /// over deeply varied generated queries (every printable construct).
    #[test]
    fn parser_round_trips_deep_generated_queries(seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let src = query_gen::query(&mut rng);
        let q1 = parse_query(&src)
            .unwrap_or_else(|e| panic!("generated query must parse: {e}\n  {src}"));
        let printed = q1.to_string();
        let q2 = parse_query(&printed)
            .unwrap_or_else(|e| panic!("canonical print must reparse: {e}\n  {printed}"));
        prop_assert_eq!(&q1, &q2, "print/reparse diverged for\n  {}\n  {}", src, printed);

        // The canonical form is a fixed point: printing q2 changes nothing.
        prop_assert_eq!(printed, q2.to_string());
    }
}
